//! The timing decorator is transparent: advice served through it is
//! byte-identical to advice served through the bare backend, so the
//! traced run measures the same program as the untraced one.

use charles_perfbench::client::{request_bytes, HttpConn};
use charles_perfbench::streams::{churn_pool, ColdStream};
use charles_perfbench::timed::TimedBackend;
use charles_serve::{ServeConfig, Server};
use charles_store::{Backend, ShardedTable};
use std::sync::Arc;
use std::time::Instant;

/// Start, drill and inspect every context; return every response body.
fn serve_all(backend: Arc<dyn Backend>, contexts: &[String]) -> Vec<String> {
    let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.spawn().unwrap();
    let mut conn = HttpConn::connect(addr).unwrap();
    let mut bodies = Vec::new();
    for (i, ctx) in contexts.iter().enumerate() {
        let start = conn
            .exchange(&request_bytes("POST", "/session", ctx))
            .unwrap();
        assert_eq!(start.status, 201, "{}", start.body);
        let id = format!("s{}", i + 1);
        let drill = conn
            .exchange(&request_bytes(
                "POST",
                &format!("/session/{id}/drill"),
                "0 0",
            ))
            .unwrap();
        let info = conn
            .exchange(&request_bytes("GET", &format!("/session/{id}"), ""))
            .unwrap();
        bodies.extend([start.body, drill.body, info.body]);
    }
    handle.shutdown();
    bodies
}

#[test]
fn advice_through_the_decorator_is_byte_identical() {
    let table = charles_datagen::voc_table(3_000, 5);
    let mut contexts: Vec<String> = churn_pool(5)
        .into_iter()
        .take(6)
        .map(|s| s.context)
        .collect();
    contexts.extend(ColdStream::new(5).take(3).map(|s| s.context));

    let bare: Arc<dyn Backend> = Arc::new(ShardedTable::from_table(&table, 4));
    let expected = serve_all(bare, &contexts);

    let inner: Arc<dyn Backend> = Arc::new(ShardedTable::from_table(&table, 4));
    let timed = Arc::new(TimedBackend::new(inner, Instant::now()));
    timed.set_recording(true);
    let served = serve_all(timed.clone(), &contexts);

    assert_eq!(served, expected);
    assert!(
        !timed.take_spans().is_empty(),
        "the decorator recorded the backend calls it forwarded"
    );
}
