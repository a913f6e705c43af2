//! Set-up: generate the VOC dataset, save it, boot the server onto the
//! saved file the way `examples/serve_client.rs` does (`.charles` →
//! `DiskTable::open` → `to_table` → `ShardedTable`), and wait for the
//! first successful response. Each phase is timed.

use crate::client::HttpConn;
use crate::streams::VOC_ROWS;
use crate::timed::TimedBackend;
use charles_serve::{ServeConfig, Server, ServerHandle};
use charles_store::{write_table, Backend, DiskTable, ShardedTable};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row-range shards of the served backend.
const SHARDS: usize = 4;

/// Wall time of each set-up phase, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub datagen_ms: f64,
    pub write_ms: f64,
    pub open_ms: f64,
    pub materialise_ms: f64,
    pub shard_ms: f64,
    pub boot_ms: f64,
}

impl Phases {
    pub fn total_s(&self) -> f64 {
        (self.datagen_ms
            + self.write_ms
            + self.open_ms
            + self.materialise_ms
            + self.shard_ms
            + self.boot_ms)
            / 1e3
    }
}

/// A running server and what the benchmark keeps beside it.
pub struct Booted {
    pub handle: ServerHandle,
    pub http: SocketAddr,
    pub wire: SocketAddr,
    /// The backend the server reads (the decorator when traced).
    pub backend: Arc<dyn Backend>,
    /// The timing decorator the server reads through (traced runs only).
    pub timed: Option<Arc<TimedBackend>>,
    pub phases: Phases,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate, save, load and serve with an advice cache of
/// `(shards, capacity)`; `timed` wraps the served backend in the timing
/// decorator.
pub fn boot(
    seed: u64,
    file: &Path,
    (cache_shards, cache_capacity): (usize, usize),
    timed: Option<Instant>,
) -> Result<Booted, String> {
    let mut phases = Phases::default();
    let t = Instant::now();
    let generated = charles_datagen::voc_table(VOC_ROWS, seed);
    phases.datagen_ms = ms_since(t);

    let t = Instant::now();
    write_table(&generated, file).map_err(|e| format!("write {}: {e}", file.display()))?;
    drop(generated);
    phases.write_ms = ms_since(t);

    let t = Instant::now();
    let disk = DiskTable::open(file).map_err(|e| format!("open {}: {e}", file.display()))?;
    phases.open_ms = ms_since(t);

    let t = Instant::now();
    let table = disk.to_table().map_err(|e| format!("materialise: {e}"))?;
    drop(disk);
    phases.materialise_ms = ms_since(t);

    let t = Instant::now();
    let sharded: Arc<dyn Backend> = Arc::new(ShardedTable::from_table(&table, SHARDS));
    phases.shard_ms = ms_since(t);

    let t = Instant::now();
    let timed = timed.map(|epoch| Arc::new(TimedBackend::new(sharded.clone(), epoch)));
    let backend: Arc<dyn Backend> = match &timed {
        Some(t) => t.clone(),
        None => sharded,
    };
    let config = ServeConfig {
        cache_shards,
        cache_capacity,
        // Keep-alive connections last the whole run, so a reconnect in
        // the measured window is a fault, not a scheduled event.
        max_requests_per_connection: usize::MAX,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", backend.clone(), config)
        .and_then(|s| s.with_wire_listener("127.0.0.1:0"))
        .map_err(|e| format!("bind: {e}"))?;
    let http = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    let wire = server.wire_addr().ok_or("no wire listener")?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while HttpConn::get(http, "/healthz").is_err() {
        if Instant::now() > deadline {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    phases.boot_ms = ms_since(t);

    Ok(Booted {
        handle,
        http,
        wire,
        backend,
        timed,
        phases,
    })
}
