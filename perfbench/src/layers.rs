//! Per-layer figures for the traced run: in-process replays through
//! each layer's public functions, and store figures from the timing
//! decorator's spans. All times are medians over the replayed items.

use crate::oracle::{Ctx, Oracle};
use crate::stats::median_or_zero;
use crate::timed::{StoreSpan, STORE_OPS};
use charles_core::{hb_cuts, Advisor, Config, Explorer};
use charles_serve::http::parse_request;
use charles_serve::json::encode_advice;
use charles_serve::wire::{WireConn, WireRequest, WireResponse, HEADER_LEN};
use charles_serve::ClientConfig;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

/// Repetitions per replayed item for microsecond-scale calls.
const REPS: u32 = 32;

/// Median per-call time of `f` over `items`, in microseconds.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            for _ in 0..REPS {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
        })
        .collect();
    median_or_zero(&times)
}

/// `http::parse_request` over the recorded request bytes.
pub fn http_parse_us(requests: &[Vec<u8>]) -> f64 {
    per_call_us(requests, |bytes| {
        let parsed = parse_request(&mut std::io::Cursor::new(bytes.as_slice()));
        black_box(parsed.expect("recorded requests parse"));
    })
}

/// `json::encode_advice` over the served advices: time and bytes.
pub fn json_encode(ctxs: &[&Ctx]) -> (f64, f64) {
    let us = per_call_us(ctxs, |c| {
        black_box(encode_advice(black_box(&c.advice)));
    });
    let bytes: Vec<f64> = ctxs.iter().map(|c| c.json.len() as f64).collect();
    (us, median_or_zero(&bytes))
}

/// `WireResponse::encode`/`decode` over the start frames the server
/// sends for `bodies` (fetched once each, then replayed in process):
/// encode µs, decode µs, frame bytes.
pub fn wire_codec(addr: SocketAddr, bodies: &[&str]) -> Result<(f64, f64, f64), String> {
    let mut conn =
        WireConn::connect(&addr, &ClientConfig::default()).map_err(|e| format!("wire: {e}"))?;
    let mut frames: Vec<WireResponse> = Vec::new();
    for body in bodies {
        conn.send(&WireRequest::Start { body })
            .map_err(|e| format!("wire send: {e}"))?;
        let resp = conn.recv().map_err(|e| format!("wire recv: {e}"))?;
        if let WireResponse::Started { id, .. } = &resp {
            conn.send(&WireRequest::Delete { id })
                .map_err(|e| format!("wire send: {e}"))?;
            conn.recv().map_err(|e| format!("wire recv: {e}"))?;
        }
        frames.push(resp);
    }
    let mut buf = Vec::new();
    let encode_us = per_call_us(&frames, |r| {
        buf.clear();
        r.encode(&mut buf);
        black_box(&buf);
    });
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect();
    let decode_us = per_call_us(&encoded, |b| {
        black_box(WireResponse::decode(b[5], &b[HEADER_LEN..]).expect("own frames decode"));
    });
    let bytes: Vec<f64> = encoded.iter().map(|b| b.len() as f64).collect();
    Ok((encode_us, decode_us, median_or_zero(&bytes)))
}

/// `parse_query` and `Advisor::analyze` per context text: µs each.
pub fn sdl_costs(oracle: &Oracle, texts: &[&str]) -> (f64, f64) {
    let schema = oracle.backend().schema();
    let parse_us = per_call_us(texts, |t| {
        black_box(charles_sdl::parse_query(t, schema).expect("generated contexts parse"));
    });
    let queries: Vec<_> = texts
        .iter()
        .map(|t| oracle.parse(t).expect("generated contexts parse"))
        .collect();
    let advisor = Advisor::new(oracle.backend());
    let analyze_us = per_call_us(&queries, |q| {
        black_box(advisor.analyze(q));
    });
    (parse_us, analyze_us)
}

/// The advisor's split for a sample of contexts.
pub struct CoreCosts {
    pub explorer_ms: f64,
    pub hb_cuts_ms: f64,
    pub candidates: f64,
}

/// `Explorer::new` and `hb_cuts` timed separately, once per context.
pub fn core_split(oracle: &Oracle, ctxs: &[&Ctx]) -> Result<CoreCosts, String> {
    let (mut explorer, mut hb, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    for c in ctxs {
        let t = Instant::now();
        let ex = Explorer::new(
            oracle.backend(),
            Config::default(),
            c.advice.context.clone(),
        )
        .map_err(|e| format!("explorer {}: {e}", c.key))?;
        explorer.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let out = hb_cuts(&ex);
        hb.push(t.elapsed().as_secs_f64() * 1e3);
        candidates.push(out.map(|o| o.ranked.len()).unwrap_or(0) as f64);
    }
    Ok(CoreCosts {
        explorer_ms: median_or_zero(&explorer),
        hb_cuts_ms: median_or_zero(&hb),
        candidates: median_or_zero(&candidates),
    })
}

/// The `Backend` methods HB-cuts calls, whose figures are reported (the
/// decorator times every method).
const REPORTED_OPS: [&str; 7] = [
    "eval",
    "not_null",
    "count",
    "median",
    "min_max",
    "next_above",
    "frequencies",
];

/// Store figures from decorator spans, per advisor run: calls and busy
/// milliseconds per `Backend` method, rows examined, and the median
/// density of the selections `eval` returned.
pub fn store_figures(spans: &[StoreSpan], runs: u64) -> Vec<(String, f64, &'static str)> {
    let per_run = |v: f64| if runs == 0 { v } else { v / runs as f64 };
    let mut out = Vec::new();
    for name in REPORTED_OPS {
        let op = STORE_OPS
            .iter()
            .position(|o| *o == name)
            .expect("reported ops are timed ops");
        let mine = spans.iter().filter(|s| s.op == op);
        let (calls, busy_ns) = mine.fold((0u64, 0u64), |(c, b), s| {
            (c + 1, b + (s.end_ns - s.start_ns))
        });
        out.push((
            format!("store.{name}.calls"),
            per_run(calls as f64),
            "count",
        ));
        out.push((
            format!("store.{name}.busy_ms"),
            per_run(busy_ns as f64 / 1e6),
            "ms",
        ));
    }
    let rows: u64 = spans.iter().map(|s| s.rows).sum();
    out.push(("store.rows_scanned".into(), per_run(rows as f64), "count"));
    let density: Vec<f64> = spans.iter().filter_map(|s| s.density).collect();
    out.push((
        "store.eval.density_p50".into(),
        median_or_zero(&density),
        "ratio",
    ));
    out
}
