//! A timing decorator over any [`Backend`]: it forwards every trait
//! method unchanged and, while recording is on, keeps one span per call.
//!
//! Only the traced run installs it; untraced runs serve the bare
//! backend. `tests/decorator.rs` pins that advice served through the
//! decorator is byte-identical to advice served without it.

use charles_store::stats::FrequencyTable;
use charles_store::{Backend, BackendStats, Bitmap, Schema, StorePredicate, StoreResult, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `Backend` methods the decorator times, in report order.
pub const STORE_OPS: [&str; 11] = [
    "eval",
    "not_null",
    "count",
    "median",
    "sampled_median",
    "quantile",
    "min_max",
    "next_above",
    "mean_and_var",
    "frequencies",
    "distinct_count",
];

/// One backend call.
#[derive(Debug, Clone, Copy)]
pub struct StoreSpan {
    /// Index into [`STORE_OPS`].
    pub op: usize,
    /// Nanoseconds since the decorator's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows the call examined: the whole relation for a predicate scan,
    /// the selected rows for an aggregate over a selection.
    pub rows: u64,
    /// Share of rows set in a returned selection (`eval` only).
    pub density: Option<f64>,
}

pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<StoreSpan>>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn Backend>, epoch: Instant) -> TimedBackend {
        TimedBackend {
            inner,
            epoch,
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Take every span recorded so far.
    pub fn take_spans(&self) -> Vec<StoreSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn timed<T>(
        &self,
        op: usize,
        rows: impl FnOnce() -> u64,
        call: impl FnOnce() -> StoreResult<T>,
        density: impl FnOnce(&T) -> Option<f64>,
    ) -> StoreResult<T> {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let density = out.as_ref().ok().and_then(density);
        let span = StoreSpan {
            op,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            rows: rows(),
            density,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
        out
    }

    fn all(&self) -> u64 {
        self.inner.row_count() as u64
    }
}

fn selected(sel: &Bitmap) -> u64 {
    sel.count_ones() as u64
}

fn none<T>(_: &T) -> Option<f64> {
    None
}

impl Backend for TimedBackend {
    fn row_count(&self) -> usize {
        self.inner.row_count()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn eval(&self, pred: &StorePredicate) -> StoreResult<Bitmap> {
        self.timed(
            0,
            || self.all(),
            || self.inner.eval(pred),
            |b| Some(b.count_ones() as f64 / b.len().max(1) as f64),
        )
    }

    fn not_null(&self, column: &str) -> StoreResult<Bitmap> {
        self.timed(1, || self.all(), || self.inner.not_null(column), none)
    }

    fn count(&self, pred: &StorePredicate) -> StoreResult<usize> {
        self.timed(2, || self.all(), || self.inner.count(pred), none)
    }

    fn median(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<Value>> {
        self.timed(3, || selected(sel), || self.inner.median(column, sel), none)
    }

    fn sampled_median(
        &self,
        column: &str,
        sel: &Bitmap,
        sample_size: usize,
        seed: u64,
    ) -> StoreResult<Option<Value>> {
        self.timed(
            4,
            || selected(sel),
            || self.inner.sampled_median(column, sel, sample_size, seed),
            none,
        )
    }

    fn quantile(&self, column: &str, sel: &Bitmap, q: f64) -> StoreResult<Option<Value>> {
        self.timed(
            5,
            || selected(sel),
            || self.inner.quantile(column, sel, q),
            none,
        )
    }

    fn min_max(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(Value, Value)>> {
        self.timed(
            6,
            || selected(sel),
            || self.inner.min_max(column, sel),
            none,
        )
    }

    fn next_above(&self, column: &str, sel: &Bitmap, v: &Value) -> StoreResult<Option<Value>> {
        self.timed(
            7,
            || selected(sel),
            || self.inner.next_above(column, sel, v),
            none,
        )
    }

    fn mean_and_var(&self, column: &str, sel: &Bitmap) -> StoreResult<Option<(f64, f64)>> {
        self.timed(
            8,
            || selected(sel),
            || self.inner.mean_and_var(column, sel),
            none,
        )
    }

    fn frequencies(
        &self,
        column: &str,
        sel: &Bitmap,
    ) -> StoreResult<(FrequencyTable, Vec<String>)> {
        self.timed(
            9,
            || selected(sel),
            || self.inner.frequencies(column, sel),
            none,
        )
    }

    fn distinct_count(&self, column: &str, sel: &Bitmap) -> StoreResult<usize> {
        self.timed(
            10,
            || selected(sel),
            || self.inner.distinct_count(column, sel),
            none,
        )
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}
