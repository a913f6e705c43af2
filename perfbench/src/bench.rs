//! One benchmark run: set up, warm up, measure one workload for the
//! requested time, check every output, and compute the figures.

use crate::client::{json_u64, HttpConn};
use crate::drive::{
    cold_closed_loop, mark_wrong, prime_wire, ColdKeys, ColdSession, Cursor, Kind, Lane, OpenLoop,
    Sample,
};
use crate::layers;
use crate::oracle::{segment_counts, Ctx, Oracle, Plan};
use crate::setup::{self, Booted, Phases};
use crate::stats::{median, median_or_zero, percentile, sorted};
use crate::streams::{self, ChurnStream, ColdStream, Script, CHURN_CAPACITY};
use crate::timed::StoreSpan;
use std::collections::HashSet;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Offered rate of `churn-http`, requests per second.
pub const CHURN_RATE: f64 = 100.0;
/// Churn sessions replayed over the binary listener before warm-up.
const WIRE_CHECKED: usize = 16;
/// Unmeasured warm-up before the window, seconds.
const WARMUP_S: f64 = 1.0;
/// `churn-http` warms longer, so the cache reaches its steady state.
const CHURN_WARMUP_S: f64 = 3.0;
/// Share of a traced run's window measured with recording off, as the
/// reference for the tracing overhead.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;
/// Contexts replayed through the core advisor split.
const CORE_SAMPLE: usize = 8;
/// Contexts replayed through the codec and SDL layers.
const CODEC_SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdAdvise,
    ChurnHttp,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ColdAdvise, Workload::ChurnHttp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAdvise => "cold-advise",
            Workload::ChurnHttp => "churn-http",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn lanes(self) -> usize {
        match self {
            Workload::ColdAdvise => 1,
            _ => 2,
        }
    }

    /// Advice-cache `(shards, capacity)`. `churn-http` uses one shard:
    /// the bound is enforced per shard, and with several small shards
    /// the hit ratio would hinge on where the seed's popular contexts
    /// happen to hash.
    fn cache(self) -> (usize, usize) {
        let defaults = charles_serve::ServeConfig::default();
        match self {
            Workload::ChurnHttp => (1, CHURN_CAPACITY),
            _ => (defaults.cache_shards, defaults.cache_capacity),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A named figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything a run reports.
pub struct Report {
    /// The figures of the result line (end-to-end, or per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// Further figures printed for reading only: workload-specific ones
    /// and percentiles the sample cannot support (`None`).
    pub notes: Vec<(String, Option<f64>, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub errors: Vec<String>,
    pub provenance: String,
}

/// Counter snapshot of `/metrics` and `/cache/stats`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    requests: u64,
    connections: u64,
    responses_5xx: u64,
    analysis_rejects: u64,
    hits: u64,
    misses: u64,
    runs: u64,
    evictions: u64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let m = HttpConn::get(addr, "/metrics")?;
        let c = HttpConn::get(addr, "/cache/stats")?;
        let get = |body: &str, key: &str| {
            json_u64(body, key).ok_or_else(|| format!("no {key} in {body}"))
        };
        Ok(Counters {
            requests: get(&m, "requests")?,
            connections: get(&m, "connections")?,
            responses_5xx: get(&m, "responses_5xx")?,
            analysis_rejects: get(&m, "analysis_rejects")?,
            hits: get(&c, "hits")?,
            misses: get(&c, "misses")?,
            runs: get(&c, "runs")?,
            evictions: get(&c, "evictions")?,
        })
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            connections: self.connections - before.connections,
            responses_5xx: self.responses_5xx - before.responses_5xx,
            analysis_rejects: self.analysis_rejects - before.analysis_rejects,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            runs: self.runs - before.runs,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// One measured stretch: which samples of each lane it covers.
#[derive(Debug, Clone)]
struct Stretch {
    rate: Option<f64>,
    secs: f64,
    /// When the stretch started, in milliseconds since the epoch.
    start_ms: u32,
    /// Per lane: `(first sample, end sample, first lag, end lag)`.
    bounds: Vec<(usize, usize, usize, usize)>,
}

/// State the load generators carry from one stretch to the next.
struct Load {
    workload: Workload,
    epoch: Instant,
    addr: SocketAddr,
    plans: Vec<Plan>,
    ctxs: Vec<Ctx>,
    conns: Vec<Option<HttpConn>>,
    cursors: Vec<Option<Cursor>>,
    orders: Vec<Box<dyn Iterator<Item = usize> + Send>>,
    cold: ColdStream,
    cold_keys: ColdKeys,
    cold_sessions: Vec<ColdSession>,
}

impl Load {
    /// Drive every lane for `secs` at `rate` (open-loop workloads).
    fn stretch(&mut self, lanes: &mut [Lane], rate: Option<f64>, secs: f64) -> Stretch {
        let marks: Vec<(usize, usize)> = lanes
            .iter()
            .map(|l| (l.samples.len(), l.lag_us.len()))
            .collect();
        let start = Instant::now() + Duration::from_millis(1);
        let end = start + Duration::from_secs_f64(secs);
        let start_ms = start.duration_since(self.epoch).as_millis() as u32;
        match self.workload {
            Workload::ColdAdvise => {
                let sessions = cold_closed_loop(
                    self.addr,
                    &mut lanes[0],
                    &mut self.cold,
                    &mut self.cold_keys,
                    &mut self.conns[0],
                    end,
                );
                self.cold_sessions.extend(sessions);
            }
            Workload::ChurnHttp => {
                let ol = OpenLoop {
                    addr: self.addr,
                    lanes: lanes.len(),
                    plans: &self.plans,
                    ctxs: &self.ctxs,
                };
                let rate = rate.expect("open loops have a rate");
                std::thread::scope(|s| {
                    for (((lane, conn), cursor), order) in lanes
                        .iter_mut()
                        .zip(self.conns.iter_mut())
                        .zip(self.cursors.iter_mut())
                        .zip(self.orders.iter_mut())
                    {
                        let ol = &ol;
                        s.spawn(move || ol.run(lane, conn, cursor, &mut **order, rate, start, end));
                    }
                });
            }
        }
        // The window closes when its last response is in, so rates are
        // per second of wall time actually measured.
        Stretch {
            rate,
            secs: start.elapsed().as_secs_f64(),
            start_ms,
            bounds: lanes
                .iter()
                .zip(marks)
                .map(|(l, (s, g))| (s, l.samples.len(), g, l.lag_us.len()))
                .collect(),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance(a: &Args, fingerprint: &str) -> String {
    // Only a checkout that is itself a repository names its commit; a
    // repository further up would name the wrong one.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: workload={} seed={} seconds={} trace={} commit={commit} nproc={nproc} fingerprint={fingerprint}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8
    )
}

/// Run one workload from set-up to figures. Scratch files live under
/// `work`, which the caller removes.
pub fn run(a: &Args, work: &Path, spans_out: &Path) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut lanes: Vec<Lane> = (0..a.workload.lanes())
        .map(|i| Lane::new(i as u8, epoch))
        .collect();

    // Set-up, several times; the last server stays up.
    let mut phases: Vec<Phases> = Vec::new();
    let mut booted: Option<Booted> = None;
    for rep in 0..SETUP_REPS {
        let file = work.join(format!("voc-{rep}.charles"));
        let b = setup::boot(a.seed, &file, a.workload.cache(), a.trace.then_some(epoch))?;
        phases.push(b.phases);
        if let Some(prev) = booted.replace(b) {
            prev.handle.shutdown();
        }
        let _ = std::fs::remove_file(&file);
    }
    let booted = booted.expect("at least one set-up");
    let oracle = Oracle::new(booted.backend.clone());

    // Inputs.
    let lanes_n = lanes.len();
    let scripts: Vec<Script> = match a.workload {
        Workload::ChurnHttp => streams::churn_pool(a.seed),
        Workload::ColdAdvise => Vec::new(),
    };
    let (plans, ctxs) = crate::oracle::resolve(&oracle, &scripts)?;
    let orders: Vec<Box<dyn Iterator<Item = usize> + Send>> = (0..lanes_n)
        .map(|l| -> Box<dyn Iterator<Item = usize> + Send> {
            Box::new(ChurnStream::new(a.seed, l as u64))
        })
        .collect();
    let fingerprint = match a.workload {
        Workload::ColdAdvise => {
            streams::fingerprint(&ColdStream::new(a.seed).take(64).collect::<Vec<_>>())
        }
        _ => streams::fingerprint(&scripts),
    };
    let mut d = Load {
        workload: a.workload,
        epoch,
        addr: booted.http,
        plans,
        ctxs,
        conns: (0..lanes_n).map(|_| None).collect(),
        cursors: (0..lanes_n).map(|_| None).collect(),
        orders,
        cold: ColdStream::new(a.seed),
        cold_keys: ColdKeys::new(Oracle::new(booted.backend.clone())),
        cold_sessions: Vec::new(),
    };

    // Check the binary listener's answers on a few churn sessions, then
    // warm up and forget it.
    let (warm_rate, warm_s) = match a.workload {
        Workload::ChurnHttp => (Some(CHURN_RATE), CHURN_WARMUP_S),
        Workload::ColdAdvise => (None, WARMUP_S),
    };
    if a.workload == Workload::ChurnHttp {
        let n = WIRE_CHECKED.min(d.plans.len());
        prime_wire(booted.wire, &d.plans[..n], &d.ctxs)?;
    }
    d.stretch(&mut lanes, warm_rate, warm_s);
    let warm_errors: Vec<String> = lanes.iter().flat_map(|l| l.errors.clone()).collect();
    let warm_wrong: u64 = lanes.iter().map(|l| l.wrong).sum();
    // Warm-up cold sessions are checked like measured ones.
    let warm_cold = std::mem::take(&mut d.cold_sessions);
    for l in &mut lanes {
        l.reset();
    }

    let result = if a.trace {
        measure_traced(a, &mut d, &mut lanes, &booted, &oracle, spans_out)
    } else {
        measure(a, &mut d, &mut lanes, &booted)
    };
    let mut report = result?;

    // Cold advice is checked against the oracle after the window.
    let (cold_ms, cold_wrong) = check_cold(&oracle, &mut lanes[0], &d.cold_sessions)?;
    let warm_cold_wrong = check_cold_sessions(&oracle, &warm_cold)?;
    if a.workload == Workload::ColdAdvise && a.trace {
        cold_trace_figures(&mut report, &d.cold_sessions, &lanes[0], &cold_ms);
    }
    booted.handle.shutdown();

    report.attempted = lanes.iter().map(|l| l.attempted).sum();
    report.failed = lanes.iter().map(|l| l.failed).sum();
    let wrong: u64 = lanes.iter().map(|l| l.wrong).sum::<u64>() + warm_wrong + warm_cold_wrong;
    report.correct = report.correct && wrong == 0 && report.failed == 0 && cold_wrong == 0;
    report.errors.extend(warm_errors);
    report
        .errors
        .extend(lanes.iter().flat_map(|l| l.errors.clone()));
    if !a.trace {
        // Counted after the cold answers were checked, so wrong ones count.
        let share = report.failed as f64 / report.attempted.max(1) as f64;
        report
            .notes
            .push(("failed_share".into(), Some(share), "ratio"));
        let setup_s: Vec<f64> = phases.iter().map(Phases::total_s).collect();
        report
            .metrics
            .insert(0, metric("setup_s", median_or_zero(&setup_s), "s"));
        report
            .metrics
            .push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    } else {
        let phase =
            |f: fn(&Phases) -> f64| median_or_zero(&phases.iter().map(f).collect::<Vec<_>>());
        for (name, f) in [
            (
                "datagen.ms",
                (|p: &Phases| p.datagen_ms) as fn(&Phases) -> f64,
            ),
            ("disk.write_ms", |p| p.write_ms),
            ("disk.open_ms", |p| p.open_ms),
            ("disk.materialise_ms", |p| p.materialise_ms),
            ("shard.build_ms", |p| p.shard_ms),
            ("serve.boot_ms", |p| p.boot_ms),
        ] {
            report.metrics.push(metric(name, phase(f), "ms"));
        }
    }
    report.provenance = provenance(a, &fingerprint);
    Ok(report)
}

/// The samples of `kind` (every kind for `None`) in a stretch.
fn samples<'a>(
    lanes: &'a [Lane],
    st: &'a Stretch,
    kind: Option<Kind>,
) -> impl Iterator<Item = &'a Sample> + 'a {
    lanes
        .iter()
        .zip(&st.bounds)
        .flat_map(|(l, &(s0, s1, _, _))| l.samples[s0..s1].iter())
        .filter(move |s| kind.is_none_or(|k| k == s.kind))
}

/// A sample's latency in ms; a failed operation is infinitely slow.
fn latency_ms(s: &Sample) -> f64 {
    match s.ok {
        true => f64::from(s.latency_us) / 1e3,
        false => f64::INFINITY,
    }
}

/// Sorted latencies (ms) of `kind` in `stretches`.
fn latencies(lanes: &[Lane], stretches: &[Stretch], kind: Option<Kind>) -> Vec<f64> {
    let v: Vec<f64> = stretches
        .iter()
        .flat_map(|st| samples(lanes, st, kind).map(latency_ms))
        .collect();
    sorted(&v)
}

/// Samples a one-second bucket needs before figures are taken per
/// bucket: enough to support a p95.
const BUCKET_MIN: usize = 200;

/// Percentile `q` (50 = median) of the latencies of `kind` in
/// `stretches`, in ms. When every whole second of the window holds at
/// least [`BUCKET_MIN`] samples, the figure is the median across those
/// seconds of each second's percentile, so a passing disturbance on a
/// shared machine moves one bucket rather than the figure; otherwise it
/// is the percentile of the whole window. `None` when the sample cannot
/// support the percentile.
fn figure(lanes: &[Lane], stretches: &[Stretch], kind: Option<Kind>, q: f64) -> Option<f64> {
    let of = |v: &[f64]| match q {
        50.0 => median(v),
        _ => percentile(v, q),
    };
    let mut buckets: Vec<Vec<f64>> = Vec::new();
    for st in stretches {
        let whole = (st.secs.floor() as usize).max(1);
        let first = buckets.len();
        buckets.resize(first + whole, Vec::new());
        for s in samples(lanes, st, kind) {
            let b = (s.due_ms.saturating_sub(st.start_ms) / 1000) as usize;
            if b < whole {
                buckets[first + b].push(latency_ms(s));
            }
        }
    }
    if buckets.len() > 1 && buckets.iter().all(|b| b.len() >= BUCKET_MIN) {
        let per: Option<Vec<f64>> = buckets.iter().map(|b| of(&sorted(b))).collect();
        if let Some(per) = per {
            return median(&sorted(&per));
        }
    }
    of(&latencies(lanes, stretches, kind))
}

fn ok_count(lanes: &[Lane], st: &Stretch) -> usize {
    samples(lanes, st, None).filter(|s| s.ok).count()
}

fn lags_ms(lanes: &[Lane], st: &Stretch) -> Vec<f64> {
    let v: Vec<f64> = lanes
        .iter()
        .zip(&st.bounds)
        .flat_map(|(l, &(_, _, g0, g1))| l.lag_us[g0..g1].iter().map(|&x| f64::from(x) / 1e3))
        .collect();
    sorted(&v)
}

/// Advice lookups (starts and drills) that succeeded in `stretches`.
fn lookups(lanes: &[Lane], stretches: &[Stretch]) -> u64 {
    stretches
        .iter()
        .flat_map(|st| samples(lanes, st, None))
        .filter(|s| s.ok && matches!(s.kind, Kind::Start | Kind::Drill))
        .count() as u64
}

/// Check that the realised cache mix is the one the workload claims.
fn check_mix(w: Workload, c: &Counters, lookups: u64) -> Result<(), String> {
    let ok = match w {
        Workload::ColdAdvise => c.hits == 0 && c.misses == lookups && c.runs == lookups,
        Workload::ChurnHttp => {
            c.hits + c.misses == lookups && c.runs <= c.misses && c.evictions > 0 && c.hits > 0
        }
    };
    match ok {
        true => Ok(()),
        false => Err(format!(
            "{}: realised cache mix {c:?} does not match the workload ({lookups} lookups)",
            w.name()
        )),
    }
}

/// The untraced run: every end-to-end figure.
fn measure(a: &Args, d: &mut Load, lanes: &mut [Lane], booted: &Booted) -> Result<Report, String> {
    let before = Counters::read(booted.http)?;
    let stretches: Vec<Stretch> = match a.workload {
        Workload::ChurnHttp => vec![d.stretch(lanes, Some(CHURN_RATE), a.seconds)],
        Workload::ColdAdvise => vec![d.stretch(lanes, None, a.seconds)],
    };
    let counters = Counters::read(booted.http)?.since(before);
    let mut errors = Vec::new();
    if let Err(e) = check_mix(a.workload, &counters, lookups(lanes, &stretches)) {
        errors.push(e);
    }

    let secs: f64 = stretches.iter().map(|s| s.secs).sum();
    let ok: usize = stretches.iter().map(|s| ok_count(lanes, s)).sum();
    let all = latencies(lanes, &stretches, None);
    let mut metrics = vec![metric("ops_per_s", ok as f64 / secs, "ops/s")];
    let mut notes = Vec::new();
    // The result line carries medians and p95 over all operations; the
    // rest is printed, and only where the sample supports it.
    let mut required = |name: &str, kind: Option<Kind>, q: f64| -> Result<(), String> {
        match figure(lanes, &stretches, kind, q) {
            Some(x) => {
                metrics.push(metric(name, x, "ms"));
                Ok(())
            }
            None => Err(format!("{name}: {} samples cannot support it", all.len())),
        }
    };
    required("latency_p50_ms", None, 50.0)?;
    required("latency_p95_ms", None, 95.0)?;
    required("start_p50_ms", Some(Kind::Start), 50.0)?;
    required("drill_p50_ms", Some(Kind::Drill), 50.0)?;
    notes.push((
        "latency_p99_ms".into(),
        figure(lanes, &stretches, None, 99.0),
        "ms",
    ));
    notes.push((
        "start_p95_ms".into(),
        figure(lanes, &stretches, Some(Kind::Start), 95.0),
        "ms",
    ));
    notes.push((
        "drill_p95_ms".into(),
        figure(lanes, &stretches, Some(Kind::Drill), 95.0),
        "ms",
    ));
    notes.push(("samples".into(), Some(all.len() as f64), "count"));
    for st in &stretches {
        let Some(rate) = st.rate else { continue };
        let lat = latencies(lanes, std::slice::from_ref(st), None);
        let lag = lags_ms(lanes, st);
        notes.push((format!("latency_p50_ms@{rate}"), median(&lat), "ms"));
        notes.push((
            format!("latency_p95_ms@{rate}"),
            percentile(&lat, 95.0),
            "ms",
        ));
        notes.push((
            format!("gen.lag_p99_ms@{rate}"),
            percentile(&lag, 99.0),
            "ms",
        ));
    }
    Ok(Report {
        metrics,
        notes,
        attempted: 0,
        failed: 0,
        correct: errors.is_empty(),
        errors,
        provenance: String::new(),
    })
}

/// The traced run: an untraced reference stretch, then a traced one
/// that yields every per-layer figure.
fn measure_traced(
    a: &Args,
    d: &mut Load,
    lanes: &mut [Lane],
    booted: &Booted,
    oracle: &Oracle,
    spans_out: &Path,
) -> Result<Report, String> {
    let rate = match a.workload {
        Workload::ChurnHttp => Some(CHURN_RATE),
        Workload::ColdAdvise => None,
    };
    let reference = d.stretch(lanes, rate, a.seconds * UNTRACED_SHARE);
    let timed = booted
        .timed
        .as_ref()
        .expect("traced runs serve through the decorator");
    for l in lanes.iter_mut() {
        l.traced = true;
    }
    let before = Counters::read(booted.http)?;
    timed.set_recording(true);
    let traced = d.stretch(lanes, rate, a.seconds * (1.0 - UNTRACED_SHARE));
    timed.set_recording(false);
    let c = Counters::read(booted.http)?.since(before);
    let spans = timed.take_spans();
    let mut errors = Vec::new();
    if let Err(e) = check_mix(
        a.workload,
        &c,
        lookups(lanes, std::slice::from_ref(&traced)),
    ) {
        errors.push(e);
    }

    let mut m: Vec<Metric> = Vec::new();
    // Tracing overhead: traced against untraced median start latency.
    let p50 = |st: &Stretch| {
        median(&latencies(
            lanes,
            std::slice::from_ref(st),
            Some(Kind::Start),
        ))
    };
    let overhead = match (p50(&reference), p50(&traced)) {
        (Some(r), Some(t)) if r > 0.0 => (t / r - 1.0) * 100.0,
        _ => 0.0,
    };
    m.push(metric("trace.overhead_pct", overhead, "%"));
    m.push(metric(
        "trace.start_p50_ms",
        p50(&traced).unwrap_or(0.0),
        "ms",
    ));
    // Generator validity.
    let lag = lags_ms(lanes, &traced);
    m.push(metric(
        "gen.lag_p99_ms",
        percentile(&lag, 99.0)
            .or(lag.last().copied())
            .unwrap_or(0.0),
        "ms",
    ));
    m.push(metric(
        "client.connects",
        lanes.iter().map(|l| l.connects).sum::<u64>() as f64,
        "count",
    ));
    // Server counters. Two of the requests are this run's own reads.
    m.push(metric(
        "server.requests",
        c.requests.saturating_sub(2) as f64,
        "count",
    ));
    m.push(metric(
        "server.connections",
        c.connections.saturating_sub(2) as f64,
        "count",
    ));
    m.push(metric("server.5xx", c.responses_5xx as f64, "count"));
    m.push(metric(
        "server.analysis_rejects",
        c.analysis_rejects as f64,
        "count",
    ));
    // Cache counters.
    let hit_ratio = match c.hits + c.misses {
        0 => 0.0,
        n => c.hits as f64 / n as f64,
    };
    for (name, v) in [
        ("cache.hits", c.hits),
        ("cache.misses", c.misses),
        ("cache.runs", c.runs),
        ("cache.coalesced", c.misses - c.runs.min(c.misses)),
        ("cache.evictions", c.evictions),
    ] {
        m.push(metric(name, v as f64, "count"));
    }
    m.push(metric("cache.hit_ratio", hit_ratio, "ratio"));

    // Codec and SDL replays over what was served.
    let requests: Vec<Vec<u8>> = lanes.iter().flat_map(|l| l.requests.clone()).collect();
    m.push(metric(
        "http.parse_us",
        layers::http_parse_us(&requests),
        "us",
    ));
    let replay_ctxs: Vec<Ctx>;
    let served: Vec<&Ctx> = match a.workload {
        Workload::ColdAdvise => {
            // Cold advice is not kept; advise a few served contexts again.
            replay_ctxs = d
                .cold_sessions
                .iter()
                .take(CORE_SAMPLE)
                .map(|s| oracle.advise(&oracle.parse(&s.script.context)?))
                .collect::<Result<_, _>>()?;
            replay_ctxs.iter().collect()
        }
        _ => d.ctxs.iter().take(CODEC_SAMPLE).collect(),
    };
    let (enc_us, bytes) = layers::json_encode(&served);
    m.push(metric("json.encode_us", enc_us, "us"));
    m.push(metric("json.bytes", bytes, "bytes"));
    // Context texts as served: every cold one is still cached, so
    // starting a session on it again runs no advisor.
    let texts: Vec<&str> = match a.workload {
        Workload::ColdAdvise => d
            .cold_sessions
            .iter()
            .take(CODEC_SAMPLE)
            .map(|s| s.script.context.as_str())
            .collect(),
        _ => d
            .plans
            .iter()
            .take(CODEC_SAMPLE)
            .map(|p| p.body.as_str())
            .collect(),
    };
    let (wenc, wdec, wbytes) = layers::wire_codec(booted.wire, &texts)?;
    m.push(metric("wire.encode_us", wenc, "us"));
    m.push(metric("wire.decode_us", wdec, "us"));
    m.push(metric("wire.bytes", wbytes, "bytes"));
    let (parse_us, analyze_us) = layers::sdl_costs(oracle, &texts);
    m.push(metric("sdl.parse_us", parse_us, "us"));
    m.push(metric("sdl.analyze_us", analyze_us, "us"));

    // The core advisor over served contexts (a sample).
    let core_ctxs: Vec<&Ctx> = served.iter().copied().take(CORE_SAMPLE).collect();
    let split = layers::core_split(oracle, &core_ctxs)?;
    let advise_ms: Vec<f64> = served.iter().map(|c| c.advise_ms).collect();
    let field =
        |f: fn(&Ctx) -> f64| median_or_zero(&served.iter().map(|c| f(c)).collect::<Vec<_>>());
    m.push(metric("core.advise_ms", median_or_zero(&advise_ms), "ms"));
    m.push(metric("core.explorer_ms", split.explorer_ms, "ms"));
    m.push(metric("core.hb_cuts_ms", split.hb_cuts_ms, "ms"));
    m.push(metric(
        "core.compose_steps",
        field(|c| c.advice.trace.steps.len() as f64),
        "count",
    ));
    m.push(metric("core.candidates", split.candidates, "count"));
    m.push(metric(
        "engine.sel_hits",
        field(|c| c.advice.cache.sel_hits as f64),
        "count",
    ));
    m.push(metric(
        "engine.sel_misses",
        field(|c| c.advice.cache.sel_misses as f64),
        "count",
    ));
    m.push(metric(
        "engine.indep_misses",
        field(|c| c.advice.cache.indep_misses as f64),
        "count",
    ));

    // Serving overhead: start latency beyond the advise it waited for.
    // Cold starts fill it in once the oracle has timed each context; on
    // churn a start's hit or miss is not known, so it stays 0.
    m.push(metric("serve.overhead_ms", 0.0, "ms"));

    // Store figures, per advisor run.
    for (name, v, unit) in layers::store_figures(&spans, c.runs) {
        m.push(metric(name, v, unit));
    }
    write_spans(spans_out, lanes, &spans)?;

    Ok(Report {
        metrics: m,
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: errors.is_empty(),
        errors,
        provenance: String::new(),
    })
}

/// Check cold sessions against the oracle; the oracle's advise time
/// per session start, and the number of wrong answers.
fn check_cold(
    oracle: &Oracle,
    lane: &mut Lane,
    sessions: &[ColdSession],
) -> Result<(Vec<Option<f64>>, u64), String> {
    let mut wrong = 0;
    let mut times = Vec::with_capacity(sessions.len());
    for s in sessions {
        let (root_ms, bad) = check_one(oracle, s)?;
        times.push(root_ms);
        for (op, msg) in bad {
            wrong += 1;
            mark_wrong(lane, op, msg);
        }
    }
    Ok((times, wrong))
}

/// Wrong answers among warm-up cold sessions.
fn check_cold_sessions(oracle: &Oracle, sessions: &[ColdSession]) -> Result<u64, String> {
    let mut wrong = 0;
    for s in sessions {
        wrong += check_one(oracle, s)?.1.len() as u64;
    }
    Ok(wrong)
}

type Bad = Vec<(crate::drive::OpRef, String)>;

/// One cold session against the oracle: the root's advise time and
/// every mismatch.
fn check_one(oracle: &Oracle, s: &ColdSession) -> Result<(Option<f64>, Bad), String> {
    let mut bad = Vec::new();
    let Some((served, op)) = &s.start else {
        return Ok((None, bad));
    };
    let root = oracle.advise(&oracle.parse(&s.script.context)?)?;
    if *served != root.json {
        bad.push((
            *op,
            format!("start advice differs from the oracle for {}", root.key),
        ));
    }
    if let Some((rank, seg, served, op)) = &s.drill {
        let counts = segment_counts(&root.advice);
        match root.advice.segment(*rank, *seg) {
            Some(child) if counts.get(*rank).is_some_and(|&n| *seg < n) => {
                let child = oracle.advise(child)?;
                if *served != child.json {
                    bad.push((
                        *op,
                        format!("drill advice differs from the oracle for {}", child.key),
                    ));
                }
            }
            _ => bad.push((
                *op,
                format!("drill ({rank}, {seg}) is not in the oracle's advice"),
            )),
        }
    }
    Ok((Some(root.advise_ms), bad))
}

/// Cold-advise per-layer figures that need the oracle's timings: the
/// advise time of every served start, and the serving overhead beyond it.
fn cold_trace_figures(
    report: &mut Report,
    sessions: &[ColdSession],
    lane: &Lane,
    ms: &[Option<f64>],
) {
    let mut advise = Vec::new();
    let mut overhead = Vec::new();
    for (s, t) in sessions.iter().zip(ms) {
        let (Some((_, op)), Some(t)) = (&s.start, t) else {
            continue;
        };
        let Some(d) = op.detail.and_then(|i| lane.details.get(i)) else {
            continue;
        };
        advise.push(*t);
        overhead.push(d.latency_ms() - t);
    }
    for m in &mut report.metrics {
        match m.name.as_str() {
            "core.advise_ms" => m.value = median_or_zero(&advise),
            "serve.overhead_ms" => m.value = median_or_zero(&overhead),
            _ => {}
        }
    }
}

/// Write the traced run's spans: one line per client request and per
/// store call. With one lane, each store call carries the id of the
/// request whose span contains it.
fn write_spans(path: &Path, lanes: &[Lane], spans: &[StoreSpan]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    let mut reqs: Vec<&crate::drive::Detail> =
        lanes.iter().flat_map(|l| l.details.iter()).collect();
    reqs.sort_by_key(|r| r.sent_ns);
    let write = |out: &mut std::io::BufWriter<std::fs::File>, line: String| {
        out.write_all(line.as_bytes()).map_err(|e| e.to_string())
    };
    write(&mut out, "layer\tname\trequest\tstart_ns\tend_ns\n".into())?;
    for r in &reqs {
        let kind = format!("{:?}", r.kind).to_lowercase();
        write(
            &mut out,
            format!(
                "client\t{kind}.send\t{}\t{}\t{}\n",
                r.id, r.sent_ns, r.first_ns
            ),
        )?;
        write(
            &mut out,
            format!(
                "client\t{kind}.first_byte\t{}\t{}\t{}\n",
                r.id, r.first_ns, r.first_ns
            ),
        )?;
        write(
            &mut out,
            format!(
                "client\t{kind}.complete\t{}\t{}\t{}\n",
                r.id, r.due_ns, r.done_ns
            ),
        )?;
    }
    let single = lanes.len() == 1;
    for s in spans {
        let owner = match single {
            true => {
                let i = reqs.partition_point(|r| r.sent_ns <= s.start_ns);
                i.checked_sub(1)
                    .map(|i| reqs[i])
                    .filter(|r| s.end_ns <= r.done_ns)
                    .map_or("-".to_string(), |r| r.id.to_string())
            }
            false => "-".to_string(),
        };
        write(
            &mut out,
            format!(
                "store\t{}\t{owner}\t{}\t{}\n",
                crate::timed::STORE_OPS[s.op],
                s.start_ns,
                s.end_ns
            ),
        )?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Distinct cache keys among `scripts` after static-analysis
/// normalisation, as the server's cache would key them.
pub fn normalised_keys(oracle: &Oracle, scripts: &[Script]) -> Result<HashSet<String>, String> {
    scripts
        .iter()
        .map(|s| oracle.cache_key(&s.context))
        .collect()
}
