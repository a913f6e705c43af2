//! Load generators: an open loop over HTTP (`churn-http`) and a
//! one-analyst closed loop over HTTP (`cold-advise`).
//!
//! Every response is checked as it arrives against the oracle's
//! expected advice or, for cold contexts, kept for the oracle to check
//! after the window.

use crate::client::{request_bytes, segmentations, split_envelope, HttpConn};
use crate::oracle::{Ctx, Oracle, Plan, Step};
use crate::streams::{pick_unused, Script};
use charles_serve::wire::{WireConn, WireRequest, WireResponse};
use charles_serve::ClientConfig;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Latency samples a lane can hold. The buffer is allocated and touched
/// up front, so the client's resident memory does not grow with the
/// server's throughput.
const LANE_SAMPLES: usize = 1_500_000;
/// Per-request detail records (spans) a lane keeps at most.
const LANE_DETAILS: usize = 20_000;
/// Recorded request byte strings kept for the `http.parse_us` replay.
const KEPT_REQUESTS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Start,
    Drill,
    Delete,
}

impl Kind {
    fn of(step: Step) -> Kind {
        match step {
            Step::Start => Kind::Start,
            Step::Drill(_) => Kind::Drill,
            Step::Delete => Kind::Delete,
        }
    }
}

/// One operation's outcome: what the end-to-end figures are made of.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub ok: bool,
    /// Open loop: from the scheduled send; closed loop: from the send.
    pub latency_us: f32,
    /// When the operation was due, in milliseconds since the epoch.
    pub due_ms: u32,
}

/// One request's client spans, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Detail {
    pub id: u64,
    pub kind: Kind,
    pub ok: bool,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub first_ns: u64,
    pub done_ns: u64,
}

impl Detail {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
}

/// What one lane (one connection, one client thread) measured.
pub struct Lane {
    pub samples: Vec<Sample>,
    /// Open loop: how late each request was sent, in microseconds.
    pub lag_us: Vec<f32>,
    pub details: Vec<Detail>,
    /// Request bytes, for the parser replay.
    pub requests: Vec<Vec<u8>>,
    /// Keep a [`Detail`] per request and the first requests' bytes
    /// (traced stretches only).
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failures whose response arrived but was wrong.
    pub wrong: u64,
    pub connects: u64,
    pub errors: Vec<String>,
    pub lane: u8,
    next_id: u64,
    epoch: Instant,
}

impl Lane {
    pub fn new(lane: u8, epoch: Instant) -> Lane {
        let mut samples = Vec::with_capacity(LANE_SAMPLES);
        samples.resize(
            LANE_SAMPLES,
            Sample {
                kind: Kind::Start,
                ok: false,
                latency_us: 1.0,
                due_ms: 1,
            },
        );
        std::hint::black_box(&mut samples);
        samples.clear();
        Lane {
            samples,
            lag_us: Vec::new(),
            details: Vec::new(),
            requests: Vec::new(),
            traced: false,
            attempted: 0,
            failed: 0,
            wrong: 0,
            connects: 0,
            errors: Vec::new(),
            lane,
            next_id: u64::from(lane) << 48,
            epoch,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one operation.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kind: Kind,
        ok: bool,
        wrong: bool,
        due: Instant,
        sent: Instant,
        first: Instant,
        done: Instant,
    ) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if wrong {
            self.wrong += 1;
        }
        let latency = done.saturating_duration_since(due);
        if self.samples.len() < LANE_SAMPLES {
            self.samples.push(Sample {
                kind,
                ok,
                latency_us: latency.as_secs_f64() as f32 * 1e6,
                due_ms: due.saturating_duration_since(self.epoch).as_millis() as u32,
            });
        }
        if self.traced && self.details.len() < LANE_DETAILS {
            let id = self.next_id;
            self.next_id += 1;
            let d = Detail {
                id,
                kind,
                ok,
                due_ns: self.ns(due),
                sent_ns: self.ns(sent),
                first_ns: self.ns(first),
                done_ns: self.ns(done),
            };
            self.details.push(d);
        }
    }

    /// Keep a request's bytes for the parser replay.
    fn keep(&mut self, req: &[u8]) {
        if self.traced && self.requests.len() < KEPT_REQUESTS {
            self.requests.push(req.to_vec());
        }
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Forget everything measured so far (after a warm-up), keeping the
    /// allocations.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.lag_us.clear();
        self.details.clear();
        self.requests.clear();
        self.attempted = 0;
        self.failed = 0;
        self.wrong = 0;
        self.errors.clear();
    }
}

/// Where a lane is inside its current session.
pub struct Cursor {
    plan: usize,
    steps: Vec<Step>,
    at: usize,
    id: String,
}

impl Cursor {
    /// The next session `order` names, before its first step.
    fn begin(order: &mut dyn Iterator<Item = usize>, plans: &[Plan]) -> Cursor {
        let plan = order.next().expect("session streams are endless");
        Cursor {
            plan,
            steps: plans[plan].steps(),
            at: 0,
            id: String::new(),
        }
    }
}

/// The HTTP request for `step` of a planned session.
fn http_request(plan: &Plan, step: Step, id: &str) -> Vec<u8> {
    match step {
        Step::Start => request_bytes("POST", "/session", &plan.body),
        Step::Drill(i) => {
            let (rank, seg, _) = plan.drills[i];
            request_bytes(
                "POST",
                &format!("/session/{id}/drill"),
                &format!("{rank} {seg}"),
            )
        }
        Step::Delete => request_bytes("DELETE", &format!("/session/{id}"), ""),
    }
}

/// Check an HTTP response to `step`; on a good start, return the new
/// session id.
fn check_http(
    plan: &Plan,
    step: Step,
    id: &str,
    status: u16,
    body: &str,
    ctxs: &[Ctx],
) -> Result<Option<String>, String> {
    let want = want_status(step);
    if status != want {
        return Err(format!(
            "{step:?}: status {status}, want {want}: {body:.200}"
        ));
    }
    let Some(ctx) = plan.expected(step) else {
        return match body.is_empty() {
            true => Ok(None),
            false => Err(format!("{step:?}: unexpected body {body:.200}")),
        };
    };
    let (got_id, advice) =
        split_envelope(body).ok_or_else(|| format!("{step:?}: not an envelope: {body:.200}"))?;
    if step != Step::Start && got_id != id {
        return Err(format!("{step:?}: session {got_id}, want {id}"));
    }
    if advice != ctxs[ctx].json {
        return Err(format!(
            "{step:?}: advice differs from the oracle for {}",
            ctxs[ctx].key
        ));
    }
    Ok((step == Step::Start).then(|| got_id.to_string()))
}

/// Run each of `plans` once over the binary listener, checking each
/// answer: the advice, rendered with `WireAdvice::to_json`, must equal
/// the JSON the HTTP listener serves for the same context.
pub fn prime_wire(addr: SocketAddr, plans: &[Plan], ctxs: &[Ctx]) -> Result<(), String> {
    let mut conn = WireConn::connect(&addr, &ClientConfig::default())
        .map_err(|e| format!("wire connect: {e}"))?;
    for plan in plans {
        let mut id = String::new();
        for step in plan.steps() {
            let req = match step {
                Step::Start => WireRequest::Start { body: &plan.body },
                Step::Drill(i) => WireRequest::Drill {
                    id: &id,
                    rank: plan.drills[i].0,
                    seg: plan.drills[i].1,
                },
                Step::Delete => WireRequest::Delete { id: &id },
            };
            conn.send(&req).map_err(|e| format!("wire {step:?}: {e}"))?;
            let resp = conn.recv().map_err(|e| format!("wire {step:?}: {e}"))?;
            let want = want_status(step);
            if resp.status() != want {
                return Err(format!(
                    "wire {step:?}: status {}, want {want}",
                    resp.status()
                ));
            }
            let Some(ctx) = plan.expected(step) else {
                continue;
            };
            let (WireResponse::Started { id: got, advice }
            | WireResponse::Advice { id: got, advice }) = &resp
            else {
                return Err(format!("wire {step:?}: the response carries no advice"));
            };
            if step != Step::Start && *got != id {
                return Err(format!("wire {step:?}: session {got}, want {id}"));
            }
            if advice.to_json() != ctxs[ctx].json {
                return Err(format!(
                    "wire {step:?}: advice differs from the HTTP listener's for {}",
                    ctxs[ctx].key
                ));
            }
            if step == Step::Start {
                id = got.clone();
            }
        }
    }
    Ok(())
}

/// An open-loop HTTP lane: request `k` of lane `lane` is due at
/// `start + (k·lanes + lane)/rate`, whether or not earlier ones are done.
pub struct OpenLoop<'a> {
    pub addr: SocketAddr,
    pub lanes: usize,
    pub plans: &'a [Plan],
    pub ctxs: &'a [Ctx],
}

impl OpenLoop<'_> {
    /// Run from `start` until `end` at `rate` requests per second over
    /// all lanes, taking sessions from `order`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        lane: &mut Lane,
        conn: &mut Option<HttpConn>,
        cursor: &mut Option<Cursor>,
        order: &mut dyn Iterator<Item = usize>,
        rate: f64,
        start: Instant,
        end: Instant,
    ) {
        let period = Duration::from_secs_f64(self.lanes as f64 / rate);
        let offset = Duration::from_secs_f64(lane.lane as f64 / rate);
        let mut due = start + offset;
        while due < end {
            wait_until(due);
            let cur = cursor.get_or_insert_with(|| Cursor::begin(order, self.plans));
            let plan = &self.plans[cur.plan];
            let step = cur.steps[cur.at];
            let req = http_request(plan, step, &cur.id);
            lane.keep(&req);
            if conn.is_none() {
                match HttpConn::connect(self.addr) {
                    Ok(c) => {
                        lane.connects += 1;
                        *conn = Some(c);
                    }
                    Err(e) => lane.fail(format!("connect: {e}")),
                }
            }
            let exchange = conn
                .as_mut()
                .ok_or_else(|| std::io::Error::other("not connected"))
                .and_then(|c| c.exchange(&req));
            match exchange {
                Ok(ex) => {
                    lane.lag_us
                        .push(ex.sent.saturating_duration_since(due).as_secs_f64() as f32 * 1e6);
                    let checked = check_http(plan, step, &cur.id, ex.status, &ex.body, self.ctxs);
                    let ok = checked.is_ok();
                    let (sent, first, done) = (ex.sent, ex.first_byte, ex.done);
                    lane.record(Kind::of(step), ok, !ok, due, sent, first, done);
                    match checked {
                        Ok(new_id) => {
                            if let Some(id) = new_id {
                                cur.id = id;
                            }
                            cur.at += 1;
                            if cur.at == cur.steps.len() {
                                *cursor = None;
                            }
                        }
                        Err(e) => {
                            lane.fail(e);
                            *cursor = None;
                        }
                    }
                }
                Err(e) => {
                    let now = Instant::now();
                    lane.record(Kind::of(step), false, false, due, due, now, now);
                    lane.fail(format!("{step:?}: {e}"));
                    *conn = None;
                    *cursor = None;
                }
            }
            due += period;
        }
    }
}

/// Wait until `t`: sleep, then yield through the last few
/// milliseconds. Yielding keeps the client's core awake, so the server's
/// wake-ups are not charged a virtual CPU's exit from idle, and a waking
/// server thread still preempts the yielding client.
fn wait_until(t: Instant) {
    const AWAKE: Duration = Duration::from_millis(5);
    let now = Instant::now();
    if t > now + AWAKE {
        std::thread::sleep(t - now - AWAKE);
    }
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

fn want_status(step: Step) -> u16 {
    match step {
        Step::Start => 201,
        Step::Drill(_) => 200,
        Step::Delete => 204,
    }
}

/// Where one operation's records live in its lane.
#[derive(Debug, Clone, Copy)]
pub struct OpRef {
    pub sample: usize,
    pub detail: Option<usize>,
}

/// One cold session as served: the start and drill bodies, checked by
/// the oracle after the window.
pub struct ColdSession {
    pub script: Script,
    /// The served start advice and where its records live.
    pub start: Option<(String, OpRef)>,
    /// `(rank, seg)`, the served drill advice, and its records.
    pub drill: Option<(usize, usize, String, OpRef)>,
}

/// The advice-cache keys `cold-advise` has asked for, so that no start
/// or drill repeats one. Distinct start texts are not enough: a drill
/// child's date window is cut from the data, and two parents' children
/// can coincide.
pub struct ColdKeys {
    oracle: Oracle,
    seen: HashSet<String>,
}

impl ColdKeys {
    pub fn new(oracle: Oracle) -> ColdKeys {
        ColdKeys {
            oracle,
            seen: HashSet::new(),
        }
    }

    /// Record the cache key of the context `sdl`; true when it is new.
    fn claim(&mut self, sdl: &str) -> Result<bool, String> {
        Ok(self.seen.insert(self.oracle.cache_key(sdl)?))
    }
}

/// The one-analyst closed loop: start on a context no earlier start or
/// drill has used, drill into a seeded segment of the served advice
/// (the next unused one after it, if it was used), delete.
pub fn cold_closed_loop(
    addr: SocketAddr,
    lane: &mut Lane,
    stream: &mut dyn Iterator<Item = Script>,
    keys: &mut ColdKeys,
    conn: &mut Option<HttpConn>,
    end: Instant,
) -> Vec<ColdSession> {
    let mut sessions = Vec::new();
    while Instant::now() < end {
        let script = loop {
            let s = stream.next().expect("cold stream is endless");
            if keys.claim(&s.context).expect("generated contexts parse") {
                break s;
            }
        };
        if conn.is_none() {
            match HttpConn::connect(addr) {
                Ok(c) => {
                    lane.connects += 1;
                    *conn = Some(c);
                }
                Err(e) => {
                    lane.fail(format!("connect: {e}"));
                    lane.attempted += 1;
                    lane.failed += 1;
                    return sessions;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let mut session = ColdSession {
            script,
            start: None,
            drill: None,
        };
        if !cold_session(lane, c, keys, &mut session) {
            *conn = None;
        }
        sessions.push(session);
    }
    sessions
}

/// Run one cold session, recording what was served in `session`;
/// false when the connection should be dropped.
fn cold_session(
    lane: &mut Lane,
    conn: &mut HttpConn,
    keys: &mut ColdKeys,
    session: &mut ColdSession,
) -> bool {
    let start_req = request_bytes("POST", "/session", &session.script.context);
    lane.keep(&start_req);
    let Some((body, op)) = cold_op(lane, conn, Kind::Start, &start_req, 201) else {
        return false;
    };
    let Some((id, advice)) = split_envelope(&body).map(|(i, a)| (i.to_string(), a.to_string()))
    else {
        mark_wrong(lane, op, format!("start: not an envelope: {body:.200}"));
        return false;
    };
    let segs = segmentations(&advice);
    let counts: Vec<usize> = segs.iter().map(Vec::len).collect();
    // A segment whose text does not parse is skipped here; the oracle
    // check of the start advice reports it.
    let target = pick_unused(session.script.picks[0], &counts, |r, g| {
        keys.claim(&segs[r][g]).unwrap_or(false)
    });
    session.start = Some((advice, op));
    if let Some((rank, seg)) = target {
        let req = request_bytes(
            "POST",
            &format!("/session/{id}/drill"),
            &format!("{rank} {seg}"),
        );
        lane.keep(&req);
        let Some((body, op)) = cold_op(lane, conn, Kind::Drill, &req, 200) else {
            return false;
        };
        match split_envelope(&body) {
            Some((got, advice)) if got == id => {
                session.drill = Some((rank, seg, advice.to_string(), op));
            }
            _ => mark_wrong(lane, op, format!("drill: bad envelope: {body:.200}")),
        }
    }
    let delete = request_bytes("DELETE", &format!("/session/{id}"), "");
    cold_op(lane, conn, Kind::Delete, &delete, 204).is_some()
}

/// One closed-loop exchange with a status check; the body and where
/// its records live on success. Advice checks against the oracle
/// happen after the window.
fn cold_op(
    lane: &mut Lane,
    conn: &mut HttpConn,
    kind: Kind,
    req: &[u8],
    want: u16,
) -> Option<(String, OpRef)> {
    let before = Instant::now();
    let op = OpRef {
        sample: lane.samples.len(),
        detail: (lane.traced && lane.details.len() < LANE_DETAILS).then_some(lane.details.len()),
    };
    match conn.exchange(req) {
        Ok(ex) => {
            let ok = ex.status == want;
            lane.record(kind, ok, !ok, ex.sent, ex.sent, ex.first_byte, ex.done);
            if !ok {
                lane.fail(format!(
                    "{kind:?}: status {} want {want}: {:.200}",
                    ex.status, ex.body
                ));
                return None;
            }
            Some((ex.body, op))
        }
        Err(e) => {
            let now = Instant::now();
            lane.record(kind, false, false, before, before, now, now);
            lane.fail(format!("{kind:?}: {e}"));
            None
        }
    }
}

/// Mark an operation wrong after a check that ran after it was recorded.
pub fn mark_wrong(lane: &mut Lane, op: OpRef, msg: String) {
    lane.failed += 1;
    lane.wrong += 1;
    lane.fail(msg);
    if let Some(s) = lane.samples.get_mut(op.sample) {
        s.ok = false;
    }
    if let Some(d) = op.detail.and_then(|i| lane.details.get_mut(i)) {
        d.ok = false;
    }
}
