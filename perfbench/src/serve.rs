//! `serve-mix` and `serve-route`: open-loop traffic against one in-process
//! af-serve that serves OTA1-A with a model trained during set-up.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_route::RouterConfig;
use af_serve::{JobRecord, ModelBundle, ServeConfig, Server, ServerHandle};
use af_sim::{Performance, SimConfig};
use af_tech::Technology;
use analogfold::{
    generate_dataset, magical_route, DatasetConfig, GnnConfig, HeteroGraph, ThreeDGnn,
};
use serde::Deserialize;

use crate::client::{Conn, Reply};
use crate::gen::{self, derive, Arrival, GuidanceShape, Kind};
use crate::stats::{median, tail};
use crate::{fom_gain_pct, metric, tail_metric, threads, trace, Metric, Run, Workload};

/// Training set and epochs of the served model: small, because set-up is
/// repeated and the serving path does not depend on how well it is trained.
const TRAIN_SAMPLES: usize = 6;
const TRAIN_EPOCHS: usize = 5;
/// Seed of the served model. Every run serves the same weights and only the
/// traffic follows `--seed`: route difficulty follows the model's guidance,
/// and with a model drawn per seed the route-job median swung by 40%
/// between seeds.
const MODEL_SEED: u64 = 1;
/// Reference `/v1/predict` arrival rate of `serve-mix` (requests/s): 0.33 to
/// 0.4 of the predicts in the measured `mix_max_rps` (380 to 452 requests/s
/// over seeds 1, 2, 3 and 21 on a 2-core x86-64 VM). Well below capacity, so the
/// gated median measures the predict path itself rather than queueing
/// behind guides, which the tail and `mix_max_rps` cover.
const PREDICT_RATE: f64 = 150.0;
/// `serve-route` submits one job per interval: a job takes ~370 ms on a
/// 2-core machine, so this keeps the single job worker about half busy.
const ROUTE_INTERVAL_S: f64 = 0.75;
/// How often the head of the `serve-route` job queue is polled.
const POLL: Duration = Duration::from_millis(10);
/// Outstanding-work weight of a guide relative to a predict when choosing
/// the connection to pipeline on (a guide takes ~50x a predict's time).
const GUIDE_WEIGHT: u64 = 50;
/// How long replies may trail the last scheduled send.
const DRAIN: Duration = Duration::from_secs(30);
/// Latency limits that define `mix_max_rps`.
const PREDICT_TAIL_LIMIT_MS: f64 = 20.0;
const GUIDE_TAIL_LIMIT_MS: f64 = 400.0;
/// Length of one capacity probe, and the search's relative precision.
const PROBE_S: f64 = 2.0;
const SEARCH_PRECISION: f64 = 1.05;

/// A running server and what the checks need to recompute its answers.
pub struct ServeState {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    bundle: ModelBundle,
    shape: GuidanceShape,
    baseline: Performance,
    job_dir: PathBuf,
    /// Bodies of the last phase's requests, by schedule index.
    bodies: Vec<String>,
}

impl Drop for ServeState {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.job_dir);
    }
}

/// Places OTA1-A, routes its unguided baseline, trains the served model
/// and binds the server (default settings, job store under `job_dir`).
pub fn setup(job_dir: PathBuf) -> ServeState {
    let tech = Technology::nm40();
    let circuit = benchmarks::by_name("OTA1").expect("bundled benchmark");
    let placement = trace::wrap("place", None, || place(&circuit, PlacementVariant::A));
    let (_, _, baseline) = trace::wrap("magical_route", None, || {
        magical_route(
            &circuit,
            &placement,
            &tech,
            &RouterConfig::default(),
            &SimConfig::default(),
        )
    })
    .expect("OTA1-A routes unguided");
    let gnn = trace::wrap("train_model", None, || {
        let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
        let data_cfg = DatasetConfig {
            samples: TRAIN_SAMPLES,
            seed: MODEL_SEED,
            ..DatasetConfig::default()
        };
        let dataset = generate_dataset(&circuit, &placement, &tech, &graph, &data_cfg)
            .expect("training set generates");
        let gnn_cfg = GnnConfig {
            epochs: TRAIN_EPOCHS,
            seed: MODEL_SEED,
            ..GnnConfig::default()
        };
        let mut gnn = ThreeDGnn::new(&gnn_cfg);
        gnn.train(&graph, &dataset, &gnn_cfg);
        gnn
    });
    let bundle = ModelBundle::with_model("OTA1", "A", gnn).expect("OTA1-A bundle");
    let (lo, hi) = bundle.gnn.guidance_bounds();
    let shape = GuidanceShape {
        len: bundle.guidance_len(),
        lo,
        hi,
    };
    let cfg = ServeConfig {
        job_dir: Some(job_dir.clone()),
        ..ServeConfig::default()
    };
    let handle = trace::wrap("Server::bind", None, || Server::bind(bundle.clone(), cfg))
        .expect("server binds");
    ServeState {
        addr: handle.addr(),
        handle: Some(handle),
        bundle,
        shape,
        baseline,
        job_dir,
        bodies: Vec::new(),
    }
}

impl ServeState {
    fn fingerprint(&self) -> String {
        format!("{}|{:?}", self.bundle.model_hash, self.baseline)
    }
}

/// One scheduled request's fate.
struct Outcome {
    idx: usize,
    kind: Kind,
    at_s: f64,
    /// Response time minus due time (ms).
    latency_ms: f64,
    /// Send time minus due time (ms).
    late_ms: f64,
    /// `None` when the request got no response.
    reply: Option<Reply>,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| r.status == 200)
    }
}

fn path_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Predict { .. } => "/v1/predict",
        Kind::Guide => "/v1/guide",
    }
}

fn weight_of(kind: Kind) -> u64 {
    match kind {
        Kind::Predict { .. } => 1,
        Kind::Guide => GUIDE_WEIGHT,
    }
}

/// Sends `plan` open-loop over `threads()` keep-alive connections, one
/// client thread each. A due request is claimed by the connection with the
/// least outstanding work and pipelined behind whatever it already carries.
fn drive_mix(addr: SocketAddr, plan: &[Arrival]) -> Vec<Outcome> {
    let conns = threads();
    let next = AtomicUsize::new(0);
    let loads: Vec<AtomicU64> = (0..conns).map(|_| AtomicU64::new(0)).collect();
    let results = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for c in 0..conns {
            let (next, loads, results) = (&next, &loads, &results);
            s.spawn(move || {
                let outcomes = client_loop(c, addr, plan, start, next, loads);
                results.lock().expect("result buffer").extend(outcomes);
            });
        }
    });
    let mut out = results.into_inner().expect("result buffer");
    out.sort_by_key(|o| o.idx);
    out
}

type Inflight = VecDeque<(usize, Instant, Instant)>;

fn client_loop(
    c: usize,
    addr: SocketAddr,
    plan: &[Arrival],
    start: Instant,
    next: &AtomicUsize,
    loads: &[AtomicU64],
) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut inflight: Inflight = VecDeque::new();
    let fail_all = |inflight: &mut Inflight, out: &mut Vec<Outcome>| {
        for (idx, due, sent) in inflight.drain(..) {
            let a = &plan[idx];
            loads[c].fetch_sub(weight_of(a.kind), Ordering::SeqCst);
            out.push(outcome(a, idx, due, sent, Instant::now(), None));
        }
    };
    let Ok(mut conn) = Conn::connect(addr) else {
        // Never least loaded: the other connections take every request.
        loads[c].store(u64::MAX / 2, Ordering::SeqCst);
        return out;
    };
    let due_of = |i: usize| start + Duration::from_secs_f64(plan[i].at_s);
    let last_due = plan
        .last()
        .map_or(start, |a| start + Duration::from_secs_f64(a.at_s));
    loop {
        let i = next.load(Ordering::SeqCst);
        let now = Instant::now();
        if i < plan.len() && now >= due_of(i) {
            let mine = loads[c].load(Ordering::SeqCst);
            let least = loads.iter().all(|l| l.load(Ordering::SeqCst) >= mine);
            if least
                && next
                    .compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                let a = &plan[i];
                let sent = Instant::now();
                if conn.send("POST", path_of(a.kind), &a.body, "").is_ok() {
                    loads[c].fetch_add(weight_of(a.kind), Ordering::SeqCst);
                    inflight.push_back((i, due_of(i), sent));
                } else {
                    out.push(outcome(a, i, due_of(i), sent, Instant::now(), None));
                    fail_all(&mut inflight, &mut out);
                    match Conn::connect(addr) {
                        Ok(fresh) => conn = fresh,
                        Err(_) => {
                            loads[c].store(u64::MAX / 2, Ordering::SeqCst);
                            return out;
                        }
                    }
                }
                continue;
            }
        }
        if i >= plan.len() && inflight.is_empty() {
            return out;
        }
        if i >= plan.len() && now > last_due + DRAIN {
            fail_all(&mut inflight, &mut out);
            return out;
        }
        // Sleep until the next request is due or a reply arrives; when a due
        // request belongs to a less loaded connection, re-check shortly.
        let wait = if i < plan.len() {
            due_of(i)
                .saturating_duration_since(now)
                .max(Duration::from_micros(200))
        } else {
            Duration::from_millis(50)
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match conn.poll(wait) {
            Ok(Some(reply)) => {
                let (idx, due, sent) = inflight.pop_front().expect("a reply matches a request");
                let a = &plan[idx];
                loads[c].fetch_sub(weight_of(a.kind), Ordering::SeqCst);
                out.push(outcome(a, idx, due, sent, Instant::now(), Some(reply)));
            }
            Ok(None) => {}
            Err(_) => {
                fail_all(&mut inflight, &mut out);
                match Conn::connect(addr) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => {
                        loads[c].store(u64::MAX / 2, Ordering::SeqCst);
                        return out;
                    }
                }
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn outcome(
    a: &Arrival,
    idx: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Option<Reply>,
) -> Outcome {
    let name = match a.kind {
        Kind::Predict { .. } => "predict",
        Kind::Guide => "guide",
    };
    let req = trace::record(name, due, done, None, Some(idx as u64));
    trace::record("sent", sent, done, req, Some(idx as u64));
    Outcome {
        idx,
        kind: a.kind,
        at_s: a.at_s,
        latency_ms: ms(done.saturating_duration_since(due)),
        late_ms: ms(sent.saturating_duration_since(due)),
        reply,
    }
}

#[derive(Deserialize)]
struct PredictBody {
    guidance: Vec<f64>,
}

#[derive(Deserialize)]
struct PredictReply {
    performance: Performance,
}

#[derive(Deserialize)]
struct GuideReply {
    guidance: Vec<f64>,
    potential: f64,
}

#[derive(Deserialize)]
struct Accepted {
    id: u64,
}

/// Latencies of the successful outcomes of one request kind.
fn latencies(outcomes: &[Outcome], guide: bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.ok() && (o.kind == Kind::Guide) == guide)
        .map(|o| o.latency_ms)
        .collect()
}

/// Whether a probe meets the `mix_max_rps` conditions: no failures, both
/// tails within their limits, and no growing backlog (the last quarter's
/// median predict latency stays within twice the first quarter's plus 2 ms).
fn meets_limits(outcomes: &[Outcome], seconds: f64) -> bool {
    if outcomes.iter().any(|o| !o.ok()) {
        return false;
    }
    let predicts = latencies(outcomes, false);
    let guides = latencies(outcomes, true);
    let quarter = |lo: f64, hi: f64| -> Vec<f64> {
        outcomes
            .iter()
            .filter(|o| o.kind != Kind::Guide && o.at_s >= lo * seconds && o.at_s < hi * seconds)
            .map(|o| o.latency_ms)
            .collect()
    };
    let growing = median(&quarter(0.75, 1.0)) > 2.0 * median(&quarter(0.0, 0.25)) + 2.0;
    !predicts.is_empty()
        && tail(&predicts).value <= PREDICT_TAIL_LIMIT_MS
        && (guides.is_empty() || tail(&guides).value <= GUIDE_TAIL_LIMIT_MS)
        && !growing
}

pub struct ServeMix(pub ServeState);

impl ServeMix {
    /// Sampled predict answers must equal a direct `PredictSession` result
    /// bit for bit, on cache hits and misses alike.
    fn check_predicts(&self, outcomes: &[Outcome], run: &mut Run) {
        let mut session = self.0.bundle.session();
        let (mut hits, mut misses, mut mismatches) = (0, 0, 0);
        let sampled = outcomes
            .iter()
            .filter(|o| o.ok() && o.kind != Kind::Guide)
            .step_by(7)
            .take(80);
        for o in sampled {
            let reply = o.reply.as_ref().expect("ok outcomes have replies");
            let Some(body) = self.0.bodies.get(o.idx) else {
                continue;
            };
            let request: PredictBody = serde_json::from_str(body).expect("generated body parses");
            let got: Result<PredictReply, _> = serde_json::from_str(&reply.body);
            let want = session.predict(&request.guidance);
            let same = got.is_ok_and(|g| {
                g.performance
                    .as_array()
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if !same {
                mismatches += 1;
            }
            if reply.cache_hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        run.check(format!("predicts equal a direct PredictSession bit for bit ({hits} hits, {misses} misses sampled)"),
            mismatches == 0 && hits > 0 && misses > 0);
    }

    /// The first guide is asked again, bypassing the response cache; the
    /// recomputed answer must be byte-identical and well-formed.
    fn check_guide(&self, outcomes: &[Outcome], run: &mut Run) {
        let Some(first) = outcomes.iter().find(|o| o.ok() && o.kind == Kind::Guide) else {
            run.check("at least one guide answered", false);
            return;
        };
        let original = &first.reply.as_ref().expect("ok outcomes have replies").body;
        let body = &self.0.bodies[first.idx];
        let again = Conn::connect(self.0.addr).and_then(|mut c| {
            c.call(
                "POST",
                "/v1/guide",
                body,
                "x-no-cache: 1\r\n",
                Duration::from_secs(30),
            )
        });
        let same = again.is_ok_and(|r| r.status == 200 && r.body == *original);
        let parsed: Option<GuideReply> = serde_json::from_str(original).ok();
        let sane =
            parsed.is_some_and(|g| g.guidance.len() == self.0.shape.len && g.potential.is_finite());
        run.check(
            "a guide with the same seed gives an identical answer",
            same && sane,
        );
    }
}

impl Workload for ServeMix {
    fn fingerprint(&self) -> String {
        self.0.fingerprint()
    }

    fn measure(&mut self, seed: u64, phase: u64, seconds: f64) -> Run {
        let plan = gen::mix_plan(
            derive(seed, 10 + phase),
            PREDICT_RATE,
            seconds,
            self.0.shape,
        );
        let phase_span = trace::open("mix_phase", None);
        let outcomes = drive_mix(self.0.addr, &plan);
        trace::close(phase_span);
        self.0.bodies = plan.into_iter().map(|a| a.body).collect();

        let mut run = Run::default();
        run.attempted = self.0.bodies.len() as u64;
        run.failed = run.attempted - outcomes.iter().filter(|o| o.ok()).count() as u64;
        let predicts = latencies(&outcomes, false);
        let guides = latencies(&outcomes, true);
        let hits = outcomes
            .iter()
            .filter(|o| o.reply.as_ref().is_some_and(|r| r.cache_hit))
            .count();
        run.named
            .push(metric("predict_p50_ms", median(&predicts), "ms"));
        run.named.push(tail_metric("predict_tail_ms", &predicts));
        run.named
            .push(metric("guide_p50_ms", median(&guides), "ms"));
        run.named.push(tail_metric("guide_tail_ms", &guides));
        run.named.push(
            metric(
                "predict_hit_share",
                hits as f64 / predicts.len().max(1) as f64,
                "ratio",
            )
            .note(format!(
                "at {PREDICT_RATE} predicts/s plus one guide per 50"
            )),
        );
        self.check_predicts(&outcomes, &mut run);
        self.check_guide(&outcomes, &mut run);
        run.late_ms = outcomes.iter().map(|o| o.late_ms).collect();
        run.guide_ms = guides;
        run.primary_ms = predicts;
        run
    }

    /// `mix_max_rps`: the highest total arrival rate (predicts plus guides)
    /// that meets both tail limits with no failures and no growing backlog,
    /// found by doubling from the reference rate and then bisecting
    /// geometrically to within 5%.
    ///
    /// Probes drive the server past saturation on purpose, so their refused
    /// and failed requests are expected: they are counted in the figure's
    /// note, not in the run's failures.
    fn capacity(&mut self, seed: u64) -> Option<Metric> {
        let (mut probes, mut sent, mut refused) = (0u64, 0usize, 0usize);
        let mut probe = |rate: f64| -> bool {
            probes += 1;
            let plan = gen::mix_plan(derive(seed, 1000 + probes), rate, PROBE_S, self.0.shape);
            let outcomes = drive_mix(self.0.addr, &plan);
            sent += plan.len();
            refused += outcomes.iter().filter(|o| !o.ok()).count() + plan.len() - outcomes.len();
            meets_limits(&outcomes, PROBE_S)
        };
        let (mut lo, mut hi) = (0.0, PREDICT_RATE);
        while hi < PREDICT_RATE * 64.0 && probe(hi) {
            lo = hi;
            hi *= 2.0;
        }
        if lo == 0.0 {
            lo = hi / 2.0;
            while lo > 1.0 && !probe(lo) {
                hi = lo;
                lo /= 2.0;
            }
        }
        while hi / lo > SEARCH_PRECISION {
            let mid = (lo * hi).sqrt();
            if probe(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let total = lo * gen::GUIDE_EVERY as f64 / (gen::GUIDE_EVERY - 1) as f64;
        Some(metric("mix_max_rps", total, "1/s").note(format!(
            "{probes} probes of {PROBE_S} s: {sent} requests, {refused} refused or failed"
        )))
    }
}

pub struct ServeRoute(pub ServeState);

impl Workload for ServeRoute {
    fn fingerprint(&self) -> String {
        self.0.fingerprint()
    }

    /// Submits the jobs of the schedule from one thread over one keep-alive
    /// connection and polls the oldest unfinished job until done (the single
    /// job worker completes them in order).
    fn measure(&mut self, seed: u64, phase: u64, seconds: f64) -> Run {
        let plan = gen::route_plan(derive(seed, 20 + phase), ROUTE_INTERVAL_S, seconds);
        let mut run = Run {
            attempted: plan.len() as u64,
            ..Run::default()
        };
        let mut latencies = Vec::new();
        let mut gains = Vec::new();
        let (mut bad_results, mut failed) = (0u64, 0u64);
        let mut conn = Conn::connect(self.0.addr).expect("connect to the in-process server");
        let start = Instant::now() + Duration::from_millis(20);
        // (job id, due, sent, accepted)
        let mut outstanding: VecDeque<(u64, Instant, Instant, Instant)> = VecDeque::new();
        let mut next = 0;
        let mut next_poll = start;
        let timeout = Duration::from_secs(30);
        loop {
            let now = Instant::now();
            let due = plan.get(next).map(|a| start + Duration::from_secs_f64(a.0));
            if let Some(due) = due.filter(|&d| now >= d) {
                let sent = Instant::now();
                run.late_ms.push(ms(sent.saturating_duration_since(due)));
                let reply = conn.call("POST", "/v1/route", &plan[next].1, "", timeout);
                let accepted = reply
                    .ok()
                    .filter(|r| r.status == 202)
                    .and_then(|r| serde_json::from_str::<Accepted>(&r.body).ok());
                match accepted {
                    Some(a) => outstanding.push_back((a.id, due, sent, Instant::now())),
                    None => failed += 1,
                }
                next += 1;
                continue;
            }
            if next >= plan.len() && outstanding.is_empty() {
                break;
            }
            if next >= plan.len() && now > start + Duration::from_secs_f64(seconds) + DRAIN {
                failed += outstanding.len() as u64;
                break;
            }
            if let Some(&(id, due, sent, accepted)) =
                outstanding.front().filter(|_| now >= next_poll)
            {
                next_poll = now + POLL;
                let record = conn
                    .call("GET", &format!("/v1/jobs/{id}"), "", "", timeout)
                    .ok()
                    .filter(|r| r.status == 200)
                    .and_then(|r| serde_json::from_str::<JobRecord>(&r.body).ok());
                let status = record.as_ref().map_or("failed", |r| r.status.as_str());
                match status {
                    "done" => {
                        let done = Instant::now();
                        let job = trace::record("route_job", due, done, None, Some(id));
                        trace::record("submit", sent, accepted, job, Some(id));
                        latencies.push(ms(done.saturating_duration_since(due)));
                        let result = record.as_ref().and_then(|r| r.result.as_ref());
                        match result {
                            Some(r)
                                if r.conflicts == 0
                                    && r.performance.as_array().iter().all(|v| v.is_finite()) =>
                            {
                                gains.push(fom_gain_pct(&r.performance, &self.0.baseline));
                            }
                            _ => bad_results += 1,
                        }
                        outstanding.pop_front();
                        continue;
                    }
                    "queued" | "running" => {}
                    _ => {
                        failed += 1;
                        outstanding.pop_front();
                        continue;
                    }
                }
            }
            let mut wake = next_poll;
            if let Some(d) = due {
                wake = wake.min(d);
            }
            if outstanding.is_empty() {
                wake = due.unwrap_or(now);
            }
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
        run.failed = failed + bad_results;
        run.check(
            "route jobs end done with 0 conflicts and finite performance",
            bad_results == 0,
        );
        let gain = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
        run.named
            .push(metric("route_job_p50_ms", median(&latencies), "ms"));
        run.named.push(tail_metric("route_job_tail_ms", &latencies));
        run.named.push(
            metric("route_job_fom_gain", gain, "%").note("mean over jobs vs unguided".into()),
        );
        run.fom_gain_pct = Some(gain);
        run.primary_ms = latencies;
        run
    }
}
