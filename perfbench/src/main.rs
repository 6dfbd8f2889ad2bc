//! Repository benchmark for the AnalogFold reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow-quick|serve-mix|serve-route> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every metric is also printed by name with its unit above
//! it, and the full result (per-layer self times and, when traced, every
//! span) is written to `perfbench/out/`. A failed output check exits 1,
//! a bad argument exits 2.
//!
//! # Workloads
//!
//! * `flow-quick`: the whole `AnalogFoldFlow::run` on OTA1-A and OTA3-A
//!   (15 and 20 nets) at quick scale (12 samples, 10 epochs, 6 restarts,
//!   3 candidates), seeded from `--seed`, one flow at a time, the rows in
//!   turn for about `--seconds` and at least twice each, so every row
//!   repeats. Each flow is timed on its own (about 4 s for OTA1-A and 17 s
//!   for OTA3-A on 2 cores, so a run takes about 45 s whatever `--seconds`
//!   asks for). Guided routing inside dataset generation and
//!   candidate evaluation does almost all the work, so af-route,
//!   `analogfold::dataset` and afrt's sample parallelism show here; serving
//!   and response caching are not touched, and relaxation is about 1%.
//! * `serve-mix`: an open loop of seeded Poisson arrivals against one
//!   in-process af-serve serving OTA1-A with a model trained in set-up
//!   (from a fixed seed, so every run serves the same weights):
//!   150 `/v1/predict` per second (0.33 to 0.4 of the predicts in the
//!   measured `mix_max_rps` of 380 to 452 requests/s, so the median
//!   measures the predict path rather than queueing), 40% repeating a body
//!   from a pool of 16 (cache hits) and the rest fresh (misses), plus one
//!   `/v1/guide` with a fresh seed per 50 predicts. Requests are pipelined over at most `nproc`
//!   keep-alive connections, each due request going to the connection with
//!   the least outstanding work. The HTTP path, the batch collector, the
//!   af-cache response cache, the af-tensor forward pass and relaxation do
//!   all the work; af-route does none.
//! * `serve-route`: one `/v1/route` job per 0.75 s (API-default parameters,
//!   fresh seeds), about half the single job worker's capacity, each polled
//!   until done. The same af-route layer as `flow-quick`, but one design per
//!   request, with relaxed guidance, behind the job queue and the durable
//!   job store: latency per request, not batch throughput.
//!
//! # End-to-end metrics
//!
//! Every workload reports every end-to-end metric, each about the request
//! its users wait for: running every row once (`flow-quick`), a
//! `/v1/predict` (`serve-mix`), a `/v1/route` job from scheduled submit to
//! `done` (`serve-route`).
//!
//! * `p50_ms`: median latency of that request, timed from its scheduled
//!   send time for the open-loop workloads. On `flow-quick` it is the sum
//!   over rows of each row's median flow time (`flow_s`), so one slow
//!   moment of the host moves one sample of one row.
//! * `setup_s`: median of five set-ups: placement, unguided baseline
//!   routing, and for the serving workloads model training and server bind.
//!
//! Tails are reported but not gated. A tail is the highest percentile that
//! still has ten samples beyond it over the whole run (the maximum when a
//! run has ten samples or fewer), with its percentile and sample count. The
//! `serve-mix` predict tail sits in the mode where predicts wait for a CPU
//! that guides hold, and moves with the host's speed: over ten seeds its
//! interquartile range was 0.34 of the median in one set and 1.52 in
//! another, beyond any bound allowed.
//!
//! The workload-specific figures are printed by name after them: `flow_s`
//! and `fom_gain` on `flow-quick`; `predict_p50_ms`, `predict_tail_ms`,
//! `guide_p50_ms` and `guide_tail_ms` on `serve-mix`; `route_job_p50_ms`,
//! `route_job_tail_ms` and the jobs' `fom_gain` on `serve-route`. The
//! traced run adds `mix_max_rps` on `serve-mix`: the highest total arrival
//! rate, found to within 5%, with predict tail <= 20 ms, guide tail <=
//! 400 ms, no failed request and no growing backlog. Its probes overload
//! the server on purpose, so their refusals are counted in its note, not in
//! the run's failures.
//!
//! # Which layer metric moves which end-to-end metric
//!
//! * af-route (`route.*`): `p50_ms` on `flow-quick` and `serve-route`; all
//!   zero on `serve-mix`. `route.self_share` is route's share of the
//!   program's span self time.
//! * `analogfold::dataset`, af-extract, af-sim (`dataset.*`, `eval.busy_s`,
//!   extraction plus simulation as sample spans minus their route spans):
//!   `p50_ms` on `flow-quick`.
//! * GNN training (`train.busy_s`): `p50_ms` on `flow-quick`.
//! * `analogfold::potential`, af-tensor (`relax.*`, `gnn.*`): guide latency
//!   and `mix_max_rps` on `serve-mix`, a small share of `p50_ms` on
//!   `serve-route`, not `flow-quick`. `relax.guide_share` is relaxation
//!   busy time over the guide requests' time.
//! * afrt (`afrt.*`): `p50_ms` on `flow-quick` through sample and candidate
//!   imbalance.
//! * af-cache: `cache.serve.*` moves `p50_ms` and `mix_max_rps` on
//!   `serve-mix` and has no lookups on `flow-quick`; `cache.fom.hit_ratio`
//!   moves guide latency.
//! * af-serve (`serve.*`): batch size and predict sojourn move `p50_ms`,
//!   the predict tail and `mix_max_rps` on `serve-mix`; job sojourn moves
//!   the route-job tail on `serve-route`; 429, 408 and 5xx count as
//!   failures. `request.tail_ms` is the traced phase's tail of the
//!   workload's request.
//! * Generator: `gen.late_ms.p99` flags a run whose generator fell behind.
//!
//! The traced run (`--trace 1`) first repeats the untraced measurement,
//! then installs an af-obs memory sink and measures again with the
//! benchmark's own spans on; per-layer metrics come from the traced phase
//! and `trace.overhead_pct` is the traced over the untraced `p50_ms`.
//!
//! # Baseline and spread
//!
//! Two sets of ten untraced runs per workload, seeds 1 to 10,
//! `--seconds 20`, on a shared 2-core x86-64 VM (`nproc` = 2), set B
//! straight after set A (about 20 minutes each). Each cell is the median,
//! then the interquartile range as a share of the median (Python
//! `statistics.quantiles`):
//!
//! | workload    | `p50_ms` set A    | `p50_ms` set B    | `setup_s` set A | `setup_s` set B |
//! |-------------|-------------------|-------------------|-----------------|-----------------|
//! | flow-quick  | 22339 ms 0.118    | 25157 ms 0.267    | 0.98 s 0.164    | 1.20 s 0.125    |
//! | serve-mix   | 3.18 ms 0.143     | 2.63 ms 0.052     | 2.17 s 0.205    | 1.45 s 0.319    |
//! | serve-route | 411 ms 0.174      | 235 ms 0.127      | 2.04 s 0.186    | 1.16 s 0.098    |
//!
//! The ungated figures, same layout (A, then B): predict tail 27.8 ms 1.52
//! and 12.3 ms 0.34; guide p50 106 ms 0.31 and 69 ms 0.15; route-job tail
//! 426 ms 0.17 and 244 ms 0.14.
//!
//! The spread is the host's, not the program's. A repeated flow gives a
//! bit-identical layout, yet one OTA3-A flow took 12.8 s and its repeat in
//! the same run 18.0 s; set B's flow-quick runs were slow for five
//! consecutive runs in its middle; and serve-route's median fell from
//! 411 ms to 235 ms between the sets while its set-up, which serves no
//! request, fell from 2.04 s to 1.16 s with it. Both bounds are
//! therefore 0.25 of the median, the largest allowed, and even so the two
//! sets above do not agree within them on every workload.
//!
//! # Not measured yet
//!
//! af-fleet, af-guard and af-model, and designs above 20 nets. On a 2-core
//! machine a multi-worker fleet measures the scheduler rather than the
//! fleet, and larger designs wait for a procedural circuit corpus.

mod client;
mod flow;
mod gen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use af_sim::Performance;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 2] = [("p50_ms", "ms"), ("setup_s", "s")];

/// Per-layer metrics `(name, unit)`, reported by every traced run (zero
/// where a workload does not use the layer).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("route.busy_s", "s"),
    ("route.astar_expansions", "count"),
    ("route.expansions_per_net", "count"),
    ("route.rounds", "count"),
    ("route.sequential_rounds", "count"),
    ("route.ripup_ratio", "ratio"),
    ("route.self_share", "ratio"),
    ("dataset.busy_s", "s"),
    ("dataset.sample_p50_ms", "ms"),
    ("eval.busy_s", "s"),
    ("train.busy_s", "s"),
    ("relax.busy_s", "s"),
    ("relax.lbfgs_iters", "count"),
    ("relax.iters_per_s", "1/s"),
    ("relax.converged_ratio", "ratio"),
    ("relax.guide_share", "ratio"),
    ("gnn.fom_grad_evals", "count"),
    ("gnn.fom_grad_us.p50", "us"),
    ("afrt.queue_wait_us.p50", "us"),
    ("afrt.queue_wait_us.p90", "us"),
    ("afrt.task_exec_us.p50", "us"),
    ("afrt.utilization", "ratio"),
    ("cache.serve.lookups", "count"),
    ("cache.serve.hit_ratio", "ratio"),
    ("cache.fom.hit_ratio", "ratio"),
    ("serve.batch.size.mean", "count"),
    ("serve.predict.sojourn_ms.p50", "ms"),
    ("serve.predict.sojourn_ms.p99", "ms"),
    ("serve.jobs.sojourn_ms.p50", "ms"),
    ("serve.jobs.sojourn_ms.p90", "ms"),
    ("serve.status.429", "count"),
    ("serve.status.408", "count"),
    ("serve.status.5xx", "count"),
    ("serve.guide_p50_ms", "ms"),
    ("serve.guide_tail_ms", "ms"),
    ("gen.late_ms.p99", "ms"),
    ("request.tail_ms", "ms"),
    ("quality.fom_gain_pct", "%"),
    ("capacity.mix_max_rps", "1/s"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 3] = ["flow-quick", "serve-mix", "serve-route"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const USAGE: &str =
    "usage: perfbench --workload <flow-quick|serve-mix|serve-route> --seed <n> --seconds <s> --trace <0|1>";

/// A named figure with its unit and an optional note (e.g. which
/// percentile a tail is).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The tail of `values`, with its percentile and sample count as the note.
pub fn tail_metric(name: &'static str, values: &[f64]) -> Metric {
    let t = stats::tail(values);
    metric(name, t.value, "ms").note(format!(
        "p{:.2} ({} beyond) of {} samples",
        t.percentile, t.beyond, t.n
    ))
}

/// What one measurement phase produced.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by description; `false` once any instance failed.
    pub checks: BTreeMap<String, bool>,
    /// Latencies (ms) of the request the end-to-end metrics describe.
    pub primary_ms: Vec<f64>,
    /// How `primary_ms` was formed, when it is not one sample per request.
    pub primary_note: String,
    /// Send time minus due time (ms) of each scheduled request.
    pub late_ms: Vec<f64>,
    /// `/v1/guide` latencies (ms).
    pub guide_ms: Vec<f64>,
    /// Workload-specific figures.
    pub named: Vec<Metric>,
    /// Signed relative improvement over the unguided layout, where routed.
    pub fom_gain_pct: Option<f64>,
}

impl Run {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        *self.checks.entry(name.into()).or_insert(true) &= ok;
    }

    fn absorb(&mut self, other: &Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, ok) in &other.checks {
            self.check(name.clone(), *ok);
        }
    }
}

pub trait Workload {
    /// Everything set-up computed that must repeat exactly.
    fn fingerprint(&self) -> String;
    /// Measures for `seconds`; `phase` separates the untraced (0) and traced
    /// (1) measurements of one run.
    fn measure(&mut self, seed: u64, phase: u64, seconds: f64) -> Run;
    /// A capacity figure searched for in traced runs only.
    fn capacity(&mut self, _seed: u64) -> Option<Metric> {
        None
    }
}

/// Worker threads and connections the load generator may use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Mean over the five Table 2 metrics of the signed relative improvement
/// of `ours` over `base`, in percent (positive is better).
pub fn fom_gain_pct(ours: &Performance, base: &Performance) -> f64 {
    // offset and noise: lower is better; CMRR, bandwidth, gain: higher.
    const HIGHER_IS_BETTER: [bool; 5] = [false, true, true, true, false];
    let (o, b) = (ours.as_array(), base.as_array());
    let sum: f64 = (0..5)
        .map(|i| {
            let rel = (o[i] - b[i]) / b[i].abs().max(1e-12);
            if HIGHER_IS_BETTER[i] {
                rel
            } else {
                -rel
            }
        })
        .sum();
    100.0 * sum / 5.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(parsed)
}

fn setup(workload: &str, job_dir: PathBuf) -> Box<dyn Workload> {
    match workload {
        "flow-quick" => Box::new(flow::setup()),
        "serve-mix" => Box::new(serve::ServeMix(serve::setup(job_dir))),
        "serve-route" => Box::new(serve::ServeRoute(serve::setup(job_dir))),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Per-layer metrics from what the program recorded in the traced phase.
fn layer_metrics(
    traced: &Run,
    obs: &trace::ObsDigest,
    wall_s: f64,
    extra: &BTreeMap<&str, f64>,
) -> BTreeMap<&'static str, f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hist_p = |name: &str, q: f64| obs.hist(name).map_or(0.0, |h| h.percentile(q));
    let hit_ratio = |cache: &str| {
        let hits = obs.counter(&format!("cache.{cache}.hits"));
        ratio(hits, hits + obs.counter(&format!("cache.{cache}.misses")))
    };
    let self_s = obs.self_s_by_name();
    let route_busy = obs.busy_s("route");
    let nets = obs.counter("route.nets_routed");
    let relax_busy = obs.busy_s("relax");
    let relax_runs = obs
        .hist("relax.potential_final")
        .map_or(0.0, |h| h.count as f64);
    let samples = obs.closes_ms.get("sample").cloned().unwrap_or_default();
    let exec_s = obs.hist("afrt.task_exec_us").map_or(0.0, |h| h.sum / 1e6);
    let sorted_late = stats::sorted(&traced.late_ms);
    let guide_s: f64 = traced.guide_ms.iter().sum::<f64>() / 1e3;
    let values = [
        ("route.busy_s", route_busy),
        (
            "route.astar_expansions",
            obs.counter("route.astar_expansions"),
        ),
        (
            "route.expansions_per_net",
            ratio(obs.counter("route.astar_expansions"), nets),
        ),
        ("route.rounds", obs.counter("route.rounds")),
        (
            "route.sequential_rounds",
            obs.counter("route.sequential_rounds"),
        ),
        (
            "route.ripup_ratio",
            ratio(obs.counter("route.victims_ripped"), nets),
        ),
        (
            "route.self_share",
            ratio(
                self_s.get("route").copied().unwrap_or(0.0),
                self_s.values().sum(),
            ),
        ),
        ("dataset.busy_s", obs.busy_s("generate_dataset")),
        (
            "dataset.sample_p50_ms",
            if samples.is_empty() {
                0.0
            } else {
                stats::median(&samples)
            },
        ),
        (
            "eval.busy_s",
            (obs.busy_s("sample") - obs.busy_under_s("route", "sample")).max(0.0),
        ),
        ("train.busy_s", obs.busy_s("gnn_train")),
        ("relax.busy_s", relax_busy),
        ("relax.lbfgs_iters", obs.counter("relax.lbfgs_iters")),
        (
            "relax.iters_per_s",
            ratio(obs.counter("relax.lbfgs_iters"), relax_busy),
        ),
        (
            "relax.converged_ratio",
            ratio(obs.counter("relax.lbfgs_converged"), relax_runs),
        ),
        ("relax.guide_share", ratio(relax_busy, guide_s)),
        ("gnn.fom_grad_evals", obs.counter("gnn.fom_grad_evals")),
        ("gnn.fom_grad_us.p50", hist_p("gnn.fom_grad_us", 50.0)),
        ("afrt.queue_wait_us.p50", hist_p("afrt.queue_wait_us", 50.0)),
        ("afrt.queue_wait_us.p90", hist_p("afrt.queue_wait_us", 90.0)),
        ("afrt.task_exec_us.p50", hist_p("afrt.task_exec_us", 50.0)),
        ("afrt.utilization", ratio(exec_s, threads() as f64 * wall_s)),
        (
            "cache.serve.lookups",
            obs.counter("cache.serve.hits") + obs.counter("cache.serve.misses"),
        ),
        ("cache.serve.hit_ratio", hit_ratio("serve")),
        ("cache.fom.hit_ratio", hit_ratio("fom")),
        (
            "serve.batch.size.mean",
            obs.hist("serve.batch.size")
                .map_or(0.0, af_obs::HistStat::mean),
        ),
        (
            "serve.predict.sojourn_ms.p50",
            hist_p("serve.predict.sojourn_ms", 50.0),
        ),
        (
            "serve.predict.sojourn_ms.p99",
            hist_p("serve.predict.sojourn_ms", 99.0),
        ),
        (
            "serve.jobs.sojourn_ms.p50",
            hist_p("serve.jobs.sojourn_ms", 50.0),
        ),
        (
            "serve.jobs.sojourn_ms.p90",
            hist_p("serve.jobs.sojourn_ms", 90.0),
        ),
        ("serve.status.429", obs.counter("serve.status.429")),
        ("serve.status.408", obs.counter("serve.status.408")),
        ("serve.status.5xx", obs.counter_prefix("serve.status.5")),
        (
            "serve.guide_p50_ms",
            if traced.guide_ms.is_empty() {
                0.0
            } else {
                stats::median(&traced.guide_ms)
            },
        ),
        (
            "serve.guide_tail_ms",
            if traced.guide_ms.is_empty() {
                0.0
            } else {
                stats::tail(&traced.guide_ms).value
            },
        ),
        (
            "gen.late_ms.p99",
            if sorted_late.is_empty() {
                0.0
            } else {
                stats::percentile(&sorted_late, 99.0)
            },
        ),
        ("request.tail_ms", stats::tail(&traced.primary_ms).value),
    ];
    let mut out: BTreeMap<&'static str, f64> = values.into_iter().collect();
    for (name, _) in PER_LAYER {
        let v = extra
            .get(name)
            .copied()
            .or_else(|| out.get(name).copied())
            .unwrap_or(0.0);
        // `+ 0.0` turns a negative zero (an empty float sum) into 0.
        out.insert(name, if v.is_finite() { v + 0.0 } else { 0.0 });
    }
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metric(out: &mut String, m: &Metric) {
    let note = if m.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", m.note)
    };
    let _ = writeln!(out, "  {:<30} {:>14.4} {}{}", m.name, m.value, m.unit, note);
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    let job_dir = |k: usize| dir.join(format!("jobs-{}-{k}", std::process::id()));

    trace::set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut prints = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for k in 0..SETUPS {
        // The previous set-up's server is torn down before the next is timed.
        drop(workload.take());
        let t = Instant::now();
        let fresh = setup(&args.workload, job_dir(k));
        setup_s.push(t.elapsed().as_secs_f64());
        prints.push(fresh.fingerprint());
        workload = Some(fresh);
    }
    let mut workload = workload.expect("at least one set-up");
    trace::set_enabled(false);

    let mut run = workload.measure(args.seed, 0, args.seconds);
    run.check(
        "set-up repeats exactly",
        prints.iter().all(|p| *p == prints[0]),
    );
    run.check("requests completed", !run.primary_ms.is_empty());
    let p50 = stats::median(&run.primary_ms);
    let mut text = format!(
        "perfbench {} seed {} ({} s, {} threads)\nend-to-end:\n",
        args.workload,
        args.seed,
        args.seconds,
        threads()
    );
    let e2e = [
        metric("p50_ms", p50, "ms").note(if run.primary_note.is_empty() {
            let [q1, _, q3] = stats::quartiles(&run.primary_ms);
            let n = run.primary_ms.len();
            format!("{n} samples, quartiles {q1:.3}..{q3:.3}")
        } else {
            run.primary_note.clone()
        }),
        metric("setup_s", stats::median(&setup_s), "s")
            .note(format!("median of {SETUPS}: {setup_s:.3?}")),
    ];
    e2e.iter().for_each(|m| print_metric(&mut text, m));
    text.push_str("workload figures:\n");
    run.named.iter().for_each(|m| print_metric(&mut text, m));

    let mut layers: Vec<(&str, f64, &str)> = Vec::new();
    let mut trace_json = String::new();
    if args.trace {
        let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
        if let Some(cap) = workload.capacity(args.seed) {
            print_metric(&mut text, &cap);
            extra.insert("capacity.mix_max_rps", cap.value);
        }
        trace::set_enabled(true);
        let t = Instant::now();
        let (traced, obs) = trace::with_obs(|| workload.measure(args.seed, 1, args.seconds));
        let wall_s = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        run.absorb(&traced);
        let overhead = 100.0 * (stats::median(&traced.primary_ms) / p50 - 1.0);
        extra.insert("trace.overhead_pct", overhead);
        extra.insert("quality.fom_gain_pct", run.fom_gain_pct.unwrap_or(0.0));
        let per_layer = layer_metrics(&traced, &obs, wall_s, &extra);
        text.push_str("traced phase:\n");
        traced.named.iter().for_each(|m| print_metric(&mut text, m));
        text.push_str("per-layer:\n");
        for (name, unit) in PER_LAYER {
            print_metric(&mut text, &metric(name, per_layer[name], unit));
            layers.push((name, per_layer[name], unit));
        }
        let spans = trace::take();
        text.push_str("benchmark span self time (ms):\n");
        for (name, t) in trace::self_times(&spans) {
            let _ = writeln!(
                text,
                "  {name:<30} n={:<6} total {:>12.2} self {:>12.2}",
                t.count, t.total_ms, t.self_ms
            );
        }
        text.push_str("program span self time (s):\n");
        for (name, s) in obs.self_s_by_name() {
            let _ = writeln!(text, "  {name:<30} {s:>12.4}");
        }
        trace_json = trace::spans_json(&spans);
    }
    drop(workload);

    text.push_str("checks:\n");
    for (name, ok) in &run.checks {
        let _ = writeln!(text, "  [{}] {name}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = run.checks.values().all(|ok| *ok);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers
    } else {
        e2e.iter().map(|m| (m.name, m.value, m.unit)).collect()
    };
    let line = result_line(correct, run.attempted.max(1), run.failed, &metrics);
    let file = dir.join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut saved = format!("{text}result: {line}\n");
    if args.trace {
        saved.push_str(&format!("spans: {trace_json}\n"));
    }
    if let Err(e) = std::fs::write(&file, saved) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    print!("{text}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkFile {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn declared() -> BenchmarkFile {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_metrics_match_the_reported_ones() {
        let file = declared();
        let pairs = |v: &[Declared]| -> Vec<(String, String)> {
            v.iter().map(|d| (d.name.clone(), d.unit.clone())).collect()
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&file.end_to_end), owned(&END_TO_END));
        assert_eq!(pairs(&file.per_layer), owned(&PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "metric name {name}");
        }
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for set in [&END_TO_END[..], &PER_LAYER[..]] {
            let metrics: Vec<(&str, f64, &str)> = set.iter().map(|(n, u)| (*n, 1.5, *u)).collect();
            let line = result_line(true, 3, 0, &metrics);
            let parsed = serde_json::value_from_str(&line).expect("result line is JSON");
            let m = parsed.get("metrics").expect("metrics key");
            for (name, unit) in set {
                let entry = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert!(matches!(entry.get("unit"), Some(serde::Value::Str(u)) if u == unit));
                assert!(matches!(entry.get("value"), Some(serde::Value::Float(v)) if *v == 1.5));
            }
            for key in ["correct", "attempted", "failed"] {
                assert!(parsed.get(key).is_some(), "{key} missing");
            }
        }
    }

    #[test]
    fn fom_gain_signs_follow_metric_direction() {
        let base = Performance {
            offset_uv: 100.0,
            cmrr_db: 60.0,
            bandwidth_mhz: 10.0,
            dc_gain_db: 50.0,
            noise_uvrms: 10.0,
        };
        let better = Performance {
            offset_uv: 50.0,
            cmrr_db: 90.0,
            bandwidth_mhz: 10.0,
            dc_gain_db: 50.0,
            noise_uvrms: 10.0,
        };
        // offset -50% (better, +50) and CMRR +50% (+50) over five metrics.
        assert!((fom_gain_pct(&better, &base) - 20.0).abs() < 1e-9);
        assert_eq!(fom_gain_pct(&base, &base), 0.0);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-mix --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve-mix", 4, 10.0, true)
        );
        for bad in [
            "--workload nope",
            "--workload flow-quick --trace 2",
            "--workload flow-quick --seed",
            "--workload flow-quick --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
