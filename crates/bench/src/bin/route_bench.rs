//! Detailed-router throughput: negotiated-congestion rounds under the
//! session API, across open-list engines and worker counts.
//!
//! Three configurations are measured on each benchmark design:
//!
//! * **baseline** — the pre-session-API cost model: binary-heap open list,
//!   no bidirectional search, heuristic floored at `min_guidance`
//!   (`guidance_aware_h = false`), one thread. This is what the seed
//!   router's inner loop did per expansion.
//! * **optimized, 1 thread** — the default [`af_route::RouterConfig`]:
//!   bucketed open list, bidirectional two-pin search, guidance-aware
//!   heuristic. The gap to baseline is the *algorithmic* win.
//! * **optimized, N threads** — the same config at each `threads=` value;
//!   the gap to 1 thread is the *parallel* win (bounded by the host's
//!   cores — on a single-core runner it is ~1.0x by construction).
//!
//! A fourth row routes what the flow actually runs: seeded dataset-style
//! `NonUniform` guidance samples (a log-uniform `[c_low, c_high]` triple per
//! guided access point, drawn exactly as dataset generation draws them)
//! with the default configuration on one thread. It reports the mean
//! guided route time and the wall time per A* expansion, read from the
//! `route.astar_expansions` counter.
//!
//! Every run also verifies the routing contracts and exits non-zero on
//! violation, which the CI `route-bench-smoke` step relies on:
//!
//! * **determinism** — the optimized layout is bit-identical at every
//!   measured thread count;
//! * **engine parity** — bucket and heap open lists both converge to a
//!   clean layout on the clean designs, with total wirelength within 20%
//!   (the cost contract itself is proptested in `af-route`);
//! * **no regression** — the optimized router leaves no more conflicts
//!   than the baseline on any design.
//!
//! Run: `cargo run -p af-bench --bin route_bench --release --
//!       [quick|full|smoke] [threads=1,4,8] [obs=<path>]`

use std::time::Instant;

use std::sync::Arc;

use af_bench::{kv_list, obs_arg, Scale};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_route::{OpenListKind, RoutedLayout, Router, RouterConfig, RoutingGuidance};
use af_tech::Technology;
use analogfold::{guidance_field, DatasetConfig, HeteroGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct DesignRow {
    design: String,
    nets: usize,
    /// Baseline (seed-equivalent) configuration, 1 thread.
    baseline_s: f64,
    baseline_nets_per_sec: f64,
    baseline_rounds: u32,
    baseline_conflicts: u32,
    /// Optimized configuration per thread count, in `threads` order.
    optimized: Vec<ThreadRow>,
    /// baseline_s / optimized@1-thread: the algorithmic speedup.
    speedup_vs_baseline: f64,
    /// Dataset-style guidance samples routed (optimized config, 1 thread).
    guided_samples: usize,
    /// Mean wall time of one guided route.
    guided_route_s: f64,
    /// A* expansions summed over the guided samples.
    guided_expansions: u64,
    /// Guided wall time per A* expansion.
    guided_ns_per_expansion: f64,
}

#[derive(Serialize)]
struct ThreadRow {
    threads: usize,
    route_s: f64,
    nets_per_sec: f64,
    rounds: u32,
    conflicts: u32,
    /// optimized@1-thread time over this row's time (parallel scaling).
    speedup_vs_t1: f64,
}

#[derive(Serialize)]
struct RouteBenchReport {
    mode: String,
    threads: Vec<usize>,
    rows: Vec<DesignRow>,
    /// Geometric mean of per-design `speedup_vs_baseline`.
    geomean_speedup_vs_baseline: f64,
    determinism_ok: bool,
    parity_ok: bool,
    checks_failed: Vec<String>,
}

fn baseline_config() -> RouterConfig {
    RouterConfig::builder()
        .open_list(OpenListKind::Heap)
        .bidirectional(false)
        .guidance_aware_h(false)
        .threads(1)
        .build()
        .expect("baseline config is valid")
}

fn optimized_config(threads: usize) -> RouterConfig {
    RouterConfig::builder()
        .threads(threads)
        .build()
        .expect("optimized config is valid")
}

/// Routes a design and returns the layout with measured wall time (the
/// layout's own `runtime_s` excludes session setup; the outer clock is the
/// honest number for throughput).
fn timed_route(cfg: RouterConfig, design: &str) -> (RoutedLayout, f64) {
    let circuit = benchmarks::by_name(design).expect("known design");
    let placement = place(&circuit, PlacementVariant::A);
    let tech = Technology::nm40();
    let router = Router::new(cfg).expect("valid config");
    let t0 = Instant::now();
    let layout = router
        .route(&circuit, &placement, &tech, &RoutingGuidance::None)
        .expect("bundled designs route");
    (layout, t0.elapsed().as_secs_f64())
}

/// Dataset-style guidance sample `index`: one log-uniform
/// `[c_low, c_high]` triple per guided access point, drawn with the
/// dataset generator's seeding so the bench routes what the flow routes.
fn dataset_guidance(graph: &HeteroGraph, index: u64) -> RoutingGuidance {
    let cfg = DatasetConfig::default();
    let (lo, hi) = (cfg.c_low.ln(), cfg.c_high.ln());
    let mut rng = ChaCha8Rng::seed_from_u64(afrt::split_seed(cfg.seed, index));
    let guidance: Vec<f64> = (0..graph.guided_ap_indices().len() * 3)
        .map(|_| rng.gen_range(lo..=hi).exp())
        .collect();
    RoutingGuidance::NonUniform(guidance_field(graph, &guidance))
}

/// Total `route.astar_expansions` counted while `f` runs, read from the
/// live obs registry; a throwaway memory sink records when no `obs=` sink
/// is installed.
fn count_expansions<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let read = || {
        af_obs::with_registry(|r| {
            r.counter_snapshot()
                .into_iter()
                .find(|(name, _)| name == "route.astar_expansions")
                .map_or(0, |(_, v)| v)
        })
        .unwrap_or(0)
    };
    let _guard = (!af_obs::enabled()).then(|| af_obs::install(Arc::new(af_obs::MemorySink::new())));
    let before = read();
    let out = f();
    (out, read() - before)
}

/// Routes `samples` dataset-style guidance samples on one thread; returns
/// the mean route time and the total A* expansions.
fn guided_routes(design: &str, samples: usize) -> (f64, u64) {
    let circuit = benchmarks::by_name(design).expect("known design");
    let placement = place(&circuit, PlacementVariant::A);
    let tech = Technology::nm40();
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let fields: Vec<RoutingGuidance> = (0..samples as u64)
        .map(|i| dataset_guidance(&graph, i))
        .collect();
    let router = Router::new(optimized_config(1)).expect("valid config");
    let (total_s, expansions) = count_expansions(|| {
        let t0 = Instant::now();
        for field in &fields {
            router
                .route(&circuit, &placement, &tech, field)
                .expect("bundled designs route under guidance");
        }
        t0.elapsed().as_secs_f64()
    });
    (total_s / samples.max(1) as f64, expansions)
}

/// Layout equality that ignores the wall-clock field.
fn same_layout(a: &RoutedLayout, b: &RoutedLayout) -> bool {
    a.nets == b.nets && a.conflicts == b.conflicts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _obs = obs_arg(&args);
    let smoke = args.iter().any(|a| a == "smoke");
    let scale = args
        .iter()
        .find_map(|a| Scale::parse(a))
        .unwrap_or(Scale::Quick);
    let mode = if smoke {
        "smoke".to_string()
    } else {
        format!("{scale:?}").to_lowercase()
    };
    let designs: Vec<&str> = if smoke {
        vec!["OTA1"]
    } else {
        match scale {
            Scale::Quick => vec!["OTA1", "OTA2"],
            _ => vec!["OTA1", "OTA2", "OTA3", "OTA4"],
        }
    };
    let guided_samples = if smoke { 2 } else { 4 };
    let thread_counts: Vec<usize> = kv_list(&args, "threads")
        .map(|l| l.iter().filter_map(|s| s.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 4, 8]);

    let mut checks: Vec<String> = Vec::new();
    let mut determinism_ok = true;
    let mut parity_ok = true;
    let mut rows = Vec::new();

    for design in &designs {
        eprintln!("{design}: baseline (heap, unidirectional, floored h) ...");
        let (base_layout, baseline_s) = timed_route(baseline_config(), design);
        let nets = base_layout.nets.len();

        let mut optimized = Vec::new();
        let mut reference: Option<RoutedLayout> = None;
        let mut t1_s = f64::NAN;
        for &threads in &thread_counts {
            eprintln!("{design}: optimized on {threads} thread(s) ...");
            let (layout, route_s) = timed_route(optimized_config(threads), design);
            match &reference {
                None => {
                    t1_s = route_s;
                    reference = Some(layout.clone());
                }
                Some(want) if !same_layout(want, &layout) => {
                    determinism_ok = false;
                    checks.push(format!(
                        "{design}: layout differs at {threads} thread(s) vs {} thread(s)",
                        thread_counts[0]
                    ));
                }
                _ => {}
            }
            if layout.conflicts > base_layout.conflicts {
                checks.push(format!(
                    "{design}: optimized router leaves {} conflicts vs baseline {}",
                    layout.conflicts, base_layout.conflicts
                ));
            }
            optimized.push(ThreadRow {
                threads,
                route_s,
                nets_per_sec: layout.nets.len() as f64 / route_s.max(1e-12),
                rounds: layout.iterations,
                conflicts: layout.conflicts,
                speedup_vs_t1: t1_s / route_s.max(1e-12),
            });
        }

        // Engine parity at one thread: heap open list with the otherwise
        // optimized configuration.
        let heap_cfg = RouterConfig::builder()
            .open_list(OpenListKind::Heap)
            .threads(1)
            .build()
            .expect("heap config is valid");
        let (heap_layout, _) = timed_route(heap_cfg, design);
        let bucket_layout = reference.as_ref().expect("at least one thread count");
        let (wb, wh) = (
            bucket_layout.total_wirelength() as f64,
            heap_layout.total_wirelength() as f64,
        );
        if heap_layout.conflicts != bucket_layout.conflicts || (wb - wh).abs() > 0.2 * wb.max(1.0) {
            parity_ok = false;
            checks.push(format!(
                "{design}: engine parity violated (bucket {wb} dbu/{} conflicts vs heap {wh} \
                 dbu/{} conflicts)",
                bucket_layout.conflicts, heap_layout.conflicts
            ));
        }

        eprintln!("{design}: {guided_samples} dataset-style guided route(s) on 1 thread ...");
        let (guided_route_s, guided_expansions) = guided_routes(design, guided_samples);

        let speedup_vs_baseline = baseline_s / t1_s.max(1e-12);
        rows.push(DesignRow {
            design: design.to_string(),
            nets,
            baseline_s,
            baseline_nets_per_sec: nets as f64 / baseline_s.max(1e-12),
            baseline_rounds: base_layout.iterations,
            baseline_conflicts: base_layout.conflicts,
            optimized,
            speedup_vs_baseline,
            guided_samples,
            guided_route_s,
            guided_expansions,
            guided_ns_per_expansion: guided_route_s * guided_samples as f64 * 1e9
                / guided_expansions.max(1) as f64,
        });
    }

    let geomean = rows
        .iter()
        .map(|r| r.speedup_vs_baseline.max(1e-12).ln())
        .sum::<f64>()
        / rows.len().max(1) as f64;
    let geomean_speedup_vs_baseline = geomean.exp();

    for r in &rows {
        println!(
            "{}: baseline {:.2}s ({:.1} nets/s, {} rounds) -> optimized@1t {:.2}s \
             (speedup {:.2}x)",
            r.design,
            r.baseline_s,
            r.baseline_nets_per_sec,
            r.baseline_rounds,
            r.optimized.first().map_or(f64::NAN, |o| o.route_s),
            r.speedup_vs_baseline
        );
        println!(
            "  guided@1t: {:.3}s per route  {} expansions over {} sample(s)  {:.0} ns/expansion",
            r.guided_route_s, r.guided_expansions, r.guided_samples, r.guided_ns_per_expansion
        );
        for o in &r.optimized {
            println!(
                "  {} thread(s): {:.2}s  {:.1} nets/s  {} rounds  {} conflicts  \
                 {:.2}x vs 1t",
                o.threads, o.route_s, o.nets_per_sec, o.rounds, o.conflicts, o.speedup_vs_t1
            );
        }
    }
    println!(
        "geomean speedup vs baseline {geomean_speedup_vs_baseline:.2}x  determinism {}  \
         parity {}",
        if determinism_ok { "ok" } else { "FAILED" },
        if parity_ok { "ok" } else { "FAILED" },
    );

    let report = RouteBenchReport {
        mode,
        threads: thread_counts,
        rows,
        geomean_speedup_vs_baseline,
        determinism_ok,
        parity_ok,
        checks_failed: checks.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_route.json", &json).expect("write BENCH_route.json");
    println!("wrote BENCH_route.json");

    if !checks.is_empty() {
        for c in &checks {
            eprintln!("CHECK FAILED: {c}");
        }
        std::process::exit(1);
    }
}
