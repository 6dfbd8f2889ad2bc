//! Stability experiment: the paper claims AnalogFold "exhibits enhanced
//! stability by considering the potential post-layout performance". This
//! binary quantifies run-to-run spread: the flow is repeated with K
//! different seeds on OTA1-A and the per-metric mean ± standard deviation is
//! reported next to the (deterministic) MagicalRoute baseline.
//!
//! The K per-seed flows fan out across the `afrt` worker pool; the same
//! workload is then replayed on one worker and the wall-clock speedup is
//! printed. Per-seed results are identical either way (each flow depends
//! only on its seed), so the speedup costs no reproducibility.
//!
//! A warm-vs-cold cache probe follows: the guidance potential `f_theta` is
//! evaluated over a fixed batch of guidance vectors twice through the
//! relaxation memo — the first pass misses (and pays the full GNN forward),
//! the second hits. The speedup and hit/miss counters land in the JSON
//! report (`BENCH_stability.json`) next to the per-metric spread; cached
//! results are bit-identical to uncached ones, so the probe asserts
//! equality too.
//!
//! Run: `cargo run -p af-bench --bin stability --release -- [quick|full]
//!       [seeds=K] [threads=N] [cache=MB]`

use af_bench::{cache_arg, flow_config, kv_num, obs_arg, threads_arg, Scale};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_route::RouterConfig;
use af_sim::SimConfig;
use af_tech::Technology;
use analogfold::{magical_route, AnalogFoldFlow, GnnConfig, HeteroGraph, Potential, ThreeDGnn};
use serde::Serialize;

#[derive(Serialize)]
struct MetricRow {
    metric: String,
    magical: f64,
    ours_mean: f64,
    ours_std: f64,
    cv_pct: f64,
}

#[derive(Serialize)]
struct CacheReport {
    cache_mb: u64,
    evals: u64,
    cold_s: f64,
    warm_s: f64,
    warm_speedup: f64,
    hits: u64,
    misses: u64,
    hit_ratio: f64,
}

#[derive(Serialize)]
struct StabilityReport {
    scale: String,
    seeds: u64,
    workers: usize,
    parallel_s: f64,
    sequential_s: f64,
    fanout_speedup: f64,
    metrics: Vec<MetricRow>,
    cache: CacheReport,
}

/// Times the relaxation memo cold (every lookup misses) against warm
/// (every lookup hits) on a fixed batch of guidance vectors, checking that
/// both passes return bit-identical values.
fn cache_probe(cache_mb: u64, scale: Scale) -> CacheReport {
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let gnn = ThreeDGnn::new(&GnnConfig::default());
    let mut potential = Potential::new(&gnn, &graph);
    potential.enable_memo(cache_mb.max(1));

    let evals: usize = match scale {
        Scale::Quick => 32,
        _ => 128,
    };
    let dim = potential.dim();
    let batch: Vec<Vec<f64>> = (0..evals)
        .map(|j| {
            (0..dim)
                .map(|i| 0.25 * ((1 + i + j * dim) as f64).sin())
                .collect()
        })
        .collect();

    let run = |batch: &[Vec<f64>]| -> Vec<f64> {
        batch
            .iter()
            .map(|c| potential.value_and_grad(c).0)
            .collect()
    };
    let (cold, cold_s) = afrt::timed(|| run(&batch));
    let (warm, warm_s) = afrt::timed(|| run(&batch));
    assert_eq!(
        cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "cached evaluations must be bit-identical to uncached ones"
    );

    let stats = potential.memo_stats();
    let lookups = stats.hits + stats.misses;
    CacheReport {
        cache_mb,
        evals: evals as u64,
        cold_s,
        warm_s,
        warm_speedup: cold_s / warm_s.max(1e-9),
        hits: stats.hits,
        misses: stats.misses,
        hit_ratio: stats.hits as f64 / (lookups.max(1)) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _obs = obs_arg(&args);
    let scale = args
        .iter()
        .find_map(|a| Scale::parse(a))
        .unwrap_or(Scale::Quick);
    let seeds: u64 = kv_num(&args, "seeds", 5);
    let cache_mb = cache_arg(&args, 64);
    let runtime = afrt::Runtime::with_threads(threads_arg(&args));

    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let router_cfg = RouterConfig::default();
    let (_, _, base) = magical_route(
        &circuit,
        &placement,
        &tech,
        &router_cfg,
        &SimConfig::default(),
    )
    .expect("baseline");

    // One job per seed. Each flow pins its internal stages to a single
    // thread so the fan-out is the only parallelism and the sequential
    // replay below is a like-for-like comparison.
    let run_all = |rt: &afrt::Runtime| -> Vec<[f64; 5]> {
        let jobs: Vec<_> = (0..seeds)
            .map(|seed| {
                let circuit = &circuit;
                let placement = &placement;
                move || {
                    let flow = AnalogFoldFlow::new(
                        flow_config(scale, 0x57ab + seed)
                            .with_threads(1)
                            .with_cache_mb(cache_mb),
                    );
                    let p = flow.run(circuit, placement).expect("flow").performance;
                    [
                        p.offset_uv,
                        p.cmrr_db,
                        p.bandwidth_mhz,
                        p.dc_gain_db,
                        p.noise_uvrms,
                    ]
                }
            })
            .collect();
        rt.par_run(jobs).expect("per-seed fan-out")
    };

    eprintln!(
        "running {seeds} seeds on {} worker(s) ...",
        runtime.threads()
    );
    let (rows, parallel_s) = afrt::timed(|| run_all(&runtime));
    eprintln!("replaying sequentially for the speedup baseline ...");
    let (rows_seq, sequential_s) = afrt::timed(|| run_all(&afrt::Runtime::with_threads(1)));
    assert_eq!(rows, rows_seq, "parallel and sequential runs must agree");

    let n = rows.len() as f64;
    let names = ["Offset(uV)", "CMRR(dB)", "BW(MHz)", "Gain(dB)", "Noise(uV)"];
    let baseline = [
        base.offset_uv,
        base.cmrr_db,
        base.bandwidth_mhz,
        base.dc_gain_db,
        base.noise_uvrms,
    ];
    println!("Stability over {seeds} seeds on OTA1-A (scale {scale:?})\n");
    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>10}",
        "metric", "Magical", "Ours mean", "Ours std", "cv %"
    );
    let mut metrics = Vec::with_capacity(5);
    for k in 0..5 {
        let mean = rows.iter().map(|r| r[k]).sum::<f64>() / n;
        let var = rows
            .iter()
            .map(|r| (r[k] - mean) * (r[k] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        let cv_pct = 100.0 * std / mean.abs().max(1e-9);
        println!(
            "{:<12}{:>12.2}{:>12.2}{:>12.2}{:>9.2}%",
            names[k], baseline[k], mean, std, cv_pct
        );
        metrics.push(MetricRow {
            metric: names[k].to_string(),
            magical: baseline[k],
            ours_mean: mean,
            ours_std: std,
            cv_pct,
        });
    }
    println!(
        "\nfan-out: {} worker(s)  parallel {:.2} s  sequential {:.2} s  speedup {:.2}x",
        runtime.threads(),
        parallel_s,
        sequential_s,
        sequential_s / parallel_s.max(1e-9)
    );

    eprintln!("probing the relaxation memo warm vs cold ...");
    let cache = cache_probe(cache_mb, scale);
    println!(
        "cache: {} evals  cold {:.3} s  warm {:.3} s  speedup {:.1}x  \
         {} hits / {} misses (hit ratio {:.2})",
        cache.evals,
        cache.cold_s,
        cache.warm_s,
        cache.warm_speedup,
        cache.hits,
        cache.misses,
        cache.hit_ratio
    );

    let report = StabilityReport {
        scale: format!("{scale:?}"),
        seeds,
        workers: runtime.threads(),
        parallel_s,
        sequential_s,
        fanout_speedup: sequential_s / parallel_s.max(1e-9),
        metrics,
        cache,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_stability.json", &json).expect("write BENCH_stability.json");
    println!("wrote BENCH_stability.json");
}
