//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! 1. cost-aware distance vs plain Euclidean (guidance fixed to 1 in
//!    `d_cost`),
//! 2. RBF distance expansion vs raw distance,
//! 3. heterogeneous graph vs homogeneous (no module nodes),
//! 4. pool-assisted relaxation vs plain multistart,
//! 5. non-uniform per-AP guidance vs uniform 2-D map on the same router.
//!
//! The four model variants train concurrently on the `afrt` worker pool
//! (each training is deterministic given its config, so the fan-out does not
//! change any number).
//!
//! Run: `cargo run -p af-bench --bin ablations --release -- [quick|full]
//!       [threads=N]`

use af_bench::{obs_arg, threads_arg, Scale};
use af_netlist::benchmarks;
use af_place::{place, PlacementVariant};
use af_route::{Router, RouterConfig, RoutingGuidance};
use af_sim::{simulate, SimConfig};
use af_tech::Technology;
use analogfold::{
    generate_dataset, holdout_mse, relax, summarize, DatasetConfig, GnnConfig, HeteroGraph,
    Potential, RelaxConfig, Sample, ThreeDGnn, METRIC_NAMES,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let _obs = obs_arg(&args);
    let scale = args
        .iter()
        .find_map(|a| Scale::parse(a))
        .unwrap_or(Scale::Quick);
    let runtime = afrt::Runtime::with_threads(threads_arg(&args));
    let circuit = benchmarks::ota1();
    let tech = Technology::nm40();
    let placement = place(&circuit, PlacementVariant::A);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);

    let n_total = (scale.samples() * 2).max(16);
    eprintln!("generating {n_total} samples ...");
    let dataset = generate_dataset(
        &circuit,
        &placement,
        &tech,
        &graph,
        &DatasetConfig {
            samples: n_total,
            ..DatasetConfig::default()
        },
    )
    .expect("dataset");
    let split = n_total * 3 / 4;
    let train = analogfold::Dataset {
        samples: dataset.samples[..split].to_vec(),
    };
    let test = &dataset.samples[split..];

    println!(
        "Ablation study on OTA1-A (scale {scale:?}; {split} train / {} test)\n",
        test.len()
    );

    // dataset diagnostics: how much does sampled guidance move each metric?
    let summary = summarize(&dataset);
    println!("{:<16}{:>12}{:>14}", "metric", "cv", "corr(|C|)");
    for (i, name) in METRIC_NAMES.iter().enumerate() {
        println!(
            "{name:<16}{:>12.4}{:>14.3}",
            summary.cv[i], summary.guidance_correlation[i]
        );
    }
    println!();

    // 1-3: model ablations, judged by held-out prediction MSE. All four
    // variants train concurrently.
    let variants: [(&str, GnnConfig); 4] = [
        (
            "full 3DGNN (cost-aware + RBF + hetero)",
            GnnConfig {
                epochs: scale.epochs(),
                ..GnnConfig::default()
            },
        ),
        (
            "raw distance (no RBF expansion)",
            GnnConfig {
                epochs: scale.epochs(),
                use_rbf: false,
                ..GnnConfig::default()
            },
        ),
        (
            "homogeneous graph (no module nodes)",
            GnnConfig {
                epochs: scale.epochs(),
                use_modules: false,
                ..GnnConfig::default()
            },
        ),
        (
            // plain Euclidean: train and evaluate with guidance forced
            // neutral so d_cost degenerates; the model can no longer use C
            "plain Euclidean distance (guidance-blind)",
            GnnConfig {
                epochs: scale.epochs(),
                ..GnnConfig::default()
            },
        ),
    ];
    // guidance-blind training set: every sample's guidance replaced by the
    // neutral vector (used by variant 3 only)
    let blind = analogfold::Dataset {
        samples: train
            .samples
            .iter()
            .map(|s| Sample {
                guidance: vec![1.0; s.guidance.len()],
                performance: s.performance,
            })
            .collect(),
    };
    eprintln!(
        "training {} model variants on {} worker(s) ...",
        variants.len(),
        runtime.threads()
    );
    let trained: Vec<(f64, ThreeDGnn)> = runtime
        .par_map(&variants, |i, (_, cfg)| {
            let mut gnn = ThreeDGnn::new(cfg);
            let data = if i == 3 { &blind } else { &train };
            gnn.train(&graph, data, cfg);
            let mse = holdout_mse(&gnn, &graph, test);
            (mse, gnn)
        })
        .expect("variant fan-out");
    println!("{:<44}{:>16}", "model variant", "held-out MSE");
    for ((name, _), (mse, _)) in variants.iter().zip(&trained) {
        println!("{name:<44}{mse:>16.4}");
    }
    let gnn = &trained[0].1;

    // 4: pool-assisted relaxation vs plain multistart.
    let potential = Potential::new(gnn, &graph);
    let pooled = relax(
        &potential,
        &RelaxConfig {
            restarts: scale.restarts() * 2,
            p_relax: 0.6,
            n_derive: 1,
            ..RelaxConfig::default()
        },
    );
    let plain = relax(
        &potential,
        &RelaxConfig {
            restarts: scale.restarts() * 2,
            p_relax: 0.0,
            n_derive: 1,
            ..RelaxConfig::default()
        },
    );
    println!("\n{:<44}{:>16}", "relaxation", "best potential");
    println!(
        "{:<44}{:>16.5}",
        "pool-assisted noisy restarts", pooled[0].potential
    );
    println!("{:<44}{:>16.5}", "plain multistart", plain[0].potential);

    // 5: non-uniform per-AP guidance vs a uniform 2-D map with the same
    // average cost applied to the same router.
    let sim_cfg = SimConfig::default();
    let best = &pooled[0];
    let field = RoutingGuidance::NonUniform(analogfold::guidance_field(&graph, &best.guidance));
    let router_cfg = RouterConfig::default();
    let nu_layout = Router::new(router_cfg.clone())
        .unwrap()
        .route(&circuit, &placement, &tech, &field)
        .expect("non-uniform route");
    let nu_px = af_extract::extract(&circuit, &tech, &nu_layout);
    let nu_perf = simulate(&circuit, Some(&nu_px), &sim_cfg).expect("sim");

    let mean_c: f64 = best.guidance.iter().sum::<f64>() / best.guidance.len() as f64;
    let die = placement.die();
    let mut map =
        af_route::GuidanceMap2D::new(8, 8, (die.lo().x, die.lo().y), (die.width(), die.height()));
    for net in circuit.guided_nets() {
        map.set_net(net, vec![mean_c; 64]);
    }
    let uni_layout = Router::new(router_cfg)
        .unwrap()
        .route(&circuit, &placement, &tech, &RoutingGuidance::Map(map))
        .expect("uniform route");
    let uni_px = af_extract::extract(&circuit, &tech, &uni_layout);
    let uni_perf = simulate(&circuit, Some(&uni_px), &sim_cfg).expect("sim");

    println!(
        "\n{:<28}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "guidance applied", "offset(uV)", "cmrr(dB)", "bw(MHz)", "gain(dB)", "noise(uV)"
    );
    for (name, p) in [
        ("non-uniform per-AP", nu_perf),
        ("uniform 2-D map", uni_perf),
    ] {
        println!(
            "{name:<28}{:>12.1}{:>12.2}{:>12.2}{:>12.2}{:>12.1}",
            p.offset_uv, p.cmrr_db, p.bandwidth_mhz, p.dc_gain_db, p.noise_uvrms
        );
    }
}
