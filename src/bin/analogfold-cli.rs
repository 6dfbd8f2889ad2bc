//! `analogfold` command-line interface: drive the reproduction stack from a
//! shell — route, simulate, export, train, and guide without writing Rust.
//!
//! ```text
//! analogfold-cli route    <OTA1..OTA4> <A..D> [--svg FILE] [--def FILE] [--report]
//! analogfold-cli simulate <OTA1..OTA4> [A..D] [--schematic]
//! analogfold-cli spice    <OTA1..OTA4> [A..D] [--schematic] [--out FILE]
//! analogfold-cli train    <OTA1..OTA4> <A..D> [--samples N] [--epochs N] [--threads N] [--out FILE]
//!                         [--registry DIR]
//! analogfold-cli guide    <OTA1..OTA4> <A..D> --model FILE [--restarts N] [--threads N]
//! analogfold-cli flow     <OTA1..OTA4> <A..D> [--samples N] [--epochs N] [--restarts N]
//!                         [--threads N] [--cache-mb N] [--no-cache]
//!                         [--obs-jsonl FILE] [--obs-report]
//! analogfold-cli serve    <OTA1..OTA4> <A..D> [--model FILE] [--registry DIR] [--addr HOST:PORT]
//!                         [--threads N] [--jobs DIR] [--cache-mb N] [--no-cache]
//!                         [--canary-fraction X] [--train] [--train-interval-ms N]
//!                         [--train-min-samples N] [--train-epochs N] [--obs-jsonl FILE]
//! analogfold-cli models   <list|show HASH|promote [HASH] [--force]|rollback|gc [--keep N]>
//!                         --registry DIR
//! analogfold-cli fleet-coord  [--addr HOST:PORT] [--lease-ms N]
//! analogfold-cli fleet-worker <OTA1..OTA4> <A..D> --coordinator HOST:PORT [--model FILE]
//!                         [--registry DIR] [--addr HOST:PORT] [--id NAME] [--threads N]
//!                         [--cache-mb N]
//! analogfold-cli fleet-front  --coordinator HOST:PORT [--addr HOST:PORT] [--refresh-ms N]
//! analogfold-cli fleet-gen    <OTA1..OTA4> <A..D> --checkpoint DIR [--samples N]
//!                         [--shard-size N] [--seed N] [--workers N] [--out FILE]
//!                         [--addr HOST:PORT] [--lease-ms N] [--threads N] [--cache-mb N]
//! analogfold-cli fleet-gen    --join HOST:PORT [--id NAME]
//! analogfold-cli bench-info
//! ```
//!
//! Every subcommand additionally accepts `--fault NAME:MODE:PROB[:MAX]` and
//! `--fault-seed N` (or the `AF_FAULT` / `AF_FAULT_SEED` environment) to arm
//! deterministic fault injection for chaos testing.

use std::fs;
use std::process::ExitCode;

use analogfold_suite::analogfold::{
    generate_dataset, guidance_field, relax, AnalogFoldFlow, DatasetConfig, FlowConfig, GnnConfig,
    HeteroGraph, Potential, RelaxConfig, ThreeDGnn,
};
use analogfold_suite::extract::extract;
use analogfold_suite::netlist::{benchmarks, Circuit, DeviceKind};
use analogfold_suite::place::{place, Placement};
use analogfold_suite::route::{render_svg, write_def, Router, RouterConfig, RoutingGuidance};
use analogfold_suite::sim::{psrr_db, simulate, to_spice, Performance, SimConfig};
use analogfold_suite::tech::Technology;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  analogfold-cli route    <OTA1..OTA4> <A..D> [--svg FILE] [--def FILE] [--report]
  analogfold-cli simulate <OTA1..OTA4> [A..D] [--schematic]
  analogfold-cli spice    <OTA1..OTA4> [A..D] [--schematic] [--out FILE]
  analogfold-cli train    <OTA1..OTA4> <A..D> [--samples N] [--epochs N] [--threads N] [--out FILE]
                          [--registry DIR]
  analogfold-cli guide    <OTA1..OTA4> <A..D> --model FILE [--restarts N] [--threads N]
  analogfold-cli flow     <OTA1..OTA4> <A..D> [--samples N] [--epochs N] [--restarts N]
                          [--threads N] [--cache-mb N] [--no-cache]
                          [--obs-jsonl FILE] [--obs-report]
  analogfold-cli serve    <OTA1..OTA4> <A..D> [--model FILE] [--registry DIR] [--addr HOST:PORT]
                          [--threads N] [--jobs DIR] [--cache-mb N] [--no-cache]
                          [--canary-fraction X] [--train] [--train-interval-ms N]
                          [--train-min-samples N] [--train-epochs N] [--obs-jsonl FILE]
                          [--deadline-max-ms N] [--admission-target-ms N]
                          [--admission-interval-ms N] [--fault-key N]
  analogfold-cli models   <list|show HASH|promote [HASH] [--force]|rollback|gc [--keep N]>
                          --registry DIR
  analogfold-cli fleet-coord  [--addr HOST:PORT] [--lease-ms N]
  analogfold-cli fleet-worker <OTA1..OTA4> <A..D> --coordinator HOST:PORT [--model FILE]
                          [--registry DIR] [--addr HOST:PORT] [--id NAME] [--threads N]
                          [--cache-mb N]
  analogfold-cli fleet-front  --coordinator HOST:PORT [--addr HOST:PORT] [--refresh-ms N]
                          [--deadline-max-ms N] [--no-hedge] [--hedge-delay-ms N]
                          [--no-breaker] [--breaker-open-ms N] [--breaker-slow-ms N]
  analogfold-cli fleet-gen    <OTA1..OTA4> <A..D> --checkpoint DIR [--samples N]
                          [--shard-size N] [--seed N] [--workers N] [--out FILE]
                          [--addr HOST:PORT] [--lease-ms N] [--threads N] [--cache-mb N]
  analogfold-cli fleet-gen    --join HOST:PORT [--id NAME]
  analogfold-cli bench-info

every subcommand also accepts fault injection for chaos testing:
                          [--fault NAME:MODE:PROB[:MAX]] [--fault-seed N]
                          (or the AF_FAULT / AF_FAULT_SEED environment)";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing subcommand")?;
    // Any subcommand can run under fault injection (`--fault SPEC`,
    // `--fault-seed N`, or the AF_FAULT / AF_FAULT_SEED environment);
    // disarmed, the registry costs one atomic load per failpoint site.
    fault_flag(args)?;
    match cmd.as_str() {
        "route" => cmd_route(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "spice" => cmd_spice(&args[1..]),
        "train" => cmd_train(&args[1..]),
        "guide" => cmd_guide(&args[1..]),
        "flow" => cmd_flow(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "models" => cmd_models(&args[1..]),
        "fleet-coord" => cmd_fleet_coord(&args[1..]),
        "fleet-worker" => cmd_fleet_worker(&args[1..]),
        "fleet-front" => cmd_fleet_front(&args[1..]),
        "fleet-gen" => cmd_fleet_gen(&args[1..]),
        "bench-info" => {
            cmd_bench_info();
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn parse_circuit(args: &[String]) -> Result<Circuit, String> {
    let name = args.first().ok_or("missing benchmark name")?;
    benchmarks::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
}

use analogfold_suite::cli::{
    cache_mb_flag, fault_flag, flag_f64, flag_num, flag_value, has_flag, obs_flags, obs_install,
    threads_flag, variant_arg as parse_variant,
};

fn print_perf(label: &str, p: &Performance) {
    println!("{label}:");
    println!("  Offset Voltage : {:>12.2} uV", p.offset_uv);
    println!("  CMRR           : {:>12.2} dB", p.cmrr_db);
    println!("  BandWidth      : {:>12.2} MHz", p.bandwidth_mhz);
    println!("  DC Gain        : {:>12.2} dB", p.dc_gain_db);
    println!("  Noise          : {:>12.2} uVrms", p.noise_uvrms);
}

fn routed(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    guidance: &RoutingGuidance,
) -> Result<analogfold_suite::route::RoutedLayout, String> {
    Router::new(RouterConfig::default())
        .map_err(|e| e.to_string())?
        .route(circuit, placement, tech, guidance)
        .map_err(|e| e.to_string())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let tech = Technology::nm40();
    let placement = place(&circuit, variant);
    let layout = routed(&circuit, &placement, &tech, &RoutingGuidance::None)?;
    println!(
        "{}-{variant}: {} nets, {:.1} um wire, {} vias, {} conflicts, {:.2}s",
        circuit.name(),
        layout.nets.len(),
        layout.total_wirelength() as f64 / 1e3,
        layout.total_vias(),
        layout.conflicts,
        layout.runtime_s
    );
    if has_flag(args, "--report") {
        print!("{}", layout.report(&circuit));
    }
    if let Some(path) = flag_value(args, "--svg") {
        let svg = render_svg(
            &circuit,
            &placement,
            &layout,
            &format!("{}-{variant}", circuit.name()),
        );
        fs::write(path, svg).map_err(|e| e.to_string())?;
        println!("svg written to {path}");
    }
    if let Some(path) = flag_value(args, "--def") {
        fs::write(path, write_def(&circuit, &placement, &layout)).map_err(|e| e.to_string())?;
        println!("def written to {path}");
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let cfg = SimConfig::default();
    let schematic = simulate(&circuit, None, &cfg).map_err(|e| e.to_string())?;
    print_perf(&format!("{} schematic", circuit.name()), &schematic);
    let psrr = psrr_db(&circuit, None, &cfg).map_err(|e| e.to_string())?;
    println!("  PSRR           : {psrr:>12.2} dB");
    if !has_flag(args, "--schematic") {
        let variant = parse_variant(args, 1);
        let tech = Technology::nm40();
        let placement = place(&circuit, variant);
        let layout = routed(&circuit, &placement, &tech, &RoutingGuidance::None)?;
        let px = extract(&circuit, &tech, &layout);
        let post = simulate(&circuit, Some(&px), &cfg).map_err(|e| e.to_string())?;
        print_perf(&format!("{}-{variant} post-layout", circuit.name()), &post);
        let psrr = psrr_db(&circuit, Some(&px), &cfg).map_err(|e| e.to_string())?;
        println!("  PSRR           : {psrr:>12.2} dB");
    }
    Ok(())
}

fn cmd_spice(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let deck = if has_flag(args, "--schematic") {
        to_spice(&circuit, None)
    } else {
        let variant = parse_variant(args, 1);
        let tech = Technology::nm40();
        let placement = place(&circuit, variant);
        let layout = routed(&circuit, &placement, &tech, &RoutingGuidance::None)?;
        let px = extract(&circuit, &tech, &layout);
        to_spice(&circuit, Some(&px))
    };
    match flag_value(args, "--out") {
        Some(path) => {
            fs::write(path, &deck).map_err(|e| e.to_string())?;
            println!("deck written to {path}");
        }
        None => print!("{deck}"),
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let samples = flag_num(args, "--samples", 40);
    let epochs = flag_num(args, "--epochs", 20);
    let threads = threads_flag(args);
    let out = flag_value(args, "--out").unwrap_or("analogfold-model.json");

    let tech = Technology::nm40();
    let placement = place(&circuit, variant);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    eprintln!("generating {samples} samples ...");
    let dataset = generate_dataset(
        &circuit,
        &placement,
        &tech,
        &graph,
        &DatasetConfig {
            samples,
            threads,
            ..DatasetConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let cfg = GnnConfig {
        epochs,
        ..GnnConfig::default()
    };
    let mut gnn = ThreeDGnn::new(&cfg);
    let report = gnn.train(&graph, &dataset, &cfg);
    println!(
        "trained: loss {:.4} -> {:.4}",
        report.epoch_losses[0], report.final_loss
    );
    gnn.save(out).map_err(|e| e.to_string())?;
    println!("model saved to {out}");
    if let Some(dir) = flag_value(args, "--registry") {
        use analogfold_suite::analogfold::content_hash_of;
        use analogfold_suite::model::{Lineage, ModelRegistry};
        let mut registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
        let entry = registry
            .register(
                &gnn,
                Lineage {
                    parent: None,
                    dataset_hash: Some(content_hash_of(&dataset).to_hex()),
                    train_seed: Some(cfg.seed),
                    train_epochs: Some(epochs as u64),
                    samples: Some(dataset.samples.len() as u64),
                    eval_mse: None,
                    note: Some("cli-train".to_string()),
                },
            )
            .map_err(|e| e.to_string())?;
        let hash = entry.hash.clone();
        // Bootstrap: the first registered model becomes current so a serve
        // started against the same registry has something to load.
        if registry.current().is_none() {
            registry.promote(&hash, false).map_err(|e| e.to_string())?;
            println!("model {hash} registered and promoted (registry bootstrap)");
        } else {
            println!("model {hash} registered as candidate");
        }
    }
    Ok(())
}

fn cmd_guide(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let model_path = flag_value(args, "--model").ok_or("missing --model FILE")?;
    let restarts = flag_num(args, "--restarts", 12);
    let threads = threads_flag(args);

    let tech = Technology::nm40();
    let placement = place(&circuit, variant);
    let graph = HeteroGraph::build(&circuit, &placement, &tech, 3);
    let gnn = ThreeDGnn::load(model_path).map_err(|e| e.to_string())?;
    let potential = Potential::new(&gnn, &graph);
    let outcomes = relax(
        &potential,
        &RelaxConfig {
            restarts,
            n_derive: 1,
            threads,
            ..RelaxConfig::default()
        },
    );
    let best = &outcomes[0];
    println!("best potential: {:.5}", best.potential);

    let field = RoutingGuidance::NonUniform(guidance_field(&graph, &best.guidance));
    let layout = routed(&circuit, &placement, &tech, &field)?;
    let px = extract(&circuit, &tech, &layout);
    let perf = simulate(&circuit, Some(&px), &SimConfig::default()).map_err(|e| e.to_string())?;
    print_perf(&format!("{}-{variant} guided", circuit.name()), &perf);
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), String> {
    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let samples = flag_num(args, "--samples", 24);
    let epochs = flag_num(args, "--epochs", 12);
    let restarts = flag_num(args, "--restarts", 6);
    let threads = threads_flag(args);
    let obs = obs_flags(args);
    let guard = obs_install(&obs)?;

    let t0 = std::time::Instant::now();
    let placement = place(&circuit, variant);
    let placement_s = t0.elapsed().as_secs_f64();

    let cfg = FlowConfig::builder()
        .samples(samples)
        .epochs(epochs)
        .restarts(restarts)
        .n_derive(flag_num(args, "--n-derive", 3).min(restarts))
        .threads(threads)
        .cache_mb(cache_mb_flag(args, 64))
        .placement_s(placement_s)
        .build()
        .map_err(|e| e.to_string())?;
    eprintln!(
        "running AnalogFold flow on {}-{variant} ({samples} samples, {epochs} epochs, \
         {restarts} restarts) ...",
        circuit.name()
    );
    let outcome = AnalogFoldFlow::new(cfg)
        .run(&circuit, &placement)
        .map_err(|e| e.to_string())?;

    print_perf(
        &format!("{}-{variant} AnalogFold", circuit.name()),
        &outcome.performance,
    );
    let b = &outcome.breakdown;
    println!("runtime breakdown (total {:.2} s):", b.total());
    use analogfold_suite::obs::fmt::{Cell, Table};
    let table = Table::new(16).col(10).col(8).indent(2);
    println!("{}", table.header("stage", &["sec", "%"]));
    let [db, tr, gg, gr, pl] = b.percentages();
    for (name, secs, pct) in [
        ("construct_db", b.construct_db_s, db),
        ("training", b.training_s, tr),
        ("guide_gen", b.guide_gen_s, gg),
        ("guided_route", b.guided_route_s, gr),
        ("placement", b.placement_s, pl),
    ] {
        println!(
            "{}",
            table.row(name, &[Cell::Float(secs, 3), Cell::Float(pct, 1)])
        );
    }

    if let Some(g) = &guard {
        g.flush();
        if obs.report {
            println!();
            print!("{}", g.report_text());
        }
        if let Some(path) = &obs.jsonl {
            eprintln!("obs events written to {path}");
        }
    }
    Ok(())
}

/// Loads the serving model: `--model FILE` when given, otherwise the
/// registry's promoted model.
fn load_serve_bundle(
    args: &[String],
    bench: &str,
    variant_label: &str,
    registry_dir: Option<&std::path::Path>,
) -> Result<analogfold_suite::serve::ModelBundle, String> {
    use analogfold_suite::model::ModelRegistry;
    use analogfold_suite::serve::ModelBundle;

    match (flag_value(args, "--model"), registry_dir) {
        (Some(path), _) => ModelBundle::load(bench, variant_label, path).map_err(|e| e.to_string()),
        (None, Some(dir)) => {
            let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
            let hash = registry
                .current()
                .ok_or(
                    "registry has no promoted model; pass --model FILE or run `train --registry`",
                )?
                .to_string();
            let gnn = registry.load(&hash).map_err(|e| e.to_string())?;
            ModelBundle::with_model(bench, variant_label, gnn).map_err(|e| e.to_string())
        }
        (None, None) => {
            Err("missing --model FILE (or --registry DIR with a promoted model)".into())
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use analogfold_suite::model::{Trainer, TrainerConfig};
    use analogfold_suite::serve::{ServeConfig, Server};

    let circuit = parse_circuit(args)?; // validates the name early
    let variant = parse_variant(args, 1);
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:8080");
    let threads = threads_flag(args);
    let registry_dir = flag_value(args, "--registry").map(std::path::PathBuf::from);
    let guard = obs_on(args)?;

    let bundle = load_serve_bundle(
        args,
        circuit.name(),
        variant.label(),
        registry_dir.as_deref(),
    )?;
    let dflt = ServeConfig::default();
    let cfg = ServeConfig {
        addr: addr.to_string(),
        workers: threads,
        job_dir: flag_value(args, "--jobs").map(std::path::PathBuf::from),
        cache_mb: cache_mb_flag(args, dflt.cache_mb),
        registry: registry_dir.clone(),
        canary_fraction: flag_f64(args, "--canary-fraction", dflt.canary_fraction),
        deadline_max_ms: flag_num(args, "--deadline-max-ms", dflt.deadline_max_ms as usize) as u64,
        admission_target_ms: flag_num(
            args,
            "--admission-target-ms",
            dflt.admission_target_ms as usize,
        ) as u64,
        admission_interval_ms: flag_num(
            args,
            "--admission-interval-ms",
            dflt.admission_interval_ms as usize,
        ) as u64,
        fault_key: flag_num(args, "--fault-key", dflt.fault_key as usize) as u64,
        ..dflt
    };
    let job_dir = cfg.resolved_job_dir();

    // The background trainer folds completed `/v1/route` jobs into a
    // growing dataset and registers fine-tuned candidates; the serve
    // registry watcher then canaries them. Promotion stays explicit
    // (`models promote` or POST /v1/models/promote).
    let mut trainer = if has_flag(args, "--train") {
        let dir = registry_dir
            .clone()
            .ok_or("--train requires --registry DIR")?;
        let base = TrainerConfig::new(
            &dir,
            &job_dir,
            dir.join("trainer-data"),
            circuit.name(),
            variant.label(),
        );
        let tcfg = TrainerConfig {
            interval_ms: flag_num(args, "--train-interval-ms", base.interval_ms as usize) as u64,
            min_new_samples: flag_num(args, "--train-min-samples", base.min_new_samples),
            epochs: flag_num(args, "--train-epochs", base.epochs),
            ..base
        };
        Some(Trainer::start(tcfg).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let handle = Server::bind(bundle, cfg).map_err(|e| e.to_string())?;
    println!(
        "serving {}-{variant} at http://{}",
        circuit.name(),
        handle.addr()
    );
    println!(
        "routes: GET /healthz /metrics /v1/jobs/<id> /v1/models; POST /v1/predict /v1/guide /v1/route /v1/models/promote"
    );
    println!(
        "stop with: curl -X POST http://{}/v1/shutdown",
        handle.addr()
    );
    handle.join();
    if let Some(t) = trainer.as_mut() {
        t.shutdown();
    }
    guard.flush();
    Ok(())
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    use analogfold_suite::model::ModelRegistry;

    let action = args
        .first()
        .ok_or("missing models action (list|show|promote|rollback|gc)")?;
    let dir = flag_value(args, "--registry").ok_or("missing --registry DIR")?;
    let mut registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    // Positional hash argument (absent when the next token is a flag).
    let hash_arg = args.get(1).filter(|a| !a.starts_with("--")).cloned();
    match action.as_str() {
        "list" => {
            println!(
                "{:<34}{:<11}{:>8}{:>8}{:>12}  parent",
                "hash", "state", "present", "samples", "eval-mse"
            );
            for e in registry.list() {
                let lineage = &e.lineage;
                println!(
                    "{:<34}{:<11}{:>8}{:>8}{:>12}  {}",
                    e.hash,
                    registry.state(e).label(),
                    if e.present { "yes" } else { "no" },
                    lineage
                        .samples
                        .map_or_else(|| "-".to_string(), |s| s.to_string()),
                    lineage
                        .eval_mse
                        .map_or_else(|| "-".to_string(), |m| format!("{m:.5}")),
                    lineage.parent.as_deref().unwrap_or("-"),
                );
            }
            if let Some(current) = registry.current() {
                println!("current: {current}");
            } else {
                println!("current: (none)");
            }
        }
        "show" => {
            let prefix = hash_arg.ok_or("missing HASH argument to `models show`")?;
            let hash = registry.resolve(&prefix).map_err(|e| e.to_string())?;
            let entry = registry.entry(&hash).ok_or("entry vanished")?;
            println!("hash      : {}", entry.hash);
            println!("state     : {}", registry.state(entry).label());
            println!("present   : {}", entry.present);
            println!("promotions: {}", entry.promotions);
            let l = &entry.lineage;
            println!("parent    : {}", l.parent.as_deref().unwrap_or("-"));
            println!("dataset   : {}", l.dataset_hash.as_deref().unwrap_or("-"));
            for (label, v) in [
                ("seed", l.train_seed),
                ("epochs", l.train_epochs),
                ("samples", l.samples),
            ] {
                println!(
                    "{label:<10}: {}",
                    v.map_or_else(|| "-".to_string(), |n| n.to_string())
                );
            }
            println!(
                "eval-mse  : {}",
                l.eval_mse
                    .map_or_else(|| "-".to_string(), |m| format!("{m:.6}"))
            );
            println!("note      : {}", l.note.as_deref().unwrap_or("-"));
            if let Some(v) = &entry.verdict {
                println!("verdict   : {v}");
            }
        }
        "promote" => {
            let target = match hash_arg {
                Some(h) => h,
                None => registry
                    .latest_candidate()
                    .map(|e| e.hash.clone())
                    .ok_or("no candidate to promote (and no HASH given)")?,
            };
            let previous = registry.current().unwrap_or("-").to_string();
            let hash = registry
                .promote(&target, has_flag(args, "--force"))
                .map_err(|e| e.to_string())?;
            println!("promoted {hash} (previous: {previous})");
        }
        "rollback" => {
            let hash = registry.rollback().map_err(|e| e.to_string())?;
            println!("rolled back to {hash}");
        }
        "gc" => {
            let removed = registry
                .gc(flag_num(args, "--keep", 3))
                .map_err(|e| e.to_string())?;
            if removed.is_empty() {
                println!("nothing to remove");
            } else {
                for hash in &removed {
                    println!("removed {hash}");
                }
            }
        }
        other => return Err(format!("unknown models action `{other}`")),
    }
    Ok(())
}

/// Installs observability with recording always on, honoring any explicit
/// obs flags. Server-style subcommands need this even without flags: their
/// `/metrics` endpoints render from the in-memory registry, so an empty
/// tee sink is installed as the fallback.
fn obs_on(args: &[String]) -> Result<analogfold_suite::obs::ObsGuard, String> {
    Ok(match obs_install(&obs_flags(args))? {
        Some(g) => g,
        None => analogfold_suite::obs::install(std::sync::Arc::new(
            analogfold_suite::obs::TeeSink::new(),
        )),
    })
}

fn cmd_fleet_coord(args: &[String]) -> Result<(), String> {
    use analogfold_suite::fleet::{Coordinator, CoordinatorConfig};

    let guard = obs_on(args)?;
    let handle = Coordinator::bind(CoordinatorConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:8400")
            .to_string(),
        lease_ms: flag_num(args, "--lease-ms", 0) as u64,
        gen: None,
    })
    .map_err(|e| e.to_string())?;
    println!("fleet coordinator at http://{}", handle.addr());
    println!(
        "routes: GET /healthz /metrics /fleet/workers /fleet/status; POST /fleet/register /fleet/heartbeat /fleet/lease /fleet/complete"
    );
    println!(
        "stop with: curl -X POST http://{}/fleet/shutdown",
        handle.addr()
    );
    handle.join();
    guard.flush();
    Ok(())
}

fn cmd_fleet_worker(args: &[String]) -> Result<(), String> {
    use analogfold_suite::fleet::{ModelHooks, WorkerAgent, WorkerCaps, WorkerIdentity};
    use analogfold_suite::model::ModelRegistry;
    use analogfold_suite::serve::{ServeConfig, Server};

    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let coordinator = flag_value(args, "--coordinator")
        .ok_or("missing --coordinator HOST:PORT")?
        .to_string();
    let registry_dir = flag_value(args, "--registry").map(std::path::PathBuf::from);
    let guard = obs_on(args)?;

    let bundle = load_serve_bundle(
        args,
        circuit.name(),
        variant.label(),
        registry_dir.as_deref(),
    )?;
    let model_hash = bundle.model_hash.clone();
    let guidance_len = bundle.guidance_len() as u64;
    let handle = Server::bind(
        bundle,
        ServeConfig {
            addr: flag_value(args, "--addr")
                .unwrap_or("127.0.0.1:0")
                .to_string(),
            workers: threads_flag(args),
            cache_mb: cache_mb_flag(args, ServeConfig::default().cache_mb),
            registry: registry_dir.clone(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let id = flag_value(args, "--id").map_or_else(
        || format!("w{}-{}", std::process::id(), handle.addr().port()),
        str::to_string,
    );
    // Heartbeats report the live resident hash (tracking hot-swaps), and a
    // fleet-wide promotion converges through the shared registry: the
    // promote hook moves the registry's CURRENT pointer, which the serve
    // watcher picks up and swaps without dropping in-flight work.
    let slot = handle.slot();
    let hooks = ModelHooks {
        resident_hash: Some(std::sync::Arc::new(move || slot.get().model_hash.clone())),
        on_promote: registry_dir.map(|dir| {
            std::sync::Arc::new(move |hash: &str| match ModelRegistry::open(&dir) {
                Ok(mut reg) => {
                    if let Err(e) = reg.promote(hash, true) {
                        analogfold_suite::obs::warn(&format!(
                            "fleet promotion of {hash} not applied locally: {e}"
                        ));
                    }
                }
                Err(e) => analogfold_suite::obs::warn(&format!(
                    "fleet promotion of {hash}: cannot open registry: {e}"
                )),
            }) as analogfold_suite::fleet::PromoteFn
        }),
    };
    let agent = WorkerAgent::start_with_hooks(
        &coordinator,
        WorkerIdentity {
            id: id.clone(),
            addr: handle.addr().to_string(),
            caps: WorkerCaps {
                serve: true,
                gen: false,
            },
            model_hash,
            guidance_len,
        },
        hooks,
    );
    println!(
        "fleet worker {id} serving {}-{variant} at http://{} (coordinator {coordinator})",
        circuit.name(),
        handle.addr()
    );
    handle.join();
    agent.stop();
    guard.flush();
    Ok(())
}

fn cmd_fleet_front(args: &[String]) -> Result<(), String> {
    use analogfold_suite::fleet::{Front, FrontConfig};
    use analogfold_suite::guard::{BreakerConfig, HedgeConfig};

    let coordinator = flag_value(args, "--coordinator")
        .ok_or("missing --coordinator HOST:PORT")?
        .to_string();
    let guard = obs_on(args)?;
    let dflt = FrontConfig::default();
    let hedge_dflt = HedgeConfig::default();
    let breaker_dflt = BreakerConfig::default();
    let handle = Front::bind(FrontConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:8401")
            .to_string(),
        coordinator: coordinator.clone(),
        refresh_ms: flag_num(args, "--refresh-ms", 500) as u64,
        deadline_max_ms: flag_num(args, "--deadline-max-ms", dflt.deadline_max_ms as usize) as u64,
        hedge: HedgeConfig {
            enabled: !has_flag(args, "--no-hedge"),
            delay_ms: flag_num(args, "--hedge-delay-ms", hedge_dflt.delay_ms as usize) as u64,
            ..hedge_dflt
        },
        breaker: BreakerConfig {
            open_ms: flag_num(args, "--breaker-open-ms", breaker_dflt.open_ms as usize) as u64,
            slow_ms: flag_num(args, "--breaker-slow-ms", breaker_dflt.slow_ms as usize) as u64,
            ..breaker_dflt
        },
        breaker_enabled: !has_flag(args, "--no-breaker"),
    })
    .map_err(|e| e.to_string())?;
    println!(
        "fleet front at http://{} (coordinator {coordinator}, {} workers)",
        handle.addr(),
        handle.worker_count()
    );
    println!(
        "stop with: curl -X POST http://{}/v1/shutdown",
        handle.addr()
    );
    handle.join();
    guard.flush();
    Ok(())
}

fn cmd_fleet_gen(args: &[String]) -> Result<(), String> {
    use analogfold_suite::fleet::{
        run_gen_worker, spec_config, spec_design, Coordinator, CoordinatorConfig, GenSpec,
        WorkerAgent, WorkerCaps, WorkerIdentity,
    };

    let guard = obs_on(args)?;

    // Join mode: this process is a pure gen worker attached to an external
    // coordinator. It leases shards until the job finishes, then exits —
    // killing it mid-shard is safe (the lease expires and re-assigns).
    if let Some(coordinator) = flag_value(args, "--join") {
        let id = flag_value(args, "--id")
            .map_or_else(|| format!("gen{}", std::process::id()), str::to_string);
        let agent = WorkerAgent::start(
            coordinator,
            WorkerIdentity {
                id: id.clone(),
                addr: String::new(),
                caps: WorkerCaps {
                    serve: false,
                    gen: true,
                },
                model_hash: String::new(),
                guidance_len: 0,
            },
        );
        let summary = run_gen_worker(coordinator, &id, Some(&agent)).map_err(|e| e.to_string())?;
        agent.stop();
        println!(
            "gen worker {id}: {} shards computed ({} samples), {} found on disk",
            summary.shards_computed, summary.samples, summary.shards_skipped
        );
        guard.flush();
        return Ok(());
    }

    // Coordinator mode: own the job, run local worker threads, accept
    // external joiners, assemble when every shard is in.
    let circuit = parse_circuit(args)?;
    let variant = parse_variant(args, 1);
    let checkpoint = flag_value(args, "--checkpoint").ok_or("missing --checkpoint DIR")?;
    let dflt = DatasetConfig::default();
    let spec = GenSpec {
        bench: circuit.name().to_string(),
        variant: variant.label().to_string(),
        samples: flag_num(args, "--samples", 24) as u64,
        shard_size: flag_num(args, "--shard-size", 4) as u64,
        seed: flag_num(args, "--seed", dflt.seed as usize) as u64,
        c_low: dflt.c_low,
        c_high: dflt.c_high,
        checkpoint: checkpoint.to_string(),
        threads: threads_flag(args) as u64,
        cache_mb: cache_mb_flag(args, dflt.cache_mb),
    };
    let workers = flag_num(args, "--workers", 2);
    let coord = Coordinator::bind(CoordinatorConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        lease_ms: flag_num(args, "--lease-ms", 0) as u64,
        gen: Some(spec.clone()),
    })
    .map_err(|e| e.to_string())?;
    let coord_addr = coord.addr().to_string();
    println!(
        "fleet gen coordinator at http://{coord_addr} ({} samples, shard size {}, {workers} local workers)",
        spec.samples, spec.shard_size
    );

    let local: Vec<_> = (0..workers)
        .map(|i| {
            let coord_addr = coord_addr.clone();
            std::thread::spawn(move || {
                let id = format!("gen{}-{i}", std::process::id());
                let agent = WorkerAgent::start(
                    &coord_addr,
                    WorkerIdentity {
                        id: id.clone(),
                        addr: String::new(),
                        caps: WorkerCaps {
                            serve: false,
                            gen: true,
                        },
                        model_hash: String::new(),
                        guidance_len: 0,
                    },
                );
                let result = run_gen_worker(&coord_addr, &id, Some(&agent));
                agent.stop();
                (id, result)
            })
        })
        .collect();
    coord.wait_gen_done(std::time::Duration::from_millis(50));
    for t in local {
        match t.join() {
            Ok((id, Ok(s))) => println!(
                "  {id}: {} shards computed ({} samples), {} found on disk",
                s.shards_computed, s.samples, s.shards_skipped
            ),
            Ok((id, Err(e))) => eprintln!("  {id} failed: {e}"),
            Err(_) => eprintln!("  local gen worker panicked"),
        }
    }
    coord.shutdown();
    coord.join();

    let dcfg = spec_config(&spec).map_err(|e| e.to_string())?;
    let design = spec_design(&spec).map_err(|e| e.to_string())?;
    let store = analogfold_suite::analogfold::ShardStore::new(checkpoint);
    let dataset = analogfold_suite::analogfold::assemble_dataset(&store, &dcfg, &design.graph)
        .map_err(|e| e.to_string())?
        .ok_or("job reported done but checkpoint shards are incomplete")?;
    println!("dataset assembled: {} samples", dataset.samples.len());
    if let Some(out) = flag_value(args, "--out") {
        let json = serde_json::to_string(&dataset).map_err(|e| e.to_string())?;
        fs::write(out, json).map_err(|e| e.to_string())?;
        println!("dataset written to {out}");
    }
    guard.flush();
    Ok(())
}

fn cmd_bench_info() {
    println!(
        "{:<10}{:>7}{:>7}{:>6}{:>6}{:>7}{:>7}{:>9}",
        "bench", "PMOS", "NMOS", "Cap", "Res", "Total", "nets", "sym-pairs"
    );
    for c in benchmarks::all() {
        println!(
            "{:<10}{:>7}{:>7}{:>6}{:>6}{:>7}{:>7}{:>9}",
            c.name(),
            c.count_kind(DeviceKind::Pmos),
            c.count_kind(DeviceKind::Nmos),
            c.count_kind(DeviceKind::Capacitor),
            c.count_kind(DeviceKind::Resistor),
            c.total_modules(),
            c.nets().len(),
            c.symmetric_net_pairs().len()
        );
    }
}
