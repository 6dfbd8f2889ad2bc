//! `flow-quick`: the full `AnalogFoldFlow::run` on OTA1-A and OTA3-A at
//! quick scale, one flow at a time.

use std::time::Instant;

use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::RouterConfig;
use af_sim::{Performance, SimConfig};
use af_tech::Technology;
use analogfold::{magical_route, AnalogFoldFlow, FlowConfig, FlowOutcome};

use crate::gen::derive;
use crate::stats::median;
use crate::{fom_gain_pct, metric, trace, Run, Workload};

/// Table 2 rows the workload routes (15 and 20 nets).
const ROWS: [&str; 2] = ["OTA1", "OTA3"];
/// Flows per row the untraced phase runs at least, so every row repeats
/// and the repeat can be compared bit for bit. The traced phase of a traced
/// run makes at least one.
const MIN_RUNS: usize = 2;

struct Row {
    circuit: Circuit,
    placement: Placement,
    baseline: Performance,
}

pub struct FlowQuick {
    tech: Technology,
    rows: Vec<Row>,
}

/// Places every row and routes its unguided baseline.
pub fn setup() -> FlowQuick {
    let tech = Technology::nm40();
    let rows = ROWS
        .iter()
        .map(|&name| {
            let circuit = benchmarks::by_name(name).expect("bundled benchmark");
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
            .expect("the bundled rows route unguided");
            Row {
                circuit,
                placement,
                baseline,
            }
        })
        .collect();
    FlowQuick { tech, rows }
}

/// Seed of the training samples each row's dataset generation draws.
const DATASET_SEED: u64 = 1;

/// Quick scale: 12 samples, 10 epochs, 6 restarts, 3 candidates, at the
/// program's default thread settings. The workload seed picks the model's
/// initialization and the relaxation restarts; the training samples are the
/// same in every run. Dataset generation is ~80% of a flow and how long it
/// routes depends on which samples are drawn: with samples drawn per seed,
/// flow time differed by 37% between seeds for identical code.
fn config(seed: u64, row: u64, tech: &Technology) -> FlowConfig {
    let mut cfg = FlowConfig::builder()
        .tech(tech.clone())
        .samples(12)
        .epochs(10)
        .restarts(6)
        .n_derive(3)
        .seed(derive(seed, row))
        .build()
        .expect("quick-scale flow configuration is valid");
    cfg.dataset.seed = derive(DATASET_SEED, row);
    cfg
}

/// Everything about a flow result that must repeat exactly (the layout's
/// wall-clock `runtime_s` is left out).
fn fingerprint(out: &FlowOutcome) -> String {
    let bits = |v: &[f64]| {
        v.iter()
            .map(|x| x.to_bits().to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{:?}|{}|{}|{}|{}",
        out.layout.nets,
        out.layout.iterations,
        out.layout.conflicts,
        bits(&out.performance.as_array()),
        bits(&out.guidance)
    )
}

impl Workload for FlowQuick {
    fn fingerprint(&self) -> String {
        let perf: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{:?}", r.baseline))
            .collect();
        perf.join("|")
    }

    /// Runs the rows in turn, one flow at a time, and times each flow on its
    /// own. `p50_ms` is the time to run every row once: the sum over rows of
    /// each row's median flow time, so a slow moment of the host moves one
    /// sample of one row rather than a whole pass.
    fn measure(&mut self, seed: u64, phase: u64, seconds: f64) -> Run {
        let mut run = Run::default();
        let n = self.rows.len();
        let mut row_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut first: Vec<Option<String>> = vec![None; n];
        let mut gains = Vec::new();
        let start = Instant::now();
        let min_runs = if phase == 0 { MIN_RUNS } else { 1 };
        // Another flow starts only if it should end less than half a flow
        // past `seconds`, which bounds a run on a slow host.
        let more = |k: usize, row_ms: &[Vec<f64>]| {
            let last_s = row_ms[k % n].last().map_or(0.0, |ms| ms / 1e3);
            k < min_runs * n || start.elapsed().as_secs_f64() + last_s / 2.0 < seconds
        };
        let mut k = 0;
        while more(k, &row_ms) {
            let i = k % n;
            k += 1;
            let row = &self.rows[i];
            run.attempted += 1;
            let flow = AnalogFoldFlow::new(config(seed, i as u64, &self.tech));
            let flow_start = Instant::now();
            let result = trace::wrap("AnalogFoldFlow::run", None, || {
                flow.run(&row.circuit, &row.placement)
            });
            let elapsed_ms = flow_start.elapsed().as_secs_f64() * 1e3;
            let name = format!("{}-A", row.circuit.name());
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    run.failed += 1;
                    run.check(format!("{name} flow runs ({e})"), false);
                    continue;
                }
            };
            row_ms[i].push(elapsed_ms);
            let perf_finite = out.performance.as_array().iter().all(|v| v.is_finite());
            let ok = out.layout.conflicts == 0 && perf_finite && !out.guidance.is_empty();
            if !ok {
                run.failed += 1;
            }
            run.check(
                format!("{name} conflict-free, finite, guided (no unguided fallback)"),
                ok,
            );
            let fp = fingerprint(&out);
            match &first[i] {
                None => {
                    first[i] = Some(fp);
                    gains.push(fom_gain_pct(&out.performance, &row.baseline));
                }
                Some(prev) => run.check(format!("{name} repeat is bit-identical"), *prev == fp),
            }
        }
        let flow_ms: f64 = row_ms.iter().map(|v| median(v)).sum();
        let fom_gain = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
        let per_row: Vec<String> = self
            .rows
            .iter()
            .zip(&row_ms)
            .map(|(row, v)| format!("{}-A {v:.0?}", row.circuit.name()))
            .collect();
        run.primary_note = format!(
            "sum over rows of each row's median flow time (ms): {}",
            per_row.join(", ")
        );
        run.named.push(metric("flow_s", flow_ms / 1e3, "s"));
        run.named.push(
            metric("fom_gain", fom_gain, "%")
                .note("mean over rows and the five Table 2 metrics vs unguided".into()),
        );
        run.fom_gain_pct = Some(fom_gain);
        run.primary_ms = vec![flow_ms];
        run
    }
}
