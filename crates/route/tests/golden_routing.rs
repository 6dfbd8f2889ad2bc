//! Golden routing fingerprints: the A* kernel's exactness contract.
//!
//! Kernel optimizations must keep the same pop order, float expressions and
//! tie-breaks, so every layout and every expansion count stays bit-identical.
//! This test pins both for OTA1-A and OTA3-A, routed unguided and under two
//! seeded dataset-style `NonUniform` guidance samples (one log-uniform
//! `[0.4, 2.2]` triple per guided access point), at 1 and 4 router threads.
//!
//! The pinned values were recorded before the dense-overlay kernel landed.
//! A mismatch means the router's search changed: if that is intended,
//! re-record the table from the failure messages and say why in the change.

use std::sync::{Arc, Mutex};

use af_geom::CostTriple;
use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::{
    NonUniformGuidance, OpenListKind, PinAccessMap, RoutedLayout, Router, RouterConfig,
    RoutingGrid, RoutingGuidance,
};
use af_tech::Technology;

/// `(design, guidance seed or None for unguided, layout fingerprint,
/// route.astar_expansions)`.
const GOLDEN: &[(&str, Option<u64>, u64, u64)] = &[
    ("OTA1", None, 0xa4c5_d0de_a9cb_5557, 231_411),
    ("OTA1", Some(1), 0x31cb_c30b_4693_4e27, 555_000),
    ("OTA1", Some(2), 0xefd7_4722_1081_e32a, 639_260),
    ("OTA3", None, 0xb9de_4c79_0dd6_7224, 1_411_317),
    ("OTA3", Some(1), 0x7b1a_8fae_438d_4b2b, 2_691_860),
    ("OTA3", Some(2), 0x0cba_187d_2adb_f18c, 2_197_976),
];

/// The same contract for the non-default engines on OTA1-A at one thread:
/// the binary-heap open list, and the bidirectional two-pin search (which
/// only engages with the weak `guidance_aware_h = false` heuristic).
const GOLDEN_ENGINES: &[(Engine, Option<u64>, u64, u64)] = &[
    (Engine::Heap, None, 0xaa23_fc54_88ae_4e46, 260_191),
    (Engine::Heap, Some(1), 0x6ba5_f4ac_e3f5_8463, 685_809),
    (Engine::Bidir, None, 0x2189_0286_deee_f996, 3_179_470),
    (Engine::Bidir, Some(1), 0x737f_9ec4_0ef4_ca4b, 3_633_135),
];

#[derive(Debug, Clone, Copy)]
enum Engine {
    Default,
    Heap,
    Bidir,
}

impl Engine {
    fn config(self, threads: usize) -> RouterConfig {
        let b = RouterConfig::builder().threads(threads);
        match self {
            Engine::Default => b,
            Engine::Heap => b.open_list(OpenListKind::Heap),
            Engine::Bidir => b.guidance_aware_h(false),
        }
        .build()
        .unwrap()
    }
}

/// The obs registry is process-global: one routing run records at a time.
static OBS: Mutex<()> = Mutex::new(());

/// SplitMix64: a tiny seeded generator, enough for reproducible samples.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One dataset-style guidance sample: a log-uniform `[0.4, 2.2]` triple per
/// access point of every guided net.
fn dataset_guidance(circuit: &Circuit, placement: &Placement, seed: u64) -> RoutingGuidance {
    let tech = Technology::nm40();
    let mut grid = RoutingGrid::new(circuit, placement, &tech, RouterConfig::default().coarsen);
    let aps = PinAccessMap::extract(circuit, placement, &mut grid);
    let (lo, hi) = (0.4_f64.ln(), 2.2_f64.ln());
    let mut rng = SplitMix(seed);
    let mut field = NonUniformGuidance::new();
    for net in circuit.guided_nets() {
        for ap in aps.of_net(net) {
            let mut c = [0.0; 3];
            for v in &mut c {
                *v = (lo + rng.next_f64() * (hi - lo)).exp();
            }
            field.set(net, ap.dbu, CostTriple(c));
        }
    }
    RoutingGuidance::NonUniform(field)
}

/// FNV-1a over the layout's nets, iterations and conflicts (never the
/// wall-clock `runtime_s`).
fn fingerprint(layout: &RoutedLayout) -> u64 {
    let text = format!(
        "{:?}|{}|{}",
        layout.nets, layout.iterations, layout.conflicts
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Routes once with an af-obs memory sink installed and returns the layout
/// fingerprint plus the `route.astar_expansions` total.
fn route_traced(
    circuit: &Circuit,
    placement: &Placement,
    guidance: &RoutingGuidance,
    cfg: RouterConfig,
) -> (u64, u64) {
    let _lock = OBS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let router = Router::new(cfg).unwrap();
    let sink = Arc::new(af_obs::MemorySink::new());
    let guard = af_obs::install(sink.clone());
    let layout = router
        .route(circuit, placement, &Technology::nm40(), guidance)
        .expect("bundled designs route");
    drop(guard);
    let expansions = sink
        .events()
        .iter()
        .find_map(|e| match e {
            af_obs::Event::Counter { name, value, .. } if name == "route.astar_expansions" => {
                Some(*value)
            }
            _ => None,
        })
        .expect("router records route.astar_expansions");
    (fingerprint(&layout), expansions)
}

/// Routes `design` under `engine` at each thread count and reports every
/// mismatch against the pinned `(fingerprint, expansions)`.
fn check(
    design: &str,
    engine: Engine,
    seed: Option<u64>,
    pinned: (u64, u64),
    threads: &[usize],
    failures: &mut Vec<String>,
) {
    let circuit = benchmarks::by_name(design).expect("known design");
    let placement = place(&circuit, PlacementVariant::A);
    let guidance = match seed {
        None => RoutingGuidance::None,
        Some(s) => dataset_guidance(&circuit, &placement, s),
    };
    for &t in threads {
        let (fp, exp) = route_traced(&circuit, &placement, &guidance, engine.config(t));
        if (fp, exp) != pinned {
            failures.push(format!(
                "{design} {engine:?} seed {seed:?} at {t} thread(s): got ({fp:#018x}, {exp}), \
                 pinned ({:#018x}, {})",
                pinned.0, pinned.1
            ));
        }
    }
}

#[test]
fn layouts_and_expansions_match_golden() {
    let mut failures = Vec::new();
    for &(design, seed, fp, exp) in GOLDEN {
        check(
            design,
            Engine::Default,
            seed,
            (fp, exp),
            &[1, 4],
            &mut failures,
        );
    }
    assert!(
        failures.is_empty(),
        "golden mismatch:\n{}",
        failures.join("\n")
    );
}

#[test]
fn heap_and_bidirectional_engines_match_golden() {
    let mut failures = Vec::new();
    for &(engine, seed, fp, exp) in GOLDEN_ENGINES {
        check("OTA1", engine, seed, (fp, exp), &[1], &mut failures);
    }
    assert!(
        failures.is_empty(),
        "golden mismatch:\n{}",
        failures.join("\n")
    );
}
