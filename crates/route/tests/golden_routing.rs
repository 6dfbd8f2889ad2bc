//! Golden routing fingerprints: the router's exactness contract.
//!
//! Kernel optimizations must keep the same pop order, float expressions and
//! tie-breaks, so every layout and every expansion count stays bit-identical.
//! This test pins both for OTA1-A and OTA3-A, routed unguided and under two
//! seeded dataset-style `NonUniform` guidance samples (one log-uniform
//! `[0.4, 2.2]` triple per guided access point). Every pinned layout must
//! also be conflict-free and pass `check_layout` with no violation of any
//! kind.
//!
//! A mismatch means the router's search changed: if that is intended,
//! re-record the table from the failure messages and say why in the change.

use std::sync::{Arc, Mutex};

use af_geom::CostTriple;
use af_netlist::{benchmarks, Circuit};
use af_place::{place, Placement, PlacementVariant};
use af_route::{
    check_layout, NonUniformGuidance, OpenListKind, PinAccessMap, RoutedLayout, Router,
    RouterConfig, RoutingGrid, RoutingGuidance,
};
use af_tech::Technology;

/// `(design, guidance seed or None for unguided, layout fingerprint,
/// route.astar_expansions)`.
const GOLDEN: &[(&str, Option<u64>, u64, u64)] = &[
    ("OTA1", None, 0x9578_27d9_8372_ae61, 71_572),
    ("OTA1", Some(1), 0x7f26_567e_ab27_df50, 191_500),
    ("OTA1", Some(2), 0xedd2_3a7b_9e1d_3675, 319_723),
    ("OTA3", None, 0xc625_cbc8_527a_9c7a, 468_052),
    ("OTA3", Some(1), 0x6162_a84b_0cfe_264a, 951_764),
    ("OTA3", Some(2), 0xfde6_e1e1_2b82_72d3, 1_053_487),
];

/// The same contract for the non-default engines on OTA1-A:
/// the binary-heap open list, and the bidirectional two-pin search (which
/// only engages with the weak `guidance_aware_h = false` heuristic).
const GOLDEN_ENGINES: &[(Engine, Option<u64>, u64, u64)] = &[
    (Engine::Heap, None, 0xb5c5_110b_73dc_87e4, 71_539),
    (Engine::Heap, Some(1), 0x7f26_567e_ab27_df50, 191_396),
    (Engine::Bidir, None, 0x5fa4_f2d5_810b_e52a, 1_448_232),
    (Engine::Bidir, Some(1), 0x77a7_ad95_fd8e_b8e8, 1_528_226),
];

#[derive(Debug, Clone, Copy)]
enum Engine {
    Default,
    Heap,
    Bidir,
}

impl Engine {
    fn config(self) -> RouterConfig {
        let b = RouterConfig::builder();
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
/// plus the `route.astar_expansions` total.
fn route_traced(
    circuit: &Circuit,
    placement: &Placement,
    guidance: &RoutingGuidance,
    cfg: RouterConfig,
) -> (RoutedLayout, u64) {
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
    (layout, expansions)
}

/// Routes `design` under `engine` and reports a mismatch against the
/// pinned `(fingerprint, expansions)`, and every violation the layout
/// checker finds.
fn check(
    design: &str,
    engine: Engine,
    seed: Option<u64>,
    pinned: (u64, u64),
    failures: &mut Vec<String>,
) {
    let circuit = benchmarks::by_name(design).expect("known design");
    let placement = place(&circuit, PlacementVariant::A);
    let guidance = match seed {
        None => RoutingGuidance::None,
        Some(s) => dataset_guidance(&circuit, &placement, s),
    };
    let (layout, exp) = route_traced(&circuit, &placement, &guidance, engine.config());
    let fp = fingerprint(&layout);
    if (fp, exp) != pinned {
        failures.push(format!(
            "{design} {engine:?} seed {seed:?}: got ({fp:#018x}, {exp}), pinned ({:#018x}, {})",
            pinned.0, pinned.1
        ));
    }
    if layout.conflicts != 0 {
        failures.push(format!(
            "{design} {engine:?} seed {seed:?}: {} conflicts",
            layout.conflicts
        ));
    }
    for v in check_layout(&circuit, &placement, &Technology::nm40(), &layout) {
        failures.push(format!(
            "{design} {engine:?} seed {seed:?}: {} violation: {}",
            v.kind, v.detail
        ));
    }
}

#[test]
fn layouts_and_expansions_match_golden() {
    let mut failures = Vec::new();
    for &(design, seed, fp, exp) in GOLDEN {
        check(design, Engine::Default, seed, (fp, exp), &mut failures);
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
        check("OTA1", engine, seed, (fp, exp), &mut failures);
    }
    assert!(
        failures.is_empty(),
        "golden mismatch:\n{}",
        failures.join("\n")
    );
}
