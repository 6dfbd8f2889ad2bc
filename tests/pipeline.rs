//! Integration: the full netlist → placement → routing → extraction →
//! simulation pipeline across every benchmark.

use analogfold_suite::extract::extract;
use analogfold_suite::netlist::benchmarks;
use analogfold_suite::place::{place, PlacementVariant};
use analogfold_suite::route::{check_layout, Router, RouterConfig, RoutingGuidance};
use analogfold_suite::sim::{simulate, SimConfig};
use analogfold_suite::tech::Technology;

#[test]
fn all_benchmarks_route_extract_simulate() {
    let tech = Technology::nm40();
    let sim_cfg = SimConfig::default();
    for circuit in benchmarks::all() {
        let placement = place(&circuit, PlacementVariant::A);
        placement.check(&circuit).expect("legal placement");
        let layout = Router::new(RouterConfig::default())
            .unwrap()
            .route(&circuit, &placement, &tech, &RoutingGuidance::None)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        assert!(
            layout.conflicts <= 2,
            "{}: {} conflicts",
            circuit.name(),
            layout.conflicts
        );

        let parasitics = extract(&circuit, &tech, &layout);
        assert!(
            parasitics.nets().iter().any(|n| n.resistance > 0.0),
            "{}: no extracted resistance",
            circuit.name()
        );

        let schematic = simulate(&circuit, None, &sim_cfg).expect("schematic sim");
        let post = simulate(&circuit, Some(&parasitics), &sim_cfg).expect("post-layout sim");

        // physics sanity: parasitics can only hurt gain/bandwidth and create
        // offset
        assert!(
            post.dc_gain_db <= schematic.dc_gain_db + 0.5,
            "{}",
            circuit.name()
        );
        // Coupling capacitance can create high-frequency feedthrough that
        // extends the unity crossing past the schematic value (a real
        // measurement artifact), so the bound is loose on the high side.
        assert!(
            post.bandwidth_mhz <= schematic.bandwidth_mhz * 1.5,
            "{}: BW {} vs {}",
            circuit.name(),
            post.bandwidth_mhz,
            schematic.bandwidth_mhz
        );
        assert_eq!(schematic.offset_uv, 0.0);
        assert!(
            post.offset_uv > 0.0,
            "{}: routing must create offset",
            circuit.name()
        );
        assert!(post.cmrr_db <= schematic.cmrr_db, "{}", circuit.name());
    }
}

/// Every placement variant routes to a layout with no violation of any
/// kind: shorts, spacing, opens or out-of-bounds geometry.
#[test]
fn no_hard_drc_violations_on_any_variant() {
    let tech = Technology::nm40();
    let circuit = benchmarks::ota2();
    for variant in PlacementVariant::ALL {
        let placement = place(&circuit, variant);
        let layout = Router::new(RouterConfig::default())
            .unwrap()
            .route(&circuit, &placement, &tech, &RoutingGuidance::None)
            .unwrap();
        let violations = check_layout(&circuit, &placement, &tech, &layout);
        assert!(violations.is_empty(), "{variant}: {violations:?}");
    }
}

#[test]
fn schematic_metric_relations_between_designs() {
    let cfg = SimConfig::default();
    let p1 = simulate(&benchmarks::ota1(), None, &cfg).unwrap();
    let p2 = simulate(&benchmarks::ota2(), None, &cfg).unwrap();
    let p3 = simulate(&benchmarks::ota3(), None, &cfg).unwrap();
    let p4 = simulate(&benchmarks::ota4(), None, &cfg).unwrap();
    // Table 2 schematic column orderings the benchmarks are designed to show
    assert!(p1.cmrr_db > p2.cmrr_db, "OTA1 vs OTA2 CMRR");
    assert!(p1.dc_gain_db > p2.dc_gain_db, "OTA1 vs OTA2 gain");
    assert!(p3.bandwidth_mhz > p1.bandwidth_mhz, "telescopic is faster");
    assert!(
        p4.bandwidth_mhz > p3.bandwidth_mhz * 0.8,
        "OTA4 comparable/faster"
    );
}

#[test]
fn placements_differ_and_affect_metrics() {
    let tech = Technology::nm40();
    let circuit = benchmarks::ota1();
    let cfg = SimConfig::default();
    let mut offsets = Vec::new();
    for variant in [
        PlacementVariant::A,
        PlacementVariant::B,
        PlacementVariant::C,
    ] {
        let placement = place(&circuit, variant);
        let layout = Router::new(RouterConfig::default())
            .unwrap()
            .route(&circuit, &placement, &tech, &RoutingGuidance::None)
            .unwrap();
        let px = extract(&circuit, &tech, &layout);
        let perf = simulate(&circuit, Some(&px), &cfg).unwrap();
        offsets.push(perf.offset_uv);
    }
    assert!(
        offsets.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6),
        "different placements must yield different offsets: {offsets:?}"
    );
}
