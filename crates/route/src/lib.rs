#![warn(missing_docs)]
//! 3-D grid analog detailed routing for the AnalogFold reproduction.
//!
//! This crate is the substitute for the MAGICAL detailed router the paper
//! builds on ("MagicalRoute", Chen et al. ICCAD'20): a gridded multi-layer
//! maze router with
//!
//! * per-layer preferred directions and via costs,
//! * **symmetric-net-pair routing** — the route of one net is mirrored across
//!   the placement's symmetry axis onto its partner,
//! * **constraint-aware iterative routing** — negotiated rip-up/re-route with
//!   history costs until no two nets share routing resources,
//! * **routing-guidance hooks** — the paper's non-uniform per-pin-access-point
//!   cost triples ([`RoutingGuidance::NonUniform`]) and the uniform 2-D cost
//!   maps of GeniusRoute ([`RoutingGuidance::Map`]) both plug into the cost
//!   function as directional penalties,
//! * post-processing (stub pruning) and a DRC/connectivity checker.
//!
//! Routing without guidance *is* the MagicalRoute baseline; routing with a
//! guidance field is the paper's guided analog detailed routing (Problem 3).
//!
//! # Examples
//!
//! ```
//! use af_netlist::benchmarks;
//! use af_place::{place, PlacementVariant};
//! use af_route::{Router, RouterConfig, RoutingGuidance};
//! use af_tech::Technology;
//!
//! let circuit = benchmarks::ota1();
//! let placement = place(&circuit, PlacementVariant::A);
//! let tech = Technology::nm40();
//! let router = Router::new(RouterConfig::default()).unwrap();
//! let routed = router
//!     .route(&circuit, &placement, &tech, &RoutingGuidance::None)
//!     .unwrap();
//! assert!(routed.total_wirelength() > 0);
//! ```

mod access;
mod astar;
mod congestion;
mod def;
mod drc;
mod grid;
mod guidance;
mod post;
mod router;
mod svg;

pub use access::{AccessPoint, PinAccessMap};
pub use congestion::{estimate_congestion, measure_congestion, CongestionMap};
pub use def::{parse_def, write_def, DefParseError};
pub use drc::{check_layout, Violation, ViolationKind};
pub use grid::RoutingGrid;
pub use guidance::{GuidanceMap2D, NonUniformGuidance, RoutingGuidance};
#[allow(deprecated)]
pub use router::route;
pub use router::{
    OpenListKind, RouteConfigError, RouteError, Router, RouterConfig, RouterConfigBuilder,
};
pub use svg::render_svg;

use serde::{Deserialize, Serialize};

use af_geom::Segment;
use af_netlist::NetId;

/// The routed geometry of a single net.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedNet {
    /// The net this route belongs to.
    pub net: NetId,
    /// Planar wire segments and vias in dbu coordinates.
    pub segments: Vec<Segment>,
    /// Number of via cuts.
    pub vias: u32,
    /// Total planar wirelength in dbu.
    pub wirelength: i64,
}

impl RoutedNet {
    /// Creates a routed net record from raw segments.
    pub fn from_segments(net: NetId, segments: Vec<Segment>) -> Self {
        let vias = segments.iter().filter(|s| s.is_via()).count() as u32;
        let wirelength = segments
            .iter()
            .filter(|s| !s.is_via())
            .map(|s| s.length())
            .sum();
        Self {
            net,
            segments,
            vias,
            wirelength,
        }
    }
}

/// A complete routing solution for one placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedLayout {
    /// Per-net routes, in net-id order for routed nets.
    pub nets: Vec<RoutedNet>,
    /// Rip-up/re-route iterations used.
    pub iterations: u32,
    /// Number of resource conflicts remaining (0 for a clean solution).
    pub conflicts: u32,
    /// Wall-clock routing time in seconds.
    pub runtime_s: f64,
}

impl RoutedLayout {
    /// Route of a specific net, if it was routed.
    pub fn net(&self, id: NetId) -> Option<&RoutedNet> {
        self.nets.iter().find(|n| n.net == id)
    }

    /// Sum of planar wirelength over all nets, dbu.
    pub fn total_wirelength(&self) -> i64 {
        self.nets.iter().map(|n| n.wirelength).sum()
    }

    /// Total via count.
    pub fn total_vias(&self) -> u32 {
        self.nets.iter().map(|n| n.vias).sum()
    }

    /// Whether the solution has no remaining conflicts.
    pub fn is_clean(&self) -> bool {
        self.conflicts == 0
    }

    /// Renders a human-readable per-net summary table.
    pub fn report(&self, circuit: &af_netlist::Circuit) -> String {
        use af_obs::fmt::{Cell, Table};
        let t = Table::new(12).col(12).col(8).col(10);
        let mut out = t.header("net", &["wire(um)", "vias", "segments"]);
        out.push('\n');
        let mut nets: Vec<&RoutedNet> = self.nets.iter().collect();
        nets.sort_by_key(|rn| std::cmp::Reverse(rn.wirelength));
        for rn in nets {
            out.push_str(&t.row(
                &circuit.net(rn.net).name,
                &[
                    Cell::Float(rn.wirelength as f64 / 1e3, 2),
                    Cell::Int(i64::from(rn.vias)),
                    Cell::Int(rn.segments.len() as i64),
                ],
            ));
            out.push('\n');
        }
        out.push_str(&t.row(
            "TOTAL",
            &[
                Cell::Float(self.total_wirelength() as f64 / 1e3, 2),
                Cell::Int(i64::from(self.total_vias())),
            ],
        ));
        out.push('\n');
        out
    }

    /// Planar wirelength per metal layer, indexed by layer (dbu).
    pub fn wirelength_by_layer(&self, num_layers: u8) -> Vec<i64> {
        let mut out = vec![0i64; num_layers as usize];
        for rn in &self.nets {
            for s in rn.segments.iter().filter(|s| !s.is_via()) {
                if let Some(slot) = out.get_mut(s.layer() as usize) {
                    *slot += s.length();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_geom::Point3;

    #[test]
    fn routed_net_statistics() {
        let segs = vec![
            Segment::new(Point3::new(0, 0, 0), Point3::new(100, 0, 0)).unwrap(),
            Segment::new(Point3::new(100, 0, 0), Point3::new(100, 0, 1)).unwrap(),
            Segment::new(Point3::new(100, 0, 1), Point3::new(100, 50, 1)).unwrap(),
        ];
        let rn = RoutedNet::from_segments(NetId::new(0), segs);
        assert_eq!(rn.vias, 1);
        assert_eq!(rn.wirelength, 150);
    }

    #[test]
    fn layout_totals() {
        let a = RoutedNet::from_segments(
            NetId::new(0),
            vec![Segment::new(Point3::new(0, 0, 0), Point3::new(10, 0, 0)).unwrap()],
        );
        let b = RoutedNet::from_segments(
            NetId::new(1),
            vec![Segment::new(Point3::new(0, 5, 1), Point3::new(0, 25, 1)).unwrap()],
        );
        let layout = RoutedLayout {
            nets: vec![a, b],
            iterations: 1,
            conflicts: 0,
            runtime_s: 0.0,
        };
        assert_eq!(layout.total_wirelength(), 30);
        assert_eq!(layout.total_vias(), 0);
        assert!(layout.is_clean());
        assert!(layout.net(NetId::new(1)).is_some());
        assert!(layout.net(NetId::new(9)).is_none());
        let by_layer = layout.wirelength_by_layer(4);
        assert_eq!(by_layer, vec![10, 20, 0, 0]);
        assert_eq!(by_layer.iter().sum::<i64>(), layout.total_wirelength());
    }
}
