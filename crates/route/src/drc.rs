//! Design-rule and connectivity checking of routed layouts.
//!
//! On a gridded router with one wire per track, same-layer spacing is honored
//! by construction as long as two different nets never occupy the same node;
//! the checker therefore verifies:
//!
//! * **short**: segments of different nets that intersect on the same layer,
//! * **spacing**: parallel runs of different nets closer than the layer's
//!   minimum spacing,
//! * **connectivity**: each net's segments plus pin locations form a single
//!   connected component,
//! * **bounds**: all geometry inside the die.

use std::fmt;

use af_geom::{parallel_run_length, Point3, Rect, Segment};
use af_netlist::{Circuit, NetId};
use af_place::Placement;
use af_tech::Technology;

use crate::RoutedLayout;

/// The kind of a DRC/connectivity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two nets share geometry on the same layer.
    Short,
    /// Two nets run closer than minimum spacing.
    Spacing,
    /// A net's routed geometry is not a single connected component.
    Open,
    /// Geometry escapes the die.
    OutOfBounds,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Short => "short",
            ViolationKind::Spacing => "spacing",
            ViolationKind::Open => "open",
            ViolationKind::OutOfBounds => "out-of-bounds",
        };
        f.write_str(s)
    }
}

/// One violation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Nets involved (one for open/bounds, two for short/spacing).
    pub nets: Vec<NetId>,
    /// Human-readable description.
    pub detail: String,
}

/// Checks a routed layout. Returns all violations found (empty = clean).
pub fn check_layout(
    circuit: &Circuit,
    placement: &Placement,
    tech: &Technology,
    layout: &RoutedLayout,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let die = placement.die();

    // Bounds.
    for rn in &layout.nets {
        for s in &rn.segments {
            for p in [s.start(), s.end()] {
                if !die.contains(af_geom::Point::new(p.x, p.y)) {
                    violations.push(Violation {
                        kind: ViolationKind::OutOfBounds,
                        nets: vec![rn.net],
                        detail: format!("point {p} outside die {die}"),
                    });
                }
            }
        }
    }

    // Shorts & spacing between different nets.
    for (i, a) in layout.nets.iter().enumerate() {
        for b in layout.nets.iter().skip(i + 1) {
            for sa in a.segments.iter().filter(|s| !s.is_via()) {
                for sb in b.segments.iter().filter(|s| !s.is_via()) {
                    if sa.layer() != sb.layer() {
                        continue;
                    }
                    if segments_cross(sa, sb) {
                        violations.push(Violation {
                            kind: ViolationKind::Short,
                            nets: vec![a.net, b.net],
                            detail: format!("{sa} shorts {sb}"),
                        });
                    } else if let Some((run, sep)) = parallel_run_length(sa, sb) {
                        let min = tech.rules().min_spacing(sa.layer());
                        if sep < min && run > 0 {
                            violations.push(Violation {
                                kind: ViolationKind::Spacing,
                                nets: vec![a.net, b.net],
                                detail: format!("separation {sep} < {min} over {run} dbu"),
                            });
                        }
                    }
                }
            }
        }
    }

    // Connectivity per net: segments + pin centers must form one component.
    for rn in &layout.nets {
        let net = rn.net;
        let pins: Vec<Point3> = placement
            .pins_of_net(net)
            .map(|p| {
                let c = p.rect.center();
                Point3::new(c.x, c.y, p.layer)
            })
            .collect();
        if pins.len() < 2 {
            continue;
        }
        if !is_connected(&rn.segments, &pins, tech.grid_pitch() * 4) {
            violations.push(Violation {
                kind: ViolationKind::Open,
                nets: vec![net],
                detail: format!("net `{}` not fully connected", circuit.net(net).name),
            });
        }
    }

    af_obs::counter("route.drc_violations", violations.len() as u64);
    violations
}

/// Whether two same-layer planar segments share a point (touching endpoints
/// count as a short between different nets).
fn segments_cross(a: &Segment, b: &Segment) -> bool {
    let ra = seg_rect(a);
    let rb = seg_rect(b);
    ra.intersects(&rb)
}

fn seg_rect(s: &Segment) -> Rect {
    Rect::from_coords(s.start().x, s.start().y, s.end().x, s.end().y)
}

/// Union-find connectivity: endpoints within `tol` dbu (same layer) merge;
/// vias merge their two layers; pins attach to any segment point within
/// `tol`.
fn is_connected(segments: &[Segment], pins: &[Point3], tol: i64) -> bool {
    // collect nodes: segment endpoints + pins
    let mut points: Vec<Point3> = Vec::new();
    for s in segments {
        points.push(s.start());
        points.push(s.end());
    }
    let first_pin = points.len();
    points.extend_from_slice(pins);
    let n = points.len();
    if n == 0 {
        return true;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    };
    // segment endpoints are connected through the segment
    for (si, _) in segments.iter().enumerate() {
        union(&mut parent, 2 * si, 2 * si + 1);
    }
    // merge coincident/near points; pins connect to interior points too
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (points[i], points[j]);
            let near =
                a.xy().manhattan(b.xy()) <= tol && (a.z == b.z || is_via_pair(segments, i, j));
            if near {
                union(&mut parent, i, j);
            }
        }
    }
    // a segment endpoint may land mid-span on another segment of the net
    // (a T-junction, how tree growth joins a net)
    for (end, p) in points[..first_pin].iter().enumerate() {
        for (sj, s) in segments.iter().enumerate() {
            if end / 2 != sj && point_on_segment(p, s, tol) {
                union(&mut parent, end, 2 * sj);
            }
        }
    }
    // pins may touch a segment midspan: connect pin to segment if the pin
    // projects onto the segment's track within tol
    for (pi, p) in pins.iter().enumerate() {
        for (si, s) in segments.iter().enumerate() {
            if point_on_segment(p, s, tol) {
                union(&mut parent, first_pin + pi, 2 * si);
            }
        }
    }
    let root = find(&mut parent, first_pin);
    (first_pin..n).all(|i| find(&mut parent, i) == root)
}

fn is_via_pair(_segments: &[Segment], _i: usize, _j: usize) -> bool {
    // endpoints of vias are stored as Point3 on distinct layers; they merge
    // through the via segment itself (same segment union), so cross-layer
    // point merging is unnecessary here.
    false
}

fn point_on_segment(p: &Point3, s: &Segment, tol: i64) -> bool {
    if s.is_via() {
        return (p.z == s.start().z || p.z == s.end().z) && p.xy().manhattan(s.start().xy()) <= tol;
    }
    if p.z != s.layer() {
        return false;
    }
    let r = seg_rect(s).expanded(tol);
    r.contains(p.xy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Router, RouterConfig, RoutingGuidance};
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};

    #[test]
    fn clean_routing_passes_drc() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let layout = Router::new(RouterConfig::default())
            .unwrap()
            .route(&c, &p, &t, &RoutingGuidance::None)
            .unwrap();
        let violations = check_layout(&c, &p, &t, &layout);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn crossing_detection() {
        let a = Segment::new(Point3::new(0, 5, 0), Point3::new(10, 5, 0)).unwrap();
        let b = Segment::new(Point3::new(5, 0, 0), Point3::new(5, 10, 0)).unwrap();
        assert!(segments_cross(&a, &b));
        let c = Segment::new(Point3::new(20, 0, 0), Point3::new(20, 10, 0)).unwrap();
        assert!(!segments_cross(&a, &c));
    }

    #[test]
    fn connectivity_helper() {
        let segs = vec![
            Segment::new(Point3::new(0, 0, 0), Point3::new(100, 0, 0)).unwrap(),
            Segment::new(Point3::new(100, 0, 0), Point3::new(100, 0, 1)).unwrap(),
            Segment::new(Point3::new(100, 0, 1), Point3::new(100, 100, 1)).unwrap(),
        ];
        let pins = vec![Point3::new(0, 0, 0), Point3::new(100, 100, 1)];
        assert!(is_connected(&segs, &pins, 10));
        let disconnected_pins = vec![Point3::new(0, 0, 0), Point3::new(500, 500, 0)];
        assert!(!is_connected(&segs, &disconnected_pins, 10));
    }

    #[test]
    fn t_junction_joins_mid_span() {
        // A branch whose endpoint lands mid-span on the trunk, far from
        // both trunk endpoints.
        let trunk = Segment::new(Point3::new(0, 0, 0), Point3::new(1000, 0, 0)).unwrap();
        let branch = Segment::new(Point3::new(500, 0, 0), Point3::new(500, 800, 0)).unwrap();
        let pins = vec![
            Point3::new(0, 0, 0),
            Point3::new(1000, 0, 0),
            Point3::new(500, 800, 0),
        ];
        assert!(is_connected(&[trunk, branch], &pins, 10));
        // The same branch one layer up touches the trunk only in plan view.
        let above = Segment::new(Point3::new(500, 0, 1), Point3::new(500, 800, 1)).unwrap();
        let pins_above = vec![Point3::new(0, 0, 0), Point3::new(500, 800, 1)];
        assert!(!is_connected(&[trunk, above], &pins_above, 10));
        // A branch that stops short of the trunk stays open.
        let short = Segment::new(Point3::new(500, 50, 0), Point3::new(500, 800, 0)).unwrap();
        assert!(!is_connected(&[trunk, short], &pins, 10));
    }

    #[test]
    fn violation_display() {
        assert_eq!(ViolationKind::Short.to_string(), "short");
        assert_eq!(ViolationKind::Open.to_string(), "open");
    }
}
