//! Read-mostly grid views for parallel negotiated-congestion rounds.
//!
//! During a PathFinder round every uncommitted task routes against an
//! immutable snapshot of the shared [`RoutingGrid`] plus a private overlay
//! of its own in-progress claims ([`TaskView`]). The base grid still holds
//! the *previous* round's claims of every other ripped-up task, so each
//! search negotiates against one-round-stale present costs — the classic
//! parallel-PathFinder relaxation — while the task's own previous claims
//! are hidden (a rip-up must not give the old path a reuse discount).
//!
//! The [`GridView`] trait is what the A* engine ([`crate::astar`]) and the
//! net-routing loop see; it is implemented both by the real grid (used for
//! the sequential fault-degradation path) and by the per-task overlay.
//!
//! The overlay's claims live in a dense per-worker [`Overlay`] array indexed
//! like the grid, so resolving a node's effective owner is two array reads
//! and never a hash lookup. It is reset through the list of nodes it
//! touched, so a task costs no allocation and no grid-sized clear.

use af_geom::{GridDim, GridPoint};
use af_netlist::NetId;

use crate::grid::{Cell, RoutingGrid};

/// Uniform read/claim interface over a routing grid or a task overlay.
pub(crate) trait GridView {
    /// Grid dimensions.
    fn dim(&self) -> &GridDim;
    /// Grid column of the symmetry axis.
    fn axis_col(&self) -> u32;
    /// Mirror transform across the symmetry axis.
    fn mirror(&self, g: GridPoint) -> Option<GridPoint>;
    /// The node's state as this view sees it: effective owner, pin flag,
    /// obstacle flag and history, in one read.
    fn cell(&self, idx: usize) -> Cell;
    /// Claims a node for `net`; `false` when blocked or owned by another
    /// net (the trespass is still recorded by the caller — negotiation
    /// resolves it later).
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool;
}

impl GridView for RoutingGrid {
    fn dim(&self) -> &GridDim {
        RoutingGrid::dim(self)
    }
    fn axis_col(&self) -> u32 {
        RoutingGrid::axis_col(self)
    }
    fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        RoutingGrid::mirror(self, g)
    }
    #[inline]
    fn cell(&self, idx: usize) -> Cell {
        RoutingGrid::cell(self, idx)
    }
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool {
        RoutingGrid::claim(self, idx, net)
    }
}

/// No overlay claim on this node.
const UNCLAIMED: u32 = u32::MAX;

/// Dense per-worker storage for one task's overlay claims: the claiming
/// net per node (`UNCLAIMED` elsewhere) plus the nodes written since the
/// last reset.
#[derive(Debug, Default)]
pub(crate) struct Overlay {
    claims: Vec<u32>,
    touched: Vec<u32>,
}

impl Overlay {
    /// Clears the previous task's claims and sizes the array for `len`
    /// nodes. Clearing at the start (not on drop) also recovers from a
    /// task that panicked mid-route.
    fn reset(&mut self, len: usize) {
        for &t in &self.touched {
            self.claims[t as usize] = UNCLAIMED;
        }
        self.touched.clear();
        if self.claims.len() < len {
            self.claims.resize(len, UNCLAIMED);
        }
    }
}

/// One task's private view during a parallel round: the shared base grid
/// (immutable) plus this task's overlay claims.
///
/// Ownership resolution:
/// 1. overlay claims win (the task sees its own in-progress tree),
/// 2. base claims of the task's *own* nets are hidden unless they are pins
///    (the task is being re-routed; its stale wires must not look owned),
/// 3. everything else reads through to the base snapshot.
pub(crate) struct TaskView<'a> {
    base: &'a RoutingGrid,
    exclude: [Option<NetId>; 2],
    overlay: &'a mut Overlay,
}

impl<'a> TaskView<'a> {
    /// A fresh view for a task over `exclude` nets (its members), keeping
    /// its claims in `overlay` (whose previous contents are discarded).
    pub(crate) fn new(
        base: &'a RoutingGrid,
        exclude: [Option<NetId>; 2],
        overlay: &'a mut Overlay,
    ) -> Self {
        overlay.reset(base.dim().len());
        Self {
            base,
            exclude,
            overlay,
        }
    }
}

impl GridView for TaskView<'_> {
    fn dim(&self) -> &GridDim {
        self.base.dim()
    }
    fn axis_col(&self) -> u32 {
        self.base.axis_col()
    }
    fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        self.base.mirror(g)
    }
    #[inline]
    fn cell(&self, idx: usize) -> Cell {
        let base = self.base.cell(idx);
        let claim = self.overlay.claims[idx];
        if claim != UNCLAIMED {
            // Claims only land on free, unblocked, non-pin nodes.
            return Cell::owned(NetId::new(claim), base.history);
        }
        match base.owner() {
            Some(o) if self.exclude.contains(&Some(o)) && !base.is_pin() => {
                Cell::free(base.history)
            }
            _ => base,
        }
    }
    fn claim_node(&mut self, idx: usize, net: NetId) -> bool {
        let cell = self.cell(idx);
        if cell.is_blocked() {
            return false;
        }
        match cell.owner() {
            None => {
                self.overlay.claims[idx] = net.index() as u32;
                self.overlay.touched.push(idx as u32);
                true
            }
            Some(o) => o == net,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;

    fn grid() -> RoutingGrid {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        RoutingGrid::new(&c, &p, &Technology::nm40(), 2)
    }

    #[test]
    fn overlay_claims_shadow_base() {
        let mut base = grid();
        let idx = (0..base.dim().len()).find(|&i| base.is_free(i)).unwrap();
        let committed = NetId::new(5);
        assert!(base.claim(idx, committed));

        let me = NetId::new(1);
        let mut overlay = Overlay::default();
        let mut v = TaskView::new(&base, [Some(me), None], &mut overlay);
        // committed claims of other nets read through
        assert_eq!(v.cell(idx).owner(), Some(committed));
        assert!(!v.claim_node(idx, me), "cannot claim another net's node");
        // fresh claims land in the overlay, not the base
        let free = (0..base.dim().len())
            .find(|&i| base.is_free(i) && i != idx)
            .unwrap();
        assert!(v.claim_node(free, me));
        assert_eq!(v.cell(free).owner(), Some(me));
        assert!(!v.cell(free).is_pin());
        assert!(base.is_free(free), "base untouched by overlay claims");
    }

    #[test]
    fn overlay_resets_between_tasks() {
        let base = grid();
        let free: Vec<usize> = (0..base.dim().len())
            .filter(|&i| base.is_free(i))
            .take(3)
            .collect();
        let (a, b) = (NetId::new(1), NetId::new(2));
        let mut overlay = Overlay::default();
        let mut v = TaskView::new(&base, [Some(a), None], &mut overlay);
        for &i in &free {
            assert!(v.claim_node(i, a));
        }
        // The next task on this worker sees none of the previous claims.
        let mut w = TaskView::new(&base, [Some(b), None], &mut overlay);
        for &i in &free {
            assert_eq!(w.cell(i).owner(), None);
        }
        assert!(w.claim_node(free[0], b));
        assert_eq!(w.cell(free[0]).owner(), Some(b));
        assert_eq!(overlay.touched, vec![free[0] as u32]);
    }

    #[test]
    fn own_stale_claims_are_hidden_but_pins_stay() {
        let mut base = grid();
        let me = NetId::new(2);
        let wire = (0..base.dim().len()).find(|&i| base.is_free(i)).unwrap();
        let pin = (0..base.dim().len())
            .find(|&i| base.is_free(i) && i != wire)
            .unwrap();
        base.claim(wire, me);
        base.claim_pin(pin, me);

        base.bump_history(wire, 2.5);

        let mut overlay = Overlay::default();
        let v = TaskView::new(&base, [Some(me), None], &mut overlay);
        assert_eq!(
            v.cell(wire).owner(),
            None,
            "previous-round wire is invisible to its own re-route"
        );
        assert_eq!(v.cell(wire).history, 2.5, "hidden wires keep history");
        assert_eq!(v.cell(pin).owner(), Some(me), "pins stay owned");
        assert!(v.cell(pin).is_pin());
    }

    #[test]
    fn blocked_nodes_cannot_be_claimed() {
        let base = grid();
        let blocked = (0..base.dim().len()).find(|&i| base.is_blocked(i)).unwrap();
        let mut overlay = Overlay::default();
        let mut v = TaskView::new(&base, [None, None], &mut overlay);
        assert!(!v.claim_node(blocked, NetId::new(0)));
        assert!(v.cell(blocked).is_blocked());
        assert_eq!(v.cell(blocked).owner(), None);
    }
}
