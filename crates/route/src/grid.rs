//! The 3-D routing grid: geometry, occupancy, obstacles, and mirror math.

use af_geom::{GridDim, GridPoint, Point, Point3};
use af_netlist::{Circuit, DeviceKind, NetId};
use af_place::Placement;
use af_tech::Technology;

/// Occupancy encoding: `FREE`, `BLOCKED`, or a net index, with `PIN` set
/// on a net's pin access points.
const FREE: u32 = 0x7FFF_FFFF;
const BLOCKED: u32 = 0x7FFF_FFFE;
const PIN: u32 = 0x8000_0000;

/// One grid node's mutable state, packed so a search step reads a single
/// 8-byte record: occupancy (owner plus pin flag) and negotiation history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cell {
    occ: u32,
    /// Negotiated-routing history cost.
    pub(crate) history: f32,
}

impl Cell {
    /// A free cell carrying `history`.
    pub(crate) fn free(history: f32) -> Self {
        Self { occ: FREE, history }
    }

    /// Whether the node is a hard obstacle.
    #[inline]
    pub(crate) fn is_blocked(self) -> bool {
        self.occ == BLOCKED
    }

    /// Whether the node is a pin access point.
    #[inline]
    pub(crate) fn is_pin(self) -> bool {
        self.occ & PIN != 0
    }

    /// The owning net, if any.
    #[inline]
    pub(crate) fn owner(self) -> Option<NetId> {
        match self.occ {
            FREE | BLOCKED => None,
            n => Some(NetId::new(n & !PIN)),
        }
    }
}

/// The routing grid of one placement: node occupancy, history costs, pin
/// flags, and the symmetry-mirror transform.
///
/// Nodes are indexed by [`GridDim::flat_index`]. Layer 0 is M1.
#[derive(Debug, Clone)]
pub struct RoutingGrid {
    dim: GridDim,
    /// Occupancy, pin flag and history per node.
    cells: Vec<Cell>,
    /// Grid column of the symmetry axis.
    axis_col: u32,
    layer_pitch: i64,
}

impl RoutingGrid {
    /// Builds a grid covering the placement's die.
    ///
    /// `coarsen` multiplies the technology grid pitch (1 = full density). The
    /// grid origin is aligned so the symmetry axis falls exactly on a grid
    /// column, making mirroring exact.
    ///
    /// Obstacles: every device footprint blocks M1 (capacitors additionally
    /// block M2, as MOM caps consume low metal).
    pub fn new(circuit: &Circuit, placement: &Placement, tech: &Technology, coarsen: i64) -> Self {
        assert!(coarsen >= 1, "coarsen must be >= 1");
        let pitch = tech.grid_pitch() * coarsen;
        let die = placement.die();
        let axis = placement.axis_x();

        // Align origin.x so that the axis is on a grid column.
        let cols_left = (axis - die.lo().x) / pitch;
        let origin_x = axis - cols_left * pitch;
        let origin = Point::new(origin_x, die.lo().y);
        let nx = ((die.hi().x - origin_x) / pitch + 1).max(2) as u32;
        let ny = ((die.hi().y - origin.y) / pitch + 1).max(2) as u32;
        let layers = tech.num_layers();
        let dim = GridDim::new(origin, nx, ny, layers, pitch);

        let mut grid = Self {
            dim,
            cells: vec![Cell::free(0.0); dim.len()],
            axis_col: cols_left as u32,
            layer_pitch: tech.layer_pitch(),
        };

        // Device obstacles.
        for (i, rect) in placement.device_rects().iter().enumerate() {
            let kind = circuit.devices()[i].kind;
            let keepout = tech.rules().device_keepout;
            let r = rect.expanded(keepout);
            let max_layer: u8 = if kind == DeviceKind::Capacitor { 1 } else { 0 };
            for l in 0..=max_layer {
                grid.block_rect(&r, l);
            }
        }
        grid
    }

    fn block_rect(&mut self, r: &af_geom::Rect, layer: u8) {
        let (x0, y0) = self.cell_floor(r.lo());
        let (x1, y1) = self.cell_ceil(r.hi());
        for y in y0..=y1.min(self.dim.ny() as i64 - 1) {
            for x in x0..=x1.min(self.dim.nx() as i64 - 1) {
                if x < 0 || y < 0 {
                    continue;
                }
                let g = GridPoint::new(x as u32, y as u32, layer);
                let idx = self.dim.flat_index(g);
                self.cells[idx].occ = BLOCKED;
            }
        }
    }

    fn cell_floor(&self, p: Point) -> (i64, i64) {
        (
            (p.x - self.dim.origin().x).div_euclid(self.dim.pitch()),
            (p.y - self.dim.origin().y).div_euclid(self.dim.pitch()),
        )
    }

    fn cell_ceil(&self, p: Point) -> (i64, i64) {
        (
            (p.x - self.dim.origin().x + self.dim.pitch() - 1).div_euclid(self.dim.pitch()),
            (p.y - self.dim.origin().y + self.dim.pitch() - 1).div_euclid(self.dim.pitch()),
        )
    }

    /// Grid dimensions.
    pub fn dim(&self) -> &GridDim {
        &self.dim
    }

    /// dbu-per-layer-hop used in cost-aware distances.
    pub fn layer_pitch(&self) -> i64 {
        self.layer_pitch
    }

    /// Grid column of the symmetry axis.
    pub fn axis_col(&self) -> u32 {
        self.axis_col
    }

    /// Mirrors a grid point across the symmetry axis; `None` if the mirror
    /// falls outside the grid.
    pub fn mirror(&self, g: GridPoint) -> Option<GridPoint> {
        let mx = 2 * i64::from(self.axis_col) - i64::from(g.x);
        if mx < 0 || mx >= i64::from(self.dim.nx()) {
            return None;
        }
        Some(GridPoint::new(mx as u32, g.y, g.l))
    }

    /// Whether the node is free (unowned and unblocked).
    pub fn is_free(&self, idx: usize) -> bool {
        self.cells[idx].occ == FREE
    }

    /// Whether the node is a hard obstacle.
    pub fn is_blocked(&self, idx: usize) -> bool {
        self.cells[idx].is_blocked()
    }

    /// The net owning the node, if any.
    pub fn owner(&self, idx: usize) -> Option<NetId> {
        self.cells[idx].owner()
    }

    /// Whether the node is a pin access point.
    pub fn is_pin(&self, idx: usize) -> bool {
        self.cells[idx].is_pin()
    }

    /// History cost of the node.
    pub fn history(&self, idx: usize) -> f32 {
        self.cells[idx].history
    }

    /// The node's packed state.
    #[inline]
    pub(crate) fn cell(&self, idx: usize) -> Cell {
        self.cells[idx]
    }

    /// Adds negotiated-routing history cost to the node.
    pub fn bump_history(&mut self, idx: usize, amount: f32) {
        self.cells[idx].history += amount;
    }

    /// Claims a free (or already-owned-by-`net`) node for `net`.
    ///
    /// Returns `false` when the node is blocked or owned by a different net.
    pub fn claim(&mut self, idx: usize, net: NetId) -> bool {
        debug_assert!(
            net.index() < BLOCKED as usize,
            "net index collides with occupancy codes"
        );
        let occ = &mut self.cells[idx].occ;
        match *occ {
            FREE => {
                *occ = net.index() as u32;
                true
            }
            BLOCKED => false,
            n => n & !PIN == net.index() as u32,
        }
    }

    /// Marks a node as a pin access point of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the node is owned by a different net or is another net's pin.
    pub fn claim_pin(&mut self, idx: usize, net: NetId) {
        let ok = self.claim(idx, net);
        assert!(ok, "pin node already taken by another net");
        self.cells[idx].occ |= PIN;
    }

    /// Releases every non-pin node owned by `net`, scanning the whole grid.
    ///
    /// The router knows each net's claims and releases only those;
    /// this full scan is for callers that do not.
    pub fn release_net(&mut self, net: NetId) {
        let raw = net.index() as u32;
        for cell in &mut self.cells {
            if cell.occ == raw {
                cell.occ = FREE;
            }
        }
    }

    /// Releases the non-pin nodes among `nodes` that `net` owns. Equivalent
    /// to [`Self::release_net`] when `nodes` covers every node the net has
    /// claimed, at the cost of the claims instead of the grid.
    pub(crate) fn release_nodes(&mut self, net: NetId, nodes: impl IntoIterator<Item = u32>) {
        let raw = net.index() as u32;
        for n in nodes {
            let cell = &mut self.cells[n as usize];
            if cell.occ == raw {
                cell.occ = FREE;
            }
        }
    }

    /// Unblocks a node (used when a pin shape overlaps a device keepout).
    /// Clears ownership and the pin flag; history is kept.
    pub fn force_free(&mut self, idx: usize) {
        self.cells[idx].occ = FREE;
    }

    /// Converts a node index to its dbu location.
    pub fn node_dbu(&self, idx: usize) -> Point3 {
        self.dim.to_dbu(self.dim.from_flat(idx))
    }

    /// Number of free nodes (for tests / diagnostics).
    pub fn free_count(&self) -> usize {
        self.cells.iter().filter(|c| c.occ == FREE).count()
    }
}

#[cfg(test)]
impl RoutingGrid {
    /// A grid of `dim` with no obstacles, its symmetry axis on column 0.
    pub(crate) fn open(dim: GridDim) -> Self {
        Self {
            dim,
            cells: vec![Cell::free(0.0); dim.len()],
            axis_col: 0,
            layer_pitch: dim.pitch(),
        }
    }

    /// Makes a node a hard obstacle.
    pub(crate) fn block(&mut self, idx: usize) {
        self.cells[idx].occ = BLOCKED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};

    fn grid() -> (af_netlist::Circuit, Placement, RoutingGrid) {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let t = Technology::nm40();
        let g = RoutingGrid::new(&c, &p, &t, 2);
        (c, p, g)
    }

    #[test]
    fn axis_on_grid_column() {
        let (_, p, g) = grid();
        let axis_dbu = g.dim().to_dbu(GridPoint::new(g.axis_col(), 0, 0)).x;
        assert_eq!(
            axis_dbu,
            p.axis_x() - (p.axis_x() - axis_dbu),
            "axis column maps near axis"
        );
        // the axis column must be within one pitch of the true axis
        assert!((axis_dbu - p.axis_x()).abs() < g.dim().pitch());
    }

    #[test]
    fn mirror_is_involution_inside() {
        let (_, _, g) = grid();
        let pt = GridPoint::new(g.axis_col() + 3, 5, 1);
        let m = g.mirror(pt).unwrap();
        assert_eq!(g.mirror(m), Some(pt));
        assert_eq!(m.x, g.axis_col() - 3);
    }

    #[test]
    fn devices_block_m1() {
        let (_, p, g) = grid();
        let r = p.device_rects()[0];
        let center = r.center();
        let gp = g.dim().snap(center, 0).unwrap();
        assert!(g.is_blocked(g.dim().flat_index(gp)));
        // M3 above the device is free
        let gp3 = g.dim().snap(center, 2).unwrap();
        assert!(!g.is_blocked(g.dim().flat_index(gp3)));
    }

    #[test]
    fn claim_and_release() {
        let (_, _, g0) = grid();
        let mut g = g0;
        // find a free node
        let idx = (0..g.dim().len()).find(|&i| g.is_free(i)).unwrap();
        let net = NetId::new(3);
        assert!(g.claim(idx, net));
        assert_eq!(g.owner(idx), Some(net));
        assert!(g.claim(idx, net), "re-claim by same net ok");
        assert!(!g.claim(idx, NetId::new(4)), "other net cannot claim");
        g.release_net(net);
        assert!(g.is_free(idx));
    }

    #[test]
    fn pin_nodes_survive_release() {
        let (_, _, g0) = grid();
        let mut g = g0;
        let idx = (0..g.dim().len()).find(|&i| g.is_free(i)).unwrap();
        let net = NetId::new(2);
        g.claim_pin(idx, net);
        g.release_net(net);
        assert_eq!(g.owner(idx), Some(net));
        assert!(g.is_pin(idx));
    }

    #[test]
    fn release_nodes_matches_full_scan() {
        // Routed state as the router builds it: pins, then per-net claims,
        // some of which fail because another net got the node first.
        let (c, p, g0) = grid();
        let mut g = g0;
        let _aps = crate::PinAccessMap::extract(&c, &p, &mut g);
        let nets = c.nets().len() as u32;
        let mut claimed: Vec<Vec<u32>> = vec![Vec::new(); nets as usize];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state % g.dim().len() as u64) as usize;
            let net = ((state >> 32) % u64::from(nets)) as u32;
            g.claim(idx, NetId::new(net));
            claimed[net as usize].push(idx as u32);
        }
        for i in 0..nets {
            g.bump_history(i as usize * 7, 3.0);
        }
        for net in 0..nets {
            let id = NetId::new(net);
            let mut scan = g.clone();
            scan.release_net(id);
            let mut listed = g.clone();
            listed.release_nodes(id, claimed[net as usize].iter().copied());
            assert_eq!(scan.cells, listed.cells, "net {net}");
            assert!(scan.free_count() >= g.free_count());
        }
    }

    #[test]
    fn history_accumulates() {
        let (_, _, g0) = grid();
        let mut g = g0;
        g.bump_history(10, 1.5);
        g.bump_history(10, 0.5);
        assert!((g.history(10) - 2.0).abs() < 1e-6);
    }
}
