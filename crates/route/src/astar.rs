//! A* maze search over the routing grid.
//!
//! Two interchangeable open-list engines back the search: a bucketed queue
//! keyed on quantized f-cost (the default — O(1) push/pop on the shallow
//! cost distributions maze routing produces) and the classic `BinaryHeap`
//! (kept as the correctness oracle for the bucket queue's property tests).
//! Both run the same *deferred-termination* loop: instead of stopping at the
//! first target pop, the search records the best target cost `μ` seen so far,
//! prunes every frontier entry with `f ≥ μ`, and stops once the open list's
//! lower bound can no longer beat `μ`. Under an admissible heuristic this is
//! exact for *any* pop order, which is what makes the two engines (and the
//! bidirectional variant below) agree on path cost.
//!
//! Guided nets use the guidance-aware heuristic: every multiplier is divided
//! by the net's smallest one ([`crate::guidance::RoutingGuidance::scale_floor`]),
//! so normalized multipliers are ≥ 1.0 and unit scale stays admissible —
//! much sharper than the global `min_guidance` floor, so hopeless frontier
//! nodes are pruned much earlier. Bidirectional Dijkstra, meeting in the
//! middle, only runs for plain two-pin connections under the legacy weak
//! heuristic (`guidance_aware_h = false`); the default configuration never
//! takes it.
//!
//! # Memory layout
//!
//! The inner loop touches a few dense arrays per neighbor step and never
//! hashes: the net's guidance is resolved once per net route
//! ([`NetGuidance`]), the node's occupancy and history come from one packed
//! 8-byte grid cell (through the task's dense overlay in a parallel round),
//! the neighbor's grid point is passed down instead of re-derived from its
//! flat index, and each node's `dist`/`came`/`stamp` live in one 16-byte
//! [`Label`]. None of this changes a float expression, the pop order or a
//! tie-break, so expansion counts and layouts are the same as with plain
//! per-step lookups; `tests/golden_routing.rs` pins both.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use af_geom::{Axis, Dir3, GridPoint};
use af_netlist::NetId;

use crate::grid::Cell;
use crate::guidance::NetGuidance;
use crate::router::{OpenListKind, RouterConfig};
use crate::view::GridView;

/// Bucket width in cost units. Steps cost at least `min_guidance` (0.25 by
/// default) so a 0.25-wide bucket rarely holds more than a handful of
/// entries, keeping within-bucket scans trivial.
const BUCKET_WIDTH: f64 = 0.25;
/// Clamp for the bucket index; everything costlier lands in one overflow
/// bucket (still correct — the bucket bound stays a valid lower bound).
const MAX_BUCKET: usize = 1 << 20;

/// Bucketed open list keyed on quantized f-cost.
///
/// Pops are LIFO within a bucket, which is deterministic because pushes are
/// (the expansion order is fixed by the search loop). The cursor only moves
/// forward while popping and is pulled back by a push into a cheaper bucket
/// (re-opened labels), so `pop` is amortized O(1).
#[derive(Debug, Default)]
pub(crate) struct BucketQueue {
    buckets: Vec<Vec<(f64, f64, u32)>>,
    /// Buckets used since the last clear — makes `clear` O(touched).
    touched: Vec<u32>,
    cur: usize,
    len: usize,
}

impl BucketQueue {
    fn clear(&mut self) {
        for &t in &self.touched {
            self.buckets[t as usize].clear();
        }
        self.touched.clear();
        self.cur = 0;
        self.len = 0;
    }

    fn index(f: f64) -> usize {
        // NaN maps to 0 via the `as` cast; validate() keeps costs finite.
        ((f / BUCKET_WIDTH) as usize).min(MAX_BUCKET)
    }

    fn push(&mut self, f: f64, g: f64, node: usize) {
        let i = Self::index(f);
        if i >= self.buckets.len() {
            self.buckets.resize_with(i + 1, Vec::new);
        }
        if self.buckets[i].is_empty() {
            self.touched.push(i as u32);
        }
        self.buckets[i].push((f, g, node as u32));
        if i < self.cur {
            self.cur = i;
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(f64, f64, usize)> {
        while self.cur < self.buckets.len() {
            if let Some((f, g, n)) = self.buckets[self.cur].pop() {
                self.len -= 1;
                return Some((f, g, n as usize));
            }
            self.cur += 1;
        }
        None
    }

    /// Lower bound on every remaining f-cost (∞ when empty). Quantized, so
    /// it may undershoot the true minimum by up to one bucket width — safe
    /// for termination tests, which only need a valid lower bound.
    fn min_bound(&mut self) -> f64 {
        if self.len == 0 {
            return f64::INFINITY;
        }
        while self.cur < self.buckets.len() && self.buckets[self.cur].is_empty() {
            self.cur += 1;
        }
        self.cur as f64 * BUCKET_WIDTH
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    f: f64,
    g: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on f, tie-break larger g first (deeper nodes explored first)
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.g.partial_cmp(&other.g).unwrap_or(Ordering::Equal))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One open list, engine-selected by [`RouterConfig::open_list`].
enum Open<'q> {
    Bucket(&'q mut BucketQueue),
    Heap(&'q mut BinaryHeap<HeapEntry>),
}

impl Open<'_> {
    fn clear(&mut self) {
        match self {
            Open::Bucket(b) => b.clear(),
            Open::Heap(h) => h.clear(),
        }
    }

    fn push(&mut self, f: f64, g: f64, node: usize) {
        match self {
            Open::Bucket(b) => b.push(f, g, node),
            Open::Heap(h) => h.push(HeapEntry { f, g, node }),
        }
    }

    fn pop(&mut self) -> Option<(f64, f64, usize)> {
        match self {
            Open::Bucket(b) => b.pop(),
            Open::Heap(h) => h.pop().map(|e| (e.f, e.g, e.node)),
        }
    }

    /// Lower bound on every remaining f-cost (∞ when empty).
    fn min_bound(&mut self) -> f64 {
        match self {
            Open::Bucket(b) => b.min_bound(),
            Open::Heap(h) => h.peek().map_or(f64::INFINITY, |e| e.f),
        }
    }
}

/// One node's search label, packed so a relaxation touches one 16-byte
/// record: best-known cost, predecessor (`u32::MAX` for a root), and the
/// search generation that wrote it.
#[derive(Clone, Copy)]
struct Label {
    dist: f64,
    came: u32,
    stamp: u32,
}

impl Default for Label {
    fn default() -> Self {
        Self {
            dist: 0.0,
            came: u32::MAX,
            stamp: 0,
        }
    }
}

/// Reusable search scratch space (stamped so clearing is O(1) per search).
///
/// Holds forward *and* backward label arrays plus both open-list engines, so
/// one buffer serves unidirectional and bidirectional searches without
/// reallocating. In a parallel round each worker owns one of these
/// (thread-local), never sharing search state across tasks.
#[derive(Default)]
pub(crate) struct SearchBuffers {
    fwd: Vec<Label>,
    /// Backward-search labels (bidirectional engine).
    bwd: Vec<Label>,
    target_stamp: Vec<u32>,
    cur: u32,
    fwd_bucket: BucketQueue,
    bwd_bucket: BucketQueue,
    fwd_heap: BinaryHeap<HeapEntry>,
    bwd_heap: BinaryHeap<HeapEntry>,
}

impl SearchBuffers {
    /// Sizes the forward labels and target stamps for a `len`-node grid.
    /// The backward labels are sized on first use by the bidirectional
    /// engine, which the default configuration never runs.
    fn ensure(&mut self, len: usize) {
        if self.fwd.len() < len {
            self.fwd.resize(len, Label::default());
            self.target_stamp.resize(len, 0);
        }
    }

    fn ensure_bwd(&mut self, len: usize) {
        if self.bwd.len() < len {
            self.bwd.resize(len, Label::default());
        }
    }

    fn next_gen(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            self.fwd.iter_mut().for_each(|l| l.stamp = 0);
            self.bwd.iter_mut().for_each(|l| l.stamp = 0);
            self.target_stamp.iter_mut().for_each(|s| *s = 0);
            self.cur = 1;
        }
    }
}

/// Outcome of one A* run: the path from a source to a target, source first.
pub(crate) struct FoundPath {
    pub nodes: Vec<usize>,
    /// Total path cost (useful to diagnostics and cost-parity tests).
    #[allow(dead_code)]
    pub cost: f64,
}

/// Per-step parameters captured once per net route.
pub(crate) struct StepCost<'a, G: GridView> {
    pub grid: &'a G,
    /// The net's guidance, resolved once so a step never looks the net up.
    pub guidance: NetGuidance<'a>,
    /// Reciprocal of [`RoutingGuidance::scale_floor`] for `net`: multiplies
    /// every guidance lookup so the net's cheapest multiplier lands on 1.0
    /// (scale-free guidance — only relative preferences cost anything).
    ///
    /// [`RoutingGuidance::scale_floor`]: crate::guidance::RoutingGuidance::scale_floor
    pub guidance_norm: f64,
    pub cfg: &'a RouterConfig,
    pub net: NetId,
    /// Partner of a symmetric pair (its resources look like our own), and
    /// whether passability must also hold at the mirror node.
    pub mirror_net: Option<NetId>,
    pub enforce_mirror: bool,
}

impl<G: GridView> StepCost<'_, G> {
    /// Whether `owner` is this net or its symmetric partner.
    #[inline]
    fn is_ours(&self, owner: NetId) -> bool {
        owner == self.net || Some(owner) == self.mirror_net
    }

    /// Whether the search may stand on `cell` — no obstacle, no other
    /// net's pin.
    #[inline]
    fn open_cell(&self, cell: Cell) -> bool {
        if cell.is_blocked() {
            return false;
        }
        match cell.owner() {
            Some(owner) => self.is_ours(owner) || !cell.is_pin(),
            None => true,
        }
    }

    /// Whether the search may stand on node `idx` at grid point `g`.
    #[inline]
    fn passable(&self, idx: usize, g: GridPoint) -> bool {
        let grid = self.grid;
        if !self.open_cell(grid.cell(idx)) {
            return false;
        }
        if self.enforce_mirror {
            // Mirrored routing is confined to the net's own (left) half-plane
            // so a route can never collide with its own mirror image.
            if g.x >= grid.axis_col() {
                return false;
            }
            match grid.mirror(g) {
                None => return false,
                Some(m) => {
                    if !self.open_cell(grid.cell(grid.dim().flat_index(m))) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Cost of stepping onto node `idx` (grid point `g`) along `axis`.
    #[inline]
    fn enter_cost(&self, idx: usize, g: GridPoint, axis: Axis, layer: u8) -> f64 {
        let grid = self.grid;
        let cfg = self.cfg;
        let pos = grid.dim().to_dbu(g);
        let mut cost = match axis {
            Axis::Z => cfg.via_cost,
            a => {
                let preferred = grid_preferred(layer, a);
                if preferred {
                    1.0
                } else {
                    cfg.wrong_dir_mult
                }
            }
        };
        cost *= (self.guidance.multiplier(pos, axis) * self.guidance_norm).max(cfg.min_guidance);
        // Congestion negotiation. History applies even on currently-free
        // nodes (PathFinder): a node that keeps being contested must repel
        // every net, not just the late-comer.
        let cell = grid.cell(idx);
        let mut penalty = f64::from(cell.history);
        if let Some(owner) = cell.owner() {
            if self.is_ours(owner) {
                cost *= cfg.reuse_discount;
                penalty = 0.0;
            } else {
                penalty += cfg.present_cost;
            }
        }
        if self.enforce_mirror {
            if let Some(m) = grid.mirror(g) {
                let mirror = grid.cell(grid.dim().flat_index(m));
                if let Some(owner) = mirror.owner() {
                    if !self.is_ours(owner) {
                        penalty += cfg.present_cost + f64::from(mirror.history);
                    }
                }
            }
        }
        cost + penalty
    }
}

/// Preferred-direction convention: even layers (M1, M3) run horizontally,
/// odd layers vertically — matching `Technology::nm40`.
fn grid_preferred(layer: u8, axis: Axis) -> bool {
    match axis {
        Axis::X => layer.is_multiple_of(2),
        Axis::Y => !layer.is_multiple_of(2),
        Axis::Z => true,
    }
}

/// Heuristic distance scale.
///
/// Legacy mode uses the global guidance floor. Guidance-aware mode exploits
/// the per-net normalization ([`RoutingGuidance::scale_floor`]): after
/// dividing by the net's minimum, every multiplier is ≥ 1.0, so unit scale
/// is a valid (and much sharper) lower bound that lets the search prune
/// frontier nodes whose optimistic completion already exceeds the best
/// known target cost.
///
/// [`RoutingGuidance::scale_floor`]: crate::guidance::RoutingGuidance::scale_floor
fn heuristic_scale(cfg: &RouterConfig) -> f64 {
    let base = if cfg.guidance_aware_h {
        1.0
    } else {
        cfg.min_guidance
    };
    0.999 * base.min(1.0)
}

/// Runs a maze search from `sources` (cost 0) to any node in `targets`.
///
/// Returns the path (source first, target last) or `None` when unreachable.
/// Dispatches to bidirectional Dijkstra for plain two-pin connections whose
/// heuristic is too weak to steer a one-sided search.
pub(crate) fn search<G: GridView>(
    step: &StepCost<'_, G>,
    sources: &[usize],
    targets: &[usize],
    buffers: &mut SearchBuffers,
) -> Option<FoundPath> {
    let h_scale = heuristic_scale(step.cfg);
    if step.cfg.bidirectional && sources.len() == 1 && targets.len() == 1 && h_scale < 0.5 {
        return search_bidir(step, sources[0], targets[0], buffers);
    }
    search_uni(step, sources, targets, buffers, h_scale)
}

/// One-sided A* with deferred termination and μ-pruning.
fn search_uni<G: GridView>(
    step: &StepCost<'_, G>,
    sources: &[usize],
    targets: &[usize],
    buffers: &mut SearchBuffers,
    h_scale: f64,
) -> Option<FoundPath> {
    let dim = *step.grid.dim();
    buffers.ensure(dim.len());
    buffers.next_gen();
    let gen = buffers.cur;

    for &t in targets {
        buffers.target_stamp[t] = gen;
    }
    let target_points: Vec<GridPoint> = targets.iter().map(|&t| dim.from_flat(t)).collect();
    let h = |g: GridPoint| -> f64 {
        let mut best = u64::MAX;
        for t in &target_points {
            best = best.min(g.manhattan(*t));
        }
        best as f64 * h_scale
    };

    let labels = &mut buffers.fwd;
    let target_stamp = &buffers.target_stamp;
    let mut open = match step.cfg.open_list {
        OpenListKind::Bucket => Open::Bucket(&mut buffers.fwd_bucket),
        _ => Open::Heap(&mut buffers.fwd_heap),
    };
    open.clear();
    for &s in sources {
        let sg = dim.from_flat(s);
        if !step.passable(s, sg) {
            continue;
        }
        labels[s] = Label {
            dist: 0.0,
            came: u32::MAX,
            stamp: gen,
        };
        open.push(h(sg), 0.0, s);
    }

    // Best target reached so far: μ. The search keeps going until the open
    // list cannot hold anything cheaper, which makes the result exact for
    // any pop order (bucket LIFO included) under an admissible heuristic.
    let mut best: Option<(f64, usize)> = None;
    // Expansions are counted locally and flushed as one counter update per
    // search so the hot loop never touches the observability atomics.
    let mut expansions: u64 = 0;
    loop {
        if let Some((mu, _)) = best {
            if open.min_bound() >= mu - 1e-12 {
                break;
            }
        }
        let Some((f, g, node)) = open.pop() else {
            break;
        };
        if let Some((mu, _)) = best {
            if f >= mu - 1e-12 {
                continue; // cannot beat the best target already found
            }
        }
        let label = labels[node];
        if label.stamp == gen && g > label.dist + 1e-12 {
            continue; // stale entry
        }
        expansions += 1;
        if target_stamp[node] == gen {
            if best.is_none_or(|(mu, _)| g < mu - 1e-12) {
                best = Some((g, node));
            }
            continue;
        }
        let gp = dim.from_flat(node);
        // Approximate bend cost: compare each candidate direction with the
        // direction this node was reached from (path-dependent, so not a
        // strict A* cost — standard maze-router practice).
        let incoming_axis = step_axis(&dim, label.came, node);
        for dir in Dir3::ALL {
            let Some((ng, nidx)) = neighbor(&dim, gp, dir) else {
                continue;
            };
            if !step.passable(nidx, ng) {
                continue;
            }
            let layer = if dir.axis() == Axis::Z {
                gp.l.max(ng.l)
            } else {
                ng.l
            };
            let bend = match incoming_axis {
                Some(axis) if axis != dir.axis() && axis != Axis::Z && dir.axis() != Axis::Z => {
                    step.cfg.bend_penalty
                }
                _ => 0.0,
            };
            let ncost = g + step.enter_cost(nidx, ng, dir.axis(), layer) + bend;
            let next = &mut labels[nidx];
            if next.stamp != gen || ncost + 1e-12 < next.dist {
                let nf = ncost + h(ng);
                if let Some((mu, _)) = best {
                    if nf >= mu - 1e-12 {
                        continue; // prune: optimistic completion already loses
                    }
                }
                *next = Label {
                    dist: ncost,
                    came: node as u32,
                    stamp: gen,
                };
                open.push(nf, ncost, nidx);
            }
        }
    }
    af_obs::counter("route.astar_expansions", expansions);
    let (cost, end) = best?;
    let mut nodes = vec![end];
    let mut cur = end;
    while labels[cur].came != u32::MAX {
        cur = labels[cur].came as usize;
        nodes.push(cur);
    }
    nodes.reverse();
    Some(FoundPath { nodes, cost })
}

/// Bidirectional Dijkstra (no heuristic on either side) for one source, one
/// target. Used when the heuristic is too weak to steer a one-sided search —
/// two balls of radius d/2 expand far fewer nodes than one of radius d.
///
/// The backward search relaxes reversed edges: stepping `u ← v` backward
/// charges the cost of *entering v* (what the forward path would pay), with
/// the bend checked at `v` between the edge to `u` and `v`'s successor
/// toward the target. The seam bend at the meeting node is not charged —
/// consistent with the bend cost being path-approximate, not exact.
fn search_bidir<G: GridView>(
    step: &StepCost<'_, G>,
    source: usize,
    target: usize,
    buffers: &mut SearchBuffers,
) -> Option<FoundPath> {
    let dim = *step.grid.dim();
    buffers.ensure(dim.len());
    buffers.ensure_bwd(dim.len());
    buffers.next_gen();
    let gen = buffers.cur;
    if !step.passable(source, dim.from_flat(source))
        || !step.passable(target, dim.from_flat(target))
    {
        return None;
    }
    if source == target {
        return Some(FoundPath {
            nodes: vec![source],
            cost: 0.0,
        });
    }

    let (mut fwd, mut bwd) = match step.cfg.open_list {
        OpenListKind::Bucket => (
            Open::Bucket(&mut buffers.fwd_bucket),
            Open::Bucket(&mut buffers.bwd_bucket),
        ),
        _ => (
            Open::Heap(&mut buffers.fwd_heap),
            Open::Heap(&mut buffers.bwd_heap),
        ),
    };
    fwd.clear();
    bwd.clear();
    let root = Label {
        dist: 0.0,
        came: u32::MAX,
        stamp: gen,
    };
    buffers.fwd[source] = root;
    fwd.push(0.0, 0.0, source);
    buffers.bwd[target] = root;
    bwd.push(0.0, 0.0, target);

    // Best known source→target cost μ and its meeting node.
    let mut best: Option<(f64, usize)> = None;
    let mut expansions: u64 = 0;
    loop {
        let bf = fwd.min_bound();
        let bb = bwd.min_bound();
        if bf.is_infinite() && bb.is_infinite() {
            break;
        }
        if let Some((mu, _)) = best {
            // No pair of frontier extensions can beat μ anymore.
            if bf + bb >= mu - 1e-12 {
                break;
            }
        }
        let forward = bf <= bb;
        let Some((_, g, node)) = (if forward { fwd.pop() } else { bwd.pop() }) else {
            continue;
        };
        let (labels, other) = if forward {
            (&mut buffers.fwd, &buffers.bwd)
        } else {
            (&mut buffers.bwd, &buffers.fwd)
        };
        let label = labels[node];
        if label.stamp == gen && g > label.dist + 1e-12 {
            continue; // stale entry
        }
        expansions += 1;
        let gp = dim.from_flat(node);
        // Axis of the edge this node already has on its own side: toward the
        // source (forward came) or toward the target (backward came).
        let settled_axis = step_axis(&dim, label.came, node);
        for dir in Dir3::ALL {
            let Some((ng, nidx)) = neighbor(&dim, gp, dir) else {
                continue;
            };
            if !step.passable(nidx, ng) {
                continue;
            }
            let bend = match settled_axis {
                Some(axis) if axis != dir.axis() && axis != Axis::Z && dir.axis() != Axis::Z => {
                    step.cfg.bend_penalty
                }
                _ => 0.0,
            };
            // Forward: pay to enter the neighbor. Backward: the forward path
            // underneath steps neighbor→node, so pay to enter *node*.
            let (enter_idx, enter_g) = if forward { (nidx, ng) } else { (node, gp) };
            let layer = if dir.axis() == Axis::Z {
                gp.l.max(ng.l)
            } else {
                enter_g.l
            };
            let ncost = g + step.enter_cost(enter_idx, enter_g, dir.axis(), layer) + bend;
            let next = &mut labels[nidx];
            if next.stamp != gen || ncost + 1e-12 < next.dist {
                if let Some((mu, _)) = best {
                    if ncost >= mu - 1e-12 {
                        continue;
                    }
                }
                *next = Label {
                    dist: ncost,
                    came: node as u32,
                    stamp: gen,
                };
                if forward {
                    fwd.push(ncost, ncost, nidx);
                } else {
                    bwd.push(ncost, ncost, nidx);
                }
                let meet = other[nidx];
                if meet.stamp == gen {
                    let total = ncost + meet.dist;
                    if best.is_none_or(|(mu, _)| total < mu - 1e-12) {
                        best = Some((total, nidx));
                    }
                }
            }
        }
    }
    af_obs::counter("route.astar_expansions", expansions);
    let (cost, meet) = best?;
    let mut nodes = vec![meet];
    let mut cur = meet;
    while buffers.fwd[cur].came != u32::MAX {
        cur = buffers.fwd[cur].came as usize;
        nodes.push(cur);
    }
    nodes.reverse();
    cur = meet;
    while buffers.bwd[cur].came != u32::MAX {
        cur = buffers.bwd[cur].came as usize;
        nodes.push(cur);
    }
    Some(FoundPath { nodes, cost })
}

/// Axis of the unit step between flat indices `from` and `to`; `None` when
/// `from` is `u32::MAX` (a search root). Index deltas identify the axis
/// because `nx ≥ 2` and `ny ≥ 2` make 1, `nx` and `nx·ny` distinct.
#[inline]
fn step_axis(dim: &af_geom::GridDim, from: u32, to: usize) -> Option<Axis> {
    if from == u32::MAX {
        return None;
    }
    let nx = dim.nx() as usize;
    match (from as usize).abs_diff(to) {
        0 => None,
        1 => Some(Axis::X),
        d if d == nx => Some(Axis::Y),
        _ => Some(Axis::Z),
    }
}

/// In-bounds neighbor of `gp` along `dir`, with its flat index.
#[inline]
fn neighbor(dim: &af_geom::GridDim, gp: GridPoint, dir: Dir3) -> Option<(GridPoint, usize)> {
    let (dx, dy, dz) = dir.delta();
    let nxt = (
        i64::from(gp.x) + dx,
        i64::from(gp.y) + dy,
        i64::from(gp.l) + dz,
    );
    if nxt.0 < 0
        || nxt.1 < 0
        || nxt.2 < 0
        || nxt.0 >= i64::from(dim.nx())
        || nxt.1 >= i64::from(dim.ny())
        || nxt.2 >= i64::from(dim.layers())
    {
        return None;
    }
    let ng = GridPoint::new(nxt.0 as u32, nxt.1 as u32, nxt.2 as u8);
    Some((ng, dim.flat_index(ng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::PinAccessMap;
    use crate::grid::RoutingGrid;
    use crate::router::RouterConfig;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;
    use proptest::prelude::*;

    #[test]
    fn heap_is_min_on_f() {
        let mut h = BinaryHeap::new();
        h.push(HeapEntry {
            f: 3.0,
            g: 0.0,
            node: 1,
        });
        h.push(HeapEntry {
            f: 1.0,
            g: 0.0,
            node: 2,
        });
        h.push(HeapEntry {
            f: 2.0,
            g: 0.0,
            node: 3,
        });
        assert_eq!(h.pop().unwrap().node, 2);
        assert_eq!(h.pop().unwrap().node, 3);
        assert_eq!(h.pop().unwrap().node, 1);
    }

    #[test]
    fn bucket_queue_pops_in_bucket_order() {
        let mut q = BucketQueue::default();
        q.push(3.1, 3.1, 1);
        q.push(0.1, 0.1, 2);
        q.push(1.6, 1.6, 3);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 3);
        // Re-opening a cheaper label pulls the cursor back.
        q.push(0.2, 0.2, 4);
        assert_eq!(q.pop().unwrap().2, 4);
        assert_eq!(q.pop().unwrap().2, 1);
        assert!(q.pop().is_none());
        assert!(q.min_bound().is_infinite());
        // clear() resets touched buckets for reuse.
        q.push(2.0, 2.0, 5);
        q.clear();
        assert!(q.pop().is_none());
    }

    #[test]
    fn bucket_queue_clamps_huge_costs() {
        let mut q = BucketQueue::default();
        q.push(1e12, 1e12, 7);
        q.push(0.0, 0.0, 8);
        assert_eq!(q.pop().unwrap().2, 8);
        assert_eq!(q.pop().unwrap().2, 7);
    }

    #[test]
    fn preferred_direction_convention() {
        assert!(grid_preferred(0, Axis::X));
        assert!(!grid_preferred(0, Axis::Y));
        assert!(grid_preferred(1, Axis::Y));
        assert!(!grid_preferred(1, Axis::X));
        assert!(grid_preferred(2, Axis::X));
        assert!(grid_preferred(3, Axis::Z));
    }

    #[test]
    fn stamp_generation_wraps_safely() {
        let mut b = SearchBuffers::default();
        b.ensure(4);
        b.ensure_bwd(4);
        b.fwd[2].stamp = u32::MAX;
        b.bwd[3].stamp = u32::MAX;
        b.target_stamp[1] = u32::MAX;
        b.cur = u32::MAX;
        b.next_gen();
        assert_eq!(b.cur, 1);
        assert!(b.fwd.iter().chain(&b.bwd).all(|l| l.stamp == 0));
        assert!(b.target_stamp.iter().all(|&s| s == 0));
    }

    /// An admissible-cost config: reuse discount off and via cost ≥ 1 keep
    /// every step cost ≥ the heuristic scale, so both engines are exact and
    /// must agree on cost. Bends stay 0 because the bend term is
    /// path-dependent (not part of the node relaxation invariant).
    fn exact_cfg(open_list: OpenListKind, bidirectional: bool, via_cost: f64) -> RouterConfig {
        // Legacy weak heuristic: keeps h admissible AND below the 0.5
        // bidirectional threshold, so `bidirectional: true` really
        // exercises the two-sided engine.
        RouterConfig {
            open_list,
            bidirectional,
            reuse_discount: 1.0,
            bend_penalty: 0.0,
            via_cost,
            guidance_aware_h: false,
            ..Default::default()
        }
    }

    fn search_cost(
        grid: &RoutingGrid,
        cfg: &RouterConfig,
        net: NetId,
        sources: &[usize],
        targets: &[usize],
    ) -> Option<(f64, usize)> {
        let step = StepCost {
            grid,
            guidance: NetGuidance::Neutral,
            guidance_norm: 1.0,
            cfg,
            net,
            mirror_net: None,
            enforce_mirror: false,
        };
        let mut buffers = SearchBuffers::default();
        search(&step, sources, targets, &mut buffers).map(|p| (p.cost, p.nodes.len()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite: the bucketed open list returns paths whose cost equals
        /// the `BinaryHeap` oracle's, across random endpoint pairs, via
        /// costs, and engine dispositions (uni- and bidirectional).
        #[test]
        fn bucket_open_list_matches_heap_oracle(
            seed in 0usize..4096,
            via_cost in 1.0f64..5.0,
            bidir_bit in 0usize..2,
        ) {
            let bidirectional = bidir_bit == 1;
            let c = benchmarks::ota1();
            let p = place(&c, PlacementVariant::A);
            let tech = Technology::nm40();
            let mut grid = RoutingGrid::new(&c, &p, &tech, 2);
            let aps = PinAccessMap::extract(&c, &p, &mut grid);
            // Endpoints must belong to the routed net; sample a multi-pin
            // net and a pair of its access points from the seed.
            let per_net: Vec<(NetId, Vec<usize>)> = (0..c.nets().len() as u32)
                .map(NetId::new)
                .map(|id| {
                    let nodes: Vec<usize> = aps
                        .of_net(id)
                        .iter()
                        .map(|ap| grid.dim().flat_index(ap.node))
                        .collect();
                    (id, nodes)
                })
                .filter(|(_, nodes)| nodes.len() >= 2)
                .collect();
            prop_assert!(!per_net.is_empty(), "ota1 must have multi-pin nets");
            let (net, nodes) = &per_net[seed % per_net.len()];
            let net = *net;
            let s = nodes[(seed / 7) % nodes.len()];
            let t = nodes[(seed / 91) % nodes.len()];

            let bucket = search_cost(
                &grid,
                &exact_cfg(OpenListKind::Bucket, bidirectional, via_cost),
                net,
                &[s],
                &[t],
            );
            let heap = search_cost(
                &grid,
                &exact_cfg(OpenListKind::Heap, bidirectional, via_cost),
                net,
                &[s],
                &[t],
            );
            match (bucket, heap) {
                (None, None) => {}
                (Some((bc, _)), Some((hc, _))) => {
                    prop_assert!(
                        (bc - hc).abs() < 1e-6,
                        "bucket cost {bc} != heap cost {hc} (s={s}, t={t})"
                    );
                }
                other => prop_assert!(false, "reachability disagrees: {other:?}"),
            }
        }
    }

    #[test]
    fn bidirectional_matches_unidirectional_cost() {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        let tech = Technology::nm40();
        let mut grid = RoutingGrid::new(&c, &p, &tech, 2);
        let aps = PinAccessMap::extract(&c, &p, &mut grid);
        // Endpoints must belong to the routed net — other nets' pins are
        // impassable. Pick the first net with at least two access points.
        let (net, nodes) = (0..c.nets().len() as u32)
            .map(NetId::new)
            .map(|id| {
                let nodes: Vec<usize> = aps
                    .of_net(id)
                    .iter()
                    .map(|ap| grid.dim().flat_index(ap.node))
                    .collect();
                (id, nodes)
            })
            .find(|(_, nodes)| nodes.len() >= 2)
            .expect("ota1 has a multi-pin net");
        let (s, t) = (nodes[0], nodes[nodes.len() - 1]);
        let uni = search_cost(
            &grid,
            &exact_cfg(OpenListKind::Bucket, false, 3.0),
            net,
            &[s],
            &[t],
        );
        let bi = search_cost(
            &grid,
            &exact_cfg(OpenListKind::Bucket, true, 3.0),
            net,
            &[s],
            &[t],
        );
        let (Some((uc, _)), Some((bc, _))) = (uni, bi) else {
            panic!("route between access points should exist: {uni:?} {bi:?}");
        };
        assert!(
            (uc - bc).abs() < 1e-6,
            "bidirectional cost {bc} != unidirectional cost {uc}"
        );
    }
}
