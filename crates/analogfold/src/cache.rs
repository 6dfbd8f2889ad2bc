//! Memoization tiers wiring [`af_cache`] into the AnalogFold pipeline.
//!
//! Three tiers, all keyed by the stable 128-bit [`ContentHash`] so a cached
//! result can only ever be returned for exactly the content that produced
//! it (see DESIGN.md §10 for the determinism argument):
//!
//! - **Tier A (relaxation)** — [`FomMemo`] memoizes exact-duplicate
//!   `f_θ(G_H, C)` evaluations across pool-seeded L-BFGS restarts, and
//!   [`tensors_cached`] caches the C-independent GNN-forward prefix
//!   ([`GraphTensors`]: neighbor lists, edge deltas, static features) per
//!   design across [`crate::Potential`] / session constructions.
//! - **Tier B (serve)** — `af-serve` keys whole `/v1/predict` and
//!   `/v1/guide` response bodies by request content hash (see
//!   `crates/serve`).
//! - **Tier C (flow/dataset)** — [`EvalCache`] memoizes guidance→route
//!   results (`route → extract → simulate` → [`Performance`]) by
//!   `(design hash, guidance key)`, with optional disk spill so dataset
//!   generation shards and resumed runs skip already-routed samples.
//!
//! All tiers respect the process-wide [`set_cache_enabled`] switch
//! (`--no-cache` on the CLI).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use af_cache::persist::SpillBackend;
use af_cache::{Cache, CacheBuilder, CacheStats, ContentHash, ContentHasher, FnWeigher};
use af_route::RouterConfig;
use af_sim::{Performance, SimConfig};

use crate::gnn::GraphTensors;
use crate::hetero::HeteroGraph;

static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Process-wide cache switch. When disabled every tier computes from
/// scratch; results are bit-identical either way (enforced by the
/// workspace determinism tests) — only wall-clock and memory change.
pub fn set_cache_enabled(enabled: bool) {
    CACHE_ENABLED.store(enabled, Ordering::Release);
}

/// Whether the caching tiers are currently enabled.
#[must_use]
pub fn cache_enabled() -> bool {
    CACHE_ENABLED.load(Ordering::Acquire)
}

/// Canonically hashes a serde [`serde::Value`] tree: every variant is
/// tag-disciplined, map keys and order are part of the content, floats hash
/// by exact bit pattern, and non-negative `Int`/`UInt` hash identically (a
/// JSON round trip may surface either variant for the same document).
pub fn hash_value(h: &mut ContentHasher, v: &serde::Value) {
    match v {
        serde::Value::Null => h.write_u8(0),
        serde::Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        serde::Value::Int(i) if *i >= 0 => {
            h.write_u8(3);
            h.write_u64(*i as u64);
        }
        serde::Value::Int(i) => {
            h.write_u8(2);
            h.write_i64(*i);
        }
        serde::Value::UInt(u) => {
            h.write_u8(3);
            h.write_u64(*u);
        }
        serde::Value::Float(f) => {
            h.write_u8(4);
            h.write_f64(*f);
        }
        serde::Value::Str(s) => {
            h.write_u8(5);
            h.write_str(s);
        }
        serde::Value::Seq(items) => {
            h.write_u8(6);
            h.write_usize(items.len());
            for item in items {
                hash_value(h, item);
            }
        }
        serde::Value::Map(pairs) => {
            h.write_u8(7);
            h.write_usize(pairs.len());
            for (k, val) in pairs {
                h.write_str(k);
                hash_value(h, val);
            }
        }
    }
}

/// Content hash of any serializable value, via its canonical tree. Because
/// the vendored JSON writer renders floats with shortest-round-trip
/// precision, `hash(value)` equals `hash(parse(serialize(value)))` — the
/// property the model-header integrity check relies on.
#[must_use]
pub fn content_hash_of<T: serde::Serialize>(value: &T) -> ContentHash {
    let mut h = ContentHasher::new();
    hash_value(&mut h, &value.to_value());
    h.finish()
}

/// Content hash of one heterogeneous graph: nodes (positions, features,
/// guidance flags), all three edge sets, and the normalization scale. Two
/// placements of the same circuit hash differently; the same placement
/// hashes identically on every run.
#[must_use]
pub fn graph_hash(graph: &HeteroGraph) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str("hetero-graph");
    h.write_usize(graph.aps.len());
    for ap in &graph.aps {
        h.write_u64(ap.net.index() as u64);
        h.write_i64(ap.pos.x);
        h.write_i64(ap.pos.y);
        h.write_u8(ap.pos.z);
        h.write_u8(u8::from(ap.guided));
        h.write_f64_slice(&ap.features);
        h.write_usize(ap.pin_index);
    }
    h.write_usize(graph.modules.len());
    for m in &graph.modules {
        h.write_i64(m.pos.x);
        h.write_i64(m.pos.y);
        h.write_u8(m.pos.z);
        h.write_f64_slice(&m.features);
    }
    for edges in [&graph.pp_edges, &graph.mp_edges, &graph.mm_edges] {
        h.write_usize(edges.len());
        for &(a, b) in edges.iter() {
            h.write_usize(a);
            h.write_usize(b);
        }
    }
    h.write_f64(graph.scale);
    h.write_i64(graph.layer_pitch);
    h.finish()
}

/// The design-level key of tier C: everything the guidance→performance
/// mapping depends on besides the guidance itself — the graph (which
/// captures circuit, placement, and tech geometry) plus the router and
/// simulator settings.
#[must_use]
pub fn design_eval_hash(
    graph: &HeteroGraph,
    router: &RouterConfig,
    sim: &SimConfig,
) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str("design-eval/2");
    let g = graph_hash(graph);
    h.write_u64(g.0[0]);
    h.write_u64(g.0[1]);
    // RouterConfig and SimConfig are not serde-serializable; hash their
    // fields directly. RouterConfig is `#[non_exhaustive]`, so the binding
    // below needs `..` — any new af-route knob that can change the layout
    // must be added here by hand.
    let RouterConfig {
        coarsen,
        via_cost,
        wrong_dir_mult,
        present_cost,
        history_increment,
        reuse_discount,
        min_guidance,
        bend_penalty,
        max_iterations,
        enforce_symmetry,
        open_list,
        bidirectional,
        guidance_aware_h,
        ..
    } = router.clone();
    h.write_i64(coarsen);
    h.write_f64(via_cost);
    h.write_f64(wrong_dir_mult);
    h.write_f64(present_cost);
    h.write_f64(f64::from(history_increment));
    h.write_f64(reuse_discount);
    h.write_f64(min_guidance);
    h.write_f64(bend_penalty);
    h.write_u64(u64::from(max_iterations));
    h.write_u8(u8::from(enforce_symmetry));
    h.write_u8(match open_list {
        af_route::OpenListKind::Bucket => 0,
        af_route::OpenListKind::Heap => 1,
        _ => u8::MAX,
    });
    h.write_u8(u8::from(bidirectional));
    h.write_u8(u8::from(guidance_aware_h));
    h.write_f64(sim.f_start);
    h.write_f64(sim.f_stop);
    h.write_usize(sim.points_per_decade);
    h.write_f64(sim.supply_noise_v2hz);
    h.write_f64(sim.gamma_noise);
    h.write_f64(sim.temperature);
    h.write_f64(sim.v_overdrive);
    h.write_f64(sim.cmrr_cap_db);
    h.write_f64(sim.cmrr_mismatch_ref_uv);
    h.finish()
}

/// Tier-C sample key: `(design hash, quantized C)`.
///
/// `quant == 0.0` (the default everywhere determinism matters) keys by the
/// exact bit pattern of the guidance, so a hit is guaranteed bit-identical
/// to recomputation. A positive `quant` snaps each component to that grid
/// before hashing — higher hit rates for near-duplicate guidance across
/// runs, at the cost of returning the result of a grid-neighbor instead of
/// the exact input. Only enable it for workloads that tolerate that
/// (e.g. exploratory sweeps), never under a determinism contract.
#[must_use]
pub fn guidance_key(design: &ContentHash, guidance: &[f64], quant: f64) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str("guidance");
    h.write_u64(design.0[0]);
    h.write_u64(design.0[1]);
    if quant > 0.0 {
        h.write_f64(quant);
        h.write_usize(guidance.len());
        for &c in guidance {
            h.write_f64((c / quant).round() * quant);
        }
    } else {
        h.write_f64_slice(guidance);
    }
    h.finish()
}

/// Process-wide cache of the C-independent GNN-forward prefix: one
/// [`GraphTensors`] per distinct graph content. Bounded at 64 MiB; entries
/// are shared by `Arc`, so a cached prefix costs nothing to reuse across
/// [`crate::Potential`] constructions, one-shot predictions, and serve
/// sessions on the same design.
fn tensor_cache() -> &'static Cache<ContentHash, Arc<GraphTensors>> {
    static CACHE: OnceLock<Cache<ContentHash, Arc<GraphTensors>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        CacheBuilder::new("tensors")
            .capacity_mb(64)
            .build_weighed(FnWeigher(|_k: &ContentHash, v: &Arc<GraphTensors>| {
                v.approx_bytes() as u64
            }))
    })
}

/// The C-independent forward prefix for `graph`, from the process-wide
/// cache when enabled (falling back to a fresh build when disabled or on a
/// miss). The tensors are a pure function of the graph content, so cached
/// and fresh prefixes are identical.
pub(crate) fn tensors_cached(graph: &HeteroGraph) -> Arc<GraphTensors> {
    if !cache_enabled() {
        return Arc::new(GraphTensors::new(graph));
    }
    tensor_cache().get_or_insert_with(graph_hash(graph), || Arc::new(GraphTensors::new(graph)))
}

/// Hit/miss counters of the process-wide tensor-prefix cache.
#[must_use]
pub fn tensor_cache_stats() -> CacheStats {
    tensor_cache().stats()
}

/// Tier A: memoizes `(FoM, ∇FoM)` evaluations of the surrogate during
/// relaxation. Keys cover the FoM weights and the exact guidance bits, so
/// a hit replays exactly the evaluation that would have been computed —
/// pool-seeded restarts that revisit a guidance point skip the full
/// forward/backward pass.
pub struct FomMemo {
    cache: Cache<ContentHash, (f64, Vec<f64>)>,
}

impl FomMemo {
    /// A memo bounded at `capacity_mb` MiB (entries weighed by gradient
    /// length).
    #[must_use]
    pub fn new(capacity_mb: u64) -> Self {
        Self {
            cache: CacheBuilder::new("fom")
                .capacity_mb(capacity_mb.max(1))
                .build_weighed(FnWeigher(|_k: &ContentHash, v: &(f64, Vec<f64>)| {
                    48 + 8 * v.1.len() as u64
                })),
        }
    }

    /// The memo key for one evaluation point.
    #[must_use]
    pub fn key(weights: &[f64; 5], c: &[f64]) -> ContentHash {
        let mut h = ContentHasher::new();
        h.write_str("fom");
        h.write_f64_slice(weights);
        h.write_f64_slice(c);
        h.finish()
    }

    /// Returns the memoized evaluation or computes, stores, and returns it.
    pub fn get_or_compute(
        &self,
        key: ContentHash,
        compute: impl FnOnce() -> (f64, Vec<f64>),
    ) -> (f64, Vec<f64>) {
        self.cache.get_or_insert_with(key, compute)
    }

    /// Counter snapshot (hits, misses, bytes, …).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Tier C: memoizes guidance→route evaluation results ([`Performance`])
/// with optional disk spill for cross-run warm caches. See
/// [`design_eval_hash`] / [`guidance_key`] for the keying.
pub struct EvalCache {
    mem: Cache<ContentHash, Performance>,
    spill: Option<Arc<dyn SpillBackend>>,
}

impl EvalCache {
    /// An in-memory evaluation cache bounded at `capacity_mb` MiB.
    #[must_use]
    pub fn new(capacity_mb: u64) -> Self {
        Self {
            mem: CacheBuilder::new("eval")
                .capacity_mb(capacity_mb.max(1))
                .build_weighed(FnWeigher(|_k: &ContentHash, _v: &Performance| 32 + 40)),
            spill: None,
        }
    }

    /// Adds a disk-spill backend (e.g. the dataset checkpoint
    /// [`crate::ShardStore`]): stores write through to disk, and an
    /// in-memory miss consults the backend before giving up — that is what
    /// lets a *resumed* run skip samples an earlier process already routed.
    #[must_use]
    pub fn with_spill(mut self, spill: Arc<dyn SpillBackend>) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Looks up a performance by key: memory first, then the spill backend
    /// (promoting a disk hit into memory). Corrupt or unreadable spill
    /// entries degrade to a miss.
    #[must_use]
    pub fn lookup(&self, key: &ContentHash) -> Option<Performance> {
        if let Some(perf) = self.mem.get(key) {
            return Some(perf);
        }
        let spill = self.spill.as_ref()?;
        let bytes = spill.get(key).ok().flatten()?;
        let text = String::from_utf8(bytes).ok()?;
        let perf: Performance = serde_json::from_str(&text).ok()?;
        af_obs::counter("cache.eval.spill_hits", 1);
        self.mem.insert(*key, perf);
        Some(perf)
    }

    /// Stores a performance under `key` (memory + spill when configured).
    pub fn store(&self, key: ContentHash, perf: &Performance) {
        self.mem.insert(key, *perf);
        if let Some(spill) = &self.spill {
            if let Ok(text) = serde_json::to_string(perf) {
                if spill.put(&key, text.as_bytes()).is_ok() {
                    af_obs::counter("cache.eval.spill_stores", 1);
                }
            }
        }
    }

    /// Counter snapshot of the in-memory tier.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.mem.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_netlist::benchmarks;
    use af_place::{place, PlacementVariant};
    use af_tech::Technology;
    use serde::Serialize;

    fn graph() -> HeteroGraph {
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::A);
        HeteroGraph::build(&c, &p, &Technology::nm40(), 2)
    }

    #[test]
    fn graph_hash_is_stable_and_content_sensitive() {
        let g = graph();
        assert_eq!(graph_hash(&g), graph_hash(&g));
        let c = benchmarks::ota1();
        let p = place(&c, PlacementVariant::B);
        let g2 = HeteroGraph::build(&c, &p, &Technology::nm40(), 2);
        assert_ne!(graph_hash(&g), graph_hash(&g2), "placement must matter");
        let mut g3 = graph();
        g3.scale += 1.0;
        assert_ne!(graph_hash(&g), graph_hash(&g3), "scale must matter");
    }

    #[test]
    fn value_hash_survives_json_round_trip() {
        let perf = Performance {
            offset_uv: 12.5,
            cmrr_db: 81.0,
            bandwidth_mhz: 55.125,
            dc_gain_db: 39.0625,
            noise_uvrms: 210.0,
        };
        let direct = content_hash_of(&perf);
        let text = serde_json::to_string(&perf).unwrap();
        let tree = serde_json::value_from_str(&text).unwrap();
        let mut h = ContentHasher::new();
        hash_value(&mut h, &tree);
        assert_eq!(direct, h.finish(), "hash must survive serialize→parse");
        // Sanity: the canonical tree itself round-trips.
        assert_eq!(perf.to_value(), tree);
    }

    #[test]
    fn int_uint_variants_hash_identically() {
        let mut a = ContentHasher::new();
        hash_value(&mut a, &serde::Value::Int(7));
        let mut b = ContentHasher::new();
        hash_value(&mut b, &serde::Value::UInt(7));
        assert_eq!(a.finish(), b.finish());
        let mut c = ContentHasher::new();
        hash_value(&mut c, &serde::Value::Int(-7));
        let mut d = ContentHasher::new();
        hash_value(&mut d, &serde::Value::UInt(7));
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn guidance_key_quantization_semantics() {
        let g = graph();
        let design = design_eval_hash(&g, &RouterConfig::default(), &SimConfig::default());
        let c1 = vec![1.0, 2.0, 3.0];
        let mut c2 = c1.clone();
        c2[0] += 1e-13;
        // Exact keying: any bit difference is a different key.
        assert_ne!(
            guidance_key(&design, &c1, 0.0),
            guidance_key(&design, &c2, 0.0)
        );
        // Quantized keying: grid neighbors collapse onto one key.
        assert_eq!(
            guidance_key(&design, &c1, 1e-6),
            guidance_key(&design, &c2, 1e-6)
        );
        // Different designs never share keys.
        let other = ContentHash::of_bytes(b"other design");
        assert_ne!(
            guidance_key(&design, &c1, 0.0),
            guidance_key(&other, &c1, 0.0)
        );
    }

    #[test]
    fn tensors_cached_reuses_the_prefix() {
        let g = graph();
        let a = tensors_cached(&g);
        let b = tensors_cached(&g);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same graph content must share one prefix"
        );
        assert_eq!(a.guidance_len(), GraphTensors::new(&g).guidance_len());
    }

    #[test]
    fn eval_cache_round_trips_and_spills() {
        let perf = Performance {
            offset_uv: 12.5,
            cmrr_db: 81.0,
            bandwidth_mhz: 55.5,
            dc_gain_db: 39.25,
            noise_uvrms: 210.0,
        };
        let key = ContentHash::of_bytes(b"sample");
        let dir = std::env::temp_dir().join(format!("af-evalcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = Arc::new(af_cache::persist::DirSpill::new(&dir).unwrap());

        let warm = EvalCache::new(4).with_spill(spill.clone());
        assert!(warm.lookup(&key).is_none());
        warm.store(key, &perf);
        assert_eq!(warm.lookup(&key).unwrap().as_array(), perf.as_array());

        // A fresh cache (fresh process, conceptually) hits through the spill
        // with the exact same bits.
        let resumed = EvalCache::new(4).with_spill(spill);
        let got = resumed.lookup(&key).unwrap();
        assert_eq!(got.as_array(), perf.as_array());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
