//! Seeded input generation: every schedule and request body the benchmark
//! sends is a pure function of the workload seed, so the same seed replays
//! the same inputs and the program never sees anything else.

/// A random stream over `afrt::split_seed`: draw `i` of a stream rooted at
/// `seed` is `split_seed(seed, i)`, the SplitMix64 sequence the program uses
/// to split its own seeds, so schedules do not depend on any library RNG.
#[derive(Debug, Clone)]
pub struct Rng {
    root: u64,
    index: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng {
            root: seed,
            index: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.index += 1;
        afrt::split_seed(self.root, self.index - 1)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A seed small enough to survive a JSON number exactly.
    pub fn json_seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }
}

/// An independent seed for sub-stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    afrt::split_seed(seed, stream)
}

/// Arrival offsets (seconds from the start) of a Poisson process with
/// `rate` arrivals per second over `[0, seconds)`.
pub fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    let mut t = 0.0;
    loop {
        t += -rng.next_f64().ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Distinct predict bodies in the repeated pool.
pub const POOL: usize = 16;
/// Share of predicts that repeat a pooled body. Hits and misses form two
/// latency modes a millisecond or more apart; at exactly one half the
/// median would sit in the gap between them and jump from run to run, so
/// slightly fewer than half repeat and the median stays inside the
/// uncached mode.
pub const POOLED_SHARE: f64 = 0.4;
/// Every `GUIDE_EVERY`-th arrival is a guide: one guide per 50 predicts.
pub const GUIDE_EVERY: usize = 51;

/// What one scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/v1/predict`; `pooled` bodies repeat from [`POOL`] (cache hits after
    /// their first use), the others are fresh.
    Predict { pooled: bool },
    /// `/v1/guide` with a fresh seed.
    Guide,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, seconds from the start of the phase.
    pub at_s: f64,
    pub kind: Kind,
    /// JSON body.
    pub body: String,
}

/// The guidance value range and length a predict body must have.
#[derive(Debug, Clone, Copy)]
pub struct GuidanceShape {
    pub len: usize,
    pub lo: f64,
    pub hi: f64,
}

/// A predict body with uniformly drawn guidance values.
pub fn predict_body(rng: &mut Rng, shape: GuidanceShape) -> String {
    let values: Vec<String> = (0..shape.len)
        .map(|_| format!("{:?}", shape.lo + (shape.hi - shape.lo) * rng.next_f64()))
        .collect();
    format!("{{\"guidance\":[{}]}}", values.join(","))
}

/// The `serve-mix` schedule: Poisson arrivals at `predict_rate` predicts per
/// second plus one guide per 50 predicts; [`POOLED_SHARE`] of the predicts
/// repeat a pooled body, the rest are fresh.
pub fn mix_plan(seed: u64, predict_rate: f64, seconds: f64, shape: GuidanceShape) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let pool: Vec<String> = (0..POOL).map(|_| predict_body(&mut rng, shape)).collect();
    let total_rate = predict_rate * GUIDE_EVERY as f64 / (GUIDE_EVERY - 1) as f64;
    poisson(&mut rng, total_rate, seconds)
        .into_iter()
        .enumerate()
        .map(|(i, at_s)| {
            if i % GUIDE_EVERY == GUIDE_EVERY - 1 {
                let body = format!("{{\"seed\":{}}}", rng.json_seed());
                return Arrival {
                    at_s,
                    kind: Kind::Guide,
                    body,
                };
            }
            let pooled = rng.next_f64() <= POOLED_SHARE;
            let body = if pooled {
                pool[(rng.next_u64() % POOL as u64) as usize].clone()
            } else {
                predict_body(&mut rng, shape)
            };
            Arrival {
                at_s,
                kind: Kind::Predict { pooled },
                body,
            }
        })
        .collect()
}

/// The `serve-route` schedule as `(due seconds, body)`: one `/v1/route` job
/// every `interval_s`, each with API-default parameters and a fresh seed.
pub fn route_plan(seed: u64, interval_s: f64, seconds: f64) -> Vec<(f64, String)> {
    let mut rng = Rng::new(seed);
    (0..)
        .map(|i| f64::from(i) * interval_s)
        .take_while(|&t| t < seconds)
        .map(|at_s| (at_s, format!("{{\"seed\":{}}}", rng.json_seed())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: GuidanceShape = GuidanceShape {
        len: 6,
        lo: 0.5,
        hi: 2.0,
    };

    #[test]
    fn same_seed_same_schedule_and_bodies() {
        assert_eq!(
            mix_plan(7, 100.0, 3.0, SHAPE),
            mix_plan(7, 100.0, 3.0, SHAPE)
        );
        assert_eq!(route_plan(7, 0.5, 4.0), route_plan(7, 0.5, 4.0));
        assert_ne!(
            mix_plan(7, 100.0, 3.0, SHAPE),
            mix_plan(8, 100.0, 3.0, SHAPE)
        );
        assert_ne!(route_plan(7, 0.5, 4.0), route_plan(8, 0.5, 4.0));
        assert_ne!(derive(7, 1), derive(7, 2));
    }

    #[test]
    fn mix_has_the_documented_shape() {
        let plan = mix_plan(3, 400.0, 20.0, SHAPE);
        let n = plan.len() as f64;
        let rate = n / 20.0;
        assert!(
            (rate - 400.0 * 51.0 / 50.0).abs() < 0.05 * 408.0,
            "rate {rate}"
        );
        assert!(plan.windows(2).all(|w| w[0].at_s < w[1].at_s));
        let guides = plan.iter().filter(|a| a.kind == Kind::Guide).count();
        assert_eq!(guides, plan.len() / GUIDE_EVERY);
        let pooled = plan
            .iter()
            .filter(|a| a.kind == Kind::Predict { pooled: true })
            .count() as f64;
        assert!((pooled / (n - guides as f64) - POOLED_SHARE).abs() < 0.05);
        let distinct_pooled: std::collections::BTreeSet<&str> = plan
            .iter()
            .filter(|a| a.kind == Kind::Predict { pooled: true })
            .map(|a| a.body.as_str())
            .collect();
        assert_eq!(distinct_pooled.len(), POOL);
        for a in &plan {
            if let Kind::Predict { .. } = a.kind {
                let inner = &a.body["{\"guidance\":[".len()..a.body.len() - 2];
                let values: Vec<f64> = inner.split(',').map(|v| v.parse().unwrap()).collect();
                assert_eq!(values.len(), SHAPE.len);
                assert!(values.iter().all(|v| (SHAPE.lo..=SHAPE.hi).contains(v)));
            }
        }
    }

    #[test]
    fn route_plan_is_evenly_spaced() {
        let plan = route_plan(1, 0.75, 3.0);
        let at: Vec<f64> = plan.iter().map(|a| a.0).collect();
        assert_eq!(at, vec![0.0, 0.75, 1.5, 2.25]);
    }
}
