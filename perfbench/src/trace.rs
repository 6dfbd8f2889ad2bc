//! The benchmark's own spans, kept in memory and written out at the end,
//! plus the digest of what the program itself recorded through `af-obs`.
//!
//! Benchmark spans wrap the public calls the benchmark makes (`place`,
//! `magical_route`, `AnalogFoldFlow::run`, `Server::bind`) and each
//! request's due → sent → response (or submit → done) interval. Recording
//! is off unless the run is traced, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use af_obs::{HistStat, MemorySink, SpanStat};

/// One recorded interval. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id for spans that belong to one request.
    pub request: Option<u64>,
}

struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

fn lock_spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    tracer()
        .spans
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
}

/// Turns recording of benchmark spans on or off.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    tracer().enabled.load(Ordering::SeqCst)
}

fn micros(t: Instant) -> f64 {
    t.saturating_duration_since(tracer().origin).as_secs_f64() * 1e6
}

/// Records a finished interval; returns its index (for children), or
/// `None` while recording is off.
pub fn record(
    name: &str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: Option<u64>,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    let mut spans = lock_spans();
    spans.push(Span {
        name: name.to_string(),
        start_us: micros(start),
        end_us: micros(end),
        parent,
        request,
    });
    Some(spans.len() - 1)
}

/// Opens a span that later spans can name as their parent; close it with
/// [`close`].
pub fn open(name: &str, parent: Option<usize>) -> Option<usize> {
    let now = Instant::now();
    record(name, now, now, parent, None)
}

/// Closes a span opened with [`open`].
pub fn close(idx: Option<usize>) {
    if let Some(i) = idx {
        let now = micros(Instant::now());
        lock_spans()[i].end_us = now;
    }
}

/// Runs `f` inside a span named `name`.
pub fn wrap<R>(name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    record(name, start, Instant::now(), parent, None);
    r
}

/// Takes every recorded span out of the buffer.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *lock_spans())
}

/// Total and self time (ms) per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut sum, mut cursor) = (0.0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            sum += e - s;
            cursor = e;
        }
    }
    sum
}

/// A span's self time is its duration minus the part of it that its
/// children cover; aggregated per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let total = (s.end_us - s.start_us).max(0.0);
        let own = total - covered(kids, s.start_us, s.end_us);
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ms += total / 1e3;
        e.self_ms += own / 1e3;
    }
    out
}

/// Spans as a JSON array (name, start, end, parent, request).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start_us,
            s.end_us,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request)
        );
    }
    out.push_str("\n]");
    out
}

/// What the program recorded through `af-obs` during the traced phase.
pub struct ObsDigest {
    pub spans: Vec<(String, SpanStat)>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistStat>,
    /// Individual close times (ms) per base span name (last path segment,
    /// instance suffix removed), from the memory sink's events.
    pub closes_ms: BTreeMap<String, Vec<f64>>,
}

/// Installs an `af-obs` memory sink, runs `f` with recording enabled, and
/// digests what the program recorded.
pub fn with_obs<R>(f: impl FnOnce() -> R) -> (R, ObsDigest) {
    let sink = Arc::new(MemorySink::new());
    let guard = af_obs::install(sink.clone());
    let r = f();
    let (spans, counters, hists) = af_obs::with_registry(|reg| {
        (
            reg.span_snapshot(),
            reg.counter_snapshot(),
            reg.hist_snapshot(),
        )
    })
    .expect("recording is enabled while the guard lives");
    drop(guard);
    let mut closes_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in sink.events() {
        if let af_obs::Event::Span { path, wall_us, .. } = e {
            closes_ms
                .entry(base_name(&path).to_string())
                .or_default()
                .push(wall_us as f64 / 1e3);
        }
    }
    let digest = ObsDigest {
        spans,
        counters: counters.into_iter().collect(),
        hists: hists.into_iter().collect(),
        closes_ms,
    };
    (r, digest)
}

/// Last path segment without its `#idx` instance suffix.
pub fn base_name(path: &str) -> &str {
    let last = path.rsplit('/').next().unwrap_or(path);
    last.split('#').next().unwrap_or(last)
}

impl ObsDigest {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Sum of the counters whose names start with `prefix`.
    pub fn counter_prefix(&self, prefix: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    }

    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.get(name)
    }

    /// Total seconds of every span path whose last segment is `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _)| base_name(p) == name)
            .map(|(_, s)| s.total_s)
            .sum()
    }

    /// Total seconds of spans named `name` nested (at any depth) under a
    /// span named `ancestor`.
    pub fn busy_under_s(&self, name: &str, ancestor: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(p, _)| {
                base_name(p) == name && p.rsplit('/').skip(1).any(|seg| base_name(seg) == ancestor)
            })
            .map(|(_, s)| s.total_s)
            .sum()
    }

    /// Self seconds per span name: each path's total minus its direct
    /// children's totals (floored at zero, since children that ran on
    /// several pool threads at once can add up to more than their parent's
    /// wall time).
    pub fn self_s_by_name(&self) -> BTreeMap<String, f64> {
        let mut child_total: BTreeMap<&str, f64> = BTreeMap::new();
        for (p, s) in &self.spans {
            if let Some((parent, _)) = p.rsplit_once('/') {
                *child_total.entry(parent).or_default() += s.total_s;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (p, s) in &self.spans {
            let own = (s.total_s - child_total.get(p.as_str()).copied().unwrap_or(0.0)).max(0.0);
            *out.entry(base_name(p).to_string()).or_default() += own;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("req", 0.0, 10_000.0, None),
            span("sent", 2_000.0, 6_000.0, Some(0)),
            span("sent", 4_000.0, 8_000.0, Some(0)),
            span("other", 9_000.0, 12_000.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["req"].count, 1);
        assert!((t["req"].total_ms - 10.0).abs() < 1e-9);
        // children cover 2..8 and 9..10 (clipped) of 0..10 ms
        assert!((t["req"].self_ms - 3.0).abs() < 1e-9);
        assert!((t["sent"].total_ms - 8.0).abs() < 1e-9);
        assert!((t["sent"].self_ms - 8.0).abs() < 1e-9);
    }

    #[test]
    fn base_name_strips_path_and_instance() {
        assert_eq!(
            base_name("flow/training/generate_dataset/sample#3"),
            "sample"
        );
        assert_eq!(base_name("relax"), "relax");
    }
}
