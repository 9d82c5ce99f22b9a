//! The metric registry: named counters, histograms, and timing spans
//! behind one short mutex, with deterministic (sorted) export.

use crate::histogram::Histogram;
use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Aggregate wall-clock statistics of one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed span instances.
    pub count: u64,
    /// Total time across instances, in nanoseconds.
    pub total_ns: u64,
    /// Slowest single instance, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// A point-in-time copy of everything a [`Registry`] holds.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span statistics by name.
    pub spans: BTreeMap<String, SpanStats>,
}

/// A thread-safe metric registry.
///
/// All methods take `&self`; aggregation happens under one short mutex.
/// Hot loops should batch locally and flush per layer/stage rather than
/// call per event (see the crate docs).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn compose(name: &str, label: &str) -> String {
    let mut key = String::with_capacity(name.len() + 1 + label.len());
    key.push_str(name);
    key.push('/');
    key.push_str(label);
    key
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the maps in a
        // half-updated state (every update is a single aggregate op), so
        // recover from poisoning instead of cascading.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `v` to the named counter (created at 0 on first use).
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(v),
            None => {
                inner.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Adds `v` to the `name/label` counter.
    pub fn counter_add_labeled(&self, name: &str, label: &str, v: u64) {
        self.counter_add(&compose(name, label), v);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Records `v` into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Folds a locally-accumulated histogram into the named one — the
    /// flush half of the batch-locally pattern.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.count() == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(existing) => existing.merge(h),
            None => {
                inner.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Records a completed span of `ns` nanoseconds under `name`.
    pub fn record_span_ns(&self, name: &str, ns: u64) {
        let mut inner = self.lock();
        match inner.spans.get_mut(name) {
            Some(s) => s.record(ns),
            None => {
                let mut s = SpanStats::default();
                s.record(ns);
                inner.spans.insert(name.to_string(), s);
            }
        }
    }

    /// Folds locally-timed instances of the named span into it — the flush
    /// half of [`SpanBatch`].
    pub fn merge_span(&self, name: &str, stats: &SpanStats) {
        if stats.count == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.spans.get_mut(name) {
            Some(s) => s.merge(stats),
            None => {
                inner.spans.insert(name.to_string(), *stats);
            }
        }
    }

    /// Starts a wall-clock span recorded (on drop) under `name`.
    pub fn span(self: &Arc<Registry>, name: &'static str) -> SpanTimer {
        SpanTimer::start(Some(Arc::clone(self)), name, None)
    }

    /// Starts a span recorded under `name/label`.
    pub fn span_labeled(self: &Arc<Registry>, name: &'static str, label: &str) -> SpanTimer {
        SpanTimer::start(Some(Arc::clone(self)), name, Some(label.to_string()))
    }

    /// Copies out every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
        }
    }

    /// Serializes the registry as a JSON object with `counters`,
    /// `histograms`, and `spans` sections (sorted keys; see
    /// [`Snapshot::write_json`] for the schema).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.snapshot().write_json(&mut w);
        w.finish()
    }
}

impl Snapshot {
    /// Writes the snapshot as one JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 1},
    ///   "histograms": {"name": {"count": 1, "sum": 2, "min": 2, "max": 2,
    ///                            "mean": 2.0, "p50": 3, "p99": 3}},
    ///   "spans": {"name": {"count": 1, "total_ms": 0.5, "max_ms": 0.5}}
    /// }
    /// ```
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            w.begin_object();
            w.field_u64("count", h.count());
            w.field_u64("sum", h.sum());
            w.field_u64("min", h.min());
            w.field_u64("max", h.max());
            w.field_f64("mean", h.mean());
            w.field_u64("p50", h.quantile(0.5));
            w.field_u64("p99", h.quantile(0.99));
            w.end_object();
        }
        w.end_object();
        w.key("spans");
        w.begin_object();
        for (name, s) in &self.spans {
            w.key(name);
            w.begin_object();
            w.field_u64("count", s.count);
            w.field_f64("total_ms", s.total_ms());
            w.field_f64("max_ms", s.max_ns as f64 / 1e6);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
}

/// A wall-clock timer recording into a registry when dropped.
///
/// When constructed without a registry (the uninstalled-global case) it
/// holds nothing and never reads the clock.
#[derive(Debug)]
pub struct SpanTimer {
    target: Option<(Arc<Registry>, Instant)>,
    name: &'static str,
    label: Option<String>,
}

impl SpanTimer {
    /// Starts a span against `reg` (or a no-op timer when `None`).
    pub fn start(reg: Option<Arc<Registry>>, name: &'static str, label: Option<String>) -> Self {
        SpanTimer {
            target: reg.map(|r| (r, Instant::now())),
            name,
            label,
        }
    }
}

/// Many short instances of one span, timed locally and recorded into a
/// registry in one flush when the batch drops: per instance a hot loop
/// pays two clock reads instead of a registry lock. Instance count, total
/// and slowest instance come out exactly as if each had been a
/// [`SpanTimer`].
///
/// Without a registry it holds nothing and never reads the clock.
#[derive(Debug)]
pub struct SpanBatch {
    target: Option<Arc<Registry>>,
    name: &'static str,
    stats: SpanStats,
}

impl SpanBatch {
    /// Starts a batch against `reg` (or a no-op batch when `None`).
    pub fn start(reg: Option<Arc<Registry>>, name: &'static str) -> Self {
        SpanBatch {
            target: reg,
            name,
            stats: SpanStats::default(),
        }
    }

    /// Runs `f` as one instance of the span.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.target.is_none() {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.stats
            .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        r
    }
}

impl Drop for SpanBatch {
    fn drop(&mut self) {
        if let Some(reg) = self.target.take() {
            reg.merge_span(self.name, &self.stats);
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((reg, start)) = self.target.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            match &self.label {
                Some(l) => reg.record_span_ns(&compose(self.name, l), ns),
                None => reg.record_span_ns(self.name, ns),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add_labeled("a", "x", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("a/x"), 1);
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter("a"), u64::MAX);
    }

    #[test]
    fn histograms_and_merge() {
        let r = Registry::new();
        r.observe("h", 4);
        let mut local = Histogram::new();
        local.observe(8);
        local.observe(2);
        r.merge_histogram("h", &local);
        r.merge_histogram("h", &Histogram::new()); // empty: no-op
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].count(), 3);
        assert_eq!(snap.histograms["h"].sum(), 14);
    }

    #[test]
    fn spans_record_on_drop() {
        let r = Arc::new(Registry::new());
        {
            let _t = r.span("s");
        }
        {
            let _t = r.span_labeled("s", "lbl");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["s"].count, 1);
        assert_eq!(snap.spans["s/lbl"].count, 1);
    }

    #[test]
    fn span_batch_flushes_once_as_separate_spans_would() {
        let r = Arc::new(Registry::new());
        drop(r.span("b"));
        {
            let mut batch = SpanBatch::start(Some(Arc::clone(&r)), "b");
            assert_eq!(batch.time(|| 7), 7);
            batch.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
            // Nothing reaches the registry before the batch drops.
            assert_eq!(r.snapshot().spans["b"].count, 1);
        }
        let s = r.snapshot().spans["b"];
        assert_eq!(s.count, 3);
        assert!(s.max_ns >= 2_000_000 && s.total_ns >= s.max_ns);

        // Without a registry the batch only runs the closures; an empty
        // batch records nothing.
        let mut none = SpanBatch::start(None, "n");
        assert_eq!(none.time(|| 3), 3);
        drop(none);
        drop(SpanBatch::start(Some(Arc::clone(&r)), "e"));
        assert!(!r.snapshot().spans.contains_key("e"));
    }

    #[test]
    fn json_export_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 2);
        r.observe("h", 5);
        r.record_span_ns("sp", 1_500_000);
        let json = r.to_json();
        assert!(json.contains("\"a\": 2"));
        let a = json.find("\"a\": 2").unwrap();
        let z = json.find("\"z\": 1").unwrap();
        assert!(a < z, "keys must be sorted: {json}");
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"total_ms\": 1.5"));
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("n", 1);
                        r.observe("h", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("n"), 8000);
        assert_eq!(r.snapshot().histograms["h"].count(), 8000);
    }
}
