//! The lock-free metrics registry: named counters and log-bucketed
//! histograms.
//!
//! Recording is wait-free — a counter bump is one relaxed `fetch_add`, a
//! histogram sample is two relaxed `fetch_add`s plus a `fetch_max` — so
//! instruments can sit on the engine's read hot path. The registry's only
//! lock guards *registration* (name → instrument lookup); callers hold the
//! returned `Arc` handles and never touch the map again.

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter. Cloning the `Arc` handle shares the value.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (relaxed).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter (relaxed).
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: the latest value of a level (bytes, pages) rather than a
/// running total. Cloning the `Arc` handle shares the value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Replaces the gauge's value (relaxed).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Log-bucketed histograms: 4 sub-buckets per octave, so every bucket's
/// width is at most 25% of its lower bound and the reported percentiles
/// carry bounded relative error. 256 buckets cover the full `u64` range.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
const BUCKETS: usize = 256;

/// Maps a sample to its bucket. Values below `SUBS` get exact buckets;
/// larger values land in `(octave, sub)` buckets that tile the range
/// contiguously (value 4 lands in bucket 4, 8 in bucket 8, …).
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (((octave - SUB_BITS + 1) as usize) * SUBS + sub).min(BUCKETS - 1)
}

/// The largest value that maps to bucket `idx` (the bound percentiles
/// report, so estimates err toward *over*-stating latency).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx / SUBS) as u32 + SUB_BITS - 1;
    let sub = (idx % SUBS) as u128;
    let step = 1u128 << (octave - SUB_BITS);
    // The top bucket's bound exceeds u64 — compute wide and clamp.
    (((1u128 << octave) + (sub + 1) * step - 1).min(u64::MAX as u128)) as u64
}

/// A lock-free latency/size histogram with logarithmic buckets.
///
/// Samples are `u64`s (the engine records microseconds or page counts).
/// Percentile estimates return the upper bound of the containing bucket —
/// within 25% of the true value by construction.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Records one sample (relaxed atomics only).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (mean = sum / count).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated `p`-th percentile (`p` in `0.0..=1.0`): the upper bound of
    /// the bucket containing the target rank. Returns 0 with no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// A point-in-time summary (count, sum, max, p50/p95/p99).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// A point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0.0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Serializes the summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.u64_field("count", self.count)
            .u64_field("sum", self.sum)
            .u64_field("max", self.max)
            .u64_field("p50", self.p50)
            .u64_field("p95", self.p95)
            .u64_field("p99", self.p99);
        w.finish()
    }
}

/// The instrument registry: dotted names → shared counter/gauge/histogram
/// handles.
///
/// Lookup-or-create takes a short mutex; the engine does it once per
/// instrument at construction time and keeps the `Arc` handles, so no
/// recording path ever contends here.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::default())),
        )
    }

    /// A consistent-enough point-in-time copy of every instrument (each
    /// value is read atomically; the set is whatever was registered at call
    /// time).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = {
            let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let gauges = {
            let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let histograms = {
            let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            map.iter().map(|(k, v)| (k.clone(), v.summary())).collect()
        };
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// A point-in-time copy of every registered instrument, plus any values the
/// caller injects (the engine folds in pager I/O statistics and per-table
/// calibration under reserved name prefixes).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The summary of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Every counter, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Every gauge, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Every histogram summary, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSummary)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Injects (or overwrites) a counter value — how the engine folds
    /// externally owned statistics (pager I/O counters, calibration totals)
    /// into one snapshot.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Serializes the snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, …}}}`.
    pub fn to_json(&self) -> String {
        let mut counters = JsonWriter::object();
        for (name, value) in &self.counters {
            counters.u64_field(name, *value);
        }
        let mut gauges = JsonWriter::object();
        for (name, value) in &self.gauges {
            gauges.u64_field(name, *value);
        }
        let mut histograms = JsonWriter::object();
        for (name, summary) in &self.histograms {
            histograms.raw_field(name, &summary.to_json());
        }
        let mut w = JsonWriter::object();
        w.raw_field("counters", &counters.finish())
            .raw_field("gauges", &gauges.finish())
            .raw_field("histograms", &histograms.finish());
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_contiguously_and_monotonically() {
        // Every value maps to a bucket whose upper bound is >= the value,
        // and bucket indices never decrease as values grow.
        let mut last_idx = 0;
        for v in (0..4096u64).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= last_idx || v < 4096, "non-monotone at {v}");
            assert!(bucket_upper(idx) >= v, "bucket {idx} upper < {v}");
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < v,
                    "value {v} should not fit bucket {}",
                    idx - 1
                );
            }
            last_idx = idx;
        }
    }

    #[test]
    fn percentiles_carry_bounded_relative_error() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p99 = h.percentile(0.99);
        assert!((500..=625).contains(&p50), "p50 {p50}");
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0);
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = Registry::new();
        let a = r.counter("scan.pages");
        let b = r.counter("scan.pages");
        a.add(3);
        b.incr();
        assert_eq!(r.counter("scan.pages").get(), 4);
        r.histogram("scan.micros").record(10);
        let snap = r.snapshot();
        assert_eq!(snap.counter("scan.pages"), Some(4));
        assert_eq!(snap.histogram("scan.micros").unwrap().count, 1);
    }

    #[test]
    fn snapshot_injection_and_json() {
        let r = Registry::new();
        r.counter("scan.rows").add(7);
        r.histogram("wal.fsync_micros").record(120);
        r.gauge("canonical.pages").set(9);
        r.gauge("canonical.pages").set(4);
        let mut snap = r.snapshot();
        assert_eq!(
            snap.gauge("canonical.pages"),
            Some(4),
            "a gauge keeps the last value"
        );
        snap.set_counter("io.pages_read", 55);
        let json = snap.to_json();
        assert!(json.contains("\"scan.rows\":7"));
        assert!(json.contains("\"io.pages_read\":55"));
        assert!(json.contains("\"gauges\":{\"canonical.pages\":4}"));
        assert!(json.contains("\"wal.fsync_micros\":{\"count\":1"));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(Registry::new());
        let c = r.counter("t");
        let h = r.histogram("h");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.incr();
                        h.record(i % 128);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
