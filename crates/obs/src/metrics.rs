//! Thread-safe metrics registry: counters, gauges, and log-linear
//! histograms with quantile estimation.
//!
//! All metric handles are cheap to update from multiple threads:
//! counters and gauges are single atomics, histograms take a short
//! mutex only to bump a bucket. Snapshots are consistent per-metric
//! (not across metrics), which is all the reporting paths need.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;

/// Number of mantissa sub-bits per power-of-two octave.
///
/// 3 sub-bits → 8 sub-buckets per octave → relative bucket width of
/// `2^(1/8) - 1 ≈ 9%`, so any representative value is within ~9% of
/// every sample in its bucket.
const SUB_BITS: u32 = 3;
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;
/// Bucket index space: bucket 0 holds zero/negative samples; the rest
/// cover the full positive f64 exponent range.
const NUM_BUCKETS: usize = 1 + (2048 << SUB_BITS);

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest observed integer value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-linear histogram over non-negative `f64` samples.
///
/// Buckets are spaced geometrically: each power-of-two octave is split
/// into [`SUBS_PER_OCTAVE`] linear sub-buckets, giving ≤ ~9% relative
/// error on any quantile while using sparse storage (only touched
/// buckets are stored). Exact `count`, `sum`, `min` and `max` are kept
/// alongside the buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    state: Mutex<HistState>,
}

#[derive(Debug, Default, Clone)]
struct HistState {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Maps a sample to its bucket index.
///
/// Zero, negative, and non-finite-negative samples land in bucket 0;
/// positive samples use the f64 exponent plus the top mantissa bits.
fn bucket_index(v: f64) -> u32 {
    if v <= 0.0 || v.is_nan() {
        return 0;
    }
    let bits = v.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let sub = (bits >> (52 - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    let idx = 1 + ((exp << SUB_BITS) | sub);
    (idx as u32).min((NUM_BUCKETS - 1) as u32)
}

/// The geometric midpoint of a bucket — the representative value
/// reported for quantiles landing in it.
fn bucket_mid(idx: u32) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let raw = u64::from(idx - 1);
    let exp = raw >> SUB_BITS;
    let sub = raw & ((1 << SUB_BITS) - 1);
    let lo = f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)));
    let hi_sub = sub + 1;
    let hi = if hi_sub == SUBS_PER_OCTAVE as u64 {
        f64::from_bits(((exp + 1) << 52).min(0x7fe0_0000_0000_0000))
    } else {
        f64::from_bits((exp << 52) | (hi_sub << (52 - SUB_BITS)))
    };
    if !lo.is_finite() || !hi.is_finite() {
        return f64::MAX;
    }
    (lo * hi).sqrt().max(lo)
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v };
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *st.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if st.count == 0 {
            st.min = v;
            st.max = v;
        } else {
            st.min = st.min.min(v);
            st.max = st.max.max(v);
        }
        st.count += 1;
        st.sum += v;
    }

    /// A point-in-time copy of the histogram's statistics.
    pub fn snapshot(&self) -> HistSnapshot {
        let st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        HistSnapshot {
            count: st.count,
            sum: st.sum,
            min: if st.count == 0 { 0.0 } else { st.min },
            max: if st.count == 0 { 0.0 } else { st.max },
            buckets: st.buckets.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }
}

/// A consistent snapshot of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 if empty).
    pub min: f64,
    /// Largest sample (0 if empty).
    pub max: f64,
    /// Sparse `(bucket index, count)` pairs in ascending index order.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges `other` into `self`, bucket-wise.
    ///
    /// Both snapshots must come from histograms using the same bucket
    /// boundaries. Boundaries are a compile-time property of this
    /// module (`SUB_BITS`), so that holds for any two `clk-obs`
    /// snapshots; the assertion guards against feeding in buckets from
    /// a foreign or corrupted source (e.g. a deserialized snapshot with
    /// out-of-range indices). This is the aggregation primitive for
    /// per-thread histograms once the flow parallelizes.
    ///
    /// # Panics
    ///
    /// Panics when `other` holds a bucket index outside this module's
    /// bucket space (a boundary mismatch).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for &(idx, _) in &other.buckets {
            assert!(
                (idx as usize) < NUM_BUCKETS,
                "bucket index {idx} out of range: mismatched histogram boundaries"
            );
        }
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Uses the nearest-rank definition `k = max(1, ceil(q·n))` and
    /// returns the geometric midpoint of the bucket holding rank `k`,
    /// clamped into `[min, max]` so the tails are exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One entry in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistSnapshot),
}

/// A point-in-time dump of every registered metric, keyed by name.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Renders a metrics snapshot as a JSON object, summarizing histograms
/// to `count/sum/min/max/mean/p50/p95/p99`.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> Value {
    let mut pairs = Vec::with_capacity(snap.len());
    for (name, v) in snap {
        let jv = match v {
            MetricValue::Counter(c) => Value::from(*c),
            MetricValue::Gauge(g) => Value::from(*g),
            MetricValue::Histogram(h) => Value::Obj(vec![
                ("count".to_string(), Value::from(h.count)),
                ("sum".to_string(), Value::from(h.sum)),
                ("min".to_string(), Value::from(h.min)),
                ("max".to_string(), Value::from(h.max)),
                ("mean".to_string(), Value::from(h.mean())),
                ("p50".to_string(), Value::from(h.quantile(0.50))),
                ("p95".to_string(), Value::from(h.quantile(0.95))),
                ("p99".to_string(), Value::from(h.quantile(0.99))),
            ]),
        };
        pairs.push((name.clone(), jv));
    }
    Value::Obj(pairs)
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics.
///
/// Lookup takes a short mutex; the returned `Arc` handles can then be
/// updated lock-free (counters/gauges) or near-lock-free (histograms)
/// without touching the registry again. Re-registering a name with the
/// same kind returns the existing metric; a kind mismatch panics in
/// debug builds and returns a detached metric in release builds.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Registry {
    /// The metric of kind `pick` registered under `name`, created by
    /// `wrap` if absent. The name is looked up as a `&str`; a key is
    /// allocated only when the metric is inserted.
    fn metric<T: Default>(
        &self,
        name: &str,
        wrap: fn(Arc<T>) -> Metric,
        pick: fn(&Metric) -> Option<&Arc<T>>,
    ) -> Arc<T> {
        let mut m = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(found) = m.get(name) {
            return match pick(found) {
                Some(metric) => Arc::clone(metric),
                None => {
                    debug_assert!(false, "metric kind mismatch for {name}");
                    Arc::default()
                }
            };
        }
        let metric = Arc::<T>::default();
        m.insert(name.to_string(), wrap(Arc::clone(&metric)));
        metric
    }

    /// The counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.metric(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        })
    }

    /// The gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.metric(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        })
    }

    /// The histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.metric(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        })
    }

    /// Snapshots every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        m.iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_width_bounds_quantile_error() {
        let h = Histogram::default();
        for i in 1..=1000u32 {
            h.observe(f64::from(i) * 0.37);
        }
        let snap = h.snapshot();
        let mut sorted: Vec<f64> = (1..=1000u32).map(|i| f64::from(i) * 0.37).collect();
        sorted.sort_by(f64::total_cmp);
        for &q in &[0.01f64, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let rank = ((q * 1000.0).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            assert!(
                (est - exact).abs() <= exact * 0.10 + 1e-12,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_and_negative_samples_share_bucket_zero() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.5), 0);
        assert_eq!(bucket_index(f64::NEG_INFINITY), 0);
        assert!(bucket_index(1e-300) > 0);
    }

    #[test]
    fn snapshot_tracks_exact_aggregates() {
        let h = Histogram::default();
        for v in [4.0, 1.0, 9.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert!((s.sum - 14.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 9.0).abs() < 1e-12);
        assert!((s.mean() - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_bucket_wise_sum() {
        let (a, b) = (Histogram::default(), Histogram::default());
        for v in [1.0, 2.0, 400.0] {
            a.observe(v);
        }
        for v in [0.5, 2.0, 2.0] {
            b.observe(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        // reference: one histogram fed all six samples
        let all = Histogram::default();
        for v in [1.0, 2.0, 400.0, 0.5, 2.0, 2.0] {
            all.observe(v);
        }
        assert_eq!(m, all.snapshot());
        assert_eq!(m.count, 6);
        assert!((m.sum - 407.5).abs() < 1e-12);
        assert!((m.min - 0.5).abs() < 1e-12);
        assert!((m.max - 400.0).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let h = Histogram::default();
        h.observe(3.0);
        let snap = h.snapshot();
        let mut a = snap.clone();
        a.merge(&HistSnapshot::default());
        assert_eq!(a, snap);
        let mut b = HistSnapshot::default();
        b.merge(&snap);
        assert_eq!(b, snap);
    }

    #[test]
    #[should_panic(expected = "mismatched histogram boundaries")]
    fn merge_rejects_foreign_boundaries() {
        let mut a = HistSnapshot::default();
        let foreign = HistSnapshot {
            count: 1,
            sum: 1.0,
            min: 1.0,
            max: 1.0,
            buckets: vec![(u32::MAX, 1)],
        };
        a.merge(&foreign);
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.snapshot().len(), 1);
    }
}
