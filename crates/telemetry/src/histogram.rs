//! Lock-free log-bucketed quantile histograms.
//!
//! An HDR-style layout with **two sub-buckets per power-of-two octave**: a
//! value `v ≥ 2` lands in bucket `2·⌊log₂ v⌋` or the next one up, depending
//! on the bit below the leading one, so every bucket spans at most half of
//! its octave. Quantile estimates take the bucket midpoint (clamped to the
//! recorded min/max), which bounds the relative error at 25 % — one bucket
//! — while the whole histogram is 128 atomics, independent of how many
//! values it has absorbed. `record` is five relaxed atomic operations and
//! never allocates or locks, so it is safe on the scheduler's hot path.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Buckets in a [`Histogram`]: two per octave over the full `u64` range
/// (bucket 0 is the value 0, bucket 1 the value 1, bucket 127 ends at
/// `u64::MAX`).
pub const BUCKET_COUNT: usize = 128;

/// The bucket a value lands in.
pub fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        1 => 1,
        v => {
            let h = 63 - v.leading_zeros() as usize;
            2 * h + ((v >> (h - 1)) & 1) as usize
        }
    }
}

/// The inclusive `(low, high)` value range of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    match index {
        0 => (0, 0),
        1 => (1, 1),
        i => {
            let h = i / 2;
            let half = 1u64 << (h - 1);
            let low = (1u64 << h) + if i % 2 == 1 { half } else { 0 };
            // `low + half - 1` would overflow for the top bucket; reorder so
            // the intermediate stays ≤ u64::MAX.
            (low, low - 1 + half)
        }
    }
}

/// A `Duration` in whole microseconds, saturating at `u64::MAX` instead of
/// silently truncating the high bits the way `as_micros() as u64` does
/// (`Duration` can hold ~10^19 µs; a `u64` cannot).
pub fn saturating_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A lock-free log-bucketed histogram over `u64` values.
///
/// Writers call [`record`](Self::record) concurrently from any thread;
/// readers take a [`snapshot`](Self::snapshot). Buckets are read one by
/// one, so a snapshot taken during concurrent writes may miss a few
/// events, but it is always self-consistent (see `snapshot`).
///
/// The running `sum` wraps on overflow after ~1.8 × 10¹⁹ recorded
/// microseconds (≈ 585 000 device-years of latency) — accepted for a
/// monitoring counter.
pub struct Histogram {
    counts: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value. Lock-free; callable from any thread.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in saturating whole microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(saturating_micros(d));
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds another histogram's current contents into this one.
    pub fn merge(&self, other: &Histogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds a snapshot's contents into this histogram.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for (bucket, &n) in self.counts.iter().zip(snap.counts.iter()) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Estimated `q`-quantile of the recorded values (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Clears every bucket and aggregate back to the empty state.
    ///
    /// Not atomic with respect to concurrent writers — a racing `record`
    /// may survive or be partially dropped. Use only at quiescent points
    /// (test setup, counter-reset endpoints), like every other `reset` in
    /// this workspace.
    pub fn reset(&self) {
        for bucket in &self.counts {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of every bucket and aggregate.
    ///
    /// Self-consistent even while [`record`](Self::record) runs on other
    /// threads: `count` is the sum of the buckets read, and when a racing
    /// `record` has left the exact `min`/`max` outside the first/last
    /// non-empty bucket (or `min > max`), they fall back to those buckets'
    /// bounds.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        let occupied = |&n: &u64| n > 0;
        let (Some(first), Some(last)) = (
            counts.iter().position(occupied),
            counts.iter().rposition(occupied),
        ) else {
            return HistogramSnapshot::default();
        };
        let (low, high) = (bucket_bounds(first).0, bucket_bounds(last).1);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let min = if bucket_index(min) == first { min } else { low };
        let max = if bucket_index(max) == last { max } else { high };
        let (min, max) = if min <= max { (min, max) } else { (low, high) };
        HistogramSnapshot {
            counts,
            count: counts.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A point-in-time copy of a [`Histogram`].
///
/// `Copy` on purpose: the service's metrics snapshot embeds these by value,
/// so frontends get one consistent document without reference lifetimes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_bounds`] for each bucket's range).
    pub counts: [u64; BUCKET_COUNT],
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wrapping, see [`Histogram`]).
    pub sum: u64,
    /// Smallest recorded value (0 while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`; 0 while empty).
    ///
    /// Exact to the bucket: the returned value is the midpoint of the
    /// bucket holding the ⌈q·count⌉-th smallest recorded value, clamped to
    /// the recorded `[min, max]` — within 25 % relative error of the exact
    /// order statistic by the two-sub-buckets-per-octave layout. `q ≤ 0`
    /// and `q ≥ 1` return the exactly-tracked `min` and `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The extremes are tracked exactly; don't degrade them to a bucket
        // midpoint.
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (low, high) = bucket_bounds(i);
                let mid = low + (high - low) / 2;
                // `clamp` panics when min > max, which a hand-built
                // snapshot may hold; keep the midpoint then.
                return if self.min <= self.max {
                    mid.clamp(self.min, self.max)
                } else {
                    mid
                };
            }
        }
        self.max
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending order — the sparse form Prometheus `_bucket` series are
    /// rendered from.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_bounds(i).1, n))
    }
}

impl fmt::Debug for HistogramSnapshot {
    // 128 bucket counts would drown every dbg! site; summarize instead.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exhaustive_and_ordered() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 3);
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(6), 5);
        assert_eq!(bucket_index(7), 5);
        assert_eq!(bucket_index(8), 6);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        // Bounds tile the u64 range exactly: each bucket starts right after
        // the previous one ends, and every value maps into its own bucket.
        let mut expected_low = 0u64;
        for i in 0..BUCKET_COUNT {
            let (low, high) = bucket_bounds(i);
            assert_eq!(low, expected_low, "bucket {i} starts where the last ended");
            assert!(low <= high);
            assert_eq!(bucket_index(low), i);
            assert_eq!(bucket_index(high), i);
            expected_low = high.wrapping_add(1);
        }
        assert_eq!(expected_low, 0, "last bucket ends at u64::MAX");
    }

    #[test]
    fn record_tracks_aggregates() {
        let h = Histogram::new();
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().min, 0, "empty snapshot reports min 0");
        for v in [5u64, 10, 10, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(h.count(), 4);
        assert_eq!(snap.sum, 1025);
        assert_eq!(snap.min, 5);
        assert_eq!(snap.max, 1000);
        assert!((snap.mean() - 256.25).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let est = snap.quantile(q) as f64;
            let err = (est - exact).abs() / exact;
            assert!(err <= 0.25, "q={q}: est {est} vs exact {exact} (err {err})");
        }
        // Extremes clamp to the recorded min/max.
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), 10_000);
        assert_eq!(snap.quantile(-3.0), 1);
        assert_eq!(snap.quantile(7.0), 10_000);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
            all.record(v);
        }
        for v in 400..=900u64 {
            b.record(v * 3);
            all.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), all.snapshot());
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::new());
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i + 1);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 40_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 40_000);
        assert_eq!(snap.sum, 40_000 * 40_001 / 2);
        assert_eq!(snap.counts.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let h = Histogram::new();
        for v in [3u64, 9, 81] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        // Recording after a reset behaves like a fresh histogram.
        h.record(42);
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.min, snap.max), (1, 42, 42));
    }

    #[test]
    fn saturating_micros_does_not_truncate() {
        assert_eq!(saturating_micros(Duration::ZERO), 0);
        assert_eq!(saturating_micros(Duration::from_micros(1_234)), 1_234);
        // Duration::MAX is ~5.8e12 years ≈ 1.8e25 µs — far past u64::MAX
        // (~1.8e19). `as_micros() as u64` silently keeps the low 64 bits;
        // the helper must saturate instead.
        assert_eq!(saturating_micros(Duration::MAX), u64::MAX);
        let over_u64 = Duration::from_secs(u64::MAX / 1_000_000 + 10);
        assert!(over_u64.as_micros() > u128::from(u64::MAX));
        assert_eq!(saturating_micros(over_u64), u64::MAX);
    }

    #[test]
    fn extreme_values_round_trip() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(1.0), u64::MAX);
        let debug = format!("{snap:?}");
        assert!(debug.contains("count"), "debug form is a summary: {debug}");
    }

    #[test]
    fn torn_snapshots_do_not_panic_in_quantile() {
        let mut torn = HistogramSnapshot {
            count: 1,
            sum: 7,
            min: u64::MAX,
            max: 0,
            ..HistogramSnapshot::default()
        };
        assert_eq!(torn.quantile(0.5), 0, "no bucket holds the rank");
        torn.counts[bucket_index(7)] = 1;
        assert_eq!(torn.quantile(0.5), 6, "the bucket midpoint");
    }

    #[test]
    fn snapshots_racing_records_are_self_consistent() {
        // One writer fills fresh histograms; the reader snapshots whichever
        // one is being written, where a torn read is most likely.
        const HISTOGRAMS: usize = 2_000;
        let histograms: Vec<Histogram> = (0..HISTOGRAMS).map(|_| Histogram::new()).collect();
        let current = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, h) in histograms.iter().enumerate() {
                    current.store(i, Ordering::Relaxed);
                    h.record(1_000 + i as u64);
                    h.record(i as u64);
                }
                current.store(HISTOGRAMS, Ordering::Relaxed);
            });
            loop {
                let i = current.load(Ordering::Relaxed);
                let Some(h) = histograms.get(i) else { break };
                let snap = h.snapshot();
                assert_eq!(snap.counts.iter().sum::<u64>(), snap.count, "{snap:?}");
                assert!(snap.min <= snap.max, "{snap:?}");
                let p50 = snap.quantile(0.5);
                assert!(snap.count == 0 || (snap.min..=snap.max).contains(&p50));
            }
        });
    }
}
