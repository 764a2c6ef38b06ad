//! The three metric primitives: counters, gauges and log-scaled histograms.
//!
//! Every handle is a cheap `Arc` clone around lock-free atomics, so hot
//! paths record without taking a lock and without allocating.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::span::Span;

/// Number of histogram buckets: one per power-of-two magnitude of a `u64`
/// value, plus a dedicated zero bucket at index 0.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` holds only zero, and bucket `k`
/// (for `k >= 1`) holds values in `[2^(k-1), 2^k)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of a bucket.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Exclusive upper bound of a bucket (`u64::MAX` for the last bucket,
/// which is closed on the right by construction).
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell: all clones observe and contribute
/// to the same total. The default value is zero.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[inline]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement that can move both ways (queue depth,
/// arithmetic intensity). Stored as `f64` bits in an atomic, matching the
/// Prometheus gauge type.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh, unregistered gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the current value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) with a compare-and-swap loop.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// RAII in-flight tracker: increments now, decrements on drop — also
    /// during unwinding, so panicking work cannot leak a raised gauge.
    pub fn track(&self) -> InflightGuard {
        self.inc();
        InflightGuard { gauge: self.clone() }
    }
}

/// Guard returned by [`Gauge::track`]; decrements the gauge when dropped.
#[derive(Debug)]
pub struct InflightGuard {
    gauge: Gauge,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

#[derive(Debug)]
struct HistogramCells {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sums: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCells {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A fixed-bucket, log2-scaled latency histogram.
///
/// Values (nanoseconds, by convention) land in one of 65 power-of-two
/// buckets; each bucket keeps both a count and a sum so quantile readout
/// can report the *mean of the target bucket* — exact whenever a bucket
/// holds a single distinct value, and always inside the bucket's bounds
/// otherwise ("exact within bucket").
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// A fresh, unregistered histogram with empty buckets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let b = bucket_index(value);
        self.cells.counts[b].fetch_add(1, Ordering::Relaxed);
        self.cells.sums[b].fetch_add(value, Ordering::Relaxed);
    }

    /// Start a scoped span: the elapsed nanoseconds are recorded into this
    /// histogram when the returned guard drops, including during panic
    /// unwinding, so spans stay balanced on error paths.
    pub fn span(&self) -> Span {
        Span::new(self.clone())
    }

    /// Point-in-time copy of all buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for b in 0..HISTOGRAM_BUCKETS {
            snap.counts[b] = self.cells.counts[b].load(Ordering::Relaxed);
            snap.sums[b] = self.cells.sums[b].load(Ordering::Relaxed);
        }
        snap
    }
}

/// Immutable bucket contents captured from a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket.
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Sum of observed values per bucket.
    pub sums: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { counts: [0; HISTOGRAM_BUCKETS], sums: [0; HISTOGRAM_BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sums.iter().sum()
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) as the mean of the bucket holding
    /// the rank-selected observation, or `None` if the histogram is empty.
    ///
    /// The rank convention matches the nearest-rank percentile the bench
    /// harness uses on raw samples: `rank = round((count - 1) * p)`.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((total - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for b in 0..HISTOGRAM_BUCKETS {
            let c = self.counts[b];
            if c > 0 && rank < seen + c {
                return Some(self.sums[b] / c);
            }
            seen += c;
        }
        // Unreachable: rank < total and the loop covers every observation.
        None
    }

    /// Bucket-wise difference `self - earlier` (saturating), for isolating
    /// one measurement phase out of a long-lived histogram.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for b in 0..HISTOGRAM_BUCKETS {
            out.counts[b] = self.counts[b].saturating_sub(earlier.counts[b]);
            out.sums[b] = self.sums[b].saturating_sub(earlier.sums[b]);
        }
        out
    }
}

/// Live bytes/flops totals plus the derived arithmetic-intensity gauge —
/// the Roofline x-axis of the serving hot path, updated per solve.
#[derive(Debug, Clone)]
pub struct TrafficTotals {
    /// Global-memory bytes moved (loads + stores), accumulated per solve.
    pub bytes: Counter,
    /// Floating-point operations, accumulated per solve.
    pub flops: Counter,
    /// Running `flops / bytes` over everything recorded so far.
    pub intensity: Gauge,
}

impl TrafficTotals {
    /// Bundle three fresh, unregistered cells (registries hand out
    /// registered ones via `MetricsRegistry`-backed constructors upstream).
    pub fn new(bytes: Counter, flops: Counter, intensity: Gauge) -> Self {
        Self { bytes, flops, intensity }
    }

    /// Fold one solve's traffic into the totals and refresh the intensity
    /// gauge from the new running sums.
    pub fn record(&self, bytes: u64, flops: u64) {
        self.bytes.add(bytes);
        self.flops.add(flops);
        let total_bytes = self.bytes.value();
        if total_bytes > 0 {
            self.intensity.set(self.flops.value() as f64 / total_bytes as f64);
        }
    }
}
