//! Stopwatches, scoped spans and the per-result stage breakdown.

use std::time::{Duration, Instant};

use crate::metrics::Histogram;

/// One clock read, kept to time a stage by hand where a [`Span`]'s
/// record-on-drop does not fit (the elapsed time is also stamped onto a
/// result, or recorded on another thread).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Nanoseconds since `start()`, saturated into `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// A scoped stage timer: created from [`Histogram::span`], it records the
/// elapsed nanoseconds into its histogram on drop. Because recording
/// happens in `Drop`, spans stay balanced (one record per entry) even when
/// the instrumented region panics and unwinds.
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    watch: Stopwatch,
}

impl Span {
    pub(crate) fn new(histogram: Histogram) -> Self {
        Self { histogram, watch: Stopwatch::start() }
    }

    /// Nanoseconds elapsed so far (the span keeps running; the final value
    /// recorded on drop includes time after this read).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.watch.elapsed_ns()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.watch.elapsed_ns());
    }
}

/// Where an answered request's milliseconds went, stamped onto every
/// `KernelResult` by the serving pipeline.
///
/// All durations are nanoseconds. Stages that did not run for a given
/// result stay zero — a cache-answered ticket reports only `queue_wait_ns`
/// and the (shared) `prepare_ns` of its drain group, for example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Time between the client stamping the request and the scheduler
    /// draining it out of the command channel.
    pub queue_wait_ns: u64,
    /// PBR preparation (both sides) for the request's drain group.
    pub prepare_ns: u64,
    /// The conjugate-gradient solve itself (zero for cache answers).
    pub solve_ns: u64,
    /// Folding the answer into the pair cache and the nodal side-cache.
    pub fold_ns: u64,
}

impl StageBreakdown {
    /// Sum of all stage durations in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.queue_wait_ns
            .saturating_add(self.prepare_ns)
            .saturating_add(self.solve_ns)
            .saturating_add(self.fold_ns)
    }

    /// Sum of all stage durations as a `Duration`.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns())
    }
}
