//! The runtime's typed telemetry hub: every counter, gauge and stage
//! histogram the serving stack records, pre-registered in one
//! [`MetricsRegistry`] and held as cached lock-free handles.
//!
//! One hub is created per [`GramService`](crate::GramService); the
//! scheduler and its clients share it (handles are `Arc`-backed, cloning
//! is cheap and clones observe the same cells).
//! [`ServiceStats`](crate::ServiceStats) (and every legacy getter such as
//! `SnapshotWatch::snapshot_builds`) is now a thin view assembled from these
//! cells — one capture path, no parallel bookkeeping.

use std::sync::Arc;

use mgk_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, TrafficTotals};

/// Metric names exported by the serving stack, kept in one place so tests,
/// docs and exposition consumers agree on the vocabulary.
pub mod names {
    /// Structures admitted (counter).
    pub const ADMITTED: &str = "mgk_structures_admitted_total";
    /// Flush-lane pair solves executed (counter).
    pub const JOBS_EXECUTED: &str = "mgk_pair_solves_total";
    /// Flush-lane pairs served from the cache (counter).
    pub const CACHE_HITS: &str = "mgk_cache_hits_total";
    /// Total PCG iterations across executed solves (counter).
    pub const TOTAL_ITERATIONS: &str = "mgk_solver_iterations_total";
    /// Solves that failed to converge (counter).
    pub const FAILURES: &str = "mgk_solve_failures_total";
    /// Parallel flush batches scheduled (counter).
    pub const BATCHES: &str = "mgk_solve_batches_total";
    /// Observed content-hash collisions (counter).
    pub const HASH_COLLISIONS: &str = "mgk_hash_collisions_total";
    /// Copy-on-write clones of the snapshot triangle (counter).
    pub const TRIANGLE_COPIES: &str = "mgk_triangle_copies_total";
    /// Request-lane solves executed (counter).
    pub const REQUEST_SOLVES: &str = "mgk_request_solves_total";
    /// Requests answered straight from the pair cache (counter).
    pub const REQUEST_CACHE_ANSWERS: &str = "mgk_request_cache_answers_total";
    /// Tickets coalesced onto an in-flight request (counter).
    pub const REQUESTS_COALESCED: &str = "mgk_requests_coalesced_total";
    /// Tickets expired, split by `phase="queue"` / `phase="pre_solve"`
    /// (labeled counter).
    pub const REQUESTS_EXPIRED: &str = "mgk_requests_expired_total";
    /// Tickets cancelled before their solve started (counter).
    pub const REQUESTS_CANCELLED: &str = "mgk_requests_cancelled_total";
    /// Reorder-cache hits (counter).
    pub const REORDER_HITS: &str = "mgk_reorder_hits_total";
    /// Reorder-cache misses (counter).
    pub const REORDER_MISSES: &str = "mgk_reorder_misses_total";
    /// Snapshots materialized by the watch (counter).
    pub const SNAPSHOT_BUILDS: &str = "mgk_snapshot_builds_total";
    /// Records appended to the write-ahead log (counter).
    pub const STORE_APPENDS: &str = "mgk_store_appends_total";
    /// Bytes appended to the write-ahead log (counter).
    pub const STORE_BYTES: &str = "mgk_store_bytes_total";
    /// `fsync` calls issued by the store (counter).
    pub const STORE_FSYNCS: &str = "mgk_store_fsyncs_total";
    /// Entries replayed into the cache at recovery (counter).
    pub const STORE_REPLAYED: &str = "mgk_store_replayed_total";
    /// Torn final WAL records skipped at recovery (counter).
    pub const STORE_TORN_TAIL: &str = "mgk_store_torn_tail_total";
    /// Global-memory bytes moved by solves (counter).
    pub const TRAFFIC_BYTES: &str = "mgk_traffic_global_bytes_total";
    /// Floating-point operations executed by solves (counter).
    pub const TRAFFIC_FLOPS: &str = "mgk_traffic_flops_total";
    /// Running flops/byte of everything solved so far (gauge) — the
    /// serving hot path's live Roofline x-coordinate.
    pub const ARITHMETIC_INTENSITY: &str = "mgk_arithmetic_intensity_flops_per_byte";
    /// Commands sitting in the scheduler's channel (gauge).
    pub const QUEUE_DEPTH: &str = "mgk_scheduler_queue_depth";
    /// 1 while the scheduler thread is processing a drain cycle (gauge;
    /// RAII-tracked so panics cannot leave it raised).
    pub const SCHEDULER_BUSY: &str = "mgk_scheduler_busy";
    /// Per-stage pipeline latencies, labeled `stage="..."` (histograms).
    pub const STAGE_DURATION: &str = "mgk_stage_duration_seconds";
    /// End-to-end per-ticket latency, intake to resolution (histogram).
    pub const REQUEST_LATENCY: &str = "mgk_request_latency_seconds";
}

/// Typed handles into one service's registry. See the module docs.
#[derive(Debug, Clone)]
pub struct RuntimeMetrics {
    registry: Arc<MetricsRegistry>,
    /// Structures admitted.
    pub admitted: Counter,
    /// Flush-lane pair solves executed.
    pub jobs_executed: Counter,
    /// Flush-lane cache hits.
    pub cache_hits: Counter,
    /// Total PCG iterations.
    pub total_iterations: Counter,
    /// Non-converged solves.
    pub failures: Counter,
    /// Flush batches scheduled.
    pub batches: Counter,
    /// Observed content-hash collisions.
    pub hash_collisions: Counter,
    /// Copy-on-write triangle clones.
    pub triangle_copies: Counter,
    /// Request-lane solves.
    pub request_solves: Counter,
    /// Request-lane cache answers.
    pub request_cache_answers: Counter,
    /// Coalesced tickets.
    pub requests_coalesced: Counter,
    /// Tickets whose deadline passed while they sat in the command queue.
    pub requests_expired_in_queue: Counter,
    /// Tickets whose deadline passed after drain but before their group's
    /// solve started (earlier groups of the same drain were solving).
    pub requests_expired_pre_solve: Counter,
    /// Cancelled tickets.
    pub requests_cancelled: Counter,
    /// Reorder-cache hits.
    pub reorder_hits: Counter,
    /// Reorder-cache misses.
    pub reorder_misses: Counter,
    /// Snapshots materialized by the watch.
    pub snapshot_builds: Counter,
    /// WAL records appended by the attached store.
    pub store_appends: Counter,
    /// WAL bytes appended by the attached store.
    pub store_bytes: Counter,
    /// `fsync` calls the attached store issued.
    pub store_fsyncs: Counter,
    /// Entries replayed into the cache when a store was attached.
    pub store_replayed: Counter,
    /// Torn final WAL records skipped at recovery.
    pub store_torn_tail: Counter,
    /// Live bytes/flops totals and the derived intensity gauge.
    pub traffic: TrafficTotals,
    /// Commands currently in the scheduler channel.
    pub queue_depth: Gauge,
    /// 1 while the scheduler thread is inside a drain cycle.
    pub scheduler_busy: Gauge,
    /// Queue-wait stage latencies (intake → drain).
    pub stage_queue_wait: Histogram,
    /// Drain/group stage latencies (one span per request drain).
    pub stage_drain: Histogram,
    /// PBR-preparation stage latencies.
    pub stage_prepare: Histogram,
    /// Solve stage latencies.
    pub stage_solve: Histogram,
    /// Cache fold stage latencies.
    pub stage_fold: Histogram,
    /// Snapshot publication stage latencies.
    pub stage_publish: Histogram,
    /// Durability boundary latencies (epoch mark + fsync + snapshot).
    pub stage_persist: Histogram,
    /// End-to-end per-ticket latencies.
    pub request_latency: Histogram,
}

impl RuntimeMetrics {
    /// A fresh hub over a fresh registry, with every metric registered.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let stage = |s| registry.histogram_labeled(names::STAGE_DURATION, Some(("stage", s)));
        RuntimeMetrics {
            admitted: registry.counter(names::ADMITTED),
            jobs_executed: registry.counter(names::JOBS_EXECUTED),
            cache_hits: registry.counter(names::CACHE_HITS),
            total_iterations: registry.counter(names::TOTAL_ITERATIONS),
            failures: registry.counter(names::FAILURES),
            batches: registry.counter(names::BATCHES),
            hash_collisions: registry.counter(names::HASH_COLLISIONS),
            triangle_copies: registry.counter(names::TRIANGLE_COPIES),
            request_solves: registry.counter(names::REQUEST_SOLVES),
            request_cache_answers: registry.counter(names::REQUEST_CACHE_ANSWERS),
            requests_coalesced: registry.counter(names::REQUESTS_COALESCED),
            requests_expired_in_queue: registry
                .counter_labeled(names::REQUESTS_EXPIRED, Some(("phase", "queue"))),
            requests_expired_pre_solve: registry
                .counter_labeled(names::REQUESTS_EXPIRED, Some(("phase", "pre_solve"))),
            requests_cancelled: registry.counter(names::REQUESTS_CANCELLED),
            reorder_hits: registry.counter(names::REORDER_HITS),
            reorder_misses: registry.counter(names::REORDER_MISSES),
            snapshot_builds: registry.counter(names::SNAPSHOT_BUILDS),
            store_appends: registry.counter(names::STORE_APPENDS),
            store_bytes: registry.counter(names::STORE_BYTES),
            store_fsyncs: registry.counter(names::STORE_FSYNCS),
            store_replayed: registry.counter(names::STORE_REPLAYED),
            store_torn_tail: registry.counter(names::STORE_TORN_TAIL),
            traffic: TrafficTotals::new(
                registry.counter(names::TRAFFIC_BYTES),
                registry.counter(names::TRAFFIC_FLOPS),
                registry.gauge(names::ARITHMETIC_INTENSITY),
            ),
            queue_depth: registry.gauge(names::QUEUE_DEPTH),
            scheduler_busy: registry.gauge(names::SCHEDULER_BUSY),
            stage_queue_wait: stage("queue_wait"),
            stage_drain: stage("drain_group"),
            stage_prepare: stage("prepare"),
            stage_solve: stage("solve"),
            stage_fold: stage("cache_fold"),
            stage_publish: stage("publish"),
            stage_persist: stage("persist"),
            request_latency: registry.histogram(names::REQUEST_LATENCY),
            registry,
        }
    }

    /// The registry behind these handles — the scrape/pull surface.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }
}

impl Default for RuntimeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_clones_do_share_cells() {
        let hub = RuntimeMetrics::new();
        let shared = hub.clone();
        shared.cache_hits.add(3);
        hub.cache_hits.add(4);
        assert_eq!(hub.cache_hits.value(), 7);
        assert_eq!(hub.registry().snapshot().counter(names::CACHE_HITS), Some(7));
    }

    /// Unit suffixes a metric name may end in (prometheus conventions plus
    /// the dimensionless gauges).
    const UNIT_SUFFIXES: &[&str] = &[
        "_total",
        "_seconds",
        "_bytes",
        "_ns",
        "_ratio",
        "_depth",
        "_busy",
        "_flops_per_byte",
        "_count",
    ];

    /// `mgk_`-prefixed snake_case ending in a unit suffix — which also
    /// keeps crate names (`mgk_core`) out of the README check.
    fn metric_shaped(word: &str) -> bool {
        word.starts_with("mgk_")
            && word.split('_').all(|seg| {
                !seg.is_empty() && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            })
            && UNIT_SUFFIXES.iter().any(|suffix| word.ends_with(suffix))
    }

    #[test]
    fn exported_names_are_the_vocabulary_and_the_readme_cites_only_them() {
        let snapshot = RuntimeMetrics::new().registry().snapshot();
        let exported: Vec<&str> = snapshot.samples.iter().map(|s| s.key.name.as_str()).collect();
        // the `names` module is this file's text above the handles
        let (declared, _) = include_str!("metrics.rs")
            .split_once("pub struct RuntimeMetrics")
            .expect("the handles follow the names");
        for name in &exported {
            assert!(metric_shaped(name), "`{name}` is not mgk_-prefixed snake_case with a unit");
            assert!(
                declared.contains(&format!(": &str = \"{name}\";")),
                "`{name}` is registered but is not a `names` constant"
            );
        }
        let readme = include_str!("../../../README.md");
        for word in readme.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            assert!(
                !metric_shaped(word) || exported.contains(&word),
                "README cites `{word}`, which no registry exports"
            );
        }
    }
}
