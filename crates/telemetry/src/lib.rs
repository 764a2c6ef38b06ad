//! Observability plane for the marginalized-graph-kernel serving stack.
//!
//! The source paper justifies every design decision with *measured*
//! placement on a Roofline — counted bytes, counted flops, stage-by-stage
//! timings. This crate makes those signals live instead of offline: a
//! dependency-free, lock-free-on-the-hot-path metrics plane the runtime
//! threads through intake → queue → prepare → solve → fold → publish.
//!
//! * [`MetricsRegistry`] — sharded, get-or-register store of named
//!   [`Counter`]s, [`Gauge`]s and [`Histogram`]s; `Arc`-backed handles are
//!   cached once and recorded into without locks.
//! * [`Histogram`] — 65 log2 buckets with per-bucket count *and* sum, so
//!   [`HistogramSnapshot::quantile`] reads back p50/p95/p99 exactly within
//!   a bucket (exactly, full stop, when a bucket holds one distinct
//!   value).
//! * [`Span`] / [`Stopwatch`] / [`StageBreakdown`] — stage timers for the
//!   request pipeline; spans record on drop so panics cannot unbalance
//!   them, and every answered `KernelResult` carries its breakdown.
//! * [`TrafficTotals`] — live bytes/flops totals plus the derived
//!   arithmetic-intensity gauge (the serving hot path's Roofline x-axis).
//! * [`TelemetrySnapshot`] — point-in-time capture with two renderers:
//!   Prometheus text exposition and the flat JSON shape the bench harness
//!   stamps.

#![forbid(unsafe_code)]

mod metrics;
mod registry;
mod span;

pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot,
    InflightGuard, TrafficTotals, HISTOGRAM_BUCKETS,
};
pub use registry::{MetricKey, MetricSample, MetricValue, MetricsRegistry, TelemetrySnapshot};
pub use span::{Span, StageBreakdown, Stopwatch};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn bucket_scheme_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 1..HISTOGRAM_BUCKETS {
            // every bucket's bounds match its membership: lower is in,
            // lower - 1 is in the previous bucket
            assert_eq!(bucket_index(bucket_lower(b)), b);
            assert_eq!(bucket_index(bucket_lower(b) - 1), b - 1);
        }
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(63), 1 << 63);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_exact_on_single_valued_buckets() {
        // powers of two land one per bucket, so every quantile reads back
        // an exact observed value
        let h = Histogram::new();
        let values: Vec<u64> = (0..10).map(|k| 1u64 << (2 * k)).collect();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10);
        assert_eq!(snap.sum(), values.iter().sum::<u64>());
        // rank convention: round((count - 1) * p)
        assert_eq!(snap.quantile(0.0), Some(values[0]));
        assert_eq!(snap.quantile(0.5), Some(values[5])); // round(4.5) = 5
        assert_eq!(snap.quantile(1.0), Some(values[9]));
    }

    #[test]
    fn quantiles_on_constant_distributions_are_exact() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(777);
        }
        let snap = h.snapshot();
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(p), Some(777));
        }
    }

    #[test]
    fn quantile_stays_inside_the_target_bucket() {
        // 100 and 120 share bucket 7 ([64, 128)); readout is their mean,
        // which the bucket bounds contain
        let h = Histogram::new();
        h.record(100);
        h.record(120);
        let snap = h.snapshot();
        let q = snap.quantile(0.5).unwrap();
        assert_eq!(q, 110);
        assert!(q >= bucket_lower(7) && q < bucket_upper(7));
    }

    #[test]
    fn bucket_boundary_values_split_cleanly() {
        let h = Histogram::new();
        h.record(127); // bucket 7
        h.record(128); // bucket 8
        let snap = h.snapshot();
        assert_eq!(snap.counts[7], 1);
        assert_eq!(snap.counts[8], 1);
        assert_eq!(snap.quantile(0.0), Some(127));
        assert_eq!(snap.quantile(1.0), Some(128));
    }

    #[test]
    fn empty_histograms_have_no_quantiles() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile(0.5), None);
    }

    #[test]
    fn snapshot_delta_isolates_a_phase() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(2000);
        let delta = h.snapshot().delta(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 3000);
        assert_eq!(delta.quantile(0.0), Some(1000));
    }

    #[test]
    fn concurrent_counter_increments_do_not_lose_updates() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 100_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    // each thread resolves its own handle: get-or-register
                    // must converge on one shared cell
                    let c = registry.counter("contended_total");
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(registry.counter("contended_total").value(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_records_do_not_lose_updates() {
        let h = Histogram::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for k in 0..10_000u64 {
                        h.record(t * 10_000 + k);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 80_000);
    }

    #[test]
    fn gauge_add_is_atomic_under_contention() {
        let g = Gauge::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.inc();
                        g.dec();
                    }
                    g.add(2.5);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(g.value(), 10.0);
    }

    #[test]
    fn spans_record_exactly_once_even_when_the_region_panics() {
        let h = Histogram::new();
        let g = Gauge::new();
        {
            let _span = h.span();
            let _guard = g.track();
            assert_eq!(g.value(), 1.0);
        }
        assert_eq!(h.snapshot().count(), 1);
        assert_eq!(g.value(), 0.0);

        let panic_h = h.clone();
        let panic_g = g.clone();
        let result = std::panic::catch_unwind(move || {
            let _span = panic_h.span();
            let _guard = panic_g.track();
            panic!("instrumented region fails");
        });
        assert!(result.is_err());
        // the unwind still closed the span and released the in-flight slot
        assert_eq!(h.snapshot().count(), 2);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn registry_returns_shared_handles_per_key_and_distinct_per_label() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_labeled("expired_total", Some(("phase", "queue")));
        let b = registry.counter_labeled("expired_total", Some(("phase", "queue")));
        let other = registry.counter_labeled("expired_total", Some(("phase", "pre_solve")));
        a.add(3);
        b.add(4);
        other.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_labeled("expired_total", Some(("phase", "queue"))), Some(7));
        assert_eq!(snap.counter_labeled("expired_total", Some(("phase", "pre_solve"))), Some(1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registering_one_name_as_two_kinds_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("shape_shifter");
        let _ = registry.gauge("shape_shifter");
    }

    #[test]
    fn traffic_totals_maintain_the_intensity_ratio() {
        let t = TrafficTotals::new(Counter::new(), Counter::new(), Gauge::new());
        t.record(100, 400);
        t.record(300, 800);
        assert_eq!(t.bytes.value(), 400);
        assert_eq!(t.flops.value(), 1200);
        assert!((t.intensity.value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let registry = MetricsRegistry::new();
        registry.counter("mgk_pair_solves_total").add(3);
        registry.gauge("mgk_scheduler_queue_depth").set(2.0);
        let h = registry.histogram_labeled("mgk_stage_duration_seconds", Some(("stage", "solve")));
        h.record(1_000);
        h.record(1_000_000);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE mgk_pair_solves_total counter\n"));
        assert!(text.contains("mgk_pair_solves_total 3\n"));
        assert!(text.contains("# TYPE mgk_scheduler_queue_depth gauge\n"));
        assert!(text.contains("mgk_scheduler_queue_depth 2\n"));
        assert!(text.contains("# TYPE mgk_stage_duration_seconds histogram\n"));
        assert!(text.contains("mgk_stage_duration_seconds_bucket{stage=\"solve\",le=\"+Inf\"} 2"));
        assert!(text.contains("mgk_stage_duration_seconds_count{stage=\"solve\"} 2\n"));
        assert!(text.contains("mgk_stage_duration_seconds_sum{stage=\"solve\"} 0.001001000\n"));
        // cumulative bucket counts are monotone
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("mgk_stage_duration_seconds_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "bucket counts must be cumulative: {line}");
            last = count;
        }
    }

    #[test]
    fn json_rendering_carries_quantiles() {
        let registry = MetricsRegistry::new();
        registry.counter("hits_total").add(9);
        let h = registry.histogram("latency");
        for _ in 0..4 {
            h.record(512);
        }
        let json = registry.snapshot().render_json();
        assert!(json.contains("\"hits_total\": 9"));
        assert!(json.contains("\"count\": 4"));
        assert!(json.contains("\"p50_ns\": 512"));
        assert!(json.contains("\"p99_ns\": 512"));
    }

    #[test]
    fn stage_breakdown_totals_saturate() {
        let stages =
            StageBreakdown { queue_wait_ns: 10, prepare_ns: 20, solve_ns: 30, fold_ns: 40 };
        assert_eq!(stages.total_ns(), 100);
        assert_eq!(stages.total(), Duration::from_nanos(100));
        let max =
            StageBreakdown { queue_wait_ns: u64::MAX, prepare_ns: 1, ..StageBreakdown::default() };
        assert_eq!(max.total_ns(), u64::MAX);
    }

    #[test]
    fn stopwatch_measures_elapsed_time() {
        let watch = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let ns = watch.elapsed_ns();
        assert!(ns >= 1_000_000, "2ms sleep must register: {ns}ns");
    }
}
