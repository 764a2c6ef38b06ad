//! Cross-crate integration of the telemetry plane: a *live* scheduler's
//! scrape surface must expose the pipeline stage histograms, the queue
//! state, and a bytes/flops intensity gauge whose totals agree exactly
//! with the `TrafficCounters` the answered results themselves carry.
//! Runs under `RUST_TEST_THREADS=1` too (every thread here is our own).

use mgk::prelude::*;
use mgk::runtime::metrics::names;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Unlabeled = mgk::graph::Unlabeled;

fn corpus(n: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| mgk::graph::generators::newman_watts_strogatz(10 + k % 4, 2, 0.2, &mut rng))
        .collect()
}

fn spawn_default() -> GramScheduler<UnitKernel, UnitKernel, Unlabeled, Unlabeled> {
    GramScheduler::spawn(
        GramService::new(
            MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
            GramServiceConfig::default(),
        ),
        SchedulerConfig::default(),
    )
}

/// The intensity gauge is the live Roofline x-coordinate: its byte/flop
/// totals must equal the sum of the `TrafficCounters` of every solve the
/// scheduler executed — validated here against the results the request
/// lane handed back.
#[test]
fn intensity_gauge_agrees_with_the_traffic_the_results_report() {
    let graphs = corpus(4, 211);
    let scheduler = spawn_default();
    let kernels = scheduler.kernel_client::<f32>();

    // distinct pairs only: every answer is a fresh solve, so the results
    // we hold account for ALL traffic the service recorded
    let results: Vec<KernelResult<f32>> = kernels
        .request_all(
            (0..graphs.len()).map(|k| (graphs[k].clone(), graphs[(k + 1) % graphs.len()].clone())),
        )
        .unwrap()
        .into_iter()
        .map(|t| t.wait().unwrap())
        .collect();
    let expected_bytes: u64 = results.iter().map(|r| r.traffic.global_bytes()).sum();
    let expected_flops: u64 = results.iter().map(|r| r.traffic.flops).sum();
    assert!(expected_bytes > 0 && expected_flops > 0);

    let snapshot = scheduler.telemetry().snapshot();
    assert_eq!(snapshot.counter(names::TRAFFIC_BYTES), Some(expected_bytes));
    assert_eq!(snapshot.counter(names::TRAFFIC_FLOPS), Some(expected_flops));
    let intensity = snapshot.gauge(names::ARITHMETIC_INTENSITY).unwrap();
    let expected = expected_flops as f64 / expected_bytes as f64;
    assert!(
        (intensity - expected).abs() <= 1e-12 * expected,
        "gauge {intensity} vs traffic totals {expected}"
    );
    scheduler.join();
}

/// The Prometheus exposition of a live scheduler carries the full serving
/// vocabulary: per-stage latency histograms, the queue-depth gauge, the
/// intensity gauge, and the counters `ServiceStats` is a view over.
#[test]
fn prometheus_exposition_covers_the_serving_pipeline() {
    let graphs = corpus(3, 223);
    let scheduler = spawn_default();
    let client = scheduler.client();
    let kernels = scheduler.kernel_client::<f32>();

    client.submit(graphs[2].clone()).unwrap();
    client.flush().unwrap();
    kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap().wait().unwrap();

    let snapshot = scheduler.telemetry().snapshot();
    let text = snapshot.render_prometheus();
    for stage in ["queue_wait", "drain_group", "prepare", "solve", "cache_fold", "publish"] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "exposition is missing the {stage} stage:\n{text}"
        );
    }
    for name in [
        names::STAGE_DURATION,
        names::REQUEST_LATENCY,
        names::QUEUE_DEPTH,
        names::SCHEDULER_BUSY,
        names::ARITHMETIC_INTENSITY,
        names::ADMITTED,
        names::REQUEST_SOLVES,
        names::SNAPSHOT_BUILDS,
    ] {
        assert!(text.contains(name), "exposition is missing {name}:\n{text}");
    }
    // cumulative histogram form: bucket lines plus the mandatory +Inf
    assert!(text.contains(&format!("{}_bucket", names::STAGE_DURATION)));
    assert!(text.contains("le=\"+Inf\""));
    // the queue drained and both lanes answered: depth is back to zero
    assert_eq!(snapshot.gauge(names::QUEUE_DEPTH), Some(0.0));
    let solve = snapshot
        .histogram(names::STAGE_DURATION, Some(("stage", "solve")))
        .expect("solve stage histogram");
    assert!(solve.count() >= 1, "at least the request-lane solve was timed");
    // JSON rendering carries the same vocabulary for log shippers
    let json = snapshot.render_json();
    assert!(json.contains(names::REQUEST_LATENCY));
    assert!(json.contains(names::ARITHMETIC_INTENSITY));
    scheduler.join();
}

/// The scheduler hands out its service's own registry, and the
/// `ServiceStats` view agrees with the registry's counters.
#[test]
fn clients_share_one_registry_and_stats_stay_a_view() {
    let graphs = corpus(2, 227);
    let scheduler = spawn_default();
    let kernels = scheduler.kernel_client::<f64>();

    kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap().wait().unwrap();
    let registry = scheduler.telemetry();
    let svc = scheduler.join();
    assert!(std::sync::Arc::ptr_eq(&registry, &svc.telemetry()));
    let stats = svc.stats();
    let snapshot = registry.snapshot();
    assert_eq!(stats.request_solves as u64, snapshot.counter(names::REQUEST_SOLVES).unwrap());
    assert_eq!(
        stats.requests_expired_in_queue as u64,
        snapshot.counter_labeled(names::REQUESTS_EXPIRED, Some(("phase", "queue"))).unwrap()
    );
    assert_eq!(
        stats.requests_expired_pre_solve as u64,
        snapshot.counter_labeled(names::REQUESTS_EXPIRED, Some(("phase", "pre_solve"))).unwrap()
    );
}
