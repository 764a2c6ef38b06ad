//! The telemetry plane in action: drive the serving stack, scrape its
//! metrics registry, and print Prometheus-text exposition plus the
//! per-ticket stage breakdown every answered request carries. A scrape
//! loop or log shipper would take the same pull, `telemetry().snapshot()`,
//! on its own schedule.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example telemetry_report
//! ```

use mgk::prelude::*;
use mgk::runtime::metrics::names;

fn main() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let corpus: Vec<Graph> = (0..8)
        .map(|k| mgk::graph::generators::newman_watts_strogatz(12 + k % 5, 2, 0.2, &mut rng))
        .collect();

    let scheduler = GramScheduler::spawn(
        GramService::new(
            MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
            GramServiceConfig::default(),
        ),
        SchedulerConfig::default(),
    );

    // Drive both lanes: admit the corpus, then answer per-pair requests.
    let producers = scheduler.client();
    for g in &corpus {
        producers.submit(g.clone()).unwrap();
    }
    producers.flush().unwrap();

    let kernels = scheduler.kernel_client::<f32>();
    let probe = mgk::graph::generators::newman_watts_strogatz(14, 2, 0.2, &mut rng);
    let mut last = None;
    for reference in &corpus[..4] {
        let result = kernels.request(probe.clone(), reference.clone()).unwrap().wait().unwrap();
        last = Some(result);
    }

    // Every answered ticket reports where its time went.
    if let Some(result) = last {
        let stages = result.stages;
        println!("last ticket: K = {:.6}", result.value);
        println!("  queue wait : {:>9} ns", stages.queue_wait_ns);
        println!("  preparation: {:>9} ns", stages.prepare_ns);
        println!("  solve      : {:>9} ns", stages.solve_ns);
        println!("  cache fold : {:>9} ns", stages.fold_ns);
        println!("  total      : {:>9} ns\n", stages.total_ns());
    }

    // One final pull, rendered both ways.
    let snapshot = scheduler.telemetry().snapshot();
    println!("=== Prometheus exposition ===");
    println!("{}", snapshot.render_prometheus());
    println!("=== JSON ===");
    println!("{}", snapshot.render_json());

    if let Some(intensity) = snapshot.gauge(names::ARITHMETIC_INTENSITY) {
        println!("live arithmetic intensity: {intensity:.4} flops/byte");
    }
    scheduler.join();
}
