//! Request-scoped serving: ask the background scheduler for *individual*
//! kernel values through `KernelClient` tickets instead of watching whole
//! Gram snapshots.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example request_serving
//! ```

use std::time::{Duration, Instant};

use mgk::prelude::*;

fn main() {
    // A small serving corpus: ring-lattice variants of different sizes.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let corpus: Vec<Graph> = (0..6)
        .map(|k| mgk::graph::generators::newman_watts_strogatz(12 + k, 2, 0.2, &mut rng))
        .collect();

    // The scheduler owns the service on a background thread. The flush
    // lane (GramClient) admits structures; the request lane (KernelClient)
    // answers per-pair questions on the same thread. The solver also
    // computes nodal vectors, so fresh solves carry one (cache answers
    // never do).
    let scheduler = GramScheduler::spawn(
        GramService::new(
            MarginalizedKernelSolver::unlabeled(SolverConfig {
                compute_nodal: true,
                ..SolverConfig::default()
            }),
            GramServiceConfig::default(),
        ),
        SchedulerConfig::default(),
    );
    let producers = scheduler.client();
    let kernels = scheduler.kernel_client::<f32>();

    // Admit the corpus; the flush solves all pairs and fills the cache.
    for g in &corpus {
        producers.submit(g.clone()).unwrap();
    }
    producers.flush().unwrap();

    // A cold request: this pair is new, so the scheduler solves it once.
    let probe = mgk::graph::generators::newman_watts_strogatz(14, 2, 0.2, &mut rng);
    let start = Instant::now();
    let ticket = kernels.request(probe.clone(), corpus[0].clone()).unwrap();
    let cold = ticket.wait().expect("fresh pair solves");
    println!(
        "cold request: K = {:.6} in {:?} ({} PCG iterations)",
        cold.value,
        start.elapsed(),
        cold.iterations
    );

    // The same pair again: answered from the pair cache, no solve.
    let start = Instant::now();
    let hit = kernels.request(probe.clone(), corpus[0].clone()).unwrap().wait().unwrap();
    println!("cache-answered: K = {:.6} in {:?}", hit.value, start.elapsed());

    // Duplicate in-flight requests coalesce onto one solve; every ticket
    // wakes with the shared answer.
    let tickets = kernels.request_all((0..4).map(|_| (probe.clone(), corpus[1].clone()))).unwrap();
    let values: Vec<f32> = tickets.iter().map(|t| t.wait().unwrap().value).collect();
    println!("coalesced fan-out: {values:?}");

    // Deadlines bound tail latency: a ticket whose solve cannot start in
    // time resolves Expired instead of queueing forever.
    match kernels
        .request_within(probe.clone(), corpus[2].clone(), Duration::from_millis(250))
        .unwrap()
        .wait()
    {
        Ok(r) => println!("deadline request made it: K = {:.6}", r.value),
        Err(e) => println!("deadline request expired: {e}"),
    }

    // Typed f64 requests carry full-precision values, and a fresh solve by a
    // nodal-computing solver an f64 nodal vector.
    let wide = scheduler.kernel_client::<f64>();
    let result = wide.request(probe, corpus[3].clone()).unwrap().wait().unwrap();
    let nodal = result.nodal.as_ref().map(Vec::len).unwrap_or(0);
    println!("typed f64 request: K = {:.12} ({nodal}-entry f64 nodal vector)", result.value);

    let service = scheduler.join();
    let stats = service.stats();
    println!(
        "\nserved {} request solves, {} cache answers, {} coalesced tickets",
        stats.request_solves, stats.request_cache_answers, stats.requests_coalesced
    );
}
