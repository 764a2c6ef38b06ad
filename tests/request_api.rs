//! Cross-crate integration of the request-scoped serving API: typed
//! `KernelClient` tickets against the background scheduler must agree with
//! the batch engine and the dense direct solver, coalesce duplicate
//! in-flight pairs onto one solve, answer completed pairs from the cache,
//! and never wedge on deadlines, cancellation or shutdown. Runs under
//! `RUST_TEST_THREADS=1` too (every thread here is our own).

use mgk::linalg::direct;
use mgk::prelude::*;
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

#[test]
fn requested_values_match_the_batch_engine() {
    let graphs = corpus(4, 41);
    let scheduler = spawn_default();
    let kernels = scheduler.kernel_client::<f32>();

    // raw (unnormalized) batch reference over the same corpus
    let engine = GramEngine::new(
        MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
        GramConfig { normalize: false },
    );
    let batch = engine.compute(&graphs);
    assert_eq!(batch.failures, 0);

    let tickets = kernels
        .request_all((0..4).flat_map(|i| {
            let graphs = &graphs;
            (i..4).map(move |j| (graphs[i].clone(), graphs[j].clone()))
        }))
        .unwrap();
    let mut t = tickets.into_iter();
    for i in 0..4 {
        for j in i..4 {
            let result = t.next().unwrap().wait().expect("request must resolve");
            let (a, b) = (result.value, batch.get(i, j));
            assert!((a - b).abs() <= 1e-4 * b.abs(), "pair ({i},{j}): requested {a} vs batch {b}");
        }
    }
    scheduler.join();
}

/// The widened reference system of Eq. (1) for unlabeled graphs: every
/// `f32` operand lifted to `f64` before multiplying, exactly as the `f64`
/// instantiation of the operator surface does.
fn widened_reference(g1: &Graph, g2: &Graph) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (n, m) = (g1.num_vertices(), g2.num_vertices());
    let a1 = g1.adjacency_dense();
    let a2 = g2.adjacency_dense();
    let dx = mgk::linalg::kron_vec(&g1.laplacian_degrees(), &g2.laplacian_degrees());
    let qx = mgk::linalg::kron_vec(g1.stop_probabilities(), g2.stop_probabilities());
    let px = mgk::linalg::kron_vec(g1.start_probabilities(), g2.start_probabilities());
    let nm = n * m;
    let mut mat = vec![0.0f64; nm * nm];
    for i in 0..n {
        for ip in 0..m {
            let row = i * m + ip;
            for j in 0..n {
                for jp in 0..m {
                    mat[row * nm + j * m + jp] = -(a1[i * n + j] as f64 * a2[ip * m + jp] as f64);
                }
            }
            mat[row * nm + row] += dx[row] as f64;
        }
    }
    let rhs: Vec<f64> = dx.iter().zip(&qx).map(|(&d, &q)| d as f64 * q as f64).collect();
    let px64: Vec<f64> = px.iter().map(|&p| p as f64).collect();
    (mat, rhs, px64)
}

#[test]
fn f64_requests_agree_with_the_dense_direct_solver_to_1e10() {
    // PR 4's acceptance bar, extended through the request path: a typed
    // f64 ticket must deliver the f64 value AND nodal vector end-to-end
    let g1 = Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
    let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
        reorder: mgk::reorder::ReorderMethod::Natural,
        solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
        compute_nodal: true,
        ..SolverConfig::default()
    });
    let scheduler = GramScheduler::spawn(
        GramService::new(solver, GramServiceConfig::default()),
        SchedulerConfig::default(),
    );
    let kernels = scheduler.kernel_client::<f64>();
    let result = kernels.request(g1.clone(), g2.clone()).unwrap().wait().expect("must resolve");
    scheduler.join();

    let (mat, b, px) = widened_reference(&g1, &g2);
    let x_direct = direct::lu_solve(&mat, &b).expect("reference system solvable");

    // typed value against the direct contraction
    let value_direct: f64 = px.iter().zip(&x_direct).map(|(p, x)| p * x).sum();
    let rel_value = (result.value - value_direct).abs() / value_direct.abs();
    assert!(rel_value <= 1e-10, "ticket value {} vs direct {value_direct}", result.value);

    // typed nodal vector against the direct solution — the f64 vector must
    // arrive unrounded (an f32 boundary anywhere would show up here)
    let nodal = result.nodal.expect("typed requests carry nodal vectors");
    let err_sq: f64 = nodal.iter().zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
    let norm_sq: f64 = x_direct.iter().map(|v| v * v).sum();
    let rel_err = (err_sq / norm_sq).sqrt();
    assert!(rel_err <= 1e-10, "nodal error vs direct solution: {rel_err:e}");
    let narrowed_err: f64 =
        nodal.iter().map(|&v| v as f32 as f64).zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
    assert!(
        (narrowed_err / norm_sq).sqrt() > 1e-10,
        "an f32-rounded vector could not pass the bar above"
    );
}

#[test]
fn refined_requests_deliver_f64_quality_through_the_typed_client() {
    // the quality the mixed-precision lane once sold is now what a plain
    // `kernel_client::<f64>()` ticket delivers: under the default reordering
    // the answer must reach the dense direct solver's f64 value, replay
    // from the cache bit for bit, and be out of reach of f32 rounding
    let g1 = Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
    let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
        solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
        ..SolverConfig::default()
    });
    let scheduler = GramScheduler::spawn(
        GramService::new(solver, GramServiceConfig::default()),
        SchedulerConfig::default(),
    );
    let kernels = scheduler.kernel_client::<f64>();
    let result = kernels.request(g1.clone(), g2.clone()).unwrap().wait().expect("must resolve");

    // the f64 entry answers a repeat f64 request from the cache
    let again = kernels.request(g1.clone(), g2.clone()).unwrap().wait().expect("must resolve");
    assert_eq!(again.value.to_bits(), result.value.to_bits());
    let svc = scheduler.join();
    assert_eq!(svc.stats().request_solves, 1, "the repeat must replay the f64 entry");

    let (mat, b, px) = widened_reference(&g1, &g2);
    let x_direct = direct::lu_solve(&mat, &b).expect("reference system solvable");
    let value_direct: f64 = px.iter().zip(&x_direct).map(|(p, x)| p * x).sum();
    let rel_value = (result.value - value_direct).abs() / value_direct.abs();
    assert!(rel_value <= 1e-10, "f64 value {} vs direct {value_direct}", result.value);

    // beyond-f32 proof: rounding the answer through f32 must break the bar
    let narrowed = result.value as f32 as f64;
    assert!((narrowed - value_direct).abs() / value_direct.abs() > 1e-10);
}

#[test]
fn flushed_pairs_are_answered_from_the_cache_without_new_solves() {
    let graphs = corpus(3, 43);
    let scheduler = spawn_default();
    let producers = scheduler.client();
    let kernels = scheduler.kernel_client::<f32>();

    // admit the corpus through the flush lane; every pair is now solved
    for g in &graphs {
        producers.submit(g.clone()).unwrap();
    }
    producers.flush().unwrap();

    // request every pair: all answers come straight from the pair cache
    let tickets = kernels
        .request_all((0..3).flat_map(|i| {
            let graphs = &graphs;
            (i..3).map(move |j| (graphs[i].clone(), graphs[j].clone()))
        }))
        .unwrap();
    for t in &tickets {
        assert!(t.wait().is_ok());
    }
    let svc = scheduler.join();
    assert_eq!(svc.stats().request_solves, 0, "flushed pairs must not re-solve");
    assert_eq!(svc.stats().request_cache_answers, 6);
}

#[test]
fn concurrent_requesters_coalesce_and_all_observe_one_answer() {
    // several threads race requests for the same pair through clones of
    // one client; whatever interleaving occurs, every ticket resolves to
    // the same value and solves never exceed the number of drain batches
    const REQUESTERS: usize = 4;
    const PER_REQUESTER: usize = 8;
    let graphs = corpus(2, 47);
    let scheduler = spawn_default();

    let handles: Vec<_> = (0..REQUESTERS)
        .map(|_| {
            let kernels = scheduler.kernel_client::<f32>();
            let (a, b) = (graphs[0].clone(), graphs[1].clone());
            std::thread::spawn(move || {
                (0..PER_REQUESTER)
                    .map(|_| kernels.request(a.clone(), b.clone()).unwrap().wait().unwrap().value)
                    .collect::<Vec<f32>>()
            })
        })
        .collect();
    let mut values = Vec::new();
    for h in handles {
        values.extend(h.join().unwrap());
    }
    assert_eq!(values.len(), REQUESTERS * PER_REQUESTER);
    assert!(values.windows(2).all(|w| w[0] == w[1]), "every ticket sees the same answer");

    let svc = scheduler.join();
    let stats = svc.stats();
    assert_eq!(
        stats.request_solves, 1,
        "the first drain solves once; everything after is cache-answered"
    );
    assert_eq!(
        stats.request_solves + stats.request_cache_answers + stats.requests_coalesced,
        REQUESTERS * PER_REQUESTER,
        "every ticket is accounted for: {stats:?}"
    );
}

#[test]
fn ticket_wait_timeout_polls_without_consuming_the_ticket() {
    let graphs = corpus(2, 53);
    let scheduler = spawn_default();
    let kernels = scheduler.kernel_client::<f32>();
    let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
    // poll until resolution; a pending poll must leave the ticket usable
    let mut result = None;
    for _ in 0..500 {
        if let Some(r) = ticket.wait_timeout(std::time::Duration::from_millis(10)) {
            result = Some(r);
            break;
        }
    }
    let result = result.expect("request resolves well within five seconds").unwrap();
    assert!(result.converged);
    assert_eq!(ticket.try_get().unwrap().unwrap().value, result.value);
    scheduler.join();
}
