//! Workspace smoke tests: the facade's re-export surface resolves and the
//! example inventory matches what CI builds (`cargo build --examples`).

use mgk::prelude::*;

/// Every `mgk::prelude` item resolves and is usable. A compile failure here
/// means a facade re-export broke.
#[test]
fn prelude_reexports_resolve() {
    // graph construction
    let mut builder: GraphBuilder<u8, f32> = GraphBuilder::new();
    builder.add_vertex(1);
    builder.add_vertex(2);
    builder.add_edge(0, 1, 1.0, 0.5).unwrap();
    let labeled = builder.build().unwrap();
    assert_eq!(labeled.num_vertices(), 2);
    let g = Graph::from_edge_list(3, &[(0, 1), (1, 2)]);

    // base kernels
    assert_eq!(BaseKernel::<u8>::eval(&UnitKernel, &0, &1), 1.0);
    assert_eq!(KroneckerDelta::new(0.5).eval(&1u8, &1u8), 1.0);
    assert!(SquareExponential::new(1.0).eval(&0.0f32, &0.0f32) > 0.99);

    // solver configuration surface
    let config = SolverConfig { reorder: ReorderMethod::Natural, ..SolverConfig::default() };
    let solver = MarginalizedKernelSolver::unlabeled(config);
    let result: KernelResult = solver.kernel(&g, &g).unwrap();
    assert!(result.value > 0.0);

    // the unified linalg surface: options, counters, operator trait
    let options = SolveOptions::default();
    assert!(options.max_iterations > 0);
    let mut counters = TrafficCounters::new();
    counters.flops += 1;
    assert_eq!((counters + TrafficCounters::new()).flops, 1);
    let diag = mgk::linalg::DiagonalOperator::new(vec![2.0, 3.0]);
    let as_operator: &dyn LinearOperator = &diag;
    assert_eq!(as_operator.apply_alloc(&[1.0, 1.0]), vec![2.0, 3.0]);

    // Gram engine
    let engine = GramEngine::new(solver.clone(), GramConfig::default());
    let gram = engine.compute(&[g.clone(), g.clone()]);
    assert_eq!(gram.num_graphs, 2);
    assert_eq!(gram.failures, 0);

    // runtime: the persistent pool and the streaming Gram service
    assert!(Pool::global().max_parallelism() >= 1);
    let mut service = GramService::new(solver, GramServiceConfig::default());
    service.submit(g.clone()).unwrap();
    let snapshot = service.snapshot();
    assert_eq!(snapshot.num_graphs, 1);

    // the request-scoped serving surface: scheduler, typed client, ticket
    let scheduler = GramScheduler::spawn(service, SchedulerConfig::default());
    let kernels: KernelClient<_, _, f32> = scheduler.kernel_client::<f32>();
    let ticket: Ticket<KernelResult> = kernels.request(g.clone(), g).unwrap();
    match ticket.wait() {
        Ok(result) => assert!(result.converged),
        Err(RequestError::Expired | RequestError::Closed | RequestError::Solver(_)) => {
            panic!("an undisturbed request must resolve")
        }
    }
    scheduler.join();
}

/// All crate-level facade modules resolve.
#[test]
fn facade_modules_resolve() {
    let _ = mgk::graph::DEFAULT_STOPPING_PROBABILITY;
    let _ = mgk::linalg::SolveOptions::default();
    let _ = mgk::kernels::KernelCost::new(4, 4);
    let _ = mgk::tile::TILE_SIZE;
    let _ = mgk::reorder::ReorderMethod::default();
    let _ = mgk::solver::SolverConfig::default();
    let _: Option<mgk::datasets::MoleculeGraph> = None;
    let _ = mgk::runtime::GramServiceConfig::default();
    let _ = mgk::store::FsyncPolicy::default();
    let _ = mgk::telemetry::MetricsRegistry::new();
}

/// The examples on disk are exactly the set this workspace expects; CI runs
/// `cargo build --examples`, so a new example is compiled automatically and
/// a renamed one fails this inventory check.
#[test]
fn example_inventory_matches() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(dir)
        .expect("examples directory exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rs"))
        .collect();
    found.sort();
    let expected = [
        "durable_serving.rs",
        "molecular_similarity.rs",
        "protein_contact_maps.rs",
        "quickstart.rs",
        "request_serving.rs",
        "telemetry_report.rs",
    ];
    assert_eq!(found, expected, "examples/ changed; update this inventory and the README");
}
