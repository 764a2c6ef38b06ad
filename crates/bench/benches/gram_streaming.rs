//! Criterion benchmark for the serving layer: incremental Gram extension
//! versus full recompute.
//!
//! On an appended workload (`N` structures already served, `+M` arrive),
//! the streaming service solves only the new row/column blocks, so it must
//! beat a from-scratch batch recompute of all `N + M` structures.

use criterion::{criterion_group, criterion_main, Criterion};

use mgk_bench::{bench_rng, scaled};
use mgk_core::{GramConfig, GramEngine, MarginalizedKernelSolver, SolverConfig};
use mgk_datasets::ensembles::EnsembleStream;
use mgk_graph::{Graph, Unlabeled};
use mgk_runtime::{GramService, GramServiceConfig};

fn solver() -> MarginalizedKernelSolver<mgk_kernels::UnitKernel, mgk_kernels::UnitKernel> {
    MarginalizedKernelSolver::unlabeled(SolverConfig::default())
}

fn bench_incremental_extension(c: &mut Criterion) {
    let base = scaled(24, 8);
    let appended = scaled(4, 2);
    let graphs: Vec<Graph<Unlabeled, Unlabeled>> =
        EnsembleStream::small_world(48, 2, 0.1, bench_rng()).take(base + appended).collect();

    // serve the first `base` structures once; every iteration replays only
    // the +appended extension from this warm state
    let mut warm = GramService::new(solver(), GramServiceConfig::default());
    for g in &graphs[..base] {
        warm.submit(g.clone()).expect("queue sized for the workload");
    }
    warm.flush();

    let engine = GramEngine::new(solver(), GramConfig::default());

    let mut group = c.benchmark_group("gram_streaming");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.bench_function(format!("incremental/+{appended}"), |b| {
        b.iter(|| {
            let mut svc = warm.clone();
            for g in &graphs[base..] {
                svc.submit(g.clone()).expect("queue sized for the workload");
            }
            svc.snapshot().matrix.len()
        })
    });
    group.bench_function(format!("full_recompute/{}", base + appended), |b| {
        b.iter(|| engine.compute(&graphs).matrix.len())
    });
    group.finish();
}

criterion_group!(benches, bench_incremental_extension);
criterion_main!(benches);
