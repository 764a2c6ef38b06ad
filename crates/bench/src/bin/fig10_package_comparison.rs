//! Fig. 10 — time-to-solution comparison with GraKeL- and
//! GraphKernels-style CPU baselines.
//!
//! The paper computes the full pairwise kernel matrix of the DrugBank and
//! PDB datasets with its GPU solver and with the two existing CPU packages,
//! observing 3–4 orders of magnitude of speedup. Neither package is
//! available here; the comparison is against this crate's re-implementation
//! of their algorithms (explicit dense solve — a [`DenseSolver`] over the
//! materialized product — and fixed-point iteration, both single-threaded),
//! run on identical synthetic datasets. A baseline time counts only if
//! every timed solve converged.
//!
//! Three numbers are reported per dataset: the present solver's measured
//! CPU time (parallel, all optimizations), its projected V100 time (from
//! counted memory traffic), and each baseline's measured CPU time — the
//! baseline times are extrapolated from a subset of pairs when the full
//! sweep would take too long, exactly like the starred entries of Fig. 9.

use std::time::Instant;

use mgk_bench::dense::{DenseSolver, DenseXmv};
use mgk_bench::device::DeviceSpec;
use mgk_bench::fixed_point::FixedPointSolver;
use mgk_bench::project::estimate_time;
use mgk_bench::{fmt_duration, scaled, AtomKernel, BondKernel, ElementKernel};
use mgk_core::{GramConfig, GramEngine, MarginalizedKernelSolver, SolverConfig};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_reorder::ReorderMethod;

/// Time a baseline on a bounded number of pairs and extrapolate to the full
/// upper-triangular sweep. `eval` solves one pair and says whether the
/// solve converged; the third value is the number of timed solves that did
/// not.
fn baseline_time<V, E>(
    graphs: &[Graph<V, E>],
    mut eval: impl FnMut(&Graph<V, E>, &Graph<V, E>) -> bool,
    budget_pairs: usize,
) -> (f64, bool, usize)
where
    E: Copy + Default,
{
    let n = graphs.len();
    let total_pairs = n * (n + 1) / 2;
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
    let sample = pairs.len().min(budget_pairs);
    let mut failures = 0;
    let start = Instant::now();
    for &(i, j) in pairs.iter().take(sample) {
        failures += usize::from(!eval(&graphs[i], &graphs[j]));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let extrapolated = elapsed * total_pairs as f64 / sample as f64;
    (extrapolated, sample < pairs.len(), failures)
}

fn compare_dataset<V, E, KV, KE>(name: &str, graphs: &[Graph<V, E>], kv: KV, ke: KE)
where
    V: Clone + Send + Sync,
    E: Copy + Default + Send + Sync,
    KV: BaseKernel<V> + Clone + Send + Sync,
    KE: BaseKernel<E> + Clone + Send + Sync,
{
    let device = DeviceSpec::volta_v100();
    println!(
        "--- {name}: {} graphs, {} pairwise kernel evaluations ---",
        graphs.len(),
        graphs.len() * (graphs.len() + 1) / 2
    );

    // the present solver: full optimization ladder, parallel over pairs
    let solver = MarginalizedKernelSolver::new(kv.clone(), ke.clone(), SolverConfig::default());
    let engine = GramEngine::new(solver, GramConfig::default());
    let start = Instant::now();
    let result = engine.compute(graphs);
    let present_cpu = start.elapsed().as_secs_f64();
    let projected = estimate_time(&device, &result.traffic, 1.0).total_seconds;
    assert_eq!(result.failures, 0);

    // GraKeL-style explicit solver: materialize L× once, then Jacobi-PCG,
    // single-threaded, one pair per call
    let budget = scaled(12, 6);
    let explicit = DenseSolver::new(
        kv.clone(),
        ke.clone(),
        SolverConfig { reorder: ReorderMethod::Natural, ..SolverConfig::default() },
        DenseXmv::Naive,
    );
    let (grakel_time, grakel_extrapolated, grakel_failures) =
        baseline_time(graphs, |a, b| std::hint::black_box(explicit.kernel(a, b)).is_ok(), budget);

    // GraphKernels-style fixed-point solver, single-threaded
    let fixed = FixedPointSolver::new(kv, ke);
    let (gk_time, gk_extrapolated, gk_failures) =
        baseline_time(graphs, |a, b| std::hint::black_box(fixed.kernel(a, b)).converged, budget);
    let baseline_failures = grakel_failures + gk_failures;

    println!("{:<36} {:>14}", "present solver (CPU, all cores)", fmt_duration(present_cpu));
    println!("{:<36} {:>14}", "present solver (V100 projection)", fmt_duration(projected));
    println!(
        "{:<36} {:>14}{}   speedup vs CPU {:>8.0}x, vs V100 projection {:>10.0}x",
        "GraKeL-style explicit CG",
        fmt_duration(grakel_time),
        if grakel_extrapolated { "*" } else { " " },
        grakel_time / present_cpu,
        grakel_time / projected,
    );
    println!(
        "{:<36} {:>14}{}   speedup vs CPU {:>8.0}x, vs V100 projection {:>10.0}x",
        "GraphKernels-style fixed point",
        fmt_duration(gk_time),
        if gk_extrapolated { "*" } else { " " },
        gk_time / present_cpu,
        gk_time / projected,
    );
    println!("{:<36} {:>14}", "baseline solves not converged", baseline_failures);
    println!("  (* extrapolated from the first {budget} pairs)\n");
    assert_eq!(baseline_failures, 0, "a baseline time from a stalled iteration is no comparison");
}

fn main() {
    println!("Fig. 10 — comparison with GraKeL/GraphKernels-style baselines\n");
    // graph sizes are capped so the *baselines*' explicit nm × nm systems
    // fit comfortably in memory (the present solver never forms them)
    let count = scaled(12, 6);
    let mut rng = mgk_bench::bench_rng();
    let protein = mgk_datasets::pdb_like(count, 40, 90, &mut rng);
    let drugbank = mgk_datasets::drugbank_like(count, 4, 80, &mut rng);

    let protein_graphs: Vec<_> = protein.iter().map(|s| s.graph.clone()).collect();
    compare_dataset(
        "PDB-like protein structures",
        &protein_graphs,
        ElementKernel::default(),
        mgk_bench::distance_kernel(),
    );
    compare_dataset(
        "DrugBank-like molecules",
        &drugbank,
        AtomKernel::default(),
        BondKernel::default(),
    );

    println!("Paper reference: 153 s vs 5.8 days / 22 days on PDB (3297x / 12430x) and");
    println!("172 s vs 12.9 days / 2.0 days on DrugBank (6461x / 998x) for the GPU solver");
    println!("against GraKeL and GraphKernels respectively.");
}
