//! Fig. 9 — incremental speedup of the proposed optimization techniques.
//!
//! The paper runs the full pairwise kernel computation on four datasets
//! (small-world, scale-free, protein, DrugBank), enabling one optimization
//! at a time: Dense → Sparse → +Reorder → +Adaptive → +Compact → +Block →
//! +DynSched, and reports the time to solution of each level.
//!
//! Here every level runs the same pairwise computation on the CPU (dataset
//! sizes scaled by `MGK_BENCH_SCALE`, default a small fraction of the
//! paper's) and additionally projects the counted memory traffic onto the
//! V100 model. The shape to compare with the paper: the dense baseline is
//! slowest, sparsity + reordering + adaptive primitives give the bulk of
//! the improvement, block sharing matters most for the size-skewed
//! DrugBank-like set, and dynamic scheduling adds a little on top.
//!
//! +Block and +DynSched run the serving solver, its layered and streamed
//! octile sweep: +Block assigns the pairs to threads up front, one
//! contiguous chunk each, and +DynSched runs `GramEngine`, which hands them
//! out one at a time. Sparse to +Compact route tile pairs
//! or count traffic in ways the serving operator does not, so they run the
//! same PCG iteration over `mgk-bench`'s plain per-tile-pair loop
//! (`OctileProduct`), which gives the serving sweep's bits at the serving
//! policy. Their CPU-time column times that loop, which pays per tile pair
//! what the serving sweep pays per run of tiles; their projections and
//! iteration counts are what the serving operator would give with their
//! policy.
//!
//! From +Adaptive on, each tile pair's primitive is picked by the CPU table
//! (`KindTable`), not the paper's GPU model, so those rows project the
//! traffic *counted* for CPU-routed work — mostly dense×dense on sparse
//! graphs, counted as the GPU's full 64×64 block — onto the V100.

use std::time::Instant;

use mgk_bench::ablation::OptimizationLevel;
use mgk_bench::device::DeviceSpec;
use mgk_bench::project::estimate_time;
use mgk_bench::{
    bench_scale, distance_kernel, fmt_duration, scaled, AtomKernel, BondKernel, ElementKernel,
};
use mgk_core::SolverConfig;
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;

fn run_dataset<V, E, KV, KE>(name: &str, graphs: &[Graph<V, E>], vertex_kernel: KV, edge_kernel: KE)
where
    V: Clone + Send + Sync,
    E: Copy + Default + Send + Sync,
    KV: BaseKernel<V> + Clone + Send + Sync,
    KE: BaseKernel<E> + Clone + Send + Sync,
{
    let device = DeviceSpec::volta_v100();
    let base = SolverConfig {
        solve: mgk_linalg::SolveOptions { tolerance: 1e-6, max_iterations: 500 },
        ..SolverConfig::default()
    };
    let sizes: Vec<usize> = graphs.iter().map(|g| g.num_vertices()).collect();
    println!(
        "--- {name}: {} graphs, {}..{} nodes, {} kernel evaluations ---",
        graphs.len(),
        sizes.iter().min().unwrap(),
        sizes.iter().max().unwrap(),
        graphs.len() * (graphs.len() + 1) / 2
    );
    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>12} {:>10}",
        "level", "cpu time", "speedup", "V100 proj.", "proj speedup", "PCG iters"
    );
    let mut dense_cpu = None;
    let mut dense_proj = None;
    for level in OptimizationLevel::ALL {
        let start = Instant::now();
        let result = level.gram(graphs, vertex_kernel.clone(), edge_kernel.clone(), &base);
        let cpu = start.elapsed().as_secs_f64();
        let projection = estimate_time(&device, &result.traffic, 1.0);
        let dense_cpu = *dense_cpu.get_or_insert(cpu);
        let dense_proj = *dense_proj.get_or_insert(projection.total_seconds);
        println!(
            "{:<12} {:>12} {:>9.2}x {:>14} {:>11.2}x {:>10}",
            level.label(),
            fmt_duration(cpu),
            dense_cpu / cpu,
            fmt_duration(projection.total_seconds),
            dense_proj / projection.total_seconds,
            result.total_iterations,
        );
        assert_eq!(result.failures, 0, "convergence failures at level {}", level.label());
    }
    println!();
}

fn main() {
    // the paper uses 160 synthetic graphs of 96 nodes and the full real
    // datasets; the defaults here are sized so the *dense baseline level*
    // still finishes in minutes on a small CPU — scale up with
    // MGK_BENCH_SCALE on a bigger machine
    let synthetic_count = scaled(10, 4);
    let real_count = scaled(8, 4);
    println!(
        "Fig. 9 — incremental optimization ablation (MGK_BENCH_SCALE = {}, synthetic {} graphs, real {} graphs)\n",
        bench_scale(),
        synthetic_count,
        real_count
    );
    let mut rng = mgk_bench::bench_rng();
    let small_world = mgk_datasets::small_world(synthetic_count, &mut rng);
    let scale_free = mgk_datasets::scale_free(synthetic_count, &mut rng);
    let protein = mgk_datasets::pdb_like(real_count, 40, 110, &mut rng);
    let drugbank = mgk_datasets::drugbank_like(real_count, 4, 120, &mut rng);

    run_dataset(
        "Small world (NWS 96, k=3, p=0.1)",
        &small_world,
        mgk_kernels::UnitKernel,
        mgk_kernels::UnitKernel,
    );
    run_dataset(
        "Scale-free (BA 96, m=6)",
        &scale_free,
        mgk_kernels::UnitKernel,
        mgk_kernels::UnitKernel,
    );
    let protein_graphs: Vec<_> = protein.iter().map(|s| s.graph.clone()).collect();
    run_dataset(
        "Protein-like (PDB stand-in)",
        &protein_graphs,
        ElementKernel::default(),
        distance_kernel(),
    );
    run_dataset("DrugBank-like molecules", &drugbank, AtomKernel::default(), BondKernel::default());

    println!("Paper reference (time to solution, Dense -> full optimization):");
    println!("  small world 8.4 s -> 0.78 s (10.8x)   scale-free 7.4 s -> 1.9 s (3.9x)");
    println!("  protein 4919 s -> 157 s (31x)         DrugBank 56152 s -> 258 s (218x)");
}
