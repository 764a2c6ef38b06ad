//! Quickstart: compute marginalized graph kernel values between a handful
//! of small graphs and print a normalized similarity matrix.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mgk::prelude::*;
use mgk::solver::{GramConfig, GramEngine};

fn main() {
    // Four small unlabeled graphs: a path, a cycle, a star and a clique.
    let path = Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    let cycle = Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let star = Graph::from_edge_list(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
    let clique = Graph::from_edge_list(
        5,
        &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    );
    let names = ["path", "cycle", "star", "clique"];
    let graphs = vec![path, cycle, star, clique];

    // The default configuration is the paper's full production solver:
    // octile storage, PBR reordering, adaptive tile primitives, compact
    // payloads and block-level sharing. Under the unit edge kernel of an
    // unlabeled solver the product system factors, so these pairs are
    // solved as A₁·X·A₂ᵀ; a labeled edge kernel runs the octile operator.
    let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());

    // Pairwise kernel evaluation with normalization K̂ᵢⱼ = Kᵢⱼ/√(KᵢᵢKⱼⱼ).
    let engine = GramEngine::new(solver, GramConfig::default());
    let result = engine.compute(&graphs);

    println!("normalized marginalized-graph-kernel similarity matrix\n");
    print!("{:>8}", "");
    for name in &names {
        print!("{name:>9}");
    }
    println!();
    for (i, name) in names.iter().enumerate() {
        print!("{name:>8}");
        for j in 0..graphs.len() {
            print!("{:>9.4}", result.get(i, j));
        }
        println!();
    }

    println!(
        "\nsolved {} tensor-product linear systems in {:.2?} ({} PCG iterations total)",
        graphs.len() * (graphs.len() + 1) / 2,
        result.elapsed,
        result.total_iterations
    );
    println!(
        "off-the-fly operator evaluated {} base-kernel products, moving {:.1} KiB from (simulated) device memory",
        result.traffic.kernel_evaluations,
        result.traffic.global_bytes() as f64 / 1024.0
    );
}
