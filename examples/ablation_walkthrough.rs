//! Walk through the paper's optimization ladder (Fig. 9) on a small
//! dataset and watch the solver configuration, the memory traffic and the
//! wall-clock time change level by level.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ablation_walkthrough
//! ```

use mgk::gpusim::{estimate_time, DeviceSpec};
use mgk::graph::generators;
use mgk::prelude::*;
use mgk::solver::{GramConfig, GramEngine, OptimizationLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // a scaled-down slice of the paper's small-world ensemble (48-node
    // graphs instead of 96) so that even the dense baseline level finishes
    // in seconds on a laptop CPU
    let graphs: Vec<_> =
        (0..8).map(|_| generators::newman_watts_strogatz(48, 3, 0.1, &mut rng)).collect();
    let pairs = graphs.len() * (graphs.len() + 1) / 2;
    println!(
        "dataset: {} Newman–Watts–Strogatz graphs with 48 nodes -> {pairs} kernel evaluations\n",
        graphs.len()
    );

    let device = DeviceSpec::volta_v100();
    let base = SolverConfig {
        solve: mgk::linalg::SolveOptions { tolerance: 1e-6, ..Default::default() },
        ..SolverConfig::default()
    };

    println!(
        "{:<12} {:>12} {:>16} {:>16} {:>14}",
        "level", "cpu time", "kernel evals", "global traffic", "V100 proj."
    );
    let mut previous_time = None;
    for level in OptimizationLevel::ALL {
        let solver = MarginalizedKernelSolver::unlabeled(level.solver_config(&base));
        let engine =
            GramEngine::new(solver, GramConfig { scheduling: level.scheduling(), normalize: true });
        let start = Instant::now();
        let result = engine.compute(&graphs);
        let elapsed = start.elapsed();
        // project the same traffic onto a V100 with the Roofline-style model
        let projection = estimate_time(&device, &result.traffic, 1.0);
        let speedup = previous_time
            .map(|p: f64| format!("{:.2}x vs prev", p / elapsed.as_secs_f64()))
            .unwrap_or_else(|| "baseline".to_string());
        println!(
            "{:<12} {:>12} {:>16} {:>13.1} MiB {:>11.3} ms   {}",
            level.label(),
            format!("{:.2?}", elapsed),
            result.traffic.kernel_evaluations,
            result.traffic.global_bytes() as f64 / (1024.0 * 1024.0),
            projection.total_seconds * 1e3,
            speedup,
        );
        previous_time = Some(elapsed.as_secs_f64());
    }

    println!(
        "\nEach level inherits everything from the one above it, mirroring Fig. 9 of the paper."
    );
}
