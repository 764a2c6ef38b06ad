//! GraphKernels-style fixed-point solver.
//!
//! Instead of solving the symmetric system of Eq. (14), this baseline
//! iterates the defining recurrence of the marginalized kernel directly
//! (Eq. 9 / Appendix A):
//!
//! ```text
//! r ← q× + (P× ∘ E×) V× r,        P× = D×⁻¹ A×
//! K  = p×ᵀ V× r
//! ```
//!
//! Each iteration adds the contribution of one more random-walk step, so a
//! truncation of the iteration is exactly the truncated path-sum of
//! Eq. (4). This doubles as an algorithm-independent reference for the
//! random-walk semantics of the kernel.
//!
//! Since the operator/solver surface became scalar-generic, the baseline
//! owns **no iteration loop of its own**: the sweep matrix
//! `M = P× ∘ E× · V×` is a [`LinearOperator<f64>`] (`WalkSweepOperator`)
//! over the shared `f32` operands, and the recurrence is driven by the
//! workspace-wide [`mgk_linalg::fixed_point_counted`] driver — the same
//! operator surface the PCG solvers apply through, instantiated at the
//! `f64` validation precision the monotone partial sums of Eq. (4)
//! require.

use crate::DenseSystem;
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{fixed_point_counted, LinearOperator, SolveOptions, TrafficCounters};

/// Result of a fixed-point evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPointResult {
    /// The kernel value.
    pub value: f64,
    /// Number of iterations (random-walk steps) accumulated.
    pub iterations: usize,
    /// Whether the iteration converged before hitting the budget.
    pub converged: bool,
}

/// The sweep matrix `M = D×⁻¹ (A× ∘ E×) V×` of the fixed-point recurrence,
/// as a [`LinearOperator<f64>`] over the explicit `f32` operands of a
/// [`DenseSystem`].
///
/// One application is one dense random-walk sweep: weight the iterate by
/// the vertex-kernel diagonal `V×`, stream the off-diagonal product matrix
/// against it, and scale each row by the inverse degree product. All
/// arithmetic runs in `f64` over the widened `f32` operands — the
/// instantiation of the workspace's mixed-precision contract that the
/// truncated path-sum semantics (monotone partial sums) need.
pub(crate) struct WalkSweepOperator<'a> {
    sys: &'a DenseSystem,
}

impl<'a> WalkSweepOperator<'a> {
    /// View the sweep matrix of an assembled dense system.
    pub(crate) fn new(sys: &'a DenseSystem) -> Self {
        WalkSweepOperator { sys }
    }
}

impl LinearOperator<f64> for WalkSweepOperator<'_> {
    fn dim(&self) -> usize {
        self.sys.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[f64], y: &mut [f64], counters: &mut TrafficCounters) {
        let dim = self.sys.dim;
        // w = V× x (element-wise)
        let w: Vec<f64> =
            x.iter().zip(&self.sys.vertex_product).map(|(a, &b)| a * b as f64).collect();
        for (i, slot) in y.iter_mut().enumerate() {
            let row = &self.sys.off_diagonal[i * dim..(i + 1) * dim];
            let mut acc = 0.0;
            for (&a, b) in row.iter().zip(&w) {
                acc += a as f64 * b;
            }
            *slot = acc / self.sys.degree_product[i] as f64;
        }
        // one dense sweep: stream the f32 matrix and diagonals once, write
        // the f64 sweep result back; the vertex weighting, the row
        // products and the inverse-degree scaling are the arithmetic
        counters.global_load_bytes += (dim * dim + 2 * dim) as u64 * 4 + dim as u64 * 8;
        counters.global_store_bytes += dim as u64 * 8;
        counters.flops += (2 * dim * dim + 2 * dim) as u64;
    }
}

/// Single-threaded fixed-point / power-iteration baseline in the style of
/// the GraphKernels package.
///
/// The iteration is configured through the shared [`SolveOptions`] surface
/// (`tolerance` is the relative-change threshold on the solution vector,
/// `max_iterations` the maximum walk length) and reports memory traffic
/// through the same [`TrafficCounters`] accounting as every other solver.
/// Unlike the CG-based solvers it is not a Krylov method — the truncated
/// path-sum semantics (Eq. 4) it certifies require exactly monotone
/// partial sums — so it drives
/// [`mgk_linalg::fixed_point_counted`], the Richardson-iteration side of
/// the shared generic surface, with the sweep matrix as a
/// [`LinearOperator<f64>`].
#[derive(Debug, Clone)]
pub struct FixedPointSolver<KV, KE> {
    vertex_kernel: KV,
    edge_kernel: KE,
    /// Options of the fixed-point iteration (shared [`SolveOptions`]
    /// surface).
    pub options: SolveOptions,
}

impl<KV, KE> FixedPointSolver<KV, KE> {
    /// Create the baseline from a pair of base kernels.
    pub fn new(vertex_kernel: KV, edge_kernel: KE) -> Self {
        FixedPointSolver {
            vertex_kernel,
            edge_kernel,
            options: SolveOptions { max_iterations: 10_000, tolerance: 1e-10 },
        }
    }

    /// Evaluate the kernel between two graphs.
    pub fn kernel<V, E>(&self, g1: &Graph<V, E>, g2: &Graph<V, E>) -> FixedPointResult
    where
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E>,
    {
        self.kernel_counted(g1, g2, &mut TrafficCounters::new())
    }

    /// [`kernel`](Self::kernel) with memory-traffic accounting: the sweep
    /// operator and the driver's vector recurrences add to `counters`
    /// through the same instrumented surface as every other solver.
    pub fn kernel_counted<V, E>(
        &self,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        counters: &mut TrafficCounters,
    ) -> FixedPointResult
    where
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E>,
    {
        let sys = DenseSystem::assemble(g1, g2, &self.vertex_kernel, &self.edge_kernel);
        // r ← q× + M r from r = q×, on the shared fixed-point driver
        let b: Vec<f64> = sys.stop_product.iter().map(|&q| q as f64).collect();
        let operator = WalkSweepOperator::new(&sys);
        let (r, info) = fixed_point_counted(&operator, &b, &self.options, counters);
        // K = p×ᵀ V× r
        let value = sys
            .start_product
            .iter()
            .zip(&sys.vertex_product)
            .zip(&r)
            .map(|((&p, &v), &ri)| p as f64 * v as f64 * ri)
            .sum();
        FixedPointResult { value, iterations: info.iterations, converged: info.converged }
    }

    /// Evaluate the kernel truncated at a fixed maximum walk length — the
    /// explicit path-sum of Eq. (4) up to `max_length` steps.
    pub fn truncated_kernel<V, E>(
        &self,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        max_length: usize,
    ) -> f64
    where
        E: Copy + Default,
        KV: BaseKernel<V> + Clone,
        KE: BaseKernel<E> + Clone,
    {
        let mut solver = self.clone();
        solver.options = SolveOptions { max_iterations: max_length, tolerance: 0.0 };
        solver.kernel(g1, g2).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_core::{MarginalizedKernelSolver, SolverConfig};
    use mgk_graph::{Graph, GraphBuilder};
    use mgk_kernels::{KroneckerDelta, SquareExponential, UnitKernel};

    /// Verbatim copy of the seed's bespoke fixed-point loop (the
    /// implementation this baseline had before it was rewritten onto the
    /// shared generic surface), kept as the exactness oracle: the rewrite
    /// must reproduce its values *bit for bit*, not just to tolerance.
    fn seed_reference<V, E: Copy + Default>(
        vertex_kernel: &impl BaseKernel<V>,
        edge_kernel: &impl BaseKernel<E>,
        options: &SolveOptions,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
    ) -> FixedPointResult {
        let sys = DenseSystem::assemble(g1, g2, vertex_kernel, edge_kernel);
        let dim = sys.dim;
        let mut r: Vec<f64> = sys.stop_product.iter().map(|&q| q as f64).collect();
        let mut next = vec![0.0f64; dim];
        let mut iterations = 0;
        let mut converged = false;
        while iterations < options.max_iterations {
            let w: Vec<f64> =
                r.iter().zip(&sys.vertex_product).map(|(a, &b)| a * b as f64).collect();
            for (i, slot) in next.iter_mut().enumerate() {
                let row = &sys.off_diagonal[i * dim..(i + 1) * dim];
                let mut acc = 0.0;
                for (&a, b) in row.iter().zip(&w) {
                    acc += a as f64 * b;
                }
                *slot = sys.stop_product[i] as f64 + acc / sys.degree_product[i] as f64;
            }
            iterations += 1;
            let diff: f64 = next.iter().zip(&r).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            let norm: f64 = next.iter().map(|a| a * a).sum::<f64>().sqrt();
            std::mem::swap(&mut r, &mut next);
            if diff <= options.tolerance * norm.max(1e-300) {
                converged = true;
                break;
            }
        }
        let value = sys
            .start_product
            .iter()
            .zip(&sys.vertex_product)
            .zip(&r)
            .map(|((&p, &v), &ri)| p as f64 * v as f64 * ri)
            .sum();
        FixedPointResult { value, iterations, converged }
    }

    fn seed_fixture_unlabeled() -> (Graph, Graph) {
        let g1 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let g2 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        (g1, g2)
    }

    fn seed_fixture_labeled() -> (Graph<u8, f32>, Graph<u8, f32>) {
        let mut b1: GraphBuilder<u8, f32> = GraphBuilder::new();
        for l in [1u8, 2, 3] {
            b1.add_vertex(l);
        }
        b1.add_edge(0, 1, 1.0, 0.4).unwrap();
        b1.add_edge(1, 2, 0.7, 1.2).unwrap();
        let g1 = b1.build().unwrap();
        let mut b2: GraphBuilder<u8, f32> = GraphBuilder::new();
        for l in [3u8, 1] {
            b2.add_vertex(l);
        }
        b2.add_edge(0, 1, 0.9, 0.8).unwrap();
        let g2 = b2.build().unwrap();
        (g1, g2)
    }

    #[test]
    fn rewritten_solver_reproduces_the_seed_loop_exactly_unlabeled() {
        let (g1, g2) = seed_fixture_unlabeled();
        let solver = FixedPointSolver::new(UnitKernel, UnitKernel);
        for opts in [
            solver.options,
            SolveOptions { max_iterations: 1, tolerance: 0.0 },
            SolveOptions { max_iterations: 16, tolerance: 0.0 },
            SolveOptions { max_iterations: 10_000, tolerance: 1e-6 },
        ] {
            let mut s = solver.clone();
            s.options = opts;
            let got = s.kernel(&g1, &g2);
            let want = seed_reference(&UnitKernel, &UnitKernel, &opts, &g1, &g2);
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "value must be bit-identical to the seed loop under {opts:?}: {} vs {}",
                got.value,
                want.value
            );
            assert_eq!(got.iterations, want.iterations, "iteration counts diverged");
            assert_eq!(got.converged, want.converged);
        }
    }

    #[test]
    fn rewritten_solver_reproduces_the_seed_loop_exactly_labeled() {
        let (g1, g2) = seed_fixture_labeled();
        let kv = KroneckerDelta::new(0.4);
        let ke = SquareExponential::new(1.0);
        let solver = FixedPointSolver::new(kv, ke);
        let got = solver.kernel(&g1, &g2);
        let want = seed_reference(&kv, &ke, &solver.options, &g1, &g2);
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{} vs {}", got.value, want.value);
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(got.converged, want.converged);
    }

    #[test]
    fn fixed_point_matches_core_solver_unlabeled() {
        let (g1, g2) = seed_fixture_unlabeled();
        let baseline = FixedPointSolver::new(UnitKernel, UnitKernel);
        let result = baseline.kernel(&g1, &g2);
        assert!(result.converged);
        let fast = MarginalizedKernelSolver::unlabeled(SolverConfig::default())
            .kernel(&g1, &g2)
            .unwrap()
            .value as f64;
        assert!((result.value - fast).abs() / fast.abs() < 1e-4, "{} vs {fast}", result.value);
    }

    #[test]
    fn fixed_point_matches_core_solver_labeled() {
        let (g1, g2) = seed_fixture_labeled();
        let kv = KroneckerDelta::new(0.4);
        let ke = SquareExponential::new(1.0);
        let baseline = FixedPointSolver::new(kv, ke);
        let result = baseline.kernel(&g1, &g2);
        let fast = MarginalizedKernelSolver::new(kv, ke, SolverConfig::default())
            .kernel(&g1, &g2)
            .unwrap()
            .value as f64;
        assert!((result.value - fast).abs() / fast.abs() < 1e-4, "{} vs {fast}", result.value);
    }

    #[test]
    fn truncated_walk_sum_is_monotone_and_converges_to_fixed_point() {
        let g1 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let g2 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let baseline = FixedPointSolver::new(UnitKernel, UnitKernel);
        let full = baseline.kernel(&g1, &g2).value;
        let mut previous = 0.0;
        for len in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            let truncated = baseline.truncated_kernel(&g1, &g2, len);
            assert!(truncated >= previous - 1e-12, "walk sum should be monotone in length");
            assert!(truncated <= full + 1e-9);
            previous = truncated;
        }
        assert!((previous - full).abs() / full < 1e-6, "{previous} vs {full}");
    }

    #[test]
    fn longer_walks_matter_more_for_small_stopping_probability() {
        // with a small stopping probability the walk continues longer, so
        // truncating at length 2 misses more of the kernel mass
        let g1 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let g2 = g1.clone();
        let baseline = FixedPointSolver::new(UnitKernel, UnitKernel);
        let fraction = |q: f32| {
            let a = g1.clone().with_uniform_stopping_probability(q);
            let b = g2.clone().with_uniform_stopping_probability(q);
            baseline.truncated_kernel(&a, &b, 2) / baseline.kernel(&a, &b).value
        };
        assert!(fraction(0.5) > fraction(0.05));
    }

    #[test]
    fn sweep_operator_traffic_is_counted() {
        let (g1, g2) = seed_fixture_unlabeled();
        let baseline = FixedPointSolver::new(UnitKernel, UnitKernel);
        let mut counters = TrafficCounters::new();
        let result = baseline.kernel_counted(&g1, &g2, &mut counters);
        assert!(result.converged);
        assert!(counters.flops > 0);
        assert!(counters.global_load_bytes > 0);
        assert!(counters.global_store_bytes > 0);
    }
}
