//! GraphKernels-style fixed-point solver, the second CPU baseline of
//! Fig. 10.
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
//! The sweep matrix `M = P× ∘ E× · V×` is a [`LinearOperator<f64>`]
//! (`WalkSweepOperator`) over the naive primitive's materialized `f32`
//! product ([`NaiveProduct`]), driven by this module's Richardson iteration
//! at the `f64` validation precision the monotone partial sums of Eq. (4)
//! require, single-threaded, like the package it stands in for.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::kronecker::generalized_kron_vec;
use mgk_linalg::{
    kron_vec, ConvergenceInfo, LinearOperator, Scalar, SolveOptions, TrafficCounters,
};

use crate::xmv::{DensePairData, NaiveProduct};

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

/// The explicit operands of the recurrence for one graph pair: the
/// materialized off-diagonal product `A× ∘ E×` and the four diagonal
/// products, all stored in `f32`.
struct WalkSystem {
    /// `A× ∘ E×`, row-major `n·m × n·m`.
    off_diagonal: NaiveProduct,
    /// `d ⊗ d'`.
    degree_product: Vec<f32>,
    /// `v κ⊗ v'`.
    vertex_product: Vec<f32>,
    /// `p ⊗ p'`.
    start_product: Vec<f32>,
    /// `q ⊗ q'`.
    stop_product: Vec<f32>,
}

impl WalkSystem {
    /// Assemble the explicit operands of a graph pair.
    fn assemble<V, E, KV, KE>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: &KE,
    ) -> Self
    where
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E>,
    {
        WalkSystem {
            off_diagonal: NaiveProduct::new(&DensePairData::new(g1, g2, edge_kernel), edge_kernel),
            degree_product: kron_vec(&g1.laplacian_degrees(), &g2.laplacian_degrees()),
            vertex_product: generalized_kron_vec(g1.vertex_labels(), g2.vertex_labels(), |a, b| {
                vertex_kernel.eval(a, b)
            }),
            start_product: kron_vec(g1.start_probabilities(), g2.start_probabilities()),
            stop_product: kron_vec(g1.stop_probabilities(), g2.stop_probabilities()),
        }
    }
}

/// The sweep matrix `M = D×⁻¹ (A× ∘ E×) V×` of the fixed-point recurrence,
/// as a [`LinearOperator<f64>`] over the explicit `f32` operands of a
/// [`WalkSystem`].
///
/// One application is one dense random-walk sweep: weight the iterate by
/// the vertex-kernel diagonal `V×`, stream the off-diagonal product matrix
/// against it, and scale each row by the inverse degree product. All
/// arithmetic runs in `f64` over the widened `f32` operands — the
/// instantiation of the workspace's mixed-precision contract that the
/// truncated path-sum semantics (monotone partial sums) need.
struct WalkSweepOperator<'a> {
    sys: &'a WalkSystem,
}

impl LinearOperator<f64> for WalkSweepOperator<'_> {
    fn dim(&self) -> usize {
        self.sys.off_diagonal.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[f64], y: &mut [f64], counters: &mut TrafficCounters) {
        let dim = self.sys.off_diagonal.dim();
        let matrix = self.sys.off_diagonal.matrix();
        // w = V× x (element-wise)
        let w: Vec<f64> =
            x.iter().zip(&self.sys.vertex_product).map(|(a, &b)| a * b as f64).collect();
        for (i, slot) in y.iter_mut().enumerate() {
            let row = &matrix[i * dim..(i + 1) * dim];
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

/// Fixed-point (Richardson) iteration `x ← b + A·x` from `x = b`.
///
/// After `k` sweeps the iterate is the partial Neumann sum `Σ_{i≤k} Aⁱ b`,
/// so for the marginalized-kernel recurrence the truncated iterate *is*
/// the truncated path-sum of Eq. (4): the convergence certificate is the
/// monotone partial sum, not a Krylov residual. Convergence is declared
/// when the relative change of one sweep drops to `opts.tolerance`:
/// `‖x_{k+1} − x_k‖ ≤ tolerance · max(‖x_{k+1}‖, ε)`. A `tolerance` of
/// zero runs exactly `max_iterations` sweeps (a fixed truncation length).
///
/// Operator traffic flows through
/// [`apply_counted`](LinearOperator::apply_counted); the driver's own
/// vector work (the `b + A·x` add and the change/norm reductions) is
/// attributed with the same per-element accounting as the CG recurrences.
fn fixed_point_counted<T: Scalar, A: LinearOperator<T> + ?Sized>(
    a: &A,
    b: &[T],
    opts: &SolveOptions,
    counters: &mut TrafficCounters,
) -> (Vec<T>, ConvergenceInfo) {
    let n = b.len();
    assert_eq!(a.dim(), n, "operator dimension must match right-hand side");
    let nn = n as u64;

    let mut x: Vec<T> = b.to_vec();
    let mut ax = vec![T::ZERO; n];
    let mut next = vec![T::ZERO; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut rel_change = 0.0f64;
    while iterations < opts.max_iterations {
        a.apply_counted(&x, &mut ax, counters);
        for ((ni, &bi), &axi) in next.iter_mut().zip(b).zip(&ax) {
            *ni = bi + axi;
        }
        iterations += 1;
        // one add streaming b and A·x, plus the change/norm reductions
        counters.count_vector_op_t::<T>(2 * nn, nn, nn);
        counters.count_vector_op_t::<T>(2 * nn, 0, 5 * nn);
        let diff = next
            .iter()
            .zip(&x)
            .map(|(&a, &b)| {
                let d = a.to_f64() - b.to_f64();
                d * d
            })
            .sum::<f64>()
            .sqrt();
        let norm = next
            .iter()
            .map(|&a| {
                let v = a.to_f64();
                v * v
            })
            .sum::<f64>()
            .sqrt();
        std::mem::swap(&mut x, &mut next);
        rel_change = diff / norm.max(1e-300);
        if diff <= opts.tolerance * norm.max(1e-300) {
            converged = true;
            break;
        }
    }
    (x, ConvergenceInfo { iterations, relative_residual: rel_change, converged })
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
/// partial sums — so it drives a Richardson iteration with the sweep
/// matrix as a [`LinearOperator<f64>`].
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
    fn kernel_counted<V, E>(
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
        let sys = WalkSystem::assemble(g1, g2, &self.vertex_kernel, &self.edge_kernel);
        // r ← q× + M r from r = q×
        let b: Vec<f64> = sys.stop_product.iter().map(|&q| q as f64).collect();
        let operator = WalkSweepOperator { sys: &sys };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_core::{MarginalizedKernelSolver, SolverConfig};
    use mgk_graph::{Graph, GraphBuilder};
    use mgk_kernels::{KroneckerDelta, SquareExponential, UnitKernel};
    use mgk_linalg::DiagonalOperator;

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
        let sys = WalkSystem::assemble(g1, g2, vertex_kernel, edge_kernel);
        let dim = sys.off_diagonal.dim();
        let mut r: Vec<f64> = sys.stop_product.iter().map(|&q| q as f64).collect();
        let mut next = vec![0.0f64; dim];
        let mut iterations = 0;
        let mut converged = false;
        while iterations < options.max_iterations {
            let w: Vec<f64> =
                r.iter().zip(&sys.vertex_product).map(|(a, &b)| a * b as f64).collect();
            for (i, slot) in next.iter_mut().enumerate() {
                let row = &sys.off_diagonal.matrix()[i * dim..(i + 1) * dim];
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

    #[test]
    fn fixed_point_converges_to_the_neumann_sum() {
        // contraction A = 0.5·I: the fixed point of x = b + A x is 2b
        let a = DiagonalOperator::new(vec![0.5f64; 4]);
        let b = vec![1.0f64, 2.0, -1.0, 0.5];
        let (x, info) = fixed_point_counted(
            &a,
            &b,
            &SolveOptions { max_iterations: 500, tolerance: 1e-12 },
            &mut TrafficCounters::new(),
        );
        assert!(info.converged);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - 2.0 * bi).abs() < 1e-9, "{xi} vs {}", 2.0 * bi);
        }
    }

    #[test]
    fn fixed_point_truncation_runs_exactly_the_budget() {
        // tolerance 0 = fixed truncation length: k sweeps accumulate the
        // partial Neumann sum Σ_{i<=k} A^i b
        let a = DiagonalOperator::new(vec![0.5f64; 2]);
        let b = vec![1.0f64, 1.0];
        for k in [1usize, 3, 7] {
            let (x, info) = fixed_point_counted(
                &a,
                &b,
                &SolveOptions { max_iterations: k, tolerance: 0.0 },
                &mut TrafficCounters::new(),
            );
            assert!(!info.converged);
            assert_eq!(info.iterations, k);
            let expect: f64 = (0..=k).map(|i| 0.5f64.powi(i as i32)).sum();
            assert!((x[0] - expect).abs() < 1e-12, "k={k}: {} vs {expect}", x[0]);
        }
    }

    #[test]
    fn fixed_point_counts_operator_and_vector_traffic() {
        let a = DiagonalOperator::new(vec![0.25f32; 8]);
        let b = vec![1.0f32; 8];
        let mut counters = TrafficCounters::new();
        let (_, info) = fixed_point_counted(&a, &b, &SolveOptions::default(), &mut counters);
        assert!(info.converged);
        // per sweep: the diagonal apply (8 flops) plus 6n vector flops
        let k = info.iterations as u64;
        assert_eq!(counters.flops, k * (8 + 6 * 8));
        assert!(counters.global_load_bytes > 0);
    }
}
