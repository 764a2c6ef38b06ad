//! The baselines as whole solves: the system of Eq. (1) with its
//! off-diagonal part `A× ∘ E×` applied by the naive materialized product
//! (Section II-D), by a dense on-the-fly primitive (Section III) or by the
//! octile loop of a Fig. 9 level below the serving one ([`OctileProduct`])
//! in place of the octile operator the solver serves with.
//!
//! Everything but that product comes from `mgk-core`: the graphs are
//! prepared by [`MarginalizedKernelSolver::prepare`], and the diagonal, the
//! preconditioner, the right-hand side and the start product are those of
//! the assembled [`ProductSystem`]. A baseline solve therefore runs the PCG
//! iteration of [`MarginalizedKernelSolver`] on the same system and differs
//! from the octile solve by rounding alone.

use std::time::{Duration, Instant};

use rayon::prelude::*;

use mgk_core::{
    GramResult, KernelResult, MarginalizedKernelSolver, ProductSystem, SolverConfig, SolverError,
    StageBreakdown,
};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{
    pcg_counted, DiagonalOperator, LinearOperator, Precision, Scalar, TrafficCounters,
};

use crate::ablation::{OctileProduct, OctileXmv};
use crate::xmv::{DensePairData, NaiveProduct, XmvPrimitive};

/// How a baseline applies `A× ∘ E×`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseXmv {
    /// Materialize `L× = (A ⊗ A') ∘ (E κ⊗ E')` and re-read it every
    /// application — the naive baseline of Section II-D.
    Naive,
    /// Regenerate the product on the fly from dense operands with one of
    /// the Section III primitives.
    OnTheFly(XmvPrimitive),
    /// Loop over the octile pairs with a Fig. 9 level's routing and traffic
    /// policy.
    Octile(OctileXmv),
}

/// `A× ∘ E×` of one graph pair in a baseline realization.
enum DenseOffDiagonal<E> {
    /// The materialized product matrix.
    Naive(NaiveProduct),
    /// Densified operands and the primitive that streams them.
    OnTheFly {
        /// Densified operands.
        data: DensePairData<E>,
        /// Which streaming strategy to use.
        primitive: XmvPrimitive,
    },
    /// The tiled operands and their tile-pair loop.
    Octile(Box<OctileProduct<E>>),
}

impl<E: Copy + Default> DenseOffDiagonal<E> {
    /// Densify or tile a pair of (prepared) graphs for `xmv`.
    fn new<V, K: BaseKernel<E>>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        edge_kernel: &K,
        xmv: DenseXmv,
    ) -> Self {
        let dense = || DensePairData::new(g1, g2, edge_kernel);
        match xmv {
            DenseXmv::Naive => DenseOffDiagonal::Naive(NaiveProduct::new(&dense(), edge_kernel)),
            DenseXmv::OnTheFly(primitive) => {
                DenseOffDiagonal::OnTheFly { data: dense(), primitive }
            }
            DenseXmv::Octile(octile) => {
                DenseOffDiagonal::Octile(Box::new(OctileProduct::new(g1, g2, edge_kernel, octile)))
            }
        }
    }

    /// `y ← (A× ∘ E×) x`, adding the traffic the primitive counts as it
    /// applies to `counters`.
    fn apply<T: Scalar, K: BaseKernel<E>>(
        &self,
        edge_kernel: &K,
        x: &[T],
        y: &mut [T],
        counters: &mut TrafficCounters,
    ) {
        y.iter_mut().for_each(|v| *v = T::ZERO);
        match self {
            DenseOffDiagonal::Naive(naive) => naive.apply(x, y, counters),
            DenseOffDiagonal::OnTheFly { data, primitive } => {
                primitive.apply(data, edge_kernel, x, y, counters)
            }
            DenseOffDiagonal::Octile(octile) => octile.apply(edge_kernel, x, y, counters),
        }
    }
}

/// The full system operator `D× V×⁻¹ − A× ∘ E×` over a baseline
/// off-diagonal product, at the vector [`Scalar`] precision `T`: the
/// counterpart of `mgk-core`'s `SystemOperator`, with the same fused
/// diagonal sweep and the same accounting.
struct DenseSystemOperator<'a, E, K, T> {
    off_diagonal: &'a DenseOffDiagonal<E>,
    edge_kernel: &'a K,
    diagonal: Vec<T>,
}

impl<'a, E, K, T> DenseSystemOperator<'a, E, K, T>
where
    T: Scalar,
    E: Copy + Default,
    K: BaseKernel<E>,
{
    /// The operator of `system` with `off_diagonal` in place of its octile
    /// product.
    fn new(
        system: &ProductSystem<E, K>,
        off_diagonal: &'a DenseOffDiagonal<E>,
        edge_kernel: &'a K,
    ) -> Self {
        DenseSystemOperator { off_diagonal, edge_kernel, diagonal: system.system_diagonal::<T>() }
    }
}

impl<E, K, T> LinearOperator<T> for DenseSystemOperator<'_, E, K, T>
where
    T: Scalar,
    E: Copy + Default,
    K: BaseKernel<E>,
{
    fn dim(&self) -> usize {
        self.diagonal.len()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        self.off_diagonal.apply(self.edge_kernel, x, y, counters);
        for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.diagonal) {
            *yi = di * xi - *yi;
        }
        // the fused diagonal sweep, counted as `SystemOperator` counts it
        let n = self.diagonal.len() as u64;
        counters.flops += 2 * n;
        counters.global_load_bytes += 3 * n * T::BYTES;
        counters.global_store_bytes += n * T::BYTES;
    }
}

/// A marginalized graph kernel solver whose off-diagonal product is a
/// baseline. Its results carry no nodal vector.
#[derive(Debug, Clone)]
pub struct DenseSolver<KV, KE> {
    vertex_kernel: KV,
    edge_kernel: KE,
    config: SolverConfig,
    xmv: DenseXmv,
}

impl<KV, KE> DenseSolver<KV, KE> {
    /// Create a solver from vertex and edge base kernels, a solver
    /// configuration and the baseline realization of `A× ∘ E×`.
    pub fn new(vertex_kernel: KV, edge_kernel: KE, config: SolverConfig, xmv: DenseXmv) -> Self {
        DenseSolver { vertex_kernel, edge_kernel, config, xmv }
    }

    /// Apply the configured per-graph preprocessing, as
    /// [`MarginalizedKernelSolver::prepare`] does.
    fn prepare<V: Clone, E: Copy + Default>(&self, g: &Graph<V, E>) -> Graph<V, E> {
        MarginalizedKernelSolver::new(&self.vertex_kernel, &self.edge_kernel, self.config)
            .prepare(g)
            .unwrap_or_else(|| g.clone())
    }

    /// Evaluate the kernel between two graphs at the configured precision.
    pub fn kernel<V, E>(
        &self,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
    ) -> Result<KernelResult, SolverError>
    where
        V: Clone,
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    {
        self.kernel_prepared(&self.prepare(g1), &self.prepare(g2))
    }

    /// Evaluate the kernel of two prepared graphs at the configured
    /// precision.
    fn kernel_prepared<V, E>(
        &self,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
    ) -> Result<KernelResult, SolverError>
    where
        V: Clone,
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    {
        if g1.num_vertices() == 0 || g2.num_vertices() == 0 {
            return Err(SolverError::EmptyGraph);
        }
        let system = ProductSystem::assemble(
            g1,
            g2,
            &self.vertex_kernel,
            self.edge_kernel.clone(),
            &self.config,
        );
        let off_diagonal = DenseOffDiagonal::new(g1, g2, &self.edge_kernel, self.xmv);
        match self.config.precision {
            Precision::F32 => self.solve_at::<f32, E>(&system, &off_diagonal),
            Precision::F64 => self.solve_at::<f64, E>(&system, &off_diagonal),
        }
    }

    /// Run PCG on `system` with `off_diagonal` at the [`Scalar`] `U`, and
    /// contract the solution into the kernel value in `f64`, as the solver
    /// does.
    fn solve_at<U, E>(
        &self,
        system: &ProductSystem<E, KE>,
        off_diagonal: &DenseOffDiagonal<E>,
    ) -> Result<KernelResult, SolverError>
    where
        U: Scalar,
        E: Copy + Default,
        KE: BaseKernel<E>,
    {
        let rhs = system.rhs::<U>();
        let operator =
            DenseSystemOperator::<E, KE, U>::new(system, off_diagonal, &self.edge_kernel);
        let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<U>());
        let mut traffic = TrafficCounters::new();
        let (x, info) =
            pcg_counted(&operator, &preconditioner, &rhs, &self.config.solve, &mut traffic);
        if !info.converged {
            return Err(SolverError::DidNotConverge {
                iterations: info.iterations,
                relative_residual: info.relative_residual,
            });
        }
        let value_f64: f64 =
            system.start_product().iter().zip(&x).map(|(&p, &xi)| p as f64 * xi.to_f64()).sum();
        Ok(KernelResult {
            value: value_f64 as f32,
            value_f64,
            iterations: info.iterations,
            converged: info.converged,
            relative_residual: info.relative_residual,
            traffic,
            nodal: None,
            stages: StageBreakdown::default(),
        })
    }

    /// The normalized Gram matrix of `graphs` over the pairs `GramEngine`
    /// solves (the upper triangle, each graph prepared once), handed to the
    /// pool in one contiguous chunk per thread.
    pub fn gram<V, E>(&self, graphs: &[Graph<V, E>]) -> GramResult
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Sync,
        KE: BaseKernel<E> + Clone + Sync,
    {
        let prep_start = Instant::now();
        let prepared: Vec<Graph<V, E>> = graphs.iter().map(|g| self.prepare(g)).collect();
        static_gram(&prepared, prep_start.elapsed(), |a, b| self.kernel_prepared(a, b))
    }
}

/// The normalized Gram matrix of `prepared` graphs, each pair of the upper
/// triangle solved by `solve`: the pairs are handed to the pool in one
/// contiguous chunk per thread, assigned up front, which is the static
/// scheduling Fig. 9 measures below `+DynSched`. The normalization divides
/// in f64, as `GramEngine`'s does.
pub(crate) fn static_gram<P, F>(prepared: &[P], preprocessing: Duration, solve: F) -> GramResult
where
    P: Sync,
    F: Fn(&P, &P) -> Result<KernelResult, SolverError> + Sync,
{
    let n = prepared.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
    let start = Instant::now();
    let solve_pair = |&(i, j): &(usize, usize)| (i, j, solve(&prepared[i], &prepared[j]));
    let threads = rayon::current_num_threads().max(1);
    let chunk = pairs.len().div_ceil(threads).max(1);
    let results: Vec<_> = pairs
        .par_chunks(chunk)
        .flat_map_iter(|chunk| chunk.iter().map(solve_pair).collect::<Vec<_>>())
        .collect();
    let elapsed = start.elapsed();

    let mut matrix = vec![f32::NAN; n * n];
    let mut traffic = TrafficCounters::new();
    let (mut total_iterations, mut failures) = (0, 0);
    for (i, j, result) in results {
        match result {
            Ok(r) => {
                matrix[i * n + j] = r.value;
                matrix[j * n + i] = r.value;
                traffic.accumulate(&r.traffic);
                total_iterations += r.iterations;
            }
            Err(_) => failures += 1,
        }
    }
    let diag: Vec<f64> = (0..n).map(|i| matrix[i * n + i] as f64).collect();
    for i in 0..n {
        for j in 0..n {
            let d = (diag[i] * diag[j]).sqrt();
            if d > 0.0 {
                matrix[i * n + j] = (matrix[i * n + j] as f64 / d) as f32;
            }
        }
    }
    GramResult {
        matrix,
        num_graphs: n,
        total_iterations,
        traffic,
        failures,
        elapsed,
        preprocessing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::OptimizationLevel;
    use mgk_graph::{generators, GraphBuilder};
    use mgk_kernels::{KroneckerDelta, SquareExponential, UnitKernel};
    use mgk_linalg::{direct, kron_dense, kron_vec, kronecker, DenseMatrix, SolveOptions};
    use mgk_reorder::ReorderMethod;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ground truth via an explicit dense solve of Eq. (1) in f64.
    fn dense_reference<V: Clone, E: Copy + Default>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        kv: &impl BaseKernel<V>,
        ke: &impl BaseKernel<E>,
    ) -> f64 {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let a1 = DenseMatrix::from_row_major(n, n, g1.adjacency_dense());
        let a2 = DenseMatrix::from_row_major(m, m, g2.adjacency_dense());
        let ax = kron_dense(&a1, &a2);
        let e1 = g1.edge_labels_dense(E::default());
        let e2 = g2.edge_labels_dense(E::default());
        let ex = kronecker::generalized_kron(&e1, (n, n), &e2, (m, m), |a, b| ke.eval(a, b));
        let dx = kron_vec(&g1.laplacian_degrees(), &g2.laplacian_degrees());
        let vx = kronecker::generalized_kron_vec(g1.vertex_labels(), g2.vertex_labels(), |a, b| {
            kv.eval(a, b)
        });
        let qx = kron_vec(g1.stop_probabilities(), g2.stop_probabilities());
        let px = kron_vec(g1.start_probabilities(), g2.start_probabilities());
        let nm = n * m;
        // system matrix: diag(dx/vx) - Ax .* Ex
        let mut mat = vec![0.0f64; nm * nm];
        for i in 0..nm {
            for j in 0..nm {
                mat[i * nm + j] = -(ax[(i, j)] as f64) * (ex[(i, j)] as f64);
            }
            mat[i * nm + i] += dx[i] as f64 / vx[i] as f64;
        }
        let rhs: Vec<f64> = dx.iter().zip(&qx).map(|(&d, &q)| d as f64 * q as f64).collect();
        let x = direct::lu_solve(&mat, &rhs).expect("reference system solvable");
        px.iter().zip(&x).map(|(&p, &xi)| p as f64 * xi).sum()
    }

    fn small_labeled_pair() -> (Graph<u8, f32>, Graph<u8, f32>) {
        let mut b1: GraphBuilder<u8, f32> = GraphBuilder::new();
        for label in [1u8, 2, 1, 3, 2] {
            b1.add_vertex(label);
        }
        for (u, v, w, l) in [
            (0, 1, 1.0, 0.5),
            (1, 2, 0.8, 1.0),
            (2, 3, 1.0, 1.5),
            (3, 4, 0.6, 0.7),
            (4, 0, 1.0, 2.0),
        ] {
            b1.add_edge(u, v, w, l).unwrap();
        }
        let mut b2: GraphBuilder<u8, f32> = GraphBuilder::new();
        for label in [2u8, 1, 3, 1] {
            b2.add_vertex(label);
        }
        for (u, v, w, l) in [(0, 1, 1.0, 0.9), (1, 2, 0.7, 1.2), (2, 3, 1.0, 0.4), (3, 0, 0.9, 1.8)]
        {
            b2.add_edge(u, v, w, l).unwrap();
        }
        (b1.build().unwrap(), b2.build().unwrap())
    }

    #[test]
    fn naive_and_dense_solves_match_dense_reference_labeled() {
        let (g1, g2) = small_labeled_pair();
        let reference =
            dense_reference(&g1, &g2, &KroneckerDelta::new(0.5), &SquareExponential::new(1.0));
        for xmv in [DenseXmv::Naive, DenseXmv::OnTheFly(XmvPrimitive::OCTILE)] {
            let solver = DenseSolver::new(
                KroneckerDelta::new(0.5),
                SquareExponential::new(1.0),
                SolverConfig {
                    solve: SolveOptions { tolerance: 1e-9, ..SolveOptions::default() },
                    ..SolverConfig::default()
                },
                xmv,
            );
            let result = solver.kernel(&g1, &g2).unwrap();
            let rel = ((result.value as f64) - reference).abs() / reference.abs();
            assert!(rel < 1e-4, "{xmv:?}: {} vs reference {reference}", result.value);
            assert!(result.converged);
            assert!(result.iterations > 0);
        }
    }

    #[test]
    fn the_dense_configuration_agrees_with_the_octile_ablation_configurations() {
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = generators::newman_watts_strogatz(24, 2, 0.15, &mut rng);
        let g2 = generators::barabasi_albert(18, 3, &mut rng);
        let base = SolverConfig::default();
        let value = |level: OptimizationLevel| {
            let config = level.solver_config(&base);
            match level.xmv() {
                Some(xmv) => DenseSolver::new(UnitKernel, UnitKernel, config, xmv).kernel(&g1, &g2),
                None => MarginalizedKernelSolver::unlabeled(config).kernel(&g1, &g2),
            }
            .unwrap()
            .value
        };
        let dense = value(OptimizationLevel::Dense);
        let rcm = SolverConfig { reorder: ReorderMethod::Rcm, ..base };
        let rcm = MarginalizedKernelSolver::unlabeled(rcm).kernel(&g1, &g2).unwrap().value;
        for v in OptimizationLevel::ALL[1..].iter().map(|&level| value(level)).chain([rcm]) {
            assert!((v - dense).abs() < 1e-4 * dense.abs(), "{v} vs {dense}");
        }
    }

    #[test]
    fn naive_and_dense_off_diagonals_agree_with_the_octile_one() {
        let g1: Graph = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let g2: Graph = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let x: Vec<f32> = (0..20).map(|k| 0.05 * k as f32 - 0.3).collect();
        let mut results = Vec::new();
        for xmv in [DenseXmv::Naive, DenseXmv::OnTheFly(XmvPrimitive::OCTILE)] {
            let mut y = vec![0.0f32; 20];
            let mut traffic = TrafficCounters::new();
            DenseOffDiagonal::new(&g1, &g2, &UnitKernel, xmv).apply(
                &UnitKernel,
                &x,
                &mut y,
                &mut traffic,
            );
            results.push(y);
            assert!(traffic.flops > 0);
        }
        let system =
            ProductSystem::assemble(&g1, &g2, &UnitKernel, UnitKernel, &SolverConfig::default());
        let mut y = vec![0.0f32; 20];
        let mut traffic = TrafficCounters::new();
        system.apply_off_diagonal(&x, &mut y, &mut traffic);
        results.push(y);
        assert!(traffic.flops > 0);
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }
}
