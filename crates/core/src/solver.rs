//! The per-pair marginalized graph kernel solver (Algorithm 1).
//!
//! [`MarginalizedKernelSolver::kernel_prepared`] solves one prepared pair
//! with Jacobi-preconditioned CG over the pair's [`ProductSystem`], whose
//! off-diagonal operator the edge kernel's type picks: the factored
//! `A₁·X·A₂ᵀ` under a [`CONSTANT`](BaseKernel::CONSTANT) kernel, the
//! two-level sparse octile operator of Section IV under every other.

use mgk_graph::Graph;
use mgk_kernels::{BaseKernel, UnitKernel};
use mgk_linalg::{
    pcg_counted, ConvergenceInfo, DiagonalOperator, Precision, Scalar, SolveOptions,
    TrafficCounters,
};
use mgk_reorder::ReorderMethod;
use mgk_telemetry::StageBreakdown;

use crate::prepared::PreparedGraph;
use crate::product::{ProductSystem, SystemOperator};

/// Configuration of the marginalized graph kernel solver.
///
/// The configuration does not choose the off-diagonal operator; the edge
/// kernel does. Under a kernel that is not
/// [`CONSTANT`](BaseKernel::CONSTANT) it is the two-level sparse octile one
/// of Section IV, with adaptive dense/sparse tile primitives, compact tile
/// payloads and block-level tile sharing; under a constant one (the unit
/// kernel) it is the factored product `A₁·X·A₂ᵀ`. The default
/// configuration adds PBR reordering: the paper's full production kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Convergence threshold and iteration budget of the PCG iteration —
    /// the same [`SolveOptions`] the `mgk-linalg` solvers and the explicit
    /// baselines take, embedded directly so every solve in the workspace is
    /// configured through one type.
    pub solve: SolveOptions,
    /// Which [`Scalar`] instantiation of the generic operator/solver
    /// surface the PCG iteration runs at. [`Precision::F32`] is the paper's
    /// serving arithmetic (f32 vectors, f64-accumulating reductions);
    /// [`Precision::F64`] iterates the identical structure in f64 over the
    /// same f32-stored operands, which is the validation oracle.
    /// The default consults the `MGK_TEST_PRECISION` environment variable
    /// ([`Precision::from_env`]) so entire test suites can be re-run at
    /// f64 without modification; unset, it is `F32`.
    pub precision: Precision,
    /// Vertex reordering applied to each graph before tiling.
    pub reorder: ReorderMethod,
    /// Override the graphs' stopping probability with a uniform value.
    pub stopping_probability: Option<f32>,
    /// Also return the nodal similarity matrix (the solution vector
    /// reshaped to `n × m`), indexed by the input graphs' vertices whatever
    /// [`reorder`](Self::reorder) is.
    pub compute_nodal: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            solve: SolveOptions { tolerance: 1e-6, max_iterations: 500 },
            precision: Precision::from_env(),
            reorder: ReorderMethod::Pbr,
            stopping_probability: None,
            compute_nodal: false,
        }
    }
}

/// Result of one kernel evaluation at one [`Scalar`] instantiation of the
/// solver surface.
///
/// The type parameter is the precision the result *carries*, not merely the
/// one it was computed at: `KernelResult<f64>` (from
/// [`kernel_at`](MarginalizedKernelSolver::kernel_at) or a typed
/// `KernelClient` request) holds `f64` nodal vectors end-to-end, so
/// validation paths no longer lose the solution vector at a rounded `f32`
/// boundary. The default parameter keeps `KernelResult` (no arguments) the
/// `f32` serving result it always was.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult<T: Scalar = f32> {
    /// The kernel value `K(G, G')` at this result's precision.
    pub value: T,
    /// The kernel value at full precision: the start-probability
    /// contraction of the solution is always accumulated in `f64`,
    /// whatever the iteration precision, so this is the compat accessor
    /// narrow-precision callers use for validation.
    pub value_f64: f64,
    /// PCG iterations used.
    pub iterations: usize,
    /// Whether the iteration converged within the budget.
    pub converged: bool,
    /// Final relative residual.
    pub relative_residual: f64,
    /// Memory traffic accumulated by the off-diagonal operator across all
    /// iterations (feeds the GPU cost model).
    pub traffic: TrafficCounters,
    /// Nodal similarities (row-major `n × m`) at this result's precision,
    /// present when [`SolverConfig::compute_nodal`] is set: entry
    /// `i · m + j` belongs to vertex `i` of the first input graph and vertex
    /// `j` of the second, in the order the caller gave them, not the
    /// reordered one the solve ran in.
    pub nodal: Option<Vec<T>>,
    /// Where this result's wall-clock went, stage by stage. The solver
    /// itself leaves this zeroed; the serving pipeline stamps queue wait,
    /// preparation, solve and fold durations per answered ticket.
    pub stages: StageBreakdown,
}

/// Errors reported by the solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// One of the graphs has no vertices.
    EmptyGraph,
    /// The PCG iteration did not reach the tolerance within the iteration
    /// budget.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Relative residual at the end.
        relative_residual: f64,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::EmptyGraph => write!(f, "cannot evaluate the kernel of an empty graph"),
            SolverError::DidNotConverge { iterations, relative_residual } => write!(
                f,
                "PCG did not converge after {iterations} iterations (relative residual {relative_residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// The marginalized graph kernel solver for a fixed pair of base kernels.
#[derive(Debug, Clone)]
pub struct MarginalizedKernelSolver<KV, KE> {
    vertex_kernel: KV,
    edge_kernel: KE,
    config: SolverConfig,
}

impl MarginalizedKernelSolver<UnitKernel, UnitKernel> {
    /// A solver for unlabeled graphs — the random-walk kernel of Eq. (2).
    pub fn unlabeled(config: SolverConfig) -> Self {
        MarginalizedKernelSolver::new(UnitKernel, UnitKernel, config)
    }
}

impl<KV, KE> MarginalizedKernelSolver<KV, KE> {
    /// Create a solver from vertex and edge base kernels.
    pub fn new(vertex_kernel: KV, edge_kernel: KE, config: SolverConfig) -> Self {
        MarginalizedKernelSolver { vertex_kernel, edge_kernel, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// A copy of this solver with a different configuration (same base
    /// kernels).
    pub fn with_config(&self, config: SolverConfig) -> Self
    where
        KV: Clone,
        KE: Clone,
    {
        MarginalizedKernelSolver::new(self.vertex_kernel.clone(), self.edge_kernel.clone(), config)
    }

    /// Evaluate the kernel between two graphs.
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
        let (a, b) = (self.prepare_graph(g1), self.prepare_graph(g2));
        self.kernel_prepared(&a, &b, self.config.precision)
    }

    /// Evaluate the kernel at a *specific* [`Scalar`] instantiation of the
    /// solver surface, bypassing the runtime [`Precision`] policy: the
    /// returned [`KernelResult<T>`] carries the kernel value and nodal
    /// vector at `T` end-to-end. `kernel_at::<f64>` is the entry point for
    /// validation paths (and typed `KernelClient<_, _, f64>` requests) that
    /// need the full-precision solution vector, not just the contracted
    /// scalar.
    pub fn kernel_at<T, V, E>(
        &self,
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
    ) -> Result<KernelResult<T>, SolverError>
    where
        T: Scalar,
        V: Clone,
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    {
        let (a, b) = (self.prepare_graph(g1), self.prepare_graph(g2));
        self.kernel_prepared(&a, &b, T::PRECISION)
    }

    /// Evaluate the kernel of two prepared structures — the routine every
    /// `kernel*` entry point above ends in, and the one to call directly
    /// when a structure meets more than one partner (a Gram matrix, a
    /// serving cache): neither structure is reordered or tiled again here.
    ///
    /// The off-diagonal operator is the one the pair's [`ProductSystem`]
    /// holds: the factored `A₁·X·A₂ᵀ` when the edge kernel is
    /// [`CONSTANT`](BaseKernel::CONSTANT), which then builds none of the
    /// octile operator's per-pair state, and the octile operator otherwise;
    /// [`SystemOperator`] over [`ProductSystem::assemble`] of the prepared
    /// graphs replays it bit for bit. The solve runs at `precision` (PCG at
    /// the `f32` or `f64` instantiation) and the result is carried at `T`:
    /// `kernel_prepared::<f32>(.., Precision::F64)` is the oracle's value at
    /// the serving type. Every solve starts from zero, so
    /// the result depends on the prepared pair, its orientation and the
    /// precision alone.
    pub fn kernel_prepared<T, V, E>(
        &self,
        a: &PreparedGraph<V, E>,
        b: &PreparedGraph<V, E>,
        precision: Precision,
    ) -> Result<KernelResult<T>, SolverError>
    where
        T: Scalar,
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    {
        if a.graph().num_vertices() == 0 || b.graph().num_vertices() == 0 {
            return Err(SolverError::EmptyGraph);
        }
        let system = self.assemble_prepared(a, b);
        // traffic flows through the instrumented LinearOperator surface:
        // every operator and preconditioner application adds to `traffic`
        let mut traffic = TrafficCounters::new();
        match precision {
            Precision::F32 => {
                let run = self.iterate::<f32, E, KE>(&system, &mut traffic);
                self.finish(&system, (a, b), run, traffic)
            }
            Precision::F64 => {
                let run = self.iterate::<f64, E, KE>(&system, &mut traffic);
                self.finish(&system, (a, b), run, traffic)
            }
        }
    }

    /// Assemble the tensor-product system of two prepared structures.
    pub(crate) fn assemble_prepared<V, E>(
        &self,
        a: &PreparedGraph<V, E>,
        b: &PreparedGraph<V, E>,
    ) -> ProductSystem<E, KE>
    where
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    {
        ProductSystem::from_prepared(a, b, &self.vertex_kernel, self.edge_kernel.clone())
    }

    /// Run PCG on an assembled system at the [`Scalar`] instantiation `U`.
    fn iterate<U, E, KE2>(
        &self,
        system: &ProductSystem<E, KE2>,
        traffic: &mut TrafficCounters,
    ) -> (Vec<U>, ConvergenceInfo)
    where
        U: Scalar,
        E: Copy + Default,
        KE2: BaseKernel<E>,
    {
        let rhs = system.rhs::<U>();
        let operator = SystemOperator::<E, KE2, U>::new(system);
        let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<U>());
        pcg_counted(&operator, &preconditioner, &rhs, &self.config.solve, traffic)
    }

    /// Turn a finished iteration (solution at `U`) into the result carried
    /// at `T`: `K = p×ᵀ x` is contracted in `f64` whatever `U` and `T` are,
    /// over the prepared order, and the nodal vector is scattered back to
    /// the input order of `a` and `b`.
    fn finish<U: Scalar, T: Scalar, V, E: Copy + Default, KE2>(
        &self,
        system: &ProductSystem<E, KE2>,
        (a, b): (&PreparedGraph<V, E>, &PreparedGraph<V, E>),
        (x, info): (Vec<U>, ConvergenceInfo),
        traffic: TrafficCounters,
    ) -> Result<KernelResult<T>, SolverError>
    where
        KE2: BaseKernel<E>,
    {
        if !info.converged {
            return Err(SolverError::DidNotConverge {
                iterations: info.iterations,
                relative_residual: info.relative_residual,
            });
        }
        let value_f64: f64 =
            system.start_product().iter().zip(&x).map(|(&p, &xi)| p as f64 * xi.to_f64()).sum();
        Ok(KernelResult {
            value: T::from_f64(value_f64),
            value_f64,
            iterations: info.iterations,
            converged: info.converged,
            relative_residual: info.relative_residual,
            traffic,
            nodal: self.config.compute_nodal.then(|| in_input_order(&x, a, b)),
            stages: StageBreakdown::default(),
        })
    }

    /// Build everything about one structure that no partner changes: the
    /// [`prepare`](Self::prepare)d graph, its Laplacian degrees and its
    /// octile matrix. Do it once per structure and hand the result to
    /// [`kernel_prepared`](Self::kernel_prepared) for every pair.
    pub fn prepare_graph<V, E>(&self, g: &Graph<V, E>) -> PreparedGraph<V, E>
    where
        V: Clone,
        E: Copy + Default,
    {
        let (prepared, order) = self.prepare_ordered(g);
        PreparedGraph::new(prepared.unwrap_or_else(|| g.clone()), order)
    }

    /// Apply the configured per-graph preprocessing (stopping-probability
    /// override and reordering). Returns `None` when the graph can be used
    /// as-is, so callers avoid cloning in the common case.
    pub fn prepare<V, E>(&self, g: &Graph<V, E>) -> Option<Graph<V, E>>
    where
        V: Clone,
        E: Copy + Default,
    {
        self.prepare_ordered(g).0
    }

    /// [`prepare`](Self::prepare), also returning the vertex order the
    /// reordering applied (`None` under [`ReorderMethod::Natural`]).
    fn prepare_ordered<V, E>(&self, g: &Graph<V, E>) -> (Option<Graph<V, E>>, Option<Vec<u32>>)
    where
        V: Clone,
        E: Copy + Default,
    {
        let stopped = self
            .config
            .stopping_probability
            .map(|q| g.clone().with_uniform_stopping_probability(q));
        if self.config.reorder == ReorderMethod::Natural {
            return (stopped, None);
        }
        let base = stopped.as_ref().unwrap_or(g);
        let order = self.config.reorder.compute_order(base);
        (Some(base.permute(&order)), Some(order))
    }
}

/// The solution `x` of the system of `a` and `b`, row-major over their
/// prepared orders, carried at `T` and laid out by their input orders:
/// entry `i · m + j` belongs to input vertex `i` of `a` and `j` of `b`.
fn in_input_order<U: Scalar, T: Scalar, V, E: Copy + Default>(
    x: &[U],
    a: &PreparedGraph<V, E>,
    b: &PreparedGraph<V, E>,
) -> Vec<T> {
    let m = b.graph().num_vertices();
    let mut nodal = vec![T::from_f64(0.0); x.len()];
    for (p, row) in x.chunks_exact(m).enumerate() {
        let i = a.input_vertex(p);
        for (q, &xi) in row.iter().enumerate() {
            nodal[i * m + b.input_vertex(q)] = T::from_f64(xi.to_f64());
        }
    }
    nodal
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::{generators, GraphBuilder, Unlabeled};
    use mgk_kernels::{KroneckerDelta, OctileUnitKernel, SquareExponential};
    use mgk_linalg::{direct, kron_vec, kronecker};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference system of Eq. (1) in full f64, each `f32` operand
    /// widened *before* multiplying — the same construction the generic
    /// operator surface uses at `T = f64`, so the two describe the
    /// identical matrix.
    fn widened_reference_system<V: Clone, E: Copy + Default>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        kv: &impl BaseKernel<V>,
        ke: &impl BaseKernel<E>,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let a1 = g1.adjacency_dense();
        let a2 = g2.adjacency_dense();
        let e1 = g1.edge_labels_dense(E::default());
        let e2 = g2.edge_labels_dense(E::default());
        let dx = kron_vec(&g1.laplacian_degrees(), &g2.laplacian_degrees());
        let vx = kronecker::generalized_kron_vec(g1.vertex_labels(), g2.vertex_labels(), |a, b| {
            kv.eval(a, b)
        });
        let qx = kron_vec(g1.stop_probabilities(), g2.stop_probabilities());
        let px = kron_vec(g1.start_probabilities(), g2.start_probabilities());
        let nm = n * m;
        let mut mat = vec![0.0f64; nm * nm];
        for i in 0..n {
            for ip in 0..m {
                let row = i * m + ip;
                for j in 0..n {
                    for jp in 0..m {
                        let w = a1[i * n + j] as f64
                            * a2[ip * m + jp] as f64
                            * ke.eval(&e1[i * n + j], &e2[ip * m + jp]) as f64;
                        mat[row * nm + j * m + jp] = -w;
                    }
                }
                mat[row * nm + row] += dx[row] as f64 / vx[row] as f64;
            }
        }
        let rhs: Vec<f64> = dx.iter().zip(&qx).map(|(&d, &q)| d as f64 * q as f64).collect();
        let px64: Vec<f64> = px.iter().map(|&p| p as f64).collect();
        (mat, rhs, px64)
    }

    /// Ground truth via an explicit dense solve of Eq. (1) in f64.
    fn dense_reference<V: Clone, E: Copy + Default>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        kv: &impl BaseKernel<V>,
        ke: &impl BaseKernel<E>,
    ) -> f64 {
        let (mat, rhs, px) = widened_reference_system(g1, g2, kv, ke);
        let x = direct::lu_solve(&mat, &rhs).expect("reference system solvable");
        px.iter().zip(&x).map(|(p, xi)| p * xi).sum()
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

    fn labeled_solver(
        config: SolverConfig,
    ) -> MarginalizedKernelSolver<KroneckerDelta, SquareExponential> {
        MarginalizedKernelSolver::new(KroneckerDelta::new(0.5), SquareExponential::new(1.0), config)
    }

    #[test]
    fn solver_matches_dense_reference_labeled() {
        let (g1, g2) = small_labeled_pair();
        let reference =
            dense_reference(&g1, &g2, &KroneckerDelta::new(0.5), &SquareExponential::new(1.0));
        let solver = labeled_solver(SolverConfig {
            solve: SolveOptions { tolerance: 1e-9, ..SolveOptions::default() },
            ..SolverConfig::default()
        });
        let result = solver.kernel(&g1, &g2).unwrap();
        let rel = ((result.value as f64) - reference).abs() / reference.abs();
        assert!(rel < 1e-4, "{} vs reference {reference}", result.value);
        assert!(result.converged);
        assert!(result.iterations > 0);
    }

    #[test]
    fn solver_matches_dense_reference_unlabeled() {
        let g1 =
            Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let reference = dense_reference(&g1, &g2, &UnitKernel, &UnitKernel);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            solve: SolveOptions { tolerance: 1e-9, ..SolveOptions::default() },
            ..SolverConfig::default()
        });
        let result = solver.kernel(&g1, &g2).unwrap();
        let rel = ((result.value as f64) - reference).abs() / reference.abs();
        assert!(rel < 1e-4, "{} vs {reference}", result.value);
    }

    #[test]
    fn kernel_is_symmetric() {
        let (g1, g2) = small_labeled_pair();
        let solver = labeled_solver(SolverConfig::default());
        let k12 = solver.kernel(&g1, &g2).unwrap().value;
        let k21 = solver.kernel(&g2, &g1).unwrap().value;
        assert!((k12 - k21).abs() < 1e-5 * k12.abs().max(1.0));
    }

    #[test]
    fn kernel_is_invariant_under_vertex_permutation() {
        let (g1, g2) = small_labeled_pair();
        let solver = labeled_solver(SolverConfig::default());
        let base = solver.kernel(&g1, &g2).unwrap().value;
        let permuted = g1.permute(&[3, 1, 4, 0, 2]);
        let after = solver.kernel(&permuted, &g2).unwrap().value;
        assert!((base - after).abs() < 1e-4 * base.abs().max(1.0));
    }

    #[test]
    fn cauchy_schwarz_holds() {
        let mut rng = StdRng::seed_from_u64(42);
        let graphs: Vec<_> =
            (0..4).map(|_| generators::newman_watts_strogatz(20, 2, 0.2, &mut rng)).collect();
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let kij = solver.kernel(&graphs[i], &graphs[j]).unwrap().value as f64;
                let kii = solver.kernel(&graphs[i], &graphs[i]).unwrap().value as f64;
                let kjj = solver.kernel(&graphs[j], &graphs[j]).unwrap().value as f64;
                assert!(kij * kij <= kii * kjj * (1.0 + 1e-4), "violation at ({i},{j})");
                assert!(kij > 0.0);
            }
        }
    }

    #[test]
    fn f64_instantiation_matches_the_dense_direct_solver_to_1e10() {
        // the acceptance bar of the precision axis: the f64 instantiation
        // of the *on-the-fly* operator surface must agree with the dense
        // f64 direct solver to <= 1e-10 relative residual
        let g1 =
            Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let config = SolverConfig {
            reorder: ReorderMethod::Natural,
            solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
            ..SolverConfig::default()
        };
        let system = ProductSystem::assemble(&g1, &g2, &UnitKernel, UnitKernel, &config);
        let rhs = system.rhs::<f64>();
        let operator = SystemOperator::<_, _, f64>::new(&system);
        let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<f64>());
        let (x, info) = mgk_linalg::pcg(&operator, &preconditioner, &rhs, &config.solve);
        assert!(info.converged, "f64 PCG did not reach 1e-13: {info:?}");

        let (mat, b, px) = widened_reference_system(&g1, &g2, &UnitKernel, &UnitKernel);
        let nm = b.len();
        // residual of the iterative f64 solution in the reference matrix
        let mut res_sq = 0.0f64;
        let mut b_sq = 0.0f64;
        for i in 0..nm {
            let ax: f64 = (0..nm).map(|j| mat[i * nm + j] * x[j]).sum();
            res_sq += (b[i] - ax) * (b[i] - ax);
            b_sq += b[i] * b[i];
        }
        let rel_res = (res_sq / b_sq).sqrt();
        assert!(rel_res <= 1e-10, "relative residual vs the direct system: {rel_res:e}");

        // and the solution agrees with the direct LU solve
        let x_direct = direct::lu_solve(&mat, &b).expect("reference system solvable");
        let err_sq: f64 = x.iter().zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
        let norm_sq: f64 = x_direct.iter().map(|v| v * v).sum();
        let rel_err = (err_sq / norm_sq).sqrt();
        assert!(rel_err <= 1e-10, "relative error vs direct solution: {rel_err:e}");

        // through the Precision policy: the full-precision kernel value
        // matches the direct solver's contraction at the same bar
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            precision: Precision::F64,
            ..config
        });
        let result = solver.kernel(&g1, &g2).unwrap();
        let value_direct: f64 = px.iter().zip(&x_direct).map(|(p, x)| p * x).sum();
        let rel_value = (result.value_f64 - value_direct).abs() / value_direct.abs();
        assert!(rel_value <= 1e-10, "value {} vs direct {value_direct}", result.value_f64);
    }

    /// Both operators at unit weights, the factored one (`UnitKernel`) and
    /// the octile one (`OctileUnitKernel`), solve an NWS×BA pair at `f64` to
    /// within 1e-10 of the dense direct solver.
    #[test]
    fn both_unit_weight_operators_match_the_dense_direct_solver_to_1e10_at_f64() {
        fn check<KE: BaseKernel<Unlabeled> + Clone>(g1: &Graph, g2: &Graph, edge_kernel: KE) {
            let config = SolverConfig {
                precision: Precision::F64,
                compute_nodal: true,
                solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
                ..SolverConfig::default()
            };
            let solver = MarginalizedKernelSolver::new(UnitKernel, edge_kernel, config);
            let result = solver.kernel_at::<f64, _, _>(g1, g2).unwrap();
            let factored = result.traffic.kernel_evaluations == 0;
            assert_eq!(factored, KE::CONSTANT, "the operator the kernel picks");

            let (mat, b, px) = widened_reference_system(g1, g2, &UnitKernel, &UnitKernel);
            let x_direct = direct::lu_solve(&mat, &b).expect("reference system solvable");
            let nodal = result.nodal.as_ref().expect("compute_nodal was requested");
            let err_sq: f64 = nodal.iter().zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
            let norm_sq: f64 = x_direct.iter().map(|v| v * v).sum();
            let nodal_error = (err_sq / norm_sq).sqrt();
            assert!(nodal_error <= 1e-10, "factored {factored}: nodal error {nodal_error:e}");
            let value_direct: f64 = px.iter().zip(&x_direct).map(|(p, x)| p * x).sum();
            let rel_value = (result.value - value_direct).abs() / value_direct.abs();
            assert!(rel_value <= 1e-10, "factored {factored}: value {}", result.value);
        }
        let mut rng = StdRng::seed_from_u64(22);
        let g1 = generators::newman_watts_strogatz(20, 3, 0.2, &mut rng);
        let g2 = generators::barabasi_albert(17, 3, &mut rng);
        check(&g1, &g2, UnitKernel);
        check(&g1, &g2, OctileUnitKernel);
    }

    #[test]
    fn precision_policy_dispatches_and_the_instantiations_agree() {
        let (g1, g2) = small_labeled_pair();
        let at = |precision: Precision| {
            labeled_solver(SolverConfig { precision, ..SolverConfig::default() })
                .kernel(&g1, &g2)
                .unwrap()
        };
        let narrow = at(Precision::F32);
        let wide = at(Precision::F64);
        // f32-level agreement between the two instantiations of one surface
        let rel = (narrow.value_f64 - wide.value_f64).abs() / wide.value_f64.abs();
        assert!(rel < 1e-4, "f32 {} vs f64 {}", narrow.value_f64, wide.value_f64);
        assert!(narrow.converged && wide.converged);
        // identical iteration structure over the same operands: the two
        // precisions take the same number of iterations here, so the
        // per-solve traffic is directly comparable — the f64 instantiation
        // must move strictly more bytes (vector traffic widens to 8 bytes
        // per element while stored operands stay at 4)
        assert_eq!(wide.iterations, narrow.iterations, "iteration structure must match");
        assert!(
            wide.traffic.global_load_bytes > narrow.traffic.global_load_bytes,
            "f64 must move more bytes: wide {} vs narrow {}",
            wide.traffic.global_load_bytes,
            narrow.traffic.global_load_bytes
        );
        // ... but not the doubled footprint a naive all-T::BYTES accounting
        // would charge: the f32-stored operand matrices keep their size
        assert!(wide.traffic.global_load_bytes < 2 * narrow.traffic.global_load_bytes);
    }

    #[test]
    fn kernel_at_f64_carries_f64_nodal_vectors_end_to_end() {
        let g1 =
            Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let config = SolverConfig {
            reorder: ReorderMethod::Natural,
            compute_nodal: true,
            solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
            ..SolverConfig::default()
        };
        let solver = MarginalizedKernelSolver::unlabeled(config);
        let result: KernelResult<f64> = solver.kernel_at::<f64, _, _>(&g1, &g2).unwrap();
        let nodal = result.nodal.as_ref().expect("compute_nodal was requested");
        assert_eq!(nodal.len(), 6 * 5);

        // the typed nodal vector matches the direct f64 solution of the
        // widened reference system to 1e-10 — no f32 boundary in between
        let (mat, b, px) = widened_reference_system(&g1, &g2, &UnitKernel, &UnitKernel);
        let x_direct = direct::lu_solve(&mat, &b).expect("reference system solvable");
        let err_sq: f64 = nodal.iter().zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
        let norm_sq: f64 = x_direct.iter().map(|v| v * v).sum();
        assert!((err_sq / norm_sq).sqrt() <= 1e-10, "nodal error {:e}", (err_sq / norm_sq).sqrt());
        // a nodal vector narrowed through f32 cannot be this close
        let narrowed: Vec<f64> = nodal.iter().map(|&v| v as f32 as f64).collect();
        let narrow_err: f64 = narrowed.iter().zip(&x_direct).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(
            (narrow_err / norm_sq).sqrt() > 1e-10,
            "the f64 result must be distinguishable from an f32-rounded one"
        );
        // the typed value agrees with the contraction of the direct solve
        let value_direct: f64 = px.iter().zip(&x_direct).map(|(p, x)| p * x).sum();
        assert!((result.value - value_direct).abs() / value_direct.abs() <= 1e-10);
        assert_eq!(result.value, result.value_f64, "f64 results carry the full value in both");
    }

    #[test]
    fn small_stopping_probabilities_still_converge() {
        // Section VII-B: the presented solver handles q as small as 0.0005
        let (g1, g2) = small_labeled_pair();
        let solver = labeled_solver(SolverConfig {
            stopping_probability: Some(0.0005),
            solve: SolveOptions { max_iterations: 2000, ..SolveOptions::default() },
            ..SolverConfig::default()
        });
        let result = solver.kernel(&g1, &g2).unwrap();
        assert!(result.converged);
        assert!(result.value.is_finite() && result.value > 0.0);
    }

    #[test]
    fn nodal_similarities_have_product_shape_and_contract_to_kernel_value() {
        let (g1, g2) = small_labeled_pair();
        let solver =
            labeled_solver(SolverConfig { compute_nodal: true, ..SolverConfig::default() });
        let result = solver.kernel(&g1, &g2).unwrap();
        let nodal = result.nodal.as_ref().unwrap();
        assert_eq!(nodal.len(), g1.num_vertices() * g2.num_vertices());
        // the kernel value is the start-probability-weighted contraction
        let px = kron_vec(g1.start_probabilities(), g2.start_probabilities());
        let contracted: f64 = px.iter().zip(nodal).map(|(&p, &x)| p as f64 * x as f64).sum();
        assert!((contracted as f32 - result.value).abs() < 1e-4 * result.value.abs());
        // all nodal similarities are positive for positive base kernels
        assert!(nodal.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn nodal_vectors_are_in_the_input_order_under_every_reordering() {
        use mgk_datasets::molecules::synthetic_molecule;
        let mut rng = StdRng::seed_from_u64(7);
        let (g1, g2) = (synthetic_molecule(23, &mut rng), synthetic_molecule(17, &mut rng));
        let nodal = |reorder| {
            let config = SolverConfig {
                precision: Precision::F64,
                solve: SolveOptions { tolerance: 1e-12, max_iterations: 5000 },
                reorder,
                compute_nodal: true,
                ..SolverConfig::default()
            };
            let solver = MarginalizedKernelSolver::new(
                KroneckerDelta::new(0.3),
                KroneckerDelta::new(0.3),
                config,
            );
            solver.kernel_at::<f64, _, _>(&g1, &g2).unwrap().nodal.expect("compute_nodal is set")
        };
        let natural = nodal(ReorderMethod::Natural);
        let largest = natural.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for reorder in [ReorderMethod::Pbr, ReorderMethod::Rcm] {
            let reordered = nodal(reorder);
            assert_eq!(reordered.len(), 23 * 17);
            let worst =
                natural.iter().zip(&reordered).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(worst <= 1e-9 * largest, "{reorder:?}: off by {worst:e} of {largest:e}");
        }
    }

    #[test]
    fn empty_graph_is_rejected() {
        let empty: Graph = Graph::from_edge_list(0, &[]);
        let other = Graph::from_edge_list(3, &[(0, 1), (1, 2)]);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        assert_eq!(solver.kernel(&empty, &other), Err(SolverError::EmptyGraph));
    }

    #[test]
    fn iteration_budget_produces_error() {
        let (g1, g2) = small_labeled_pair();
        let solver = labeled_solver(SolverConfig {
            solve: SolveOptions { max_iterations: 1, tolerance: 1e-12 },
            ..SolverConfig::default()
        });
        match solver.kernel(&g1, &g2) {
            Err(SolverError::DidNotConverge { iterations, .. }) => assert_eq!(iterations, 1),
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    /// The solver configurations of Fig. 9's octile levels differ in their
    /// reordering alone: `Sparse` tiles the natural order, `+Reorder` and
    /// every level after it the PBR order. `mgk-bench`'s `dense.rs` checks
    /// every level's own operator against the dense baseline.
    #[test]
    fn ablation_configurations_agree_on_the_kernel_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = generators::newman_watts_strogatz(24, 2, 0.15, &mut rng);
        let g2 = generators::barabasi_albert(18, 3, &mut rng);
        let values: Vec<f32> = [ReorderMethod::Natural, ReorderMethod::Pbr, ReorderMethod::Rcm]
            .into_iter()
            .map(|reorder| {
                let config = SolverConfig { reorder, ..SolverConfig::default() };
                MarginalizedKernelSolver::unlabeled(config).kernel(&g1, &g2).unwrap().value
            })
            .collect();
        for v in &values[1..] {
            assert!((v - values[0]).abs() < 1e-4 * values[0].abs(), "{v} vs {}", values[0]);
        }
    }

    #[test]
    fn traffic_is_accumulated_across_iterations() {
        let (g1, g2) = small_labeled_pair();
        let solver = labeled_solver(SolverConfig::default());
        let result = solver.kernel(&g1, &g2).unwrap();
        assert!(result.traffic.flops > 0);
        assert!(result.traffic.kernel_evaluations > 0);
        assert!(result.traffic.global_load_bytes > 0);
    }
}
