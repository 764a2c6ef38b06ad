//! The parallel pairwise Gram-matrix engine (Section V).
//!
//! Training a kernel-based model requires the full pairwise similarity
//! matrix of a dataset — for `N` graphs that is `N (N + 1) / 2` independent
//! linear-system solves, which the paper distributes over the GPU by
//! assigning graph pairs to thread blocks. Here the pairs are handed to CPU
//! threads one at a time through rayon's work stealing, the CPU analogue of
//! the paper's dynamic scheduling across thread blocks (Section V-B). The
//! static assignment it is compared with in Fig. 9 is `mgk-bench`'s
//! `+Block` level.

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

use std::time::{Duration, Instant};

use rayon::prelude::*;

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::TrafficCounters;

use crate::prepared::PreparedGraph;
use crate::solver::MarginalizedKernelSolver;

/// Configuration of the Gram-matrix engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GramConfig {
    /// Normalize the matrix to unit self-similarity:
    /// `K̂_ij = K_ij / sqrt(K_ii K_jj)`.
    pub normalize: bool,
}

impl Default for GramConfig {
    fn default() -> Self {
        GramConfig { normalize: true }
    }
}

/// Result of a Gram-matrix computation.
#[derive(Debug, Clone)]
pub struct GramResult {
    /// Row-major `N × N` kernel matrix. Entries of pairs that failed to
    /// converge are `NaN`.
    pub matrix: Vec<f32>,
    /// Number of graphs `N`.
    pub num_graphs: usize,
    /// Total PCG iterations across all pairs.
    pub total_iterations: usize,
    /// Aggregate memory traffic of all solves (feeds the GPU cost model).
    pub traffic: TrafficCounters,
    /// Number of pairs whose solve failed to converge.
    pub failures: usize,
    /// Wall-clock time of the pairwise sweep (excluding one-off
    /// reordering).
    pub elapsed: Duration,
    /// Wall-clock time of the one-off per-graph preprocessing.
    pub preprocessing: Duration,
}

impl GramResult {
    /// Access entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.matrix[i * self.num_graphs + j]
    }
}

/// The parallel pairwise Gram-matrix engine.
///
/// ```
/// use mgk_core::{GramConfig, GramEngine, MarginalizedKernelSolver, SolverConfig};
/// use mgk_graph::Graph;
///
/// let path = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
/// let cycle = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let engine = GramEngine::new(
///     MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
///     GramConfig::default(),
/// );
/// let gram = engine.compute(&[path, cycle]);
/// assert_eq!(gram.failures, 0);
/// // normalized: unit diagonal, symmetric, similarities in (0, 1]
/// assert!((gram.get(0, 0) - 1.0).abs() < 1e-5);
/// assert_eq!(gram.get(0, 1), gram.get(1, 0));
/// assert!(gram.get(0, 1) > 0.0 && gram.get(0, 1) <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct GramEngine<KV, KE> {
    solver: MarginalizedKernelSolver<KV, KE>,
    config: GramConfig,
}

impl<KV, KE> GramEngine<KV, KE> {
    /// Create an engine from a per-pair solver and an engine configuration.
    pub fn new(solver: MarginalizedKernelSolver<KV, KE>, config: GramConfig) -> Self {
        GramEngine { solver, config }
    }

    /// Compute the symmetric pairwise kernel matrix of a dataset. Per-pair
    /// solves go through the runtime [`Precision`](mgk_linalg::Precision)
    /// policy (F32 or F64), narrowed to the f32 serving matrix.
    pub fn compute<V, E>(&self, graphs: &[Graph<V, E>]) -> GramResult
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        // the one-off preprocessing: reorder, re-weight and tile each graph
        // once, whatever number of pairs it is in (the amortization argument
        // of Section IV-A)
        let prep_start = Instant::now();
        let prepared: Vec<PreparedGraph<V, E>> =
            graphs.par_iter().map(|g| self.solver.prepare_graph(g)).collect();
        let mut result = self.sweep(&prepared, prep_start.elapsed());

        if self.config.normalize {
            // the normalization factors are computed in f64
            let n = graphs.len();
            let matrix = &mut result.matrix;
            let diag: Vec<f64> = (0..n).map(|i| matrix[i * n + i] as f64).collect();
            for i in 0..n {
                for j in 0..n {
                    let d = (diag[i] * diag[j]).sqrt();
                    if d > 0.0 {
                        matrix[i * n + j] = (matrix[i * n + j] as f64 / d) as f32;
                    }
                }
            }
        }
        result
    }

    /// Solve every pair of the upper triangle, handed to the pool one pair
    /// at a time, and mirror it into a row-major `N × N` matrix.
    fn sweep<V, E>(&self, prepared: &[PreparedGraph<V, E>], preprocessing: Duration) -> GramResult
    where
        V: Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        let n = prepared.len();
        let precision = self.solver.config().precision;
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();

        let start = Instant::now();
        let results: Vec<_> = pairs
            .par_iter()
            .map(|&(i, j)| {
                (i, j, self.solver.kernel_prepared(&prepared[i], &prepared[j], precision))
            })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{MarginalizedKernelSolver, SolverConfig};
    use mgk_graph::generators;
    use mgk_linalg::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dataset(n: usize) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(17);
        (0..n)
            .map(|k| {
                if k % 2 == 0 {
                    generators::newman_watts_strogatz(12 + k, 2, 0.2, &mut rng)
                } else {
                    generators::barabasi_albert(10 + k, 2, &mut rng)
                }
            })
            .collect()
    }

    fn engine(config: GramConfig) -> GramEngine<mgk_kernels::UnitKernel, mgk_kernels::UnitKernel> {
        GramEngine::new(MarginalizedKernelSolver::unlabeled(SolverConfig::default()), config)
    }

    #[test]
    fn gram_matrix_is_symmetric_with_unit_diagonal_when_normalized() {
        let graphs = small_dataset(5);
        let result = engine(GramConfig::default()).compute(&graphs);
        assert_eq!(result.num_graphs, 5);
        assert_eq!(result.failures, 0);
        for i in 0..5 {
            assert!((result.get(i, i) - 1.0).abs() < 1e-5);
            for j in 0..5 {
                assert!((result.get(i, j) - result.get(j, i)).abs() < 1e-6);
                assert!(result.get(i, j) > 0.0 && result.get(i, j) <= 1.0 + 1e-5);
            }
        }
        assert!(result.total_iterations > 0);
        assert!(result.traffic.flops > 0);
    }

    #[test]
    fn unnormalized_matrix_matches_individual_solves() {
        let graphs = small_dataset(4);
        let cfg = GramConfig { normalize: false };
        let result = engine(cfg).compute(&graphs);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        for i in 0..4 {
            for j in i..4 {
                let direct = solver.kernel(&graphs[i], &graphs[j]).unwrap().value;
                let rel = (result.get(i, j) - direct).abs() / direct.abs().max(1e-6);
                assert!(rel < 1e-4, "({i},{j}): {} vs {direct}", result.get(i, j));
            }
        }
    }

    #[test]
    fn gram_matrix_is_positive_semidefinite() {
        // check via the determinant of leading principal minors of a small
        // normalized Gram matrix (all must be non-negative)
        let graphs = small_dataset(4);
        let result = engine(GramConfig::default()).compute(&graphs);
        let n = 4;
        for k in 1..=n {
            let sub: Vec<f64> = (0..k * k).map(|idx| result.get(idx / k, idx % k) as f64).collect();
            let det = determinant(&sub, k);
            assert!(det > -1e-6, "leading minor {k} has determinant {det}");
        }
    }

    fn determinant(a: &[f64], n: usize) -> f64 {
        let mut m = a.to_vec();
        let mut det = 1.0;
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&i, &j| m[i * n + col].abs().partial_cmp(&m[j * n + col].abs()).unwrap());
            let p = pivot.unwrap();
            if m[p * n + col].abs() < 1e-12 {
                return 0.0;
            }
            if p != col {
                for k in 0..n {
                    m.swap(col * n + k, p * n + k);
                }
                det = -det;
            }
            det *= m[col * n + col];
            for row in (col + 1)..n {
                let f = m[row * n + col] / m[col * n + col];
                for k in col..n {
                    m[row * n + k] -= f * m[col * n + k];
                }
            }
        }
        det
    }

    #[test]
    fn an_f64_gram_agrees_with_the_serving_matrix() {
        let graphs = small_dataset(4);
        let serving = engine(GramConfig::default()).compute(&graphs);
        let config = SolverConfig { precision: Precision::F64, ..SolverConfig::default() };
        let wide =
            GramEngine::new(MarginalizedKernelSolver::unlabeled(config), GramConfig::default())
                .compute(&graphs);
        assert_eq!(wide.num_graphs, 4);
        assert_eq!(wide.failures, 0);
        for i in 0..4 {
            // unit diagonal: the normalization divides in f64
            assert!((wide.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..4 {
                let (a, b) = (wide.get(i, j) as f64, serving.get(i, j) as f64);
                assert!((a - b).abs() < 1e-4, "entry ({i},{j}): f64 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let result = engine(GramConfig::default())
            .compute::<mgk_graph::Unlabeled, mgk_graph::Unlabeled>(&[]);
        assert_eq!(result.num_graphs, 0);
        assert!(result.matrix.is_empty());
    }
}
