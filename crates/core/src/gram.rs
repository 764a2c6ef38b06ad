//! The parallel pairwise Gram-matrix engine (Section V).
//!
//! Training a kernel-based model requires the full pairwise similarity
//! matrix of a dataset — for `N` graphs that is `N (N + 1) / 2` independent
//! linear-system solves, which the paper distributes over the GPU by
//! assigning graph pairs to thread blocks. Here the pairs are distributed
//! over CPU threads with rayon; the [`Scheduling`] policy mirrors the
//! static-vs-dynamic work assignment the paper studies for size-skewed
//! datasets (Section V-B, Fig. 9's `+DynSched` level).

use std::time::{Duration, Instant};

use rayon::prelude::*;

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{Precision, Scalar, TrafficCounters};

use crate::prepared::PreparedGraph;
use crate::solver::{KernelResult, MarginalizedKernelSolver, SolverError};

/// How graph pairs are assigned to worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Pairs are split into one contiguous chunk per thread up front. Cheap,
    /// but a chunk holding the largest graphs straggles when the dataset
    /// has a skewed size distribution.
    Static,
    /// Pairs are handed out one at a time through work stealing — the CPU
    /// analogue of the paper's dynamic scheduling across thread blocks.
    #[default]
    Dynamic,
}

/// Configuration of the Gram-matrix engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GramConfig {
    /// Normalize the matrix to unit self-similarity:
    /// `K̂_ij = K_ij / sqrt(K_ii K_jj)`.
    pub normalize: bool,
    /// Work-distribution policy.
    pub scheduling: Scheduling,
}

impl Default for GramConfig {
    fn default() -> Self {
        GramConfig { normalize: true, scheduling: Scheduling::Dynamic }
    }
}

/// Result of a Gram-matrix computation at one [`Scalar`] entry precision.
///
/// The default parameter keeps `GramResult` (no arguments) the `f32`
/// serving result; [`GramEngine::compute_at`] threads the typed
/// [`KernelResult<T>`](crate::KernelResult) through to a `T`-valued matrix
/// for validation paths that must not round at the boundary.
#[derive(Debug, Clone)]
pub struct GramResult<T: Scalar = f32> {
    /// Row-major kernel matrix, `N × N` or, from
    /// [`GramEngine::compute_cross`], `rows × cols`. Entries of pairs that
    /// failed to converge are `NaN`.
    pub matrix: Vec<T>,
    /// Number of graphs (of a cross matrix: the larger of its two sides).
    pub num_graphs: usize,
    /// Number of columns of `matrix`; `num_graphs` unless the matrix is a
    /// cross matrix.
    pub num_cols: usize,
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

impl<T: Scalar> GramResult<T> {
    /// Access entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        self.matrix[i * self.num_cols + j]
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

    /// The engine configuration.
    pub fn config(&self) -> &GramConfig {
        &self.config
    }

    /// Compute the symmetric pairwise kernel matrix of a dataset. Per-pair
    /// solves go through the runtime [`Precision`] policy (F32 or F64),
    /// narrowed to the f32 serving matrix.
    pub fn compute<V, E>(&self, graphs: &[Graph<V, E>]) -> GramResult
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        self.compute_with(graphs, self.solver.config().precision)
    }

    /// [`compute`](Self::compute) at a specific [`Scalar`] instantiation of
    /// the solver surface: every pair solve runs at `T` and the matrix
    /// entries stay at `T` end-to-end — `compute_at::<f64>` yields a Gram
    /// matrix with no `f32` rounding at any boundary.
    pub fn compute_at<T, V, E>(&self, graphs: &[Graph<V, E>]) -> GramResult<T>
    where
        T: Scalar,
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        self.compute_with(graphs, T::PRECISION)
    }

    /// The symmetric sweep behind [`compute`](Self::compute) and
    /// [`compute_at`](Self::compute_at), plus the normalization.
    fn compute_with<T, V, E>(&self, graphs: &[Graph<V, E>], precision: Precision) -> GramResult<T>
    where
        T: Scalar,
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        let prep_start = Instant::now();
        let prepared = self.prepare_all(graphs);
        let mut result: GramResult<T> =
            self.sweep(&prepared, &prepared, true, precision, prep_start.elapsed());

        if self.config.normalize {
            // the normalization factors are computed in f64 at every entry
            // precision (exact for both instantiations' diagonals)
            let n = graphs.len();
            let matrix = &mut result.matrix;
            let diag: Vec<f64> = (0..n).map(|i| matrix[i * n + i].to_f64()).collect();
            for i in 0..n {
                for j in 0..n {
                    let d = (diag[i] * diag[j]).sqrt();
                    if d > 0.0 {
                        matrix[i * n + j] = T::from_f64(matrix[i * n + j].to_f64() / d);
                    }
                }
            }
        }
        result
    }

    /// Compute the rectangular kernel matrix between two datasets (rows
    /// indexed by `rows`, columns by `cols`) without normalization.
    pub fn compute_cross<V, E>(&self, rows: &[Graph<V, E>], cols: &[Graph<V, E>]) -> GramResult
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        let prep_start = Instant::now();
        let (rows, cols) = (self.prepare_all(rows), self.prepare_all(cols));
        self.sweep(&rows, &cols, false, self.solver.config().precision, prep_start.elapsed())
    }

    /// The one-off preprocessing: reorder, re-weight and tile each graph
    /// once, whatever number of pairs it is in (the amortization argument
    /// of Section IV-A).
    fn prepare_all<V, E>(&self, graphs: &[Graph<V, E>]) -> Vec<PreparedGraph<V, E>>
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: Sync,
        KE: Sync,
    {
        graphs.par_iter().map(|g| self.solver.prepare_graph(g)).collect()
    }

    /// Solve every `(rows[i], cols[j])` pair — the upper triangle only, and
    /// mirrored, when `symmetric` — into a row-major `rows × cols` matrix.
    fn sweep<T, V, E>(
        &self,
        rows: &[PreparedGraph<V, E>],
        cols: &[PreparedGraph<V, E>],
        symmetric: bool,
        precision: Precision,
        preprocessing: Duration,
    ) -> GramResult<T>
    where
        T: Scalar,
        V: Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        let (nr, nc) = (rows.len(), cols.len());
        let mut matrix = vec![T::from_f32(f32::NAN); nr * nc];
        let pairs: Vec<(usize, usize)> = (0..nr)
            .flat_map(|i| (if symmetric { i } else { 0 }..nc).map(move |j| (i, j)))
            .collect();

        let start = Instant::now();
        let solve_pair = |&(i, j): &(usize, usize)| {
            (i, j, self.solver.kernel_prepared::<T, V, E>(&rows[i], &cols[j], precision))
        };
        let results: Vec<(usize, usize, Result<KernelResult<T>, SolverError>)> =
            match self.config.scheduling {
                Scheduling::Dynamic => pairs.par_iter().map(solve_pair).collect(),
                Scheduling::Static => {
                    // one contiguous chunk per thread, assigned up front
                    let threads = rayon::current_num_threads().max(1);
                    let chunk = pairs.len().div_ceil(threads).max(1);
                    pairs
                        .par_chunks(chunk)
                        .flat_map_iter(|chunk| chunk.iter().map(solve_pair).collect::<Vec<_>>())
                        .collect()
                }
            };
        let elapsed = start.elapsed();

        let mut traffic = TrafficCounters::new();
        let mut total_iterations = 0usize;
        let mut failures = 0usize;
        for (i, j, result) in results {
            match result {
                Ok(r) => {
                    matrix[i * nc + j] = r.value;
                    if symmetric {
                        matrix[j * nc + i] = r.value;
                    }
                    traffic.accumulate(&r.traffic);
                    total_iterations += r.iterations;
                }
                Err(_) => failures += 1,
            }
        }
        GramResult {
            matrix,
            num_graphs: nr.max(nc),
            num_cols: nc,
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
        let cfg = GramConfig { normalize: false, ..GramConfig::default() };
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
    fn static_and_dynamic_scheduling_agree() {
        let graphs = small_dataset(5);
        let dynamic =
            engine(GramConfig { scheduling: Scheduling::Dynamic, ..GramConfig::default() })
                .compute(&graphs);
        let static_ =
            engine(GramConfig { scheduling: Scheduling::Static, ..GramConfig::default() })
                .compute(&graphs);
        for (a, b) in dynamic.matrix.iter().zip(&static_.matrix) {
            assert!((a - b).abs() < 1e-5);
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
    fn compute_at_f64_agrees_with_the_serving_matrix_and_keeps_precision() {
        let graphs = small_dataset(4);
        let serving = engine(GramConfig::default()).compute(&graphs);
        let wide: GramResult<f64> = engine(GramConfig::default()).compute_at::<f64, _, _>(&graphs);
        assert_eq!(wide.num_graphs, 4);
        assert_eq!(wide.failures, 0);
        for i in 0..4 {
            // unit diagonal survives at full precision
            assert!((wide.get(i, i) - 1.0).abs() < 1e-9);
            for j in 0..4 {
                let (a, b) = (wide.get(i, j), serving.get(i, j) as f64);
                assert!((a - b).abs() < 1e-4, "entry ({i},{j}): f64 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn cross_matrix_has_expected_shape() {
        let graphs = small_dataset(5);
        let result = engine(GramConfig::default()).compute_cross(&graphs[..2], &graphs[2..]);
        assert_eq!(result.matrix.len(), 2 * 3);
        assert!(result.matrix.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn cross_block_equals_the_unnormalized_gram_entries_bit_for_bit() {
        // rows and columns are prepared once each and solved through the
        // same prepared-pair routine as the symmetric sweep: same tiles,
        // same order, same arithmetic
        let graphs = small_dataset(5);
        let engine = engine(GramConfig { normalize: false, ..GramConfig::default() });
        let full = engine.compute(&graphs);
        let cross = engine.compute_cross(&graphs[..2], &graphs[2..]);
        assert_eq!(cross.failures, 0);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(
                    cross.matrix[i * 3 + j].to_bits(),
                    full.get(i, 2 + j).to_bits(),
                    "cross entry ({i},{j})"
                );
            }
        }
        assert!(cross.preprocessing > Duration::ZERO, "rows and columns are prepared up front");
    }

    #[test]
    fn tall_cross_matrix_is_the_transpose_of_the_wide_one() {
        // `get` indexes by the column count, not by the larger side. The
        // (a, b) and (b, a) solves sum in different orders, so the two
        // agree to rounding, not bit for bit
        let graphs = small_dataset(5);
        let engine = engine(GramConfig::default());
        let tall = engine.compute_cross(&graphs[..3], &graphs[3..]);
        let wide = engine.compute_cross(&graphs[3..], &graphs[..3]);
        assert_eq!((tall.num_cols, wide.num_cols), (2, 3));
        for i in 0..3 {
            for j in 0..2 {
                let (t, w) = (tall.get(i, j), wide.get(j, i));
                assert!((t - w).abs() <= 1e-5 * w.abs(), "entry ({i},{j}): {t} vs {w}");
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
