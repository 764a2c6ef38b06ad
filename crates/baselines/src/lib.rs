//! CPU reference solvers for the marginalized graph kernel.
//!
//! The paper compares its GPU solver against two existing CPU packages,
//! GraKeL and GraphKernels (Section VII-B, Fig. 10). Neither package is
//! available here, so this crate re-implements the *algorithms those
//! packages use*, deliberately in the simple explicit style they employ:
//!
//! * [`ExplicitSolver`] — "GraKeL-style": materialize the full tensor-
//!   product system as a dense matrix and run a conjugate gradient
//!   iteration on it, single-threaded.
//! * [`FixedPointSolver`] — "GraphKernels-style": the fixed-point /
//!   truncated-path-sum iteration of Eq. (9), also on explicit dense
//!   operands, single-threaded. Doubles as an independent reference for
//!   the random-walk semantics of the kernel (Appendix A).
//! * [`SpectralSolver`] — the spectral-decomposition method for unlabeled
//!   graphs mentioned in Section II-C (Vishwanathan et al.), which
//!   diagonalizes the normalized adjacency matrices of the two graphs
//!   separately.
//!
//! All three produce the same kernel values as `mgk-core` (up to solver
//! tolerance) and are used as the comparison targets of the Fig. 10
//! benchmark. The iterative baselines run through the same
//! [`mgk_linalg::LinearOperator`] + [`mgk_linalg::SolveOptions`] surface as
//! the on-the-fly solvers, with memory traffic threaded through
//! [`mgk_linalg::TrafficCounters`] rather than tracked ad hoc.

#![forbid(unsafe_code)]

pub mod explicit;
pub mod fixed_point;
pub mod spectral;

pub use explicit::ExplicitSolver;
pub use fixed_point::FixedPointSolver;
pub use spectral::SpectralSolver;

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{DenseMatrix, DenseOperator, DiagonalOperator, ScaledSum};

/// Dense tensor-product operands shared by the explicit baselines.
///
/// The operands are stored in `f32`, the scalar of the workspace-wide
/// [`mgk_linalg::LinearOperator`] surface, so the baselines solve through
/// exactly the same operator and [`mgk_linalg::SolveOptions`] plumbing as
/// the on-the-fly solvers of `mgk-core`.
pub(crate) struct DenseSystem {
    /// `n · m`.
    pub dim: usize,
    /// Off-diagonal product matrix `A× ∘ E×` (row-major, `dim × dim`).
    pub off_diagonal: Vec<f32>,
    /// `d ⊗ d'`.
    pub degree_product: Vec<f32>,
    /// `v κ⊗ v'`.
    pub vertex_product: Vec<f32>,
    /// `p ⊗ p'`.
    pub start_product: Vec<f32>,
    /// `q ⊗ q'`.
    pub stop_product: Vec<f32>,
}

impl DenseSystem {
    /// Assemble the explicit dense operands for a graph pair.
    pub(crate) fn assemble<V, E, KV, KE>(
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
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let dim = n * m;
        let a1 = g1.adjacency_dense();
        let a2 = g2.adjacency_dense();
        let e1 = g1.edge_labels_dense(E::default());
        let e2 = g2.edge_labels_dense(E::default());
        let mut off_diagonal = vec![0.0f32; dim * dim];
        for i in 0..n {
            for j in 0..n {
                let w1 = a1[i * n + j];
                if w1 == 0.0 {
                    continue;
                }
                for ip in 0..m {
                    for jp in 0..m {
                        let w2 = a2[ip * m + jp];
                        if w2 == 0.0 {
                            continue;
                        }
                        let ke = edge_kernel.eval(&e1[i * n + j], &e2[ip * m + jp]);
                        off_diagonal[(i * m + ip) * dim + j * m + jp] = w1 * w2 * ke;
                    }
                }
            }
        }
        let kron = |a: &[f32], b: &[f32]| -> Vec<f32> {
            let mut out = Vec::with_capacity(a.len() * b.len());
            for &x in a {
                for &y in b {
                    out.push(x * y);
                }
            }
            out
        };
        let degree_product = kron(&g1.laplacian_degrees(), &g2.laplacian_degrees());
        let mut vertex_product = Vec::with_capacity(dim);
        for va in g1.vertex_labels() {
            for vb in g2.vertex_labels() {
                vertex_product.push(vertex_kernel.eval(va, vb));
            }
        }
        let start_product = kron(g1.start_probabilities(), g2.start_probabilities());
        let stop_product = kron(g1.stop_probabilities(), g2.stop_probabilities());
        DenseSystem {
            dim,
            off_diagonal,
            degree_product,
            vertex_product,
            start_product,
            stop_product,
        }
    }

    /// The full system matrix `D× V×⁻¹ − A× ∘ E×` as a
    /// [`mgk_linalg::LinearOperator`]: the diagonal part minus the explicit
    /// dense off-diagonal product.
    pub(crate) fn system_operator(&self) -> ScaledSum<DiagonalOperator, DenseOperator> {
        let diag: Vec<f32> =
            self.degree_product.iter().zip(&self.vertex_product).map(|(&d, &v)| d / v).collect();
        let off = DenseMatrix::from_row_major(self.dim, self.dim, self.off_diagonal.clone());
        ScaledSum::new(1.0, DiagonalOperator::new(diag), -1.0, DenseOperator(off))
    }

    /// The Jacobi preconditioner `M⁻¹ = V× D×⁻¹` of the system.
    pub(crate) fn preconditioner(&self) -> DiagonalOperator {
        let diag: Vec<f32> =
            self.degree_product.iter().zip(&self.vertex_product).map(|(&d, &v)| v / d).collect();
        DiagonalOperator::new(diag)
    }

    /// The right-hand side `D× q×`.
    pub(crate) fn rhs(&self) -> Vec<f32> {
        self.degree_product.iter().zip(&self.stop_product).map(|(&d, &q)| d * q).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::Graph;
    use mgk_kernels::UnitKernel;

    #[test]
    fn dense_system_shapes_and_symmetry() {
        let g1 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::from_edge_list(3, &[(0, 1), (1, 2)]);
        let sys = DenseSystem::assemble(&g1, &g2, &UnitKernel, &UnitKernel);
        assert_eq!(sys.dim, 12);
        assert_eq!(sys.off_diagonal.len(), 144);
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(sys.off_diagonal[i * 12 + j], sys.off_diagonal[j * 12 + i]);
            }
        }
        assert!(sys.degree_product.iter().all(|&d| d > 0.0));
        assert!(sys.vertex_product.iter().all(|&v| v == 1.0));
    }
}
