//! Spectral-decomposition solver for the unlabeled random-walk kernel.
//!
//! Section II-C of the paper notes that spectral decomposition "delivers
//! the best performance if the edges are unlabeled or labeled with a small
//! set of distinct elements" (Vishwanathan et al., reference \[5\]). For the
//! unlabeled kernel of Eq. (2),
//!
//! ```text
//! K = p×ᵀ (D× − A×)⁻¹ D× q×
//! ```
//!
//! the similarity transform `S = D^{-1/2} A D^{-1/2}` (one per graph)
//! reduces the `nm × nm` inverse to two small eigendecompositions:
//!
//! ```text
//! (D× − A×)⁻¹ = D×^{-1/2} (I − S ⊗ S')⁻¹ D×^{-1/2}
//! (I − S ⊗ S')⁻¹ = (U ⊗ U') diag(1 / (1 − λ_k λ'_l)) (U ⊗ U')ᵀ
//! ```
//!
//! so the kernel becomes a double sum over the two spectra — no `nm × nm`
//! object is ever formed.

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

use crate::eigen::{symmetric_eigen, SymmetricEigen};

/// Spectral baseline for unlabeled graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpectralSolver;

impl SpectralSolver {
    /// Create the solver.
    pub fn new() -> Self {
        SpectralSolver
    }

    /// Evaluate the unlabeled random-walk kernel between two graphs,
    /// ignoring any labels they carry.
    pub fn kernel<V1, E1, V2, E2>(&self, g1: &Graph<V1, E1>, g2: &Graph<V2, E2>) -> f64 {
        let (a1, d1, p1, q1) = Self::per_graph(g1);
        let (a2, d2, p2, q2) = Self::per_graph(g2);
        let n = d1.len();
        let m = d2.len();

        // normalized adjacency S = D^{-1/2} A D^{-1/2} and its spectrum
        let normalized = |a: &[f64], d: &[f64], n: usize| -> Vec<f64> {
            let mut s = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    s[i * n + j] = a[i * n + j] / (d[i] * d[j]).sqrt();
                }
            }
            s
        };
        let e1 = symmetric_eigen(&normalized(&a1, &d1, n), n);
        let e2 = symmetric_eigen(&normalized(&a2, &d2, m), m);

        // a_k = Σ_i U_ik · p_i / sqrt(d_i);  b_k = Σ_i U_ik · q_i · sqrt(d_i)
        let project = |e: &SymmetricEigen, d: &[f64], p: &[f64], q: &[f64], n: usize| {
            let mut a = vec![0.0f64; n];
            let mut b = vec![0.0f64; n];
            for k in 0..n {
                for i in 0..n {
                    let u = e.eigenvectors[i * n + k];
                    a[k] += u * p[i] / d[i].sqrt();
                    b[k] += u * q[i] * d[i].sqrt();
                }
            }
            (a, b)
        };
        let (a_1, b_1) = project(&e1, &d1, &p1, &q1, n);
        let (a_2, b_2) = project(&e2, &d2, &p2, &q2, m);

        // K = Σ_{k,l} a1_k a2_l b1_k b2_l / (1 − λ_k λ'_l)
        let mut k_total = 0.0f64;
        for k in 0..n {
            for l in 0..m {
                let denom = 1.0 - e1.eigenvalues[k] * e2.eigenvalues[l];
                k_total += a_1[k] * a_2[l] * b_1[k] * b_2[l] / denom;
            }
        }
        k_total
    }

    fn per_graph<V, E>(g: &Graph<V, E>) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = g.adjacency_dense().iter().map(|&x| x as f64).collect();
        let d: Vec<f64> = g.laplacian_degrees().iter().map(|&x| x as f64).collect();
        let p: Vec<f64> = g.start_probabilities().iter().map(|&x| x as f64).collect();
        let q: Vec<f64> = g.stop_probabilities().iter().map(|&x| x as f64).collect();
        (a, d, p, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseSolver, DenseXmv};
    use mgk_core::{MarginalizedKernelSolver, SolverConfig};
    use mgk_graph::{generators, Graph};
    use mgk_kernels::UnitKernel;
    use mgk_reorder::ReorderMethod;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spectral_matches_explicit_solver() {
        let g1 =
            Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let spectral = SpectralSolver::new().kernel(&g1, &g2);
        let explicit = DenseSolver::new(
            UnitKernel,
            UnitKernel,
            SolverConfig { reorder: ReorderMethod::Natural, ..SolverConfig::default() },
            DenseXmv::Naive,
        )
        .kernel(&g1, &g2)
        .unwrap()
        .value_f64;
        assert!((spectral - explicit).abs() / explicit.abs() < 1e-6, "{spectral} vs {explicit}");
    }

    #[test]
    fn spectral_matches_core_solver_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(21);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        for _ in 0..3 {
            let g1 = generators::newman_watts_strogatz(15, 2, 0.2, &mut rng);
            let g2 = generators::barabasi_albert(12, 2, &mut rng);
            let spectral = SpectralSolver::new().kernel(&g1, &g2);
            let fast = solver.kernel(&g1, &g2).unwrap().value as f64;
            assert!((spectral - fast).abs() / fast.abs() < 1e-4, "{spectral} vs {fast}");
        }
    }

    #[test]
    fn spectral_self_kernel_is_positive() {
        let g = Graph::from_edge_list(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        assert!(SpectralSolver::new().kernel(&g, &g) > 0.0);
    }
}
