//! Symmetric eigendecomposition via the cyclic Jacobi method, for
//! [`crate::spectral`], its one caller.
//!
//! The spectral-decomposition solver for the unlabeled random-walk kernel
//! (Section II-C of the paper, following Vishwanathan et al.) diagonalizes
//! the normalized adjacency matrices of the two graphs separately. The
//! matrices involved are small (one per graph, not per pair), so the plain
//! Jacobi rotation method in `f64` is accurate and fast enough.

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

use std::cmp::Ordering;

/// Eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone)]
pub(crate) struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors stored column-wise in a row-major `n × n` matrix:
    /// `eigenvectors[i * n + k]` is the `i`-th component of the `k`-th
    /// eigenvector.
    pub eigenvectors: Vec<f64>,
}

/// Compute the eigendecomposition of the symmetric matrix `a` (row-major,
/// `n × n`) with the cyclic Jacobi method.
///
/// Panics if `a` is not square of size `n`. The input is symmetrized
/// explicitly (`(A + Aᵀ)/2`) to be robust against round-off in the caller.
pub(crate) fn symmetric_eigen(a: &[f64], n: usize) -> SymmetricEigen {
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    // working copy, symmetrized
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = 0.5 * (a[i * n + j] + a[j * n + i]);
        }
    }
    // eigenvector accumulator starts as identity
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        // off-diagonal Frobenius norm
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i * n + j] * m[i * n + j];
            }
        }
        if off.sqrt() < 1e-14 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply the rotation to rows/columns p and q
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    // extract and sort
    let mut order: Vec<usize> = (0..n).collect();
    let eigvals: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    order.sort_by(|&i, &j| eigvals[i].partial_cmp(&eigvals[j]).unwrap_or(Ordering::Equal));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| eigvals[i]).collect();
    let mut eigenvectors = vec![0.0f64; n * n];
    for (new_k, &old_k) in order.iter().enumerate() {
        for i in 0..n {
            eigenvectors[i * n + new_k] = v[i * n + old_k];
        }
    }
    SymmetricEigen { eigenvalues, eigenvectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = [3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0];
        let e = symmetric_eigen(&a, 3);
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn two_by_two_known_values() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3
        let a = [2.0, 1.0, 1.0, 2.0];
        let e = symmetric_eigen(&a, 2);
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // pseudo-random symmetric matrix
        let n = 8;
        let mut a = vec![0.0f64; n * n];
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let x = next();
                a[i * n + j] = x;
                a[j * n + i] = x;
            }
        }
        let e = symmetric_eigen(&a, n);
        // A ≈ V Λ Vᵀ
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..n {
                    sum += e.eigenvectors[i * n + k] * e.eigenvalues[k] * e.eigenvectors[j * n + k];
                }
                assert!((sum - a[i * n + j]).abs() < 1e-9, "reconstruction error at ({i},{j})");
            }
        }
        // VᵀV ≈ I
        for p in 0..n {
            for q in 0..n {
                let mut dot = 0.0;
                for i in 0..n {
                    dot += e.eigenvectors[i * n + p] * e.eigenvectors[i * n + q];
                }
                let expect = if p == q { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10);
            }
        }
        // eigenvalues ascending
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = [4.0, 1.0, 0.5, 1.0, 3.0, -1.0, 0.5, -1.0, 2.0];
        let e = symmetric_eigen(&a, 3);
        let trace: f64 = e.eigenvalues.iter().sum();
        assert!((trace - 9.0).abs() < 1e-10);
    }
}
