//! Dense direct solvers in double precision, used as ground truth when
//! validating the iterative and on-the-fly solvers.

/// Solve `A x = b` for symmetric positive definite `A` via Cholesky
/// factorization (`A = L Lᵀ`). `a` is row-major `n × n`.
///
/// Returns `None` if the matrix is not positive definite (a non-positive
/// pivot is encountered).
pub fn cholesky_solve(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    // factorize
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // forward substitution L y = b
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // backward substitution Lᵀ x = y
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Some(x)
}

/// Solve `A x = b` for general square `A` via LU factorization with partial
/// pivoting. `a` is row-major `n × n`.
///
/// Returns `None` if the matrix is (numerically) singular.
pub fn lu_solve(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix must be n*n");
    let mut lu = a.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // pivot
        let mut pivot_row = col;
        let mut pivot_val = lu[perm[col] * n + col].abs();
        for row in (col + 1)..n {
            let v = lu[perm[row] * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return None;
        }
        perm.swap(col, pivot_row);
        let p = perm[col];
        // eliminate
        for &r in &perm[(col + 1)..n] {
            let factor = lu[r * n + col] / lu[p * n + col];
            lu[r * n + col] = factor;
            for k in (col + 1)..n {
                lu[r * n + k] -= factor * lu[p * n + k];
            }
        }
    }

    // forward substitution (unit lower triangular)
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let r = perm[i];
        let mut sum = b[r];
        for k in 0..i {
            sum -= lu[r * n + k] * y[k];
        }
        y[i] = sum;
    }
    // backward substitution
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let r = perm[i];
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= lu[r * n + k] * x[k];
        }
        x[i] = sum / lu[r * n + i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_solves_simple_spd() {
        // A = [[4,2],[2,3]], b = [8, 7] => x = [1.4, 1.4]? compute: solve
        let a = [4.0, 2.0, 2.0, 3.0];
        let b = [8.0, 7.0];
        let x = cholesky_solve(&a, &b).unwrap();
        // verify A x = b
        assert!((4.0 * x[0] + 2.0 * x[1] - 8.0).abs() < 1e-12);
        assert!((2.0 * x[0] + 3.0 * x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(cholesky_solve(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn lu_solves_general_system() {
        let a = [0.0, 2.0, 1.0, 1.0, 1.0, 0.0, 3.0, 0.0, 1.0];
        let b = [5.0, 3.0, 4.0];
        let x = lu_solve(&a, &b).unwrap();
        let check = |row: usize, expect: f64| {
            let s: f64 = (0..3).map(|j| a[row * 3 + j] * x[j]).sum();
            assert!((s - expect).abs() < 1e-10, "row {row}: {s} vs {expect}");
        };
        check(0, 5.0);
        check(1, 3.0);
        check(2, 4.0);
    }

    #[test]
    fn lu_detects_singular_matrix() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(lu_solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn lu_and_cholesky_agree_on_spd() {
        let n = 6;
        // A = tridiagonal SPD
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = 2.5;
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
                a[(i + 1) * n + i] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x1 = cholesky_solve(&a, &b).unwrap();
        let x2 = lu_solve(&a, &b).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
    }
}
