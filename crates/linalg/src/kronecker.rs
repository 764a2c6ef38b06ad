//! Kronecker and generalized Kronecker products.
//!
//! These are the building blocks of the tensor-product linear system of
//! Eq. (1). The *generalized* Kronecker product replaces scalar
//! multiplication with an arbitrary base kernel `κ : S × S → R⁺`
//! (Definition 7 of the paper); the standard product is the special case
//! `κ(a, b) = a · b`.
//!
//! Index convention (Definition 6): for `A (n×m)` and `B (n'×m')` the
//! product entry `P_{ii',jj'} = A_ij · B_i'j'` sits at row `i·n' + i'`,
//! column `j·m' + j'`.

use crate::dense::DenseMatrix;

/// Standard Kronecker product of two dense matrices.
pub fn kron_dense(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (n, m) = (a.rows(), a.cols());
    let (np, mp) = (b.rows(), b.cols());
    let mut out = DenseMatrix::zeros(n * np, m * mp);
    for i in 0..n {
        for j in 0..m {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            for ip in 0..np {
                for jp in 0..mp {
                    out[(i * np + ip, j * mp + jp)] = aij * b[(ip, jp)];
                }
            }
        }
    }
    out
}

/// Kronecker product of two vectors: `(a ⊗ b)_{ii'} = a_i b_i'`.
pub fn kron_vec(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &ai in a {
        for &bi in b {
            out.push(ai * bi);
        }
    }
    out
}

/// Generalized Kronecker product of two label matrices with respect to a
/// base kernel `κ` (Definition 7): `P_{ii',jj'} = κ(A_ij, B_i'j')`.
///
/// The label matrices are supplied as row-major slices of arbitrary label
/// type together with their dimensions.
pub fn generalized_kron<L>(
    a: &[L],
    (n, m): (usize, usize),
    b: &[L],
    (np, mp): (usize, usize),
    kernel: impl Fn(&L, &L) -> f32,
) -> DenseMatrix {
    assert_eq!(a.len(), n * m, "label matrix A has wrong length");
    assert_eq!(b.len(), np * mp, "label matrix B has wrong length");
    let mut out = DenseMatrix::zeros(n * np, m * mp);
    for i in 0..n {
        for j in 0..m {
            for ip in 0..np {
                for jp in 0..mp {
                    out[(i * np + ip, j * mp + jp)] = kernel(&a[i * m + j], &b[ip * mp + jp]);
                }
            }
        }
    }
    out
}

/// Generalized Kronecker product of two label vectors with respect to a
/// base kernel: `(v κ⊗ v')_{ii'} = κ(v_i, v'_i')`.
pub fn generalized_kron_vec<L>(a: &[L], b: &[L], kernel: impl Fn(&L, &L) -> f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for ai in a {
        for bi in b {
            out.push(kernel(ai, bi));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f32) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let i2 = DenseMatrix::identity(2);
        let i3 = DenseMatrix::identity(3);
        let p = kron_dense(&i2, &i3);
        assert!(approx_eq(&p, &DenseMatrix::identity(6), 0.0));
    }

    #[test]
    fn kron_index_convention() {
        // A = [[1, 2]], B = [[3], [4]]  => A⊗B is 2x2
        let a = DenseMatrix::from_row_major(1, 2, vec![1.0, 2.0]);
        let b = DenseMatrix::from_row_major(2, 1, vec![3.0, 4.0]);
        let p = kron_dense(&a, &b);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 2);
        assert_eq!(p[(0, 0)], 3.0); // A00*B00
        assert_eq!(p[(1, 0)], 4.0); // A00*B10
        assert_eq!(p[(0, 1)], 6.0); // A01*B00
        assert_eq!(p[(1, 1)], 8.0); // A01*B10
    }

    #[test]
    fn mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD) for compatible shapes
        let a = DenseMatrix::from_row_major(2, 2, vec![1., 2., 3., 4.]);
        let b = DenseMatrix::from_row_major(2, 2, vec![0., 1., 1., 0.]);
        let c = DenseMatrix::from_row_major(2, 2, vec![2., 0., 0., 2.]);
        let d = DenseMatrix::from_row_major(2, 2, vec![1., 1., 0., 1.]);
        let lhs = kron_dense(&a, &b).matmul(&kron_dense(&c, &d));
        let rhs = kron_dense(&a.matmul(&c), &b.matmul(&d));
        assert!(approx_eq(&lhs, &rhs, 1e-5));
    }

    #[test]
    fn kron_vec_matches_matrix_action() {
        // (A⊗B)(x⊗y) = (Ax)⊗(By)
        let a = DenseMatrix::from_row_major(2, 2, vec![1., 2., 0., 1.]);
        let b = DenseMatrix::from_row_major(2, 2, vec![3., 0., 1., 1.]);
        let x = [1.0f32, 2.0];
        let y = [0.5f32, -1.0];
        let big = kron_dense(&a, &b);
        let xy = kron_vec(&x, &y);
        let mut lhs = vec![0.0; 4];
        big.matvec(&xy, &mut lhs);
        let mut ax = vec![0.0; 2];
        let mut by = vec![0.0; 2];
        a.matvec(&x, &mut ax);
        b.matvec(&y, &mut by);
        let rhs = kron_vec(&ax, &by);
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-5);
        }
    }

    #[test]
    fn generalized_kron_reduces_to_standard_with_multiplication() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1., 2., 3., 4.]);
        let b = DenseMatrix::from_row_major(2, 2, vec![5., 6., 7., 8.]);
        let std = kron_dense(&a, &b);
        let gen =
            generalized_kron(a.as_slice(), (2, 2), b.as_slice(), (2, 2), |x: &f32, y: &f32| x * y);
        assert!(approx_eq(&std, &gen, 1e-6));
    }

    #[test]
    fn generalized_kron_with_delta_kernel() {
        let a = ['x', 'y'];
        let b = ['x', 'z'];
        let v = generalized_kron_vec(&a, &b, |p, q| if p == q { 1.0 } else { 0.25 });
        assert_eq!(v, vec![1.0, 0.25, 0.25, 0.25]);
    }
}
