//! Row-major dense matrices in single precision.

/// A row-major dense `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        self.matvec_t(x, y);
    }

    /// [`matvec`](Self::matvec) at any [`Scalar`](crate::Scalar) vector
    /// precision: the `f32`-stored entries are widened individually and
    /// accumulated in `f64`, so the `f32` instantiation is the classic
    /// single-precision matvec and the `f64` one applies the exact stored
    /// matrix. This is the single loop behind both the inherent `f32`
    /// method and the `DenseOperator` trait impls.
    pub(crate) fn matvec_t<T: crate::Scalar>(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "matvec: x length must equal cols");
        assert_eq!(y.len(), self.rows, "matvec: y length must equal rows");
        if self.cols == 0 {
            y.fill(T::ZERO);
            return;
        }
        for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0.0f64;
            for (&a, &b) in row.iter().zip(x) {
                acc += a as f64 * b.to_f64();
            }
            *yi = T::from_f64(acc);
        }
    }

    /// Matrix–matrix product `A · B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = DenseMatrix::zeros(2, 3);
        m[(0, 2)] = 5.0;
        m[(1, 0)] = -1.0;
        assert_eq!(m[(0, 2)], 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1), &[-1.0, 0.0, 0.0]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let id = DenseMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        id.matvec(&x, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut y = [0.0; 2];
        a.matvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 7.0]);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = DenseMatrix::from_row_major(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = a.transpose();
        assert_eq!(b.rows(), 3);
        assert_eq!(b[(2, 1)], 6.0);
        let c = a.matmul(&b); // 2x2 Gram matrix
        assert_eq!(c[(0, 0)], 14.0);
        assert_eq!(c[(0, 1)], 32.0);
        assert_eq!(c[(1, 0)], 32.0);
        assert_eq!(c[(1, 1)], 77.0);
        assert_eq!(c, c.transpose());
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_row_major_rejects_bad_length() {
        let _ = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
