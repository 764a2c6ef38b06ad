//! The [`LinearOperator`] abstraction used by the iterative solvers.
//!
//! The marginalized-graph-kernel system matrix `D× V×⁻¹ − A× ∘ E×` is never
//! materialized by the high-throughput solver; instead it is applied
//! on-the-fly (Algorithm 2 of the paper). The CG/PCG implementations in
//! [`mod@crate::cg`] therefore only require the ability to apply the operator
//! to a vector.
//!
//! The trait is generic over the [`Scalar`] precision of the vectors it
//! acts on (defaulting to `f32`, the paper's serving precision). Operators
//! whose *data* is stored in `f32` — the dense wrapper here, the
//! on-the-fly tensor-product operators of `mgk-core` — implement
//! `LinearOperator<T>` for every `T: Scalar` by widening each stored factor
//! through [`Scalar::from_f32`] before multiplying, so the `f64`
//! instantiation applies the exact matrix the `f32` storage represents.

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;
use crate::traffic::TrafficCounters;

/// Bytes of one `f32` element — the storage footprint of the workspace's
/// matrix data, which stays single-precision at every vector precision.
const F32_BYTES: u64 = 4;

/// A square linear operator that can be applied to a vector of scalars `T`.
///
/// This is the single operator surface of the workspace: the iterative
/// solvers in [`mod@crate::cg`], the on-the-fly tensor-product operators of
/// `mgk-core` and the explicit baselines all apply matrices through it, at
/// either precision of the [`Scalar`] axis. Memory-traffic instrumentation
/// is part of the surface —
/// [`apply_counted`](Self::apply_counted) threads a [`TrafficCounters`]
/// through every application, so callers that care about traffic (the GPU
/// cost model, the benchmark harness) receive exact counts without any
/// side-channel state on the operator.
pub trait LinearOperator<T: Scalar = f32> {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;

    /// Compute `y ← A·x`. `x` and `y` have length [`dim`](Self::dim) and do
    /// not alias.
    fn apply(&self, x: &[T], y: &mut [T]);

    /// Compute `y ← A·x` and add the memory traffic and arithmetic of the
    /// application to `counters`.
    ///
    /// The default implementation forwards to [`apply`](Self::apply) and
    /// counts nothing; operators with a meaningful cost model override it.
    /// Implementations that override `apply_counted` should implement
    /// `apply` as `self.apply_counted(x, y, &mut TrafficCounters::new())`.
    fn apply_counted(&self, x: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        let _ = counters;
        self.apply(x, y);
    }

    /// Convenience allocation-returning variant of [`apply`](Self::apply).
    fn apply_alloc(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

/// A dense (`f32`-stored) matrix viewed as a linear operator at any
/// [`Scalar`] precision.
#[derive(Debug, Clone)]
pub struct DenseOperator(pub DenseMatrix);

impl<T: Scalar> LinearOperator<T> for DenseOperator {
    fn dim(&self) -> usize {
        assert_eq!(self.0.rows(), self.0.cols(), "operator must be square");
        self.0.rows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.0.matvec_t(x, y);
    }

    fn apply_counted(&self, x: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        LinearOperator::<T>::apply(self, x, y);
        let (n, m) = (self.0.rows() as u64, self.0.cols() as u64);
        // stream the (f32) matrix and the input vector, write the output once
        counters.global_load_bytes += n * m * F32_BYTES + m * T::BYTES;
        counters.global_store_bytes += n * T::BYTES;
        counters.flops += 2 * n * m;
    }
}

/// A diagonal operator `y_i = d_i x_i` storing its diagonal at the vector
/// precision; also usable as a Jacobi preconditioner through
/// [`DiagonalOperator::inverse`].
#[derive(Debug, Clone)]
pub struct DiagonalOperator<T: Scalar = f32> {
    diag: Vec<T>,
}

impl<T: Scalar> DiagonalOperator<T> {
    /// Wrap a diagonal.
    pub fn new(diag: Vec<T>) -> Self {
        DiagonalOperator { diag }
    }

    /// The element-wise inverse operator. Panics if any diagonal entry is
    /// zero or non-finite.
    pub fn inverse(&self) -> Self {
        let inv: Vec<T> = self
            .diag
            .iter()
            .map(|&d| {
                assert!(d != T::ZERO && d.is_finite(), "cannot invert diagonal entry {d}");
                T::ONE / d
            })
            .collect();
        DiagonalOperator { diag: inv }
    }

    /// Access the diagonal entries.
    pub fn diagonal(&self) -> &[T] {
        &self.diag
    }
}

impl<T: Scalar> LinearOperator<T> for DiagonalOperator<T> {
    fn dim(&self) -> usize {
        self.diag.len()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.diag) {
            *yi = di * xi;
        }
    }

    fn apply_counted(&self, x: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        self.apply(x, y);
        let n = self.diag.len() as u64;
        counters.global_load_bytes += 2 * n * T::BYTES;
        counters.global_store_bytes += n * T::BYTES;
        counters.flops += n;
    }
}

impl<S: Scalar, T: LinearOperator<S> + ?Sized> LinearOperator<S> for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[S], y: &mut [S]) {
        (**self).apply(x, y)
    }
    fn apply_counted(&self, x: &[S], y: &mut [S], counters: &mut TrafficCounters) {
        (**self).apply_counted(x, y, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_operator_applies_matrix() {
        let m = DenseMatrix::from_row_major(2, 2, vec![1., 2., 3., 4.]);
        let op = DenseOperator(m);
        assert_eq!(LinearOperator::<f32>::dim(&op), 2);
        assert_eq!(op.apply_alloc(&[1.0f32, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn f32_and_f64_instantiations_apply_the_same_matrix() {
        let m = DenseMatrix::from_row_major(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        let dense = DenseOperator(m);
        let x32 = [1.0f32, -2.0];
        let x64 = [1.0f64, -2.0];
        let narrow = LinearOperator::<f32>::apply_alloc(&dense, &x32);
        let wide = LinearOperator::<f64>::apply_alloc(&dense, &x64);
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(*a as f64, *b, "exact inputs must agree across precisions");
        }
    }

    #[test]
    fn diagonal_operator_and_inverse() {
        let d = DiagonalOperator::new(vec![2.0f32, 4.0]);
        assert_eq!(d.apply_alloc(&[1.0, 1.0]), vec![2.0, 4.0]);
        let inv = d.inverse();
        assert_eq!(inv.apply_alloc(&[2.0, 4.0]), vec![1.0, 1.0]);
        // the f64 instantiation stores and applies a true f64 diagonal
        let d64: DiagonalOperator<f64> = DiagonalOperator::new(vec![3.0, 0.5]);
        assert_eq!(d64.inverse().apply_alloc(&[3.0, 0.5]), vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "cannot invert")]
    fn diagonal_inverse_rejects_zero() {
        let _ = DiagonalOperator::new(vec![1.0f32, 0.0]).inverse();
    }

    #[test]
    fn counted_apply_matches_plain_apply_and_counts() {
        let dense = DenseOperator(DenseMatrix::from_row_major(2, 2, vec![1., 2., 3., 4.]));
        let diag = DiagonalOperator::new(vec![2.0f32, 3.0]);
        let x = [1.0f32, -1.0];
        for op in [&dense as &dyn LinearOperator, &diag] {
            let mut counters = TrafficCounters::new();
            let mut y = vec![0.0f32; 2];
            op.apply_counted(&x, &mut y, &mut counters);
            assert_eq!(y, op.apply_alloc(&x));
            assert!(counters.flops > 0);
            assert!(counters.global_load_bytes > 0);
            assert!(counters.global_store_bytes > 0);
        }
    }

    #[test]
    fn reference_to_operator_is_operator() {
        let d = DiagonalOperator::new(vec![3.0f32]);
        let r: &dyn LinearOperator = &d;
        assert_eq!(r.apply_alloc(&[2.0]), vec![6.0]);
        assert_eq!(d.apply_alloc(&[2.0]), vec![6.0]);
    }
}
