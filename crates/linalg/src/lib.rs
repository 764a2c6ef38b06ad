//! Dense linear algebra, Kronecker products and conjugate-gradient
//! solvers for the marginalized graph kernel workspace.
//!
//! The crate deliberately implements only the operations the solver needs —
//! it is not a general-purpose BLAS. The operator/solver surface is generic
//! over the sealed [`Scalar`] trait (`f32` and `f64`): matrix *storage*
//! stays `f32` (matching the single-precision GPU arithmetic of the paper),
//! while the iteration vectors run at either precision — `f32` with `f64`
//! accumulation in the reductions for serving, or `f64` end-to-end for
//! validation against the dense direct solvers. The runtime-value side of
//! that axis is the [`Precision`] policy carried by configuration structs.
//!
//! Main entry points:
//!
//! * [`DenseMatrix`] — the storage format of the test oracles.
//! * [`kronecker`] — standard and generalized (base-kernel) products that
//!   appear in Eq. (1) of the paper.
//! * [`Scalar`] / [`Precision`] — the precision axis of the solver surface.
//! * [`LinearOperator`] — abstraction of `y ← A·x` used by the iterative
//!   solvers so that the on-the-fly product operators of `mgk-core` never
//!   materialize the tensor-product system; generic over [`Scalar`].
//! * [`pcg`] / [`pcg_counted`] — preconditioned conjugate gradient,
//!   Algorithm 1 of the paper, at either precision.
//! * [`direct`] — dense `f64` Cholesky/LU used as ground truth in tests.

#![forbid(unsafe_code)]

pub mod cg;
pub mod dense;
pub mod direct;
pub mod kronecker;
pub mod operator;
pub mod scalar;
pub mod traffic;
mod vecops;

pub use cg::{pcg, pcg_counted, pcg_counted_warm_multi, ConvergenceInfo, SolveOptions};
pub use dense::DenseMatrix;
pub use kronecker::{generalized_kron, kron_dense, kron_vec};
pub use operator::{DenseOperator, DiagonalOperator, LinearOperator};
pub use scalar::{Precision, Scalar};
pub use traffic::TrafficCounters;
