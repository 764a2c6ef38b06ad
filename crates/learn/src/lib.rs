//! Kernel-based learning on top of marginalized-graph-kernel Gram matrices.
//!
//! The paper's motivating applications (Section I, reference \[2\]) feed the
//! pairwise kernel matrix into kernel methods — Gaussian process regression
//! of molecular energies, SVM-style protein function prediction. This crate
//! provides the small amount of numerics needed to close that loop on top
//! of `mgk-core`'s `GramEngine` output:
//!
//! * [`KernelRidgeRegression`] — fit `α = (K + λI)⁻¹ y`, predict with
//!   cross-kernel rows;
//! * [`GaussianProcessRegression`] — the same posterior mean plus the
//!   predictive variance `k** − k*ᵀ (K + σ²I)⁻¹ k*`;
//! * [`leave_one_out_rmse`] — closed-form leave-one-out error for model
//!   selection without refitting.
//!
//! All routines work on plain row-major `f32` kernel matrices (the type the
//! Gram engine produces) and solve in `f64`.

#![forbid(unsafe_code)]

pub mod regression;

pub use regression::{
    leave_one_out_rmse, FitError, GaussianProcessRegression, KernelRidgeRegression,
};
