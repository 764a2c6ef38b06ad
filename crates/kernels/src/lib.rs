//! Base vertex and edge micro-kernels for the marginalized graph kernel.
//!
//! The marginalized graph kernel (Eq. 1 of the paper) is parameterized by
//! two *base kernels*:
//!
//! * a vertex kernel `κ_v : Σ_v × Σ_v → (0, 1]` comparing vertex labels;
//! * an edge kernel `κ_e : Σ_e × Σ_e → [0, 1]` comparing edge labels.
//!
//! As long as both are positive definite with the stated ranges, the tensor
//! product system of Eq. (1) is symmetric positive definite and the overall
//! graph kernel is a valid kernel.
//!
//! Each implementation also reports a [`KernelCost`] — the byte size `E` of
//! a label and the FLOP count `X` of one evaluation — which feeds the traffic
//! closed forms in `mgk-core` and the Roofline model in `mgk-bench` (these
//! are the `E` and `X` symbols of Table I and Appendix B of the paper).

#![forbid(unsafe_code)]

pub mod cost;
pub mod elementary;

pub use cost::KernelCost;
pub use elementary::{KroneckerDelta, OctileUnitKernel, SquareExponential, UnitKernel};

/// A positive-definite base kernel over a label type `L`.
///
/// Implementations must be symmetric (`eval(a, b) == eval(b, a)`) and return
/// values in `[0, 1]` (strictly positive on the diagonal) so that the
/// resulting tensor-product linear system stays symmetric positive definite
/// (Section II-B of the paper).
///
/// What the solver branches on is stated by the type, at compile time: its
/// cost ([`FLOPS`](Self::FLOPS), which picks the sweep's instruction set)
/// and whether it is [`CONSTANT`](Self::CONSTANT), which lets the solver
/// factor the product system. A branch on either is resolved per
/// instantiation, so the code a kernel cannot take is never compiled for
/// it.
pub trait BaseKernel<L: ?Sized>: Send + Sync {
    /// `E`: bytes occupied by one label operand ([`KernelCost::label_bytes`]).
    const LABEL_BYTES: usize;
    /// `X`: floating point operations of one evaluation, including the
    /// multiply-accumulate of its product term ([`KernelCost::flops`]).
    const FLOPS: usize;
    /// Whether `eval` is `1.0` for every pair of labels, so that `A× ∘ E×`
    /// is the weighted Kronecker product `A₁ ⊗ A₂`. Only the unit kernel
    /// says so; a kernel that merely happens to return `1.0` may say `false`.
    const CONSTANT: bool = false;

    /// Evaluate the kernel on a pair of labels.
    fn eval(&self, a: &L, b: &L) -> f32;

    /// Cost metadata used by the performance model: the two constants
    /// above.
    fn cost(&self) -> KernelCost {
        KernelCost::new(Self::LABEL_BYTES, Self::FLOPS)
    }
}

/// Blanket implementation so `&K` and `Arc<K>` can be used wherever a kernel
/// is expected.
impl<L: ?Sized, K: BaseKernel<L>> BaseKernel<L> for &K {
    const LABEL_BYTES: usize = K::LABEL_BYTES;
    const FLOPS: usize = K::FLOPS;
    const CONSTANT: bool = K::CONSTANT;

    fn eval(&self, a: &L, b: &L) -> f32 {
        (**self).eval(a, b)
    }
}

impl<L: ?Sized, K: BaseKernel<L>> BaseKernel<L> for std::sync::Arc<K> {
    const LABEL_BYTES: usize = K::LABEL_BYTES;
    const FLOPS: usize = K::FLOPS;
    const CONSTANT: bool = K::CONSTANT;

    fn eval(&self, a: &L, b: &L) -> f32 {
        (**self).eval(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn references_and_arcs_are_kernels() {
        let k = KroneckerDelta::new(0.5);
        assert_eq!(<&KroneckerDelta as BaseKernel<u8>>::eval(&&k, &1, &1), 1.0);
        let arc: Arc<KroneckerDelta> = Arc::new(k);
        assert_eq!(arc.eval(&1u8, &2u8), 0.5);
        assert_eq!(BaseKernel::<u8>::cost(&arc), BaseKernel::<u8>::cost(&KroneckerDelta::new(0.5)));
        // and both forward the compile-time facts
        const { assert!(<&Arc<UnitKernel> as BaseKernel<u8>>::CONSTANT) };
        const { assert!(!<Arc<&KroneckerDelta> as BaseKernel<u8>>::CONSTANT) };
        const { assert!(<&SquareExponential as BaseKernel<f32>>::FLOPS == 11) };
    }
}
