//! Elementary base kernels.
//!
//! Appendix B of the paper lists the edge kernels used in practice: the
//! square exponential kernel, compact polynomial radial basis kernels,
//! tensor-product (Kronecker) combinations and R-convolution kernels. The
//! Kronecker delta is the standard choice for categorical vertex labels
//! (e.g. chemical elements).

use crate::cost::KernelCost;
use crate::BaseKernel;

/// Kernel that always returns 1 — the vertex/edge kernel of the unlabeled
/// (random walk) kernel of Eq. (2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitKernel;

impl<L: ?Sized + Sync> BaseKernel<L> for UnitKernel {
    #[inline]
    fn eval(&self, _a: &L, _b: &L) -> f32 {
        1.0
    }

    fn cost(&self) -> KernelCost {
        KernelCost::UNLABELED
    }
}

/// Kernel that returns a fixed constant in `(0, 1]` regardless of labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantKernel {
    value: f32,
}

impl ConstantKernel {
    /// Create a constant kernel; `value` must lie in `(0, 1]`.
    pub fn new(value: f32) -> Self {
        assert!(value > 0.0 && value <= 1.0, "constant kernel value must be in (0, 1]");
        ConstantKernel { value }
    }
}

impl<L: ?Sized + Sync> BaseKernel<L> for ConstantKernel {
    #[inline]
    fn eval(&self, _a: &L, _b: &L) -> f32 {
        self.value
    }

    fn cost(&self) -> KernelCost {
        KernelCost::new(0, 3)
    }
}

/// Kronecker delta kernel for categorical labels: returns 1 when the labels
/// are equal and `baseline` otherwise.
///
/// With `baseline ∈ (0, 1)` this is positive definite and is the standard
/// choice for element/bond-order labels in molecular applications
/// (reference \[2\] of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KroneckerDelta {
    baseline: f32,
}

impl KroneckerDelta {
    /// Create a Kronecker delta kernel with the given mismatch value.
    pub fn new(baseline: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&baseline),
            "Kronecker delta baseline must be in [0, 1), got {baseline}"
        );
        KroneckerDelta { baseline }
    }

    /// The mismatch value.
    pub fn baseline(&self) -> f32 {
        self.baseline
    }
}

impl<L: PartialEq + Sync + ?Sized> BaseKernel<L> for KroneckerDelta {
    #[inline]
    fn eval(&self, a: &L, b: &L) -> f32 {
        if a == b {
            1.0
        } else {
            self.baseline
        }
    }

    fn cost(&self) -> KernelCost {
        // one comparison + select, 4-byte categorical label, plus the
        // 3-FLOP multiply-accumulate of the product term
        KernelCost::new(4, 4)
    }
}

/// Square exponential (Gaussian / RBF) kernel on scalar labels:
/// `κ(x, y) = exp(−(x − y)² / (2 ℓ²))`.
///
/// Appendix B counts its cost as 3 multiplications and one exponentiation;
/// we charge the exponential as 8 FLOPs in the cost model, which is in line
/// with the SFU throughput assumption used by the paper's Roofline plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquareExponential {
    inv_two_ell_sq: f32,
    length_scale: f32,
}

impl SquareExponential {
    /// Create a square exponential kernel with length scale `ℓ > 0`.
    pub fn new(length_scale: f32) -> Self {
        assert!(length_scale > 0.0 && length_scale.is_finite(), "length scale must be positive");
        SquareExponential { inv_two_ell_sq: 0.5 / (length_scale * length_scale), length_scale }
    }

    /// The length scale `ℓ`.
    pub fn length_scale(&self) -> f32 {
        self.length_scale
    }
}

impl BaseKernel<f32> for SquareExponential {
    #[inline]
    fn eval(&self, a: &f32, b: &f32) -> f32 {
        let d = a - b;
        (-d * d * self.inv_two_ell_sq).exp()
    }

    fn cost(&self) -> KernelCost {
        KernelCost::new(4, 3 + 8)
    }
}

/// Compact polynomial radial basis kernel (Wendland-type):
/// `κ(x, y) = (1 − r/c)₊^degree · Σ_i α_i (r/c)^i` truncated to `[0, 1]`,
/// where `r = |x − y|` and `c` is the cutoff.
///
/// The default coefficients reproduce the C² Wendland function
/// `(1 − s)⁴ (4 s + 1)` used for smooth, compactly supported edge kernels on
/// interatomic distances (Appendix B, reference \[26\]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactPolynomial {
    cutoff: f32,
    degree: i32,
    coefficients: Vec<f32>,
}

impl CompactPolynomial {
    /// The C² Wendland kernel with the given cutoff distance.
    pub fn wendland_c2(cutoff: f32) -> Self {
        assert!(cutoff > 0.0 && cutoff.is_finite(), "cutoff must be positive");
        CompactPolynomial { cutoff, degree: 4, coefficients: vec![1.0, 4.0] }
    }

    /// A custom compact polynomial `(1 − s)₊^degree · Σ_i coeff_i s^i`.
    pub fn new(cutoff: f32, degree: i32, coefficients: Vec<f32>) -> Self {
        assert!(cutoff > 0.0 && cutoff.is_finite(), "cutoff must be positive");
        assert!(degree >= 0, "degree must be non-negative");
        assert!(!coefficients.is_empty(), "need at least one coefficient");
        CompactPolynomial { cutoff, degree, coefficients }
    }

    fn raw(&self, s: f32) -> f32 {
        if s >= 1.0 {
            return 0.0;
        }
        let mut poly = 0.0f32;
        // Horner evaluation of Σ coeff_i s^i
        for &c in self.coefficients.iter().rev() {
            poly = poly * s + c;
        }
        (1.0 - s).powi(self.degree) * poly
    }
}

impl BaseKernel<f32> for CompactPolynomial {
    #[inline]
    fn eval(&self, a: &f32, b: &f32) -> f32 {
        let s = (a - b).abs() / self.cutoff;
        let norm = self.raw(0.0);
        (self.raw(s) / norm).clamp(0.0, 1.0)
    }

    fn cost(&self) -> KernelCost {
        // n chained FMAs for the polynomial plus the power term
        KernelCost::new(4, 3 + self.coefficients.len() + self.degree as usize)
    }
}

/// Normalized dot product kernel on fixed-length feature vectors:
/// `κ(x, y) = max(0, x·y / (‖x‖ ‖y‖))`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DotProductKernel {
    _private: (),
}

impl DotProductKernel {
    /// Create a normalized dot product kernel.
    pub fn new() -> Self {
        DotProductKernel { _private: () }
    }
}

impl<const N: usize> BaseKernel<[f32; N]> for DotProductKernel {
    fn eval(&self, a: &[f32; N], b: &[f32; N]) -> f32 {
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for i in 0..N {
            dot += a[i] * b[i];
            na += a[i] * a[i];
            nb += b[i] * b[i];
        }
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
    }

    fn cost(&self) -> KernelCost {
        KernelCost::new(4 * N, 6 * N + 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_kernel_is_one_everywhere() {
        let k = UnitKernel;
        assert_eq!(BaseKernel::<u32>::eval(&k, &1, &2), 1.0);
        assert_eq!(BaseKernel::<u32>::cost(&k), KernelCost::UNLABELED);
    }

    #[test]
    fn constant_kernel_validates_range() {
        assert_eq!(BaseKernel::<u8>::eval(&ConstantKernel::new(0.3), &0, &1), 0.3);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn constant_kernel_rejects_zero() {
        let _ = ConstantKernel::new(0.0);
    }

    #[test]
    fn kronecker_delta_basic_properties() {
        let k = KroneckerDelta::new(0.25);
        assert_eq!(k.eval(&7u32, &7u32), 1.0);
        assert_eq!(k.eval(&7u32, &8u32), 0.25);
        // symmetry
        assert_eq!(k.eval(&1u32, &2u32), k.eval(&2u32, &1u32));
        assert_eq!(k.baseline(), 0.25);
    }

    #[test]
    #[should_panic(expected = "baseline must be in [0, 1)")]
    fn kronecker_delta_rejects_one() {
        let _ = KroneckerDelta::new(1.0);
    }

    #[test]
    fn square_exponential_properties() {
        let k = SquareExponential::new(0.5);
        assert!((k.eval(&1.0, &1.0) - 1.0).abs() < 1e-7);
        // symmetric and decreasing with distance
        assert_eq!(k.eval(&0.0, &1.0), k.eval(&1.0, &0.0));
        assert!(k.eval(&0.0, &0.1) > k.eval(&0.0, &0.5));
        assert!(k.eval(&0.0, &0.5) > k.eval(&0.0, &2.0));
        // range (0, 1]
        assert!(k.eval(&0.0, &100.0) >= 0.0);
        assert!(k.eval(&0.0, &0.3) <= 1.0);
        // exact value: exp(-d^2 / (2 l^2)) with d=1, l=0.5 => exp(-2)
        assert!((k.eval(&0.0, &1.0) - (-2.0f32).exp()).abs() < 1e-6);
    }

    #[test]
    fn compact_polynomial_support_and_normalization() {
        let k = CompactPolynomial::wendland_c2(2.0);
        assert!((k.eval(&0.0, &0.0) - 1.0).abs() < 1e-6);
        // zero outside the cutoff
        assert_eq!(k.eval(&0.0, &2.5), 0.0);
        assert_eq!(k.eval(&0.0, &2.0), 0.0);
        // monotone decreasing inside
        assert!(k.eval(&0.0, &0.2) > k.eval(&0.0, &1.0));
        assert!(k.eval(&0.0, &1.0) > k.eval(&0.0, &1.9));
        // symmetric
        assert_eq!(k.eval(&1.0, &0.0), k.eval(&0.0, &1.0));
    }

    #[test]
    fn dot_product_kernel_on_feature_vectors() {
        let k = DotProductKernel::new();
        let a = [1.0f32, 0.0, 0.0];
        let b = [0.0f32, 1.0, 0.0];
        let c = [2.0f32, 0.0, 0.0];
        assert_eq!(k.eval(&a, &b), 0.0);
        assert!((k.eval(&a, &c) - 1.0).abs() < 1e-6);
        assert_eq!(k.eval(&a, &a), 1.0);
        let zero = [0.0f32; 3];
        assert_eq!(k.eval(&a, &zero), 0.0);
    }

    #[test]
    fn cost_metadata_is_sensible() {
        assert_eq!(BaseKernel::<u32>::cost(&KroneckerDelta::new(0.5)).label_bytes, 4);
        assert!(BaseKernel::<f32>::cost(&SquareExponential::new(1.0)).flops > 3);
        let dp_cost = BaseKernel::<[f32; 4]>::cost(&DotProductKernel::new());
        assert_eq!(dp_cost.label_bytes, 16);
    }
}
