//! Elementary base kernels: the three the solver, its tests and its
//! benchmarks run.
//!
//! The unit kernel gives the unlabeled random-walk kernel of Eq. (2). The
//! Kronecker delta is the standard choice for categorical labels (chemical
//! elements, bond orders), and the square exponential is the first of the
//! continuous edge kernels Appendix B of the paper lists (here on
//! interatomic distances). Any other positive-definite kernel implements
//! [`BaseKernel`] the same way.

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

/// `eˣ` for `x ≤ 0`, within 1 ulp of the true exponential on `[−87, 0]` and
/// exactly `1.0` at `0`. Arguments below −87 (including `−∞`) return the
/// value at −87 (≈ 1.6e-38), so the `2ⁿ` factor is never subnormal; a NaN
/// argument returns NaN.
///
/// Straight-line and free of calls so that it inlines into the fixed-8-lane
/// tile loops of `mgk_core::octile_ops` and lets them vectorize; libm's
/// `expf` is an opaque call that blocks that, and so are `floor`/`round`
/// below SSE4.1 — hence the magic-number rounding. Cephes `expf`: Cody–Waite
/// reduction `x = n·ln 2 + r`, `|r| ≤ ½ ln 2`, with `ln 2` split in two so
/// that `n·LN2_HI` is exact, then a degree-5 minimax polynomial.
#[inline(always)]
fn exp_nonpositive(x: f32) -> f32 {
    use std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 355.0 / 512.0; // nine significant bits
    const LN2_LO: f32 = -2.121_944_4e-4;
    // 1.5·2²³: adding it leaves `n` rounded to nearest in the low mantissa
    // bits, subtracting it recovers `n` as a float
    const ROUND: f32 = 12_582_912.0;
    // a comparison, not `f32::max`: `max(NaN, −87)` is −87, which would turn
    // a NaN label into a finite — silently wrong — kernel value
    let x = if x < -87.0 { -87.0 } else { x };
    let shifted = x * LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut q = 1.987_569_1e-4f32;
    q = q * r + 1.398_199_9e-3;
    q = q * r + 8.333_452e-3;
    q = q * r + 4.166_579_6e-2;
    q = q * r + 1.666_666_5e-1;
    q = q * r + 0.5;
    let e_r = q * (r * r) + r + 1.0;
    // n ∈ [−126, 0] sits in the low mantissa bits of `shifted` as a two's
    // complement offset from `ROUND`'s; biased, it is the exponent field of 2ⁿ
    // (wrapping: a NaN argument has arbitrary bits here and stays NaN through
    // the multiply)
    let biased = shifted.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(127);
    e_r * f32::from_bits(biased << 23)
}

/// Square exponential (Gaussian / RBF) kernel on scalar labels:
/// `κ(x, y) = exp(−(x − y)² / (2 ℓ²))`.
///
/// The exponential is a branch-free polynomial evaluation, within 1 ulp of
/// the true `exp` (libm's is within 0.5), not a libm call: the kernel is
/// the inner loop of the tile-pair product and must inline into its 8-lane
/// loops for them to vectorize. Every solver path and every test oracle
/// evaluates this one body, so they agree with each other bit for bit.
/// `κ(a, a)` is exactly `1.0`; a NaN or `∞ − ∞` label pair gives NaN.
///
/// Appendix B counts its cost as 3 multiplications and one exponentiation;
/// we charge the exponential as 8 FLOPs in the cost model, which is in line
/// with the SFU throughput assumption used by the paper's Roofline plots —
/// the cost model is the paper's and deliberately not the polynomial's
/// operation count.
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
}

impl BaseKernel<f32> for SquareExponential {
    #[inline]
    fn eval(&self, a: &f32, b: &f32) -> f32 {
        let d = a - b;
        exp_nonpositive(-d * d * self.inv_two_ell_sq)
    }

    fn cost(&self) -> KernelCost {
        KernelCost::new(4, 3 + 8)
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
    fn kronecker_delta_basic_properties() {
        let k = KroneckerDelta::new(0.25);
        assert_eq!(k.eval(&7u32, &7u32), 1.0);
        assert_eq!(k.eval(&7u32, &8u32), 0.25);
        // symmetry
        assert_eq!(k.eval(&1u32, &2u32), k.eval(&2u32, &1u32));
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

        // the diagonal of V× / E× must stay exactly 1
        for i in -2000..=2000 {
            let a = i as f32 * 0.37;
            assert_eq!(k.eval(&a, &a).to_bits(), 1.0f32.to_bits(), "κ({a}, {a})");
        }
        // bitwise symmetric, in (0, 1], non-increasing in |a − b|
        let mut previous = 1.0f32;
        for i in 0..10_000 {
            let (a, b) = (0.25f32, 0.25 + i as f32 * 2e-3);
            let v = k.eval(&a, &b);
            assert_eq!(v.to_bits(), k.eval(&b, &a).to_bits(), "asymmetric at |a − b| = {}", b - a);
            assert!(v > 0.0 && v <= 1.0, "κ = {v} outside (0, 1] at |a − b| = {}", b - a);
            assert!(v <= previous, "κ rises from {previous} to {v} at |a − b| = {}", b - a);
            previous = v;
        }
    }

    /// Error of `got` against the true value `want`, in units of the `f32`
    /// spacing at `want`.
    fn ulps_off(got: f32, want: f64) -> f64 {
        let exponent = (want.abs() as f32).to_bits() >> 23;
        let ulp = f32::from_bits(exponent << 23) as f64 * f32::EPSILON as f64;
        (got as f64 - want).abs() / ulp
    }

    #[test]
    fn square_exponential_is_within_one_ulp_of_the_true_exponential() {
        // the whole range the clamp admits, in steps of 3.9e-4 …
        let mut worst = 0.0f64;
        for i in 0..=87 * 2560 {
            let x = -(i as f32) / 2560.0;
            worst = worst.max(ulps_off(exp_nonpositive(x), (x as f64).exp()));
        }
        assert_eq!(exp_nonpositive(-87.5).to_bits(), exp_nonpositive(-87.0).to_bits());
        // … and the arguments the protein corpus produces: distances up to
        // the 3.5 cutoff under the length scales in use
        for ell in [0.5f32, 0.7, 0.9, 1.0] {
            let k = SquareExponential::new(ell);
            for i in 0..=3500 {
                let d = i as f32 * 1e-3;
                let x = (-d * d * k.inv_two_ell_sq) as f64;
                worst = worst.max(ulps_off(k.eval(&0.0, &d), x.exp()));
            }
        }
        assert!(worst <= 1.0, "worst error {worst} ulp");
    }

    #[test]
    fn square_exponential_keeps_hostile_labels_loud() {
        let k = SquareExponential::new(0.5);
        assert!(k.eval(&f32::NAN, &1.0).is_nan());
        assert!(k.eval(&1.0, &f32::NAN).is_nan());
        // ∞ − ∞
        assert!(k.eval(&f32::INFINITY, &f32::INFINITY).is_nan());
        // far apart is a finite (tiny) similarity, not an overflow
        for far in [f32::INFINITY, 1e19, f32::MAX] {
            let v = k.eval(&0.0, &far);
            assert!((0.0..=1.0).contains(&v), "κ(0, {far}) = {v}");
        }
    }

    #[test]
    fn cost_metadata_is_sensible() {
        assert_eq!(BaseKernel::<u32>::cost(&KroneckerDelta::new(0.5)).label_bytes, 4);
        assert!(BaseKernel::<f32>::cost(&SquareExponential::new(1.0)).flops > 3);
    }
}
