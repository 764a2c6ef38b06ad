//! Basic vector kernels, generic over the [`Scalar`] precision.
//!
//! These are the `T` (dot product) and `+` (scaled addition) operations of
//! Algorithm 1 in the paper. Reductions accumulate in the scalar's
//! [`Accum`](Scalar::Accum) type — `f64` for both precisions — so that the
//! conjugate gradient recurrences remain stable even for large tensor
//! product systems computed in single precision, and the `f64`
//! instantiation keeps the identical accumulation structure.
//!
//! The reductions [`dot`] and [`norm_sq`] run [`LANES`] independent add
//! chains: element `k` accumulates into lane `k mod 8`, and the lanes are
//! combined by one fixed tree, `((l₀+l₄) + (l₂+l₆)) + ((l₁+l₅) + (l₃+l₇))`.
//! The order depends on the length alone, never on the CPU or the thread, so
//! answers are deterministic and identical between runs; one serial chain
//! would leave each reduction waiting on its add latency per element.

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

use crate::scalar::Scalar;

/// Number of independent accumulators of [`dot`] and [`norm_sq`].
pub const LANES: usize = 8;

/// `Σₖ x[k]·y[k]`, widened, with term `k` added into lane `k mod LANES`
/// and the lanes combined by the fixed tree of the module docs.
#[inline(always)]
fn lane_dot<T: Scalar>(x: &[T], y: &[T]) -> T::Accum {
    debug_assert_eq!(x.len(), y.len());
    let (x_blocks, x_tail) = x.as_chunks::<LANES>();
    let (y_blocks, y_tail) = y.as_chunks::<LANES>();
    let mut lanes = [T::Accum::default(); LANES];
    for (xb, yb) in x_blocks.iter().zip(y_blocks) {
        for ((lane, &a), &b) in lanes.iter_mut().zip(xb).zip(yb) {
            *lane += a.widen() * b.widen();
        }
    }
    for ((lane, &a), &b) in lanes.iter_mut().zip(x_tail).zip(y_tail) {
        *lane += a.widen() * b.widen();
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
}

/// Dot product `xᵀ y` with [`Accum`](Scalar::Accum) (`f64`) accumulation
/// over [`LANES`] lanes.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T::Accum {
    assert_eq!(x.len(), y.len(), "dot: length mismatch {} vs {}", x.len(), y.len());
    lane_dot(x, y)
}

/// Squared Euclidean norm `‖x‖²` with [`Accum`](Scalar::Accum)
/// accumulation over [`LANES`] lanes.
#[inline]
pub fn norm_sq<T: Scalar>(x: &[T]) -> T::Accum {
    lane_dot(x, x)
}

/// `y ← y + alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y ← x + beta * y` (the search-direction update of CG).
#[inline]
pub fn xpby<T: Scalar>(x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let x = [1.0f32, 2.0, 3.0];
        let y = [4.0f32, -5.0, 6.0];
        assert!((dot(&x, &y) - 12.0).abs() < 1e-12);
        assert!((norm_sq(&x) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_and_xpby() {
        let x = [1.0f32, 2.0];
        let mut y = [10.0f32, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [7.0, 14.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0f32], &[1.0, 2.0]);
    }

    #[test]
    fn f64_accumulation_is_stable() {
        // many tiny values whose f32 running sum would lose precision
        let x = vec![1e-4f32; 1_000_000];
        let ones = vec![1.0f32; 1_000_000];
        let d = dot(&x, &ones);
        assert!((d - 100.0).abs() < 1e-2, "got {d}");
    }

    /// The lane order written out: term `k` into lane `k mod 8`, then the
    /// fixed combining tree.
    fn lane_order_reference(terms: impl Iterator<Item = f64>) -> f64 {
        let mut lanes = [0.0f64; 8];
        for (k, term) in terms.enumerate() {
            lanes[k % 8] += term;
        }
        ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]))
    }

    /// `len` values of mixed sign and magnitude, so every association
    /// rounds differently.
    fn mixed(len: usize, seed: u32) -> Vec<f32> {
        (0..len as u32)
            .map(|k| {
                let h = (k.wrapping_add(seed)).wrapping_mul(2_654_435_761) >> 8;
                (h % 2001) as f32 / 997.0 - 1.0 + 1e-3 * (k % 7) as f32
            })
            .collect()
    }

    #[test]
    fn reductions_follow_the_lane_order_bitwise() {
        for len in (0..=17).chain([1000]) {
            let (x32, y32) = (mixed(len, 1), mixed(len, 7));
            let x64: Vec<f64> = x32.iter().map(|&v| v as f64 * 1.000_000_1).collect();
            let y64: Vec<f64> = y32.iter().map(|&v| v as f64 / 3.0).collect();
            let widened = |v: &[f32]| -> Vec<f64> { v.iter().map(|&a| a as f64).collect() };
            let (xw, yw) = (widened(&x32), widened(&y32));
            let cases = [
                (dot(&x32, &y32), lane_order_reference(xw.iter().zip(&yw).map(|(a, b)| a * b))),
                (norm_sq(&x32), lane_order_reference(xw.iter().map(|a| a * a))),
                (dot(&x64, &y64), lane_order_reference(x64.iter().zip(&y64).map(|(a, b)| a * b))),
                (norm_sq(&x64), lane_order_reference(x64.iter().map(|a| a * a))),
            ];
            for (case, (got, want)) in cases.into_iter().enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "length {len}, case {case}");
            }
        }
    }

    #[test]
    fn both_instantiations_agree_on_exact_inputs() {
        let x32 = [0.5f32, -1.25, 2.0];
        let x64: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
        assert_eq!(dot(&x32, &x32), dot(&x64, &x64));
        assert_eq!(norm_sq(&x32), norm_sq(&x64));
        let mut y32 = [1.0f32, 1.0, 1.0];
        let mut y64 = [1.0f64, 1.0, 1.0];
        axpy(0.5, &x32, &mut y32);
        axpy(0.5, &x64, &mut y64);
        for (a, b) in y32.iter().zip(&y64) {
            assert_eq!(*a as f64, *b);
        }
    }
}
