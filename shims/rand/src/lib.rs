//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate provides the (small) subset of the rand 0.8 API the `mgk` workspace
//! uses: [`rngs::StdRng`] (a deterministic xoshiro256++), the [`Rng`] /
//! [`RngCore`] / [`SeedableRng`] traits, uniform range sampling and the
//! [`seq::SliceRandom`] helpers.
//!
//! Everything is fully deterministic given a seed; there is intentionally no
//! entropy-based constructor, so all callers must seed explicitly
//! (`StdRng::seed_from_u64`), which keeps the workspace's tests reproducible.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Low-level source of random bits.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Types that can be sampled uniformly from an RNG (the shim's analogue of
/// `Standard: Distribution<T>`).
pub trait SampleStandard {
    /// Draw one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 mantissa bits -> uniform in [0, 1)
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be sampled to produce a `T` (the shim's analogue of
/// `SampleRange<T>`).
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Debiased uniform integer in `[0, bound)` via Lemire-style rejection.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // rejection zone keeps the result unbiased
    let zone = bound.wrapping_neg() % bound;
    loop {
        let v = rng.next_u64();
        let (hi, lo) =
            (((v as u128 * bound as u128) >> 64) as u64, (v as u128 * bound as u128) as u64);
        if lo >= zone || zone == 0 {
            return hi;
        }
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <$t as SampleStandard>::sample_standard(rng);
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let u = <$t as SampleStandard>::sample_standard(rng);
                lo + u * (hi - lo)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// User-facing sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of a [`SampleStandard`] type (floats in `[0, 1)`).
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from a range.
    fn gen_range<T, Range: SampleRange<T>>(&mut self, range: Range) -> T {
        range.sample_from(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range: {p}");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i64 = rng.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f32 = rng.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    fn gen_float_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[rng.gen_range(0..8usize)] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "bucket count {c} far from uniform");
        }
    }
}
