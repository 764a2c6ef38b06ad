//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the subset of the proptest API the `mgk` test suite
//! uses: the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_shuffle` / `boxed`, range and tuple and `Vec<Strategy>` strategies,
//! [`collection::vec`], [`prelude::Just`], [`prelude::ProptestConfig`] and
//! the [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Unlike real proptest there is **no shrinking**: a failing case panics
//! with the iteration's seed so it can be reproduced. Inputs are generated
//! from a deterministic RNG seeded from the test function's name, which
//! keeps the tier-1 test suite reproducible run to run.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng as _, SampleRange, SeedableRng};

pub mod collection;

/// Runtime configuration of a `proptest!` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic per-test RNG handed to strategies by the [`proptest!`]
/// macro.
pub struct TestRunner {
    rng: StdRng,
    seed: u64,
}

impl TestRunner {
    /// Seed a runner deterministically from a test name.
    pub fn deterministic(test_name: &str) -> Self {
        // FNV-1a over the name gives a stable per-test seed
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        TestRunner::from_seed(hash)
    }

    /// Seed a runner from an explicit seed (e.g. one printed by a failing
    /// `proptest!` run, to replay it).
    pub fn from_seed(seed: u64) -> Self {
        TestRunner { rng: StdRng::seed_from_u64(seed), seed }
    }

    /// The seed this runner started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The underlying RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Transform generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Use generated values to pick a follow-up strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Randomly permute the generated collection.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: ShuffleValue,
    {
        Shuffle { inner: self }
    }

    /// Type-erase the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, runner: &mut TestRunner) -> S::Value {
        (**self).generate(runner)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, runner: &mut TestRunner) -> T::Value {
        (self.f)(self.inner.generate(runner)).generate(runner)
    }
}

/// Collections that [`Strategy::prop_shuffle`] can permute.
pub trait ShuffleValue {
    /// Shuffle in place.
    fn shuffle_value(&mut self, rng: &mut StdRng);
}

impl<T> ShuffleValue for Vec<T> {
    fn shuffle_value(&mut self, rng: &mut StdRng) {
        use rand::seq::SliceRandom;
        self.as_mut_slice().shuffle(rng);
    }
}

/// See [`Strategy::prop_shuffle`].
pub struct Shuffle<S> {
    inner: S,
}

impl<S> Strategy for Shuffle<S>
where
    S: Strategy,
    S::Value: ShuffleValue,
{
    type Value = S::Value;
    fn generate(&self, runner: &mut TestRunner) -> S::Value {
        let mut v = self.inner.generate(runner);
        v.shuffle_value(runner.rng());
        v
    }
}

/// Type-erased strategy (cheaply clonable).
pub struct BoxedStrategy<T>(std::rc::Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

trait DynStrategy<T> {
    fn generate_dyn(&self, runner: &mut TestRunner) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, runner: &mut TestRunner) -> S::Value {
        self.generate(runner)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        self.0.generate_dyn(runner)
    }
}

/// Strategy producing a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                self.clone().sample_from(runner.rng())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                self.clone().sample_from(runner.rng())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(runner),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// A `Vec` of strategies generates a `Vec` of values (one per strategy).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        self.iter().map(|s| s.generate(runner)).collect()
    }
}

/// Number-of-elements specification for [`collection::vec`].
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        if self.lo >= self.hi_inclusive {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi_inclusive)
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi_inclusive: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end || r.start == 0, "empty size range");
        SizeRange { lo: r.start, hi_inclusive: r.end.saturating_sub(1) }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
    }
}

/// See [`collection::vec`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
        let n = self.size.sample(runner.rng());
        (0..n).map(|_| self.element.generate(runner)).collect()
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests.
///
/// Supports the subset of the real macro's grammar used in this workspace:
/// an optional leading `#![proptest_config(..)]`, then test functions whose
/// arguments are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr); $($(#[$meta:meta])* fn $name:ident ($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut runner = $crate::TestRunner::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let ($($pat,)+) =
                        ($($crate::Strategy::generate(&$strategy, &mut runner),)+);
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || $body));
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest case {case} of {} failed in {} (runner seed {:#018x}; \
                             replay with TestRunner::from_seed and generate cases 0..={case} \
                             in order)",
                            config.cases,
                            stringify!($name),
                            runner.seed(),
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_collections_generate() {
        let mut runner = crate::TestRunner::deterministic("shim_smoke");
        let strat = (1usize..5, 0.0f32..1.0, crate::collection::vec(0u8..4, 3usize));
        for _ in 0..100 {
            let (n, f, v) = strat.generate(&mut runner);
            assert!((1..5).contains(&n));
            assert!((0.0..1.0).contains(&f));
            assert_eq!(v.len(), 3);
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    #[test]
    fn flat_map_shuffle_and_boxed_compose() {
        let mut runner = crate::TestRunner::deterministic("shim_compose");
        let strat = (2usize..6).prop_flat_map(|n| {
            let perm = Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle();
            let nested: Vec<BoxedStrategy<usize>> = (0..n).map(|v| (0..v + 1).boxed()).collect();
            (Just(n), perm, nested)
        });
        for _ in 0..100 {
            let (n, perm, nested) = strat.generate(&mut runner);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u32).collect::<Vec<u32>>());
            assert_eq!(nested.len(), n);
            for (v, &x) in nested.iter().enumerate() {
                assert!(x <= v);
            }
        }
    }

    #[test]
    fn deterministic_across_runners_with_same_name() {
        let strat = crate::collection::vec(0u64..1_000_000, 8usize);
        let a = strat.generate(&mut crate::TestRunner::deterministic("same"));
        let b = strat.generate(&mut crate::TestRunner::deterministic("same"));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..100, (a, b) in (0u8..10, 0u8..10)) {
            prop_assert!(x < 100);
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(x, x);
        }
    }
}
