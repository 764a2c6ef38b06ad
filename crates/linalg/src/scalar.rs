//! The [`Scalar`] abstraction behind the solver's precision axis.
//!
//! The paper's GPU solver iterates in single precision with `f64`
//! accumulation in the reductions; the validation paths want the *same*
//! iteration structure in full double precision so that the `f64` solve is
//! a meaningful oracle for the `f32` one (mixed-precision iterative
//! refinement makes the identical argument: the low- and high-precision
//! paths must share the iteration, not just the answer). [`Scalar`] is the
//! sealed trait that makes the whole operator/solver surface generic over
//! that choice:
//!
//! * `f32` — the serving precision. Reductions accumulate in the associated
//!   [`Accum`](Scalar::Accum) type `f64`, exactly as the hand-written `f32`
//!   kernels always did.
//! * `f64` — the validation precision. Operators built from `f32` operands
//!   widen each factor *before* multiplying, so the `f64` instantiation
//!   sees the true product of the stored operands, not a rounded one.
//!
//! [`Precision`] is the runtime-value mirror of the compile-time choice:
//! configuration structs carry a `Precision` and dispatch to the `f32` or
//! `f64` instantiation of the generic surface.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    /// Seals [`super::Scalar`]: the solver surface is generic over exactly
    /// the two IEEE precisions the system supports.
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// The element type of the operator/solver surface: `f32` (serving) or
/// `f64` (validation). Sealed — see the module docs.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Debug
    + Display
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// Widened accumulator used by the reductions (`dot`, `norm_sq`): `f64`
    /// for both precisions, so the `f32` instantiation keeps the
    /// `f64`-accumulating reductions the conjugate gradient recurrences
    /// rely on.
    type Accum: Copy
        + Default
        + PartialOrd
        + Send
        + Sync
        + Debug
        + Add<Output = Self::Accum>
        + AddAssign
        + Mul<Output = Self::Accum>;

    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Bytes per element, used by the memory-traffic accounting.
    const BYTES: u64;
    /// Display name of the precision (`"f32"` / `"f64"`).
    const NAME: &'static str;
    /// The [`Precision`] policy value that dispatches to this
    /// instantiation.
    const PRECISION: Precision;

    /// Widen (or keep) an `f32` operand at this precision. Operators whose
    /// data is stored in `f32` convert each factor through this *before*
    /// multiplying, so the `f64` instantiation multiplies exactly.
    fn from_f32(v: f32) -> Self;
    /// Narrow (or keep) an `f64` value at this precision.
    fn from_f64(v: f64) -> Self;
    /// Narrow to `f32` (identity for `f32`).
    fn to_f32(self) -> f32;
    /// Widen to `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// Lift into the accumulator type.
    fn widen(self) -> Self::Accum;
    /// Read an accumulator back as `f64` (exact: `Accum` is `f64`).
    fn accum_to_f64(acc: Self::Accum) -> f64;
    /// Whether the value is finite.
    fn is_finite(self) -> bool;
}

impl Scalar for f32 {
    type Accum = f64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: u64 = 4;
    const NAME: &'static str = "f32";
    const PRECISION: Precision = Precision::F32;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn widen(self) -> f64 {
        self as f64
    }
    #[inline]
    fn accum_to_f64(acc: f64) -> f64 {
        acc
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

impl Scalar for f64 {
    type Accum = f64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: u64 = 8;
    const NAME: &'static str = "f64";
    const PRECISION: Precision = Precision::F64;

    #[inline]
    fn from_f32(v: f32) -> Self {
        v as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f32(self) -> f32 {
        self as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn widen(self) -> f64 {
        self
    }
    #[inline]
    fn accum_to_f64(acc: f64) -> f64 {
        acc
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

/// Runtime precision policy: which [`Scalar`] instantiation of the solver
/// surface a configurable component should dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Single-precision iteration with `f64`-accumulating reductions — the
    /// paper's GPU arithmetic and the serving default.
    #[default]
    F32,
    /// Double-precision iteration over the same (f32-stored) operands — the
    /// validation oracle, sharing the exact iteration structure of the
    /// `f32` path.
    F64,
}

impl Precision {
    /// Display name (`"f32"` / `"f64"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => f32::NAME,
            Precision::F64 => f64::NAME,
        }
    }

    /// The precision selected by the `MGK_TEST_PRECISION` environment
    /// variable (`"f32"` / `"f64"`, case-insensitive), or
    /// [`Precision::F32`] when unset. A value that is set but names neither
    /// panics: a typo must not leave a suite silently testing
    /// `f32` while its job title says otherwise.
    ///
    /// This is the env-gated test-harness hook: `SolverConfig::default()`
    /// consults it, so running a solver test suite under
    /// `MGK_TEST_PRECISION=f64` exercises the entire default-configured
    /// solve path at the validation precision without touching any test.
    /// The variable is read once and cached for the lifetime of the
    /// process.
    pub fn from_env() -> Precision {
        static CACHED: std::sync::OnceLock<Precision> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| match std::env::var_os("MGK_TEST_PRECISION") {
            None => Precision::F32,
            Some(value) => value
                .to_str()
                .and_then(Precision::parse)
                .unwrap_or_else(|| panic!("MGK_TEST_PRECISION={value:?} is not one of f32, f64")),
        })
    }

    /// The precision [`name`](Self::name)d by `text`, case-insensitively.
    fn parse(text: &str) -> Option<Precision> {
        [Precision::F32, Precision::F64]
            .into_iter()
            .find(|precision| text.eq_ignore_ascii_case(precision.name()))
    }
}

impl Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_widens_products_exactly_under_f64() {
        // the factor-wise widening contract: f64 sees the true product
        let (a, b) = (0.1f32, 0.3f32);
        let narrow = <f32 as Scalar>::from_f32(a) * <f32 as Scalar>::from_f32(b);
        let wide = <f64 as Scalar>::from_f32(a) * <f64 as Scalar>::from_f32(b);
        assert_eq!(narrow, a * b);
        assert_eq!(wide, a as f64 * b as f64);
        assert!((narrow as f64 - wide).abs() > 0.0, "0.1·0.3 rounds differently in f32");
    }

    #[test]
    fn harness_precision_names_parse_exactly() {
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("F64"), Some(Precision::F64));
        for typo in ["", "fp64", "double", "f64 ", " refined", "refined"] {
            assert_eq!(Precision::parse(typo), None, "{typo:?} must not fall back to a default");
        }
    }

    #[test]
    fn constants_and_conversions_round_trip() {
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f32(1.5).to_f32(), 1.5);
        assert_eq!(<f32 as Scalar>::accum_to_f64(2.0f32.widen()), 2.0);
        assert!(<f64 as Scalar>::ONE.is_finite());
        assert!(!f32::from_f64(f64::INFINITY).is_finite());
    }

    #[test]
    fn precision_policy_reports_its_instantiation() {
        assert_eq!(Precision::F32.name(), "f32");
        assert_eq!(Precision::F64.to_string(), "f64");
        assert_eq!(Precision::default(), Precision::F32);
    }
}
