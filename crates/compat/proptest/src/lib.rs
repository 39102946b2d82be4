//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the [`proptest!`] macro with an optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]` header, range and
//! tuple strategies, [`collection::vec`], [`any`], string strategies (a
//! `&str` is interpreted as "arbitrary printable string", ignoring the exact
//! regex), and the `prop_assert*` macros. Failing inputs are reported with
//! their debug representation; shrinking is not implemented.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of random test inputs.
pub trait Strategy {
    /// The value type produced.
    type Value: std::fmt::Debug;
    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8, i64, i32, f64, f32);

/// Marker for [`any`]-generated values.
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with a canonical "arbitrary" strategy.
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<f32>() * 2e6 - 1e6
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<f64>() * 2e6 - 1e6
    }
}

/// The canonical strategy for `T` (`any::<u8>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// A `&str` used as a strategy produces arbitrary printable strings (the
/// regex itself is not interpreted beyond "some unicode-ish text up to 64
/// chars" — every use in this workspace is a `\PC{0,n}`-style pattern).
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        let len = rng.gen_range(0usize..64);
        (0..len)
            .map(|_| {
                // Mix ASCII printable with a few multi-byte code points so
                // UTF-8 round-trips are really exercised.
                match rng.gen_range(0usize..10) {
                    0 => 'é',
                    1 => '日',
                    2 => '🦀',
                    _ => (0x20u8 + rng.gen_range(0u8..0x5f)) as char,
                }
            })
            .collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident/$idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A / 0, B / 1),
    (A / 0, B / 1, C / 2),
    (A / 0, B / 1, C / 2, D / 3),
    (A / 0, B / 1, C / 2, D / 3, E / 4),
    (A / 0, B / 1, C / 2, D / 3, E / 4, F / 5),
);

pub mod collection {
    //! Collection strategies.

    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(std::ops::Range<usize>);

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self(exact..exact + 1)
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            Self(r)
        }
    }

    /// Strategy producing `Vec`s with element strategy `S` and a length drawn
    /// from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `proptest::collection::vec(element, 0..n)` /
    /// `proptest::collection::vec(element, exact)`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let range = self.len.0.clone();
            let n = if range.end <= range.start + 1 {
                range.start
            } else {
                rng.gen_range(range)
            };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Error carried by `prop_assert*` failures.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// Result type of one property-test case body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runs `cases` random executions of `body`, reporting the first failure.
///
/// Each case gets a deterministic RNG derived from the property name so runs
/// are reproducible; panics inside the body propagate with the failing input
/// already printed by the generated harness.
pub fn run_cases(name: &str, cases: u32, mut body: impl FnMut(&mut StdRng, u32)) {
    // FNV-1a over the property name: stable per-property seed.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x1000_0000_01b3);
    }
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed ^ ((case as u64) << 32 | 0x9e37));
        body(&mut rng, case);
    }
}

pub mod prelude {
    //! One-stop imports for property tests.

    pub use crate::collection;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{Arbitrary, ProptestConfig, Strategy, TestCaseError, TestCaseResult};
    pub use rand::rngs::StdRng;
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Declares property tests.
///
/// Supported grammar (the subset of upstream proptest used here):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))] // optional
///     #[test]
///     fn my_property(x in 0usize..10, v in collection::vec(-1.0f32..1.0, 1..40)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            #[test]
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), cfg.cases, |rng, _case| {
                    $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        $body
                    }));
                    if let Err(panic) = result {
                        eprintln!("proptest case failed with inputs: {inputs}");
                        std::panic::resume_unwind(panic);
                    }
                });
            }
        )*
    };
    (
        $(
            #[test]
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                #[test]
                fn $name($($arg in $strat),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_respect_bounds(x in 3usize..17, f in -2.0f32..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_strategy_respects_len(v in collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn tuple_strategies_compose(t in (0u64..10, 0.0f64..1.0, collection::vec(any::<u8>(), 0..3))) {
            prop_assert!(t.0 < 10);
            prop_assert!((0.0..1.0).contains(&t.1));
            prop_assert!(t.2.len() < 3);
        }

        #[test]
        fn string_strategy_is_valid_utf8(s in "\\PC{0,64}") {
            prop_assert!(s.chars().count() <= 64);
        }
    }

    #[test]
    fn default_config_runs() {
        let mut count = 0u32;
        crate::run_cases("counter", 10, |_rng, _case| count += 1);
        assert_eq!(count, 10);
    }
}
