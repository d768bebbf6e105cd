//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no network access and no crates.io registry,
//! so the workspace vendors the *subset* of proptest's API that its test
//! suites actually use: the [`proptest!`] macro, [`Strategy`] for numeric
//! ranges / tuples / mapped strategies, [`collection::vec`], `any::<bool>()`,
//! and the `prop_assert*` / `prop_assume!` macros.
//!
//! Semantics differ from real proptest in two deliberate ways:
//!
//! 1. **Deterministic generation.** Inputs are drawn from a fixed-seed
//!    xorshift stream keyed by the test name, so failures reproduce
//!    without a persistence file.
//! 2. **No shrinking.** A failing case panics with the assertion message;
//!    the deterministic stream makes the failing input re-derivable.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Result of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` — try another input.
    Reject,
    /// An assertion failed; the message is reported in the panic.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// Per-suite configuration (mirrors the fields the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` successful cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic generator used to sample strategies.
pub mod test_runner {
    /// xorshift64* stream; quality is ample for test-input generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream; a zero seed is remapped to a fixed constant.
        pub fn seed_from(seed: u64) -> Self {
            TestRng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
        }

        /// Seeds deterministically from a test name.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self::seed_from(h)
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform integer below `n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

use test_runner::TestRng;

/// A source of random test inputs.
///
/// Unlike real proptest there is no value tree or shrinking: a strategy
/// is just a deterministic sampler.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value from the strategy.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy`]'s `prop_map`.
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
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy`]'s `prop_flat_map`.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(i32, i64, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// Strategy producing any value of a type (only the types the workspace
/// needs).
pub trait Arbitrary: Sized {
    /// The strategy `any::<Self>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// Builds that strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Uniform `bool` strategy.
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Something usable as a vector-length specification.
    pub trait SizeSpec {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeSpec for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeSpec for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty length range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `vec(element, len)` — a `Vec` whose length is drawn from `len`.
    pub fn vec<S: Strategy, L: SizeSpec>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeSpec> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The names test files import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

/// Declares a block of property tests.
///
/// Each `#[test] fn name(pat in strategy, ...) { body }` item becomes a
/// normal test that runs the body for `cases` deterministic inputs
/// (default 64, overridable with a leading
/// `#![proptest_config(ProptestConfig::with_cases(n))]`).
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items!{ cases = ($cfg).cases ; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items!{ cases = $crate::ProptestConfig::default().cases ; $($rest)* }
    };
}

/// Internal item-by-item expansion of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( cases = $cases:expr ; ) => {};
    ( cases = $cases:expr ;
      $(#[$meta:meta])*
      fn $name:ident( $( $arg:pat_param in $strat:expr ),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cases = ($cases) as usize;
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let mut passed = 0usize;
            let mut attempts = 0usize;
            while passed < cases && attempts < cases * 20 {
                attempts += 1;
                $( let $arg = <_ as $crate::Strategy>::sample(&($strat), &mut rng); )+
                let outcome = (|| -> $crate::TestCaseResult {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::TestCaseError::Reject) => continue,
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest case {} failed: {}", attempts, msg)
                    }
                }
            }
            assert!(
                passed >= cases.min(1),
                "proptest {}: all {} generated cases were rejected by prop_assume!",
                stringify!($name),
                attempts
            );
        }
        $crate::__proptest_items!{ cases = $cases ; $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Discards the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = (1usize..=8).sample(&mut rng);
            assert!((1..=8).contains(&v));
            let f = (-2.0f32..3.0).sample(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (-15i32..=15).sample(&mut rng);
            assert!((-15..=15).contains(&i));
        }
    }

    #[test]
    fn vec_strategy_respects_len() {
        let mut rng = crate::test_runner::TestRng::for_test("vec");
        let s = crate::collection::vec(0.0f64..1.0, 3..10);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((3..10).contains(&v.len()));
        }
        let exact = crate::collection::vec(0u64..5, 4usize);
        assert_eq!(exact.sample(&mut rng).len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_rejects(a in 0u64..100, flip in any::<bool>()) {
            prop_assume!(a != 7);
            prop_assert!(a < 100);
            prop_assert_eq!(flip, flip);
        }
    }

    proptest! {
        #[test]
        fn tuple_and_flat_map_compose(p in (1usize..=4, 1usize..=4).prop_flat_map(|(r, c)| {
            crate::collection::vec(0.0f32..1.0, r * c).prop_map(move |v| (r, c, v))
        })) {
            let (r, c, v) = p;
            prop_assert_eq!(v.len(), r * c);
        }
    }
}
