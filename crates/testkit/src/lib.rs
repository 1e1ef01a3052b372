//! # rfd-testkit — a dependency-free property-testing harness
//!
//! A minimal, std-only re-implementation of the subset of the
//! [proptest](https://docs.rs/proptest) API this workspace uses. The
//! workspace aliases it as `proptest` (Cargo `package =` rename), so the
//! property-test files keep their upstream-idiomatic form while building
//! offline with zero external dependencies.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports its case index and the
//!   harness's deterministic seed instead of a minimised input;
//! * **deterministic scheduling** — cases derive from a fixed per-test
//!   seed (FNV-1a of the test name), so failures always reproduce;
//! * **smaller default case count** (64) — the simulations behind these
//!   properties are expensive and the harness runs on every `cargo test`.
//!
//! Supported surface: `proptest!` (with optional
//! `#![proptest_config(...)]`), integer/float range strategies, tuples
//! up to 8 elements, [`Just`], [`any`], [`collection::vec`],
//! `prop_oneof!`, `prop_map`, `prop_filter`, `prop_filter_map`,
//! `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`.

#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, collection, prop, Just, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Mirror of the `proptest::prelude::prop` module alias.
pub mod prop {
    pub use crate::collection;
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic generator backing case generation (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `u64` in `[0, n)`; unbiased.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestRng::below: empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n || low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------

/// A generator of values of one type. Object-safe; the combinators are
/// `Sized`-gated so `Box<dyn Strategy<Value = V>>` works (`prop_oneof!`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Discards values failing `pred` (resamples; panics after 10 000
    /// consecutive rejections — tighten the source strategy instead).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Combined filter + map: keeps `Some` results.
    fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            reason,
            f,
        }
    }

    /// Boxes the strategy (API-compatibility helper).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated strategy, as produced by [`Strategy::boxed`].
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        (**self).sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 10000 samples", self.reason);
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S, U, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<U>,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map `{}` rejected 10000 samples", self.reason);
    }
}

/// Uniform choice among boxed alternatives; built by `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<V> Union<V> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

// Integer ranges. `Range<T>` and `RangeInclusive<T>` for the primitive
// integers, sampled without bias.
macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = if span > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    rng.below(span as u64) as u128
                };
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let off = if span > u64::MAX as u128 {
                    rng.next_u64() as u128
                } else {
                    rng.below(span as u64) as u128
                };
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start + (rng.unit_f64() as $t) * (self.end - self.start);
                if v >= self.end { self.start } else { v }
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

// Tuples of strategies sample element-wise, in order.
macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Types with a canonical full-domain strategy.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `vec(element, len_range)` — a vector with length drawn from
    /// `len_range` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion; the test fails.
    Fail(String),
    /// The case was vetoed by `prop_assume!`; another case is drawn.
    Reject(String),
}

/// Drives one property: draws inputs and runs the body until `cases`
/// successes, a failure, or the rejection budget is exhausted. The
/// per-test seed is derived from the test name, so runs are stable.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    // A stable per-test seed derived from the test name.
    let seed = rfd_snap::fnv1a(name.as_bytes());
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(16).max(256);
    let mut attempt = 0u64;
    while passed < config.cases {
        let mut rng = TestRng::from_seed(seed ^ attempt.wrapping_mul(0x2545_f491_4f6c_dd1d));
        attempt += 1;
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "property `{name}`: {rejected} rejected cases \
                         (prop_assume! too strict), only {passed}/{} passed",
                        config.cases
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property `{name}` failed at case #{passed} \
                     (attempt {attempt}, seed {seed:#x}):\n{msg}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests; mirrors `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_cases($cfg, stringify!($name), |__testkit_rng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __testkit_rng);)+
                (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    Ok(())
                })()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            vec![$(::std::boxed::Box::new($arm)),+];
        $crate::Union::new(arms)
    }};
}

/// Fallible assertion inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fallible equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Fallible inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}` (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Vetoes the current case; the harness draws a replacement.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = (-3i64..4).sample(&mut rng);
            assert!((-3..4).contains(&i));
        }
    }

    #[test]
    fn vec_lengths_honour_range() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = collection::vec(0u64..10, 1..5).sample(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = TestRng::from_seed(3);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn map_filter_compose() {
        let s = (0u32..100)
            .prop_filter("even", |v| v % 2 == 0)
            .prop_map(|v| v + 1);
        let mut rng = TestRng::from_seed(4);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng) % 2, 1);
        }
    }

    proptest! {
        #[test]
        fn harness_runs_the_macro_form(x in 0u32..10, flips in collection::vec(any::<bool>(), 1..4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(flips.len(), flips.len());
            prop_assume!(x != 99);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_panic_with_context() {
        run_cases(ProptestConfig::with_cases(2), "always_fails", |_| {
            Err(TestCaseError::Fail("boom".into()))
        });
    }

    #[test]
    fn runs_are_deterministic_per_name() {
        let mut first = Vec::new();
        run_cases(ProptestConfig::with_cases(5), "det", |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second = Vec::new();
        run_cases(ProptestConfig::with_cases(5), "det", |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
    }
}
