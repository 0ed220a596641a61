#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! A minimal, dependency-free stand-in for the `proptest` property
//! testing crate, so the workspace's property tests run in a fully
//! offline environment.
//!
//! Provides exactly the surface the tests use: the [`proptest!`] item
//! macro, [`Strategy`] with `prop_map`, range and tuple strategies,
//! [`any`], `prop::collection::vec`, [`prop_oneof!`],
//! [`ProptestConfig::with_cases`], and the `prop_assert*` macros.
//!
//! Differences from real proptest: inputs are drawn from a fixed-seed
//! deterministic RNG (per test name and case index), there is no
//! shrinking, and assertion failures panic like ordinary `assert!`.

use std::marker::PhantomData;
use std::ops::Range;

/// Everything the tests import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Deterministic splitmix64 generator, seeded per (test, case).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds directly from a caller-chosen 64-bit seed (for harnesses
    /// that number their cases themselves, like simcheck's walks).
    pub fn from_seed(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09e667f3bcc909) // Avoid the all-zeros weak state.
    }

    /// Seeds from the test's name and the case index.
    pub fn for_case(name: &str, case: u32) -> Rng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Rng(h ^ ((case as u64) << 32 | 0x9e3779b9))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run-count configuration (`with_cases` is all the tests use).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut Rng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty strategy range");
                ((self.start as i128) + (rng.next_u64() as i128).rem_euclid(span)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut Rng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// Generates any value of a type (see [`Arbitrary`]).
pub struct Any<T>(PhantomData<T>);

/// Types with a canonical full-range generator.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut Rng) -> Self;
}

/// The `any::<T>()` strategy constructor.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut Rng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Object-safe strategy view, used by [`prop_oneof!`].
pub trait StrategyObj<V> {
    /// Draws one value through the object interface.
    fn generate_obj(&self, rng: &mut Rng) -> V;
}

impl<S: Strategy> StrategyObj<S::Value> for S {
    fn generate_obj(&self, rng: &mut Rng) -> S::Value {
        self.generate(rng)
    }
}

/// Uniform choice among boxed strategies of one value type.
pub struct Union<V> {
    arms: Vec<Box<dyn StrategyObj<V>>>,
}

impl<V> Union<V> {
    /// Builds a union; panics if `arms` is empty.
    pub fn new(arms: Vec<Box<dyn StrategyObj<V>>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut Rng) -> V {
        let idx = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[idx].generate_obj(rng)
    }
}

/// The `prop::` module the prelude exposes.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Rng, Strategy};
        use std::ops::Range;

        /// Generates `Vec`s with lengths drawn from `len` and elements
        /// from `elem`.
        pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, len }
        }

        /// The strategy behind [`vec()`].
        pub struct VecStrategy<S> {
            elem: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
                let n = self.len.generate(rng);
                (0..n).map(|_| self.elem.generate(rng)).collect()
            }
        }
    }
}

/// Minimises a failing input sequence, ddmin-style.
///
/// `still_fails` must return `true` when the candidate sequence still
/// reproduces the failure. Starting from `items` (which must fail),
/// chunks of decreasing size are removed greedily until no single
/// element can be dropped; the result is 1-minimal with respect to
/// element removal. This is the shrinking half the [`proptest!`] shim
/// itself omits, exposed directly for harnesses (like `simcheck
/// explore`) that shrink whole event schedules.
pub fn shrink_sequence<T: Clone, F: FnMut(&[T]) -> bool>(
    items: &[T],
    mut still_fails: F,
) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    debug_assert!(
        still_fails(&current),
        "shrink_sequence needs a failing input"
    );
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                shrunk = true;
                // Re-test from the same offset: the next chunk slid in.
            } else if candidate.is_empty() && still_fails(&candidate) {
                return candidate;
            } else {
                start = end;
            }
        }
        if !shrunk {
            if chunk == 1 {
                return current;
            }
            chunk = chunk.div_ceil(2).max(1);
        }
    }
}

/// Boolean property assertion (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality property assertion (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($strat) as Box<dyn $crate::StrategyObj<_>>),+])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::Rng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::Rng::for_case("bounds", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn determinism_per_case() {
        let gen = |case| {
            let mut rng = crate::Rng::for_case("det", case);
            Strategy::generate(&prop::collection::vec(0u32..100, 1..20), &mut rng)
        };
        assert_eq!(gen(3), gen(3));
        assert_ne!(gen(0), gen(1));
    }

    #[test]
    fn shrink_finds_the_minimal_culprit() {
        // Failure requires 13 and 77 both present, in order.
        let input: Vec<u32> = (0..100).collect();
        let fails = |xs: &[u32]| {
            let i = xs.iter().position(|&x| x == 13);
            let j = xs.iter().position(|&x| x == 77);
            matches!((i, j), (Some(i), Some(j)) if i < j)
        };
        let min = crate::shrink_sequence(&input, fails);
        assert_eq!(min, vec![13, 77]);
    }

    #[test]
    fn shrink_of_single_culprit_reaches_length_one() {
        let input = vec![5u8, 9, 5, 2, 9, 9];
        let min = crate::shrink_sequence(&input, |xs| xs.contains(&2));
        assert_eq!(min, vec![2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_expands_and_runs(xs in prop::collection::vec(any::<u8>(), 0..10), flip in any::<bool>()) {
            prop_assert!(xs.len() < 10);
            let _ = flip;
        }

        #[test]
        fn oneof_draws_every_arm(v in prop_oneof![0i32..10, 100i32..110]) {
            prop_assert!((0..10).contains(&v) || (100..110).contains(&v));
        }
    }
}
