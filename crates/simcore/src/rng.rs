//! Deterministic randomness for simulations.
//!
//! All stochastic choices in a run flow through a single seeded [`SimRng`],
//! so a run is exactly reproducible from its seed. The implementation is a small, self-contained SplitMix64 /
//! xoshiro256++ pair rather than a trait-object tangle: benchmark inner
//! loops draw from it heavily.

/// A seedable pseudo-random number generator.
///
/// The generator is xoshiro256++ seeded via SplitMix64, which has good
/// statistical quality for simulation purposes and is trivially portable.
///
/// # Examples
///
/// ```
/// use simcore::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed.
    ///
    /// Any seed (including zero) is valid; the internal state is expanded
    /// with SplitMix64 so similar seeds do not produce correlated streams.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a float uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a value uniformly distributed in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
        // Lemire-style rejection-free-enough mapping; bias is negligible
        // for the range sizes used in the simulator.
        let span = hi - lo;
        lo + (self.next_u64() % span)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Draws from an exponential distribution with the given mean.
    ///
    /// Used for Poisson inter-arrival times in open-loop load generation.
    /// A non-positive or NaN mean yields `0.0`. The result depends on the
    /// platform libm's `ln`, so it is bit-reproducible only across hosts
    /// whose `ln` rounds alike; `tests/rng_pin.rs` pins the first draws
    /// and fails on a host where they differ.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean.is_nan() || mean <= 0.0 {
            return 0.0;
        }
        // Inverse-CDF; `1 - u` avoids ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::new(4);
        for _ in 0..10_000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        SimRng::new(0).gen_range(5, 5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(5);
        let n = 100_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let got = sum / n as f64;
        assert!(
            (got - mean).abs() < 0.1,
            "sample mean {got} far from {mean}"
        );
    }

    #[test]
    fn exp_degenerate_means() {
        let mut r = SimRng::new(5);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-1.0), 0.0);
        assert_eq!(r.exp(f64::NAN), 0.0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(6);
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut r = SimRng::new(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }
}
