//! Property-based tests for the statistics primitives.

use proptest::prelude::*;
use simcore::stats::{Quantiles, RateSampler, RateSummary};
use simcore::time::{SimDuration, SimTime};

proptest! {
    /// Quantiles are monotone in q and bounded by the extrema.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut q = Quantiles::new();
        for &x in &xs {
            q.add(x);
        }
        let lo = q.quantile(0.0).unwrap();
        let q25 = q.quantile(0.25).unwrap();
        let med = q.median().unwrap();
        let q75 = q.quantile(0.75).unwrap();
        let hi = q.quantile(1.0).unwrap();
        prop_assert!(lo <= q25 && q25 <= med && med <= q75 && q75 <= hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
    }

    /// Total events recorded equals the sum over window rates times the
    /// window length (events are conserved, modulo the dropped partial
    /// final window).
    #[test]
    fn rate_sampler_conserves_events(ts in prop::collection::vec(0u64..10_000_000_000u64, 0..500)) {
        let mut ts = ts;
        ts.sort_unstable();
        let window = SimDuration::from_secs(1);
        let mut r = RateSampler::new(SimTime::ZERO, window);
        for &t in &ts {
            r.record(SimTime::from_nanos(t));
        }
        let end = SimTime::from_secs(11); // Past every event's window.
        let rates = r.finish(end);
        let total: f64 = rates.iter().sum::<f64>() * window.as_secs_f64();
        prop_assert!((total - ts.len() as f64).abs() < 1e-6);
        // Summary never exceeds bounds.
        let s = RateSummary::of(&rates);
        prop_assert!(s.min <= s.avg && s.avg <= s.max);
    }
}
