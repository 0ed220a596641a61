//! Measurement primitives: exact quantiles, and the per-interval rate
//! sampler used for the paper's reply-rate figures (average, minimum
//! and maximum rate over one-second windows).

use crate::time::{SimDuration, SimTime};

/// Exact quantiles over a stored sample set.
///
/// Stores every sample (the benchmark collects at most tens of thousands
/// of latencies per run, which is cheap) and sorts lazily on query.
///
/// # Examples
///
/// ```
/// use simcore::stats::Quantiles;
///
/// let mut q = Quantiles::new();
/// for x in 1..=100 {
///     q.add(x as f64);
/// }
/// assert_eq!(q.median(), Some(50.5));
/// assert_eq!(q.quantile(0.0), Some(1.0));
/// assert_eq!(q.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    xs: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty collector.
    pub fn new() -> Quantiles {
        Quantiles {
            xs: Vec::new(),
            sorted: true,
        }
    }

    /// Adds a sample. NaN samples are ignored.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.xs.push(x);
        self.sorted = false;
    }

    /// Returns the number of samples.
    pub fn count(&self) -> usize {
        self.xs.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.xs
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("invariant: NaN filtered on add"));
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (linear interpolation between order
    /// statistics), or `None` if empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.xs.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.xs[lo] * (1.0 - frac) + self.xs[hi] * frac)
    }

    /// Returns the median, or `None` if empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Returns the mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.xs.is_empty() {
            None
        } else {
            Some(self.xs.iter().sum::<f64>() / self.xs.len() as f64)
        }
    }
}

/// Counts events into fixed-length time windows and reports the
/// per-window rate statistics the paper plots: average reply rate with
/// standard deviation, plus per-run minimum and maximum window rates.
///
/// A window with zero events still counts (that is precisely the
/// "minimum response rate approaches zero" starvation signal in Figs. 6
/// and 8), so [`RateSampler::finish`] closes out all windows up to the
/// provided end time.
#[derive(Debug, Clone)]
pub struct RateSampler {
    window: SimDuration,
    start: SimTime,
    current_window: u64,
    current_count: u64,
    rates: Vec<f64>,
}

impl RateSampler {
    /// Creates a sampler with the given window length, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(start: SimTime, window: SimDuration) -> RateSampler {
        assert!(!window.is_zero(), "window must be non-zero");
        RateSampler {
            window,
            start,
            current_window: 0,
            current_count: 0,
            rates: Vec::new(),
        }
    }

    fn window_of(&self, t: SimTime) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() / self.window.as_nanos()
    }

    fn close_until(&mut self, w: u64) {
        let per_sec = 1e9 / self.window.as_nanos() as f64;
        while self.current_window < w {
            self.rates.push(self.current_count as f64 * per_sec);
            self.current_count = 0;
            self.current_window += 1;
        }
    }

    /// Records one event at time `t`.
    ///
    /// Events must be recorded in non-decreasing time order; an event
    /// earlier than the current window is counted in the current window.
    pub fn record(&mut self, t: SimTime) {
        let w = self.window_of(t);
        if w > self.current_window {
            self.close_until(w);
        }
        self.current_count += 1;
    }

    /// Closes all windows up to `end` and returns per-window rates in
    /// events per second.
    pub fn finish(mut self, end: SimTime) -> Vec<f64> {
        let w = self.window_of(end);
        self.close_until(w);
        // The final (partial) window is dropped: partial windows would
        // understate the rate and pollute the min statistic.
        self.rates
    }
}

/// Summary of per-window rates: the numbers plotted in Figs. 4–9/11–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSummary {
    /// Mean of the window rates.
    pub avg: f64,
    /// Standard deviation of the window rates.
    pub stddev: f64,
    /// Smallest window rate.
    pub min: f64,
    /// Largest window rate.
    pub max: f64,
}

impl RateSummary {
    /// Summarizes a slice of per-window rates.
    ///
    /// Returns an all-zero summary for an empty slice.
    pub fn of(rates: &[f64]) -> RateSummary {
        if rates.is_empty() {
            return RateSummary {
                avg: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        // Welford's running mean and squared-deviation sum, in one pass.
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &x) in rates.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        RateSummary {
            avg: mean,
            stddev: (m2 / rates.len() as f64).sqrt(),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_summary_moments() {
        let s = RateSummary::of(&[1.0, 3.0]);
        assert_eq!(s.avg, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.stddev, 1.0);
        assert_eq!(RateSummary::of(&[5.0]).stddev, 0.0);
    }

    #[test]
    fn quantiles_median_even_odd() {
        let mut q = Quantiles::new();
        for x in [5.0, 1.0, 3.0] {
            q.add(x);
        }
        assert_eq!(q.median(), Some(3.0));
        q.add(7.0);
        assert_eq!(q.median(), Some(4.0));
    }

    #[test]
    fn quantiles_empty_and_nan() {
        let mut q = Quantiles::new();
        assert_eq!(q.median(), None);
        q.add(f64::NAN);
        assert_eq!(q.count(), 0);
        assert_eq!(q.mean(), None);
    }

    #[test]
    fn quantiles_interpolates() {
        let mut q = Quantiles::new();
        for x in [0.0, 10.0] {
            q.add(x);
        }
        assert_eq!(q.quantile(0.25), Some(2.5));
    }

    #[test]
    fn rate_sampler_counts_windows() {
        let w = SimDuration::from_secs(1);
        let mut r = RateSampler::new(SimTime::ZERO, w);
        // 3 events in second 0, none in second 1, 2 in second 2.
        r.record(SimTime::from_millis(100));
        r.record(SimTime::from_millis(200));
        r.record(SimTime::from_millis(900));
        r.record(SimTime::from_millis(2_100));
        r.record(SimTime::from_millis(2_200));
        let rates = r.finish(SimTime::from_secs(3));
        assert_eq!(rates, vec![3.0, 0.0, 2.0]);
        let s = RateSummary::of(&rates);
        assert!((s.avg - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn rate_sampler_drops_partial_final_window() {
        let w = SimDuration::from_secs(1);
        let mut r = RateSampler::new(SimTime::ZERO, w);
        r.record(SimTime::from_millis(500));
        let rates = r.finish(SimTime::from_millis(1_500));
        assert_eq!(rates, vec![1.0]);
    }

    #[test]
    fn rate_sampler_sub_second_window_scales_to_per_sec() {
        let w = SimDuration::from_millis(500);
        let mut r = RateSampler::new(SimTime::ZERO, w);
        r.record(SimTime::from_millis(100)); // window 0
        r.record(SimTime::from_millis(400)); // window 0
        let rates = r.finish(SimTime::from_millis(1_000));
        assert_eq!(rates, vec![4.0, 0.0]);
    }

    #[test]
    fn rate_summary_empty() {
        let s = RateSummary::of(&[]);
        assert_eq!(s.avg, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }
}
