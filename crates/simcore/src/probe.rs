//! The cross-crate probe layer: a metric registry every subsystem
//! records into, plus snapshot rendering for reports.
//!
//! Three metric kinds cover the paper's internal quantities:
//!
//! * **counters** — monotonic event counts (driver polls, RT-signal
//!   overflows);
//! * **gauges** — instantaneous levels with a high-water mark (RT queue
//!   depth, interest-table size);
//! * **histograms** — log2-bucketed value distributions (per-syscall
//!   simulated latency, event batch sizes).
//!
//! Metrics are keyed by `&'static str` so a record is one branch-free
//! map update, and stored in `BTreeMap`s so iteration — and therefore
//! every rendered snapshot — is deterministic. Two identical seeded runs
//! produce byte-identical snapshots.
//!
//! # Examples
//!
//! ```
//! use simcore::probe::MetricRegistry;
//!
//! let mut probe = MetricRegistry::new();
//! probe.inc("devpoll.scans");
//! probe.gauge_set("rtsig.queue_depth", 7);
//! probe.observe("syscall_ns.read", 2_300);
//! let snap = probe.snapshot();
//! assert_eq!(snap.counter("devpoll.scans"), 1);
//! assert!(snap.to_text().contains("rtsig.queue_depth"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::fingerprint::Fnv;

/// Highest log2 bucket index: values up to `u64::MAX` land in bucket 64.
pub const HIST_MAX_BUCKET: usize = 64;

/// A level with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Current value.
    pub value: u64,
    /// Largest value ever set.
    pub high_water: u64,
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`, so `u64::MAX` lands in bucket [`HIST_MAX_BUCKET`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; HIST_MAX_BUCKET + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_MAX_BUCKET + 1],
        }
    }
}

/// The log2 bucket index of a value.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (u64::BITS - value.leading_zeros()) as usize
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(index: usize) -> u64 {
    if index <= 1 {
        index as u64
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in the bucket with the given index.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets
    /// by upper-bound interpolation: the target rank is located in its
    /// bucket, then the estimate interpolates linearly from the bucket's
    /// lower bound toward its upper bound (clamped to the observed
    /// min/max). Exact values are lost to bucketing, so this is an
    /// estimate with at most one-bucket (2×) error — plenty for p50/p90/
    /// p99 tables.
    pub fn quantile_est(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = bucket_lo(i).max(self.min);
                let hi = if i >= HIST_MAX_BUCKET {
                    u64::MAX
                } else {
                    bucket_lo(i + 1).saturating_sub(1)
                }
                .min(self.max);
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * hi.saturating_sub(lo) as f64;
                return (est as u64).clamp(lo, hi);
            }
            cum += c;
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), c))
            .collect()
    }
}

/// The registry all subsystems record into.
///
/// Owned by the simulated kernel and reachable from every syscall and
/// device path; end-of-run folding merges counters kept elsewhere (the
/// network stack, server metrics) before a snapshot is taken.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge, updating its high-water mark.
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        let g = self.gauges.entry(name).or_default();
        g.value = value;
        g.high_water = g.high_water.max(value);
    }

    /// Current gauge state.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    /// Histogram access (None if never touched).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Clears every metric.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
    }

    /// Takes an immutable, ordered snapshot for rendering and reports.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &g)| (k.to_string(), g))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, h)| (k.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// An ordered, owned copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, Gauge)>,
    hists: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Gauge by name (zeros if absent).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(Gauge::default(), |&(_, g)| g)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.hists.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, g) in &self.gauges {
                let _ = writeln!(out, "  {k:<width$}  {} (high {})", g.value, g.high_water);
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<width$}  n={} mean={:.1} min={} max={}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                );
                let buckets = h.nonzero_buckets();
                if !buckets.is_empty() {
                    let mut line = String::from("  ");
                    line.push_str(&" ".repeat(width));
                    line.push_str("  ");
                    for (lo, c) in buckets {
                        let _ = write!(line, "[{lo}+]:{c} ");
                    }
                    let _ = writeln!(out, "{}", line.trim_end());
                }
            }
        }
        out
    }

    /// Renders a per-histogram quantile table (p50/p90/p99 by
    /// [`Histogram::quantile_est`] upper-bound interpolation), so phase
    /// and syscall latency histograms are readable without the JSON
    /// export. Kept separate from [`Snapshot::to_text`] so existing
    /// rendered output — and every digest derived from it — stays
    /// byte-identical.
    pub fn quantiles_text(&self) -> String {
        let mut out = String::new();
        if self.hists.is_empty() {
            return out;
        }
        let width = self
            .hists
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0)
            .max("histogram".len());
        let _ = writeln!(
            out,
            "  {:<width$}  {:>12} {:>12} {:>12} {:>12}",
            "histogram", "n", "p50", "p90", "p99"
        );
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "  {k:<width$}  {:>12} {:>12} {:>12} {:>12}",
                h.count(),
                h.quantile_est(0.50),
                h.quantile_est(0.90),
                h.quantile_est(0.99),
            );
        }
        out
    }

    /// Renders one JSON object per line (JSON-lines), no tags.
    pub fn to_json_lines(&self) -> String {
        self.to_json_lines_with(&[])
    }

    /// A stable 64-bit digest of the snapshot (FNV-1a over the rendered
    /// JSON lines). Two identical seeded runs produce equal digests on
    /// every platform, so baselines can compare whole probe snapshots as
    /// one number without shipping them.
    pub fn digest(&self) -> u64 {
        Fnv::digest(self.to_json_lines().as_bytes())
    }

    /// [`Snapshot::digest`] rendered as fixed-width hex, the form stored
    /// in `BENCH.json`.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Renders JSON-lines with extra leading string fields on each line
    /// (e.g. `[("server", "devpoll"), ("rate", "700")]`).
    pub fn to_json_lines_with(&self, tags: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let prefix = {
            let mut p = String::new();
            for (k, v) in tags {
                let _ = write!(p, "\"{}\":\"{}\",", escape(k), escape(v));
            }
            p
        };
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(k)
            );
        }
        for (k, g) in &self.gauges {
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"gauge\",\"name\":\"{}\",\"value\":{},\"high_water\":{}}}",
                escape(k),
                g.value,
                g.high_water
            );
        }
        for (k, h) in &self.hists {
            let mut buckets = String::new();
            for (i, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{lo},{c}]");
            }
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                escape(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
        }
        out
    }
}

/// Minimal JSON string escaping (metric names and tags are plain ASCII,
/// but be safe).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        // The three edge cases: 0 has its own bucket, 1 starts the log2
        // ladder, u64::MAX lands in the last bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_MAX_BUCKET);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 4);
    }

    #[test]
    fn histogram_observes_edge_values() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(HIST_MAX_BUCKET), 1);
        let nz = h.nonzero_buckets();
        assert_eq!(nz.len(), 3);
        assert_eq!(nz[0], (0, 1));
        assert_eq!(nz[1], (1, 1));
        assert_eq!(nz[2], (1u64 << 63, 1));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_est_interpolates_toward_upper_bound() {
        let mut h = Histogram::default();
        // 100 samples of 1000: every quantile is inside bucket [512,1023],
        // clamped to the observed min==max.
        for _ in 0..100 {
            h.observe(1000);
        }
        assert_eq!(h.quantile_est(0.50), 1000);
        assert_eq!(h.quantile_est(0.99), 1000);
        // Bimodal: 90 low (value 8) + 10 high (value 5000).
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(8);
        }
        for _ in 0..10 {
            h.observe(5000);
        }
        let p50 = h.quantile_est(0.50);
        assert!((8..=15).contains(&p50), "p50={p50}");
        let p90 = h.quantile_est(0.90);
        assert!((8..=15).contains(&p90), "p90={p90}");
        let p99 = h.quantile_est(0.99);
        assert!((4096..=5000).contains(&p99), "p99={p99}");
        // Degenerate inputs.
        assert_eq!(Histogram::default().quantile_est(0.5), 0);
        assert_eq!(h.quantile_est(0.0), 8);
        assert_eq!(h.quantile_est(1.0), 5000);
    }

    #[test]
    fn quantiles_text_lists_histograms_only() {
        let mut p = MetricRegistry::new();
        p.inc("counter.only");
        assert!(p.snapshot().quantiles_text().is_empty());
        for v in 1..=100u64 {
            p.observe("span_ns.read", v);
        }
        let text = p.snapshot().quantiles_text();
        assert!(text.contains("span_ns.read"));
        assert!(text.contains("p99"));
        assert!(!text.contains("counter.only"));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut p = MetricRegistry::new();
        p.gauge_set("q", 3);
        p.gauge_set("q", 9);
        p.gauge_set("q", 2);
        let g = p.gauge("q");
        assert_eq!(g.value, 2);
        assert_eq!(g.high_water, 9);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = MetricRegistry::new();
        p.inc("a");
        p.add("a", 4);
        assert_eq!(p.counter("a"), 5);
        assert_eq!(p.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        // Insertion order differs; rendered order must not.
        let mut a = MetricRegistry::new();
        a.inc("z.last");
        a.inc("a.first");
        a.gauge_set("m.mid", 1);
        let mut b = MetricRegistry::new();
        b.gauge_set("m.mid", 1);
        b.inc("a.first");
        b.inc("z.last");
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        assert_eq!(a.snapshot().to_json_lines(), b.snapshot().to_json_lines());
        let text = a.snapshot().to_text();
        let first = text.find("a.first").unwrap();
        let last = text.find("z.last").unwrap();
        assert!(first < last);
    }

    #[test]
    fn json_lines_schema() {
        let mut p = MetricRegistry::new();
        p.inc("c");
        p.gauge_set("g", 2);
        p.observe("h", 5);
        let json = p.snapshot().to_json_lines_with(&[("server", "devpoll")]);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"server\":\"devpoll\",\"type\":\"counter\""));
        assert!(lines[1].contains("\"high_water\":2"));
        assert!(lines[2].contains("\"buckets\":[[4,1]]"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let mut a = MetricRegistry::new();
        a.inc("x");
        a.observe("h", 9);
        let mut b = a.clone();
        assert_eq!(a.snapshot().digest(), b.snapshot().digest());
        assert_eq!(a.snapshot().digest_hex().len(), 16);
        b.inc("x");
        assert_ne!(a.snapshot().digest(), b.snapshot().digest());
    }
}
