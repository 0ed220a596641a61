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
//! Every metric is a [`Metric`] id from one name table, so a misspelt
//! metric is a compile error. The registry keeps each kind in a flat
//! array indexed by the id, and a record is one array update: no lookup,
//! no allocation. Names appear only at export: a snapshot lists the
//! metrics written so far, each kind sorted by name, so two identical
//! seeded runs produce byte-identical snapshots.
//!
//! # Examples
//!
//! ```
//! use simcore::probe::{Metric, MetricRegistry};
//!
//! let mut probe = MetricRegistry::new();
//! probe.inc(Metric::DevpollScans);
//! probe.gauge_set(Metric::RtsigQueueDepth, 7);
//! probe.observe(Metric::SyscallNsRead, 2_300);
//! let snap = probe.snapshot();
//! assert_eq!(snap.counter("devpoll.scans"), 1);
//! assert!(snap.to_text().contains("rtsig.queue_depth"));
//! ```

use std::fmt::Write as _;

use crate::fingerprint::Fnv;

/// Declares [`Metric`] from the name table below.
macro_rules! metric_table {
    (
        counters { $($c:ident = $cn:literal,)* }
        gauges { $($g:ident = $gn:literal,)* }
        histograms { $($h:ident = $hn:literal,)* }
    ) => {
        /// A metric id: the key every probe records under. Counters come
        /// first, then gauges, then histograms; within each kind the ids
        /// are in byte-wise name order, the order snapshots export.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $cn] $c,)*
            $(#[doc = $gn] $g,)*
            $(#[doc = $hn] $h,)*
        }

        const COUNTERS: usize = [$($cn),*].len();
        const GAUGES: usize = [$($gn),*].len();
        const METRICS: usize = COUNTERS + GAUGES + [$($hn),*].len();

        impl Metric {
            /// Every id, in table order.
            const ALL: [Metric; METRICS] =
                [$(Metric::$c,)* $(Metric::$g,)* $(Metric::$h,)*];
            const NAMES: [&'static str; METRICS] = [$($cn,)* $($gn,)* $($hn,)*];
        }
    };
}

metric_table! {
    counters {
        DevpollCacheRevalidations = "devpoll.cache_revalidations",
        DevpollCopyoutBytes = "devpoll.copyout_bytes",
        DevpollDriverPolls = "devpoll.driver_polls",
        DevpollDriverPollsAvoided = "devpoll.driver_polls_avoided",
        DevpollHintsMarked = "devpoll.hints_marked",
        DevpollInterestLookups = "devpoll.interest.lookups",
        DevpollInterestOps = "devpoll.interest.ops",
        DevpollInterestResizes = "devpoll.interest.resizes",
        DevpollMmapResultBytes = "devpoll.mmap_result_bytes",
        DevpollResults = "devpoll.results",
        DevpollScans = "devpoll.scans",
        KernelEmfile = "kernel.emfile",
        KernelWakeups = "kernel.wakeups",
        PollCalls = "poll.calls",
        PollDriverPolls = "poll.driver_polls",
        RtsigDequeued = "rtsig.dequeued",
        RtsigEnqueued = "rtsig.enqueued",
        RtsigFlushed = "rtsig.flushed",
        RtsigOverflows = "rtsig.overflows",
        SelectBitWalk = "select.bit_walk",
        SelectCalls = "select.calls",
        ServerAccepted = "server.accepted",
        ServerBusyBatches = "server.busy_batches",
        ServerClientClosedEarly = "server.client_closed_early",
        ServerIdleClosed = "server.idle_closed",
        ServerModeSwitches = "server.mode_switches",
        ServerNotFound = "server.not_found",
        ServerOverflows = "server.overflows",
        ServerReadErrors = "server.read_errors",
        ServerReplies = "server.replies",
        ServerStaleEvents = "server.stale_events",
        SyscallAbort = "syscall.abort",
        SyscallAccept = "syscall.accept",
        SyscallClose = "syscall.close",
        SyscallFlushRt = "syscall.flush_rt",
        SyscallListen = "syscall.listen",
        SyscallRead = "syscall.read",
        SyscallSendfile = "syscall.sendfile",
        SyscallSetNonblock = "syscall.set_nonblock",
        SyscallSetSig = "syscall.set_sig",
        SyscallShareListener = "syscall.share_listener",
        SyscallSigtimedwait4 = "syscall.sigtimedwait4",
        SyscallSigwaitinfo = "syscall.sigwaitinfo",
        SyscallWrite = "syscall.write",
        TcpConnsClosed = "tcp.conns_closed",
        TcpConnsEstablished = "tcp.conns_established",
        TcpConnsReset = "tcp.conns_reset",
        TcpConnsStarted = "tcp.conns_started",
        TcpInjectedLosses = "tcp.injected_losses",
        TcpPortsExhausted = "tcp.ports_exhausted",
        TcpRetransmits = "tcp.retransmits",
        TcpSynDrops = "tcp.syn_drops",
    }
    gauges {
        DevpollInterestBuckets = "devpoll.interest.buckets",
        DevpollInterestLen = "devpoll.interest.len",
        DevpollInterestMaxBucket = "devpoll.interest.max_bucket",
        MemClientBytes = "mem.client.bytes",
        MemServerBytes = "mem.server.bytes",
        MemServerDevpollBytes = "mem.server.devpoll_bytes",
        MemServerEpsPeak = "mem.server.eps_peak",
        RtsigQueueDepth = "rtsig.queue_depth",
        TcpTimeWait = "tcp.time_wait",
    }
    histograms {
        RtsigBatchSize = "rtsig.batch_size",
        ServerBatchEvents = "server.batch_events",
        SpanNsAcceptWait = "span_ns.accept_wait",
        SpanNsDelivery = "span_ns.delivery",
        SpanNsDispatch = "span_ns.dispatch",
        SpanNsInterestReg = "span_ns.interest_reg",
        SpanNsLockBackmap = "span_ns.lock_backmap",
        SpanNsLockInterestTable = "span_ns.lock_interest_table",
        SpanNsLockSocket = "span_ns.lock_socket",
        SpanNsRead = "span_ns.read",
        SpanNsReadyScan = "span_ns.ready_scan",
        SpanNsWrite = "span_ns.write",
        SyscallNsAbort = "syscall_ns.abort",
        SyscallNsAccept = "syscall_ns.accept",
        SyscallNsClose = "syscall_ns.close",
        SyscallNsFlushRt = "syscall_ns.flush_rt",
        SyscallNsListen = "syscall_ns.listen",
        SyscallNsRead = "syscall_ns.read",
        SyscallNsSendfile = "syscall_ns.sendfile",
        SyscallNsSetNonblock = "syscall_ns.set_nonblock",
        SyscallNsSetSig = "syscall_ns.set_sig",
        SyscallNsShareListener = "syscall_ns.share_listener",
        SyscallNsSigtimedwait4 = "syscall_ns.sigtimedwait4",
        SyscallNsSigwaitinfo = "syscall_ns.sigwaitinfo",
        SyscallNsWrite = "syscall_ns.write",
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

impl Metric {
    /// The exported name, e.g. `"devpoll.scans"`.
    pub fn name(self) -> &'static str {
        Metric::NAMES[self as usize]
    }

    /// The id with this exported name, if any.
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }
}

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
    // #[hot_path] — simcheck bans per-call allocation in this function
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
/// network stack, server metrics) before a snapshot is taken. Each kind
/// lives in a flat array sized by the name table, so recording never
/// allocates; recording a metric into the wrong kind's array panics.
#[derive(Debug, Clone)]
pub struct MetricRegistry {
    /// Bit `m as usize` is set once metric `m` is written, so a counter
    /// recorded with `add(_, 0)` still exports and an untouched one
    /// never does.
    touched: u128,
    counters: [u64; COUNTERS],
    gauges: [Gauge; GAUGES],
    /// Boxed: inline, these ~14 KiB grow every `Kernel`, and the model
    /// checker's per-branch world clones then churn the allocator (its
    /// quick explore ran 1.5x slower).
    hists: Box<[Histogram; METRICS - COUNTERS - GAUGES]>,
}

const _: () = assert!(METRICS <= u128::BITS as usize);

impl Default for MetricRegistry {
    fn default() -> Self {
        MetricRegistry {
            touched: 0,
            counters: [0; COUNTERS],
            gauges: [Gauge::default(); GAUGES],
            hists: Box::new(std::array::from_fn(|_| Histogram::default())),
        }
    }
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    fn touch(&mut self, m: Metric) {
        self.touched |= 1 << m as u32;
    }

    fn is_touched(&self, m: Metric) -> bool {
        self.touched >> m as u32 & 1 == 1
    }

    /// Increments a counter by one.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn inc(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Adds `n` to a counter.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn add(&mut self, m: Metric, n: u64) {
        self.touch(m);
        self.counters[m as usize] += n;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// Sets a gauge, updating its high-water mark.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn gauge_set(&mut self, m: Metric, value: u64) {
        self.touch(m);
        let g = &mut self.gauges[m as usize - COUNTERS];
        g.value = value;
        g.high_water = g.high_water.max(value);
    }

    /// Current gauge state.
    pub fn gauge(&self, m: Metric) -> Gauge {
        self.gauges[m as usize - COUNTERS]
    }

    /// Records a histogram sample.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn observe(&mut self, m: Metric, value: u64) {
        self.touch(m);
        self.hists[m as usize - COUNTERS - GAUGES].observe(value);
    }

    /// Histogram access (None if never touched).
    pub fn histogram(&self, m: Metric) -> Option<&Histogram> {
        let h = &self.hists[m as usize - COUNTERS - GAUGES];
        self.is_touched(m).then_some(h)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }

    /// Takes an immutable, ordered snapshot for rendering and reports:
    /// the written metrics of each kind, in table (name) order.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for m in Metric::ALL.into_iter().filter(|&m| self.is_touched(m)) {
            let i = m as usize;
            if i < COUNTERS {
                snap.counters.push((m, self.counters[i]));
            } else if i < COUNTERS + GAUGES {
                snap.gauges.push((m, self.gauges[i - COUNTERS]));
            } else {
                snap.hists
                    .push((m, self.hists[i - COUNTERS - GAUGES].clone()));
            }
        }
        snap
    }
}

/// An ordered, owned copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: Vec<(Metric, u64)>,
    gauges: Vec<(Metric, Gauge)>,
    hists: Vec<(Metric, Histogram)>,
}

impl Snapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        by_name(&self.counters, name).copied().unwrap_or(0)
    }

    /// Gauge by name (zeros if absent).
    pub fn gauge(&self, name: &str) -> Gauge {
        by_name(&self.gauges, name).copied().unwrap_or_default()
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        by_name(&self.hists, name)
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
            .map(|(k, _)| k.name().len())
            .chain(self.gauges.iter().map(|(k, _)| k.name().len()))
            .chain(self.hists.iter().map(|(k, _)| k.name().len()))
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
            .map(|(k, _)| k.name().len())
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
                "{{{prefix}\"type\":\"counter\",\"name\":\"{k}\",\"value\":{v}}}",
            );
        }
        for (k, g) in &self.gauges {
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"gauge\",\"name\":\"{k}\",\"value\":{},\"high_water\":{}}}",
                g.value, g.high_water
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
                "{{{prefix}\"type\":\"histogram\",\"name\":\"{k}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
        }
        out
    }
}

/// One snapshot row by metric name. An unknown name panics, so a
/// misspelt read fails loudly instead of reading an absent metric.
fn by_name<'a, T>(rows: &'a [(Metric, T)], name: &str) -> Option<&'a T> {
    let m = Metric::from_name(name).unwrap_or_else(|| panic!("unknown metric {name:?}"));
    rows.iter().find(|(k, _)| *k == m).map(|(_, v)| v)
}

/// Minimal JSON string escaping for tags (metric names are plain ASCII
/// by construction).
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
        p.inc(Metric::PollCalls);
        assert!(p.snapshot().quantiles_text().is_empty());
        for v in 1..=100u64 {
            p.observe(Metric::SpanNsRead, v);
        }
        let text = p.snapshot().quantiles_text();
        assert!(text.contains("span_ns.read"));
        assert!(text.contains("p99"));
        assert!(!text.contains("poll.calls"));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut p = MetricRegistry::new();
        p.gauge_set(Metric::RtsigQueueDepth, 3);
        p.gauge_set(Metric::RtsigQueueDepth, 9);
        p.gauge_set(Metric::RtsigQueueDepth, 2);
        let g = p.gauge(Metric::RtsigQueueDepth);
        assert_eq!(g.value, 2);
        assert_eq!(g.high_water, 9);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = MetricRegistry::new();
        p.inc(Metric::PollCalls);
        p.add(Metric::PollCalls, 4);
        assert_eq!(p.counter(Metric::PollCalls), 5);
        assert_eq!(p.counter(Metric::SelectCalls), 0);
    }

    #[test]
    #[should_panic]
    fn recording_into_the_wrong_kind_panics() {
        MetricRegistry::new().observe(Metric::PollCalls, 1);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        // Insertion order differs; rendered order must not.
        let mut a = MetricRegistry::new();
        a.inc(Metric::TcpSynDrops);
        a.inc(Metric::DevpollScans);
        a.gauge_set(Metric::MemServerBytes, 1);
        let mut b = MetricRegistry::new();
        b.gauge_set(Metric::MemServerBytes, 1);
        b.inc(Metric::DevpollScans);
        b.inc(Metric::TcpSynDrops);
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        assert_eq!(a.snapshot().to_json_lines(), b.snapshot().to_json_lines());
        let text = a.snapshot().to_text();
        let first = text.find("devpoll.scans").unwrap();
        let last = text.find("tcp.syn_drops").unwrap();
        assert!(first < last);
    }

    #[test]
    fn json_lines_schema() {
        let mut p = MetricRegistry::new();
        p.inc(Metric::PollCalls);
        p.gauge_set(Metric::RtsigQueueDepth, 2);
        p.observe(Metric::RtsigBatchSize, 5);
        let json = p.snapshot().to_json_lines_with(&[("server", "devpoll")]);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"server\":\"devpoll\",\"type\":\"counter\""));
        assert!(lines[1].contains("\"high_water\":2"));
        assert!(lines[2].contains("\"buckets\":[[4,1]]"));
    }

    #[test]
    fn name_table_is_unique_sorted_and_round_trips() {
        let kinds = [
            &Metric::ALL[..COUNTERS],
            &Metric::ALL[COUNTERS..COUNTERS + GAUGES],
            &Metric::ALL[COUNTERS + GAUGES..],
        ];
        for ids in kinds {
            // Strictly ascending byte-wise: unique, and export order is
            // name order.
            for pair in ids.windows(2) {
                assert!(pair[0].name() < pair[1].name(), "{pair:?}");
            }
        }
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS);
        for m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
            assert!(m
                .name()
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_'));
        }
        assert_eq!(Metric::from_name("devpoll.scan"), None);
    }

    #[test]
    fn names_read_by_string_resolve() {
        // The benchmark's per-run probe counters, read by name from a
        // snapshot.
        for name in [
            "kernel.wakeups",
            "devpoll.scans",
            "devpoll.driver_polls",
            "tcp.syn_drops",
            "tcp.retransmits",
        ] {
            assert!(Metric::from_name(name).is_some(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn reading_an_unknown_name_panics() {
        MetricRegistry::new().snapshot().counter("devpoll.scan");
    }

    #[test]
    fn export_format_is_pinned() {
        // A zero add still exports; an untouched metric never does.
        let mut p = MetricRegistry::new();
        p.add(Metric::TcpConnsReset, 0);
        p.inc(Metric::DevpollScans);
        p.inc(Metric::DevpollScans);
        p.gauge_set(Metric::RtsigQueueDepth, 9);
        p.gauge_set(Metric::RtsigQueueDepth, 2);
        p.observe(Metric::SyscallNsRead, 0);
        p.observe(Metric::SyscallNsRead, 5);
        p.observe(Metric::SyscallNsRead, 2300);
        let snap = p.snapshot();
        assert_eq!(snap.counter("tcp.ports_exhausted"), 0);
        assert!(!snap.to_json_lines().contains("tcp.ports_exhausted"));
        assert_eq!(
            snap.to_text(),
            "counters:\n\
             \x20 devpoll.scans      2\n\
             \x20 tcp.conns_reset    0\n\
             gauges:\n\
             \x20 rtsig.queue_depth  2 (high 9)\n\
             histograms:\n\
             \x20 syscall_ns.read    n=3 mean=768.3 min=0 max=2300\n\
             \x20                    [0+]:1 [4+]:1 [2048+]:1\n"
        );
        assert_eq!(
            snap.to_json_lines(),
            "{\"type\":\"counter\",\"name\":\"devpoll.scans\",\"value\":2}\n\
             {\"type\":\"counter\",\"name\":\"tcp.conns_reset\",\"value\":0}\n\
             {\"type\":\"gauge\",\"name\":\"rtsig.queue_depth\",\"value\":2,\"high_water\":9}\n\
             {\"type\":\"histogram\",\"name\":\"syscall_ns.read\",\"count\":3,\"sum\":2305,\
             \"min\":0,\"max\":2300,\"buckets\":[[0,1],[4,1],[2048,1]]}\n"
        );
        assert_eq!(snap.digest_hex(), "6e1a9a57d1cb7e3d");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let mut a = MetricRegistry::new();
        a.inc(Metric::PollCalls);
        a.observe(Metric::RtsigBatchSize, 9);
        let mut b = a.clone();
        assert_eq!(a.snapshot().digest(), b.snapshot().digest());
        assert_eq!(a.snapshot().digest_hex().len(), 16);
        b.inc(Metric::PollCalls);
        assert_ne!(a.snapshot().digest(), b.snapshot().digest());
    }
}
