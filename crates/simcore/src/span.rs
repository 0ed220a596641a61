//! Deterministic scoped span tracing: the latency-anatomy layer.
//!
//! The paper's argument is about *where event-delivery time goes* —
//! interest registration, the kernel readiness scan, dequeue, dispatch —
//! not just end-to-end reply rates. This module attributes every
//! nanosecond of simulated request latency to a [`Phase`] so figures can
//! show *why* `/dev/poll` beats `poll()` at 6 000 connections.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Spans are charged in *sim-time* (the same clock
//!    the cost model charges), never wall time, so two seeded runs
//!    produce byte-identical exports at any `--jobs` count.
//! 2. **Zero cost when disabled.** Every instrumentation site is one
//!    branch ([`SpanTracer::open`] returns `None`); no histogram is ever
//!    created, so probe snapshots — and their digests in `BENCH.json` —
//!    are byte-identical to an uninstrumented build.
//! 3. **Scoped, nestable spans.** The only way to open a span is the
//!    guard API; the private `span_enter`/`span_exit` stack operations
//!    never escape this file (Rust privacy: a call from outside fails
//!    to compile). Close pops strictly LIFO, so exclusive-time
//!    attribution is always well-formed.
//!
//! A closed span charges its **exclusive** time (inclusive minus time
//! spent in child spans) to a per-phase log2 histogram
//! (`span_ns.<phase>`) in the [`MetricRegistry`]; completed spans are
//! additionally retained (up to a bounded capacity) for the
//! Chrome-trace and folded-stack exporters.
//!
//! # Examples
//!
//! ```
//! use simcore::probe::MetricRegistry;
//! use simcore::span::{Phase, SpanTracer};
//! use simcore::time::SimTime;
//!
//! let mut spans = SpanTracer::new();
//! let mut probe = MetricRegistry::new();
//! spans.set_enabled(true);
//! let g = spans.open(Phase::Dispatch, 1, SimTime::from_nanos(100));
//! let h = spans.open(Phase::Read, 1, SimTime::from_nanos(140));
//! if let Some(h) = h {
//!     spans.close(h, SimTime::from_nanos(190), &mut probe);
//! }
//! if let Some(g) = g {
//!     spans.close(g, SimTime::from_nanos(300), &mut probe);
//! }
//! // Read charged 50 ns; Dispatch charged 200 - 50 = 150 ns exclusive.
//! let h = probe.histogram(Phase::Dispatch.metric()).unwrap();
//! assert_eq!(h.sum(), 150);
//! ```

use std::fmt::Write as _;

use crate::probe::{Metric, MetricRegistry};
use crate::time::SimTime;

/// Default number of completed spans retained for the exporters.
///
/// Histogram accounting is unaffected by this bound; only the raw
/// per-span records for `--trace-export` stop accumulating (and
/// [`SpanTracer::dropped`] counts the overflow).
pub const DEFAULT_RETAIN: usize = 200_000;

/// A request-path phase, the unit of latency attribution.
///
/// The first seven phases tile the life of one request; the three lock
/// phases measure hold time on the devpoll lock classes (the contention
/// instrument the SMP roadmap item builds on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Connection sat in the listener's accept queue (SYN-ACK completion
    /// to `accept()` pop).
    AcceptWait,
    /// Interest-set registration: `/dev/poll` `write()` (`dpsetup` /
    /// `POLLREMOVE`) or `F_SETSIG`/`F_SETOWN` fcntls.
    InterestReg,
    /// Kernel readiness scan: the `f_op->poll` walk in `poll()`,
    /// `select()` or `DP_POLL` (hinted or full).
    ReadyScan,
    /// Event delivery to user space: pollfd/bitmap copyout, `DP_POLL`
    /// result write, or RT-signal dequeue.
    Delivery,
    /// Server event dispatch: demultiplexing one ready fd to its
    /// connection handler.
    Dispatch,
    /// `read()` — request bytes into the server.
    Read,
    /// `write()`/`sendfile()` — response bytes out of the server.
    Write,
    /// Hold time on the devpoll backmap lock.
    LockBackmap,
    /// Hold time on the devpoll interest-table lock.
    LockInterestTable,
    /// Hold time on a per-socket lock taken under devpoll.
    LockSocket,
}

impl Phase {
    /// Every phase, in canonical (enum) order.
    pub const ALL: [Phase; 10] = [
        Phase::AcceptWait,
        Phase::InterestReg,
        Phase::ReadyScan,
        Phase::Delivery,
        Phase::Dispatch,
        Phase::Read,
        Phase::Write,
        Phase::LockBackmap,
        Phase::LockInterestTable,
        Phase::LockSocket,
    ];

    /// The request-path phases (everything except the lock classes),
    /// the stack of the latency-anatomy figure.
    pub const REQUEST_PATH: [Phase; 7] = [
        Phase::AcceptWait,
        Phase::InterestReg,
        Phase::ReadyScan,
        Phase::Delivery,
        Phase::Dispatch,
        Phase::Read,
        Phase::Write,
    ];

    /// Short snake_case name, used in exports and figure series: the
    /// phase's metric name without its `span_ns.` prefix.
    pub fn name(self) -> &'static str {
        &self.metric().name()["span_ns.".len()..]
    }

    /// The histogram this phase charges (exclusive nanoseconds per span).
    pub fn metric(self) -> Metric {
        match self {
            Phase::AcceptWait => Metric::SpanNsAcceptWait,
            Phase::InterestReg => Metric::SpanNsInterestReg,
            Phase::ReadyScan => Metric::SpanNsReadyScan,
            Phase::Delivery => Metric::SpanNsDelivery,
            Phase::Dispatch => Metric::SpanNsDispatch,
            Phase::Read => Metric::SpanNsRead,
            Phase::Write => Metric::SpanNsWrite,
            Phase::LockBackmap => Metric::SpanNsLockBackmap,
            Phase::LockInterestTable => Metric::SpanNsLockInterestTable,
            Phase::LockSocket => Metric::SpanNsLockSocket,
        }
    }
}

/// A token proving a span is open; returned by [`SpanTracer::open`] and
/// consumed by [`SpanTracer::close`].
///
/// The field is private so call sites cannot forge one or close a span
/// they did not open; dropping a guard without closing it leaks the
/// span (its time is never charged), which the `#[must_use]` lint
/// surfaces at the call site.
#[derive(Debug)]
#[must_use = "an unclosed span charges nothing; pass the guard back to SpanTracer::close"]
pub struct SpanGuard {
    id: u64,
}

/// One completed span, retained for the exporters.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The phase this span measured.
    pub phase: Phase,
    /// Simulated process id the span ran under (0 for softirq context).
    pub tid: u64,
    /// Span start, sim-time.
    pub start: SimTime,
    /// Span end, sim-time.
    pub end: SimTime,
    /// Nanoseconds attributed to child spans.
    pub child_ns: u64,
    /// Nesting depth at open (0 = top level).
    pub depth: u16,
    /// Enclosing phases root-first, ending with this span's own phase.
    pub path: Vec<Phase>,
}

impl SpanRecord {
    /// Wall-to-wall span duration in nanoseconds.
    pub fn inclusive_ns(&self) -> u64 {
        self.end.saturating_duration_since(self.start).as_nanos()
    }

    /// Duration minus time spent in child spans — what the per-phase
    /// histogram was charged.
    pub fn exclusive_ns(&self) -> u64 {
        self.inclusive_ns().saturating_sub(self.child_ns)
    }
}

#[derive(Debug, Clone)]
struct OpenSpan {
    phase: Phase,
    tid: u64,
    start: SimTime,
    child_ns: u64,
    id: u64,
}

/// The span tracker: a strict LIFO stack of open spans plus a bounded
/// log of completed ones.
///
/// Owned by the simulated kernel next to the [`MetricRegistry`];
/// disabled by default.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    enabled: bool,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
    retain: usize,
    dropped: u64,
    next_id: u64,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer::new()
    }
}

impl SpanTracer {
    /// Creates a disabled tracer with the default retention bound.
    pub fn new() -> SpanTracer {
        SpanTracer {
            enabled: false,
            stack: Vec::new(),
            done: Vec::new(),
            retain: DEFAULT_RETAIN,
            dropped: 0,
            next_id: 0,
        }
    }

    /// Whether spans are being collected.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns collection on or off. Off is the zero-cost state: `open`
    /// returns `None` and nothing touches the registry.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Caps how many completed spans are retained for the exporters
    /// (0 = histograms only). Does not drop already-retained spans.
    pub fn set_retain(&mut self, retain: usize) {
        self.retain = retain;
    }

    /// Opens a span at sim-time `at` under process `tid`.
    ///
    /// Returns `None` when tracing is disabled — the single branch every
    /// instrumentation site pays.
    pub fn open(&mut self, phase: Phase, tid: u64, at: SimTime) -> Option<SpanGuard> {
        if !self.enabled {
            return None;
        }
        Some(self.span_enter(phase, tid, at))
    }

    /// Closes the span `guard` refers to at sim-time `at`, charging its
    /// exclusive time to `probe` as `span_ns.<phase>`.
    ///
    /// # Panics
    ///
    /// Panics if `guard` is not the innermost open span: spans are
    /// strictly scoped, and an out-of-order close is an instrumentation
    /// bug.
    pub fn close(&mut self, guard: SpanGuard, at: SimTime, probe: &mut MetricRegistry) {
        self.span_exit(guard, at, probe);
    }

    /// Records a span whose endpoints are both already known, without
    /// touching the nesting stack.
    ///
    /// This is how cross-batch waits (the accept-queue wait runs from a
    /// softirq enqueue to a later `accept()` syscall) and softirq-side
    /// lock holds are charged; the full duration is exclusive.
    pub fn record_complete(
        &mut self,
        phase: Phase,
        tid: u64,
        start: SimTime,
        end: SimTime,
        probe: &mut MetricRegistry,
    ) {
        if !self.enabled {
            return;
        }
        let ns = end.saturating_duration_since(start).as_nanos();
        probe.observe(phase.metric(), ns);
        self.keep(SpanRecord {
            phase,
            tid,
            start,
            end,
            child_ns: 0,
            depth: 0,
            path: vec![phase],
        });
    }

    /// Records an already-measured span as a **leaf child** of the
    /// innermost open span (or at top level if none is open): the
    /// duration is charged to the phase histogram and attributed as
    /// child time of the current stack top, so the enclosing span's
    /// exclusive time stays correct.
    ///
    /// This is the shape syscall-style sites use — the interval is known
    /// from cost-accounting deltas, so nothing is ever left open across
    /// an early error return.
    pub fn leaf(
        &mut self,
        phase: Phase,
        tid: u64,
        start: SimTime,
        end: SimTime,
        probe: &mut MetricRegistry,
    ) {
        if !self.enabled {
            return;
        }
        let ns = end.saturating_duration_since(start).as_nanos();
        if let Some(top) = self.stack.last_mut() {
            top.child_ns += ns;
        }
        probe.observe(phase.metric(), ns);
        let mut path: Vec<Phase> = Vec::with_capacity(self.stack.len() + 1);
        path.extend(self.stack.iter().map(|s| s.phase));
        path.push(phase);
        let depth = self.stack.len() as u16;
        self.keep(SpanRecord {
            phase,
            tid,
            start,
            end,
            child_ns: 0,
            depth,
            path,
        });
    }

    /// Number of retained completed spans.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no completed spans are retained.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Completed spans that overflowed the retention bound (their
    /// histogram charges still happened).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained completed spans, in completion order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.done
    }

    /// Discards all retained spans and the dropped counter; the enabled
    /// flag and retention bound survive.
    pub fn clear(&mut self) {
        self.stack.clear();
        self.done.clear();
        self.dropped = 0;
        self.next_id = 0;
    }

    /// Renders retained spans as a Chrome-trace JSON document (an array
    /// of `"ph":"X"` complete events, loadable in `chrome://tracing` or
    /// Perfetto). Timestamps are sim-time microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.done.len() * 96);
        out.push_str("[\n");
        for (i, r) in self.done.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\"args\":{{\"depth\":{},\"excl_ns\":{}}}}}",
                r.phase.name(),
                r.start.as_nanos() / 1_000,
                r.start.as_nanos() % 1_000,
                r.inclusive_ns() / 1_000,
                r.inclusive_ns() % 1_000,
                r.tid,
                r.depth,
                r.exclusive_ns(),
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders retained spans as folded stacks (`path;to;leaf ns`),
    /// the input format of flamegraph tools. Exclusive nanoseconds are
    /// aggregated per unique path, lines sorted by path.
    pub fn folded(&self) -> String {
        let mut agg: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for r in &self.done {
            let mut key = String::with_capacity(16 * r.path.len());
            for (i, p) in r.path.iter().enumerate() {
                if i > 0 {
                    key.push(';');
                }
                key.push_str(p.name());
            }
            *agg.entry(key).or_insert(0) += r.exclusive_ns();
        }
        let mut out = String::new();
        for (k, ns) in &agg {
            let _ = writeln!(out, "{k} {ns}");
        }
        out
    }

    // -- the only enter/exit pair in the tree (private to this module) --

    fn span_enter(&mut self, phase: Phase, tid: u64, at: SimTime) -> SpanGuard {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(OpenSpan {
            phase,
            tid,
            start: at,
            child_ns: 0,
            id,
        });
        SpanGuard { id }
    }

    fn span_exit(&mut self, guard: SpanGuard, at: SimTime, probe: &mut MetricRegistry) {
        let top = self
            .stack
            .pop()
            .expect("invariant: close called with no open span");
        assert_eq!(
            top.id, guard.id,
            "span closed out of order: spans are strictly scoped"
        );
        let inclusive = at.saturating_duration_since(top.start).as_nanos();
        let exclusive = inclusive.saturating_sub(top.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += inclusive;
        }
        probe.observe(top.phase.metric(), exclusive);
        let mut path: Vec<Phase> = Vec::with_capacity(self.stack.len() + 1);
        path.extend(self.stack.iter().map(|s| s.phase));
        path.push(top.phase);
        let depth = self.stack.len() as u16;
        self.keep(SpanRecord {
            phase: top.phase,
            tid: top.tid,
            start: top.start,
            end: at,
            child_ns: top.child_ns,
            depth,
            path,
        });
    }

    fn keep(&mut self, record: SpanRecord) {
        if self.done.len() < self.retain {
            self.done.push(record);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        assert!(spans.open(Phase::Dispatch, 1, ns(0)).is_none());
        spans.record_complete(Phase::AcceptWait, 1, ns(0), ns(50), &mut probe);
        assert!(probe.is_empty());
        assert!(spans.is_empty());
        assert_eq!(spans.dropped(), 0);
    }

    #[test]
    fn nested_spans_charge_exclusive_time() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let outer = spans.open(Phase::Dispatch, 3, ns(100)).unwrap();
        let inner = spans.open(Phase::Read, 3, ns(140)).unwrap();
        spans.close(inner, ns(190), &mut probe);
        let inner2 = spans.open(Phase::Write, 3, ns(200)).unwrap();
        spans.close(inner2, ns(260), &mut probe);
        spans.close(outer, ns(300), &mut probe);

        // Children: read 50 ns, write 60 ns; dispatch inclusive 200,
        // exclusive 200 - 110 = 90.
        assert_eq!(probe.histogram(Metric::SpanNsRead).unwrap().sum(), 50);
        assert_eq!(probe.histogram(Metric::SpanNsWrite).unwrap().sum(), 60);
        assert_eq!(probe.histogram(Metric::SpanNsDispatch).unwrap().sum(), 90);

        let recs = spans.records();
        assert_eq!(recs.len(), 3);
        let dispatch = recs.iter().find(|r| r.phase == Phase::Dispatch).unwrap();
        assert_eq!(dispatch.inclusive_ns(), 200);
        assert_eq!(dispatch.exclusive_ns(), 90);
        assert_eq!(dispatch.depth, 0);
        let read = recs.iter().find(|r| r.phase == Phase::Read).unwrap();
        assert_eq!(read.depth, 1);
        assert_eq!(read.path, vec![Phase::Dispatch, Phase::Read]);
    }

    #[test]
    fn grandchild_time_rolls_up_once() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let a = spans.open(Phase::Dispatch, 1, ns(0)).unwrap();
        let b = spans.open(Phase::Read, 1, ns(10)).unwrap();
        let c = spans.open(Phase::LockSocket, 1, ns(20)).unwrap();
        spans.close(c, ns(30), &mut probe);
        spans.close(b, ns(50), &mut probe);
        spans.close(a, ns(100), &mut probe);
        // lock 10; read inclusive 40, exclusive 30; dispatch inclusive
        // 100, exclusive 100 - 40 = 60 (grandchild counted only via b).
        assert_eq!(probe.histogram(Metric::SpanNsLockSocket).unwrap().sum(), 10);
        assert_eq!(probe.histogram(Metric::SpanNsRead).unwrap().sum(), 30);
        assert_eq!(probe.histogram(Metric::SpanNsDispatch).unwrap().sum(), 60);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_close_panics() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let a = spans.open(Phase::Dispatch, 1, ns(0)).unwrap();
        let _b = spans.open(Phase::Read, 1, ns(10)).unwrap();
        spans.close(a, ns(20), &mut probe);
    }

    #[test]
    fn leaf_charges_parent_child_time() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let g = spans.open(Phase::Dispatch, 1, ns(0)).unwrap();
        spans.leaf(Phase::Read, 1, ns(10), ns(40), &mut probe);
        spans.close(g, ns(100), &mut probe);
        // Leaf read 30; dispatch exclusive 100 - 30 = 70.
        assert_eq!(probe.histogram(Metric::SpanNsRead).unwrap().sum(), 30);
        assert_eq!(probe.histogram(Metric::SpanNsDispatch).unwrap().sum(), 70);
        let read = spans
            .records()
            .iter()
            .find(|r| r.phase == Phase::Read)
            .unwrap();
        assert_eq!(read.depth, 1);
        assert_eq!(read.path, vec![Phase::Dispatch, Phase::Read]);
    }

    #[test]
    fn record_complete_bypasses_stack() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let g = spans.open(Phase::Dispatch, 1, ns(0)).unwrap();
        spans.record_complete(Phase::AcceptWait, 2, ns(0), ns(500), &mut probe);
        spans.close(g, ns(100), &mut probe);
        // The completed record does not become the dispatch span's child.
        assert_eq!(
            probe.histogram(Metric::SpanNsAcceptWait).unwrap().sum(),
            500
        );
        assert_eq!(probe.histogram(Metric::SpanNsDispatch).unwrap().sum(), 100);
    }

    #[test]
    fn retention_bound_drops_but_still_charges() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        spans.set_retain(2);
        for i in 0..5 {
            spans.record_complete(Phase::Read, 1, ns(i * 10), ns(i * 10 + 5), &mut probe);
        }
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.dropped(), 3);
        assert_eq!(probe.histogram(Metric::SpanNsRead).unwrap().count(), 5);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        let g = spans.open(Phase::ReadyScan, 7, ns(1_234)).unwrap();
        spans.close(g, ns(5_678), &mut probe);
        let json = spans.chrome_trace();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"ready_scan\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.234"));
        assert!(json.contains("\"dur\":4.444"));
        assert!(json.contains("\"tid\":7"));
        // Exactly one event: no comma separator.
        assert!(!json.contains("},\n"));
    }

    #[test]
    fn folded_stacks_aggregate_by_path() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        for _ in 0..2 {
            let a = spans.open(Phase::Dispatch, 1, ns(0)).unwrap();
            let b = spans.open(Phase::Read, 1, ns(10)).unwrap();
            spans.close(b, ns(40), &mut probe);
            spans.close(a, ns(100), &mut probe);
        }
        let folded = spans.folded();
        assert!(folded.contains("dispatch 140\n"), "{folded}");
        assert!(folded.contains("dispatch;read 60\n"), "{folded}");
    }

    #[test]
    fn clear_resets_state() {
        let mut spans = SpanTracer::new();
        let mut probe = MetricRegistry::new();
        spans.set_enabled(true);
        spans.set_retain(1);
        spans.record_complete(Phase::Read, 1, ns(0), ns(5), &mut probe);
        spans.record_complete(Phase::Read, 1, ns(0), ns(5), &mut probe);
        assert_eq!(spans.dropped(), 1);
        spans.clear();
        assert!(spans.is_empty());
        assert_eq!(spans.dropped(), 0);
        assert!(spans.enabled(), "enabled survives clear");
    }
}
