#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `simcore` — the deterministic simulation substrate.
//!
//! This crate is the foundation of the reproduction of *Scalable Network
//! I/O in Linux* (Provos & Lever, USENIX 2000). It provides:
//!
//! * [`time`] — the simulated clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`rng`] — seeded randomness ([`rng::SimRng`]);
//! * [`stats`] — measurement primitives (exact quantiles, the
//!   per-window [`stats::RateSampler`] behind the paper's reply-rate
//!   plots);
//! * [`series`] — figure/series containers with CSV and ASCII rendering;
//! * [`probe`] — the cross-crate metric registry (counters, gauges,
//!   log2 histograms) behind every run's observability snapshot;
//! * [`span`] — deterministic scoped span tracing, the latency-anatomy
//!   layer ([`span::SpanTracer`]);
//! * [`fingerprint`] — the one FNV-1a hasher ([`fingerprint::Fnv`]),
//!   behind state fingerprints and snapshot/baseline digests;
//! * [`paged`] — paged sparse tables, the million-connection storage
//!   layout;
//! * [`timer`] — the lane timer queue ([`timer::TimerQueue`]): FIFO
//!   lanes for timers armed in firing order, merged by a small index
//!   heap, and one fallback heap for the rest.
//!
//! There is no scheduler here: the one event loop is
//! `httperf::Testbed::drain_at`, which merges the network's timer queue
//! (TIME_WAIT ends included), the kernel's deadlines and the load
//! generator's timer queue, and at each instant calls only the
//! subsystems that have work due, through the dispatch phases in
//! `devpoll::dispatch`. Everything is single-threaded and
//! deterministic: a run is exactly reproducible from its RNG seed.

pub mod fingerprint;
pub mod paged;
pub mod probe;
pub mod rng;
pub mod series;
pub mod span;
pub mod stats;
pub mod time;
pub mod timer;

pub use paged::{PagedBits, PagedSlots, PAGE_SLOTS};
pub use probe::{Gauge, Histogram, MetricRegistry, Snapshot};
pub use rng::SimRng;
pub use span::{Phase, SpanGuard, SpanRecord, SpanTracer};
pub use stats::{Quantiles, RateSampler, RateSummary};
pub use time::{SimDuration, SimTime};
