#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `servers` — the web servers under test in *Scalable Network I/O in
//! Linux* (Provos & Lever, USENIX 2000):
//!
//! * [`thttpd::Thttpd`] — a single-process event-driven server generic
//!   over its event backend: stock `poll()` (the paper's stock thttpd)
//!   or `/dev/poll` (the modified thttpd of §5.1);
//! * [`phhttpd::Phhttpd`] — the experimental RT-signal server of §2,
//!   including its overflow-recovery pathology (sibling handoff, full
//!   rebuild, no switch-back);
//! * [`hybrid::HybridServer`] — the hybrid the paper proposes in §4/§6
//!   but could not build without re-architecting phhttpd.
//!
//! All three share one connection table (the crate-private `table`
//! module): admitting a connection, serving a readiness event, closing,
//! the idle sweep and batch close-out are written once, so the servers
//! differ only in their event engines — how they register a descriptor,
//! wait or dequeue, and switch modes. Under the table sit HTTP parsing
//! ([`http`]), the 6 KB CITI document store ([`content`]), the
//! per-connection state machine ([`conn`]) and metrics ([`metrics`]).

pub mod conn;
pub mod content;
pub mod http;
pub mod hybrid;
pub mod metrics;
pub mod phhttpd;
pub mod prefork;
pub mod server;
mod table;
pub mod thttpd;

pub use conn::{ConnPhase, ConnStatus, FinishKind, HttpConn};
pub use content::{ContentStore, DEFAULT_DOC_BYTES, DEFAULT_DOC_PATH};
pub use hybrid::{HybridMode, HybridServer};
pub use metrics::ServerMetrics;
pub use phhttpd::{PhConfig, PhMode, Phhttpd};
pub use prefork::Prefork;
pub use server::{Server, ServerConfig, ServerCtx};
pub use thttpd::Thttpd;
