#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `devpoll` — the primary contribution of *Scalable Network I/O in
//! Linux* (Provos & Lever, USENIX 2000), reimplemented against the
//! simulated kernel in [`simkernel`].
//!
//! Three event-notification mechanisms:
//!
//! * [`stock`] — baseline `poll()` with its O(n) copy, scan, and
//!   wait-queue costs;
//! * [`device`] — the `/dev/poll` character device: kernel-resident
//!   interest sets in a doubling hash table ([`interest`]), incremental
//!   updates via `write()` (including `POLLREMOVE`), scanning via
//!   `ioctl(DP_POLL)`, device-driver hints through backmapping lists, a
//!   shared `mmap` result area, and the combined update+poll operation
//!   from the paper's future-work list;
//! * [`rtsig`] — the POSIX RT-signal event API (`F_SETSIG` +
//!   `sigwaitinfo`), including queue-overflow detection and the proposed
//!   `sigtimedwait4()` batch pickup.
//!
//! [`backend`] wraps the two poll-shaped mechanisms behind one trait so
//! the same server can run on either, as the paper's stock and modified
//! `thttpd` do. [`dispatch`] holds the per-instant order in which the
//! network, the kernel and the `/dev/poll` hint path run; [`settle`]
//! drives a hand-built world through it.

pub mod audit;
pub mod backend;
pub mod device;
pub mod dispatch;
pub mod interest;
pub mod lockdep;
pub mod pollfd;
pub mod rtsig;
pub mod select;
pub mod stock;

pub use backend::{DevPollBackend, EventBackend, SelectBackend, StockPollBackend};
pub use device::{DevPollConfig, DevPollDevice, DevPollRegistry};
pub use dispatch::settle;
pub use interest::{Interest, InterestTable, SetOutcome};
pub use lockdep::{LockClass, LockGraph, OrderViolation};
pub use pollfd::{DvPoll, PollFd};
pub use rtsig::{RtEvent, RtSignalApi, SignalAssignment};
pub use select::{sys_select, FdSet, FD_SETSIZE};
pub use stock::{sys_poll, PollOutcome};
