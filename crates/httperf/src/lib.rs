#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! `httperf` — the benchmark client and testbed of *Scalable Network I/O
//! in Linux* (Provos & Lever, USENIX 2000).
//!
//! Modelled after the paper's modified `httperf` (§5): an open-loop
//! request generator at a targeted rate, plus a constant population of
//! inactive high-latency connections that reopen when the server times
//! them out. [`testbed::Testbed`] wires the network, the server kernel,
//! the `/dev/poll` registry, a server under test and the load generator
//! into one deterministic simulation; [`run::run_one`] executes a single
//! benchmark point.

pub mod load;
pub mod report;
pub mod run;
pub mod testbed;

pub use load::{FollowUps, LoadConfig, LoadGen, LoadShape, LoadTimer};
pub use report::{ErrorCounts, RunReport};
pub use run::{build_world, run_one, RunParams, ServerKind};
pub use testbed::{default_testbed, Testbed, CLIENT_HOST, SERVER_HOST};
