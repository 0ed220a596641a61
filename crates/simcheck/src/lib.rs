#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Offline correctness tooling for the simulation (DESIGN.md §7):
//!
//! * [`oracle`] — the differential backend oracle: one seeded workload
//!   driven through `poll()`, `select()`, `/dev/poll` (with and without
//!   driver hints) and the RT-signal path, with ready sets compared at
//!   every wait boundary and failing seeds shrunk to a minimal script;
//! * [`explore`] — bounded exhaustive model checking: every canonical
//!   schedule of a small event alphabet to a depth bound, all five
//!   lanes checked against the executable reference [`model`] at every
//!   wait boundary, with fingerprint dedup and DPOR-style pruning;
//! * [`lint`] — a dependency-free source scanner for what rustc and
//!   clippy cannot check: `expect(` without an `invariant:` message in
//!   library code, hash-ordered iteration, hot-path allocation, mixed
//!   time-unit arithmetic and wide handles (unwraps and wall-clock
//!   reads are clippy's, via the crate roots and `clippy.toml`);
//! * the runtime invariant auditor and lockdep graph themselves live in
//!   the `devpoll` crate; the oracle's lanes switch them on through
//!   `DevPollRegistry::audited()` (debug builds run them everywhere).
//!
//! The `simcheck` binary wires all three into CI; see `README.md`.

pub mod explore;
pub mod lint;
pub mod model;
pub mod oracle;
pub mod script;
