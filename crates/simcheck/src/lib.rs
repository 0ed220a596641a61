#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Offline correctness tooling for the simulation (DESIGN.md §7, §8):
//!
//! * [`explore`] — model checking of readiness semantics: all five
//!   backend [`lane`]s run in isolated worlds, and every wait boundary
//!   is checked against the executable reference [`model`] and each
//!   lane's lock-order graph. It enumerates every canonical schedule
//!   of a small event alphabet to a depth bound (fingerprint dedup,
//!   DPOR-style pruning), or replays seeded random walks
//!   ([`script::generate`]); failures shrink to a `--replay` token
//!   script;
//! * [`lint`] — a dependency-free source scanner for what rustc and
//!   clippy cannot check: `expect(` without an `invariant:` message in
//!   library code, hash-ordered iteration, hot-path allocation, mixed
//!   time-unit arithmetic and wide handles (unwraps and wall-clock
//!   reads are clippy's, via the crate roots and `clippy.toml`);
//! * the runtime invariant auditor and lockdep graph themselves live in
//!   the `devpoll` crate; the lanes switch them on through
//!   `DevPollRegistry::audited()` (debug builds run them everywhere).
//!
//! The `simcheck` binary wires them into CI; see `README.md`.

pub mod explore;
pub mod lane;
pub mod lint;
pub mod model;
pub mod script;
