//! `bench` — the benchmark harness reproducing the evaluation of
//! *Scalable Network I/O in Linux* (Provos & Lever, USENIX 2000).
//!
//! * [`figures`] — regenerates every table/figure of §5 (Figs. 4–14)
//!   plus the hybrid-server extension and the ablation studies listed in
//!   `DESIGN.md`.
//! * [`executor`] — the deterministic parallel sweep executor: every
//!   (server, inactive load, request rate) point is an independent
//!   simulation world, fanned out over a scoped worker pool
//!   (`--jobs N` / `BENCH_JOBS`, default machine parallelism) and
//!   merged in canonical order so output is byte-identical to `--jobs
//!   1`.
//! * [`baseline`] — the versioned `BENCH.json` record every `figures`
//!   invocation emits, and the exact comparator the `bench_gate`
//!   binary runs against the checked-in `BENCH_BASELINE.json`: every
//!   deterministic field must be equal.
//! * `src/bin/figures.rs` — the CLI: `cargo run --release -p bench --bin
//!   figures -- all`.
//! * `src/bin/bench_gate.rs` — the CI gate: `cargo run --release -p
//!   bench --bin bench_gate`.
//! * `src/bin/wall_budget.rs` — the nightly wall-time budget, and the
//!   per-sweep wall table, costliest first.

#![deny(clippy::unwrap_used)]

pub mod baseline;
pub mod executor;
pub mod figures;

pub use baseline::{
    compare, config_fingerprint, BenchReport, PointRecord, SweepRecord, BENCH_VERSION,
};
pub use executor::{effective_jobs, run_jobs, JOBS_ENV};
pub use figures::{FigureConfig, FigureRunner, SweepKey, PAPER_FIGURES};

/// The value of a CLI flag for the bench binaries. A missing or
/// unparsable value is a usage error: print the flag and the value, and
/// exit 2, rather than run the default in its place.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> T {
    flag_value_where(flag, value, "a number", |_| true)
}

/// [`flag_value`] for a value that must also pass `ok`, which `expects`
/// describes: `--conns 0` is as much a usage error as `--conns 3k`.
pub fn flag_value_where<T: std::str::FromStr>(
    flag: &str,
    value: Option<&str>,
    expects: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        std::process::exit(2)
    };
    match value.parse() {
        Ok(v) if ok(&v) => v,
        _ => {
            eprintln!("{flag} expects {expects}, got {value:?}");
            std::process::exit(2)
        }
    }
}
