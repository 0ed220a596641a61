//! Shared by the shape tests: one run point at a fixed connection
//! count, and the assertion every shape claim goes through.

use scalable_net_io::httperf::{run_one, RunParams, RunReport, ServerKind};

/// Active connections per run point.
pub const CONNS: u64 = 3_000;

/// One benchmark run of `kind` at `rate` req/s over `inactive` idle
/// connections.
pub fn point(kind: ServerKind, rate: f64, inactive: usize) -> RunReport {
    run_one(RunParams::paper(kind, rate, inactive).with_conns(CONNS))
}

/// Asserts one shape claim about `report`. A failure names the claim
/// and the run, then prints the run's probe snapshot, so a red test
/// says which mechanism moved without a rerun.
#[track_caller]
pub fn claim(ok: bool, what: &str, report: &RunReport) {
    if !ok {
        panic!(
            "claim failed: {what}\nprobe snapshot of {} at {}/{}:\n{}\
             if backend readiness looks wrong, check every backend against \
             the reference model: `cargo run --release -p simcheck -- explore --walks 200`",
            report.server,
            report.target_rate,
            report.inactive,
            report.probe.to_text()
        );
    }
}
