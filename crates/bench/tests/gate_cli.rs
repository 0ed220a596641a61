//! The bench binaries treat a missing or unparsable flag value as a
//! usage error — exit 2, naming the flag — rather than panicking (exit
//! 101) where CI reads a crash. So is a flag a binary does not take.

use std::process::Command;

fn usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin} must name {flag}: {stderr}");
}

#[test]
fn bench_gate_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_bench_gate");
    usage_error(bin, &["--baseline"], "--baseline");
    usage_error(bin, &["--current"], "--current");
    // The gate is exact: there is no digest strictness to choose.
    usage_error(bin, &["--strict-digest"], "--strict-digest");
}

#[test]
fn wall_budget_rejects_bad_flag_values() {
    let bin = env!("CARGO_BIN_EXE_wall_budget");
    usage_error(bin, &["--budget-ms", "10k"], "--budget-ms");
    usage_error(bin, &["--report"], "--report");
}

#[test]
fn figures_rejects_missing_path_values() {
    let bin = env!("CARGO_BIN_EXE_figures");
    usage_error(bin, &["--out"], "--out");
    usage_error(bin, &["--bench-out"], "--bench-out");
    usage_error(bin, &["--trace-export"], "--trace-export");
}
