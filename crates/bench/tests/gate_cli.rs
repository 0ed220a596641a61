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

/// `figures` checks every flag and target before it runs anything: a
/// bad one exits 2 naming it, and no output directory or BENCH.json is
/// written (so no sweep ran ahead of the rejection).
#[test]
fn figures_rejects_bad_input_before_running() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_bad_input");
    let (out, bench) = (tmp.join("out"), tmp.join("BENCH.json"));
    let (out, bench) = (out.to_str().unwrap(), bench.to_str().unwrap());
    // There is one configuration, so `--quick` and a `million-smoke`
    // target are usage errors like any unknown flag or target.
    let cases: [(&[&str], &str); 8] = [
        (&["--conns", "0", "select"], "--conns"),
        (&["--conns", "3k", "select"], "--conns"),
        (&["--seed", "x", "select"], "--seed"),
        (&["all", "bogus"], "bogus"),
        (&["select", "--bogus"], "--bogus"),
        (&["fig99"], "fig99"),
        (&["--quick", "fig4"], "--quick"),
        (&["million-smoke"], "million-smoke"),
    ];
    for (args, offender) in cases {
        let mut full = vec!["--out", out, "--bench-out", bench];
        full.extend_from_slice(args);
        usage_error(bin, &full, offender);
        assert!(
            !std::path::Path::new(out).exists() && !std::path::Path::new(bench).exists(),
            "figures {args:?} wrote output before rejecting {offender}"
        );
    }
}

/// An unparsable `BENCH_JOBS` is a usage error naming it, not a silent
/// fall-back to the machine's parallelism; nothing runs ahead of it.
/// `--jobs` wins over the variable, so it is not read then.
#[test]
fn figures_rejects_an_unparsable_bench_jobs() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_bad_jobs_env");
    let (out, bench) = (tmp.join("out"), tmp.join("BENCH.json"));
    for value in ["two", "-1", "1.5"] {
        let run = Command::new(bin)
            .env(bench::JOBS_ENV, value)
            .arg("--out")
            .arg(&out)
            .arg("--bench-out")
            .arg(&bench)
            .arg("fig4")
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "BENCH_JOBS={value}: {stderr}");
        assert!(
            stderr.starts_with("BENCH_JOBS"),
            "BENCH_JOBS={value}: stderr does not lead with the variable: {stderr}"
        );
        assert!(
            !out.exists() && !bench.exists(),
            "BENCH_JOBS={value}: figures wrote output before rejecting it"
        );
    }
}
