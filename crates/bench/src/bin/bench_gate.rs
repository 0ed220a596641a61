//! The CI benchmark gate: compares a freshly emitted `BENCH.json`
//! against the checked-in `BENCH_BASELINE.json` and exits non-zero on
//! drift.
//!
//! ```text
//! bench_gate [--baseline FILE] [--current FILE] [--strict-digest]
//! ```
//!
//! Defaults: baseline `BENCH_BASELINE.json`, current `BENCH.json`. The
//! tolerances are fixed (see `bench::baseline`): 10% reply rate, 5
//! error points, 50% latency above a 1 ms floor, and per sweep a
//! throughput drop below `baseline / 1.25` events per wall-second or a
//! growth beyond `1.25 * baseline` server bytes per connection.
//! `--strict-digest` also fails on any probe-digest change (by default
//! a changed digest is a note): use it to check that a change leaves
//! every digest as it was.
//! Intentional perf/behaviour changes are shipped by refreshing the
//! baseline in the same commit — see EXPERIMENTS.md "Benchmark gate".
//!
//! When the gate goes red under GitHub Actions (`GITHUB_STEP_SUMMARY`
//! set), a per-sweep baseline-vs-current lane diff — reply rate, median
//! latency, events/s — is appended to the job summary.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{compare, flag_value, lane_diff_markdown, BenchReport};

fn main() -> ExitCode {
    let mut baseline_path = PathBuf::from("BENCH_BASELINE.json");
    let mut current_path = PathBuf::from("BENCH.json");
    let mut strict_digest = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_path = flag_value("--baseline", args.next().as_deref()),
            "--current" => current_path = flag_value("--current", args.next().as_deref()),
            "--strict-digest" => strict_digest = true,
            other => {
                eprintln!("unknown flag {other:?}; see src/bin/bench_gate.rs docs");
                return ExitCode::from(2);
            }
        }
    }

    let baseline = match load(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot load baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let current = match load(&current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot load current {}: {e}",
                current_path.display()
            );
            return ExitCode::from(2);
        }
    };

    println!(
        "bench_gate: {} ({} sweeps) vs baseline {} ({} sweeps)",
        current_path.display(),
        current.sweeps.len(),
        baseline_path.display(),
        baseline.sweeps.len()
    );
    for s in &current.sweeps {
        if let (Some(eps), Some(ratio)) = (s.events_per_wall_sec(), s.sim_per_wall()) {
            println!(
                "lane  {}/load {}: {:.0} events/s, {:.1} sim-s per wall-s",
                s.server, s.inactive, eps, ratio
            );
        }
        if let Some(bpc) = s.mem_bytes_per_conn() {
            println!(
                "mem   {}/load {}: {bpc:.1} B/conn ({} conns peak)",
                s.server, s.inactive, s.eps_peak
            );
        }
    }
    let outcome = compare(&baseline, &current, strict_digest);
    for note in &outcome.notes {
        println!("NOTE  {note}");
    }
    for violation in &outcome.violations {
        println!("FAIL  {violation}");
    }
    if outcome.ok() {
        println!(
            "bench_gate: OK — {} sweep(s) within tolerance ({} note(s))",
            baseline.sweeps.len(),
            outcome.notes.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "bench_gate: RED — {} violation(s). If this change is intentional, \
             refresh BENCH_BASELINE.json (see EXPERIMENTS.md).",
            outcome.violations.len()
        );
        // On a red gate inside GitHub Actions, append the per-sweep
        // baseline-vs-current lane diff (reply rate, latency, events/s)
        // to the job summary so the failing lane is visible without
        // downloading artifacts.
        if let Some(summary_path) = std::env::var_os("GITHUB_STEP_SUMMARY") {
            let md = lane_diff_markdown(&baseline, &current, &outcome);
            use std::io::Write as _;
            match std::fs::OpenOptions::new().append(true).open(&summary_path) {
                Ok(mut f) => {
                    if let Err(e) = f.write_all(md.as_bytes()) {
                        eprintln!("bench_gate: cannot write job summary: {e}");
                    }
                }
                Err(e) => eprintln!("bench_gate: cannot open job summary: {e}"),
            }
        }
        ExitCode::FAILURE
    }
}

fn load(path: &std::path::Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    BenchReport::from_json(&text)
}
