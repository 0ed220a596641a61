//! The CI benchmark gate: compares a freshly emitted `BENCH.json`
//! against the checked-in `BENCH_BASELINE.json` and exits non-zero on
//! drift.
//!
//! ```text
//! bench_gate [--baseline FILE] [--current FILE] [--rate-tol F]
//!            [--err-tol F] [--latency-tol F] [--throughput-factor F]
//!            [--mem-factor F] [--strict-digest]
//! ```
//!
//! Defaults: baseline `BENCH_BASELINE.json`, current `BENCH.json`,
//! tolerances from `bench::GateTolerance::default()` (10% reply rate,
//! 5 error points, 50% latency above a 1 ms floor), and the throughput
//! lane advisory (`--throughput-factor F` turns a per-sweep
//! events-per-second drop below `baseline / F` into a failure; without
//! it large drops are notes). `--mem-factor F` gates
//! the memory lane the same way: a sweep whose server bytes/connection
//! grow beyond `baseline * F` fails instead of noting.
//! Intentional perf/behaviour changes are shipped by refreshing the
//! baseline in the same commit — see EXPERIMENTS.md "Benchmark gate".
//!
//! When the gate goes red under GitHub Actions (`GITHUB_STEP_SUMMARY`
//! set), a per-sweep baseline-vs-current lane diff — reply rate, median
//! latency, events/s — is appended to the job summary.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{compare, flag_value, lane_diff_markdown, BenchReport, GateTolerance};

fn main() -> ExitCode {
    let mut baseline_path = PathBuf::from("BENCH_BASELINE.json");
    let mut current_path = PathBuf::from("BENCH.json");
    let mut tol = GateTolerance::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_path = flag_value("--baseline", args.next().as_deref()),
            "--current" => current_path = flag_value("--current", args.next().as_deref()),
            "--rate-tol" => tol.rate_rel = flag_value("--rate-tol", args.next().as_deref()),
            "--err-tol" => tol.err_abs = flag_value("--err-tol", args.next().as_deref()),
            "--latency-tol" => {
                tol.latency_rel = flag_value("--latency-tol", args.next().as_deref())
            }
            "--throughput-factor" => {
                tol.throughput_factor =
                    Some(flag_value("--throughput-factor", args.next().as_deref()))
            }
            "--mem-factor" => {
                tol.mem_factor = Some(flag_value("--mem-factor", args.next().as_deref()))
            }
            "--strict-digest" => tol.strict_digest = true,
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
    let outcome = compare(&baseline, &current, &tol);
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
