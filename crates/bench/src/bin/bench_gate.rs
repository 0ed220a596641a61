//! The CI benchmark gate: compares a freshly emitted `BENCH.json`
//! against the checked-in `BENCH_BASELINE.json` and exits non-zero on
//! any difference.
//!
//! ```text
//! bench_gate [--baseline FILE] [--current FILE]
//! ```
//!
//! Defaults: baseline `BENCH_BASELINE.json`, current `BENCH.json`. The
//! check is equality on every deterministic field (see
//! `bench::baseline`): each differing field is printed by sweep, rate
//! and field with both values. Wall time is not compared. An
//! intentional model change ships with a refreshed baseline in the same
//! commit: `cp BENCH.json BENCH_BASELINE.json` after `figures --jobs 2 all
//! million` (see EXPERIMENTS.md "Benchmark gate").
//!
//! When the gate goes red under GitHub Actions (`GITHUB_STEP_SUMMARY`
//! set), the violation list is appended to the job summary.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{compare, flag_value, BenchReport};

fn main() -> ExitCode {
    let mut baseline_path = PathBuf::from("BENCH_BASELINE.json");
    let mut current_path = PathBuf::from("BENCH.json");

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline_path = flag_value("--baseline", args.next().as_deref()),
            "--current" => current_path = flag_value("--current", args.next().as_deref()),
            other => {
                eprintln!("unknown flag {other:?}; see src/bin/bench_gate.rs docs");
                return ExitCode::from(2);
            }
        }
    }

    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
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
    let violations = compare(&baseline, &current);
    if violations.is_empty() {
        let points: usize = baseline.sweeps.iter().map(|s| s.points.len()).sum();
        println!(
            "bench_gate: OK — {} sweep(s), {points} point(s) equal to the baseline",
            baseline.sweeps.len()
        );
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        println!("FAIL  {v}");
    }
    println!(
        "bench_gate: RED — {} field(s) differ. If this change is intentional, \
         refresh BENCH_BASELINE.json (see EXPERIMENTS.md).",
        violations.len()
    );
    // Inside GitHub Actions, the violation list goes to the job summary
    // so the moved fields are visible without downloading artifacts.
    if let Some(summary_path) = std::env::var_os("GITHUB_STEP_SUMMARY") {
        let mut md = String::from("## Bench gate: fields that differ from the baseline\n\n");
        for v in &violations {
            md.push_str(&format!("- {v}\n"));
        }
        use std::io::Write as _;
        let written = std::fs::OpenOptions::new()
            .append(true)
            .open(&summary_path)
            .and_then(|mut f| f.write_all(md.as_bytes()));
        if let Err(e) = written {
            eprintln!("bench_gate: cannot write job summary: {e}");
        }
    }
    ExitCode::FAILURE
}

fn load(path: &std::path::Path) -> Result<BenchReport, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| BenchReport::from_json(&text))
        .map_err(|e| format!("cannot load {}: {e}", path.display()))
}
