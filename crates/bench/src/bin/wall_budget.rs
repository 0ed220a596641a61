//! Nightly wall-time budget check: parses a `BENCH.json`, prints the
//! per-sweep wall table (every sweep, costliest first), and fails when
//! the summed per-sweep wall time exceeds the budget.
//!
//! ```text
//! wall_budget --budget-ms N [--report FILE]
//! ```
//!
//! The per-sweep `wall_ms` fields are summed per-run, so the check is
//! immune to `--jobs` overlap: it measures the work done, not how the
//! scheduler packed it. The step-level `timeout-minutes` in the
//! workflow is the hang backstop; this check is the graceful one that
//! still leaves `BENCH.json` behind, and its table names the sweeps
//! that ate the budget.
//!
//! Exit codes: 0 within budget, 1 over budget, 2 usage/parse error.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{flag_value, BenchReport};

fn main() -> ExitCode {
    let mut report_path = PathBuf::from("BENCH.json");
    let mut budget_ms: Option<f64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => report_path = flag_value("--report", args.next().as_deref()),
            "--budget-ms" => budget_ms = Some(flag_value("--budget-ms", args.next().as_deref())),
            other => {
                eprintln!("unknown flag {other:?}; see src/bin/wall_budget.rs docs");
                return ExitCode::from(2);
            }
        }
    }
    let Some(budget_ms) = budget_ms else {
        eprintln!("wall_budget: --budget-ms is required");
        return ExitCode::from(2);
    };

    let report = match std::fs::read_to_string(&report_path)
        .map_err(|e| e.to_string())
        .and_then(|text| BenchReport::from_json(&text))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wall_budget: cannot load {}: {e}", report_path.display());
            return ExitCode::from(2);
        }
    };

    let total: f64 = report.sweeps.iter().map(|s| s.wall_ms).sum();
    let mut rows: Vec<_> = report.sweeps.iter().collect();
    rows.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
    println!(
        "wall_budget: {} — {} sweeps, {:.1}s summed per-sweep wall \
         (harness end-to-end {:.1}s), budget {:.1}s",
        report_path.display(),
        report.sweeps.len(),
        total / 1e3,
        report.total_wall_ms / 1e3,
        budget_ms / 1e3,
    );
    for s in rows {
        println!(
            "  {:<28} load {:>5}  {:>9.1} ms  {:>12.0} events/s",
            s.server,
            s.inactive,
            s.wall_ms,
            s.events_per_wall_sec().unwrap_or(0.0),
        );
    }

    if total > budget_ms {
        println!(
            "wall_budget: OVER BUDGET by {:.1}s — the sweeps above say where \
             it went",
            (total - budget_ms) / 1e3
        );
        ExitCode::FAILURE
    } else {
        println!(
            "wall_budget: OK — {:.0}% of budget used",
            100.0 * total / budget_ms
        );
        ExitCode::SUCCESS
    }
}
