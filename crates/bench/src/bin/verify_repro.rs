//! Executable reproduction checklist: runs a compact grid and verifies
//! every shape claim from EXPERIMENTS.md, printing PASS/FAIL per claim.
//!
//! ```text
//! cargo run --release -p bench --bin verify_repro [--conns N] [--jobs N]
//! ```
//!
//! The grid's run points are independent simulation worlds, so they fan
//! out over the sweep executor (`--jobs` / `BENCH_JOBS`); checks are
//! evaluated afterwards in fixed order, so output is identical at any
//! worker count. Every invocation also writes a `BENCH.json` perf
//! record (see `bench::baseline`).
//!
//! Exit code 0 iff every claim holds.

use std::fmt::Write as _;

use bench::baseline::{group_runs, BenchReport, BENCH_VERSION};
use bench::{effective_jobs, flag_value, run_jobs};
use httperf::{run_one, LoadConfig, RunParams, RunReport, ServerKind};
use simcore::fingerprint::Fnv;
use simcore::probe::Snapshot;
use simkernel::AcceptWake;

struct Checker {
    failures: u32,
    checks: u32,
}

impl Checker {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks += 1;
        if ok {
            println!("PASS  {name}  ({detail})");
        } else {
            self.failures += 1;
            println!("FAIL  {name}  ({detail})");
        }
    }

    /// Like [`Checker::check`], but on FAIL ships the run's kernel probe
    /// snapshot so the regression is diagnosable from the log alone.
    fn check_probe(&mut self, name: &str, ok: bool, detail: String, probe: &Snapshot) {
        self.check(name, ok, detail);
        if !ok {
            for line in probe.to_text().lines() {
                println!("      | {line}");
            }
            println!(
                "      | if backend readiness looks wrong, bisect with the differential \
                 oracle: `cargo run -p simcheck -- oracle` (then `--replay <seed>` for \
                 the minimal event script)"
            );
        }
    }
}

/// Milliseconds since the first call (monotonic, bin-only — library
/// code stays wall-clock-free).
#[allow(clippy::disallowed_methods)] // the one clock read; injected via `with_clock`
fn now_ms() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

fn main() {
    let started = now_ms();
    let args: Vec<String> = std::env::args().collect();
    // `Some(value)` when the flag is present; a present flag without a
    // value yields `Some(None)`, which `flag_value` rejects.
    let flag = |name: &str| {
        let i = args.iter().position(|a| a == name)?;
        Some(args.get(i + 1).map(String::as_str))
    };
    let conns: u64 = flag("--conns").map_or(6_000, |v| flag_value("--conns", v));
    let jobs = effective_jobs(flag("--jobs").map(|v| flag_value("--jobs", v)));
    let bench_out = flag("--bench-out")
        .flatten()
        .unwrap_or("BENCH.json")
        .to_string();

    let no_hints = ServerKind::ThttpdDevPollWith {
        config: devpoll::DevPollConfig {
            hints: false,
            ..devpoll::DevPollConfig::default()
        },
        mmap: true,
        combined: false,
    };
    // The claim grid. Indices are load-bearing: the checks below pick
    // their runs by position.
    let grid: Vec<(ServerKind, f64, usize)> = vec![
        (ServerKind::ThttpdPoll, 900.0, 1),       // 0: fig4
        (ServerKind::ThttpdDevPoll, 900.0, 1),    // 1: fig5
        (ServerKind::ThttpdPoll, 1000.0, 251),    // 2: fig6
        (ServerKind::ThttpdPoll, 800.0, 501),     // 3: fig8
        (ServerKind::ThttpdDevPoll, 1000.0, 251), // 4: fig7
        (ServerKind::ThttpdDevPoll, 1000.0, 501), // 5: fig9
        (ServerKind::ThttpdPoll, 1100.0, 501),    // 6: fig10
        (ServerKind::Phhttpd, 1000.0, 501),       // 7: fig13
        (ServerKind::ThttpdDevPoll, 700.0, 251),  // 8: fig14
        (ServerKind::ThttpdPoll, 700.0, 251),     // 9: fig14
        (ServerKind::Phhttpd, 700.0, 251),        // 10: fig14 pre-knee
        (ServerKind::Phhttpd, 1100.0, 251),       // 11: fig14 post-knee
        (ServerKind::Hybrid, 1100.0, 251),        // 12: extension
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Herd,
            },
            500.0,
            251,
        ), // 13: herd
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Exclusive,
            },
            500.0,
            251,
        ), // 14: herd
        (no_hints, 1000.0, 501),                  // 15: ablation
    ];

    println!("verify_repro: {conns} connections per point, {jobs} worker thread(s)\n");

    let mut results: Vec<(RunReport, f64)> = run_jobs(jobs, &grid, |&(kind, rate, inactive)| {
        let t0 = now_ms();
        let report = run_one(RunParams::paper(kind, rate, inactive).with_conns(conns));
        (report, now_ms() - t0)
    });

    let mut c = Checker {
        failures: 0,
        checks: 0,
    };

    // -------- Figs. 4/5: light load, both clean --------
    for i in [0usize, 1] {
        let r = &results[i].0;
        c.check_probe(
            &format!("fig4/5 {} clean at 900/1", r.server),
            r.rate.avg > 0.97 * 900.0 && r.error_percent() < 1.0,
            format!("avg {:.0}, err {:.1}%", r.rate.avg, r.error_percent()),
            &r.probe,
        );
    }

    // -------- Figs. 6/8: stock collapses under inactive load --------
    let stock_251 = &results[2].0;
    c.check_probe(
        "fig6 stock collapses at 1000/251",
        stock_251.rate.avg < 0.7 * 1000.0 && stock_251.error_percent() > 20.0,
        format!(
            "avg {:.0}, err {:.1}%",
            stock_251.rate.avg,
            stock_251.error_percent()
        ),
        &stock_251.probe,
    );
    let stock_501 = &results[3].0;
    c.check_probe(
        "fig8 stock collapses at 800/501",
        stock_501.rate.avg < 0.75 * 800.0 && stock_501.error_percent() > 20.0,
        format!(
            "avg {:.0}, err {:.1}%",
            stock_501.rate.avg,
            stock_501.error_percent()
        ),
        &stock_501.probe,
    );

    // -------- Figs. 7/9: devpoll unaffected --------
    for (i, rate, inactive) in [(4usize, 1000.0, 251usize), (5, 1000.0, 501)] {
        let r = &results[i].0;
        c.check_probe(
            &format!("fig7/9 devpoll clean at {rate:.0}/{inactive}"),
            r.rate.avg > 0.97 * rate && r.error_percent() < 1.0,
            format!("avg {:.0}, err {:.1}%", r.rate.avg, r.error_percent()),
            &r.probe,
        );
    }

    // -------- Fig. 10: error ordering --------
    let stock_1100 = &results[6].0;
    c.check_probe(
        "fig10 stock errors approach 60% at 1100/501",
        stock_1100.error_percent() > 40.0,
        format!("err {:.1}%", stock_1100.error_percent()),
        &stock_1100.probe,
    );

    // -------- Figs. 12/13: phhttpd knees --------
    let ph_501 = &results[7].0;
    c.check_probe(
        "fig13 phhttpd capped below target at 1000/501",
        ph_501.rate.avg < 0.95 * 1000.0,
        format!("avg {:.0}", ph_501.rate.avg),
        &ph_501.probe,
    );
    c.check_probe(
        "fig13 phhttpd overflow meltdown happened",
        ph_501.server_metrics.overflows >= 1,
        format!("overflows {}", ph_501.server_metrics.overflows),
        &ph_501.probe,
    );

    // -------- Fig. 14: latency ordering --------
    let d = results[8].0.median_latency_ms();
    let s = results[9].0.median_latency_ms();
    let stock_probe = results[9].0.probe.clone();
    c.check_probe(
        "fig14 normal poll well above devpoll pre-knee",
        s > 2.0 * d,
        format!("poll {s:.2} ms vs devpoll {d:.2} ms"),
        &stock_probe,
    );
    let pl = results[10].0.median_latency_ms();
    let ph = results[11].0.median_latency_ms();
    let ph_hi_probe = results[11].0.probe.clone();
    c.check_probe(
        "fig14 phhttpd latency jumps past the knee",
        ph > 5.0 * pl,
        format!("{pl:.2} -> {ph:.2} ms"),
        &ph_hi_probe,
    );

    // -------- Extensions --------
    let hybrid = &results[12].0;
    c.check_probe(
        "hybrid keeps devpoll-class throughput at 1100/251",
        hybrid.rate.avg > 0.97 * 1100.0 && hybrid.error_percent() < 1.0,
        format!("avg {:.0}", hybrid.rate.avg),
        &hybrid.probe,
    );
    let herd = &results[13].0;
    let excl = &results[14].0;
    c.check_probe(
        "thundering herd: exclusive wake cuts wakeups",
        herd.kernel_wakeups as f64 > 1.5 * excl.kernel_wakeups as f64,
        format!(
            "herd {} vs exclusive {}",
            herd.kernel_wakeups, excl.kernel_wakeups
        ),
        &herd.probe,
    );
    let no_hints_run = &results[15].0;
    c.check_probe(
        "ablation: hints are load-bearing (no-hints devpoll collapses)",
        no_hints_run.rate.avg < 0.7 * 1000.0,
        format!("avg {:.0}", no_hints_run.rate.avg),
        &no_hints_run.probe,
    );

    println!("\n{} checks, {} failures", c.checks, c.failures);

    // The perf record for the benchmark gate. The fingerprint covers
    // the claim grid and the connection count, so a grid change demands
    // an intentional baseline refresh.
    let fingerprint = {
        let mut text = String::new();
        for (kind, rate, inactive) in &grid {
            let _ = write!(text, "{}@{rate}/{inactive};", kind.label());
        }
        let _ = write!(text, "conns={conns}");
        format!("{:016x}", Fnv::digest(text.as_bytes()))
    };
    let report = BenchReport {
        version: BENCH_VERSION,
        tool: "verify_repro".into(),
        seed: LoadConfig::default().seed,
        config: fingerprint,
        jobs,
        total_wall_ms: now_ms() - started,
        sweeps: group_runs(results),
    };
    if let Err(e) = std::fs::write(&bench_out, report.to_json()) {
        eprintln!("warning: cannot write {bench_out}: {e}");
    } else {
        println!("[written {bench_out}]");
    }

    if c.failures > 0 {
        std::process::exit(1);
    }
}
