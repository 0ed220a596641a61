//! CLI for regenerating the paper's figures.
//!
//! ```text
//! figures [--conns N] [--seed S] [--jobs N] [--out DIR] [--bench-out FILE]
//!         [--trace-export DIR] <target>...
//! targets: fig4 .. fig14 | all | extensions | hybrid | ablate-hints |
//!          ablate-mmap | ablate-combined | ablate-batch | herd | docsize |
//!          sendfile | loss | select | cpu-scaling | latency-anatomy |
//!          million
//! ```
//!
//! Every target runs the paper's configuration: 13 request rates
//! (500–1100) at 35,000 connections a point (`--conns` overrides the
//! count). `figures --jobs 2 all million` is the benchmark gate's run.
//!
//! `million` sweeps the held-open population 10^4 → 10^5 → 10^6 for
//! `poll()` and `/dev/poll` at a fixed request rate, charting the
//! reply-rate/latency knees and the server bytes-per-connection lane.
//!
//! `latency-anatomy` runs span-enabled sweeps of the five mechanisms
//! (select, poll, devpoll, phhttpd, hybrid) and emits one stacked
//! per-phase latency breakdown per mechanism; the span-enabled sweeps
//! land in `BENCH.json` under `<server>+spans` labels. `--trace-export
//! DIR` additionally runs one retained-record run per mechanism and
//! writes `trace-<server>.json` (Chrome trace, load in
//! `chrome://tracing` / Perfetto) and `trace-<server>.folded`
//! (flamegraph input) under DIR.
//!
//! Each figure is printed as an ASCII chart and written as CSV under the
//! output directory (default `target/figures/`). Sweeps fan out over
//! `--jobs` worker threads (default: `BENCH_JOBS`, then the machine's
//! parallelism); output is byte-identical at every worker count. Every
//! invocation also writes a `BENCH.json` perf record (see
//! `bench::baseline`) for the benchmark gate.

use std::fs;
use std::path::PathBuf;

use bench::figures::{
    anatomy_grid, anatomy_kinds, extensions_grid, million_grid, paper_grid, sweep_label, EXTENSIONS,
};
use bench::{
    effective_jobs, flag_value, flag_value_where, FigureConfig, FigureRunner, PAPER_FIGURES,
};
use simcore::series::Figure;

/// Milliseconds since the first call — the monotonic clock injected
/// into the (wall-clock-free) library for `BENCH.json` wall fields.
#[allow(clippy::disallowed_methods)] // the one clock read; injected via `with_clock`
fn now_ms() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// Targets that are neither a paper figure nor an extension figure.
const SWEEPS: [&str; 5] = [
    "all",
    "extensions",
    "cpu-scaling",
    "latency-anatomy",
    "million",
];

/// Prints `msg` and exits 2: a usage error, found before anything runs.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

fn main() {
    let started = now_ms();
    let mut config = FigureConfig::default();
    let mut out_dir = PathBuf::from("target/figures");
    let mut bench_out = PathBuf::from("BENCH.json");
    let mut jobs_flag: Option<usize> = None;
    let mut trace_export: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--conns" => {
                config.conns =
                    flag_value_where("--conns", args.next().as_deref(), "at least 1", |&n| n > 0)
            }
            "--seed" => config.seed = flag_value("--seed", args.next().as_deref()),
            "--jobs" => jobs_flag = Some(flag_value("--jobs", args.next().as_deref())),
            "--out" => out_dir = flag_value("--out", args.next().as_deref()),
            "--bench-out" => bench_out = flag_value("--bench-out", args.next().as_deref()),
            "--trace-export" => {
                trace_export = Some(flag_value("--trace-export", args.next().as_deref()))
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    // Every target is checked before the first one runs.
    for t in &targets {
        let known = SWEEPS.contains(&t.as_str())
            || PAPER_FIGURES.contains(&t.as_str())
            || EXTENSIONS.iter().any(|(name, _)| name == t);
        if !known {
            usage_error(&format!("unknown target {t:?}"));
        }
    }
    let jobs = effective_jobs(jobs_flag);

    fs::create_dir_all(&out_dir).expect("create output dir");
    let mut runner = FigureRunner::new(config).with_jobs(jobs).with_clock(now_ms);
    if jobs > 1 {
        eprintln!("[executor: {jobs} worker threads]");
    }

    // Every cached sweep the targets read runs in one batch, largest
    // worlds first, so that no worker idles behind the longest world
    // while another target's sweeps wait for a batch of their own.
    let (mut rates, mut span_rates, mut million) = (Vec::new(), Vec::new(), Vec::new());
    for t in &targets {
        match t.as_str() {
            "all" => rates.extend(paper_grid()),
            "extensions" => rates.extend(extensions_grid()),
            "latency-anatomy" => span_rates.extend(anatomy_grid(251)),
            "million" => million.extend(million_grid()),
            _ => {}
        }
    }
    runner.prefetch_batch(&rates, &span_rates, &million);

    let emit = |name: &str, figs: Vec<Figure>| {
        for (i, fig) in figs.iter().enumerate() {
            let suffix = if figs.len() > 1 {
                format!("{}_{}", name, (b'a' + i as u8) as char)
            } else {
                name.to_string()
            };
            let csv_path = out_dir.join(format!("{suffix}.csv"));
            fs::write(&csv_path, fig.to_csv()).expect("write csv");
            println!("\n{}", fig.to_ascii(72, 18));
            println!("[written {}]", csv_path.display());
        }
    };

    for t in targets {
        match t.as_str() {
            "all" => {
                for id in PAPER_FIGURES {
                    eprintln!("== {id} ==");
                    let figs = runner.paper_figure(id);
                    emit(id, figs);
                }
            }
            "extensions" => {
                for (name, figure) in EXTENSIONS {
                    eprintln!("== {name} ==");
                    emit(&name.replace('-', "_"), figure(&mut runner));
                }
            }
            "cpu-scaling" => emit("cpu_scaling", runner.cpu_scaling_figure(501)),
            "latency-anatomy" => {
                for kind in anatomy_kinds() {
                    eprintln!("== anatomy {} ==", kind.label());
                    let fig = runner.latency_anatomy_figure(kind, 251);
                    emit(&format!("anatomy_{}", sanitize(&kind.label())), vec![fig]);
                }
            }
            "million" => {
                eprintln!("== million ==");
                emit("million", runner.million_figures());
            }
            id if PAPER_FIGURES.contains(&id) => {
                eprintln!("== {id} ==");
                let figs = runner.paper_figure(id);
                emit(id, figs);
            }
            other => {
                let (name, figure) = EXTENSIONS
                    .iter()
                    .find(|(n, _)| *n == other)
                    .expect("targets are checked before any runs");
                emit(&name.replace('-', "_"), figure(&mut runner));
            }
        }
    }

    // Kernel probe snapshots for every sweep that ran: one text table
    // and one JSON-lines file per (server, inactive load), beside the
    // CSVs. These carry the mechanism counters (devpoll.driver_polls_
    // avoided, devpoll.cache_revalidations, rtsig.overflows, ...) that
    // explain the curves.
    for (&(spans, kind, inactive), reports) in runner.cached_sweeps() {
        let label = sweep_label(spans, kind);
        let base = format!("{}_load{}", sanitize(&label), inactive);
        let mut text = String::new();
        let mut jsonl = String::new();
        for r in reports {
            text.push_str(&format!(
                "## {} rate={} load={}\n",
                r.server, r.target_rate, r.inactive
            ));
            text.push_str(&r.probe.to_text());
            text.push('\n');
            let rate = format!("{}", r.target_rate);
            let load = format!("{inactive}");
            jsonl.push_str(&r.probe.to_json_lines_with(&[
                ("server", label.as_str()),
                ("rate", rate.as_str()),
                ("inactive", load.as_str()),
            ]));
        }
        let txt_path = out_dir.join(format!("{base}.probes.txt"));
        let jsonl_path = out_dir.join(format!("{base}.probes.jsonl"));
        fs::write(&txt_path, text).expect("write probe text");
        fs::write(&jsonl_path, jsonl).expect("write probe jsonl");
        println!("[written {}]", txt_path.display());
        println!("[written {}]", jsonl_path.display());
    }

    // Full span exports: one retained-record run per mechanism, at the
    // middle of the paper's rate range. Chrome-trace JSON for a
    // timeline viewer, folded stacks for a flamegraph.
    if let Some(dir) = &trace_export {
        fs::create_dir_all(dir).expect("create trace export dir");
        for (kind, r) in runner.span_traces(700.0, 251) {
            let label = sanitize(&kind.label());
            let json_path = dir.join(format!("trace-{label}.json"));
            let folded_path = dir.join(format!("trace-{label}.folded"));
            fs::write(&json_path, &r.span_chrome).expect("write chrome trace");
            fs::write(&folded_path, &r.span_folded).expect("write folded stacks");
            println!("[written {}]", json_path.display());
            println!("[written {}]", folded_path.display());
        }
    }

    // The perf record for the benchmark gate.
    let report = runner.bench_report("figures", now_ms() - started);
    fs::write(&bench_out, report.to_json()).expect("write BENCH.json");
    println!("[written {}]", bench_out.display());

    // Simulator throughput of this run. `wall_budget` prints the
    // per-sweep wall table from the same BENCH.json.
    let total_events: u64 = report.sweeps.iter().map(|s| s.events).sum();
    if report.total_wall_ms > 0.0 && total_events > 0 {
        eprintln!(
            "[throughput: {} events in {:.1}s wall = {:.0} events/s]",
            total_events,
            report.total_wall_ms / 1e3,
            total_events as f64 / (report.total_wall_ms / 1e3)
        );
    }
}

/// Makes a sweep label safe for a file name (`devpoll(h=0,m=1,c=0)` →
/// `devpoll_h_0_m_1_c_0`).
fn sanitize(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}
