//! `scalable-net-io` — command-line front end for the benchmark testbed.
//!
//! ```text
//! scalable-net-io run     --server devpoll --rate 900 --inactive 251
//! scalable-net-io compare --rate 900 --inactive 251
//! scalable-net-io sweep   --server poll --inactive 501
//! ```
//!
//! Figures and ablations live in the bench crate:
//! `cargo run --release -p bench --bin figures -- all`.

use scalable_net_io::bench::figures::anatomy_kinds;
use scalable_net_io::bench::{effective_jobs, flag_value, flag_value_where, run_jobs};
use scalable_net_io::httperf::{run_one, LoadShape, RunParams, ServerKind};
use scalable_net_io::simcore::span::Phase;
use scalable_net_io::simcore::time::SimDuration;
use scalable_net_io::simkernel::AcceptWake;

struct Opts {
    server: ServerKind,
    rate: f64,
    inactive: usize,
    conns: u64,
    seed: u64,
    loss: f64,
    doc_bytes: Option<usize>,
    bursty: bool,
    mem: bool,
    json: bool,
    jobs: Option<usize>,
    trace_export: Option<String>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            server: ServerKind::ThttpdDevPoll,
            rate: 700.0,
            inactive: 251,
            conns: 8_000,
            seed: 42,
            loss: 0.0,
            doc_bytes: None,
            bursty: false,
            mem: false,
            json: false,
            jobs: None,
            trace_export: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: scalable-net-io <run|compare|sweep|stats|timeline> [options]\n\
         \n\
         commands:\n\
           run               one run, summary row\n\
           compare           one row per server architecture\n\
           sweep             rate sweep for one server\n\
           stats             one run, then the kernel probe snapshot\n\
                             (counters, gauges, latency histograms with\n\
                             p50/p90/p99)\n\
           timeline          one span-traced run, then the per-phase\n\
                             latency anatomy table (where each\n\
                             microsecond of request time went)\n\
         \n\
         options:\n\
           --server KIND     select|poll|devpoll|devpoll-sendfile|phhttpd|\n\
                             phhttpd-batch|hybrid|prefork-herd|prefork-excl\n\
           --rate R          targeted requests per second, above 0\n\
                             (default 700)\n\
           --inactive N      inactive connection population (default 251)\n\
           --conns N         connections per run, at least 1\n\
                             (default 8000)\n\
           --seed S          RNG seed (default 42)\n\
           --loss P          random segment loss probability in\n\
                             [0, 1] (default 0)\n\
           --doc-bytes N     served document size (default 6144)\n\
           --bursty          on/off burst arrivals instead of constant\n\
           --mem             stats: include the mem.* gauge family\n\
                             (server/client footprint bytes, peak\n\
                             concurrent connections, EMFILE rejections)\n\
           --json            stats: emit JSON lines instead of the table\n\
           --trace-export D  timeline: write trace.json (Chrome trace)\n\
                             and trace.folded (flamegraph input) into\n\
                             directory D\n\
           --jobs N          compare/sweep: worker threads (default:\n\
                             BENCH_JOBS, then available parallelism);\n\
                             rows always print in grid order\n\
         \n\
         figures: cargo run --release -p bench --bin figures -- all\n\
         checks:  cargo test -q (the shape tests in tests/shape_*.rs)"
    );
    std::process::exit(2);
}

/// A `--server` name: one of [`SERVER_NAMES`].
struct Server(ServerKind);

const SERVER_NAMES: &str = "one of select|poll|devpoll|devpoll-sendfile|phhttpd|\
                            phhttpd-batch|hybrid|prefork-herd|prefork-excl";

impl std::str::FromStr for Server {
    type Err = ();

    fn from_str(name: &str) -> Result<Server, ()> {
        Ok(Server(match name {
            "select" => ServerKind::ThttpdSelect,
            "poll" => ServerKind::ThttpdPoll,
            "devpoll" => ServerKind::ThttpdDevPoll,
            "devpoll-sendfile" => ServerKind::ThttpdDevPollSendfile,
            "phhttpd" => ServerKind::Phhttpd,
            "phhttpd-batch" => ServerKind::PhhttpdBatch(16),
            "hybrid" => ServerKind::Hybrid,
            "prefork-herd" => ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Herd,
            },
            "prefork-excl" => ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Exclusive,
            },
            _ => return Err(()),
        }))
    }
}

fn params(kind: ServerKind, opts: &Opts, rate: f64) -> RunParams {
    let mut p = RunParams::paper(kind, rate, opts.inactive)
        .with_conns(opts.conns)
        .with_seed(opts.seed);
    if opts.loss > 0.0 {
        p = p.with_loss(opts.loss);
    }
    if let Some(n) = opts.doc_bytes {
        p = p.with_doc_bytes(n);
    }
    if opts.bursty {
        p.load.shape = LoadShape::Bursty {
            period: SimDuration::from_millis(500),
            duty: 0.25,
        };
    }
    if opts.mem {
        p = p.with_mem_probes();
    }
    p
}

fn header() {
    println!(
        "{:<24} {:>7} {:>9} {:>9} {:>9} {:>7} {:>10} {:>10}",
        "server", "rate", "avg r/s", "min r/s", "max r/s", "err %", "median ms", "p90 ms"
    );
}

fn row(report: &mut scalable_net_io::httperf::RunReport) {
    let err = report.error_percent();
    let med = report.median_latency_ms();
    let p90 = report.latency_quantile_ms(0.9);
    println!(
        "{:<24} {:>7.0} {:>9.1} {:>9.1} {:>9.1} {:>7.1} {:>10.2} {:>10.2}",
        report.server,
        report.target_rate,
        report.rate.avg,
        report.rate.min,
        report.rate.max,
        err,
        med,
        p90,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut opts = Opts::default();
    while let Some(a) = args.next() {
        let flag = a.as_str();
        match flag {
            "--bursty" => opts.bursty = true,
            "--mem" => opts.mem = true,
            "--json" => opts.json = true,
            "--server" | "--rate" | "--inactive" | "--conns" | "--seed" | "--loss"
            | "--doc-bytes" | "--jobs" | "--trace-export" => {
                let value = args.next();
                let value = value.as_deref();
                match flag {
                    "--server" => {
                        opts.server =
                            flag_value_where(flag, value, SERVER_NAMES, |_: &Server| true).0
                    }
                    "--rate" => {
                        opts.rate =
                            flag_value_where(flag, value, "a finite rate above 0", |r: &f64| {
                                r.is_finite() && *r > 0.0
                            })
                    }
                    "--inactive" => opts.inactive = flag_value(flag, value),
                    "--conns" => {
                        opts.conns = flag_value_where(flag, value, "at least 1", |&n| n > 0)
                    }
                    "--seed" => opts.seed = flag_value(flag, value),
                    "--loss" => {
                        opts.loss = flag_value_where(flag, value, "a probability in [0, 1]", |p| {
                            (0.0..=1.0).contains(p)
                        })
                    }
                    "--doc-bytes" => opts.doc_bytes = Some(flag_value(flag, value)),
                    "--jobs" => opts.jobs = Some(flag_value(flag, value)),
                    _ => opts.trace_export = Some(flag_value(flag, value)),
                }
            }
            _ => usage(),
        }
    }

    match cmd.as_str() {
        "run" => {
            header();
            let mut r = run_one(params(opts.server, &opts, opts.rate));
            row(&mut r);
        }
        "stats" => {
            let mut r = run_one(params(opts.server, &opts, opts.rate));
            if opts.json {
                let rate = format!("{}", r.target_rate);
                let load = format!("{}", r.inactive);
                print!(
                    "{}",
                    r.probe.to_json_lines_with(&[
                        ("server", r.server.as_str()),
                        ("rate", rate.as_str()),
                        ("inactive", load.as_str()),
                    ])
                );
            } else {
                header();
                row(&mut r);
                println!("\n{}", r.probe.to_text());
                let quantiles = r.probe.quantiles_text();
                if !quantiles.is_empty() {
                    println!("\n{quantiles}");
                }
            }
        }
        "timeline" => {
            let mut r = run_one(params(opts.server, &opts, opts.rate).with_spans());
            header();
            row(&mut r);
            println!();
            println!(
                "{:<20} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
                "phase", "spans", "total_us", "p50_ns", "p90_ns", "p99_ns", "ns/reply"
            );
            for phase in Phase::ALL {
                let Some(h) = r.probe.histogram(phase.metric().name()) else {
                    continue;
                };
                let per_reply = if r.replies > 0 {
                    h.sum() as f64 / r.replies as f64
                } else {
                    0.0
                };
                println!(
                    "{:<20} {:>10} {:>12.1} {:>10} {:>10} {:>10} {:>10.0}",
                    phase.name(),
                    h.count(),
                    h.sum() as f64 / 1e3,
                    h.quantile_est(0.5),
                    h.quantile_est(0.9),
                    h.quantile_est(0.99),
                    per_reply,
                );
            }
            if let Some(dir) = &opts.trace_export {
                std::fs::create_dir_all(dir).expect("create trace export dir");
                let json = std::path::Path::new(dir).join("trace.json");
                let folded = std::path::Path::new(dir).join("trace.folded");
                std::fs::write(&json, &r.span_chrome).expect("write chrome trace");
                std::fs::write(&folded, &r.span_folded).expect("write folded stacks");
                println!("\n[written {}]", json.display());
                println!("[written {}]", folded.display());
            }
        }
        "compare" => {
            let mut reports = run_jobs(effective_jobs(opts.jobs), &anatomy_kinds(), |&kind| {
                run_one(params(kind, &opts, opts.rate))
            });
            header();
            for r in &mut reports {
                row(r);
            }
        }
        "sweep" => {
            let rates: Vec<f64> = (0..=6).map(|step| 500.0 + 100.0 * step as f64).collect();
            let mut reports = run_jobs(effective_jobs(opts.jobs), &rates, |&rate| {
                run_one(params(opts.server, &opts, rate))
            });
            header();
            for r in &mut reports {
                row(r);
            }
        }
        _ => usage(),
    }
}
