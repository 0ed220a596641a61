//! Wall-clock benchmark of the simulated testbed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <devpoll|poll|rtsig|devpoll_10k> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A workload is one server architecture under one load. `--seed` derives
//! a fixed set of simulated worlds (the inputs); the benchmark replays them
//! round-robin for `--seconds` of wall time, checks every replay against
//! the library's own `run_one` result for that world and against what the
//! workload's load must produce, and prints one JSON object as the last
//! line of standard output. An operation is one replay; it fails when its
//! outcome is wrong. Simulated requests that time out past a server's knee
//! are part of a correct outcome, not failed operations.
//!
//! With `--trace 0` the replays go through the library's `Testbed` and the
//! object carries the end-to-end metrics:
//! - `run_ms`: wall time of one replay (build, warm-up, run, report,
//!   teardown), the fastest 2% of replays, host-normalised by the fastest
//!   2% of the run's reference timings (see [`host`] and [`FASTEST`]);
//! - `server_mem_kib`: server-side heap (kernel tables, `/dev/poll`
//!   interest pages) at the end of a run;
//! - `setup_s`: wall time to build the world, start the server and connect
//!   the idle population, the fastest 2% of replays, normalised the same
//!   way.
//!
//! Standard error carries the raw fastest-2% replay time and the
//! reference timing it was normalised by, so a change that moves the
//! reference can be told from one that moves the program.
//!
//! With `--trace 1` they go through [`drain::TracedBed`], a copy of the
//! testbed's drain loop that times each layer call on a sample of the
//! simulated instants, and the object carries the per-layer metrics: calls
//! per replay and nanoseconds per call for each phase of the loop, the
//! share of replay time those account for, and kernel probe counters.

mod drain;
mod host;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::figures::million_params;
use devpoll::{DevPollBackend, StockPollBackend};
use httperf::{run_one, RunParams, RunReport, ServerKind, Testbed};
use servers::{PhConfig, Phhttpd, Server, ServerCtx, Thttpd};
use simcore::time::SimTime;

use crate::drain::{Stats, TracedBed, PHASES};

/// Worlds derived from one `--seed`. Replaying a handful of worlds
/// instead of one keeps a run's figures from resting on a single input.
const WORLDS: u64 = 8;

/// Requests of every run: httperf's `--num-conns`, offered open loop.
const CONNS: u64 = 2000;

/// Quantile of the replay (and reference) timings reported. Every replay
/// does the same simulated work and neighbours only ever add time, so the
/// fast end is the program's own cost; a median follows the neighbours'
/// load. Neighbours slow the simulator for seconds at a time, by more
/// than they slow the reference, so the lower the quantile the likelier a
/// run's figure comes from uncontended replays: over a 5-minute log,
/// 25-second windows read within 1% of each other at the fastest 2% and
/// up to 10% apart at the fastest tenth. A run holds ~1000 replays, so 2%
/// still rests on ~20.
const FASTEST: f64 = 0.02;

/// One server architecture under one load, taken from the figures.
struct Workload {
    name: &'static str,
    params: fn(u64) -> RunParams,
    /// Past the server's knee: some requests must fail, and each failure
    /// must be accounted for.
    overload: bool,
}

/// Two loads below their server's knee, where no request may fail, and
/// two past it, where the overload paths (listen-queue SYN drops, client
/// timeouts, error accounting) must run:
/// - `devpoll`: `/dev/poll` thttpd at 1000 req/s over 501 idle
///   connections (Fig. 9); the device's hint path and result scan.
/// - `poll`: stock `poll()` thttpd at 800 req/s over 501 idle connections,
///   where it has collapsed (Figs. 8, 10b); an O(open fds) scan per wait.
/// - `rtsig`: phhttpd on RT signals at 1000 req/s over 501 idle
///   connections, where it is capped (Fig. 13); per-descriptor signal
///   queueing, SYN drops at the listen queue.
/// - `devpoll_10k`: the million-connection lane's first point, `/dev/poll`
///   over 10^4 held-open connections; interest tables span several pages
///   and the set-up connects the whole population.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "devpoll",
        params: devpoll_params,
        overload: false,
    },
    Workload {
        name: "poll",
        params: poll_params,
        overload: true,
    },
    Workload {
        name: "rtsig",
        params: rtsig_params,
        overload: true,
    },
    Workload {
        name: "devpoll_10k",
        params: devpoll_10k_params,
        overload: false,
    },
];

fn devpoll_params(seed: u64) -> RunParams {
    RunParams::paper(ServerKind::ThttpdDevPoll, 1000.0, 501)
        .with_conns(CONNS)
        .with_seed(seed)
}

fn poll_params(seed: u64) -> RunParams {
    RunParams::paper(ServerKind::ThttpdPoll, 800.0, 501)
        .with_conns(CONNS)
        .with_seed(seed)
}

fn rtsig_params(seed: u64) -> RunParams {
    RunParams::paper(ServerKind::Phhttpd, 1000.0, 501)
        .with_conns(CONNS)
        .with_seed(seed)
}

fn devpoll_10k_params(seed: u64) -> RunParams {
    million_params(seed, ServerKind::ThttpdDevPoll, 10_000)
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?;
                workload = Some(w);
            }
            "--seed" => seed = Some(parse_num(&flag, &value)?),
            "--seconds" => seconds = Some(parse_num(&flag, &value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn parse_num(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

/// SplitMix64: spreads consecutive world indices over the seed space.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a run must reproduce exactly: the simulated model's outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    attempted: u64,
    replies: u64,
    errors: u64,
    server_replies: u64,
    probe_digest: u64,
}

impl Outcome {
    fn of(r: &RunReport) -> Outcome {
        Outcome {
            attempted: r.attempted,
            replies: r.replies,
            errors: r.errors.total(),
            server_replies: r.server_metrics.replies,
            probe_digest: r.probe.digest(),
        }
    }

    /// Every launched request resolved exactly once and every reply the
    /// client counted is one the server sent. Below the knee nothing
    /// fails; past it some requests must time out (the server may still
    /// answer those late).
    fn holds(&self, overload: bool) -> bool {
        let resolved = self.attempted == CONNS
            && self.replies + self.errors == self.attempted
            && self.server_replies >= self.replies;
        resolved
            && if overload {
                self.errors > 0
            } else {
                self.errors == 0 && self.server_replies == self.replies
            }
    }
}

/// One simulated world: its parameters and the reference result the
/// library's `run_one` produced for it.
struct World {
    params: RunParams,
    expect: Outcome,
    events: u64,
    server_bytes: u64,
    probe: [u64; PROBES.len()],
}

/// Kernel probe counters reported per run in the per-layer output.
const PROBES: [&str; 5] = [
    "kernel.wakeups",
    "devpoll.scans",
    "devpoll.driver_polls",
    "tcp.syn_drops",
    "tcp.retransmits",
];

fn worlds(w: &Workload, seed: u64) -> Vec<World> {
    (0..WORLDS)
        .map(|i| {
            let params = (w.params)(splitmix(seed.wrapping_mul(WORLDS).wrapping_add(i)));
            let report = run_one(params.clone());
            World {
                expect: Outcome::of(&report),
                events: report.events,
                server_bytes: report.mem_server_bytes,
                probe: PROBES.map(|name| report.probe.counter(name)),
                params,
            }
        })
        .collect()
}

/// Builds the testbed and server `run_one` would build for `p` (the
/// workload table uses only these three architectures).
fn build(p: &RunParams) -> (Testbed, Box<dyn Server>) {
    let mut bed = Testbed::new(p.cost, p.tcp, p.link, p.load.clone());
    let mut ctx = ServerCtx {
        kernel: &mut bed.kernel,
        net: &mut bed.net,
        registry: &mut bed.registry,
        now: SimTime::ZERO,
    };
    let server: Box<dyn Server> = match p.kind {
        ServerKind::ThttpdDevPoll => {
            Box::new(Thttpd::new(&mut ctx, DevPollBackend::new(), p.server))
        }
        ServerKind::ThttpdPoll => {
            Box::new(Thttpd::new(&mut ctx, StockPollBackend::new(), p.server))
        }
        ServerKind::Phhttpd => Box::new(Phhttpd::new(&mut ctx, p.server, PhConfig::default())),
        other => panic!("unsupported server {}", other.label()),
    };
    (bed, server)
}

/// Per-replay measurements, in replay order, in raw nanoseconds.
#[derive(Default)]
struct Samples {
    /// Build, start and warm-up (the idle population connecting).
    setup_ns: Vec<f64>,
    /// The whole replay, set-up included.
    run_ns: Vec<f64>,
    ns_per_event: Vec<f64>,
    /// The host reference, timed after each replay.
    reference_ns: Vec<f64>,
    /// Replays whose outcome was wrong.
    mismatches: u64,
}

/// Per-phase totals of the traced replays.
struct Trace {
    /// What a lap's clock read adds to each timed call, per replay.
    clock_ns: Vec<f64>,
    calls: [u64; PHASES.len()],
    sampled_calls: [u64; PHASES.len()],
    /// Timed nanoseconds less the clock reads.
    own_ns: [f64; PHASES.len()],
}

impl Trace {
    fn new() -> Trace {
        Trace {
            clock_ns: Vec::new(),
            calls: [0; PHASES.len()],
            sampled_calls: [0; PHASES.len()],
            own_ns: [0.0; PHASES.len()],
        }
    }

    /// Adds one replay, measuring the clock read's cost right after it.
    fn add(&mut self, stats: &Stats) {
        let clock_ns = drain::clock_read_ns();
        self.clock_ns.push(clock_ns);
        for (p, s) in stats.phases.iter().enumerate() {
            self.calls[p] += s.calls;
            self.sampled_calls[p] += s.sampled_calls;
            self.own_ns[p] += s.sampled_ns as f64 - clock_ns * s.sampled_calls as f64;
        }
    }
}

/// Replays the worlds round-robin until `budget` has passed, through the
/// library testbed, or through the traced loop when `trace` is given.
/// Times the host reference after each replay.
fn measure(
    w: &Workload,
    worlds: &[World],
    budget: Duration,
    mut trace: Option<&mut Trace>,
    seed: u64,
) -> Samples {
    let reference = host::Reference::start();
    let mut s = Samples::default();
    let start = Instant::now();
    for (i, world) in worlds.iter().cycle().enumerate() {
        let p = &world.params;
        let warm = SimTime::ZERO + p.load.warmup;
        let t0 = Instant::now();
        let (mut bed, mut server) = build(p);
        let (t1, report, stats) = if trace.is_some() {
            let mut bed = TracedBed::new(bed, splitmix(seed ^ i as u64));
            bed.start(server.as_mut());
            bed.run(server.as_mut(), warm);
            let t1 = Instant::now();
            bed.run(server.as_mut(), p.horizon);
            let (report, stats) = bed.finish(server.as_ref());
            (t1, report, Some(stats))
        } else {
            bed.start(server.as_mut());
            bed.run(server.as_mut(), warm);
            let t1 = Instant::now();
            bed.run(server.as_mut(), p.horizon);
            (t1, bed.report(server.as_ref()), None)
        };
        let events = stats.as_ref().map_or(report.events, |st| st.events);
        let got = Outcome::of(&report);
        // Freeing the world is part of a replay's cost.
        drop((report, server));
        let t2 = Instant::now();
        let run_ns = (t2 - t0).as_nanos() as f64;
        s.setup_ns.push((t1 - t0).as_nanos() as f64);
        s.run_ns.push(run_ns);
        s.ns_per_event.push(run_ns / events.max(1) as f64);
        if let (Some(totals), Some(stats)) = (trace.as_deref_mut(), &stats) {
            totals.add(stats);
        }
        s.reference_ns.push(reference.time_ns());
        if got != world.expect || events != world.events || !got.holds(w.overload) {
            s.mismatches += 1;
            eprintln!(
                "mismatch: expected {:?} in {} events, got {got:?} in {events}",
                world.expect, world.events
            );
        }
        if t2 - start >= budget {
            break;
        }
    }
    s
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// One `"name": {"value": v, "unit": u}` member.
fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let worlds = worlds(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let mut metrics = Vec::new();
    let samples = if args.trace {
        let mut trace = Trace::new();
        let s = measure(w, &worlds, budget, Some(&mut trace), args.seed);
        // Per-call times average over every host state of the run, so
        // they are normalised by the median reference.
        let reference = median(&s.reference_ns);
        let runs = s.run_ns.len() as f64;
        let mut attributed_ns = 0.0;
        for (p, name) in PHASES.iter().enumerate() {
            let own_ns = trace.own_ns[p] / trace.sampled_calls[p].max(1) as f64;
            let ns_per_call = host::normalise(own_ns, reference).max(0.0);
            let calls = trace.calls[p] as f64 / runs;
            attributed_ns += ns_per_call * calls;
            metrics.push(metric(&format!("{name}.calls"), calls, "count"));
            metrics.push(metric(&format!("{name}.ns_per_call"), ns_per_call, "ns"));
        }
        let run_ns = host::normalise(mean(s.run_ns.iter().copied()), reference);
        metrics.push(metric(
            "attributed_pct",
            100.0 * attributed_ns / run_ns,
            "%",
        ));
        metrics.push(metric("clock_read_ns", median(&trace.clock_ns), "ns"));
        let ns_per_event = host::normalise(median(&s.ns_per_event), reference);
        metrics.push(metric("ns_per_event", ns_per_event, "ns"));
        let traced_ns = host::normalise(median(&s.run_ns), reference);
        metrics.push(metric("traced_run_ms", traced_ns / 1e6, "ms"));
        metrics.push(metric("raw_run_ms", median(&s.run_ns) / 1e6, "ms"));
        metrics.push(metric("reference_us", reference / 1e3, "us"));
        for (i, name) in PROBES.iter().enumerate() {
            let per_run = mean(worlds.iter().map(|wd| wd.probe[i] as f64));
            metrics.push(metric(name, per_run, "count"));
        }
        s
    } else {
        let s = measure(w, &worlds, budget, None, args.seed);
        // The host state the fastest replays ran in.
        let reference = quantile(&s.reference_ns, FASTEST);
        let raw_run_ns = quantile(&s.run_ns, FASTEST);
        let run_ns = host::normalise(raw_run_ns, reference);
        metrics.push(metric("run_ms", run_ns / 1e6, "ms"));
        metrics.push(metric(
            "server_mem_kib",
            mean(worlds.iter().map(|wd| wd.server_bytes as f64)) / 1024.0,
            "KiB",
        ));
        let setup_ns = host::normalise(quantile(&s.setup_ns, FASTEST), reference);
        metrics.push(metric("setup_s", setup_ns / 1e9, "s"));
        eprintln!(
            "perfbench: raw run {:.4} ms, reference {:.2} us (fastest 2%)",
            raw_run_ns / 1e6,
            reference / 1e3
        );
        s
    };
    let replays = samples.run_ns.len();
    eprintln!(
        "perfbench: {replays} replays of {} worlds, {} mismatches",
        worlds.len(),
        samples.mismatches
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {replays}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.mismatches == 0,
        samples.mismatches,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
