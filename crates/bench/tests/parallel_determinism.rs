//! Parallel-vs-serial determinism: the sweep executor must produce
//! byte-identical figures, probe dumps and (wall-clock fields aside)
//! `BENCH.json` at every worker count. Run points are independent
//! simulation worlds merged in canonical key order, so `--jobs N` is an
//! execution detail, never an observable one.

use bench::{FigureConfig, FigureRunner};
use httperf::{RunReport, ServerKind};
use simkernel::AcceptWake;

fn tiny_config() -> FigureConfig {
    FigureConfig {
        rates: vec![500.0, 700.0, 900.0],
        conns: 500,
        seed: 42,
    }
}

/// Renders everything observable about a runner's cached sweeps: the
/// figure CSVs, the per-sweep probe JSON lines, and the normalized
/// bench report.
fn observable_output(runner: &mut FigureRunner) -> String {
    let mut out = String::new();
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdPoll, 1)
            .to_csv(),
    );
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdPoll, 251)
            .to_csv(),
    );
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdDevPoll, 251)
            .to_csv(),
    );
    out.push_str(&runner.latency_figure("t", 251).to_csv());
    for (&(_, kind, inactive), reports) in runner.cached_sweeps() {
        let label = kind.label();
        for r in reports {
            let rate = format!("{}", r.target_rate);
            let load = format!("{inactive}");
            out.push_str(&r.probe.to_json_lines_with(&[
                ("server", label.as_str()),
                ("rate", rate.as_str()),
                ("inactive", load.as_str()),
            ]));
        }
    }
    out.push_str(&runner.bench_report("figures", 123.0).normalized().to_json());
    out
}

#[test]
fn jobs_1_and_jobs_4_are_byte_identical() {
    let mut serial = FigureRunner::new(tiny_config());
    serial.verbose = false;
    let serial_out = observable_output(&mut serial);

    let mut parallel = FigureRunner::new(tiny_config()).with_jobs(4);
    parallel.verbose = false;
    let parallel_out = observable_output(&mut parallel);

    assert_eq!(
        serial_out, parallel_out,
        "parallel execution changed observable output"
    );
}

#[test]
fn prefetch_and_on_demand_sweeps_agree() {
    // `figures -- all` prefetches the whole grid as one batch; demand
    // paths fill sweep by sweep. Same worlds, same cache.
    let keys = [
        (ServerKind::ThttpdPoll, 251),
        (ServerKind::ThttpdDevPoll, 251),
        (ServerKind::Phhttpd, 251),
    ];
    let mut prefetched = FigureRunner::new(tiny_config()).with_jobs(3);
    prefetched.verbose = false;
    prefetched.prefetch(&keys);
    // A second prefetch of cached keys is a no-op.
    prefetched.prefetch(&keys);

    let mut on_demand = FigureRunner::new(tiny_config());
    on_demand.verbose = false;
    for &(kind, inactive) in &keys {
        on_demand.sweep(kind, inactive);
    }

    assert_eq!(
        prefetched
            .bench_report("figures", 0.0)
            .normalized()
            .to_json(),
        on_demand
            .bench_report("figures", 0.0)
            .normalized()
            .to_json(),
    );
}

/// FNV-1a over the rendered output — cheap, dependency-free, and enough
/// to pin the bytes.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sweep's probe JSON lines, tagged with server, rate and load. Test
/// builds run the `/dev/poll` invariant auditor, which must leave no
/// trace in the probes: a digest may not depend on whether it ran.
fn golden_probe_lines(kind: ServerKind, inactive: usize, reports: &[RunReport]) -> String {
    let label = kind.label();
    let load = format!("{inactive}");
    let mut out = String::new();
    for r in reports {
        let rate = format!("{}", r.target_rate);
        let lines = r.probe.to_json_lines_with(&[
            ("server", label.as_str()),
            ("rate", rate.as_str()),
            ("inactive", load.as_str()),
        ]);
        assert!(
            !lines.contains("\"audit."),
            "{label}/load {load}: the auditor leaked an `audit.` metric into the probes"
        );
        out.push_str(&lines);
    }
    out
}

/// Byte-identity against the pre-overhaul golden digest. The hot-path
/// rework (slab event arena, dense fd tables, pooled segments, scratch
/// reuse) is purely mechanical: every figure CSV and probe JSON line
/// must come out bit-for-bit the same as before it. The digest covers
/// the figure CSVs and probe dumps but not `BENCH.json`, whose schema
/// grew new fields (`events`, `sim_ms`) in the same change.
///
/// Throughput round 2 (batch event dispatch, incremental DP_POLL result
/// diffs via the dirty set, `ByteQueue` socket buffers, borrowed HTTP
/// parsing, pre-rendered responses) is held to the same constants: the
/// digest below is unchanged from before that round, so a pass proves
/// those optimisations never altered a single observable byte.
///
/// If this fails you changed simulation *behavior*, not just its speed.
/// Only refresh the constants for a change that intends new output.
///
/// Debug test builds run the `/dev/poll` invariant auditor, so this
/// also proves the auditor changes no observable byte.
#[test]
fn figures_and_probes_match_pre_overhaul_golden() {
    const GOLDEN_FNV: u64 = 0x16bf8231f958586c;
    const GOLDEN_LEN: usize = 54283;

    let mut runner = FigureRunner::new(tiny_config());
    runner.verbose = false;
    let mut out = String::new();
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdPoll, 1)
            .to_csv(),
    );
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdPoll, 251)
            .to_csv(),
    );
    out.push_str(
        &runner
            .reply_rate_figure("t", ServerKind::ThttpdDevPoll, 251)
            .to_csv(),
    );
    out.push_str(&runner.latency_figure("t", 251).to_csv());
    for (&(_, kind, inactive), reports) in runner.cached_sweeps() {
        out.push_str(&golden_probe_lines(kind, inactive, reports));
    }

    assert_eq!(out.len(), GOLDEN_LEN, "golden output length changed");
    assert_eq!(
        fnv1a(&out),
        GOLDEN_FNV,
        "golden output digest changed — simulation behavior drifted"
    );
}

/// Per-kind golden digests of the probe dump at load 251, for every
/// server kind the figures run — including the lanes the digest above
/// does not reach (select, sendfile, batch dequeue, the hybrid, prefork).
/// The rates are high enough that phhttpd overflows its RT queue and the
/// hybrid switches modes, so those paths are pinned too.
///
/// If one fails you changed that server's behaviour. Only refresh its
/// constants for a change that intends new output.
#[test]
fn every_server_kind_matches_its_golden() {
    const GOLDENS: [(ServerKind, u64, usize); 9] = [
        (ServerKind::ThttpdPoll, 0x12d8ec481655c356, 12560),
        (ServerKind::ThttpdSelect, 0x82fef564de881cdc, 12774),
        (ServerKind::ThttpdDevPoll, 0x5d4b97f7d0bea737, 16491),
        (ServerKind::ThttpdDevPollSendfile, 0xaa51a774ab251c5e, 17742),
        (ServerKind::Phhttpd, 0x0b627d15a221a370, 15740),
        (ServerKind::PhhttpdBatch(16), 0x96619a000ce5a4e6, 17349),
        (ServerKind::Hybrid, 0x4006a8bcce7a9d63, 17750),
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Herd,
            },
            0x2dce040854f93ac9,
            18200,
        ),
        (
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Exclusive,
            },
            0x540455cc44e10e3e,
            18189,
        ),
    ];
    const LOAD: usize = 251;

    let mut runner = FigureRunner::new(FigureConfig {
        rates: vec![600.0, 1000.0, 1400.0],
        conns: 4000,
        seed: 42,
    })
    .with_jobs(2);
    runner.verbose = false;
    let keys: Vec<_> = GOLDENS.iter().map(|&(kind, _, _)| (kind, LOAD)).collect();
    runner.prefetch(&keys);

    let mut drifted = Vec::new();
    for &(kind, fnv, len) in &GOLDENS {
        let reports = runner.sweep(kind, LOAD);
        let out = golden_probe_lines(kind, LOAD, reports);
        if (fnv1a(&out), out.len()) != (fnv, len) {
            drifted.push(format!(
                "{}: got ({:#018x}, {}), golden ({fnv:#018x}, {len})",
                kind.label(),
                fnv1a(&out),
                out.len()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "per-kind probe digests changed — server behaviour drifted:\n{}",
        drifted.join("\n")
    );

    let mut total = |kind: ServerKind, pick: fn(&servers::ServerMetrics) -> u64| -> u64 {
        runner
            .sweep(kind, LOAD)
            .iter()
            .map(|r| pick(&r.server_metrics))
            .sum()
    };
    for kind in [ServerKind::Phhttpd, ServerKind::PhhttpdBatch(16)] {
        assert!(
            total(kind, |m| m.overflows) >= 1,
            "{}: the pin must cover the RT-queue overflow path",
            kind.label()
        );
    }
    assert!(
        total(ServerKind::Hybrid, |m| m.mode_switches) >= 1,
        "hybrid: the pin must cover mode switching"
    );
}

#[test]
fn bench_report_roundtrips_through_json() {
    let mut runner = FigureRunner::new(FigureConfig {
        rates: vec![500.0, 700.0],
        conns: 300,
        seed: 7,
    });
    runner.verbose = false;
    runner.sweep(ServerKind::ThttpdDevPoll, 1);
    let report = runner.bench_report("figures", 42.5);
    let parsed = bench::BenchReport::from_json(&report.to_json()).expect("roundtrip parses");
    assert_eq!(parsed, report);
    assert_eq!(report.seed, 7);
    assert_eq!(report.sweeps.len(), 1);
    assert_eq!(report.sweeps[0].points.len(), 2);
    // Without an injected clock every wall field is already zero (the
    // deterministic library never reads the wall clock itself).
    assert_eq!(report.sweeps[0].wall_ms, 0.0);
}
