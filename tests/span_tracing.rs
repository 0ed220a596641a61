//! Integration tests for the span-tracing layer (latency anatomy):
//! disabled tracing must not perturb the simulation by a single byte,
//! the Chrome-trace export must be identical no matter how many worker
//! threads ran the sweep, and the exported trace must be well-formed
//! JSON whose attributed time reconciles with end-to-end latency.

use scalable_net_io::bench::run_jobs;
use scalable_net_io::httperf::{run_one, RunParams, RunReport, ServerKind};
use scalable_net_io::simcore::span::Phase;

const CONNS: u64 = 2_000;

fn point(kind: ServerKind, rate: f64, inactive: usize) -> RunParams {
    RunParams::paper(kind, rate, inactive).with_conns(CONNS)
}

/// Strips the `span_ns.*` metric lines a span-enabled run adds to the
/// probe snapshot, leaving everything the disabled run would emit.
fn without_span_lines(json_lines: &str) -> String {
    json_lines
        .lines()
        .filter(|l| !l.contains("span_ns."))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn disabled_tracing_is_byte_identical() {
    // The zero-cost claim, tested from the outside: a span-enabled run
    // must produce *exactly* the baseline snapshot plus span_ns.*
    // histograms — same counters, same latency buckets, same reply
    // totals. Any charge added or moved by instrumentation would shift
    // a bucket somewhere and fail the byte comparison.
    for kind in [
        ServerKind::ThttpdSelect,
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdDevPoll,
        ServerKind::Phhttpd,
        ServerKind::Hybrid,
    ] {
        let plain = run_one(point(kind, 700.0, 251));
        let spanned = run_one(point(kind, 700.0, 251).with_span_retain(0));
        assert_eq!(
            plain.probe.to_json_lines(),
            without_span_lines(&spanned.probe.to_json_lines()),
            "span tracing perturbed the {} simulation",
            plain.server,
        );
        assert_eq!(plain.replies, spanned.replies);
        assert_eq!(plain.attempted, spanned.attempted);
        assert!(
            spanned.probe.to_json_lines().contains("span_ns."),
            "span-enabled run must actually record spans"
        );
        assert!(
            plain.span_chrome.is_empty() && plain.span_folded.is_empty(),
            "disabled run must not render trace exports"
        );
    }
}

#[test]
fn chrome_trace_is_stable_across_jobs() {
    // Each run is an isolated deterministic world, so the exported
    // traces must not depend on how many executor threads carried the
    // sweep. This is the `--jobs 1` vs `--jobs 4` guarantee the figures
    // pipeline relies on.
    let grid: Vec<(ServerKind, f64)> = vec![
        (ServerKind::ThttpdDevPoll, 600.0),
        (ServerKind::Phhttpd, 600.0),
        (ServerKind::Hybrid, 600.0),
        (ServerKind::ThttpdDevPoll, 800.0),
    ];
    let run = |&(kind, rate): &(ServerKind, f64)| -> RunReport {
        run_one(
            RunParams::paper(kind, rate, 251)
                .with_conns(1_000)
                .with_spans(),
        )
    };
    let serial = run_jobs(1, &grid, run);
    let threaded = run_jobs(4, &grid, run);
    for (s, t) in serial.iter().zip(&threaded) {
        assert!(!s.span_chrome.is_empty(), "{}: no spans retained", s.server);
        assert_eq!(
            s.span_chrome, t.span_chrome,
            "{} chrome trace drifted",
            s.server
        );
        assert_eq!(
            s.span_folded, t.span_folded,
            "{} folded stacks drifted",
            s.server
        );
        assert_eq!(s.probe.to_json_lines(), t.probe.to_json_lines());
    }
}

/// A minimal JSON well-formedness checker (objects, arrays, strings,
/// numbers, literals) — enough to prove the export "loads as JSON"
/// without pulling in a parser dependency.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    expect(b, i, b':')?;
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected , or }} at {i}")),
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                skip_ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected , or ] at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                while *i < b.len()
                    && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *i += 1;
                }
                Ok(())
            }
            Some(_) => {
                for lit in ["true", "false", "null"] {
                    if b[*i..].starts_with(lit.as_bytes()) {
                        *i += lit.len();
                        return Ok(());
                    }
                }
                Err(format!("unexpected byte at {i}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        expect(b, i, b'"')?;
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => *i += 1,
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected {} at {i}", c as char))
        }
    }
}

/// Pulls `"key":<number>` out of one chrome-trace event line. `dur` and
/// `ts` are printed as microseconds with exactly three decimals, so the
/// nanosecond value is recovered exactly.
fn field_ns(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).expect("field present") + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    let num = &rest[..end];
    match num.split_once('.') {
        Some((whole, frac)) => {
            assert_eq!(frac.len(), 3, "expected exactly 3 decimals: {num}");
            whole.parse::<u64>().unwrap() * 1_000 + frac.parse::<u64>().unwrap()
        }
        None => num.parse::<u64>().unwrap(),
    }
}

#[test]
fn chrome_trace_is_valid_json_and_reconciles_with_latency() {
    let mut r = run_one(point(ServerKind::ThttpdDevPoll, 700.0, 251).with_spans());
    assert!(r.replies > 0);

    // Well-formed JSON, every event a complete ("ph":"X") event.
    json::validate(&r.span_chrome).expect("chrome trace must be valid JSON");
    let events: Vec<&str> = r
        .span_chrome
        .lines()
        .filter(|l| l.contains("\"ph\":"))
        .collect();
    assert!(
        events.len() > 1_000,
        "expected many events, got {}",
        events.len()
    );
    for e in &events {
        assert!(e.contains("\"ph\":\"X\""), "non-complete event: {e}");
    }

    // Internal reconciliation: exclusive time partitions inclusive
    // time, so summing excl_ns over every event must equal summing
    // dur over the depth-0 (root) events.
    let total_excl: u64 = events.iter().map(|e| field_ns(e, "excl_ns")).sum();
    let total_root: u64 = events
        .iter()
        .filter(|e| e.contains("\"depth\":0"))
        .map(|e| field_ns(e, "dur"))
        .sum();
    assert_eq!(
        total_excl, total_root,
        "exclusive spans must partition the root spans exactly"
    );

    // External reconciliation: per-reply attributed request-path time
    // is positive and bounded by the end-to-end connection time — the
    // spans explain a server-side *subset* of what the client measures
    // (which additionally includes network flight time and queueing).
    let attributed_ns: f64 = Phase::REQUEST_PATH
        .iter()
        .filter_map(|p| r.probe.histogram(p.metric().name()))
        .map(|h| h.sum() as f64)
        .sum();
    let per_reply_ns = attributed_ns / r.replies as f64;
    let median_e2e_ns = r.median_latency_ms() * 1e6;
    assert!(per_reply_ns > 0.0, "no request-path time attributed");
    assert!(
        per_reply_ns < median_e2e_ns,
        "attributed {per_reply_ns} ns/reply exceeds median end-to-end {median_e2e_ns} ns"
    );

    // Folded stacks: sorted unique paths, nanosecond totals, and the
    // dispatch children the anatomy figure stacks.
    let folded: Vec<&str> = r.span_folded.lines().collect();
    assert!(folded.iter().any(|l| l.starts_with("dispatch;")));
    let mut sorted = folded.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(folded, sorted, "folded paths must be sorted and unique");
    for line in &folded {
        let (path, ns) = line.rsplit_once(' ').expect("`path ns` shape");
        assert!(!path.is_empty());
        ns.parse::<u64>().expect("nanosecond total");
    }
}

#[test]
fn nested_spans_partition_dispatch_time() {
    // The timeline table's core claim: dispatch exclusive time excludes
    // its syscall children, so dispatch + read + write + interest_reg
    // never double-counts. Verified here at the whole-run level: every
    // request-path phase histogram is populated for a devpoll run and
    // the exclusive sums are each strictly below the total attributed
    // time (i.e. no single phase swallowed the others' share).
    let r = run_one(point(ServerKind::ThttpdDevPoll, 700.0, 251).with_span_retain(0));
    let sums: Vec<(u128, &str)> = Phase::REQUEST_PATH
        .iter()
        .map(|p| {
            let h = r
                .probe
                .histogram(p.metric().name())
                .unwrap_or_else(|| panic!("{} histogram missing", p.name()));
            assert!(h.count() > 0, "{} never recorded", p.name());
            (h.sum(), p.name())
        })
        .collect();
    let total: u128 = sums.iter().map(|&(s, _)| s).sum();
    for &(s, name) in &sums {
        assert!(s < total, "{name} is the only phase with time");
    }
    // Lock-hold phases record too, but overlap the request path and are
    // excluded from the stacked figure.
    for p in [
        Phase::LockBackmap,
        Phase::LockInterestTable,
        Phase::LockSocket,
    ] {
        let h = r.probe.histogram(p.metric().name());
        assert!(
            h.is_some_and(|h| h.count() > 0),
            "{} never recorded",
            p.name()
        );
    }
}
