//! End-to-end benchmark runs: every server architecture serves a small
//! workload correctly.

use httperf::{run_one, RunParams, ServerKind};

fn smoke(kind: ServerKind) -> httperf::RunReport {
    let params = RunParams::paper(kind, 200.0, 0).with_conns(300);
    run_one(params)
}

#[test]
fn thttpd_poll_serves_light_load() {
    let mut r = smoke(ServerKind::ThttpdPoll);
    assert_eq!(r.attempted, 300);
    assert!(
        r.replies >= 295,
        "nearly all replies expected, got {} ({:?})",
        r.replies,
        r.errors
    );
    assert!(r.rate.avg > 150.0, "avg rate {}", r.rate.avg);
    let med = r.median_latency_ms();
    assert!(med > 0.0 && med < 100.0, "median {med} ms");
}

#[test]
fn thttpd_devpoll_serves_light_load() {
    let mut r = smoke(ServerKind::ThttpdDevPoll);
    assert!(r.replies >= 295, "replies {} ({:?})", r.replies, r.errors);
    assert!(r.median_latency_ms() < 100.0);
}

#[test]
fn phhttpd_serves_light_load() {
    let mut r = smoke(ServerKind::Phhttpd);
    assert!(r.replies >= 295, "replies {} ({:?})", r.replies, r.errors);
    assert!(r.median_latency_ms() < 100.0);
}

#[test]
fn hybrid_serves_light_load() {
    let mut r = smoke(ServerKind::Hybrid);
    assert!(r.replies >= 295, "replies {} ({:?})", r.replies, r.errors);
    assert!(r.median_latency_ms() < 100.0);
}

#[test]
fn inactive_connections_are_held_open() {
    let params = RunParams::paper(ServerKind::ThttpdDevPoll, 200.0, 50).with_conns(300);
    let r = run_one(params);
    assert!(r.replies >= 290, "replies {} ({:?})", r.replies, r.errors);
    // The server saw the inactive connections too.
    assert!(
        r.server_metrics.accepted >= 300 + 50,
        "accepted {}",
        r.server_metrics.accepted
    );
}

#[test]
fn deterministic_given_seed() {
    let a = run_one(RunParams::paper(ServerKind::ThttpdPoll, 300.0, 10).with_conns(200));
    let b = run_one(RunParams::paper(ServerKind::ThttpdPoll, 300.0, 10).with_conns(200));
    assert_eq!(a.replies, b.replies);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.rate, b.rate);
}

/// Every server architecture, overloaded at the stock-poll collapse
/// point (800 req/s over 501 idle connections, Figs. 8 and 10b): each
/// attempt ends as exactly one reply or one error class, or is still in
/// flight when the run stops.
#[test]
fn every_attempt_resolves_exactly_once_under_overload() {
    let kinds = [
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdSelect,
        ServerKind::ThttpdDevPoll,
        ServerKind::ThttpdDevPollWith {
            config: devpoll::DevPollConfig::default(),
            mmap: false,
            combined: true,
        },
        ServerKind::Phhttpd,
        ServerKind::PhhttpdBatch(16),
        ServerKind::Hybrid,
        ServerKind::ThttpdDevPollSendfile,
        ServerKind::PreforkDevPoll {
            workers: 4,
            wake: simkernel::AcceptWake::Herd,
        },
        ServerKind::PreforkDevPoll {
            workers: 4,
            wake: simkernel::AcceptWake::Exclusive,
        },
    ];
    for kind in kinds {
        let r = run_one(RunParams::paper(kind, 800.0, 501).with_conns(1_500));
        assert_eq!(r.attempted, 1_500, "{}", r.server);
        assert_eq!(
            r.attempted,
            r.replies + r.errors.total() + r.in_flight,
            "{}: replies {} errors {:?} in flight {}",
            r.server,
            r.replies,
            r.errors,
            r.in_flight
        );
    }
}
