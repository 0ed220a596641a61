//! Due-only dispatch changes no result.
//!
//! `Testbed::drain_at` makes one pass per instant and calls a subsystem
//! only when it has work due. `reference` below runs the loop it
//! replaced, with its own load-timer heap: every pass calls the network,
//! the kernel and the load timers, and passes repeat until none has work
//! left at the instant. Both must agree on the events dispatched, the
//! replies, the errors, the simulated time and the probe digest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use httperf::{build_world, run_one, ErrorCounts, RunParams, RunReport, ServerKind, Testbed};
use servers::ServerCtx;
use simcore::time::{SimDuration, SimTime};
use simkernel::{AcceptWake, KernelEvent};

type Outcome = (u64, u64, ErrorCounts, f64, u64);

fn outcome(r: &RunReport, events: u64) -> Outcome {
    (events, r.replies, r.errors, r.sim_secs, r.probe.digest())
}

/// Runs `params` through the replaced loop, after `tweak` on the
/// freshly built testbed.
fn reference(params: RunParams, tweak: impl Fn(&mut Testbed)) -> Outcome {
    let horizon = params.horizon;
    let (mut bed, mut server) = build_world(params);
    tweak(&mut bed);
    let mut ctx = ServerCtx {
        kernel: &mut bed.kernel,
        net: &mut bed.net,
        registry: &mut bed.registry,
        now: SimTime::ZERO,
    };
    server.start(&mut ctx).unwrap();
    // Load timers fire in `(at, arming order)` order.
    let mut timers = BinaryHeap::new();
    let mut armed = 0u64;
    let mut arm = |timers: &mut BinaryHeap<_>, (at, t)| {
        timers.push(Reverse((at, armed, t)));
        armed += 1;
    };
    for follow in bed.load.bootstrap(SimTime::ZERO) {
        arm(&mut timers, follow);
    }
    let due = |timers: &BinaryHeap<Reverse<(SimTime, u64, _)>>| timers.peek().map(|r| r.0 .0);
    let (mut now, mut events) = (SimTime::ZERO, 0);
    loop {
        loop {
            let notifies = bed.net.advance(now);
            events += notifies.len() as u64;
            let mut follow = Vec::new();
            for n in &notifies {
                bed.kernel.on_net(now, n);
                follow.extend(bed.load.on_net(&mut bed.net, now, n));
            }
            for f in follow {
                arm(&mut timers, f);
            }
            let kevents = bed.kernel.advance(now);
            events += kevents.len() as u64;
            for e in kevents {
                match e {
                    KernelEvent::FdEvent { pid, fd, .. } => {
                        bed.registry.on_fd_event(&mut bed.kernel, now, pid, fd)
                    }
                    KernelEvent::ProcRunnable { pid } if server.handles(pid) => {
                        let mut ctx = ServerCtx {
                            kernel: &mut bed.kernel,
                            net: &mut bed.net,
                            registry: &mut bed.registry,
                            now,
                        };
                        server.run_batch_for(&mut ctx, pid);
                    }
                    KernelEvent::ProcRunnable { .. } => {}
                }
            }
            while due(&timers).is_some_and(|at| at <= now) {
                let Reverse((_, _, t)) = timers.pop().unwrap();
                events += 1;
                for f in bed.load.on_timer(&mut bed.net, now, t) {
                    arm(&mut timers, f);
                }
            }
            if !(bed.net.has_work_at(now)
                || bed.kernel.has_work_at(now)
                || due(&timers).is_some_and(|at| at <= now))
            {
                break;
            }
        }
        let next = [
            bed.net.next_deadline(),
            bed.kernel.next_deadline(),
            due(&timers),
        ]
        .into_iter()
        .flatten()
        .min();
        match next {
            Some(t) if t <= horizon && !bed.load.done() => now = t,
            _ => break,
        }
    }
    outcome(&bed.report(server.as_ref()), events)
}

fn assert_same(params: RunParams) -> RunReport {
    let label = format!("{} seed {}", params.kind.label(), params.load.seed);
    let want = reference(params.clone(), |_| {});
    let report = run_one(params);
    assert_eq!(outcome(&report, report.events), want, "{label}");
    report
}

#[test]
fn due_only_dispatch_matches_the_quiescence_loop() {
    // The latency anatomy's kinds (`bench::figures::anatomy_kinds`),
    // plus prefork workers all woken on accept-ready.
    let herd = ServerKind::PreforkDevPoll {
        workers: 4,
        wake: AcceptWake::Herd,
    };
    for kind in [
        ServerKind::ThttpdSelect,
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdDevPoll,
        ServerKind::Phhttpd,
        ServerKind::Hybrid,
        herd,
    ] {
        for seed in [1, 2] {
            assert_same(
                RunParams::paper(kind, 900.0, 251)
                    .with_conns(300)
                    .with_seed(seed),
            );
        }
    }
}

/// Past their knees (the benchmark's `poll` and `rtsig` points), so
/// client timeouts, SYN drops and the error paths are dispatched too.
#[test]
fn due_only_dispatch_matches_past_the_knee() {
    for (kind, rate) in [
        (ServerKind::ThttpdPoll, 800.0),
        (ServerKind::Phhttpd, 1000.0),
    ] {
        let r = assert_same(
            RunParams::paper(kind, rate, 501)
                .with_conns(2000)
                .with_seed(1),
        );
        assert!(r.errors.total() > 0, "{}: no request failed", kind.label());
    }
}

#[test]
fn ports_leave_time_wait_and_are_reused_inside_the_run() {
    // 900 connections through 400 client ports: each port is allocated
    // more than twice, so every reuse waits for its 1 s TIME_WAIT to end.
    const PORTS: u16 = 400;
    let mut params = RunParams::paper(ServerKind::ThttpdDevPoll, 300.0, 16)
        .with_conns(900)
        .with_seed(3);
    params.tcp.time_wait = SimDuration::from_secs(1);
    let narrow = |bed: &mut Testbed| {
        bed.net
            .set_ephemeral_range(httperf::CLIENT_HOST, 1024, 1024 + PORTS)
    };
    let want = reference(params.clone(), narrow);
    let horizon = params.horizon;
    let (mut bed, mut server) = build_world(params);
    narrow(&mut bed);
    bed.start(server.as_mut());
    bed.run(server.as_mut(), horizon);
    let report = bed.report(server.as_ref());
    assert_eq!(outcome(&report, report.events), want);
    assert!(report.attempted > 2 * u64::from(PORTS));
    assert_eq!(
        report.probe.counter("tcp.ports_exhausted"),
        0,
        "a port never came back"
    );
    assert_eq!(report.replies, report.attempted, "{:?}", report.errors);
}
