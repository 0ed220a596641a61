//! End-to-end tests of the extension experiments: prefork / thundering
//! herd, sendfile, and document-size parameterization.

use simkernel::AcceptWake;

use httperf::{run_one, RunParams, ServerKind};

#[test]
fn prefork_serves_with_both_wake_policies() {
    for wake in [AcceptWake::Herd, AcceptWake::Exclusive] {
        let kind = ServerKind::PreforkDevPoll { workers: 4, wake };
        let r = run_one(RunParams::paper(kind, 400.0, 25).with_conns(400));
        assert!(
            r.replies >= 395,
            "{wake:?}: replies {} errors {:?}",
            r.replies,
            r.errors
        );
    }
}

#[test]
fn herd_wakes_more_processes_than_exclusive() {
    let herd = run_one(
        RunParams::paper(
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Herd,
            },
            400.0,
            25,
        )
        .with_conns(400),
    );
    let excl = run_one(
        RunParams::paper(
            ServerKind::PreforkDevPoll {
                workers: 4,
                wake: AcceptWake::Exclusive,
            },
            400.0,
            25,
        )
        .with_conns(400),
    );
    let [herd_wakeups, excl_wakeups] = [&herd, &excl].map(|r| r.probe.counter("kernel.wakeups"));
    assert!(
        herd_wakeups as f64 > 1.5 * excl_wakeups as f64,
        "herd {herd_wakeups} vs exclusive {excl_wakeups} wakeups"
    );
    // Both still serve everything at this light load.
    assert_eq!(herd.replies, excl.replies);
}

#[test]
fn sendfile_reduces_cpu_per_reply() {
    // With a 16 KB document the user-space copy is significant; the
    // sendfile path must be at least as fast at the same load.
    let write = run_one(
        RunParams::paper(ServerKind::ThttpdDevPoll, 400.0, 25)
            .with_conns(400)
            .with_doc_bytes(16 * 1024),
    );
    let sendfile = run_one(
        RunParams::paper(ServerKind::ThttpdDevPollSendfile, 400.0, 25)
            .with_conns(400)
            .with_doc_bytes(16 * 1024),
    );
    assert!(write.replies >= 395, "{:?}", write.errors);
    assert!(sendfile.replies >= 395, "{:?}", sendfile.errors);
    let mut w = write;
    let mut s = sendfile;
    assert!(
        s.median_latency_ms() <= w.median_latency_ms(),
        "sendfile median {} must not exceed write median {}",
        s.median_latency_ms(),
        w.median_latency_ms()
    );
}

#[test]
fn doc_bytes_parameter_serves_the_sized_document() {
    let r = run_one(
        RunParams::paper(ServerKind::ThttpdDevPoll, 300.0, 0)
            .with_conns(100)
            .with_doc_bytes(1024),
    );
    assert_eq!(r.replies, 100, "{:?}", r.errors);
    // Larger documents take longer per reply (wire time).
    let mut small = r;
    let mut big = run_one(
        RunParams::paper(ServerKind::ThttpdDevPoll, 300.0, 0)
            .with_conns(100)
            .with_doc_bytes(32 * 1024),
    );
    assert_eq!(big.replies, 100, "{:?}", big.errors);
    assert!(
        big.median_latency_ms() > small.median_latency_ms(),
        "32 KB must take longer than 1 KB: {} vs {}",
        big.median_latency_ms(),
        small.median_latency_ms()
    );
}

#[test]
fn every_server_kind_serves_a_sized_document() {
    // `with_doc_bytes` swaps the default page for `/doc-16384.html`;
    // every architecture must serve it, not only thttpd.
    let kinds = [
        ServerKind::ThttpdPoll,
        ServerKind::ThttpdSelect,
        ServerKind::ThttpdDevPoll,
        ServerKind::ThttpdDevPollWith {
            config: devpoll::DevPollConfig::default(),
            mmap: false,
            combined: true,
        },
        ServerKind::ThttpdDevPollSendfile,
        ServerKind::Phhttpd,
        ServerKind::PhhttpdBatch(8),
        ServerKind::Hybrid,
        ServerKind::PreforkDevPoll {
            workers: 2,
            wake: AcceptWake::Herd,
        },
        ServerKind::PreforkDevPoll {
            workers: 2,
            wake: AcceptWake::Exclusive,
        },
    ];
    let failed: Vec<String> = kinds
        .into_iter()
        .filter_map(|kind| {
            let r = run_one(
                RunParams::paper(kind, 200.0, 0)
                    .with_conns(200)
                    .with_doc_bytes(16 * 1024),
            );
            let ok = r.server_metrics.not_found == 0 && r.replies == r.attempted;
            (!ok).then(|| {
                format!(
                    "{}: {} of {} replied, {} not found",
                    kind.label(),
                    r.replies,
                    r.attempted,
                    r.server_metrics.not_found
                )
            })
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
