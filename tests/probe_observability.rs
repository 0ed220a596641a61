//! Integration tests for the probe layer: the metric registry must be
//! deterministic, and the counters must expose the paper's *mechanisms*
//! (hinted skips, result-cache revalidation, the RT-signal queue).

use scalable_net_io::httperf::{run_one, RunParams, ServerKind};
use scalable_net_io::simcore::probe::{Metric, MetricRegistry};

const CONNS: u64 = 2_000;

fn point(kind: ServerKind, rate: f64, inactive: usize) -> scalable_net_io::httperf::RunReport {
    run_one(RunParams::paper(kind, rate, inactive).with_conns(CONNS))
}

#[test]
fn identical_runs_produce_identical_snapshots() {
    // Determinism is the simulation's core promise; the probe layer must
    // not break it. Two identical seeded runs must agree byte-for-byte
    // in both renderings.
    let a = point(ServerKind::ThttpdDevPoll, 700.0, 251);
    let b = point(ServerKind::ThttpdDevPoll, 700.0, 251);
    assert_eq!(a.probe.to_text(), b.probe.to_text());
    assert_eq!(a.probe.to_json_lines(), b.probe.to_json_lines());
    assert!(!a.probe.to_text().is_empty());
}

#[test]
fn devpoll_polls_far_fewer_drivers_than_stock_poll() {
    // §3.2 mechanism check: under the same workload, stock poll() asks
    // every registered descriptor's driver on every call, while
    // /dev/poll's hinting layer skips unhinted descriptors. The counters
    // must show the asymmetry directly, not just via throughput.
    let dev = point(ServerKind::ThttpdDevPoll, 700.0, 251);
    let stock = point(ServerKind::ThttpdPoll, 700.0, 251);
    let dev_polls = dev.probe.counter("devpoll.driver_polls");
    let dev_avoided = dev.probe.counter("devpoll.driver_polls_avoided");
    let stock_polls = stock.probe.counter("poll.driver_polls");
    assert!(dev_polls > 0, "devpoll must poll some drivers");
    assert!(
        stock_polls > 10 * dev_polls,
        "stock poll() should do vastly more driver polls: {stock_polls} vs {dev_polls}"
    );
    assert!(
        dev_avoided > 10 * dev_polls,
        "hints should skip most of the interest set per scan: \
         avoided {dev_avoided} vs polled {dev_polls}"
    );
}

#[test]
fn devpoll_result_cache_revalidates_ready_entries() {
    // §3.3: entries that reported ready last scan are revalidated from
    // the result cache even without a fresh hint.
    let dev = point(ServerKind::ThttpdDevPoll, 700.0, 251);
    assert!(
        dev.probe.counter("devpoll.cache_revalidations") > 0,
        "result-cache revalidations must occur under steady load"
    );
    assert!(dev.probe.counter("devpoll.scans") > 0);
    assert!(dev.probe.counter("devpoll.mmap_result_bytes") > 0);
}

#[test]
fn rtsig_counters_cover_the_queue_lifecycle() {
    let ph = point(ServerKind::Phhttpd, 700.0, 251);
    assert!(ph.probe.counter("rtsig.enqueued") > 0);
    assert!(ph.probe.counter("rtsig.dequeued") > 0);
    let g = ph.probe.gauge("rtsig.queue_depth");
    assert!(g.high_water >= 1, "high water {}", g.high_water);
}

#[test]
fn registry_is_cheap_and_deterministic_in_isolation() {
    // Unit-level sanity at the integration boundary: bucket edges and
    // high-water semantics (satellite 3).
    let mut p = MetricRegistry::new();
    p.observe(Metric::RtsigBatchSize, 0);
    p.observe(Metric::RtsigBatchSize, 1);
    p.observe(Metric::RtsigBatchSize, u64::MAX);
    let s = p.snapshot();
    let h = s.histogram("rtsig.batch_size").expect("histogram present");
    assert_eq!(h.count(), 3);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), u64::MAX);
    p.gauge_set(Metric::RtsigQueueDepth, 7);
    p.gauge_set(Metric::RtsigQueueDepth, 3);
    let s = p.snapshot();
    assert_eq!(s.gauge("rtsig.queue_depth").value, 3);
    assert_eq!(s.gauge("rtsig.queue_depth").high_water, 7);
}
