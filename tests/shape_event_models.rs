//! Shape tests comparing event models (§5.2, Figs. 11–14): phhttpd's
//! knee moves earlier with inactive load and its latency explodes past
//! the knee, while the hybrid of §4 combines the strengths of both
//! constituents.

mod common;

use common::{claim, point};
use scalable_net_io::httperf::ServerKind;
use scalable_net_io::simkernel::AcceptWake;

#[test]
fn phhttpd_clean_at_light_load() {
    // Fig. 11 low end: "Performance at lower request rates compares with
    // the best performance of other servers."
    let r = point(ServerKind::Phhttpd, 600.0, 1);
    claim(
        r.rate.avg > 0.97 * 600.0 && r.error_percent() < 1.0,
        &format!(
            "phhttpd clean at 600/1: avg {} > 582, err {}% < 1%",
            r.rate.avg,
            r.error_percent()
        ),
        &r,
    );
}

#[test]
fn phhttpd_latency_jumps_past_the_knee() {
    // Fig. 14: below ~900 req/s at load 251 phhttpd responds quickly;
    // past the knee its median leaps by an order of magnitude.
    let mut before = point(ServerKind::Phhttpd, 700.0, 251);
    let mut after = point(ServerKind::Phhttpd, 1100.0, 251);
    let (b, a) = (before.median_latency_ms(), after.median_latency_ms());
    claim(
        b < 10.0,
        &format!("pre-knee median should be small: {b} ms"),
        &before,
    );
    claim(
        a > 5.0 * b,
        &format!("post-knee median must jump (paper: >120 ms): {b} -> {a} ms"),
        &after,
    );
}

#[test]
fn phhttpd_degrades_more_with_inactive_load_than_devpoll() {
    // Figs. 12/13: inactive connections hurt phhttpd (per-event linear
    // costs) but not devpoll.
    let mut ph = point(ServerKind::Phhttpd, 900.0, 501);
    let mut dev = point(ServerKind::ThttpdDevPoll, 900.0, 501);
    let (p, d) = (ph.median_latency_ms(), dev.median_latency_ms());
    claim(
        p > 2.0 * d,
        &format!("phhttpd at 501 should respond slower than devpoll: {p} vs {d} ms"),
        &ph,
    );
    claim(
        ph.rate.stddev > dev.rate.stddev,
        &format!(
            "phhttpd rate should be noisier: {} vs {}",
            ph.rate.stddev, dev.rate.stddev
        ),
        &ph,
    );
}

#[test]
fn phhttpd_overflow_melts_down_to_polling_mode() {
    // Fig. 13 and §2/§6: at load 501 phhttpd stays below the target rate
    // because queue overflow hands everything to the poll sibling, and
    // the server never switches back.
    let capped = point(ServerKind::Phhttpd, 1000.0, 501);
    claim(
        capped.rate.avg < 0.95 * 1000.0,
        &format!(
            "phhttpd capped below target at 1000/501: avg {} < 950",
            capped.rate.avg
        ),
        &capped,
    );
    for r in [capped, point(ServerKind::Phhttpd, 1100.0, 501)] {
        claim(
            r.server_metrics.overflows >= 1,
            &format!(
                "load 501 must overflow the RT queue at {} req/s: {:?}",
                r.target_rate, r.server_metrics
            ),
            &r,
        );
    }
}

#[test]
fn sigtimedwait4_batching_reduces_syscall_pressure() {
    // §6: dequeuing signals in groups cuts per-event syscall overhead.
    // At a rate past the one-at-a-time knee, batching must not do worse.
    let mut single = point(ServerKind::Phhttpd, 1000.0, 251);
    let mut batch = point(ServerKind::PhhttpdBatch(16), 1000.0, 251);
    claim(
        batch.rate.avg >= single.rate.avg * 0.98,
        &format!(
            "batching should not lose throughput: {} vs {}",
            batch.rate.avg, single.rate.avg
        ),
        &batch,
    );
    let (s, b) = (single.median_latency_ms(), batch.median_latency_ms());
    claim(
        b <= s * 1.05,
        &format!("batching should not increase latency: {b} vs {s} ms"),
        &batch,
    );
}

#[test]
fn hybrid_matches_devpoll_throughput_under_load() {
    // §4's conjecture: the hybrid keeps devpoll-class throughput, next to
    // devpoll at 1000 req/s and on its own past phhttpd's knee.
    let hybrid = point(ServerKind::Hybrid, 1000.0, 251);
    let dev = point(ServerKind::ThttpdDevPoll, 1000.0, 251);
    claim(
        hybrid.rate.avg > 0.97 * dev.rate.avg && hybrid.error_percent() < 1.0,
        &format!(
            "hybrid {} vs devpoll {} at 1000/251, err {}% < 1%",
            hybrid.rate.avg,
            dev.rate.avg,
            hybrid.error_percent()
        ),
        &hybrid,
    );
    let high = point(ServerKind::Hybrid, 1100.0, 251);
    claim(
        high.rate.avg > 0.97 * 1100.0 && high.error_percent() < 1.0,
        &format!(
            "hybrid keeps up at 1100/251: avg {} > 1067, err {}% < 1%",
            high.rate.avg,
            high.error_percent()
        ),
        &high,
    );
}

#[test]
fn hybrid_avoids_phhttpd_meltdown() {
    // Where phhttpd's latency explodes, the hybrid switches to batching
    // and stays composed.
    let mut hybrid = point(ServerKind::Hybrid, 1100.0, 501);
    let mut ph = point(ServerKind::Phhttpd, 1100.0, 501);
    let (h, p) = (hybrid.median_latency_ms(), ph.median_latency_ms());
    claim(
        h < p / 2.0,
        &format!("hybrid should dodge the meltdown: {h} vs {p} ms"),
        &hybrid,
    );
    claim(
        hybrid.rate.avg > ph.rate.avg * 0.98,
        &format!(
            "hybrid {} vs phhttpd {} req/s",
            hybrid.rate.avg, ph.rate.avg
        ),
        &hybrid,
    );
}

#[test]
fn exclusive_accept_wake_cuts_herd_wakeups() {
    // The thundering herd: four prefork workers sharing one listener all
    // wake on each connection unless the wake is exclusive.
    let [herd, excl] = [AcceptWake::Herd, AcceptWake::Exclusive]
        .map(|wake| point(ServerKind::PreforkDevPoll { workers: 4, wake }, 500.0, 251));
    let [herd_wakeups, excl_wakeups] = [&herd, &excl].map(|r| r.probe.counter("kernel.wakeups"));
    claim(
        herd_wakeups as f64 > 1.5 * excl_wakeups as f64,
        &format!("herd {herd_wakeups} vs exclusive {excl_wakeups} wakeups at 500/251"),
        &herd,
    );
}
