//! Shape tests for the paper's central result (§5.1, Figs. 4–10): with
//! many inactive connections, `/dev/poll` keeps serving while stock
//! `poll()` collapses. These assert *orderings and knees*, not absolute
//! numbers — the calibration contract recorded in DESIGN.md §6.

mod common;

use common::{claim, point};
use scalable_net_io::devpoll::DevPollConfig;
use scalable_net_io::httperf::ServerKind;

#[test]
fn both_servers_clean_at_light_load() {
    // Figs. 4/5 at load 1: everyone tracks the target, from the low end
    // of the sweep up to 900 req/s.
    for kind in [ServerKind::ThttpdPoll, ServerKind::ThttpdDevPoll] {
        for rate in [500.0, 900.0] {
            let r = point(kind, rate, 1);
            claim(
                r.rate.avg > 0.97 * rate && r.error_percent() < 1.0,
                &format!(
                    "{kind:?} clean at {rate}/1: avg {} > {}, err {}% < 1%",
                    r.rate.avg,
                    0.97 * rate,
                    r.error_percent()
                ),
                &r,
            );
        }
    }
}

#[test]
fn stock_poll_collapses_under_inactive_load() {
    // Figs. 6/8: 251 or 501 inactive connections break stock poll() at
    // moderate rates, and the collapse produces errors.
    for (rate, inactive, avg_frac, min_err) in [(900.0, 501, 0.75, 15.0), (1000.0, 251, 0.7, 20.0)]
    {
        let r = point(ServerKind::ThttpdPoll, rate, inactive);
        claim(
            r.rate.avg < avg_frac * rate && r.error_percent() > min_err,
            &format!(
                "stock poll collapses at {rate}/{inactive}: avg {} < {}, err {}% > {min_err}%",
                r.rate.avg,
                avg_frac * rate,
                r.error_percent()
            ),
            &r,
        );
    }
}

#[test]
fn devpoll_unaffected_by_inactive_load() {
    // Figs. 7/9: the same workloads leave /dev/poll untouched.
    for (rate, inactive) in [(900.0, 501), (1000.0, 251), (1000.0, 501)] {
        let r = point(ServerKind::ThttpdDevPoll, rate, inactive);
        claim(
            r.rate.avg > 0.97 * rate && r.error_percent() < 1.0,
            &format!(
                "devpoll keeps up at {rate}/{inactive}: avg {} > {}, err {}% < 1%",
                r.rate.avg,
                0.97 * rate,
                r.error_percent()
            ),
            &r,
        );
    }
}

#[test]
fn devpoll_without_hints_collapses() {
    // Ablation: without the driver hints every DP_POLL revalidates the
    // whole interest set, and /dev/poll falls back to poll()'s O(N) cost.
    let no_hints = ServerKind::ThttpdDevPollWith {
        config: DevPollConfig {
            hints: false,
            ..DevPollConfig::default()
        },
        mmap: true,
        combined: false,
    };
    let r = point(no_hints, 1000.0, 501);
    claim(
        r.rate.avg < 0.7 * 1000.0,
        &format!(
            "devpoll without hints collapses at 1000/501: avg {} < 700",
            r.rate.avg
        ),
        &r,
    );
}

#[test]
fn error_rates_match_figure_10_shape() {
    // Figs. 8/10: stock poll has collapsed at 800 req/s on load 501, and
    // its errors grow toward ~60 % with rate; devpoll shows none at 251.
    let stock_mid = point(ServerKind::ThttpdPoll, 800.0, 501);
    let stock_high = point(ServerKind::ThttpdPoll, 1100.0, 501);
    claim(
        stock_mid.rate.avg < 0.75 * 800.0 && stock_mid.error_percent() > 20.0,
        &format!(
            "stock poll collapses at 800/501: avg {} < 600, err {}% > 20%",
            stock_mid.rate.avg,
            stock_mid.error_percent()
        ),
        &stock_mid,
    );
    claim(
        stock_high.error_percent() > stock_mid.error_percent(),
        &format!(
            "errors must grow with rate: {}% at 800 vs {}% at 1100",
            stock_mid.error_percent(),
            stock_high.error_percent()
        ),
        &stock_high,
    );
    claim(
        stock_high.error_percent() > 40.0,
        &format!(
            "errors should approach the paper's 60%: {}% > 40%",
            stock_high.error_percent()
        ),
        &stock_high,
    );
    let dev = point(ServerKind::ThttpdDevPoll, 1100.0, 251);
    claim(
        dev.error_percent() < 1.0,
        &format!(
            "devpoll at 251: no errors whatsoever (paper), got {}%",
            dev.error_percent()
        ),
        &dev,
    );
}

#[test]
fn latency_ordering_devpoll_beats_stock_poll() {
    // Fig. 14 at a pre-knee rate: normal poll sits well above devpoll.
    let mut stock = point(ServerKind::ThttpdPoll, 700.0, 251);
    let mut dev = point(ServerKind::ThttpdDevPoll, 700.0, 251);
    let (s, d) = (stock.median_latency_ms(), dev.median_latency_ms());
    claim(
        s > 2.0 * d,
        &format!("stock median {s} ms should be well above devpoll {d} ms"),
        &stock,
    );
}

#[test]
fn stock_latency_grows_with_inactive_load() {
    // The per-scan O(N) cost shows up directly in response latency even
    // below the knee.
    let mut lo = point(ServerKind::ThttpdPoll, 500.0, 1);
    let mut mid = point(ServerKind::ThttpdPoll, 500.0, 251);
    let mut hi = point(ServerKind::ThttpdPoll, 500.0, 501);
    let (a, b, c) = (
        lo.median_latency_ms(),
        mid.median_latency_ms(),
        hi.median_latency_ms(),
    );
    claim(
        a < b && b < c,
        &format!("medians must grow with load: {a}, {b}, {c}"),
        &hi,
    );
}
