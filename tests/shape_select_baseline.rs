//! Shape tests for the `select()` baseline extension: one interface
//! generation before the paper's `poll()` baseline, it must do at least
//! as badly under inactive load — and fail outright past `FD_SETSIZE`.

use scalable_net_io::devpoll::FD_SETSIZE;
use scalable_net_io::httperf::{run_one, RunParams, ServerKind};

const CONNS: u64 = 3_000;

fn point(kind: ServerKind, rate: f64, inactive: usize) -> scalable_net_io::httperf::RunReport {
    run_one(RunParams::paper(kind, rate, inactive).with_conns(CONNS))
}

#[test]
fn select_serves_light_load() {
    let r = point(ServerKind::ThttpdSelect, 500.0, 1);
    assert!(r.rate.avg > 0.97 * 500.0, "avg {}", r.rate.avg);
    assert!(r.error_percent() < 1.0);
}

#[test]
fn select_is_no_better_than_poll_under_inactive_load() {
    let mut sel = point(ServerKind::ThttpdSelect, 500.0, 501);
    let mut poll = point(ServerKind::ThttpdPoll, 500.0, 501);
    let (s, p) = (sel.median_latency_ms(), poll.median_latency_ms());
    assert!(
        s >= p,
        "select median {s} ms must be at least poll's {p} ms (extra bitmap walk)"
    );
}

#[test]
fn select_collapses_under_inactive_load_like_poll() {
    let r = point(ServerKind::ThttpdSelect, 900.0, 501);
    assert!(
        r.rate.avg < 0.75 * 900.0,
        "select should collapse: avg {}",
        r.rate.avg
    );
    assert!(r.error_percent() > 15.0, "err {}", r.error_percent());
}

#[test]
fn devpoll_beats_select_everywhere_it_matters() {
    let dev = point(ServerKind::ThttpdDevPoll, 900.0, 501);
    let sel = point(ServerKind::ThttpdSelect, 900.0, 501);
    assert!(dev.rate.avg > 1.2 * sel.rate.avg);
    assert!(dev.error_percent() < 1.0);
}

#[test]
fn fd_setsize_is_a_hard_wall() {
    // A descriptor at FD_SETSIZE cannot be watched; the backend reports
    // EINVAL rather than corrupting a bitmap.
    use scalable_net_io::devpoll::{DevPollRegistry, EventBackend, SelectBackend};
    use scalable_net_io::simkernel::{CostModel, Kernel, PollBits};
    use scalable_net_io::simnet::HostId;

    let mut kernel = Kernel::new(HostId(1), CostModel::k6_2_400mhz());
    let mut registry = DevPollRegistry::new();
    let pid = kernel.spawn(FD_SETSIZE + 10, 64);
    let mut backend = SelectBackend::new();
    assert!(backend
        .set_interest(
            &mut kernel,
            &mut registry,
            pid,
            (FD_SETSIZE - 1) as i32,
            PollBits::POLLIN,
        )
        .is_ok());
    assert!(backend
        .set_interest(
            &mut kernel,
            &mut registry,
            pid,
            FD_SETSIZE as i32,
            PollBits::POLLIN,
        )
        .is_err());
}
