//! Shape tests for the `select()` baseline extension: one interface
//! generation before the paper's `poll()` baseline, it must do at least
//! as badly under inactive load — and fail outright past `FD_SETSIZE`.

mod common;

use common::{claim, point};
use scalable_net_io::devpoll::FD_SETSIZE;
use scalable_net_io::httperf::ServerKind;

#[test]
fn select_serves_light_load() {
    let r = point(ServerKind::ThttpdSelect, 500.0, 1);
    claim(
        r.rate.avg > 0.97 * 500.0 && r.error_percent() < 1.0,
        &format!(
            "select clean at 500/1: avg {} > 485, err {}% < 1%",
            r.rate.avg,
            r.error_percent()
        ),
        &r,
    );
}

#[test]
fn select_is_no_better_than_poll_under_inactive_load() {
    let mut sel = point(ServerKind::ThttpdSelect, 500.0, 501);
    let mut poll = point(ServerKind::ThttpdPoll, 500.0, 501);
    let (s, p) = (sel.median_latency_ms(), poll.median_latency_ms());
    claim(
        s >= p,
        &format!("select median {s} ms must be at least poll's {p} ms (extra bitmap walk)"),
        &sel,
    );
}

#[test]
fn select_collapses_under_inactive_load_like_poll() {
    let r = point(ServerKind::ThttpdSelect, 900.0, 501);
    claim(
        r.rate.avg < 0.75 * 900.0 && r.error_percent() > 15.0,
        &format!(
            "select should collapse at 900/501: avg {} < 675, err {}% > 15%",
            r.rate.avg,
            r.error_percent()
        ),
        &r,
    );
}

#[test]
fn devpoll_beats_select_everywhere_it_matters() {
    let dev = point(ServerKind::ThttpdDevPoll, 900.0, 501);
    let sel = point(ServerKind::ThttpdSelect, 900.0, 501);
    claim(
        dev.rate.avg > 1.2 * sel.rate.avg && dev.error_percent() < 1.0,
        &format!(
            "devpoll {} vs select {} req/s at 900/501, devpoll err {}% < 1%",
            dev.rate.avg,
            sel.rate.avg,
            dev.error_percent()
        ),
        &dev,
    );
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
