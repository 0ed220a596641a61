//! End-to-end tests of the `/dev/poll` device against the simulated
//! kernel and network.

use devpoll::{DevPollConfig, DevPollRegistry, DvPoll, PollFd, PollOutcome};
use simcore::probe::Metric;
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Errno, Fd, Kernel, Pid, PollBits};
use simnet::{EndpointId, HostId, LinkConfig, Network, SockAddr, TcpConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);

struct World {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    pid: Pid,
    lfd: Fd,
}

fn pump(w: &mut World, horizon: SimTime) {
    devpoll::settle(
        &mut w.net,
        &mut w.kernel,
        &mut w.registry,
        SimTime::ZERO,
        horizon,
        |_, _, _, _, _| {},
    );
}

/// A `/dev/poll` counter of the world's kernel probe. The tests that
/// read one open a single device, so the kernel-wide count is that
/// device's count.
fn count(w: &World, m: Metric) -> u64 {
    w.kernel.probe().counter(m)
}

fn world() -> World {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
    let pid = kernel.spawn_default();
    kernel.begin_batch(SimTime::ZERO, pid);
    let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
    kernel.end_batch(SimTime::ZERO, pid);
    World {
        net,
        kernel,
        registry: DevPollRegistry::new(),
        pid,
        lfd,
    }
}

/// Connects a client and accepts it; returns (server fd, client ep).
fn connect_one(w: &mut World, at: SimTime) -> (Fd, EndpointId) {
    let conn = w
        .net
        .connect(at, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
        .unwrap();
    pump(w, at + SimDuration::from_millis(10));
    let t = at + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let fd = w.kernel.sys_accept(&mut w.net, t, w.pid, w.lfd).unwrap();
    w.kernel.end_batch(t, w.pid);
    pump(w, t + SimDuration::from_millis(1));
    (fd, EndpointId::new(conn, simnet::Side::Client))
}

fn open_dp(w: &mut World, config: DevPollConfig) -> Fd {
    let t = SimTime::ZERO;
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w.registry.open(&mut w.kernel, w.pid, config).unwrap();
    w.kernel.end_batch(t, w.pid);
    dpfd
}

#[test]
fn interest_add_scan_and_remove() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let (fd, client_ep) = connect_one(&mut w, SimTime::ZERO);

    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    // Nothing ready yet.
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(out, PollOutcome::Ready(0));
    assert!(res.is_empty());
    w.kernel.end_batch(t, w.pid);

    // Data arrives.
    w.net.send(t, client_ep, b"ping").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));

    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(out, PollOutcome::Ready(1));
    assert_eq!(res.len(), 1);
    assert_eq!(res[0].fd, fd);
    assert!(res[0].revents.contains(PollBits::POLLIN));

    // POLLREMOVE drops the interest: later scans report nothing.
    w.registry
        .write(&mut w.kernel, w.pid, dpfd, &[PollFd::remove(fd)])
        .unwrap();
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(out, PollOutcome::Ready(0));
    assert!(res.is_empty());
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn hints_avoid_driver_polls_for_idle_descriptors() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());

    // 50 idle connections in the interest set.
    let mut fds = Vec::new();
    for i in 0..50u64 {
        let (fd, _c) = connect_one(&mut w, SimTime::from_millis(i * 2));
        fds.push(fd);
    }
    let t = SimTime::from_millis(200);
    w.kernel.begin_batch(t, w.pid);
    let entries: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
        .collect();
    w.registry
        .write(&mut w.kernel, w.pid, dpfd, &entries)
        .unwrap();

    // First scan: every (fresh) interest is hinted, all pay a callback.
    let _ = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(count(&w, Metric::DevpollDriverPolls), 50);

    // Second scan: nothing changed, nothing hinted, all avoided.
    let _ = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(
        count(&w, Metric::DevpollDriverPolls),
        50,
        "no further callbacks"
    );
    assert_eq!(count(&w, Metric::DevpollDriverPollsAvoided), 50);
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn hint_marks_trigger_revalidation_of_exactly_the_active_fd() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let (fd_a, ep_a) = connect_one(&mut w, SimTime::ZERO);
    let (fd_b, _ep_b) = connect_one(&mut w, SimTime::from_millis(5));

    let t = SimTime::from_millis(30);
    w.kernel.begin_batch(t, w.pid);
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[
                PollFd::new(fd_a, PollBits::POLLIN),
                PollFd::new(fd_b, PollBits::POLLIN),
            ],
        )
        .unwrap();
    let _ = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert_eq!(count(&w, Metric::DevpollDriverPolls), 2);

    // Activity on A only.
    w.net.send(t, ep_a, b"x").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));
    assert!(
        count(&w, Metric::DevpollHintsMarked) >= 1,
        "driver marked a hint"
    );

    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert_eq!(out, PollOutcome::Ready(1));
    assert_eq!(res[0].fd, fd_a);
    assert_eq!(
        count(&w, Metric::DevpollDriverPolls),
        3,
        "only the hinted fd was revalidated"
    );
}

#[test]
fn cached_ready_results_are_revalidated_each_scan() {
    // §3.2: "a cached result indicating readiness has to be reevaluated
    // each time."
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let (fd, ep) = connect_one(&mut w, SimTime::ZERO);
    w.net.send(SimTime::from_millis(15), ep, b"abc").unwrap();
    pump(&mut w, SimTime::from_millis(25));

    let t = SimTime::from_millis(30);
    w.kernel.begin_batch(t, w.pid);
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(res.len(), 1);
    let polls_after_first = count(&w, Metric::DevpollDriverPolls);

    // Scan again without new events: the ready result must be
    // revalidated (one more driver poll) and still reported.
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert_eq!(res.len(), 1, "still readable, still reported");
    let polls_after_second = count(&w, Metric::DevpollDriverPolls);
    assert_eq!(polls_after_second, polls_after_first + 1);

    // Drain the data: the next scan revalidates once more, finds the fd
    // idle, and then stops paying for it.
    let _ = w.kernel.sys_read(&mut w.net, w.pid, fd, 4096).unwrap();
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert!(res.is_empty());
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    assert!(res.is_empty());
    let polls_final = count(&w, Metric::DevpollDriverPolls);
    assert_eq!(
        polls_final,
        polls_after_second + 1,
        "idle fd dropped from scans"
    );
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn mmap_results_require_alloc_and_are_cheaper() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let (fd, ep) = connect_one(&mut w, SimTime::ZERO);

    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    // NULL dp_fds without a mapping is EINVAL.
    assert_eq!(
        w.registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_mmap(64, 0))
            .unwrap_err(),
        Errno::EINVAL
    );
    w.registry
        .dp_alloc_mmap(&mut w.kernel, w.pid, dpfd, 64)
        .unwrap();
    assert!(w
        .registry
        .device(&w.kernel, w.pid, dpfd)
        .unwrap()
        .has_mmap());
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    w.kernel.end_batch(t, w.pid);

    w.net.send(t, ep, b"data").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));

    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_mmap(64, 0))
        .unwrap();
    assert_eq!(out, PollOutcome::Ready(1));
    assert_eq!(res.len(), 1);
    assert_eq!(
        count(&w, Metric::DevpollMmapResultBytes),
        PollFd::BYTES as u64,
        "one result through the mapping"
    );
    // munmap: back to user-buffer mode only.
    w.registry.munmap(&mut w.kernel, w.pid, dpfd).unwrap();
    assert_eq!(
        w.registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_mmap(64, 0))
            .unwrap_err(),
        Errno::EINVAL
    );
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn multiple_independent_interest_sets() {
    // "A process may open /dev/poll more than once to build multiple
    // independent interest sets."
    let mut w = world();
    let dp1 = open_dp(&mut w, DevPollConfig::default());
    let dp2 = open_dp(&mut w, DevPollConfig::default());
    let (fd_a, ep_a) = connect_one(&mut w, SimTime::ZERO);
    let (fd_b, ep_b) = connect_one(&mut w, SimTime::from_millis(5));

    let t = SimTime::from_millis(30);
    w.kernel.begin_batch(t, w.pid);
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dp1,
            &[PollFd::new(fd_a, PollBits::POLLIN)],
        )
        .unwrap();
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dp2,
            &[PollFd::new(fd_b, PollBits::POLLIN)],
        )
        .unwrap();
    w.kernel.end_batch(t, w.pid);

    w.net.send(t, ep_a, b"a").unwrap();
    w.net.send(t, ep_b, b"b").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));

    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (_, r1) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dp1, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    let (_, r2) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dp2, DvPoll::into_user_buffer(64, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert_eq!(r1.iter().map(|p| p.fd).collect::<Vec<_>>(), vec![fd_a]);
    assert_eq!(r2.iter().map(|p| p.fd).collect::<Vec<_>>(), vec![fd_b]);
}

#[test]
fn devpoll_fd_on_wrong_calls_is_einval() {
    let mut w = world();
    let (fd, _ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    // Stream fd is not a devpoll fd.
    assert_eq!(
        w.registry
            .dp_poll(&mut w.kernel, w.pid, fd, DvPoll::into_user_buffer(4, 0))
            .unwrap_err(),
        Errno::EINVAL
    );
    assert_eq!(
        w.registry.write(&mut w.kernel, w.pid, fd, &[]).unwrap_err(),
        Errno::EINVAL
    );
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn close_releases_device_and_fd() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let t = SimTime::from_millis(1);
    w.kernel.begin_batch(t, w.pid);
    w.registry.close(&mut w.kernel, w.pid, dpfd).unwrap();
    assert_eq!(
        w.registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(4, 0))
            .unwrap_err(),
        Errno::EBADF
    );
    // The fd slot is reusable.
    let dp2 = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    assert_eq!(dp2, dpfd);
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn result_cap_respects_dp_nfds() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let mut eps = Vec::new();
    for i in 0..10u64 {
        let (fd, ep) = connect_one(&mut w, SimTime::from_millis(i * 2));
        eps.push((fd, ep));
    }
    let t = SimTime::from_millis(60);
    w.kernel.begin_batch(t, w.pid);
    let entries: Vec<PollFd> = eps
        .iter()
        .map(|&(fd, _)| PollFd::new(fd, PollBits::POLLIN))
        .collect();
    w.registry
        .write(&mut w.kernel, w.pid, dpfd, &entries)
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    for &(_, ep) in &eps {
        w.net.send(t, ep, b"z").unwrap();
    }
    pump(&mut w, t + SimDuration::from_millis(10));

    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(4, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert_eq!(out, PollOutcome::Ready(4));
    assert_eq!(res.len(), 4);
}

#[test]
fn no_hints_config_scans_everything() {
    let mut w = world();
    let dpfd = open_dp(
        &mut w,
        DevPollConfig {
            hints: false,
            ..DevPollConfig::default()
        },
    );
    let mut entries = Vec::new();
    for i in 0..20u64 {
        let (fd, _ep) = connect_one(&mut w, SimTime::from_millis(i * 2));
        entries.push(PollFd::new(fd, PollBits::POLLIN));
    }
    let t = SimTime::from_millis(80);
    w.kernel.begin_batch(t, w.pid);
    w.registry
        .write(&mut w.kernel, w.pid, dpfd, &entries)
        .unwrap();
    for _ in 0..3 {
        let _ = w
            .registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, 0))
            .unwrap();
    }
    w.kernel.end_batch(t, w.pid);
    assert_eq!(
        count(&w, Metric::DevpollDriverPolls),
        60,
        "every scan pays for every interest"
    );
    assert_eq!(count(&w, Metric::DevpollDriverPollsAvoided), 0);
}

/// `devpoll::settle` itself. The process sleeps in `DP_POLL` on one
/// watched descriptor while a client's data is in flight. Settling to
/// just before the arrival runs the kernel's earlier deadline and
/// nothing past `until`; settling from an instant after the arrival
/// runs the overdue delivery at that instant, where its hint marks the
/// watched entry before the woken process runs.
#[test]
fn settle_runs_overdue_work_at_now_and_nothing_past_until() {
    let mut w = world();
    let dpfd = open_dp(&mut w, DevPollConfig::default());
    let (fd, client_ep) = connect_one(&mut w, SimTime::ZERO);

    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    let watch = [PollFd::new(fd, PollBits::POLLIN)];
    w.registry
        .write(&mut w.kernel, w.pid, dpfd, &watch)
        .unwrap();
    let (out, _) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(64, -1))
        .unwrap();
    assert_eq!(out, PollOutcome::WouldBlock);
    let batch_done = w.kernel.end_batch_sleep(t, w.pid, None);
    w.net.send(t, client_ep, b"ping").unwrap();
    let arrival = w.net.next_deadline().unwrap();
    assert!(batch_done < arrival);

    // (instant, pid, hints marked so far) per runnable process.
    let mut woken = Vec::new();
    let mut settle = |w: &mut World, now, until| {
        devpoll::settle(
            &mut w.net,
            &mut w.kernel,
            &mut w.registry,
            now,
            until,
            |_, kernel, _, at, pid| {
                woken.push((at, pid, kernel.probe().counter(Metric::DevpollHintsMarked)))
            },
        )
    };

    let just_before = arrival - SimDuration::from_nanos(1);
    assert_eq!(settle(&mut w, t, just_before), batch_done);
    assert_eq!(w.net.next_deadline(), Some(arrival), "delivery ran early");
    assert_eq!(count(&w, Metric::DevpollHintsMarked), 0);

    let late = arrival + SimDuration::from_millis(1);
    assert_eq!(settle(&mut w, late, late), late);
    assert_eq!(count(&w, Metric::DevpollHintsMarked), 1);
    assert_eq!(woken, vec![(late, w.pid, 1)]);
}
