//! Additional `/dev/poll` semantics: Solaris OR-compatibility, the
//! combined update+poll operation, per-socket locks, and edge cases.

use devpoll::{DevPollConfig, DevPollRegistry, DvPoll, PollFd, PollOutcome};
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
    (fd, EndpointId::new(conn, simnet::Side::Client))
}

#[test]
fn solaris_or_semantics_accumulate_interest() {
    let mut w = world();
    let (fd, ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(
            &mut w.kernel,
            w.pid,
            DevPollConfig {
                or_semantics: true,
                ..DevPollConfig::default()
            },
        )
        .unwrap();
    // Two writes: POLLIN then POLLOUT. Solaris ORs them together.
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLOUT)],
        )
        .unwrap();
    // The socket is writable (empty send buffer): POLLOUT must report
    // even though the *last* write only named POLLOUT... and once data
    // arrives POLLIN reports too, proving the OR.
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(8, 0))
        .unwrap();
    assert!(res[0].revents.contains(PollBits::POLLOUT));
    w.kernel.end_batch(t, w.pid);

    w.net.send(t, ep, b"in too").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));
    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(8, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert!(res[0].revents.contains(PollBits::POLLIN));
    assert!(res[0].revents.contains(PollBits::POLLOUT));
}

#[test]
fn linux_replace_semantics_drop_old_interest() {
    let mut w = world();
    let (fd, ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    // Replace with POLLOUT only.
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLOUT)],
        )
        .unwrap();
    w.kernel.end_batch(t, w.pid);

    w.net.send(t, ep, b"data").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));
    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (_, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(8, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    // POLLIN was replaced away: only POLLOUT may report.
    assert!(res[0].revents.contains(PollBits::POLLOUT));
    assert!(
        !res[0].revents.contains(PollBits::POLLIN),
        "POLLIN interest was replaced: {:?}",
        res[0]
    );
}

#[test]
fn combined_update_poll_charges_one_syscall_less() {
    let mut w = world();
    let (fd, _ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    let syscall = w.kernel.cost_model().syscall;

    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    w.kernel.end_batch(t, w.pid);

    let cost_of = |w: &mut World, combined: bool| -> u64 {
        w.kernel.begin_batch(t, w.pid);
        let upd = [PollFd::new(fd, PollBits::POLLIN)];
        if combined {
            w.registry
                .write_combined(&mut w.kernel, w.pid, dpfd, &upd)
                .unwrap();
        } else {
            w.registry.write(&mut w.kernel, w.pid, dpfd, &upd).unwrap();
        }
        let _ = w
            .registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(8, 0))
            .unwrap();
        let acc = w.kernel.process(w.pid).batch_acc.unwrap().as_nanos();
        w.kernel.end_batch(t, w.pid);
        acc
    };
    let separate = cost_of(&mut w, false);
    let combined = cost_of(&mut w, true);
    assert_eq!(separate - combined, syscall, "exactly one syscall saved");
}

#[test]
fn per_socket_locks_halve_lock_cost() {
    let mut w = world();
    let (fd, _ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    let global = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    let per_sock = w
        .registry
        .open(
            &mut w.kernel,
            w.pid,
            DevPollConfig {
                per_socket_locks: true,
                ..DevPollConfig::default()
            },
        )
        .unwrap();
    for dpfd in [global, per_sock] {
        w.registry
            .write(
                &mut w.kernel,
                w.pid,
                dpfd,
                &[PollFd::new(fd, PollBits::POLLIN)],
            )
            .unwrap();
    }
    let cost_of = |w: &mut World, dpfd: Fd| -> u64 {
        let before = w.kernel.process(w.pid).batch_acc.unwrap().as_nanos();
        let _ = w
            .registry
            .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(8, 0))
            .unwrap();
        w.kernel.process(w.pid).batch_acc.unwrap().as_nanos() - before
    };
    let g = cost_of(&mut w, global);
    let p = cost_of(&mut w, per_sock);
    w.kernel.end_batch(t, w.pid);
    let rlock = w.kernel.cost_model().backmap_rlock;
    assert_eq!(g - p, rlock - rlock / 2, "read-lock traffic halves");
}

#[test]
fn zero_dp_nfds_returns_no_results() {
    let mut w = world();
    let (fd, ep) = connect_one(&mut w, SimTime::ZERO);
    let t = SimTime::from_millis(20);
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    w.registry
        .write(
            &mut w.kernel,
            w.pid,
            dpfd,
            &[PollFd::new(fd, PollBits::POLLIN)],
        )
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    w.net.send(t, ep, b"x").unwrap();
    pump(&mut w, t + SimDuration::from_millis(10));
    let t = t + SimDuration::from_millis(10);
    w.kernel.begin_batch(t, w.pid);
    let (out, res) = w
        .registry
        .dp_poll(&mut w.kernel, w.pid, dpfd, DvPoll::into_user_buffer(0, 0))
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert_eq!(out, PollOutcome::Ready(0));
    assert!(res.is_empty());
}

#[test]
fn pollremove_of_unknown_fd_is_harmless() {
    let mut w = world();
    let t = SimTime::from_millis(1);
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    let n = w
        .registry
        .write(&mut w.kernel, w.pid, dpfd, &[PollFd::remove(99)])
        .unwrap();
    assert_eq!(n, 1, "entry processed even though nothing matched");
    assert_eq!(
        w.registry
            .device(&w.kernel, w.pid, dpfd)
            .unwrap()
            .interest()
            .len(),
        0
    );
    w.kernel.end_batch(t, w.pid);
}

#[test]
fn open_fails_cleanly_when_fd_table_full() {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
    let mut registry = DevPollRegistry::new();
    let pid = kernel.spawn(1, 16);
    kernel.begin_batch(SimTime::ZERO, pid);
    let _lfd = kernel.sys_listen(&mut net, pid, 80, 8).unwrap();
    assert_eq!(
        registry
            .open(&mut kernel, pid, DevPollConfig::default())
            .unwrap_err(),
        Errno::EMFILE
    );
    kernel.end_batch(SimTime::ZERO, pid);
}

#[test]
fn devpoll_fd_itself_reports_no_readiness() {
    let mut w = world();
    let t = SimTime::from_millis(1);
    w.kernel.begin_batch(t, w.pid);
    let dpfd = w
        .registry
        .open(&mut w.kernel, w.pid, DevPollConfig::default())
        .unwrap();
    w.kernel.end_batch(t, w.pid);
    assert!(w.kernel.readiness(w.pid, dpfd).is_empty());
}
