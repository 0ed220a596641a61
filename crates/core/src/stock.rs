//! Stock `poll()` — the baseline the paper improves on.
//!
//! Every invocation is charged for copying the whole interest set into
//! the kernel, invoking each file's driver poll callback, and copying
//! results back. If nothing is ready, the process is registered on
//! every file's wait queue before sleeping, and deregistered on wakeup —
//! the per-descriptor costs that §3 attributes the baseline's poor
//! scalability to.
//!
//! Those charges are the model; the host work need not follow them.
//! [`sys_poll`] evaluates every entry, registers every entry when it
//! would block, and is the reference. [`crate::StockPollBackend`] runs
//! the same charging body, `poll_call`, around a scan of only the
//! entries whose readiness may have changed since its last wait, and a
//! registration that unparks the wait-queue entries the kernel kept
//! from its last sleep, edited as its array changed
//! ([`Kernel::unwatch_all`], [`Kernel::keep_watch`],
//! [`Kernel::unpark_watches`]). It returns the same entries and leaves
//! the same registrations.

use simcore::probe::Metric;
use simcore::span::Phase;
use simkernel::{Kernel, Pid, PollBits};

use crate::pollfd::PollFd;

/// Result of one `poll()` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// At least one descriptor is ready; `revents` fields in the passed
    /// array have been filled in and the count is returned.
    Ready(usize),
    /// Nothing ready; the process has been registered on all wait queues
    /// and should sleep (then call `sys_poll` again on wakeup).
    WouldBlock,
}

/// Executes `poll(fds, nfds, timeout)` against the simulated kernel,
/// evaluating every entry: the reference scan that
/// [`crate::StockPollBackend`]'s incremental wait must agree with.
///
/// Must be called inside a batch ([`Kernel::begin_batch`]). On
/// [`PollOutcome::WouldBlock`] the caller is expected to
/// [`Kernel::end_batch_sleep`] and re-invoke on wakeup; the wait-queue
/// deregistration cost of the previous sleep is charged at the start of
/// the next call, mirroring where the real kernel does that work.
///
/// # Examples
///
/// See the `thttpd` server in the `servers` crate for the canonical
/// event loop built on this call.
// #[hot_path] — simcheck bans per-call allocation in this function
pub fn sys_poll(kernel: &mut Kernel, pid: Pid, fds: &mut [PollFd], timeout_ms: i32) -> PollOutcome {
    poll_call(
        kernel,
        pid,
        fds,
        timeout_ms,
        |kernel, fds| {
            let mut ready = 0usize;
            for f in fds.iter_mut() {
                let state = kernel.readiness(pid, f.fd);
                f.revents = state & (f.events | PollBits::always_reported());
                if !f.revents.is_empty() {
                    ready += 1;
                }
            }
            ready
        },
        |kernel, fds| {
            for f in fds {
                kernel.watch(pid, f.fd);
            }
        },
    )
}

/// The modelled work of one `poll()` call over `fds`, around `scan`,
/// which evaluates readiness on the host and returns how many entries
/// it found ready ([`PollOutcome::Ready`] carries that count), and
/// `register`, which on the would-block path leaves every fd of `fds`
/// registered on its wait queue (the deregistration at entry left the
/// set empty: [`Kernel::unwatch_all`]).
///
/// Every charge, probe and span depends only on `fds.len()`, on the
/// registrations the previous call left, and on whether `scan` found
/// anything ready, so a scan that evaluates only the entries that may
/// have changed, and stops early, is charged exactly like one that
/// evaluates them all; and a registration that unparks the entries
/// the kernel kept is charged like one that registers them all.
// #[hot_path] — simcheck bans per-call allocation in this function
pub(crate) fn poll_call(
    kernel: &mut Kernel,
    pid: Pid,
    fds: &mut [PollFd],
    timeout_ms: i32,
    scan: impl FnOnce(&Kernel, &mut [PollFd]) -> usize,
    register: impl FnOnce(&mut Kernel, &[PollFd]),
) -> PollOutcome {
    let cost = *kernel.cost_model();
    kernel.charge_app(pid, cost.syscall);
    let probe = kernel.probe_mut();
    probe.inc(Metric::PollCalls);
    // Stock poll() pays one driver callback per descriptor per call —
    // the baseline the devpoll.driver_polls_avoided counter is judged
    // against.
    probe.add(Metric::PollDriverPolls, fds.len() as u64);

    let spans_on = kernel.spans().enabled();

    // Deregister wait-queue entries left by a previous sleeping poll,
    // then copy-in and parse the entire interest set — every call. Both
    // are poll()'s per-call interest-declaration tax.
    let t_reg = kernel.batch_acc(pid);
    let removed = kernel.unwatch_all(pid);
    kernel.charge_app(pid, cost.wq_remove * removed as u64);
    kernel.charge_app(pid, cost.pollfd_copyin * fds.len() as u64);
    if spans_on {
        kernel.span_leaf(pid, Phase::InterestReg, t_reg);
    }

    // Scan: one driver poll callback per descriptor, ready or not
    // (charged in bulk — the sum is identical to a per-descriptor
    // charge, without a million accounting calls on the host).
    let t_scan = kernel.batch_acc(pid);
    kernel.charge_app(pid, cost.driver_poll * fds.len() as u64);
    let ready = scan(kernel, fds);
    if spans_on {
        kernel.span_leaf(pid, Phase::ReadyScan, t_scan);
    }

    if ready > 0 {
        // Result copy-out, proportional to the *whole* array in the real
        // syscall (revents live inline in the user array).
        let t_out = kernel.batch_acc(pid);
        kernel.charge_app(pid, cost.pollfd_copyout * fds.len() as u64);
        if spans_on {
            kernel.span_leaf(pid, Phase::Delivery, t_out);
        }
        return PollOutcome::Ready(ready);
    }
    if timeout_ms == 0 {
        return PollOutcome::Ready(0);
    }

    // Nothing ready: register on every file's wait queue, then sleep.
    let t_wq = kernel.batch_acc(pid);
    kernel.charge_app(pid, cost.wq_add * fds.len() as u64);
    register(kernel, fds);
    if spans_on {
        kernel.span_leaf(pid, Phase::InterestReg, t_wq);
    }
    PollOutcome::WouldBlock
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use simkernel::CostModel;
    use simnet::{HostId, LinkConfig, Network, SockAddr, TcpConfig};

    const CLIENT: HostId = HostId(0);
    const SERVER: HostId = HostId(1);

    /// Runs the world to `until`; no `/dev/poll` device is open.
    fn settle(net: &mut Network, kernel: &mut Kernel, now: SimTime, until: SimTime) -> SimTime {
        let registry = &mut crate::DevPollRegistry::new();
        crate::settle(net, kernel, registry, now, until, |_, _, _, _, _| {})
    }

    /// A server with a listener and one accepted, idle connection:
    /// `(net, kernel, pid, connection fd, client endpoint, listener fd)`.
    fn setup_with_conn() -> (
        Network,
        Kernel,
        Pid,
        simkernel::Fd,
        simnet::EndpointId,
        simkernel::Fd,
    ) {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let conn = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        let t = settle(
            &mut net,
            &mut kernel,
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        let _ = kernel.advance(SimTime::from_millis(20));
        (
            net,
            kernel,
            pid,
            fd,
            simnet::EndpointId::new(conn, simnet::Side::Client),
            lfd,
        )
    }

    #[test]
    fn reports_ready_fd() {
        let (mut net, mut kernel, pid, fd, client_ep, _) = setup_with_conn();
        let t = SimTime::from_millis(20);
        net.send(t, client_ep, b"data").unwrap();
        settle(&mut net, &mut kernel, t, SimTime::from_millis(30));
        let t = SimTime::from_millis(30);
        kernel.begin_batch(t, pid);
        let mut fds = [PollFd::new(fd, PollBits::POLLIN)];
        let out = sys_poll(&mut kernel, pid, &mut fds, -1);
        kernel.end_batch(t, pid);
        assert_eq!(out, PollOutcome::Ready(1));
        assert!(fds[0].revents.contains(PollBits::POLLIN));
    }

    #[test]
    fn would_block_registers_watchers() {
        let (_net, mut kernel, pid, fd, _client, _) = setup_with_conn();
        let t = SimTime::from_millis(20);
        kernel.begin_batch(t, pid);
        let mut fds = [PollFd::new(fd, PollBits::POLLIN)];
        let out = sys_poll(&mut kernel, pid, &mut fds, -1);
        assert_eq!(out, PollOutcome::WouldBlock);
        assert_eq!(kernel.watch_count(pid), 1);
        kernel.end_batch_sleep(t, pid, None);
    }

    #[test]
    fn zero_timeout_returns_immediately() {
        let (_net, mut kernel, pid, fd, _client, _) = setup_with_conn();
        let t = SimTime::from_millis(20);
        kernel.begin_batch(t, pid);
        let mut fds = [PollFd::new(fd, PollBits::POLLIN)];
        let out = sys_poll(&mut kernel, pid, &mut fds, 0);
        kernel.end_batch(t, pid);
        assert_eq!(out, PollOutcome::Ready(0));
        assert_eq!(kernel.watch_count(pid), 0);
    }

    #[test]
    fn cost_scales_linearly_with_interest_set_size() {
        // The core scalability defect of stock poll(): cost is O(n) in
        // the interest-set size even when nothing is ready.
        let (_net, mut kernel, pid, fd, _client, _) = setup_with_conn();
        let t = SimTime::from_millis(20);

        let batch_cost = |kernel: &mut Kernel, n: usize| -> SimDuration {
            kernel.begin_batch(t, pid);
            // Use the same (valid) fd n times: cost model does not care.
            let mut fds = vec![PollFd::new(fd, PollBits::POLLIN); n];
            let _ = sys_poll(kernel, pid, &mut fds, 0);
            let start = t;
            let done = kernel.end_batch(start, pid);
            done.saturating_duration_since(start)
        };
        // Let the CPU idle out between measurements by using fresh
        // kernels... simpler: measure incremental cost via batch size.
        let c10 = batch_cost(&mut kernel, 10);
        let c1000 = batch_cost(&mut kernel, 1000);
        let per_fd = (c1000.as_nanos() as i64 - c10.as_nanos() as i64) / 990;
        let cm = CostModel::k6_2_400mhz();
        // Nothing is ready and the timeout is zero, so no copy-out and no
        // wait-queue registration: copy-in plus driver callback per fd.
        let expected = (cm.pollfd_copyin + cm.driver_poll) as i64;
        assert!(
            (per_fd - expected).abs() <= expected / 10,
            "per-fd cost {per_fd} should be ~{expected}"
        );
    }

    #[test]
    fn reports_hup_even_when_not_requested() {
        let (mut net, mut kernel, pid, fd, client_ep, _) = setup_with_conn();
        let t = SimTime::from_millis(20);
        net.close(t, client_ep).unwrap();
        settle(&mut net, &mut kernel, t, SimTime::from_millis(30));
        let t = SimTime::from_millis(30);
        kernel.begin_batch(t, pid);
        // Ask only for POLLOUT; HUP must still be reported.
        let mut fds = [PollFd::new(fd, PollBits::POLLOUT)];
        let out = sys_poll(&mut kernel, pid, &mut fds, -1);
        kernel.end_batch(t, pid);
        assert_eq!(out, PollOutcome::Ready(1));
        assert!(fds[0].revents.contains(PollBits::POLLHUP));
    }

    /// One wait over `fds` at `t`, through `sys_poll` or through
    /// `backend`: its outcome and its charged cost.
    fn wait_at(
        kernel: &mut Kernel,
        t: SimTime,
        pid: Pid,
        backend: Option<&mut crate::StockPollBackend>,
        fds: &mut [PollFd],
        timeout_ms: i32,
    ) -> (PollOutcome, u64) {
        use crate::EventBackend;
        kernel.begin_batch(t, pid);
        let t0 = kernel.batch_acc(pid);
        let out = match backend {
            None => sys_poll(kernel, pid, fds, timeout_ms),
            Some(b) => {
                let mut out = Vec::new();
                let registry = &mut crate::DevPollRegistry::new();
                b.wait(kernel, registry, pid, usize::MAX, timeout_ms, &mut out)
                    .unwrap();
                match out.len() {
                    0 if timeout_ms != 0 => PollOutcome::WouldBlock,
                    n => PollOutcome::Ready(n),
                }
            }
        };
        let cost = (kernel.batch_acc(pid) - t0).as_nanos();
        kernel.end_batch(t, pid);
        (out, cost)
    }

    /// A backend whose array is `fds`.
    fn backend_over(kernel: &mut Kernel, pid: Pid, fds: &[PollFd]) -> crate::StockPollBackend {
        use crate::EventBackend;
        let mut b = crate::StockPollBackend::new();
        let registry = &mut crate::DevPollRegistry::new();
        for f in fds {
            b.set_interest(kernel, registry, pid, f.fd, f.events)
                .unwrap();
        }
        b
    }

    #[test]
    fn a_ready_call_after_a_sleep_deregisters_everything() {
        let cm = CostModel::k6_2_400mhz();
        for through_backend in [false, true] {
            let (mut net, mut kernel, pid, fd, client_ep, lfd) = setup_with_conn();
            let mut fds = [
                PollFd::new(lfd, PollBits::POLLIN),
                PollFd::new(fd, PollBits::POLLIN),
            ];
            let mut backend = through_backend.then(|| backend_over(&mut kernel, pid, &fds));
            let t = SimTime::from_millis(20);
            let (out, _) = wait_at(&mut kernel, t, pid, backend.as_mut(), &mut fds, -1);
            assert_eq!(out, PollOutcome::WouldBlock);
            assert_eq!(kernel.watch_count(pid), 2);

            net.send(t, client_ep, b"data").unwrap();
            settle(&mut net, &mut kernel, t, SimTime::from_millis(30));
            let t = SimTime::from_millis(30);
            let (out, cost) = wait_at(&mut kernel, t, pid, backend.as_mut(), &mut fds, -1);
            assert_eq!(out, PollOutcome::Ready(1));
            assert_eq!(kernel.watch_count(pid), 0, "backend: {through_backend}");
            assert!(!kernel.is_watched(pid, lfd) && !kernel.is_watched(pid, fd));
            let per_fd = cm.pollfd_copyin + cm.driver_poll + cm.pollfd_copyout;
            assert_eq!(
                cost,
                cm.syscall + 2 * cm.wq_remove + 2 * per_fd,
                "backend: {through_backend}"
            );
        }
    }

    #[test]
    fn a_parked_set_written_by_the_device_or_select_is_rebuilt_in_full() {
        let cm = CostModel::k6_2_400mhz();
        for writer in ["device", "select"] {
            let (mut net, mut kernel, pid, fd, client_ep, lfd) = setup_with_conn();
            let mut fds = [
                PollFd::new(lfd, PollBits::POLLIN),
                PollFd::new(fd, PollBits::POLLIN),
            ];
            let mut b = backend_over(&mut kernel, pid, &fds);
            // Sleep, then a ready call: the registrations are parked.
            let t = SimTime::from_millis(20);
            let (out, _) = wait_at(&mut kernel, t, pid, Some(&mut b), &mut fds, -1);
            assert_eq!(out, PollOutcome::WouldBlock);
            net.send(t, client_ep, b"data").unwrap();
            settle(&mut net, &mut kernel, t, SimTime::from_millis(30));
            let t = SimTime::from_millis(30);
            let (out, _) = wait_at(&mut kernel, t, pid, Some(&mut b), &mut fds, -1);
            assert_eq!(out, PollOutcome::Ready(1));
            kernel.begin_batch(t, pid);
            kernel.sys_read(&mut net, pid, fd, 4096).unwrap();

            // Another registration path writes one watcher for `fd`.
            if writer == "device" {
                let registry = &mut crate::DevPollRegistry::new();
                let dpfd = registry
                    .open(&mut kernel, pid, crate::DevPollConfig::default())
                    .unwrap();
                registry
                    .write(&mut kernel, pid, dpfd, &[PollFd::new(fd, PollBits::POLLIN)])
                    .unwrap();
            } else {
                let (mut read, mut write) = (crate::FdSet::new(), crate::FdSet::new());
                read.set(fd);
                let out = crate::sys_select(&mut kernel, pid, &mut read, &mut write, -1);
                assert_eq!(out, PollOutcome::WouldBlock);
            }
            kernel.end_batch(t, pid);
            assert_eq!(kernel.watch_count(pid), 1, "{writer}");

            // The next would-block deregisters that one and registers the
            // whole array, and nothing else.
            let (out, cost) = wait_at(&mut kernel, t, pid, Some(&mut b), &mut fds, -1);
            assert_eq!(out, PollOutcome::WouldBlock, "{writer}");
            let per_fd = cm.pollfd_copyin + cm.driver_poll + cm.wq_add;
            assert_eq!(cost, cm.syscall + cm.wq_remove + 2 * per_fd, "{writer}");
            let mut watched = Vec::new();
            kernel.for_each_watched(pid, |fd| watched.push(fd));
            assert_eq!(watched, vec![lfd, fd], "{writer}");
        }
    }
}
