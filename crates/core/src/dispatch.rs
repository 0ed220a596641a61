//! The per-instant dispatch order of a simulated world, kept in one
//! place.
//!
//! At each instant the *network phase* runs first: due deliveries and
//! retransmissions fire, and each notification reaches the kernel
//! (`Kernel::on_net`) before the caller's hook sees it. The *kernel
//! phase* follows: due process transitions fire, each descriptor event
//! marks the `/dev/poll` driver hint (§3.2), and each runnable process
//! goes to the caller's hook.
//!
//! `httperf::Testbed::drain_at` calls the two phases with the load
//! generator and the server as hooks; every hand-driven world (unit and
//! integration tests, the model checker's lanes, the examples) runs
//! them through [`settle`]. The hooks are generic, so the testbed's loop
//! compiles to direct calls.

use simcore::time::SimTime;
use simkernel::{Kernel, KernelEvent, Pid};
use simnet::{NetNotify, Network};

use crate::device::DevPollRegistry;

/// The network phase at `now`: fires the network's due timers into
/// `notifies` (cleared first), then passes each notification to the
/// kernel and after it to `on_notify`. Returns the notification count.
// #[hot_path] — simcheck bans per-call allocation in this function
pub fn net_phase(
    net: &mut Network,
    kernel: &mut Kernel,
    now: SimTime,
    notifies: &mut Vec<NetNotify>,
    mut on_notify: impl FnMut(&mut Network, &NetNotify),
) -> usize {
    notifies.clear();
    net.advance_into(now, notifies);
    for n in notifies.iter() {
        kernel.on_net(now, n);
        on_notify(net, n);
    }
    notifies.len()
}

/// The kernel phase at `now`: fires due process transitions and drains
/// the kernel's queued events into `kevents` (cleared first). A
/// descriptor event goes to [`DevPollRegistry::on_fd_event`], a
/// runnable process to `on_runnable`. Returns the event count.
// #[hot_path] — simcheck bans per-call allocation in this function
pub fn kernel_phase(
    net: &mut Network,
    kernel: &mut Kernel,
    registry: &mut DevPollRegistry,
    now: SimTime,
    kevents: &mut Vec<KernelEvent>,
    mut on_runnable: impl FnMut(&mut Network, &mut Kernel, &mut DevPollRegistry, SimTime, Pid),
) -> usize {
    kevents.clear();
    kernel.advance_into(now, kevents);
    for &e in kevents.iter() {
        match e {
            KernelEvent::FdEvent { pid, fd, .. } => registry.on_fd_event(kernel, now, pid, fd),
            KernelEvent::ProcRunnable { pid } => on_runnable(net, kernel, registry, now, pid),
        }
    }
    kevents.len()
}

/// Runs the world through every network and kernel deadline up to
/// `until`, earliest first: the network phase, then the kernel phase,
/// at each instant. A deadline already behind `now` runs at `now`.
/// Returns the last instant processed, or `now` if nothing was due.
///
/// A world with no `/dev/poll` device passes a fresh registry: with no
/// device open, a descriptor event charges nothing.
pub fn settle(
    net: &mut Network,
    kernel: &mut Kernel,
    registry: &mut DevPollRegistry,
    mut now: SimTime,
    until: SimTime,
    mut on_runnable: impl FnMut(&mut Network, &mut Kernel, &mut DevPollRegistry, SimTime, Pid),
) -> SimTime {
    let (mut notifies, mut kevents) = (Vec::new(), Vec::new());
    while let Some(next) = net
        .next_deadline()
        .into_iter()
        .chain(kernel.next_deadline())
        .min()
        .filter(|&t| t <= until)
    {
        now = now.max(next);
        net_phase(net, kernel, now, &mut notifies, |_, _| {});
        kernel_phase(net, kernel, registry, now, &mut kevents, &mut on_runnable);
    }
    now
}
