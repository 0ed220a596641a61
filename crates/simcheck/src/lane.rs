//! The five backend lanes `explore` drives, and the seeded faults it
//! injects into them.
//!
//! Each `Lane` is an independent simulated world — its own network,
//! kernel, process and backend state — for one readiness mechanism:
//! stock `poll()`, `select()`, `/dev/poll` with the paper's full feature
//! set, `/dev/poll` with driver hints disabled, and the RT-signal API
//! (drain + recovery `poll()`, the paper's overflow path). `explore`
//! applies every schedule to all five and checks each wait boundary
//! against the reference [`crate::model`].

use devpoll::{
    DevPollBackend, DevPollConfig, DevPollRegistry, EventBackend, LockGraph, RtSignalApi,
    SelectBackend, StockPollBackend,
};
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Fd, Kernel, Pid, PollBits};
use simnet::{EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

use crate::script::Op;

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);
/// Sim-time allowed for deliveries to settle after each op.
const SETTLE: SimDuration = SimDuration::from_millis(200);

/// A seeded semantic bug, injected through the doc-hidden fault hooks
/// on [`DevPollRegistry`] or, for OR-semantics, through the `/dev/poll`
/// lanes' own [`DevPollConfig`]. Each one disables the runtime
/// auditor's view of the corresponding invariant, so only the reference
/// model can catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutant {
    /// No fault injected.
    #[default]
    None,
    /// `DP_POLL` serves cached-ready results without revalidation
    /// (the §3.2 "has to be reevaluated each time" bug).
    SkipRevalidation,
    /// Interest updates OR into the previous mask instead of replacing
    /// it (the §3.1 Solaris-semantics divergence).
    OrInsteadOfReplace,
    /// `POLLREMOVE` drops the interest-table entry but leaves the
    /// backmap/watcher registration behind (half of the dual purge).
    SkipBackmapPurge,
}

impl Mutant {
    /// The three real faults (everything except `None`).
    pub fn all() -> [Mutant; 3] {
        [
            Mutant::SkipRevalidation,
            Mutant::OrInsteadOfReplace,
            Mutant::SkipBackmapPurge,
        ]
    }

    /// Display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::SkipRevalidation => "skip-revalidation",
            Mutant::OrInsteadOfReplace => "or-semantics",
            Mutant::SkipBackmapPurge => "skip-backmap-purge",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Mutant> {
        std::iter::once(Mutant::None)
            .chain(Mutant::all())
            .find(|m| m.name() == s)
    }

    fn arm(self, registry: &mut DevPollRegistry) {
        match self {
            Mutant::None | Mutant::OrInsteadOfReplace => {}
            Mutant::SkipRevalidation => registry.testhook_skip_revalidation(true),
            Mutant::SkipBackmapPurge => registry.testhook_skip_backmap_purge(true),
        }
    }
}

/// The backends under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Stock `poll()`.
    Poll,
    /// `select()`.
    Select,
    /// `/dev/poll`, hints + mmap (the paper's full configuration).
    DevPoll,
    /// `/dev/poll` with driver hints disabled (every scan polls all).
    DevPollNoHints,
    /// RT signals: drain the queue, then the paper's recovery `poll()`.
    RtSig,
}

impl LaneKind {
    /// All lanes.
    pub fn all() -> [LaneKind; 5] {
        [
            LaneKind::Poll,
            LaneKind::Select,
            LaneKind::DevPoll,
            LaneKind::DevPollNoHints,
            LaneKind::RtSig,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LaneKind::Poll => "poll",
            LaneKind::Select => "select",
            LaneKind::DevPoll => "devpoll",
            LaneKind::DevPollNoHints => "devpoll-nohints",
            LaneKind::RtSig => "rtsig",
        }
    }
}

/// A ready set: `(conn slot, ready bits)` sorted by slot.
pub type Snapshot = Vec<(usize, PollBits)>;

/// One backend's world: its own network, kernel, process and backend
/// state, so lanes cannot contaminate each other. `Clone` forks the
/// entire world — `explore` snapshots lanes at every decision point.
#[derive(Clone)]
pub(crate) struct Lane {
    pub(crate) kind: LaneKind,
    net: Network,
    pub(crate) kernel: Kernel,
    pub(crate) registry: DevPollRegistry,
    pid: Pid,
    backend: Box<dyn EventBackend>,
    rtapi: RtSignalApi,
    /// Server-side fd per accepted connection slot.
    pub(crate) fds: Vec<Fd>,
    /// Client-side endpoint per connection slot.
    eps: Vec<EndpointId>,
    /// Listener fd (pending accepts pop from here).
    lfd: Fd,
    now: SimTime,
    /// A lock-order graph that replaces the registry's in
    /// [`Lane::lock_graph`]: the registry only ever records the
    /// documented order, so unit tests plant inversions here.
    #[cfg(test)]
    pub(crate) planted_locks: Option<LockGraph>,
}

impl Lane {
    /// A lane whose descriptors are allocated from `fd_base` upward.
    /// Connections are established (handshakes settled, sitting in the
    /// accept queue) but **not** accepted — `Op::Accept` events accept
    /// them one at a time, slot k being the k-th arrival. Readiness
    /// must not depend on descriptor numbering, so any base checks the
    /// same semantics.
    pub(crate) fn new(kind: LaneKind, conns: usize, mutant: Mutant, fd_base: usize) -> Lane {
        let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let mut registry = DevPollRegistry::audited();
        mutant.arm(&mut registry);
        // The limit counts open descriptors (not the highest index), so
        // the default 1024 holds at any base.
        let pid = kernel.spawn_with_fd_base(1024, 1024, fd_base);
        let mut now = SimTime::ZERO;

        kernel.begin_batch(now, pid);
        let lfd = kernel
            .sys_listen(&mut net, pid, 80, 128)
            .expect("invariant: listen on a fresh world cannot fail");
        now = now.max(kernel.end_batch(now, pid));

        let mut eps = Vec::with_capacity(conns);
        for _ in 0..conns {
            let conn = net
                .connect(now, CLIENT, SockAddr::new(SERVER, 80), SimDuration::ZERO)
                .expect("invariant: ports cannot be exhausted at setup");
            eps.push(EndpointId::new(conn, Side::Client));
        }

        let devpoll = |hints: bool| {
            let config = DevPollConfig {
                hints,
                or_semantics: mutant == Mutant::OrInsteadOfReplace,
                ..DevPollConfig::default()
            };
            Box::new(DevPollBackend::with_config(config, true, false))
        };
        let backend: Box<dyn EventBackend> = match kind {
            // The rtsig lane's recovery poll reuses the stock backend's
            // interest bookkeeping.
            LaneKind::Poll | LaneKind::RtSig => Box::new(StockPollBackend::new()),
            LaneKind::Select => Box::new(SelectBackend::new()),
            LaneKind::DevPoll => devpoll(true),
            LaneKind::DevPollNoHints => devpoll(false),
        };

        let mut lane = Lane {
            kind,
            net,
            kernel,
            registry,
            pid,
            backend,
            rtapi: RtSignalApi::default(),
            fds: Vec::new(),
            eps,
            lfd,
            now,
            #[cfg(test)]
            planted_locks: None,
        };

        // Let every handshake complete so the accept queue holds all
        // connections in arrival order, then initialise the backend
        // (for /dev/poll lanes this allocates the dpfd).
        lane.pump();
        lane.kernel.begin_batch(lane.now, lane.pid);
        lane.backend
            .init(&mut lane.kernel, &mut lane.registry, lane.pid)
            .expect("invariant: backend init on a fresh world cannot fail");
        lane.now = lane.now.max(lane.kernel.end_batch(lane.now, lane.pid));
        lane.pump();
        lane
    }

    /// Number of accepted slots so far.
    pub(crate) fn accepted(&self) -> usize {
        self.fds.len()
    }

    /// Whether the kernel watcher registry holds a watcher for `slot`'s
    /// fd — the backmap half of the POLLREMOVE dual purge. Only
    /// meaningful on the /dev/poll lanes, where every watcher comes
    /// from the registry's interest writes.
    pub(crate) fn slot_watched_in_kernel(&self, slot: usize) -> bool {
        self.fds
            .get(slot)
            .is_some_and(|&fd| self.kernel.is_watched(self.pid, fd))
    }

    /// The lock-order graph this lane's `/dev/poll` registry recorded.
    pub(crate) fn lock_graph(&self) -> &LockGraph {
        #[cfg(test)]
        if let Some(planted) = &self.planted_locks {
            return planted;
        }
        self.registry.lockdep()
    }

    /// Folds this lane's entire world — network, kernel, /dev/poll
    /// registry, backend bookkeeping, slot maps — into one fingerprint.
    pub(crate) fn state_fingerprint(&self) -> u64 {
        let mut h = simcore::fingerprint::Fnv::new();
        h.write_u64(self.net.state_fingerprint());
        h.write_u64(self.kernel.state_fingerprint());
        h.write_u64(self.registry.state_fingerprint());
        self.backend.fingerprint_into(&mut h);
        h.write_u64(self.now.as_nanos());
        h.write_len(self.fds.len());
        for &fd in &self.fds {
            h.write_i64(i64::from(fd));
        }
        h.finish()
    }

    /// Settles network and kernel deadlines for one window through the
    /// testbed's dispatch phases, routing driver hints into the
    /// `/dev/poll` registry.
    fn pump(&mut self) {
        self.now = devpoll::settle(
            &mut self.net,
            &mut self.kernel,
            &mut self.registry,
            self.now,
            self.now + SETTLE,
            |_, _, _, _, _| {},
        );
    }

    /// Applies one non-`Poll` op and lets the world settle.
    ///
    /// Total: server-side ops on a not-yet-accepted slot are no-ops, so
    /// any subsequence of a valid schedule is itself a valid schedule —
    /// the property ddmin shrinking relies on.
    pub(crate) fn apply(&mut self, op: Op) {
        match op {
            Op::Accept => {
                self.kernel.begin_batch(self.now, self.pid);
                if let Ok(fd) = self
                    .kernel
                    .sys_accept(&mut self.net, self.now, self.pid, self.lfd)
                {
                    self.kernel
                        .sys_set_nonblock(self.pid, fd)
                        .expect("invariant: freshly accepted fd is valid");
                    self.fds.push(fd);
                }
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::Watch { conn, events } => {
                let Some(&fd) = self.fds.get(conn) else {
                    return;
                };
                self.kernel.begin_batch(self.now, self.pid);
                self.backend
                    .set_interest(&mut self.kernel, &mut self.registry, self.pid, fd, events)
                    .expect("invariant: interest update on a live fd cannot fail");
                if self.kind == LaneKind::RtSig {
                    let _ = self.rtapi.register(&mut self.kernel, self.pid, fd);
                }
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::Unwatch { conn } => {
                let Some(&fd) = self.fds.get(conn) else {
                    return;
                };
                self.kernel.begin_batch(self.now, self.pid);
                self.backend
                    .remove_interest(&mut self.kernel, &mut self.registry, self.pid, fd)
                    .expect("invariant: interest removal cannot fail");
                if self.kind == LaneKind::RtSig {
                    let _ = self.rtapi.unregister(&mut self.kernel, self.pid, fd);
                }
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::ClientSend { conn, bytes } => {
                let Some(&ep) = self.eps.get(conn) else {
                    return;
                };
                let payload = vec![b'x'; bytes];
                let _ = self.net.send(self.now, ep, &payload);
            }
            Op::ClientClose { conn } => {
                let Some(&ep) = self.eps.get(conn) else {
                    return;
                };
                let _ = self.net.close(self.now, ep);
            }
            Op::ServerRead { conn, max } => {
                let Some(&fd) = self.fds.get(conn) else {
                    return;
                };
                self.kernel.begin_batch(self.now, self.pid);
                let _ = self.kernel.sys_read(&mut self.net, self.pid, fd, max);
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::ServerSend { conn, bytes } => {
                let Some(&fd) = self.fds.get(conn) else {
                    return;
                };
                let payload = std::rc::Rc::new(vec![b'y'; bytes]);
                self.kernel.begin_batch(self.now, self.pid);
                let _ = self
                    .kernel
                    .sys_write(&mut self.net, self.now, self.pid, fd, &payload, 0);
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::Poll => unreachable!("Poll boundaries are handled by ready_set()"),
        }
        self.pump();
    }

    /// Runs one wait boundary — RT drain + recovery for the rtsig lane,
    /// then a zero-timeout backend wait — and returns the **raw** ready
    /// set: `(slot, full revents)` with no interest masking, so a
    /// widened mask (OR semantics) shows up as extra bits.
    pub(crate) fn ready_set(&mut self) -> Snapshot {
        let max = self.fds.len() + 4;
        self.kernel.begin_batch(self.now, self.pid);
        if self.kind == LaneKind::RtSig {
            // Drain the RT queue (the events are only hints), flush on
            // overflow, then take the paper's recovery path: a full
            // poll() over the interest set.
            while let Ok(ev) = self.rtapi.next_event(&mut self.kernel, self.pid) {
                if ev == devpoll::RtEvent::Overflow {
                    self.rtapi.flush(&mut self.kernel, self.pid);
                    break;
                }
            }
        }
        let mut events = Vec::new();
        self.backend
            .wait(
                &mut self.kernel,
                &mut self.registry,
                self.pid,
                max,
                0,
                &mut events,
            )
            .expect("invariant: a zero-timeout wait cannot fail");
        self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
        self.pump();
        let mut out: Snapshot = events
            .iter()
            .filter_map(|e| {
                let slot = self.fds.iter().position(|&fd| fd == e.fd)?;
                Some((slot, e.revents))
            })
            .collect();
        out.sort_by_key(|&(s, _)| s);
        out
    }
}
