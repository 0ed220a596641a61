//! The differential backend oracle.
//!
//! One seeded workload script is driven through an independent simulated
//! world per backend — stock `poll()`, `select()`, `/dev/poll` with the
//! paper's full feature set, `/dev/poll` with driver hints disabled, and
//! the RT-signal API (drain + recovery `poll()`, the paper's overflow
//! path) — and the normalised ready set is compared at every `Poll`
//! boundary. All five implement the same level-triggered readiness
//! contract, so any disagreement is a bug in one of them; stock `poll()`
//! is the reference because it is the simplest (it rescans everything on
//! every call).
//!
//! On divergence the failing script is minimised with
//! [`proptest::shrink_sequence`] so the report shows the shortest op
//! sequence that still splits the backends.

use std::collections::BTreeMap;

use devpoll::{
    DevPollBackend, DevPollConfig, DevPollRegistry, EventBackend, PollFd, RtSignalApi,
    SelectBackend, StockPollBackend,
};
use proptest::shrink_sequence;
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Fd, Kernel, KernelEvent, Pid, PollBits};
use simnet::{EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

use crate::script::{self, Op, ScriptConfig};

const CLIENT: HostId = HostId(0);
const SERVER: HostId = HostId(1);
/// Sim-time allowed for deliveries to settle after each op.
const SETTLE: SimDuration = SimDuration::from_millis(200);

/// A seeded semantic bug, injected through the doc-hidden fault hooks
/// on [`DevPollRegistry`]. Each one disables the runtime auditor's view
/// of the corresponding invariant, so only external comparison — the
/// differential oracle or `explore`'s reference model — can catch it.
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
        match s {
            "none" => Some(Mutant::None),
            "skip-revalidation" => Some(Mutant::SkipRevalidation),
            "or-semantics" => Some(Mutant::OrInsteadOfReplace),
            "skip-backmap-purge" => Some(Mutant::SkipBackmapPurge),
            _ => None,
        }
    }

    fn arm(self, registry: &mut DevPollRegistry) {
        match self {
            Mutant::None => {}
            Mutant::SkipRevalidation => registry.testhook_skip_revalidation(true),
            Mutant::OrInsteadOfReplace => registry.testhook_or_semantics(true),
            Mutant::SkipBackmapPurge => registry.testhook_skip_backmap_purge(true),
        }
    }
}

/// The backends under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Stock `poll()` — the reference lane.
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
    /// All lanes, reference first.
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

/// A normalised ready set: `(conn slot, ready bits)` sorted by slot.
pub type Snapshot = Vec<(usize, PollBits)>;

/// Why a run failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// Two lanes disagreed at a `Poll` boundary.
    Divergence(Divergence),
    /// The lockdep graph recorded an inverted lock acquisition.
    LockOrder {
        /// Which lane.
        lane: &'static str,
        /// The recorded violations, rendered.
        detail: String,
    },
}

/// A disagreement between a lane and the reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the `Poll` op where the lanes split.
    pub op_index: usize,
    /// The disagreeing lane.
    pub lane: &'static str,
    /// What the reference lane (`poll`) reported.
    pub expected: Snapshot,
    /// What the disagreeing lane reported.
    pub got: Snapshot,
    /// The disagreeing lane's probe snapshot at the divergence.
    pub probe_text: String,
}

/// Statistics from a passing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Ops applied.
    pub ops: usize,
    /// `Poll` boundaries compared.
    pub boundaries: usize,
    /// Invariant-audit checks performed across the /dev/poll lanes.
    pub audit_checks: u64,
    /// Lock acquisitions recorded by the lockdep graphs.
    pub lock_acquisitions: u64,
}

/// One backend's world: its own network, kernel, process and backend
/// state, so lanes cannot contaminate each other. `Clone` forks the
/// entire world — `explore` snapshots lanes at every decision point.
#[derive(Clone)]
pub(crate) struct Lane {
    pub(crate) kind: LaneKind,
    net: Network,
    pub(crate) kernel: Kernel,
    pub(crate) registry: DevPollRegistry,
    pub(crate) pid: Pid,
    backend: Box<dyn EventBackend>,
    rtapi: RtSignalApi,
    /// Server-side fd per connection slot.
    pub(crate) fds: Vec<Fd>,
    /// Client-side endpoint per connection slot.
    eps: Vec<EndpointId>,
    /// Listener fd (pending accepts pop from here).
    lfd: Fd,
    /// Slot lookup by server fd.
    slot_of: BTreeMap<Fd, usize>,
    /// Current declared interest per slot (drives normalisation and the
    /// rtsig registration set).
    watched: BTreeMap<usize, PollBits>,
    now: SimTime,
}

impl Lane {
    /// The oracle's lane with descriptors allocated from `fd_base`
    /// upward: `conns` connections pre-accepted at setup (slot i = i-th
    /// arrival), backend initialised after the accepts. Base 0 is the
    /// classic layout; elevated bases check readiness semantics are
    /// independent of descriptor numbering.
    pub(crate) fn new_at(kind: LaneKind, conns: usize, mutant: Mutant, fd_base: usize) -> Lane {
        let mut lane = Lane::new_pending_at(kind, conns, mutant, fd_base);
        lane.kernel.begin_batch(lane.now, lane.pid);
        for _ in 0..conns {
            lane.accept_next();
        }
        lane.now = lane.now.max(lane.kernel.end_batch(lane.now, lane.pid));
        lane.pump();
        lane
    }

    /// An `explore` lane: connections are established (handshakes
    /// settled, sitting in the accept queue) but **not** accepted —
    /// `Op::Accept` events accept them one at a time.
    pub(crate) fn new_pending(kind: LaneKind, conns: usize, mutant: Mutant) -> Lane {
        Lane::new_pending_at(kind, conns, mutant, 0)
    }

    /// [`Lane::new_pending`] at an elevated descriptor offset.
    pub(crate) fn new_pending_at(
        kind: LaneKind,
        conns: usize,
        mutant: Mutant,
        fd_base: usize,
    ) -> Lane {
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

        let backend: Box<dyn EventBackend> = match kind {
            // The rtsig lane's recovery poll reuses the stock backend's
            // interest bookkeeping.
            LaneKind::Poll | LaneKind::RtSig => Box::new(StockPollBackend::new()),
            LaneKind::Select => Box::new(SelectBackend::new()),
            LaneKind::DevPoll => Box::new(DevPollBackend::new()),
            LaneKind::DevPollNoHints => Box::new(DevPollBackend::with_config(
                DevPollConfig {
                    hints: false,
                    ..DevPollConfig::default()
                },
                true,
                false,
            )),
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
            slot_of: BTreeMap::new(),
            watched: BTreeMap::new(),
            now,
        };

        // Let every handshake complete so the accept queue holds all
        // connections in arrival order, then initialise the backend
        // (for /dev/poll lanes this allocates the dpfd — doing it here
        // keeps fd numbering identical whether slots are accepted at
        // setup or by `Op::Accept` events).
        lane.pump();
        lane.kernel.begin_batch(lane.now, lane.pid);
        lane.backend
            .init(&mut lane.kernel, &mut lane.registry, lane.pid)
            .expect("invariant: backend init on a fresh world cannot fail");
        lane.now = lane.now.max(lane.kernel.end_batch(lane.now, lane.pid));
        lane.pump();
        lane
    }

    /// Accepts the next queued connection as the next slot (call inside
    /// a batch). No-op when nothing is queued.
    fn accept_next(&mut self) {
        let Ok(fd) = self
            .kernel
            .sys_accept(&mut self.net, self.now, self.pid, self.lfd)
        else {
            return;
        };
        self.kernel
            .sys_set_nonblock(self.pid, fd)
            .expect("invariant: freshly accepted fd is valid");
        let slot = self.fds.len();
        self.slot_of.insert(fd, slot);
        self.fds.push(fd);
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
        h.write_len(self.watched.len());
        for (&slot, &events) in &self.watched {
            h.write_usize(slot);
            h.write_u32(u32::from(events.0));
        }
        h.finish()
    }

    /// Drains network and kernel deadlines for one settle window,
    /// routing driver hints into the `/dev/poll` registry exactly like
    /// the testbed loop (`crates/httperf/src/testbed.rs`).
    fn pump(&mut self) {
        let horizon = self.now + SETTLE;
        loop {
            let mut next = self.net.next_deadline();
            if let Some(k) = self.kernel.next_deadline() {
                next = Some(next.map_or(k, |n| n.min(k)));
            }
            let Some(next) = next else { break };
            if next > horizon {
                break;
            }
            self.now = self.now.max(next);
            let t = self.now;
            for n in self.net.advance(t) {
                self.kernel.on_net(t, &n);
            }
            for e in self.kernel.advance(t) {
                if let KernelEvent::FdEvent { pid, fd, .. } = e {
                    self.registry.on_fd_event(&mut self.kernel, t, pid, fd);
                }
            }
        }
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
                self.accept_next();
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
                self.watched.insert(conn, events);
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
                self.watched.remove(&conn);
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
                let payload = vec![b'y'; bytes];
                self.kernel.begin_batch(self.now, self.pid);
                let _ = self
                    .kernel
                    .sys_write(&mut self.net, self.now, self.pid, fd, &payload);
                self.now = self.now.max(self.kernel.end_batch(self.now, self.pid));
            }
            Op::Poll => unreachable!("Poll boundaries are handled by snapshot()"),
        }
        self.pump();
    }

    /// Collects this lane's normalised ready set at a `Poll` boundary.
    fn snapshot(&mut self) -> Snapshot {
        let events = self.wait_events();
        normalize(&events, &self.slot_of, &self.watched)
    }

    /// Collects this lane's **raw** ready set at a `Poll` boundary:
    /// `(slot, full revents)` with no interest masking. The oracle's
    /// normalised comparison intersects with the declared interest,
    /// which hides whole bug classes (an OR-semantics fault widens the
    /// reported mask but never escapes the intersection); `explore`
    /// compares raw bits against its per-lane reference model instead.
    pub(crate) fn snapshot_raw(&mut self) -> Snapshot {
        let events = self.wait_events();
        let mut out: Vec<(usize, PollBits)> = events
            .iter()
            .filter_map(|e| self.slot_of.get(&e.fd).map(|&s| (s, e.revents)))
            .collect();
        out.sort_by_key(|&(s, _)| s);
        out
    }

    /// Runs one wait boundary (RT drain + recovery for the rtsig lane,
    /// then a zero-timeout backend wait) and returns the raw events.
    fn wait_events(&mut self) -> Vec<PollFd> {
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
        events
    }
}

/// Reduces raw wait results to the comparable core: per connection slot,
/// the reported bits restricted to the declared interest's `POLLIN`/
/// `POLLOUT` (the only bits every backend can express — `select()` has
/// no HUP/ERR channel and `/dev/poll` adds always-reported bits).
fn normalize(
    events: &[PollFd],
    slot_of: &BTreeMap<Fd, usize>,
    watched: &BTreeMap<usize, PollBits>,
) -> Snapshot {
    let mut out: BTreeMap<usize, PollBits> = BTreeMap::new();
    for e in events {
        let Some(&slot) = slot_of.get(&e.fd) else {
            continue;
        };
        let Some(&interest) = watched.get(&slot) else {
            continue;
        };
        let bits = e.revents & interest & (PollBits::POLLIN | PollBits::POLLOUT);
        if !bits.is_empty() {
            *out.entry(slot).or_insert(PollBits::EMPTY) |= bits;
        }
    }
    out.into_iter().collect()
}

/// Runs `ops` through every lane, comparing at each `Poll` boundary.
pub fn run_script(ops: &[Op], conns: usize, mutant: Mutant) -> Result<RunStats, Failure> {
    run_script_at(ops, conns, mutant, 0)
}

/// [`run_script`] with every lane's descriptors allocated from
/// `fd_base` upward. Readiness semantics must not depend on descriptor
/// numbering, so any script that passes (or fails) at base 0 must do
/// the same at any base — the layout-independence check the paged fd
/// tables make cheap to run at offsets like 10^6.
pub fn run_script_at(
    ops: &[Op],
    conns: usize,
    mutant: Mutant,
    fd_base: usize,
) -> Result<RunStats, Failure> {
    // `select()` genuinely cannot number descriptors past FD_SETSIZE —
    // the paper's §2 wall, not a divergence — so its lane only runs at
    // bases where the whole world fits under 1024.
    let fits_select = fd_base + conns + 8 < devpoll::FD_SETSIZE;
    let mut lanes: Vec<Lane> = LaneKind::all()
        .into_iter()
        .filter(|&k| fits_select || k != LaneKind::Select)
        .map(|k| Lane::new_at(k, conns, mutant, fd_base))
        .collect();
    let mut stats = RunStats {
        ops: ops.len(),
        ..RunStats::default()
    };
    for (i, &op) in ops.iter().enumerate() {
        if op == Op::Poll {
            stats.boundaries += 1;
            let reference = lanes[0].snapshot();
            for lane in &mut lanes[1..] {
                let got = lane.snapshot();
                if got != reference {
                    return Err(Failure::Divergence(Divergence {
                        op_index: i,
                        lane: lane.kind.name(),
                        expected: reference,
                        got,
                        probe_text: lane.kernel.probe().snapshot().to_text(),
                    }));
                }
            }
        } else {
            for lane in &mut lanes {
                lane.apply(op);
            }
        }
    }
    for lane in &lanes {
        let graph = lane.registry.lockdep();
        stats.lock_acquisitions += graph.acquisitions();
        if !graph.violations().is_empty() {
            let detail = graph
                .violations()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(Failure::LockOrder {
                lane: lane.kind.name(),
                detail,
            });
        }
        stats.audit_checks += lane.registry.audit_checks();
    }
    Ok(stats)
}

/// Runs the generated script for `seed`.
pub fn run_seed(seed: u64, cfg: ScriptConfig, mutant: Mutant) -> Result<RunStats, Failure> {
    run_script(&script::generate(seed, cfg), cfg.conns, mutant)
}

/// A fully-reported oracle failure: the seed, the minimal script that
/// still reproduces it, and the divergence details.
#[derive(Debug, Clone)]
pub struct ShrunkFailure {
    /// The failing seed.
    pub seed: u64,
    /// The minimal op sequence still failing.
    pub minimal: Vec<Op>,
    /// The failure observed on the minimal script.
    pub failure: Failure,
}

/// Minimises the failing script for `seed` and re-runs it for the final
/// report.
pub fn shrink_failure(seed: u64, cfg: ScriptConfig, mutant: Mutant) -> ShrunkFailure {
    let full = script::generate(seed, cfg);
    let minimal = shrink_sequence(&full, |candidate| {
        run_script(candidate, cfg.conns, mutant).is_err()
    });
    let failure = run_script(&minimal, cfg.conns, mutant)
        .expect_err("invariant: shrink_sequence only keeps failing scripts");
    ShrunkFailure {
        seed,
        minimal,
        failure,
    }
}

/// Sweeps `seeds`, stopping at (and shrinking) the first failure.
pub fn sweep(
    seeds: impl IntoIterator<Item = u64>,
    cfg: ScriptConfig,
    mutant: Mutant,
) -> Result<RunStats, Box<ShrunkFailure>> {
    let mut total = RunStats::default();
    for seed in seeds {
        match run_seed(seed, cfg, mutant) {
            Ok(s) => {
                total.ops += s.ops;
                total.boundaries += s.boundaries;
                total.audit_checks += s.audit_checks;
                total.lock_acquisitions += s.lock_acquisitions;
            }
            Err(_) => return Err(Box::new(shrink_failure(seed, cfg, mutant))),
        }
    }
    Ok(total)
}

/// Renders a shrunk failure the way `--replay` and CI print it.
pub fn render_failure(f: &ShrunkFailure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "seed {} diverged; minimal script:", f.seed);
    let _ = write!(out, "{}", script::render(&f.minimal));
    match &f.failure {
        Failure::Divergence(d) => {
            let _ = writeln!(
                out,
                "at op {}: lane `{}` disagrees with reference `poll`",
                d.op_index, d.lane
            );
            let _ = writeln!(out, "  expected (slot, bits): {:?}", d.expected);
            let _ = writeln!(out, "  got      (slot, bits): {:?}", d.got);
            let _ = writeln!(out, "probe snapshot of `{}` at divergence:", d.lane);
            for line in d.probe_text.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        Failure::LockOrder { lane, detail } => {
            let _ = writeln!(out, "lock-order violation in lane `{lane}`: {detail}");
        }
    }
    out
}
