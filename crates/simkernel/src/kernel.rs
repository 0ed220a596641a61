//! The kernel facade: syscalls, readiness tracking, signal delivery and
//! process scheduling for the simulated server host.
//!
//! # Driving the kernel
//!
//! Like [`simnet::Network`], the kernel is a passive state machine. The
//! orchestrator:
//!
//! 1. routes network notifications in via [`Kernel::on_net`] (charging
//!    softirq CPU, updating readiness, queueing RT signals, waking
//!    sleepers);
//! 2. asks [`Kernel::next_deadline`] / calls [`Kernel::advance`], which
//!    yields [`KernelEvent`]s;
//! 3. when it sees [`KernelEvent::ProcRunnable`], runs the application's
//!    next batch: [`Kernel::begin_batch`], any number of `sys_*` calls,
//!    then [`Kernel::end_batch`] (yield) or [`Kernel::end_batch_sleep`]
//!    (block).
//!
//! Syscall costs accumulate into the batch; network side effects happen
//! at the batch's *virtual now* (start time plus cost so far), so a
//! response written after an expensive scan hits the wire later than one
//! written after a cheap scan — the causal chain behind every saturation
//! curve in the paper.

use std::rc::Rc;

use simcore::paged::{PagedBits, PagedSlots};
use simcore::probe::{Metric, MetricRegistry};
use simcore::span::{Phase, SpanGuard, SpanTracer};
use simcore::time::{SimDuration, SimTime};
use simnet::{EndpointId, ListenerId, NetNotify, Network, Port};

use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::fd::{Errno, Fd, File, FileKind, SockMirror};
use crate::poll_bits::PollBits;
use crate::process::{AfterBatch, Pid, ProcState, Process};
use crate::signal::{Siginfo, DEFAULT_RT_QUEUE_MAX, SIGRTMAX, SIGRTMIN};

/// A probed syscall: each maps to its `syscall.*` entry counter and its
/// `syscall_ns.*` latency histogram.
#[derive(Clone, Copy)]
enum Syscall {
    Abort,
    Accept,
    Close,
    FlushRt,
    Listen,
    Read,
    Sendfile,
    SetNonblock,
    SetSig,
    ShareListener,
    Sigtimedwait4,
    Sigwaitinfo,
    Write,
}

impl Syscall {
    /// `(counter, histogram)`.
    fn probes(self) -> (Metric, Metric) {
        use Metric::*;
        match self {
            Syscall::Abort => (SyscallAbort, SyscallNsAbort),
            Syscall::Accept => (SyscallAccept, SyscallNsAccept),
            Syscall::Close => (SyscallClose, SyscallNsClose),
            Syscall::FlushRt => (SyscallFlushRt, SyscallNsFlushRt),
            Syscall::Listen => (SyscallListen, SyscallNsListen),
            Syscall::Read => (SyscallRead, SyscallNsRead),
            Syscall::Sendfile => (SyscallSendfile, SyscallNsSendfile),
            Syscall::SetNonblock => (SyscallSetNonblock, SyscallNsSetNonblock),
            Syscall::SetSig => (SyscallSetSig, SyscallNsSetSig),
            Syscall::ShareListener => (SyscallShareListener, SyscallNsShareListener),
            Syscall::Sigtimedwait4 => (SyscallSigtimedwait4, SyscallNsSigtimedwait4),
            Syscall::Sigwaitinfo => (SyscallSigwaitinfo, SyscallNsSigwaitinfo),
            Syscall::Write => (SyscallWrite, SyscallNsWrite),
        }
    }
}

/// How an accept-ready event wakes processes sharing a listener.
///
/// Linux 2.2 woke *every* process sleeping on the listener's wait queue
/// (the "thundering herd"); §6 of the paper proposes "waking only one
/// thread, instead of all of them".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AcceptWake {
    /// Wake every sharer (stock 2.2 behaviour).
    #[default]
    Herd,
    /// Wake exactly one sharer (the paper's proposal; `WQ_FLAG_EXCLUSIVE`
    /// in later kernels).
    Exclusive,
}

/// Events the kernel surfaces to the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// A process finished its CPU work / woke / timed out, and should be
    /// given a batch to run.
    ProcRunnable {
        /// The runnable process.
        pid: Pid,
    },
    /// Something happened on a descriptor (data, space, hangup, error) —
    /// consumed by `/dev/poll` instances to mark driver hints.
    FdEvent {
        /// Owning process.
        pid: Pid,
        /// The descriptor.
        fd: Fd,
        /// What happened.
        band: PollBits,
    },
}

/// The endpoint-to-descriptor reverse map entry of one accepted stream:
/// the process and descriptor a network notification for the endpoint
/// lands on. The readiness itself lives in that descriptor's
/// [`File`](crate::fd::File). A slot exists exactly while its stream
/// descriptor is open: `sys_accept` inserts it, and it leaves with the
/// descriptor.
// #[hot_struct]: one per accepted descriptor
#[derive(Debug, Clone, Copy)]
struct EpSlot {
    pid: Pid,
    fd: Fd,
}

/// Kernel-side state of one listener: the sharing processes and the
/// accept-queue readiness level.
#[derive(Debug, Clone, Default)]
struct ListenerSlot {
    owners: Vec<(Pid, Fd)>,
    ready: bool,
}

/// Index of `ep` in the endpoint-slot table: `conn * 2 + side`. The
/// table is paged, so the index need not be dense — high connection ids
/// land on their own pages without densifying the low range.
fn ep_index(ep: EndpointId) -> usize {
    (ep.conn.0 as usize) * 2 + ep.side.index()
}

/// The simulated kernel of the server host.
#[derive(Clone)]
pub struct Kernel {
    host: simnet::HostId,
    cost: CostModel,
    cpu: Cpu,
    /// Dense, pid-indexed (pid 1 lives at index 0; processes are never
    /// reaped), so [`Kernel::advance`] surfaces `ProcRunnable` events in
    /// deterministic pid order by construction.
    procs: Vec<Process>,
    /// Endpoint-indexed `(pid, fd)` reverse map (see [`ep_index`]);
    /// paged so sparse/high endpoint indices don't pay dense-table
    /// memory.
    eps: PagedSlots<EpSlot>,
    /// High-water mark of simultaneously open endpoint slots — the
    /// denominator for bytes-per-connection accounting (by report time
    /// most connections have closed; the peak is what memory was sized
    /// for).
    eps_peak: usize,
    /// Listener-indexed owner/readiness slots (`ListenerId` is a dense
    /// sequential id).
    listeners: Vec<Option<ListenerSlot>>,
    accept_wake: AcceptWake,
    /// Rotates exclusive accept wakeups across sharers.
    accept_rr: usize,
    /// Scratch for herd/exclusive accept wakeups (reused, no per-event
    /// allocation).
    accept_scratch: Vec<(Pid, Fd)>,
    /// Descriptors whose readiness events should wake the owning process
    /// when it sleeps (the wait-queue watcher registry); parallel to
    /// `procs`, one paged bitset per process — the §3.2 backmapping
    /// lists, re-backed so elevated/sparse fd ranges stay cheap.
    watchers: Vec<PagedBits>,
    events_out: Vec<KernelEvent>,
    /// Descriptor allocations refused at the per-process limit
    /// (`EMFILE`). The one event count kept outside `probe`: it reaches
    /// the registry as `kernel.emfile` only when a run asks for memory
    /// probes, because the paper-figure points that hit the fd limit
    /// would otherwise change their pinned probe digests.
    emfile: u64,
    /// Central metric registry every subsystem records into (syscalls
    /// here; `/dev/poll` scan and cache counters via [`Kernel::probe_mut`];
    /// server and TCP metrics folded in at report time). Every event
    /// count except [`Kernel::emfile`] lives here and nowhere else.
    probe: MetricRegistry,
    /// Latency-anatomy span tracer (disabled by default; when off every
    /// instrumentation site is a single branch and the probe snapshot is
    /// byte-identical to an uninstrumented build).
    spans: SpanTracer,
}

impl Kernel {
    /// Creates a kernel for the given host with the given cost model.
    pub fn new(host: simnet::HostId, cost: CostModel) -> Kernel {
        Kernel {
            host,
            cost,
            cpu: Cpu::new(),
            procs: Vec::new(),
            eps: PagedSlots::new(),
            eps_peak: 0,
            listeners: Vec::new(),
            accept_wake: AcceptWake::Herd,
            accept_rr: 0,
            accept_scratch: Vec::new(),
            watchers: Vec::new(),
            events_out: Vec::new(),
            emfile: 0,
            probe: MetricRegistry::new(),
            spans: SpanTracer::new(),
        }
    }

    /// The host this kernel runs on.
    pub fn host(&self) -> simnet::HostId {
        self.host
    }

    /// Sets the accept wakeup policy for shared listeners (§6).
    pub fn set_accept_wake(&mut self, policy: AcceptWake) {
        self.accept_wake = policy;
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// CPU accounting access.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Descriptor allocations refused with `EMFILE` so far (see the
    /// field's note on why this count is not a probe counter).
    pub fn emfile(&self) -> u64 {
        self.emfile
    }

    /// Modeled resident heap bytes of the kernel's per-connection
    /// tables: per-process fd tables (readiness mirrors included), the
    /// endpoint-to-descriptor reverse map, and watcher (backmap)
    /// bitsets. Pages are never freed, so this is the high-water
    /// footprint.
    pub fn mem_bytes(&self) -> usize {
        let fds: usize = self.procs.iter().map(|p| p.fds.mem_bytes()).sum();
        let watch: usize = self.watchers.iter().map(PagedBits::heap_bytes).sum();
        fds + watch + self.eps.heap_bytes()
    }

    /// High-water mark of simultaneously open endpoint slots — the
    /// bytes-per-connection denominator.
    pub fn eps_peak(&self) -> usize {
        self.eps_peak
    }

    /// Folds the kernel's full semantic state into one FNV digest for
    /// world deduplication in `simcheck explore`.
    ///
    /// Included: every process (descriptor table, signal queues, run
    /// state), every endpoint readiness mirror, listener ownership and
    /// readiness, the accept-wake policy and rotor, the watcher sets,
    /// and undrained kernel events. Excluded: CPU/time accounting, the
    /// metric registry and the span tracer — none of them feeds back
    /// into syscall results, so worlds that differ only in
    /// observability state hash alike.
    pub fn state_fingerprint(&self) -> u64 {
        use simcore::fingerprint::Fnv;
        let mut h = Fnv::new();
        h.write_usize(self.host.0);
        h.write_len(self.procs.len());
        for p in &self.procs {
            p.fds.fingerprint_into(&mut h);
            p.signals.fingerprint_into(&mut h);
            match p.state {
                ProcState::Idle => h.write_u8(0),
                ProcState::Running { until, then } => {
                    h.write_u8(1);
                    h.write_u64(until.as_nanos());
                    match then {
                        AfterBatch::Yield => h.write_u8(0),
                        AfterBatch::Sleep { timeout } => {
                            h.write_u8(1);
                            h.write_u64(timeout.map_or(u64::MAX, |t| t.as_nanos()));
                        }
                    }
                }
                ProcState::Sleeping { timeout } => {
                    h.write_u8(2);
                    h.write_u64(timeout.map_or(u64::MAX, |t| t.as_nanos()));
                }
            }
        }
        h.write_len(self.eps.len());
        for (ix, s) in self.eps.iter() {
            let mirror = self.stream_file(s.pid, s.fd).mirror;
            h.write_usize(ix);
            h.write_u64(u64::from(s.pid));
            h.write_i64(i64::from(s.fd));
            h.write_bool(mirror.readable);
            h.write_bool(mirror.writable);
            h.write_bool(mirror.hup);
            h.write_bool(mirror.err);
        }
        h.write_len(self.listeners.iter().filter(|s| s.is_some()).count());
        for (ix, slot) in self.listeners.iter().enumerate() {
            let Some(s) = slot else { continue };
            h.write_usize(ix);
            h.write_len(s.owners.len());
            for &(pid, fd) in &s.owners {
                h.write_u64(u64::from(pid));
                h.write_i64(i64::from(fd));
            }
            h.write_bool(s.ready);
        }
        h.write_u8(match self.accept_wake {
            AcceptWake::Herd => 0,
            AcceptWake::Exclusive => 1,
        });
        h.write_usize(self.accept_rr);
        h.write_len(self.watchers.len());
        for (set, p) in self.watchers.iter().zip(&self.procs) {
            // A parked set writes the bytes of an empty one.
            if p.watch_parked {
                h.write_len(0);
                continue;
            }
            h.write_len(set.count());
            set.for_each_nonzero_word(|ix, word| {
                h.write_usize(ix);
                h.write_u64(word);
            });
        }
        h.write_len(self.events_out.len());
        h.finish()
    }

    /// The metric registry (read side: snapshots, assertions).
    pub fn probe(&self) -> &MetricRegistry {
        &self.probe
    }

    /// The metric registry (write side, for subsystems layered on the
    /// kernel such as the `/dev/poll` device and poll emulations).
    pub fn probe_mut(&mut self) -> &mut MetricRegistry {
        &mut self.probe
    }

    /// The span tracer (read side: exporters, reports).
    pub fn spans(&self) -> &SpanTracer {
        &self.spans
    }

    /// The span tracer (write side: enabling, retention bound).
    pub fn spans_mut(&mut self) -> &mut SpanTracer {
        &mut self.spans
    }

    /// The batch's virtual now derived from the stored batch start —
    /// the clock latency spans are stamped with. Works even in syscalls
    /// that do not take a `now` parameter.
    pub fn span_now(&self, pid: Pid) -> SimTime {
        let p = self
            .proc_get(pid)
            .expect("invariant: pid was returned by spawn and never reaped");
        p.batch_start + p.batch_acc.unwrap_or(SimDuration::ZERO)
    }

    /// Opens a latency span at the batch's virtual now. One branch when
    /// tracing is disabled (`None`).
    pub fn span_open(&mut self, pid: Pid, phase: Phase) -> Option<SpanGuard> {
        if !self.spans.enabled() {
            return None;
        }
        let at = self.span_now(pid);
        self.spans.open(phase, pid as u64, at)
    }

    /// Closes a span opened by [`Kernel::span_open`], charging its
    /// exclusive time to the probe registry as `span_ns.<phase>`.
    pub fn span_close(&mut self, pid: Pid, guard: Option<SpanGuard>) {
        if let Some(guard) = guard {
            let at = self.span_now(pid);
            self.spans.close(guard, at, &mut self.probe);
        }
    }

    /// Records a span whose endpoints are both already known (cross-batch
    /// waits, softirq-side lock holds).
    pub fn span_complete(&mut self, phase: Phase, tid: u64, start: SimTime, end: SimTime) {
        self.spans
            .record_complete(phase, tid, start, end, &mut self.probe);
    }

    /// Records a leaf span covering the batch cost accumulated since
    /// `entry` (a [`Kernel::charge`] accumulator snapshot, the same shape
    /// the `syscall_ns.*` histograms use), nested under the innermost
    /// open span.
    pub fn span_leaf(&mut self, pid: Pid, phase: Phase, entry: SimDuration) {
        if !self.spans.enabled() {
            return;
        }
        let p = self
            .proc_get(pid)
            .expect("invariant: pid was returned by spawn and never reaped");
        let start = p.batch_start + entry;
        let end = p.batch_start + p.batch_acc.unwrap_or(entry);
        self.spans
            .leaf(phase, pid as u64, start, end, &mut self.probe);
    }

    /// Records a lock-hold span covering the batch cost accumulated
    /// since `from`. Like [`Kernel::span_leaf`] but bypasses the span
    /// stack: lock holds overlap the request-path phases rather than
    /// nesting inside them, so they must not eat into an enclosing
    /// span's exclusive time.
    pub fn span_hold(&mut self, pid: Pid, phase: Phase, from: SimDuration) {
        if !self.spans.enabled() {
            return;
        }
        let p = self
            .proc_get(pid)
            .expect("invariant: pid was returned by spawn and never reaped");
        let start = p.batch_start + from;
        let end = p.batch_start + p.batch_acc.unwrap_or(from);
        self.spans
            .record_complete(phase, pid as u64, start, end, &mut self.probe);
    }

    /// The batch cost accumulator right now (pairs with
    /// [`Kernel::span_leaf`] for sites outside the kernel, e.g. the
    /// `/dev/poll` device layer).
    pub fn batch_acc(&self, pid: Pid) -> SimDuration {
        self.proc_get(pid)
            .and_then(|p| p.batch_acc)
            .unwrap_or(SimDuration::ZERO)
    }

    // ------------------------------------------------------------------
    // Processes and scheduling.
    // ------------------------------------------------------------------

    /// Creates a process with the given descriptor limit and RT queue
    /// bound.
    pub fn spawn(&mut self, fd_limit: usize, rt_queue_max: usize) -> Pid {
        self.spawn_with_fd_base(fd_limit, rt_queue_max, 0)
    }

    /// Creates a process whose descriptor numbering starts at
    /// `first_fd` — the elevated-fd-offset lane proving readiness and
    /// notification semantics are independent of fd numerology.
    pub fn spawn_with_fd_base(
        &mut self,
        fd_limit: usize,
        rt_queue_max: usize,
        first_fd: usize,
    ) -> Pid {
        self.procs
            .push(Process::with_first_fd(fd_limit, rt_queue_max, first_fd));
        self.watchers.push(PagedBits::new());
        self.procs.len() as Pid
    }

    /// Creates a process with default limits (1024 descriptors, 1024 RT
    /// queue slots — the defaults the paper describes).
    pub fn spawn_default(&mut self) -> Pid {
        self.spawn(1024, DEFAULT_RT_QUEUE_MAX)
    }

    /// Index of `pid` in the dense process table (pids start at 1).
    fn proc_ix(pid: Pid) -> usize {
        (pid as usize).wrapping_sub(1)
    }

    fn proc_mut(&mut self, pid: Pid) -> &mut Process {
        self.procs
            .get_mut(Self::proc_ix(pid))
            .expect("invariant: pid was returned by spawn and never reaped")
    }

    fn proc_get(&self, pid: Pid) -> Option<&Process> {
        self.procs.get(Self::proc_ix(pid))
    }

    fn proc_get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.procs.get_mut(Self::proc_ix(pid))
    }

    /// Read-only access to a process (tests and diagnostics).
    pub fn process(&self, pid: Pid) -> &Process {
        self.proc_get(pid)
            .expect("invariant: pid was returned by spawn and never reaped")
    }

    /// Starts accumulating a batch for `pid`.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already in progress for this process.
    pub fn begin_batch(&mut self, now: SimTime, pid: Pid) {
        let p = self.proc_mut(pid);
        assert!(p.batch_acc.is_none(), "nested batch for pid {pid}");
        p.batch_acc = Some(SimDuration::ZERO);
        p.batch_start = now;
        p.state = ProcState::Idle;
    }

    /// Adds `cost` to the in-progress batch.
    pub fn charge(&mut self, pid: Pid, cost: SimDuration) {
        let p = self.proc_mut(pid);
        let acc = p
            .batch_acc
            .as_mut()
            .expect("invariant: charge happens between begin_batch and end_batch");
        *acc += cost;
    }

    /// The batch's virtual now: start time plus cost accumulated so far.
    pub fn vnow(&self, now: SimTime, pid: Pid) -> SimTime {
        let p = self
            .proc_get(pid)
            .expect("invariant: pid was returned by spawn and never reaped");
        now + p.batch_acc.unwrap_or(SimDuration::ZERO)
    }

    /// Finishes the batch; the process yields and runs again as soon as
    /// the CPU completes the work. Returns the completion time.
    pub fn end_batch(&mut self, now: SimTime, pid: Pid) -> SimTime {
        self.finish_batch(now, pid, AfterBatch::Yield)
    }

    /// Finishes the batch; the process then sleeps until a wake event or
    /// the optional timeout (relative to the batch completion).
    pub fn end_batch_sleep(
        &mut self,
        now: SimTime,
        pid: Pid,
        timeout: Option<SimDuration>,
    ) -> SimTime {
        let done = {
            let p = self.proc_mut(pid);
            let work = p
                .batch_acc
                .take()
                .expect("invariant: end_batch_sleep closes a batch begin_batch opened");
            let done = self.cpu.run_process(now, work);
            let p = self.proc_mut(pid);
            p.state = ProcState::Running {
                until: done,
                then: AfterBatch::Sleep {
                    timeout: timeout.map(|t| done + t),
                },
            };
            done
        };
        done
    }

    fn finish_batch(&mut self, now: SimTime, pid: Pid, then: AfterBatch) -> SimTime {
        let p = self.proc_mut(pid);
        let work = p
            .batch_acc
            .take()
            .expect("invariant: finish_batch closes a batch begin_batch opened");
        let done = self.cpu.run_process(now, work);
        let p = self.proc_mut(pid);
        p.state = ProcState::Running { until: done, then };
        done
    }

    /// Wakes a sleeping process (readiness event, signal arrival).
    pub fn wake(&mut self, pid: Pid) {
        let Some(p) = self.proc_get_mut(pid) else {
            return;
        };
        match p.state {
            ProcState::Sleeping { .. } => {
                p.state = ProcState::Idle;
                p.pending_wake = false;
                self.probe.inc(Metric::KernelWakeups);
                self.events_out.push(KernelEvent::ProcRunnable { pid });
            }
            ProcState::Running {
                then: AfterBatch::Sleep { .. },
                ..
            } => {
                // The batch that decided to sleep is still on the CPU;
                // cancel the sleep.
                p.pending_wake = true;
                self.probe.inc(Metric::KernelWakeups);
            }
            _ => {}
        }
    }

    /// Earliest time the kernel needs attention.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.procs.iter().filter_map(|p| p.next_deadline()).min()
    }

    /// Whether `advance_into(now, …)` would emit events or transition
    /// any process (short-circuits on the first due process).
    pub fn has_work_at(&self, now: SimTime) -> bool {
        self.has_queued_events()
            || self
                .procs
                .iter()
                .any(|p| p.next_deadline().is_some_and(|t| t <= now))
    }

    /// O(1): whether events are queued for the next `advance_into`
    /// (wakeups and readiness hints raised since the last one).
    pub fn has_queued_events(&self) -> bool {
        !self.events_out.is_empty()
    }

    /// Fires due process transitions and drains pending events.
    ///
    /// Convenience wrapper over [`Kernel::advance_into`] that allocates a
    /// fresh vector per call; hot callers should hold a scratch buffer
    /// and use `advance_into` directly.
    pub fn advance(&mut self, now: SimTime) -> Vec<KernelEvent> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Fires due process transitions and appends pending events to `out`
    /// (which is *not* cleared — the caller owns the buffer).
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<KernelEvent>) {
        for ix in 0..self.procs.len() {
            let pid = (ix + 1) as Pid;
            let p = &mut self.procs[ix];
            match p.state {
                ProcState::Running { until, then } if until <= now => match then {
                    AfterBatch::Yield => {
                        p.state = ProcState::Idle;
                        self.events_out.push(KernelEvent::ProcRunnable { pid });
                    }
                    AfterBatch::Sleep { timeout } => {
                        if p.pending_wake {
                            p.pending_wake = false;
                            p.state = ProcState::Idle;
                            self.events_out.push(KernelEvent::ProcRunnable { pid });
                        } else {
                            p.state = ProcState::Sleeping { timeout };
                            // The timeout may already be due.
                            if let Some(t) = timeout {
                                if t <= now {
                                    p.state = ProcState::Idle;
                                    self.events_out.push(KernelEvent::ProcRunnable { pid });
                                }
                            }
                        }
                    }
                },
                ProcState::Sleeping { timeout: Some(t) } if t <= now => {
                    p.state = ProcState::Idle;
                    self.events_out.push(KernelEvent::ProcRunnable { pid });
                }
                _ => {}
            }
        }
        // An empty caller buffer takes the staged batch whole (the
        // vectors trade storage), so no element is copied.
        if out.is_empty() {
            std::mem::swap(out, &mut self.events_out);
        } else {
            out.append(&mut self.events_out);
        }
    }

    /// Charges softirq-context CPU work (used by `/dev/poll` backmap
    /// marking, which runs in the driver's event path).
    pub fn charge_softirq(&mut self, now: SimTime, cost: SimDuration) {
        self.cpu.charge_softirq(now, cost);
    }

    // ------------------------------------------------------------------
    // Watcher (wait-queue) registry.
    // ------------------------------------------------------------------

    /// Registers `fd` so that its readiness events wake `pid`. On a
    /// parked set (see [`Kernel::unwatch_all`]) the parked bits are
    /// dropped first: this is not their owner's re-registration.
    ///
    /// Cost is *not* charged here; the caller (stock `poll()` or the
    /// `/dev/poll` device) charges per its own cost structure.
    pub fn watch(&mut self, pid: Pid, fd: Fd) {
        if fd < 0 {
            return;
        }
        let ix = Self::proc_ix(pid);
        if let (Some(set), Some(p)) = (self.watchers.get_mut(ix), self.procs.get_mut(ix)) {
            if std::mem::take(&mut p.watch_parked) {
                set.clear();
            }
            p.watch_kept = false;
            set.insert(fd as usize);
        }
    }

    /// Removes one watcher registration. A parked set reads as empty,
    /// so there is nothing to remove from one.
    pub fn unwatch(&mut self, pid: Pid, fd: Fd) {
        if fd < 0 {
            return;
        }
        let ix = Self::proc_ix(pid);
        if let (Some(set), Some(p)) = (self.watchers.get_mut(ix), self.procs.get_mut(ix)) {
            if !p.watch_parked && set.remove(fd as usize) {
                p.watch_kept = false;
            }
        }
    }

    /// Removes every watcher registration of `pid`. Returns how many
    /// were removed (so the caller can charge per-fd costs).
    ///
    /// The set is parked, not cleared, so this is O(1): it reads as
    /// empty, and its bits stay for the process's stock `poll()` to
    /// re-register ([`Kernel::unpark_watches`]).
    pub fn unwatch_all(&mut self, pid: Pid) -> usize {
        let ix = Self::proc_ix(pid);
        match (self.watchers.get(ix), self.procs.get_mut(ix)) {
            (Some(set), Some(p)) if !p.watch_parked => {
                p.watch_parked = true;
                set.count()
            }
            _ => 0,
        }
    }

    /// Declares `pid`'s live registrations the pollfd array of its
    /// stock-`poll()` wait (its *kept* registrations): made by
    /// [`Kernel::watch`] for every entry, and followed since by
    /// [`Kernel::keep_watch`] for every entry added or removed. Any
    /// other write to the set ([`Kernel::watch`], [`Kernel::unwatch`])
    /// undoes the declaration. A process keeps one array's.
    pub fn claim_watches(&mut self, pid: Pid) {
        if let Some(p) = self.proc_get_mut(pid) {
            p.watch_kept = true;
        }
    }

    /// The kept pollfd array gained (`watched`) or lost `fd`: while the
    /// kept registrations are parked, their bit for `fd` follows, so
    /// that they still match the array when unparked. While they are
    /// live the registrations must stay as the last wait made them, so
    /// they are no longer kept; nor are they when the bit's page is not
    /// allocated, since the page must appear, as it would without
    /// parking, only when a wait registers the fd. Free of modelled
    /// cost: the bits are registered, and charged, only when unparked.
    pub fn keep_watch(&mut self, pid: Pid, fd: Fd, watched: bool) {
        let ix = Self::proc_ix(pid);
        let (Some(set), Some(p)) = (self.watchers.get_mut(ix), self.procs.get_mut(ix)) else {
            return;
        };
        if !p.watch_kept || fd < 0 {
            return;
        }
        if !p.watch_parked || (watched && !set.covers(fd as usize)) {
            p.watch_kept = false;
        } else if watched {
            set.insert(fd as usize);
        } else {
            set.remove(fd as usize);
        }
    }

    /// Re-registers the watchers [`Kernel::unwatch_all`] parked if they
    /// are the kept ones ([`Kernel::claim_watches`]): returns `true`,
    /// and the set is live again as its owner left it. Otherwise the
    /// parked bits are dropped and it returns `false`: the set is live
    /// and empty, to be registered in full. A live set is left as it is.
    pub fn unpark_watches(&mut self, pid: Pid) -> bool {
        let ix = Self::proc_ix(pid);
        let (Some(set), Some(p)) = (self.watchers.get_mut(ix), self.procs.get_mut(ix)) else {
            return false;
        };
        if !std::mem::take(&mut p.watch_parked) {
            return false;
        }
        if !p.watch_kept {
            set.clear();
        }
        p.watch_kept
    }

    /// `pid`'s live watcher bits: `None` while they are parked.
    fn live_watchers(&self, pid: Pid) -> Option<&PagedBits> {
        let ix = Self::proc_ix(pid);
        match (self.watchers.get(ix), self.procs.get(ix)) {
            (Some(set), Some(p)) if !p.watch_parked => Some(set),
            _ => None,
        }
    }

    /// Number of active watcher registrations for `pid`.
    pub fn watch_count(&self, pid: Pid) -> usize {
        self.live_watchers(pid).map_or(0, PagedBits::count)
    }

    /// Whether `fd` is registered to wake `pid` (the backmapping-list
    /// membership question the `/dev/poll` invariant auditor asks after
    /// every `POLLREMOVE`).
    pub fn is_watched(&self, pid: Pid, fd: Fd) -> bool {
        fd >= 0
            && self
                .live_watchers(pid)
                .is_some_and(|s| s.contains(fd as usize))
    }

    /// Calls `f` for every descriptor registered to wake `pid`, in
    /// ascending order (none while the set is parked).
    pub fn for_each_watched(&self, pid: Pid, mut f: impl FnMut(Fd)) {
        let Some(bits) = self.live_watchers(pid) else {
            return;
        };
        bits.for_each_nonzero_word(|ix, mut word| {
            while word != 0 {
                f((ix * 64 + word.trailing_zeros() as usize) as Fd);
                word &= word - 1;
            }
        });
    }

    // ------------------------------------------------------------------
    // Readiness.
    // ------------------------------------------------------------------

    /// Current poll condition of `fd` as the kernel sees it.
    ///
    /// This is the "truth" that a device driver's poll callback would
    /// return; querying it is free — *charging* for the query is the
    /// poll implementation's job. A stream answers from the mirror in
    /// its own descriptor, so the scan pays one fd-table lookup per
    /// descriptor.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn readiness(&self, pid: Pid, fd: Fd) -> PollBits {
        let Some(p) = self.proc_get(pid) else {
            return PollBits::POLLNVAL;
        };
        let Ok(file) = p.fds.get(fd) else {
            return PollBits::POLLNVAL;
        };
        match file.kind {
            FileKind::Stream(_) => file.mirror.bits(),
            FileKind::Listener(l) => {
                if self.listener_slot(l).is_some_and(|s| s.ready) {
                    PollBits::POLLIN
                } else {
                    PollBits::EMPTY
                }
            }
            FileKind::DevPoll(_) => PollBits::EMPTY,
        }
    }

    /// Moves the descriptors whose poll bits may have risen since the
    /// last call into `out`: the readiness hints a stock-`poll()` wait
    /// uses to re-evaluate only what may have changed.
    ///
    /// Every rise of a descriptor's [`Kernel::readiness`] records one: a
    /// stream's readiness mirror gaining a bit, a listener's accept
    /// queue turning ready (for every sharer), and a close (`POLLNVAL`).
    /// Falling bits record nothing. Recording starts at a process's
    /// first call, so processes that never poll pay nothing. Returns
    /// `false` when the hints do not cover every change since the last
    /// call (on the first call, and after the list overflowed); the
    /// caller must then treat every descriptor as changed.
    ///
    /// The hints are simulator bookkeeping, not modelled state: they are
    /// out of [`Kernel::mem_bytes`] and [`Kernel::state_fingerprint`].
    pub fn take_poll_hints(&mut self, pid: Pid, out: &mut Vec<Fd>) -> bool {
        self.proc_mut(pid).poll_hints.take(out)
    }

    /// Records that `fd`'s poll bits may have risen (see
    /// [`Kernel::take_poll_hints`]).
    // #[hot_path] — simcheck bans per-call allocation in this function
    fn record_poll_hint(&mut self, pid: Pid, fd: Fd) {
        if let Some(p) = self.proc_get_mut(pid) {
            p.poll_hints.record(fd);
        }
    }

    /// Applies `update` to an open stream descriptor's readiness mirror
    /// in one fd-table lookup, recording a poll hint if a poll bit rose.
    /// Returns the descriptor's RT signal. Every mirror write goes
    /// through here, which is what makes the hints complete.
    fn update_mirror(
        &mut self,
        pid: Pid,
        fd: Fd,
        update: impl FnOnce(&mut SockMirror),
    ) -> Option<u8> {
        let p = self.proc_mut(pid);
        let file = p
            .fds
            .get_mut(fd)
            .expect("invariant: the stream descriptor is open");
        let before = file.mirror;
        update(&mut file.mirror);
        if p.poll_hints.recording() && !file.mirror.bits().without(before.bits()).is_empty() {
            p.poll_hints.record(fd);
        }
        file.sig
    }

    // ------------------------------------------------------------------
    // Dense slot plumbing.
    // ------------------------------------------------------------------

    fn ep_slot_insert(&mut self, ep: EndpointId, slot: EpSlot) {
        debug_assert!(
            self.eps.get(ep_index(ep)).is_none(),
            "endpoint {ep:?} already has a descriptor"
        );
        self.eps.insert(ep_index(ep), slot);
        self.eps_peak = self.eps_peak.max(self.eps.len());
    }

    /// A stream descriptor known to be open: one an endpoint slot
    /// names, or one the calling syscall already resolved.
    fn stream_file(&self, pid: Pid, fd: Fd) -> &File {
        self.proc_get(pid)
            .and_then(|p| p.fds.get(fd).ok())
            .expect("invariant: the stream descriptor is open")
    }

    /// The endpoint and readiness mirror behind a stream descriptor, in
    /// one fd-table lookup (`EBADF` if closed, `EINVAL` if not a stream).
    fn stream_of(&self, pid: Pid, fd: Fd) -> Result<(EndpointId, SockMirror), Errno> {
        let file = self.process(pid).fds.get(fd)?;
        match file.kind {
            FileKind::Stream(ep) => Ok((ep, file.mirror)),
            _ => Err(Errno::EINVAL),
        }
    }

    fn ep_slot_remove(&mut self, ep: EndpointId) {
        self.eps.take(ep_index(ep));
    }

    fn listener_slot(&self, l: ListenerId) -> Option<&ListenerSlot> {
        self.listeners.get(l.0 as usize).and_then(|s| s.as_ref())
    }

    fn listener_slot_or_default(&mut self, l: ListenerId) -> &mut ListenerSlot {
        let ix = l.0 as usize;
        if ix >= self.listeners.len() {
            self.listeners.resize(ix + 1, None);
        }
        self.listeners[ix].get_or_insert_with(ListenerSlot::default)
    }

    /// Allocates a descriptor in `pid`'s table, tallying `EMFILE`
    /// refusals so fd exhaustion is observable per-mechanism rather
    /// than only through downstream connection aborts.
    fn fd_alloc(&mut self, pid: Pid, kind: FileKind) -> Result<Fd, Errno> {
        match self.proc_mut(pid).fds.alloc(kind) {
            Err(Errno::EMFILE) => {
                self.emfile += 1;
                Err(Errno::EMFILE)
            }
            r => r,
        }
    }

    /// The endpoint behind a stream descriptor.
    pub fn endpoint_of(&self, pid: Pid, fd: Fd) -> Result<EndpointId, Errno> {
        self.stream_of(pid, fd).map(|(ep, _)| ep)
    }

    // ------------------------------------------------------------------
    // Network event intake.
    // ------------------------------------------------------------------

    /// Routes one network notification into the kernel.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn on_net(&mut self, now: SimTime, notify: &NetNotify) {
        match *notify {
            NetNotify::SegmentArrived { host, wire_bytes } => {
                if host == self.host {
                    let c = self.cost.softirq_rx(wire_bytes);
                    self.cpu.charge_softirq(now, c);
                }
            }
            NetNotify::Readable { ep } => {
                self.fd_event(now, ep, PollBits::POLLIN, |m| m.readable = true);
            }
            NetNotify::Writable { ep } => {
                self.fd_event(now, ep, PollBits::POLLOUT, |m| m.writable = true);
            }
            NetNotify::PeerClosed { ep } => {
                self.fd_event(now, ep, PollBits::POLLHUP | PollBits::POLLIN, |m| {
                    m.hup = true;
                    m.readable = true;
                });
            }
            NetNotify::ConnReset { ep } => {
                self.fd_event(now, ep, PollBits::POLLERR, |m| m.err = true);
            }
            NetNotify::AcceptReady { listener } => {
                let mut owners = std::mem::take(&mut self.accept_scratch);
                owners.clear();
                {
                    let slot = self.listener_slot_or_default(listener);
                    slot.ready = true;
                    owners.extend_from_slice(&slot.owners);
                }
                // Every sharer's descriptor turned readable, woken or
                // not.
                for &(pid, fd) in &owners {
                    self.record_poll_hint(pid, fd);
                }
                match self.accept_wake {
                    AcceptWake::Herd => {
                        // Stock 2.2: every sharer is notified and woken.
                        for &(pid, fd) in &owners {
                            self.raise_listener_event(now, pid, fd);
                        }
                    }
                    AcceptWake::Exclusive => {
                        if !owners.is_empty() {
                            // Prefer a sleeping sharer (it needs the wake);
                            // round-robin among them for fairness.
                            let n = owners.len();
                            let start = self.accept_rr;
                            self.accept_rr = (self.accept_rr + 1) % n;
                            let pick = (0..n)
                                .map(|i| owners[(start + i) % n])
                                .find(|&(pid, _)| {
                                    self.proc_get(pid).is_some_and(|p| p.is_sleeping())
                                })
                                .unwrap_or(owners[start % n]);
                            self.raise_listener_event(now, pick.0, pick.1);
                        }
                    }
                }
                self.accept_scratch = owners;
            }
            // Client-side notifications are not the server kernel's
            // business; full closes need no action (the fd, if still
            // open, keeps reporting HUP via the mirror).
            NetNotify::ConnClosed { ep } => {
                // Preserve a HUP indication for a still-open fd whose
                // mirror is about to lose its connection state.
                if let Some(&EpSlot { pid, fd }) = self.eps.get(ep_index(ep)) {
                    self.update_mirror(pid, fd, |m| m.hup = true);
                }
            }
            NetNotify::ConnectDone { .. }
            | NetNotify::ConnectFailed { .. }
            | NetNotify::SynDropped { .. } => {}
        }
    }

    /// A stream event: resolves the endpoint's descriptor once, applies
    /// `update` to its readiness mirror, and raises `band` on it with
    /// the RT signal read from that same descriptor. An endpoint with no
    /// open descriptor (not yet accepted, or already closed) is ignored.
    fn fd_event(
        &mut self,
        now: SimTime,
        ep: EndpointId,
        band: PollBits,
        update: impl FnOnce(&mut SockMirror),
    ) {
        let Some(&EpSlot { pid, fd }) = self.eps.get(ep_index(ep)) else {
            return;
        };
        let sig = self.update_mirror(pid, fd, update);
        self.raise_fd_event(now, pid, fd, band, sig);
    }

    /// An accept-ready event on one sharer's listening descriptor.
    fn raise_listener_event(&mut self, now: SimTime, pid: Pid, fd: Fd) {
        let sig = self
            .proc_get(pid)
            .and_then(|p| p.fds.get(fd).ok())
            .and_then(|f| f.sig);
        self.raise_fd_event(now, pid, fd, PollBits::POLLIN, sig);
    }

    /// Raises a descriptor event: queues RT signal `sig` if the
    /// descriptor has one assigned, wakes sleeping watchers, and
    /// surfaces the event for `/dev/poll` hint marking.
    fn raise_fd_event(&mut self, now: SimTime, pid: Pid, fd: Fd, band: PollBits, sig: Option<u8>) {
        self.events_out.push(KernelEvent::FdEvent { pid, fd, band });

        // F_SETSIG: queue an RT signal (kernel side, softirq context).
        if let Some(signo) = sig {
            let rt_cost = SimDuration::from_nanos(self.cost.rt_enqueue);
            let sigio_cost = SimDuration::from_nanos(self.cost.sigio_raise);
            let p = self.proc_mut(pid);
            let ok = p.signals.enqueue_rt(Siginfo { signo, fd, band });
            let depth = p.signals.queue_len() as u64;
            self.cpu.charge_softirq(now, rt_cost);
            if ok {
                self.probe.inc(Metric::RtsigEnqueued);
            } else {
                self.probe.inc(Metric::RtsigOverflows);
                self.cpu.charge_softirq(now, sigio_cost);
            }
            self.probe.gauge_set(Metric::RtsigQueueDepth, depth);
            // A signal (RT or the overflow SIGIO) is deliverable: wake a
            // process blocked in sigwaitinfo.
            self.wake(pid);
        }

        // Wait-queue wakeup for poll-style sleepers.
        if self.is_watched(pid, fd) {
            self.wake(pid);
        }
    }

    // ------------------------------------------------------------------
    // Syscalls.
    // ------------------------------------------------------------------

    fn charge_syscall(&mut self, pid: Pid, extra: u64) {
        let c = SimDuration::from_nanos(self.cost.syscall + extra);
        self.charge(pid, c);
    }

    /// Counts a syscall entry and charges its base cost. Returns the
    /// batch accumulator at entry so [`Kernel::syscall_exit`] can observe
    /// the syscall's full simulated latency (base plus any per-byte or
    /// per-item charges added before the exit).
    fn syscall_enter(&mut self, pid: Pid, call: Syscall, extra: u64) -> SimDuration {
        self.probe.inc(call.probes().0);
        let entry = self
            .proc_get(pid)
            .and_then(|p| p.batch_acc)
            .unwrap_or(SimDuration::ZERO);
        self.charge_syscall(pid, extra);
        entry
    }

    /// Observes the simulated latency accumulated since `entry` into the
    /// syscall's histogram (happy-path exits only; error paths still
    /// count the entry).
    fn syscall_exit(&mut self, pid: Pid, entry: SimDuration, call: Syscall) {
        let acc = self
            .proc_get(pid)
            .and_then(|p| p.batch_acc)
            .unwrap_or(entry);
        self.probe
            .observe(call.probes().1, (acc - entry).as_nanos());
    }

    /// `socket` + `bind` + `listen` in one step: opens a listening
    /// descriptor on this host.
    pub fn sys_listen(
        &mut self,
        net: &mut Network,
        pid: Pid,
        port: Port,
        backlog: usize,
    ) -> Result<Fd, Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Listen, self.cost.accept);
        let listener = net
            .listen(self.host, port, backlog)
            .map_err(|_| Errno::EADDRINUSE)?;
        let fd = self.fd_alloc(pid, FileKind::Listener(listener))?;
        let slot = self.listener_slot_or_default(listener);
        slot.owners.push((pid, fd));
        slot.ready = false;
        self.syscall_exit(pid, t0, Syscall::Listen);
        Ok(fd)
    }

    /// Attaches an existing listening socket to another process — the
    /// prefork pattern: one parent `listen()`s, the children inherit the
    /// descriptor and all `accept()` from it.
    pub fn sys_share_listener(&mut self, pid: Pid, listener: ListenerId) -> Result<Fd, Errno> {
        let t0 = self.syscall_enter(pid, Syscall::ShareListener, self.cost.fcntl);
        if self.listener_slot(listener).is_none() {
            return Err(Errno::EBADF);
        }
        let fd = self.fd_alloc(pid, FileKind::Listener(listener))?;
        self.listener_slot_or_default(listener)
            .owners
            .push((pid, fd));
        self.syscall_exit(pid, t0, Syscall::ShareListener);
        Ok(fd)
    }

    /// The listener behind a listening descriptor.
    pub fn listener_of(&self, pid: Pid, fd: Fd) -> Result<ListenerId, Errno> {
        match self.process(pid).fds.get(fd)?.kind {
            FileKind::Listener(l) => Ok(l),
            _ => Err(Errno::EINVAL),
        }
    }

    /// `accept()`: pops one established connection, allocating a
    /// descriptor for it.
    pub fn sys_accept(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        listen_fd: Fd,
    ) -> Result<Fd, Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Accept, self.cost.accept);
        let listener = match self.process(pid).fds.get(listen_fd)?.kind {
            FileKind::Listener(l) => l,
            _ => return Err(Errno::EINVAL),
        };
        let Some(ep) = net.accept(listener) else {
            self.listener_slot_or_default(listener).ready = false;
            return Err(Errno::EAGAIN);
        };
        if net.accept_queue_len(listener) == 0 {
            self.listener_slot_or_default(listener).ready = false;
        }
        let fd = match self.fd_alloc(pid, FileKind::Stream(ep)) {
            Ok(fd) => fd,
            Err(e) => {
                // Descriptor table full: the connection was already
                // dequeued, so refuse it outright rather than leak it.
                let vnow = self.vnow(now, pid);
                let _ = net.abort(vnow, ep);
                return Err(e);
            }
        };
        let st = net.endpoint_state(ep);
        self.update_mirror(pid, fd, |m| {
            *m = SockMirror {
                readable: st.readable_bytes > 0 || st.peer_closed,
                writable: st.send_space > 0,
                hup: st.peer_closed,
                err: false,
            }
        });
        self.ep_slot_insert(ep, EpSlot { pid, fd });
        if self.spans.enabled() {
            // Accept-queue wait: from the softirq-side enqueue (three-way
            // handshake completion) to this accept() pop — a cross-batch
            // wait, so it is recorded standalone rather than nested.
            if let Some(queued) = net.accept_queued_at(ep) {
                let end = self.span_now(pid);
                self.span_complete(Phase::AcceptWait, pid as u64, queued, end);
            }
        }
        self.syscall_exit(pid, t0, Syscall::Accept);
        Ok(fd)
    }

    /// `read()`: drains up to `max` in-order bytes.
    ///
    /// Returns `Ok(empty)` at EOF, `EAGAIN` when nothing is available on
    /// a non-blocking stream.
    pub fn sys_read(
        &mut self,
        net: &mut Network,
        pid: Pid,
        fd: Fd,
        max: usize,
    ) -> Result<Vec<u8>, Errno> {
        let mut buf = Vec::new();
        self.sys_read_into(net, pid, fd, max, &mut buf)?;
        Ok(buf)
    }

    /// `read()` into a caller-supplied buffer: appends up to `max` bytes
    /// to `buf` and returns how many arrived (`Ok(0)` means EOF).
    ///
    /// The allocation-free spelling of [`Kernel::sys_read`] for server
    /// hot paths — request bytes land directly in the connection's own
    /// buffer instead of bouncing through a fresh `Vec` per call.
    pub fn sys_read_into(
        &mut self,
        net: &mut Network,
        pid: Pid,
        fd: Fd,
        max: usize,
        buf: &mut Vec<u8>,
    ) -> Result<usize, Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Read, self.cost.read_base);
        let (ep, mirror) = self.stream_of(pid, fd)?;
        if mirror.err {
            return Err(Errno::ECONNRESET);
        }
        let n = net.recv_into(ep, max, buf).unwrap_or(0);
        if n > 0 {
            self.charge(pid, self.cost.copy(n));
        }
        // Level update: still readable only if bytes remain (EOF keeps
        // POLLIN so the application observes it).
        let st = net.endpoint_state(ep);
        let eof = st.peer_closed || !st.exists;
        self.update_mirror(pid, fd, |m| {
            m.readable = st.readable_bytes > 0 || eof;
            m.hup |= eof;
        });
        self.span_leaf(pid, Phase::Read, t0);
        if n == 0 {
            if eof {
                self.syscall_exit(pid, t0, Syscall::Read);
                return Ok(0); // EOF.
            }
            return Err(Errno::EAGAIN);
        }
        self.syscall_exit(pid, t0, Syscall::Read);
        Ok(n)
    }

    /// `write()` of `data[from..]`: buffers up to the socket send-buffer
    /// size. The socket holds a share of `data`, not a copy; the copy
    /// a real `write()` makes is charged all the same.
    ///
    /// Returns the number of bytes accepted; `EAGAIN` if none fit.
    pub fn sys_write(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        fd: Fd,
        data: &Rc<Vec<u8>>,
        from: usize,
    ) -> Result<usize, Errno> {
        self.send_from(net, now, pid, fd, data, from, Syscall::Write)
    }

    /// `sendfile()` of `data[from..]`: transmits file bytes through the
    /// kernel without the user-space copy (§6 of the paper lists this as
    /// future work worth studying; Linux 2.2 had just grown the syscall).
    ///
    /// Semantically identical to `write()` here — the content store is
    /// in memory — but the per-byte cost uses the cheaper in-kernel
    /// path.
    pub fn sys_sendfile(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        fd: Fd,
        data: &Rc<Vec<u8>>,
        from: usize,
    ) -> Result<usize, Errno> {
        self.send_from(net, now, pid, fd, data, from, Syscall::Sendfile)
    }

    /// The body of `write()` and `sendfile()`, which differ only in the
    /// per-byte charge: a user-space copy, or the in-kernel page path.
    #[allow(clippy::too_many_arguments)]
    fn send_from(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        fd: Fd,
        data: &Rc<Vec<u8>>,
        from: usize,
        call: Syscall,
    ) -> Result<usize, Errno> {
        let t0 = self.syscall_enter(pid, call, self.cost.write_base);
        let (ep, mirror) = self.stream_of(pid, fd)?;
        if mirror.err {
            return Err(Errno::ECONNRESET);
        }
        let vnow = self.vnow(now, pid);
        let n = match net.send_shared(vnow, ep, data, from) {
            Ok(n) => n,
            Err(_) => return Err(Errno::EPIPE),
        };
        if n > 0 {
            let mss = simnet::DEFAULT_MSS as usize;
            let segs = n.div_ceil(mss) as u64;
            let per_byte = match call {
                Syscall::Sendfile => {
                    SimDuration::from_nanos(self.cost.sendfile_per_byte * n as u64)
                }
                _ => self.cost.copy(n),
            };
            self.charge(pid, per_byte);
            self.charge(
                pid,
                SimDuration::from_nanos(self.cost.tx_per_segment * segs),
            );
        }
        let writable = net.endpoint_state(ep).send_space > 0;
        self.update_mirror(pid, fd, |m| m.writable = writable);
        self.span_leaf(pid, Phase::Write, t0);
        if n == 0 {
            return Err(Errno::EAGAIN);
        }
        self.syscall_exit(pid, t0, call);
        Ok(n)
    }

    /// `close()`: releases the descriptor; streams get a FIN.
    ///
    /// Any RT signals already queued for the descriptor remain queued —
    /// the stale-event behaviour §2 of the paper warns about.
    pub fn sys_close(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Close, self.cost.close);
        let vnow = self.vnow(now, pid);
        let file = self.proc_mut(pid).fds.close(fd)?;
        match file.kind {
            FileKind::Stream(ep) => {
                self.ep_slot_remove(ep);
                // Half-close; if the conn is already gone this is a no-op.
                let _ = net.close(vnow, ep);
            }
            FileKind::Listener(l) => {
                if let Some(slot) = self.listeners.get_mut(l.0 as usize) {
                    if let Some(s) = slot.as_mut() {
                        s.owners.retain(|&(p, f)| !(p == pid && f == fd));
                        if s.owners.is_empty() {
                            *slot = None;
                        }
                    }
                }
            }
            FileKind::DevPoll(_) => {}
        }
        self.unwatch(pid, fd);
        self.record_poll_hint(pid, fd);
        self.syscall_exit(pid, t0, Syscall::Close);
        Ok(())
    }

    /// `abort()`-style close (SO_LINGER 0): RST instead of FIN.
    pub fn sys_abort(
        &mut self,
        net: &mut Network,
        now: SimTime,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Abort, self.cost.close);
        let vnow = self.vnow(now, pid);
        let file = self.proc_mut(pid).fds.close(fd)?;
        if let FileKind::Stream(ep) = file.kind {
            self.ep_slot_remove(ep);
            let _ = net.abort(vnow, ep);
        }
        self.unwatch(pid, fd);
        self.record_poll_hint(pid, fd);
        self.syscall_exit(pid, t0, Syscall::Abort);
        Ok(())
    }

    /// `fcntl(fd, F_SETFL, O_NONBLOCK)`.
    pub fn sys_set_nonblock(&mut self, pid: Pid, fd: Fd) -> Result<(), Errno> {
        let t0 = self.syscall_enter(pid, Syscall::SetNonblock, self.cost.fcntl);
        self.proc_mut(pid).fds.get_mut(fd)?.nonblock = true;
        self.syscall_exit(pid, t0, Syscall::SetNonblock);
        Ok(())
    }

    /// `fcntl(fd, F_SETSIG, signo)` + `F_SETOWN`: route readiness events
    /// for `fd` into the process's RT signal queue (§2).
    ///
    /// Pass `None` to clear. The signal number must be in the RT range.
    pub fn sys_set_sig(&mut self, pid: Pid, fd: Fd, signo: Option<u8>) -> Result<(), Errno> {
        // F_SETSIG and F_SETOWN are two fcntl calls in the real API.
        let t0 = self.syscall_enter(pid, Syscall::SetSig, self.cost.fcntl);
        self.charge_syscall(pid, self.cost.fcntl);
        if let Some(s) = signo {
            if !(SIGRTMIN..=SIGRTMAX).contains(&s) {
                return Err(Errno::EINVAL);
            }
        }
        self.proc_mut(pid).fds.get_mut(fd)?.sig = signo;
        self.span_leaf(pid, Phase::InterestReg, t0);
        self.syscall_exit(pid, t0, Syscall::SetSig);
        Ok(())
    }

    /// `sigwaitinfo()`: dequeues the next pending signal, or `EAGAIN` if
    /// none (caller decides to sleep).
    pub fn sys_sigwaitinfo(&mut self, pid: Pid) -> Result<Siginfo, Errno> {
        let t0 = self.syscall_enter(pid, Syscall::Sigwaitinfo, self.cost.rt_dequeue);
        let out = self.proc_mut(pid).signals.dequeue();
        let depth = self.process(pid).signals.queue_len() as u64;
        self.probe.gauge_set(Metric::RtsigQueueDepth, depth);
        match out {
            Some(info) => {
                self.probe.inc(Metric::RtsigDequeued);
                self.span_leaf(pid, Phase::Delivery, t0);
                self.syscall_exit(pid, t0, Syscall::Sigwaitinfo);
                Ok(info)
            }
            None => Err(Errno::EAGAIN),
        }
    }

    /// The paper's proposed `sigtimedwait4()`: dequeues up to `max`
    /// signals in one syscall (§6), handing each to `deliver` in dequeue
    /// order (the caller's `siginfo` array). Returns how many were
    /// dequeued.
    pub fn sys_sigtimedwait4(
        &mut self,
        pid: Pid,
        max: usize,
        deliver: impl FnMut(Siginfo),
    ) -> Result<usize, Errno> {
        // One syscall; per-signal dequeue work still applies.
        let t0 = self.syscall_enter(pid, Syscall::Sigtimedwait4, 0);
        let n = self.proc_mut(pid).signals.dequeue_batch(max, deliver);
        let c = SimDuration::from_nanos(self.cost.rt_dequeue * n as u64);
        self.charge(pid, c);
        let depth = self.process(pid).signals.queue_len() as u64;
        self.probe.gauge_set(Metric::RtsigQueueDepth, depth);
        if n == 0 {
            return Err(Errno::EAGAIN);
        }
        self.probe.add(Metric::RtsigDequeued, n as u64);
        self.probe.observe(Metric::RtsigBatchSize, n as u64);
        self.span_leaf(pid, Phase::Delivery, t0);
        self.syscall_exit(pid, t0, Syscall::Sigtimedwait4);
        Ok(n)
    }

    /// Flushes the RT queue (overflow recovery: handlers reset to
    /// `SIG_DFL`). Returns how many signals were discarded.
    pub fn sys_flush_rt(&mut self, pid: Pid) -> usize {
        let t0 = self.syscall_enter(pid, Syscall::FlushRt, 0);
        let n = self.proc_mut(pid).signals.flush_rt();
        self.probe.add(Metric::RtsigFlushed, n as u64);
        self.probe.gauge_set(Metric::RtsigQueueDepth, 0);
        self.syscall_exit(pid, t0, Syscall::FlushRt);
        n
    }

    /// Charges arbitrary application-level work (request parsing, file
    /// lookup) into the current batch.
    pub fn charge_app(&mut self, pid: Pid, nanos: u64) {
        self.charge(pid, SimDuration::from_nanos(nanos));
    }

    /// Allocates a descriptor directly (used by the `/dev/poll` device
    /// layer, which manages its own object registry). No cost is
    /// charged — the caller accounts for the surrounding syscall.
    pub fn alloc_fd(&mut self, pid: Pid, kind: FileKind) -> Result<Fd, Errno> {
        self.fd_alloc(pid, kind)
    }

    /// Closes a descriptor with no socket side effects (used for
    /// `/dev/poll` descriptors). No cost is charged. A stream's endpoint
    /// slot leaves with its descriptor, as on every close.
    pub fn close_fd_raw(&mut self, pid: Pid, fd: Fd) -> Result<(), Errno> {
        let file = self.proc_mut(pid).fds.close(fd)?;
        if let FileKind::Stream(ep) = file.kind {
            self.ep_slot_remove(ep);
        }
        self.unwatch(pid, fd);
        self.record_poll_hint(pid, fd);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;
    use simnet::{HostId, LinkConfig, SockAddr, TcpConfig};

    const CLIENT: HostId = HostId(0);
    const SERVER: HostId = HostId(1);

    fn setup() -> (Network, Kernel, Pid) {
        let net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
        let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
        let pid = kernel.spawn_default();
        (net, kernel, pid)
    }

    /// Pumps the network, feeding all notifications into the kernel, and
    /// returns the kernel events raised, until quiet or `horizon`.
    fn pump(net: &mut Network, kernel: &mut Kernel, horizon: SimTime) -> Vec<KernelEvent> {
        let mut out = Vec::new();
        loop {
            match net.next_deadline() {
                Some(t) if t <= horizon => {
                    for n in net.advance(t) {
                        kernel.on_net(t, &n);
                    }
                    out.extend(kernel.advance(t));
                }
                _ => break,
            }
        }
        for n in net.advance(horizon) {
            kernel.on_net(horizon, &n);
        }
        out.extend(kernel.advance(horizon));
        out
    }

    fn connect_one(
        net: &mut Network,
        kernel: &mut Kernel,
        pid: Pid,
        listen_fd: Fd,
    ) -> (Fd, simnet::ConnId) {
        let conn = net
            .connect(
                SimTime::ZERO,
                CLIENT,
                SockAddr::new(SERVER, 80),
                SimDuration::ZERO,
            )
            .unwrap();
        pump(net, kernel, SimTime::from_millis(10));
        kernel.begin_batch(SimTime::from_millis(10), pid);
        let fd = kernel
            .sys_accept(net, SimTime::from_millis(10), pid, listen_fd)
            .unwrap();
        kernel.end_batch(SimTime::from_millis(10), pid);
        (fd, conn)
    }

    #[test]
    fn listen_accept_read_write_close_lifecycle() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);

        let (fd, conn) = connect_one(&mut net, &mut kernel, pid, lfd);
        let client_ep = EndpointId::new(conn, simnet::Side::Client);

        // Client sends a request.
        let t = SimTime::from_millis(20);
        net.send(t, client_ep, b"GET / HTTP/1.0\r\n\r\n").unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(30));
        assert!(kernel.readiness(pid, fd).contains(PollBits::POLLIN));

        let t = SimTime::from_millis(30);
        kernel.begin_batch(t, pid);
        let data = kernel.sys_read(&mut net, pid, fd, 4096).unwrap();
        assert_eq!(&data, b"GET / HTTP/1.0\r\n\r\n");
        // Drained: no longer readable.
        assert!(!kernel.readiness(pid, fd).contains(PollBits::POLLIN));
        let n = kernel
            .sys_write(&mut net, t, pid, fd, &Rc::new(vec![0u8; 6144]), 0)
            .unwrap();
        assert_eq!(n, 6144);
        kernel.sys_close(&mut net, t, pid, fd).unwrap();
        kernel.end_batch(t, pid);

        pump(&mut net, &mut kernel, SimTime::from_millis(100));
        let got = net.recv(client_ep, 10_000).unwrap();
        assert_eq!(got.len(), 6144);
        assert!(net.endpoint_state(client_ep).peer_closed);
    }

    #[test]
    fn closed_fd_slot_is_recycled_without_stale_state() {
        // The fd table is a dense `Vec<Option<File>>` that always hands
        // out the lowest free slot, so closing a descriptor and accepting
        // a fresh connection must yield the *same* fd number — with the
        // slot fully reinitialized (no readiness or buffered data leaking
        // from the previous occupant).
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);

        let (fd, conn) = connect_one(&mut net, &mut kernel, pid, lfd);
        let client_ep = EndpointId::new(conn, simnet::Side::Client);

        // Make the old occupant readable, then close it with the data
        // still buffered — the stale POLLIN must not survive the slot.
        let t = SimTime::from_millis(20);
        net.send(t, client_ep, b"stale bytes").unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(30));
        assert!(kernel.readiness(pid, fd).contains(PollBits::POLLIN));
        let t = SimTime::from_millis(30);
        kernel.begin_batch(t, pid);
        kernel.sys_close(&mut net, t, pid, fd).unwrap();
        kernel.end_batch(t, pid);
        pump(&mut net, &mut kernel, SimTime::from_millis(40));

        net.connect(
            SimTime::from_millis(40),
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(50));
        let t = SimTime::from_millis(50);
        kernel.begin_batch(t, pid);
        let fd2 = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        assert_eq!(fd2, fd, "lowest free slot must be recycled");
        assert!(
            !kernel.readiness(pid, fd2).contains(PollBits::POLLIN),
            "recycled slot leaked the previous connection's readiness"
        );
        let t = SimTime::from_millis(50);
        kernel.begin_batch(t, pid);
        assert_eq!(
            kernel.sys_read(&mut net, pid, fd2, 4096),
            Err(Errno::EAGAIN),
            "recycled slot leaked the previous connection's buffered data"
        );
        kernel.end_batch(t, pid);
    }

    #[test]
    fn read_empty_is_eagain_then_eof_after_fin() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let (fd, conn) = connect_one(&mut net, &mut kernel, pid, lfd);
        let client_ep = EndpointId::new(conn, simnet::Side::Client);

        let t = SimTime::from_millis(20);
        kernel.begin_batch(t, pid);
        assert_eq!(kernel.sys_read(&mut net, pid, fd, 4096), Err(Errno::EAGAIN));
        kernel.end_batch(t, pid);

        net.close(t, client_ep).unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(40));
        assert!(kernel.readiness(pid, fd).contains(PollBits::POLLHUP));
        let t = SimTime::from_millis(40);
        kernel.begin_batch(t, pid);
        let data = kernel.sys_read(&mut net, pid, fd, 4096).unwrap();
        assert!(data.is_empty(), "EOF reads as empty");
        kernel.end_batch(t, pid);
    }

    #[test]
    fn batch_costs_delay_completion_and_count_syscalls() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let _ = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        let done = kernel.end_batch(SimTime::ZERO, pid);
        assert!(done > SimTime::ZERO, "syscall work takes CPU time");
        assert_eq!(kernel.probe().counter(Metric::SyscallListen), 1);
        // The process becomes runnable at `done`.
        assert_eq!(kernel.next_deadline(), Some(done));
        let evs = kernel.advance(done);
        assert!(evs.contains(&KernelEvent::ProcRunnable { pid }));
    }

    #[test]
    fn sleeping_process_wakes_on_readiness() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let _ = kernel.advance(SimTime::from_millis(1));

        // Sleep watching the listener.
        kernel.begin_batch(SimTime::from_millis(1), pid);
        kernel.watch(pid, lfd);
        kernel.end_batch_sleep(SimTime::from_millis(1), pid, None);
        let _ = kernel.advance(SimTime::from_millis(2));
        assert!(kernel.process(pid).is_sleeping());

        // A connection arrives -> AcceptReady -> wake.
        net.connect(
            SimTime::from_millis(2),
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
        let evs = pump(&mut net, &mut kernel, SimTime::from_millis(10));
        assert!(evs
            .iter()
            .any(|e| matches!(e, KernelEvent::ProcRunnable { .. })));
        assert!(!kernel.process(pid).is_sleeping());
        assert_eq!(kernel.probe().counter(Metric::KernelWakeups), 1);
    }

    #[test]
    fn sleep_timeout_fires() {
        let (_net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        kernel.end_batch_sleep(SimTime::ZERO, pid, Some(SimDuration::from_millis(5)));
        let _ = kernel.advance(SimTime::from_millis(1));
        assert!(kernel.process(pid).is_sleeping());
        let deadline = kernel.next_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_millis(5));
        let evs = kernel.advance(deadline);
        assert!(evs.contains(&KernelEvent::ProcRunnable { pid }));
    }

    #[test]
    fn wake_racing_with_sleep_decision_cancels_sleep() {
        let (_net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        kernel.charge(pid, SimDuration::from_micros(100));
        kernel.end_batch_sleep(SimTime::ZERO, pid, None);
        // Wake arrives while the batch is still on the CPU.
        kernel.wake(pid);
        let evs = kernel.advance(SimTime::from_micros(100));
        assert!(evs.contains(&KernelEvent::ProcRunnable { pid }));
        assert!(!kernel.process(pid).is_sleeping());
    }

    #[test]
    fn f_setsig_queues_rt_signals_on_events() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let (fd, conn) = connect_one(&mut net, &mut kernel, pid, lfd);
        let t = SimTime::from_millis(20);
        kernel.begin_batch(t, pid);
        kernel.sys_set_sig(pid, fd, Some(SIGRTMIN)).unwrap();
        kernel.end_batch(t, pid);

        let client_ep = EndpointId::new(conn, simnet::Side::Client);
        net.send(t, client_ep, b"hello").unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(40));

        let t = SimTime::from_millis(40);
        kernel.begin_batch(t, pid);
        let info = kernel.sys_sigwaitinfo(pid).unwrap();
        assert_eq!(info.signo, SIGRTMIN);
        assert_eq!(info.fd, fd);
        assert!(info.band.contains(PollBits::POLLIN));
        assert_eq!(kernel.sys_sigwaitinfo(pid), Err(Errno::EAGAIN));
        kernel.end_batch(t, pid);
        assert_eq!(kernel.probe().counter(Metric::RtsigEnqueued), 1);
    }

    #[test]
    fn set_sig_rejects_non_rt_numbers() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        assert_eq!(kernel.sys_set_sig(pid, lfd, Some(5)), Err(Errno::EINVAL));
        kernel.end_batch(SimTime::ZERO, pid);
    }

    #[test]
    fn softirq_load_delays_batches() {
        let (mut net, mut kernel, pid) = setup();
        // Blast segments at the server host.
        for _ in 0..100 {
            kernel.on_net(
                SimTime::ZERO,
                &NetNotify::SegmentArrived {
                    host: SERVER,
                    wire_bytes: 1500,
                },
            );
        }
        kernel.begin_batch(SimTime::ZERO, pid);
        let _ = kernel.sys_listen(&mut net, pid, 80, 128);
        let done = kernel.end_batch(SimTime::ZERO, pid);
        // 100 segments at ~36us each queue ahead of the batch.
        assert!(
            done > SimTime::from_millis(3),
            "interrupt load must delay the process (done={done})"
        );
    }

    #[test]
    fn readiness_of_bad_fd_is_nval() {
        let (_net, kernel, pid) = setup();
        assert_eq!(kernel.readiness(pid, 42), PollBits::POLLNVAL);
        assert_eq!(kernel.readiness(pid, -1), PollBits::POLLNVAL);
    }

    #[test]
    fn rt_queue_overflow_raises_sigio_and_is_recoverable() {
        let (mut net, mut kernel, _default_pid) = setup();
        // Tiny queue to overflow quickly.
        let pid = kernel.spawn(1024, 2);
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
        pump(&mut net, &mut kernel, SimTime::from_millis(10));
        let t = SimTime::from_millis(10);
        kernel.begin_batch(t, pid);
        let fd = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.sys_set_sig(pid, fd, Some(SIGRTMIN)).unwrap();
        kernel.end_batch(t, pid);

        // Three separate data arrivals -> three events -> queue of 2
        // overflows on the third.
        let client_ep = EndpointId::new(conn, simnet::Side::Client);
        for i in 0..3u64 {
            let at = SimTime::from_millis(20 + i * 10);
            net.send(at, client_ep, b"x").unwrap();
            pump(&mut net, &mut kernel, at + SimDuration::from_millis(5));
        }
        assert_eq!(kernel.probe().counter(Metric::RtsigOverflows), 1);
        assert!(kernel.process(pid).signals.sigio_pending());

        // Recovery: pick up SIGIO first, flush, then poll() would run.
        let t = SimTime::from_millis(60);
        kernel.begin_batch(t, pid);
        let first = kernel.sys_sigwaitinfo(pid).unwrap();
        assert_eq!(first.signo, crate::signal::SIGIO);
        let flushed = kernel.sys_flush_rt(pid);
        assert_eq!(flushed, 2);
        assert_eq!(kernel.sys_sigwaitinfo(pid), Err(Errno::EAGAIN));
        kernel.end_batch(t, pid);
    }

    #[test]
    fn sigtimedwait4_dequeues_in_one_syscall() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        let (fd, conn) = connect_one(&mut net, &mut kernel, pid, lfd);
        let t = SimTime::from_millis(20);
        kernel.begin_batch(t, pid);
        kernel.sys_set_sig(pid, fd, Some(SIGRTMIN)).unwrap();
        kernel.end_batch(t, pid);

        let client_ep = EndpointId::new(conn, simnet::Side::Client);
        for i in 0..4u64 {
            let at = SimTime::from_millis(30 + i * 5);
            net.send(at, client_ep, b"y").unwrap();
            pump(&mut net, &mut kernel, at + SimDuration::from_millis(4));
        }
        let before = kernel.probe().counter(Metric::SyscallSigtimedwait4);
        let t = SimTime::from_millis(60);
        kernel.begin_batch(t, pid);
        let n = kernel.sys_sigtimedwait4(pid, 16, |_| {}).unwrap();
        kernel.end_batch(t, pid);
        assert!(n >= 2, "multiple events in one call: {n}");
        assert_eq!(
            kernel.probe().counter(Metric::SyscallSigtimedwait4),
            before + 1
        );
    }

    /// Endpoint slots and open stream descriptors are in bijection:
    /// every slot names an open `Stream` file for its own endpoint, and
    /// every open stream descriptor has its slot.
    fn assert_slot_bijection(kernel: &Kernel, when: &str) {
        for (ix, s) in kernel.eps.iter() {
            let file = kernel
                .process(s.pid)
                .fds
                .get(s.fd)
                .unwrap_or_else(|_| panic!("{when}: slot {ix} names closed fd {}", s.fd));
            match file.kind {
                FileKind::Stream(ep) => assert_eq!(
                    ep_index(ep),
                    ix,
                    "{when}: slot {ix} names fd {} of another endpoint",
                    s.fd
                ),
                other => panic!("{when}: slot {ix} names fd {} of kind {other:?}", s.fd),
            }
        }
        let mut streams = 0;
        for (i, p) in kernel.procs.iter().enumerate() {
            let pid = (i + 1) as Pid;
            for (fd, file) in p.fds.iter() {
                let FileKind::Stream(ep) = file.kind else {
                    continue;
                };
                streams += 1;
                let slot = kernel
                    .eps
                    .get(ep_index(ep))
                    .unwrap_or_else(|| panic!("{when}: open stream fd {fd} has no slot"));
                assert_eq!((slot.pid, slot.fd), (pid, fd), "{when}: slot of fd {fd}");
            }
        }
        assert_eq!(streams, kernel.eps.len(), "{when}: slot count");
    }

    #[test]
    fn endpoint_slots_track_open_stream_fds() {
        let (mut net, mut kernel, pid) = setup();
        kernel.begin_batch(SimTime::ZERO, pid);
        let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        kernel.end_batch(SimTime::ZERO, pid);
        assert_slot_bijection(&kernel, "listen");

        let (fd_a, conn_a) = connect_one(&mut net, &mut kernel, pid, lfd);
        let (fd_b, conn_b) = connect_one(&mut net, &mut kernel, pid, lfd);
        let (fd_c, conn_c) = connect_one(&mut net, &mut kernel, pid, lfd);
        assert_slot_bijection(&kernel, "accept");
        let client = |conn| EndpointId::new(conn, simnet::Side::Client);

        // A: request then FIN; the server reads it to EOF.
        net.send(SimTime::from_millis(20), client(conn_a), b"GET /")
            .unwrap();
        net.close(SimTime::from_millis(20), client(conn_a)).unwrap();
        // B: peer FIN only. C: peer RST.
        net.close(SimTime::from_millis(20), client(conn_b)).unwrap();
        net.abort(SimTime::from_millis(20), client(conn_c)).unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(40));
        assert_slot_bijection(&kernel, "peer FIN and RST");
        assert!(kernel.readiness(pid, fd_b).contains(PollBits::POLLHUP));
        assert!(kernel.readiness(pid, fd_c).contains(PollBits::POLLERR));

        let t = SimTime::from_millis(40);
        kernel.begin_batch(t, pid);
        assert_eq!(
            kernel.sys_read(&mut net, pid, fd_a, 4096).unwrap(),
            b"GET /"
        );
        assert!(kernel
            .sys_read(&mut net, pid, fd_a, 4096)
            .unwrap()
            .is_empty());
        assert_slot_bijection(&kernel, "read to EOF");
        kernel.sys_close(&mut net, t, pid, fd_a).unwrap();
        assert_slot_bijection(&kernel, "close");
        kernel.sys_abort(&mut net, t, pid, fd_b).unwrap();
        assert_slot_bijection(&kernel, "abort");
        kernel.end_batch(t, pid);
        // Late notifications for the closed endpoints find no slot.
        pump(&mut net, &mut kernel, SimTime::from_millis(60));
        assert_slot_bijection(&kernel, "after close");

        // The lowest free descriptor is reused, with a fresh mirror.
        net.connect(
            SimTime::from_millis(60),
            CLIENT,
            SockAddr::new(SERVER, 80),
            SimDuration::ZERO,
        )
        .unwrap();
        pump(&mut net, &mut kernel, SimTime::from_millis(70));
        let t = SimTime::from_millis(70);
        kernel.begin_batch(t, pid);
        let fd_d = kernel.sys_accept(&mut net, t, pid, lfd).unwrap();
        kernel.end_batch(t, pid);
        assert_eq!(fd_d, fd_a.min(fd_b), "the lowest free fd is reused");
        assert_slot_bijection(&kernel, "fd reuse");
        assert_eq!(kernel.readiness(pid, fd_d), PollBits::POLLOUT);
        assert_eq!(kernel.eps.len(), 2);
        kernel.close_fd_raw(pid, fd_d).unwrap();
        assert_slot_bijection(&kernel, "raw close");
    }

    #[test]
    fn descriptor_and_endpoint_slot_sizes_are_pinned() {
        const MSG: &str = "a size change here moves server_mem_kib and the mem-probe digests";
        assert_eq!(std::mem::size_of::<Option<File>>(), 24, "{MSG}");
        assert_eq!(std::mem::size_of::<Option<EpSlot>>(), 12, "{MSG}");
    }

    #[test]
    fn fd_limit_produces_emfile() {
        let (mut net, mut kernel, _pid) = setup();
        let pid = kernel.spawn(1, 16);
        kernel.begin_batch(SimTime::ZERO, pid);
        let _l = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
        // Table full (limit 1): next allocation fails.
        assert_eq!(
            kernel.sys_listen(&mut net, pid, 81, 128),
            Err(Errno::EMFILE)
        );
        kernel.end_batch(SimTime::ZERO, pid);
    }

    #[test]
    fn a_parked_watcher_set_reads_as_empty_and_unparks_only_if_kept() {
        let (_net, mut kernel, pid) = setup();
        let fresh = kernel.state_fingerprint();
        for fd in [3, 70, 5000] {
            kernel.watch(pid, fd);
        }
        kernel.claim_watches(pid);
        let watched = kernel.state_fingerprint();
        assert_ne!(watched, fresh);

        // Parking deregisters everything, in the model's eyes.
        assert_eq!(kernel.unwatch_all(pid), 3);
        assert_eq!(kernel.watch_count(pid), 0);
        assert!(!kernel.is_watched(pid, 70));
        assert_eq!(
            kernel.state_fingerprint(),
            fresh,
            "parked must hash as empty"
        );
        let mut seen = Vec::new();
        kernel.for_each_watched(pid, |fd| seen.push(fd));
        assert!(seen.is_empty());
        assert_eq!(kernel.unwatch_all(pid), 0, "nothing is left to deregister");
        // Removing from an empty set changes nothing, parked or not.
        kernel.unwatch(pid, 70);

        // The kept array changes while parked: the bits follow it.
        kernel.keep_watch(pid, 3, false);
        kernel.keep_watch(pid, 9, true);
        assert_eq!(kernel.watch_count(pid), 0);
        assert!(kernel.unpark_watches(pid));
        kernel.for_each_watched(pid, |fd| seen.push(fd));
        assert_eq!(seen, vec![9, 70, 5000]);

        // An unclaimed set is dropped at the unpark.
        let (_net, mut kernel, pid) = setup();
        kernel.watch(pid, 3);
        kernel.unwatch_all(pid);
        assert!(!kernel.unpark_watches(pid));
        assert_eq!(kernel.watch_count(pid), 0);
        assert_eq!(kernel.state_fingerprint(), fresh);
    }

    #[test]
    fn a_write_to_kept_watchers_unkeeps_them() {
        let (_net, mut kernel, pid) = setup();
        let claimed = |kernel: &mut Kernel| {
            kernel.unwatch_all(pid);
            kernel.watch(pid, 3);
            kernel.watch(pid, 4);
            kernel.claim_watches(pid);
        };

        // Another registration path watches one fd on the parked set:
        // the parked bits go, and the set holds only the new watcher.
        claimed(&mut kernel);
        assert_eq!(kernel.unwatch_all(pid), 2);
        kernel.watch(pid, 9);
        assert_eq!(kernel.watch_count(pid), 1);
        assert!(!kernel.is_watched(pid, 3));
        assert_eq!(kernel.unwatch_all(pid), 1);
        assert!(!kernel.unpark_watches(pid), "the kept bits are gone");
        assert_eq!(kernel.watch_count(pid), 0);

        // An unwatch of a live, kept set (a close during a sleep).
        claimed(&mut kernel);
        kernel.unwatch(pid, 3);
        kernel.unwatch_all(pid);
        assert!(!kernel.unpark_watches(pid));

        // The kept array changing while the set is live.
        claimed(&mut kernel);
        kernel.keep_watch(pid, 5, true);
        assert!(!kernel.is_watched(pid, 5), "a live set stays as registered");
        kernel.unwatch_all(pid);
        assert!(!kernel.unpark_watches(pid));

        // An fd on a page no registration has touched: the page is not
        // allocated ahead of the wait that registers the fd.
        claimed(&mut kernel);
        kernel.unwatch_all(pid);
        let bytes = kernel.mem_bytes();
        kernel.keep_watch(pid, 100_000, true);
        assert_eq!(kernel.mem_bytes(), bytes);
        assert!(!kernel.unpark_watches(pid));
    }
}
