//! A uniform event-backend interface so the same server (`thttpd` in the
//! `servers` crate) can run on stock `poll()` or on `/dev/poll`, exactly
//! like the paper's stock vs. modified thttpd pair (§5.1).

use simcore::fingerprint::Fnv;
use simkernel::{Errno, Fd, Kernel, Pid, PollBits};

use crate::audit;
use crate::device::{DevPollConfig, DevPollRegistry};
use crate::pollfd::{DvPoll, PollFd};
use crate::select::{sys_select, FdSet, FD_SETSIZE};
use crate::stock::{poll_call, PollOutcome};

/// An event-notification backend.
pub trait EventBackend {
    /// Human-readable name for reports ("poll", "devpoll", …).
    fn name(&self) -> &'static str;

    /// One-time setup (e.g. opening `/dev/poll`).
    fn init(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
    ) -> Result<(), Errno>;

    /// Declares interest in `events` on `fd` (add or modify).
    fn set_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno>;

    /// Drops interest in `fd`.
    fn remove_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno>;

    /// Appends up to `max` ready descriptors, in ascending fd order, to
    /// `out` — a buffer the caller owns, clears and reuses; an error
    /// appends nothing. When nothing is ready and `timeout_ms` is
    /// nonzero the process should sleep and retry on wakeup. No wait
    /// reads the clock, so none takes `now`.
    fn wait(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        max: usize,
        timeout_ms: i32,
        out: &mut Vec<PollFd>,
    ) -> Result<(), Errno>;

    /// Clones this backend into a fresh box. World snapshotting in
    /// `simcheck explore` forks whole lanes, and the backend's
    /// user-space bookkeeping (interest arrays, pending updates, dpfd)
    /// is part of the world.
    fn clone_box(&self) -> Box<dyn EventBackend>;

    /// Folds the backend's user-space state into `h` — the portion of
    /// the world that lives outside the kernel and the `/dev/poll`
    /// registry. Fields must be fed in a fixed order (see
    /// `simcore::fingerprint`).
    fn fingerprint_into(&self, h: &mut Fnv);
}

impl Clone for Box<dyn EventBackend> {
    fn clone(&self) -> Box<dyn EventBackend> {
        self.clone_box()
    }
}

/// The user-space interest set of the select backend: stored
/// densely, indexed by fd, so walking it yields ascending fds — a
/// deterministic bitmap rebuild without a per-call sort.
#[derive(Debug, Default, Clone)]
struct UserInterest {
    slots: Vec<Option<PollBits>>,
}

impl UserInterest {
    /// Pure user-space bookkeeping: free.
    fn set(&mut self, fd: Fd, events: PollBits) -> Result<(), Errno> {
        let ix = usize::try_from(fd).map_err(|_| Errno::EINVAL)?;
        if ix >= self.slots.len() {
            self.slots.resize(ix + 1, None);
        }
        self.slots[ix] = Some(events);
        Ok(())
    }

    fn remove(&mut self, fd: Fd) {
        if let Some(slot) = usize::try_from(fd)
            .ok()
            .and_then(|ix| self.slots.get_mut(ix))
        {
            *slot = None;
        }
    }

    fn get(&self, fd: Fd) -> PollBits {
        usize::try_from(fd)
            .ok()
            .and_then(|ix| self.slots.get(ix).copied().flatten())
            .unwrap_or(PollBits::EMPTY)
    }

    /// `(fd, events)` in ascending fd order.
    fn iter(&self) -> impl Iterator<Item = (Fd, PollBits)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(ix, ev)| ev.map(|ev| (ix as Fd, ev)))
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        h.write_len(self.iter().count());
        for (fd, ev) in self.iter() {
            h.write_usize(fd as usize);
            h.write_u32(u32::from(ev.0));
        }
    }
}

/// Stock `poll()`: the interest set lives in user space as one pollfd
/// array, and the whole array crosses into the kernel on every call.
///
/// The array is kept across calls, sorted by fd: interest changes
/// binary-search it and insert or remove in place. Every wait is
/// charged for the whole array, exactly as [`crate::sys_poll`] charges
/// it (§6: such applications "often entirely rebuild their pollfd array
/// each time they invoke poll()").
///
/// The host evaluates less. The backend keeps a candidate set: entries
/// whose interest was set or changed, entries the kernel hinted
/// ([`Kernel::take_poll_hints`]: their poll bits may have risen),
/// entries an early stop left unevaluated, and entries that were ready
/// at the last wait, which are re-checked every call because readiness
/// falls without an event. Any other entry was not ready when last
/// evaluated and has gained no bit since, so it is still not ready. A
/// wait evaluates only the candidates, in ascending fd order, and stops
/// at `max` ready. It returns what `sys_poll` over the same array
/// would: its first `max` ready entries.
///
/// It registers less, too. Each call deregisters every wait-queue entry
/// ([`Kernel::unwatch_all`] parks them in O(1)), and a call that would
/// block registers the whole array again. The backend claims the
/// entries it registers ([`Kernel::claim_watches`]); while they are
/// parked, each fd its array gains or loses is mirrored in them
/// ([`Kernel::keep_watch`]). A close leaves a parked entry alone, as a
/// full registration would register the closed fd again while it is in
/// the array. So a would-block only unparks them
/// ([`Kernel::unpark_watches`]). It registers in full when they are not
/// kept: on the first wait, after the array changed while they were
/// live, and after any other write to the process's watcher set
/// (`sys_poll`, `select()`, `/dev/poll`, a close during a sleep). The
/// kernel keeps one array's entries per process, so a process polls
/// through one `StockPollBackend`. A checked registry (every debug
/// build) verifies results and registrations after every wait against
/// a full scan ([`crate::audit::check_stock_poll`]).
#[derive(Debug, Default, Clone)]
pub struct StockPollBackend {
    fds: Vec<PollFd>,
    /// Fds the next wait evaluates (see the type's doc). An fd no
    /// longer in `fds` leaves at the next wait.
    candidates: FdBitmap,
    /// The kernel's hint list is swapped in here and folded into
    /// `candidates` (reused; no per-wait allocation).
    hints: Vec<Fd>,
}

impl StockPollBackend {
    /// Creates an empty backend.
    pub fn new() -> StockPollBackend {
        StockPollBackend::default()
    }

    /// Folds the kernel's hints into the candidate set, or makes every
    /// entry a candidate when the hints do not cover every change (the
    /// first wait, or an overflowed hint list).
    fn take_hints(&mut self, kernel: &mut Kernel, pid: Pid) {
        if kernel.take_poll_hints(pid, &mut self.hints) {
            for &fd in &self.hints {
                // A hint past every fd of the array has no entry to mark.
                self.candidates.mark_existing(fd);
            }
        } else {
            for f in &self.fds {
                self.candidates.insert(f.fd);
            }
        }
        self.hints.clear();
    }
}

/// A set of descriptors as a dense bitmap indexed by fd: marking one is
/// a bit, and the wait walks the set in ascending fd order a word at a
/// time, so the cost follows the set bits, not the fds between them.
#[derive(Debug, Default, Clone)]
struct FdBitmap {
    words: Vec<u64>,
}

impl FdBitmap {
    /// Adds `fd` (non-negative), growing the bitmap to reach it.
    fn insert(&mut self, fd: Fd) {
        let ix = fd as usize;
        if ix / 64 >= self.words.len() {
            self.words.resize(ix / 64 + 1, 0);
        }
        self.words[ix / 64] |= 1 << (ix % 64);
    }

    /// Adds `fd` if the bitmap already reaches it: every fd of the
    /// array does, since [`FdBitmap::insert`] marked it once.
    fn mark_existing(&mut self, fd: Fd) {
        let Ok(ix) = usize::try_from(fd) else { return };
        if let Some(w) = self.words.get_mut(ix / 64) {
            *w |= 1 << (ix % 64);
        }
    }

    fn contains(&self, fd: Fd) -> bool {
        usize::try_from(fd)
            .ok()
            .and_then(|ix| self.words.get(ix / 64).map(|w| w >> (ix % 64) & 1 == 1))
            .unwrap_or(false)
    }
}

/// Leaves exactly the fds of `fds` registered on their wait queues, at
/// a wait that would block: unparks the kept registrations, or, if the
/// kernel no longer keeps them, registers and claims every fd.
// #[hot_path] — simcheck bans per-call allocation in this function
fn reregister(kernel: &mut Kernel, pid: Pid, fds: &[PollFd]) {
    if !kernel.unpark_watches(pid) {
        for f in fds {
            kernel.watch(pid, f.fd);
        }
        kernel.claim_watches(pid);
    }
}

/// Evaluates `candidates` in ascending fd order against `fds`, appending
/// up to `max` ready entries to `out`, and stops once it has found
/// `max` ready (at least one, so the caller learns whether anything is
/// ready even when `max` is 0). Returns how many it found ready.
///
/// A candidate found not ready, or no longer in `fds`, leaves the set;
/// one found ready stays (it must be re-checked next time), and so does
/// every candidate the early stop left unevaluated.
// #[hot_path] — simcheck bans per-call allocation in this function
fn poll_candidates(
    kernel: &Kernel,
    pid: Pid,
    fds: &[PollFd],
    candidates: &mut FdBitmap,
    max: usize,
    out: &mut Vec<PollFd>,
) -> usize {
    let stop = max.max(1);
    let mut found = 0usize;
    for (w, word) in candidates.words.iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let fd = (w * 64 + bit) as Fd;
            let ready = fds
                .binary_search_by_key(&fd, |f| f.fd)
                .ok()
                .map(|ix| fds[ix])
                .map(|f| {
                    let revents =
                        kernel.readiness(pid, fd) & (f.events | PollBits::always_reported());
                    PollFd { revents, ..f }
                })
                .filter(|f| !f.revents.is_empty());
            let Some(f) = ready else {
                *word &= !(1 << bit);
                continue;
            };
            found += 1;
            if found <= max {
                out.push(f);
            }
            if found == stop {
                return found;
            }
        }
    }
    found
}

impl EventBackend for StockPollBackend {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn init(
        &mut self,
        _kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        _pid: Pid,
    ) -> Result<(), Errno> {
        Ok(())
    }

    fn set_interest(
        &mut self,
        kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno> {
        // Pure user-space bookkeeping: free.
        if fd < 0 {
            return Err(Errno::EINVAL);
        }
        match self.fds.binary_search_by_key(&fd, |f| f.fd) {
            Ok(ix) => self.fds[ix].events = events,
            Err(ix) => {
                self.fds.insert(ix, PollFd::new(fd, events));
                kernel.keep_watch(pid, fd, true);
            }
        }
        self.candidates.insert(fd);
        Ok(())
    }

    fn remove_interest(
        &mut self,
        kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        if let Ok(ix) = self.fds.binary_search_by_key(&fd, |f| f.fd) {
            self.fds.remove(ix);
            kernel.keep_watch(pid, fd, false);
        }
        Ok(())
    }

    fn wait(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        max: usize,
        timeout_ms: i32,
        out: &mut Vec<PollFd>,
    ) -> Result<(), Errno> {
        self.take_hints(kernel, pid);
        let base = out.len();
        let candidates = &mut self.candidates;
        let outcome = poll_call(
            kernel,
            pid,
            &mut self.fds,
            timeout_ms,
            |kernel, fds| poll_candidates(kernel, pid, fds, candidates, max, out),
            |kernel, fds| reregister(kernel, pid, fds),
        );
        registry.run_audit(|| {
            let candidates = &self.candidates;
            audit::check_stock_poll(
                kernel,
                pid,
                &self.fds,
                |fd| candidates.contains(fd),
                &out[base..],
                max,
                outcome == PollOutcome::WouldBlock,
            )
        });
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn EventBackend> {
        Box::new(self.clone())
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        // The bytes `UserInterest::fingerprint_into` writes for the same
        // interest: the count, then each fd and its events, ascending.
        // The candidate set is bookkeeping, not state: a wait returns
        // the same entries whatever it holds.
        h.write_len(self.fds.len());
        for f in &self.fds {
            h.write_usize(f.fd as usize);
            h.write_u32(u32::from(f.events.0));
        }
    }
}

/// `select()`: the pre-poll baseline. Interest crosses the boundary as
/// three bitmaps; the kernel walks every slot up to `maxfd`; the result
/// overwrites the input, so both sets are rebuilt before every call; and
/// nothing past [`FD_SETSIZE`] can be watched at all.
#[derive(Debug, Default, Clone)]
pub struct SelectBackend {
    interest: UserInterest,
}

impl SelectBackend {
    /// Creates an empty backend.
    pub fn new() -> SelectBackend {
        SelectBackend::default()
    }
}

impl EventBackend for SelectBackend {
    fn name(&self) -> &'static str {
        "select"
    }

    fn init(
        &mut self,
        _kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        _pid: Pid,
    ) -> Result<(), Errno> {
        Ok(())
    }

    fn set_interest(
        &mut self,
        _kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        _pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno> {
        if fd < 0 || fd as usize >= FD_SETSIZE {
            return Err(Errno::EINVAL); // Beyond the bitmap: unwatchable.
        }
        self.interest.set(fd, events)
    }

    fn remove_interest(
        &mut self,
        _kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        _pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        self.interest.remove(fd);
        Ok(())
    }

    fn wait(
        &mut self,
        kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        pid: Pid,
        max: usize,
        timeout_ms: i32,
        out: &mut Vec<PollFd>,
    ) -> Result<(), Errno> {
        // Rebuild both bitmaps — select's API overwrote last call's.
        let mut read_set = FdSet::new();
        let mut write_set = FdSet::new();
        for (fd, ev) in self.interest.iter() {
            if ev.intersects(PollBits::POLLIN) {
                read_set.set(fd);
            }
            if ev.intersects(PollBits::POLLOUT) {
                write_set.set(fd);
            }
        }
        if sys_select(kernel, pid, &mut read_set, &mut write_set, timeout_ms)
            == PollOutcome::WouldBlock
        {
            return Ok(());
        }
        // One ascending walk over both result bitmaps.
        let ready = (0..FD_SETSIZE as Fd).filter_map(|fd| {
            let mut revents = PollBits::EMPTY;
            if read_set.is_set(fd) {
                revents |= PollBits::POLLIN;
            }
            if write_set.is_set(fd) {
                revents |= PollBits::POLLOUT;
            }
            (!revents.is_empty()).then(|| PollFd {
                fd,
                events: self.interest.get(fd),
                revents,
            })
        });
        out.extend(ready.take(max));
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn EventBackend> {
        Box::new(self.clone())
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        self.interest.fingerprint_into(h);
    }
}

/// Result-area slots a [`DevPollBackend`] maps when mmap is on.
const MMAP_SLOTS: usize = 512;

/// `/dev/poll`: the interest set lives in the kernel; updates are
/// incremental writes and waiting is `ioctl(DP_POLL)`.
#[derive(Debug, Clone)]
pub struct DevPollBackend {
    config: DevPollConfig,
    /// Use the shared mmap result area (§3.3) of `MMAP_SLOTS` slots.
    use_mmap: bool,
    /// Buffer interest updates in user space and apply them inside the
    /// next wait using the combined write+ioctl operation (§6 future
    /// work).
    combined_updates: bool,
    pending: Vec<PollFd>,
    dpfd: Option<Fd>,
}

impl DevPollBackend {
    /// A backend with the paper's full feature set (hints + mmap).
    pub fn new() -> DevPollBackend {
        DevPollBackend::with_config(DevPollConfig::default(), true, false)
    }

    /// Full control over the feature switches (for ablations).
    pub fn with_config(
        config: DevPollConfig,
        use_mmap: bool,
        combined_updates: bool,
    ) -> DevPollBackend {
        DevPollBackend {
            config,
            use_mmap,
            combined_updates,
            pending: Vec::new(),
            dpfd: None,
        }
    }

    fn dpfd(&self) -> Result<Fd, Errno> {
        self.dpfd.ok_or(Errno::EBADF)
    }
}

impl Default for DevPollBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBackend for DevPollBackend {
    fn name(&self) -> &'static str {
        // Encode the ablation switches so server names distinguish
        // configurations in logs and reports.
        match (self.config.hints, self.use_mmap, self.combined_updates) {
            (true, true, false) => "devpoll",
            (false, true, false) => "devpoll-nohints",
            (true, false, false) => "devpoll-nommap",
            (true, true, true) => "devpoll-combined",
            (false, false, false) => "devpoll-nohints-nommap",
            _ => "devpoll-custom",
        }
    }

    fn init(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
    ) -> Result<(), Errno> {
        let dpfd = registry.open(kernel, pid, self.config)?;
        if self.use_mmap {
            registry.dp_alloc_mmap(kernel, pid, dpfd, MMAP_SLOTS)?;
        }
        self.dpfd = Some(dpfd);
        Ok(())
    }

    fn set_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno> {
        let dpfd = self.dpfd()?;
        if self.combined_updates {
            self.pending.push(PollFd::new(fd, events));
            return Ok(());
        }
        registry.write(kernel, pid, dpfd, &[PollFd::new(fd, events)])?;
        Ok(())
    }

    fn remove_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        let dpfd = self.dpfd()?;
        if self.combined_updates {
            self.pending.push(PollFd::remove(fd));
            return Ok(());
        }
        registry.write(kernel, pid, dpfd, &[PollFd::remove(fd)])?;
        Ok(())
    }

    fn wait(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        pid: Pid,
        max: usize,
        timeout_ms: i32,
        out: &mut Vec<PollFd>,
    ) -> Result<(), Errno> {
        let dpfd = self.dpfd()?;
        if self.combined_updates && !self.pending.is_empty() {
            let updates = std::mem::take(&mut self.pending);
            registry.write_combined(kernel, pid, dpfd, &updates)?;
        }
        let args = if self.use_mmap {
            DvPoll::into_mmap(max, timeout_ms)
        } else {
            DvPoll::into_user_buffer(max, timeout_ms)
        };
        registry.dp_poll_into(kernel, pid, dpfd, args, out)?;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn EventBackend> {
        Box::new(self.clone())
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        // Kernel-side interest is covered by the registry fingerprint;
        // this is only the user-space residue.
        h.write_bool(self.config.hints);
        h.write_bool(self.config.or_semantics);
        h.write_bool(self.use_mmap);
        h.write_bool(self.combined_updates);
        h.write_len(self.pending.len());
        for p in &self.pending {
            h.write_i64(i64::from(p.fd));
            h.write_u32(u32::from(p.events.0));
        }
        match self.dpfd {
            None => h.write_u8(0),
            Some(fd) => {
                h.write_u8(1);
                h.write_i64(i64::from(fd));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::{SimDuration, SimTime};
    use simkernel::CostModel;
    use simnet::{ConnId, EndpointId, HostId, LinkConfig, Network, Side, SockAddr, TcpConfig};

    const CLIENT: HostId = HostId(0);
    const SERVER: HostId = HostId(1);

    struct World {
        net: Network,
        kernel: Kernel,
        registry: DevPollRegistry,
        pid: Pid,
        /// `(server fd, connection)` per accepted connection.
        conns: Vec<(Fd, ConnId)>,
        now: SimTime,
    }

    impl World {
        /// A server with `n` accepted, idle (writable, not readable)
        /// connections.
        fn new(n: usize) -> World {
            let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
            let mut kernel = Kernel::new(SERVER, CostModel::k6_2_400mhz());
            let pid = kernel.spawn_default();
            kernel.begin_batch(SimTime::ZERO, pid);
            let lfd = kernel.sys_listen(&mut net, pid, 80, 128).unwrap();
            kernel.end_batch(SimTime::ZERO, pid);
            let ids: Vec<ConnId> = (0..n)
                .map(|_| {
                    net.connect(
                        SimTime::ZERO,
                        CLIENT,
                        SockAddr::new(SERVER, 80),
                        SimDuration::ZERO,
                    )
                    .unwrap()
                })
                .collect();
            let mut w = World {
                net,
                kernel,
                registry: DevPollRegistry::new(),
                pid,
                conns: Vec::new(),
                now: SimTime::ZERO,
            };
            w.pump(SimTime::from_millis(10));
            w.kernel.begin_batch(w.now, pid);
            for conn in ids {
                let fd = w.kernel.sys_accept(&mut w.net, w.now, pid, lfd).unwrap();
                w.conns.push((fd, conn));
            }
            w.kernel.end_batch(w.now, pid);
            w
        }

        fn pump(&mut self, until: SimTime) {
            crate::settle(
                &mut self.net,
                &mut self.kernel,
                &mut self.registry,
                self.now,
                until,
                |_, _, _, _, _| {},
            );
            self.now = until;
        }

        /// The client of connection `i` sends `data`.
        fn client_send(&mut self, i: usize, data: &[u8]) {
            let ep = EndpointId::new(self.conns[i].1, Side::Client);
            self.net.send(self.now, ep, data).unwrap();
            self.pump(self.now + SimDuration::from_millis(10));
        }

        fn set(&mut self, b: &mut StockPollBackend, fd: Fd, events: PollBits) {
            b.set_interest(&mut self.kernel, &mut self.registry, self.pid, fd, events)
                .unwrap();
        }

        fn remove(&mut self, b: &mut StockPollBackend, fd: Fd) {
            b.remove_interest(&mut self.kernel, &mut self.registry, self.pid, fd)
                .unwrap();
        }

        /// One non-blocking wait: `(fd, revents)` in result order.
        fn wait(&mut self, b: &mut StockPollBackend) -> Vec<(Fd, PollBits)> {
            self.wait_with(b, 0)
        }

        /// One wait with `timeout_ms`: `(fd, revents)` in result order.
        /// A wait that would block leaves its registrations in place.
        fn wait_with(&mut self, b: &mut StockPollBackend, timeout_ms: i32) -> Vec<(Fd, PollBits)> {
            let mut out = Vec::new();
            self.kernel.begin_batch(self.now, self.pid);
            b.wait(
                &mut self.kernel,
                &mut self.registry,
                self.pid,
                usize::MAX,
                timeout_ms,
                &mut out,
            )
            .unwrap();
            self.kernel.end_batch(self.now, self.pid);
            self.pump(self.now + SimDuration::from_millis(1));
            out.iter().map(|f| (f.fd, f.revents)).collect()
        }
    }

    #[test]
    fn stock_poll_does_not_report_an_fd_that_went_idle() {
        let mut w = World::new(2);
        let mut b = StockPollBackend::new();
        let (fd0, fd1) = (w.conns[0].0, w.conns[1].0);
        w.set(&mut b, fd0, PollBits::POLLIN);
        w.set(&mut b, fd1, PollBits::POLLIN);
        assert_eq!(w.wait(&mut b), vec![]);

        w.client_send(1, b"GET /");
        assert_eq!(w.wait(&mut b), vec![(fd1, PollBits::POLLIN)]);

        w.kernel.begin_batch(w.now, w.pid);
        w.kernel.sys_read(&mut w.net, w.pid, fd1, 4096).unwrap();
        w.kernel.end_batch(w.now, w.pid);
        assert_eq!(w.wait(&mut b), vec![], "drained fd reported again");
    }

    #[test]
    fn stock_poll_result_follows_changed_interest() {
        let mut w = World::new(1);
        let mut b = StockPollBackend::new();
        let fd = w.conns[0].0;
        w.set(&mut b, fd, PollBits::POLLIN);
        assert_eq!(w.wait(&mut b), vec![]);
        w.set(&mut b, fd, PollBits::POLLOUT);
        assert_eq!(w.wait(&mut b), vec![(fd, PollBits::POLLOUT)]);
        w.set(&mut b, fd, PollBits::POLLIN);
        assert_eq!(w.wait(&mut b), vec![]);
    }

    #[test]
    fn stock_poll_reports_in_ascending_fd_order() {
        let mut w = World::new(5);
        let mut b = StockPollBackend::new();
        let mut fds: Vec<Fd> = w.conns.iter().map(|&(fd, _)| fd).collect();
        fds.sort_unstable();
        for &fd in fds.iter().rev() {
            w.set(&mut b, fd, PollBits::POLLOUT);
        }
        let ready = |out: Vec<(Fd, PollBits)>| out.into_iter().map(|(fd, _)| fd).collect();
        let got: Vec<Fd> = ready(w.wait(&mut b));
        assert_eq!(got, fds);

        w.remove(&mut b, fds[2]);
        w.remove(&mut b, fds[0]);
        w.remove(&mut b, fds[0]); // Removing an absent fd is a no-op.
        let got: Vec<Fd> = ready(w.wait(&mut b));
        assert_eq!(got, vec![fds[1], fds[3], fds[4]]);

        w.set(&mut b, fds[2], PollBits::POLLOUT);
        w.set(&mut b, fds[0], PollBits::POLLOUT);
        let got: Vec<Fd> = ready(w.wait(&mut b));
        assert_eq!(got, fds);
    }

    #[test]
    fn stock_poll_blocks_registered_on_exactly_its_array() {
        let mut w = World::new(3);
        let mut b = StockPollBackend::new();
        let fds: Vec<Fd> = w.conns.iter().map(|&(fd, _)| fd).collect();
        let watched = |w: &World| {
            let mut got = Vec::new();
            w.kernel.for_each_watched(w.pid, |fd| got.push(fd));
            got
        };
        w.set(&mut b, fds[0], PollBits::POLLIN);
        w.set(&mut b, fds[1], PollBits::POLLIN);
        assert_eq!(w.wait_with(&mut b, -1), vec![]);
        assert_eq!(watched(&w), vec![fds[0], fds[1]]);

        // Interest moves while the registrations are live, and without
        // a close, which no kernel hint covers.
        w.remove(&mut b, fds[0]);
        w.set(&mut b, fds[2], PollBits::POLLIN);
        assert_eq!(
            watched(&w),
            vec![fds[0], fds[1]],
            "live until the next wait"
        );
        assert_eq!(w.wait_with(&mut b, -1), vec![]);
        assert_eq!(watched(&w), vec![fds[1], fds[2]]);

        // A ready wait leaves nothing registered. Interest then moves
        // while the registrations are parked; the next sleep registers
        // the array as it is then.
        w.client_send(1, b"GET /");
        assert_eq!(w.wait_with(&mut b, -1), vec![(fds[1], PollBits::POLLIN)]);
        assert_eq!(watched(&w), vec![]);
        w.remove(&mut b, fds[2]);
        w.set(&mut b, fds[0], PollBits::POLLIN);
        w.set(&mut b, fds[1], PollBits::POLLOUT);
        w.set(&mut b, fds[1], PollBits::EMPTY);
        assert_eq!(w.wait_with(&mut b, -1), vec![]);
        assert_eq!(watched(&w), vec![fds[0], fds[1]]);
    }

    #[test]
    fn stock_poll_fingerprint_matches_the_user_interest_bytes() {
        let mut w = World::new(0);
        let mut b = StockPollBackend::new();
        let mut reference = UserInterest::default();
        let ops: [(Fd, Option<PollBits>); 7] = [
            (9, Some(PollBits::POLLIN)),
            (3, Some(PollBits::POLLOUT)),
            (5, Some(PollBits::POLLIN | PollBits::POLLOUT)),
            (3, Some(PollBits::POLLIN)),
            (9, None),
            (0, Some(PollBits::EMPTY)),
            (7, None),
        ];
        for (fd, events) in ops {
            match events {
                Some(ev) => {
                    w.set(&mut b, fd, ev);
                    reference.set(fd, ev).unwrap();
                }
                None => {
                    w.remove(&mut b, fd);
                    reference.remove(fd);
                }
            }
            let (mut ours, mut theirs) = (Fnv::new(), Fnv::new());
            b.fingerprint_into(&mut ours);
            reference.fingerprint_into(&mut theirs);
            assert_eq!(ours.finish(), theirs.finish(), "after {fd} {events:?}");
        }
        assert_eq!(
            b.set_interest(&mut w.kernel, &mut w.registry, w.pid, -1, PollBits::POLLIN),
            Err(Errno::EINVAL)
        );
    }
}
