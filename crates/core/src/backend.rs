//! A uniform event-backend interface so the same server (`thttpd` in the
//! `servers` crate) can run on stock `poll()` or on `/dev/poll`, exactly
//! like the paper's stock vs. modified thttpd pair (§5.1).

use simcore::fingerprint::Fnv;
use simkernel::{Errno, Fd, Kernel, Pid, PollBits};

use crate::device::{DevPollConfig, DevPollRegistry};
use crate::pollfd::{DvPoll, PollFd};
use crate::select::{sys_select, FdSet, FD_SETSIZE};
use crate::stock::{sys_poll, PollOutcome};

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

/// The user-space interest set of the poll and select backends: stored
/// densely, indexed by fd, so walking it yields ascending fds — a
/// deterministic pollfd array and result order without a per-call sort.
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

/// Stock `poll()`: the interest set lives in user space and the whole
/// array crosses into the kernel on every call. The rebuild reuses one
/// scratch buffer instead of allocating per wait.
#[derive(Debug, Default, Clone)]
pub struct StockPollBackend {
    interest: UserInterest,
    scratch: Vec<PollFd>,
}

impl StockPollBackend {
    /// Creates an empty backend.
    pub fn new() -> StockPollBackend {
        StockPollBackend::default()
    }
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
        _kernel: &mut Kernel,
        _registry: &mut DevPollRegistry,
        _pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno> {
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
        // The application rebuilds its pollfd array each call (§6: "
        // Applications of this type often entirely rebuild their pollfd
        // array each time they invoke poll()") — into a reused scratch
        // buffer, in ascending fd order, so the array is deterministic.
        let mut fds = std::mem::take(&mut self.scratch);
        fds.clear();
        fds.extend(self.interest.iter().map(|(fd, ev)| PollFd::new(fd, ev)));
        if let PollOutcome::Ready(_) = sys_poll(kernel, pid, &mut fds, timeout_ms) {
            out.extend(fds.iter().filter(|f| !f.revents.is_empty()).take(max));
        }
        self.scratch = fds;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn EventBackend> {
        Box::new(self.clone())
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        self.interest.fingerprint_into(h);
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
