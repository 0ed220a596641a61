//! The `/dev/poll` device (§3): kernel-resident interest sets maintained
//! by `write()`, scanning via `ioctl(DP_POLL)`, driver hints through
//! backmapping lists (§3.2), and the shared `mmap` result area (§3.3).

use std::collections::BTreeMap;

use simcore::probe::Metric;
use simcore::span::Phase;
use simcore::time::{SimDuration, SimTime};
use simkernel::{Errno, Fd, FileKind, Kernel, Pid, PollBits};

use crate::audit;
use crate::interest::InterestTable;
use crate::lockdep::{LockClass, LockGraph};
use crate::pollfd::{DvPoll, PollFd};
use crate::stock::PollOutcome;

/// Feature switches of one `/dev/poll` instance (the paper's design
/// choices; flipping them off gives the ablation baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevPollConfig {
    /// §3.2: device-driver hints via backmapping lists. When off, every
    /// `DP_POLL` scan invokes the driver poll callback for every
    /// interest.
    pub hints: bool,
    /// Solaris OR-semantics for interest updates (default off: the
    /// events field *replaces* the previous interest, §3.1).
    pub or_semantics: bool,
    /// §3.2: per-socket backmap locks instead of one global rwlock
    /// (costs 8 bytes per socket, halves lock traffic cost here).
    pub per_socket_locks: bool,
}

impl Default for DevPollConfig {
    fn default() -> DevPollConfig {
        DevPollConfig {
            hints: true,
            or_semantics: false,
            per_socket_locks: false,
        }
    }
}

/// One open `/dev/poll` instance.
#[derive(Debug, Clone)]
pub struct DevPollDevice {
    owner: Pid,
    config: DevPollConfig,
    interest: InterestTable,
    /// Result slots allocated via `ioctl(DP_ALLOC)` and mapped.
    mmap_slots: Option<usize>,
}

impl DevPollDevice {
    /// The interest set (for inspection and tests).
    pub fn interest(&self) -> &InterestTable {
        &self.interest
    }

    /// Whether a result mapping is active.
    pub fn has_mmap(&self) -> bool {
        self.mmap_slots.is_some()
    }

    /// Heap bytes held by this device's interest table.
    pub fn mem_bytes(&self) -> usize {
        self.interest.mem_bytes()
    }
}

/// All `/dev/poll` instances of a simulated machine.
///
/// "A process may open /dev/poll more than once to build multiple
/// independent interest sets" — each `open` yields a distinct device.
#[derive(Debug, Clone)]
pub struct DevPollRegistry {
    /// Ordered by handle so multi-device walks ([`Self::on_fd_event`])
    /// are deterministic.
    devices: BTreeMap<u64, DevPollDevice>,
    next: u64,
    /// Hidden fault-injection hook: when set, `DP_POLL` serves
    /// cached-"ready" results *without* revalidating them — the §3.2 bug
    /// `simcheck explore`'s reference model exists to catch. Test-only.
    #[doc(hidden)]
    testhook_skip_revalidation: bool,
    /// Hidden fault-injection hook: on `POLLREMOVE`, drop the interest
    /// from the table but *skip* the backmap/watcher purge — the §3.1
    /// dual-purge bug. Test-only.
    #[doc(hidden)]
    testhook_skip_backmap_purge: bool,
    /// Checked mode: every operation runs the invariant auditor
    /// ([`crate::audit`]) and records its lock acquisitions. On in debug
    /// builds and in simcheck, never in release figures.
    audit: bool,
    /// Invariant checks the auditor has performed.
    audit_checks: u64,
    /// Lock-order recorder (checked mode): every simulated rwlock /
    /// per-socket acquisition lands here so inverted orders are caught.
    lockdep: LockGraph,
    /// Scan scratch (reused across `dp_poll` calls; no per-scan allocation).
    scan_scratch: Vec<(Fd, PollBits)>,
    /// `write` scratch: fds to (un)watch this call.
    watch_scratch: Vec<Fd>,
    unwatch_scratch: Vec<Fd>,
}

impl Default for DevPollRegistry {
    fn default() -> DevPollRegistry {
        DevPollRegistry::new()
    }
}

impl DevPollRegistry {
    /// Creates an empty registry, checked in debug builds only.
    pub fn new() -> DevPollRegistry {
        DevPollRegistry::with_audit(cfg!(debug_assertions))
    }

    /// Creates an empty registry that is checked in every build profile
    /// (the simcheck lanes).
    pub fn audited() -> DevPollRegistry {
        DevPollRegistry::with_audit(true)
    }

    /// Creates an empty registry, checked or not in every build profile
    /// (an unchecked one lets a debug-build test measure the model's
    /// own path without the auditor's).
    pub fn with_audit(audit: bool) -> DevPollRegistry {
        DevPollRegistry {
            devices: BTreeMap::new(),
            next: 0,
            testhook_skip_revalidation: false,
            testhook_skip_backmap_purge: false,
            audit,
            audit_checks: 0,
            lockdep: LockGraph::new(),
            scan_scratch: Vec::new(),
            watch_scratch: Vec::new(),
            unwatch_scratch: Vec::new(),
        }
    }

    /// `open("/dev/poll")`: creates an instance and a descriptor for it.
    pub fn open(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        config: DevPollConfig,
    ) -> Result<Fd, Errno> {
        let cost = *kernel.cost_model();
        kernel.charge_app(pid, cost.syscall);
        let handle = self.next;
        self.next += 1;
        // Allocate the fd first so a full table does not leak a device.
        let fd = kernel_alloc_devpoll_fd(kernel, pid, handle)?;
        self.devices.insert(
            handle,
            DevPollDevice {
                owner: pid,
                config,
                interest: InterestTable::new(),
                mmap_slots: None,
            },
        );
        Ok(fd)
    }

    /// Fault injection for `simcheck explore`: serve cached-"ready"
    /// results stale, skipping the mandatory revalidation. Never enable
    /// outside a test.
    #[doc(hidden)]
    pub fn testhook_skip_revalidation(&mut self, on: bool) {
        self.testhook_skip_revalidation = on;
    }

    /// Fault injection for `simcheck explore`: `POLLREMOVE` removes the
    /// interest-table entry but leaves the watcher/backmap registration
    /// behind. Never enable outside a test.
    #[doc(hidden)]
    pub fn testhook_skip_backmap_purge(&mut self, on: bool) {
        self.testhook_skip_backmap_purge = on;
    }

    /// Folds every device's kernel-side state — interest entries with
    /// their hint flags and cached results, mmap allocation, config —
    /// into one FNV digest for world deduplication in `simcheck
    /// explore`. Diagnostic counters are excluded.
    pub fn state_fingerprint(&self) -> u64 {
        use simcore::fingerprint::Fnv;
        let mut h = Fnv::new();
        h.write_u64(self.next);
        h.write_bool(self.testhook_skip_revalidation);
        h.write_bool(self.testhook_skip_backmap_purge);
        h.write_len(self.devices.len());
        for (handle, dev) in &self.devices {
            h.write_u64(*handle);
            h.write_u64(u64::from(dev.owner));
            h.write_bool(dev.config.hints);
            h.write_bool(dev.config.or_semantics);
            h.write_bool(dev.config.per_socket_locks);
            h.write_u64(dev.mmap_slots.map_or(u64::MAX, |s| s as u64));
            h.write_len(dev.interest.len());
            for e in dev.interest.iter() {
                h.write_i64(i64::from(e.fd));
                h.write_u32(u32::from(e.events.0));
                h.write_bool(e.hinted);
                h.write_u32(u32::from(e.cached.0));
            }
        }
        h.finish()
    }

    /// Heap bytes held by every device's interest table plus the
    /// registry's reusable scratch buffers — the `/dev/poll` share of
    /// the per-connection memory lane.
    pub fn mem_bytes(&self) -> usize {
        let scratch = (self.scan_scratch.capacity() * std::mem::size_of::<(Fd, PollBits)>())
            + (self.watch_scratch.capacity() + self.unwatch_scratch.capacity())
                * std::mem::size_of::<Fd>();
        self.devices
            .values()
            .map(DevPollDevice::mem_bytes)
            .sum::<usize>()
            + scratch
    }

    /// The lock-order graph recorded so far (empty unless checked).
    pub fn lockdep(&self) -> &LockGraph {
        &self.lockdep
    }

    /// Invariant checks the auditor has performed (0 unless checked) —
    /// the proof that a checked run's auditor was live.
    pub fn audit_checks(&self) -> u64 {
        self.audit_checks
    }

    /// Runs `check` (an [`audit`] function returning its check count)
    /// when this registry is checked, and counts its checks.
    pub(crate) fn run_audit(&mut self, check: impl FnOnce() -> u64) {
        if self.audit {
            self.audit_checks += check();
        }
    }

    /// Records the nested acquisition of `order`, then its release
    /// innermost first, in the lock-order graph (checked mode only).
    fn record_locks(&mut self, order: &[LockClass]) {
        if !self.audit {
            return;
        }
        for &class in order {
            self.lockdep.acquire(class);
        }
        for &class in order.iter().rev() {
            self.lockdep.release(class);
        }
    }

    /// The device handle behind a descriptor (no ownership check).
    fn handle_of(kernel: &Kernel, pid: Pid, dpfd: Fd) -> Result<u64, Errno> {
        match kernel.process(pid).fds.get(dpfd)?.kind {
            FileKind::DevPoll(h) => Ok(h),
            _ => Err(Errno::EINVAL),
        }
    }

    fn resolve(
        &mut self,
        kernel: &Kernel,
        pid: Pid,
        dpfd: Fd,
    ) -> Result<&mut DevPollDevice, Errno> {
        let handle = Self::handle_of(kernel, pid, dpfd)?;
        let dev = self.devices.get_mut(&handle).ok_or(Errno::EBADF)?;
        if dev.owner != pid {
            return Err(Errno::EBADF);
        }
        Ok(dev)
    }

    /// Read-only device lookup (tests, benches).
    pub fn device(&self, kernel: &Kernel, pid: Pid, dpfd: Fd) -> Result<&DevPollDevice, Errno> {
        let handle = match kernel.process(pid).fds.get(dpfd)?.kind {
            FileKind::DevPoll(h) => h,
            _ => return Err(Errno::EINVAL),
        };
        self.devices.get(&handle).ok_or(Errno::EBADF)
    }

    /// `write(dpfd, pollfds)`: adds, modifies and removes interests
    /// (§3.1). `POLLREMOVE` in `events` removes; otherwise the entry
    /// replaces (or ORs into, in Solaris mode) the existing interest.
    ///
    /// Returns the number of entries processed.
    pub fn write(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        entries: &[PollFd],
    ) -> Result<usize, Errno> {
        self.write_inner(kernel, pid, dpfd, entries, true)
    }

    fn write_inner(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        entries: &[PollFd],
        charge_syscall: bool,
    ) -> Result<usize, Errno> {
        let cost = *kernel.cost_model();
        let spans_on = kernel.spans().enabled();
        let t_call = kernel.batch_acc(pid);
        if charge_syscall {
            kernel.charge_app(pid, cost.syscall);
        }
        kernel.charge_app(
            pid,
            cost.copy_per_byte * (entries.len() * PollFd::BYTES) as u64,
        );
        // Interest-set modification takes the backmap write lock.
        let t_backmap = kernel.batch_acc(pid);
        kernel.charge_app(pid, cost.backmap_wlock);
        let t_table = kernel.batch_acc(pid);
        self.record_locks(&[LockClass::Backmap, LockClass::InterestTable]);

        let mut to_watch = std::mem::take(&mut self.watch_scratch);
        to_watch.clear();
        let mut to_unwatch = std::mem::take(&mut self.unwatch_scratch);
        to_unwatch.clear();
        let skip_purge = self.testhook_skip_backmap_purge;
        let dev = self.resolve(kernel, pid, dpfd)?;
        let or_semantics = dev.config.or_semantics;
        let prev_buckets = dev.interest.bucket_count();
        let grows_before = dev.interest.grow_count();
        for e in entries {
            if e.events.contains(PollBits::POLLREMOVE) {
                // Under the fault hook the watcher purge is skipped, so
                // the fd never lands in `to_unwatch` (which also keeps
                // the runtime auditor blind to the seeded bug —
                // `explore` must find it from the outside).
                if dev.interest.remove(e.fd) && !skip_purge {
                    to_unwatch.push(e.fd);
                }
            } else {
                dev.interest.set(e.fd, e.events, or_semantics);
                to_watch.push(e.fd);
            }
        }
        let grows = dev.interest.grow_count() - grows_before;
        let (len, buckets, max_bucket) = (
            dev.interest.len() as u64,
            dev.interest.bucket_count() as u64,
            dev.interest.max_bucket_len() as u64,
        );
        kernel.charge_app(pid, cost.devpoll_hash_op * entries.len() as u64);
        let probe = kernel.probe_mut();
        probe.add(Metric::DevpollInterestOps, entries.len() as u64);
        probe.add(Metric::DevpollInterestLookups, entries.len() as u64);
        probe.add(Metric::DevpollInterestResizes, u64::from(grows));
        probe.gauge_set(Metric::DevpollInterestLen, len);
        probe.gauge_set(Metric::DevpollInterestBuckets, buckets);
        probe.gauge_set(Metric::DevpollInterestMaxBucket, max_bucket);
        if spans_on {
            // Hold spans for the locked region above (charges between the
            // acquisition snapshots and here), Backmap enclosing
            // InterestTable just as lockdep records them.
            kernel.span_hold(pid, Phase::LockInterestTable, t_table);
            kernel.span_hold(pid, Phase::LockBackmap, t_backmap);
        }
        for &fd in &to_watch {
            kernel.watch(pid, fd);
        }
        for &fd in &to_unwatch {
            kernel.unwatch(pid, fd);
        }
        if self.audit {
            let dev = self.resolve(kernel, pid, dpfd)?;
            let checks = audit::check_write(
                kernel,
                pid,
                dev,
                entries,
                &to_unwatch,
                or_semantics,
                prev_buckets,
            );
            self.audit_checks += checks;
        }
        self.watch_scratch = to_watch;
        self.unwatch_scratch = to_unwatch;
        if spans_on {
            // The whole interest update — copy-in, table edit, watcher
            // (de)registration — is interest-registration work.
            kernel.span_leaf(pid, Phase::InterestReg, t_call);
        }
        Ok(entries.len())
    }

    /// The combined update+poll operation proposed in §6: interest
    /// updates applied as part of the subsequent `DP_POLL` ioctl, saving
    /// the separate `write()` syscall's entry/exit overhead.
    pub fn write_combined(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        entries: &[PollFd],
    ) -> Result<usize, Errno> {
        // Identical to `write` except the updates ride on the following
        // ioctl's syscall, so no separate entry/exit is charged.
        self.write_inner(kernel, pid, dpfd, entries, false)
    }

    /// `ioctl(dpfd, DP_ALLOC, n)` followed by `mmap()`: allocates and
    /// maps a shared result area of `n` slots (§3.3).
    pub fn dp_alloc_mmap(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        slots: usize,
    ) -> Result<(), Errno> {
        let cost = *kernel.cost_model();
        // DP_ALLOC ioctl + the mmap call.
        kernel.charge_app(pid, cost.syscall * 2);
        if slots == 0 {
            return Err(Errno::EINVAL);
        }
        let dev = self.resolve(kernel, pid, dpfd)?;
        dev.mmap_slots = Some(slots);
        Ok(())
    }

    /// `munmap()`: tears the result mapping down.
    pub fn munmap(&mut self, kernel: &mut Kernel, pid: Pid, dpfd: Fd) -> Result<(), Errno> {
        let cost = *kernel.cost_model();
        kernel.charge_app(pid, cost.syscall);
        let dev = self.resolve(kernel, pid, dpfd)?;
        dev.mmap_slots = None;
        Ok(())
    }

    /// `ioctl(dpfd, DP_POLL, dvpoll)`: scans the interest set (§3.1-3.3)
    /// and returns the outcome with the ready descriptors.
    pub fn dp_poll(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        args: DvPoll,
    ) -> Result<(PollOutcome, Vec<PollFd>), Errno> {
        let mut results = Vec::new();
        let outcome = self.dp_poll_into(kernel, pid, dpfd, args, &mut results)?;
        Ok((outcome, results))
    }

    /// [`Self::dp_poll`] appending the ready descriptors to `out`, a
    /// buffer the caller owns and reuses.
    ///
    /// With hints enabled only descriptors whose status may have changed
    /// — hinted ones, plus cached-ready ones which "\[have\] to be
    /// reevaluated each time" — pay a driver poll callback. Results are
    /// written to the mmap area when `dvpoll.null_dp_fds` is set.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn dp_poll_into(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        dpfd: Fd,
        args: DvPoll,
        out: &mut Vec<PollFd>,
    ) -> Result<PollOutcome, Errno> {
        let cost = *kernel.cost_model();
        let spans_on = kernel.spans().enabled();
        let t_scan = kernel.batch_acc(pid);
        kernel.charge_app(pid, cost.syscall + cost.devpoll_base);
        if args.null_dp_fds && self.device(kernel, pid, dpfd)?.mmap_slots.is_none() {
            return Err(Errno::EINVAL);
        }
        let skip_reval = self.testhook_skip_revalidation;
        let checked = self.audit;
        // The scan holds the backmap read lock, consults the interest
        // table and invokes driver (socket) poll callbacks — in that
        // order, which the checked mode's lockdep graph records.
        self.record_locks(&[
            LockClass::Backmap,
            LockClass::InterestTable,
            LockClass::Socket,
        ]);

        // Gather readiness into the reused scan scratch buffer — the
        // kernel is the "driver" here, a disjoint borrow, so the device
        // stays resolved across the whole scan (no per-descriptor
        // re-resolution, no per-scan candidate allocation).
        let handle = Self::handle_of(kernel, pid, dpfd)?;
        self.resolve(kernel, pid, dpfd)?;
        let mut candidates = std::mem::take(&mut self.scan_scratch);
        candidates.clear();
        let base = out.len();
        let dev = self
            .devices
            .get_mut(&handle)
            .expect("invariant: resolved above");
        let hints = dev.config.hints;
        let per_socket_locks = dev.config.per_socket_locks;
        // Cached-ready entries with no fresh hint re-enter the scan only
        // to be revalidated ("[they have] to be reevaluated each time").
        let mut revalidated: u64 = 0;
        if hints {
            // Incremental scan: the table's dirty list holds exactly the
            // entries with a pending hint or a cached ready result, so
            // descriptors whose state is unchanged since the last scan
            // are never visited. (The *modelled* hint walk still covers
            // the whole set — see the `hint_walk` charge below.)
            for e in dev.interest.dirty_iter() {
                if e.hinted {
                    candidates.push((e.fd, e.events));
                } else if !skip_reval {
                    candidates.push((e.fd, e.events));
                    revalidated += 1;
                } else {
                    // Under the fault-injection hook, cached-ready
                    // entries bypass the scan and their stale cached
                    // result is served as-is.
                    out.push(PollFd {
                        fd: e.fd,
                        events: e.events,
                        revents: e.cached,
                    });
                }
            }
        } else {
            for e in dev.interest.iter() {
                candidates.push((e.fd, e.events));
            }
        }
        if checked && hints && !skip_reval {
            self.audit_checks += audit::check_scan_candidates(dev, &candidates);
        }
        let polled = candidates.len();
        let avoided = dev.interest.len() - polled;
        let total = dev.interest.len();
        let probe = kernel.probe_mut();
        probe.inc(Metric::DevpollScans);
        probe.add(Metric::DevpollDriverPolls, polled as u64);
        probe.add(Metric::DevpollDriverPollsAvoided, avoided as u64);
        probe.add(Metric::DevpollCacheRevalidations, revalidated);
        probe.add(Metric::DevpollInterestLookups, polled as u64);

        // Charge the scan: hint-flag walk per candidate plus one driver
        // poll callback each; a read-lock acquisition covers the
        // backmap consultation. Without hints the entire set pays the
        // driver callback (and no hint machinery exists to walk).
        let lock_cost = if per_socket_locks {
            cost.backmap_rlock / 2
        } else {
            cost.backmap_rlock
        };
        let t_backmap = kernel.batch_acc(pid);
        if hints {
            kernel.charge_app(pid, lock_cost);
            kernel.charge_app(pid, cost.hint_walk * total as u64);
        }
        let t_socket = kernel.batch_acc(pid);
        kernel.charge_app(pid, cost.driver_poll * candidates.len() as u64);

        for &(fd, events) in &candidates {
            let state = kernel.readiness(pid, fd);
            let revents = state & (events | PollBits::always_reported());
            dev.interest.set_scan_result(fd, revents);
            if !revents.is_empty() {
                out.push(PollFd {
                    fd,
                    events,
                    revents,
                });
            }
        }
        if spans_on {
            // Lock holds over the scan, in lockdep order: the socket
            // locks cover the driver callbacks, the backmap read lock
            // (and interest table under it) covers hint walk + scan.
            kernel.span_hold(pid, Phase::LockSocket, t_socket);
            if hints {
                kernel.span_hold(pid, Phase::LockInterestTable, t_backmap);
                kernel.span_hold(pid, Phase::LockBackmap, t_backmap);
            }
            // Readiness scan: everything from DP_POLL entry through the
            // driver polls, hint machinery included.
            kernel.span_leaf(pid, Phase::ReadyScan, t_scan);
        }
        // Results are reported in ascending fd order regardless of the
        // (modelled) hash table's internal layout — determinism simcheck's
        // replays (and any consumer diffing runs) rely on.
        out[base..].sort_by_key(|r| r.fd);
        if checked && !skip_reval {
            let dev = self
                .devices
                .get(&handle)
                .expect("invariant: resolved above");
            self.audit_checks +=
                audit::check_scan_results(kernel, pid, dev, &candidates, &out[base..]);
        }

        let dev = self
            .devices
            .get_mut(&handle)
            .expect("invariant: resolved above");
        let cap = match (args.null_dp_fds, dev.mmap_slots) {
            (true, Some(slots)) => args.dp_nfds.min(slots),
            _ => args.dp_nfds,
        };
        out.truncate(base + cap);
        let n = out.len() - base;
        let result_bytes = (n * PollFd::BYTES) as u64;
        let t_out = kernel.batch_acc(pid);
        if args.null_dp_fds {
            kernel.charge_app(pid, cost.mmap_result_write * n as u64);
            kernel
                .probe_mut()
                .add(Metric::DevpollMmapResultBytes, result_bytes);
        } else {
            kernel.charge_app(
                pid,
                (cost.pollfd_copyout + cost.copy_per_byte * PollFd::BYTES as u64) * n as u64,
            );
            kernel
                .probe_mut()
                .add(Metric::DevpollCopyoutBytes, result_bytes);
        }
        if spans_on {
            // Event delivery: mmap result write or pollfd copy-out.
            kernel.span_leaf(pid, Phase::Delivery, t_out);
        }
        kernel.probe_mut().add(Metric::DevpollResults, n as u64);

        candidates.clear();
        self.scan_scratch = candidates;
        if n > 0 || args.dp_timeout == 0 {
            return Ok(PollOutcome::Ready(n));
        }
        // Watchers were registered when interests were written; sleeping
        // costs no per-descriptor wait-queue traffic — the key §3.1 win.
        Ok(PollOutcome::WouldBlock)
    }

    /// Routes a descriptor event into every interested device: the
    /// driver marking its backmap hint (§3.2). Runs in softirq context,
    /// so the cost is charged to the CPU as interrupt work.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn on_fd_event(&mut self, kernel: &mut Kernel, now: SimTime, pid: Pid, fd: Fd) {
        let cost = *kernel.cost_model();
        let spans_on = kernel.spans().enabled();
        // The driver's hint path takes the backmap read lock, then
        // touches the interest table — the same order as the scan path,
        // so the lockdep graph stays acyclic.
        self.record_locks(&[LockClass::Backmap, LockClass::InterestTable]);
        for dev in self.devices.values_mut() {
            if dev.owner != pid {
                continue;
            }
            if !dev.config.hints {
                continue;
            }
            if dev.interest.mark_hint(fd) {
                kernel.probe_mut().inc(Metric::DevpollHintsMarked);
                let lock = if dev.config.per_socket_locks {
                    cost.backmap_rlock / 2
                } else {
                    cost.backmap_rlock
                };
                let held = SimDuration::from_nanos(cost.backmap_mark + lock);
                kernel.charge_softirq(now, held);
                if spans_on {
                    // Driver-side hint mark holds the backmap lock in
                    // softirq context (tid 0 — no process is running).
                    kernel.span_complete(Phase::LockBackmap, 0, now, now + held);
                }
            }
        }
    }

    /// `close(dpfd)`: releases the device, its interest set and its
    /// watcher registrations.
    pub fn close(&mut self, kernel: &mut Kernel, pid: Pid, dpfd: Fd) -> Result<(), Errno> {
        let handle = match kernel.process(pid).fds.get(dpfd)?.kind {
            FileKind::DevPoll(h) => h,
            _ => return Err(Errno::EINVAL),
        };
        let dev = self.devices.remove(&handle).ok_or(Errno::EBADF)?;
        for e in dev.interest.iter() {
            kernel.unwatch(pid, e.fd);
        }
        let cost = *kernel.cost_model();
        kernel.charge_app(pid, cost.syscall + cost.close);
        kernel_close_fd(kernel, pid, dpfd)?;
        Ok(())
    }
}

/// Allocates a descriptor of kind `DevPoll` — helper keeping the fd-table
/// poke in one place.
fn kernel_alloc_devpoll_fd(kernel: &mut Kernel, pid: Pid, handle: u64) -> Result<Fd, Errno> {
    kernel.alloc_fd(pid, FileKind::DevPoll(handle))
}

/// Closes a descriptor without network side effects.
fn kernel_close_fd(kernel: &mut Kernel, pid: Pid, fd: Fd) -> Result<(), Errno> {
    kernel.close_fd_raw(pid, fd)
}
