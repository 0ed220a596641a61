//! `select()` — the even older baseline.
//!
//! The paper benchmarks stock `poll()`, but the era's default interface
//! (and real thttpd's default) was `select()`, whose costs are worse in
//! a characteristic way: three descriptor *bitmaps* cross the user/kernel
//! boundary and the kernel walks every slot up to `maxfd + 1` — member
//! or not — so cost is O(maxfd) rather than O(interest-set size). The
//! 1024-slot `FD_SETSIZE` is the hard limit the paper's httperf note
//! alludes to ("httperf assumes that the maximum is 1024").

use simcore::probe::Metric;
use simcore::span::Phase;
use simkernel::{Fd, Kernel, Pid, PollBits};

use crate::stock::PollOutcome;

/// The classic compile-time bitmap size.
pub const FD_SETSIZE: usize = 1024;

/// A descriptor bitmap (`fd_set`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdSet {
    bits: [u64; FD_SETSIZE / 64],
}

impl Default for FdSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FdSet {
    /// An empty set (`FD_ZERO`).
    pub fn new() -> FdSet {
        FdSet {
            bits: [0; FD_SETSIZE / 64],
        }
    }

    /// `FD_SET`. Returns `false` (and does nothing) for descriptors at
    /// or beyond [`FD_SETSIZE`] — the overflow that silently corrupted
    /// memory in careless C programs.
    pub fn set(&mut self, fd: Fd) -> bool {
        if fd < 0 || fd as usize >= FD_SETSIZE {
            return false;
        }
        self.bits[fd as usize / 64] |= 1 << (fd as usize % 64);
        true
    }

    /// `FD_CLR`.
    pub fn clear(&mut self, fd: Fd) {
        if fd >= 0 && (fd as usize) < FD_SETSIZE {
            self.bits[fd as usize / 64] &= !(1 << (fd as usize % 64));
        }
    }

    /// `FD_ISSET`.
    pub fn is_set(&self, fd: Fd) -> bool {
        if fd < 0 || fd as usize >= FD_SETSIZE {
            return false;
        }
        self.bits[fd as usize / 64] & (1 << (fd as usize % 64)) != 0
    }

    /// Number of set descriptors.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Highest set descriptor plus one (the `nfds` argument).
    pub fn nfds(&self) -> usize {
        for (i, w) in self.bits.iter().enumerate().rev() {
            if *w != 0 {
                return i * 64 + (64 - w.leading_zeros() as usize);
            }
        }
        0
    }

    /// Iterates set descriptors in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Fd> + '_ {
        (0..FD_SETSIZE as Fd).filter(move |&fd| self.is_set(fd))
    }
}

/// Executes `select(nfds, readfds, writefds, NULL, timeout)`.
///
/// On [`PollOutcome::Ready`], `read_set` and `write_set` are rewritten
/// in place to contain only the ready descriptors (exactly the API shape
/// that forces applications to rebuild both sets before every call). On
/// [`PollOutcome::WouldBlock`] the caller sleeps and retries.
pub fn sys_select(
    kernel: &mut Kernel,
    pid: Pid,
    read_set: &mut FdSet,
    write_set: &mut FdSet,
    timeout_ms: i32,
) -> PollOutcome {
    let cost = *kernel.cost_model();
    kernel.charge_app(pid, cost.syscall);
    let spans_on = kernel.spans().enabled();

    // Deregister wait-queue entries from a previous sleeping call.
    let t_reg = kernel.batch_acc(pid);
    let removed = kernel.unwatch_all(pid);
    kernel.charge_app(pid, cost.wq_remove * removed as u64);

    let nfds = read_set.nfds().max(write_set.nfds());
    let probe = kernel.probe_mut();
    probe.inc(Metric::SelectCalls);
    probe.add(Metric::SelectBitWalk, nfds as u64);
    // Three bitmaps in (readfds, writefds, exceptfds) — the per-call
    // interest-declaration tax, like poll()'s copy-in; the three result
    // bitmaps out are charged with the scan below (same 6× total).
    let bitmap_bytes = nfds.div_ceil(8) as u64;
    kernel.charge_app(pid, cost.copy_per_byte * bitmap_bytes * 3);
    if spans_on {
        kernel.span_leaf(pid, Phase::InterestReg, t_reg);
    }
    // The O(maxfd) slot walk, members or not.
    let t_scan = kernel.batch_acc(pid);
    kernel.charge_app(pid, cost.select_bit_walk * nfds as u64);

    let mut ready_read = FdSet::new();
    let mut ready_write = FdSet::new();
    let mut ready = 0usize;
    for fd in 0..nfds as Fd {
        let want_r = read_set.is_set(fd);
        let want_w = write_set.is_set(fd);
        if !want_r && !want_w {
            continue;
        }
        // Driver poll callback per member, like poll().
        kernel.charge_app(pid, cost.driver_poll);
        let state = kernel.readiness(pid, fd);
        // select reports error conditions as readable/writable.
        let r_bits = PollBits::POLLIN | PollBits::POLLHUP | PollBits::POLLERR | PollBits::POLLNVAL;
        let w_bits = PollBits::POLLOUT | PollBits::POLLERR | PollBits::POLLNVAL;
        let mut hit = false;
        if want_r && state.intersects(r_bits) {
            ready_read.set(fd);
            hit = true;
        }
        if want_w && state.intersects(w_bits) {
            ready_write.set(fd);
            hit = true;
        }
        if hit {
            ready += 1;
        }
    }
    if spans_on {
        kernel.span_leaf(pid, Phase::ReadyScan, t_scan);
    }

    if ready > 0 || timeout_ms == 0 {
        // Result delivery: the three bitmaps cross back to user space.
        let t_out = kernel.batch_acc(pid);
        kernel.charge_app(pid, cost.copy_per_byte * bitmap_bytes * 3);
        if spans_on {
            kernel.span_leaf(pid, Phase::Delivery, t_out);
        }
        *read_set = ready_read;
        *write_set = ready_write;
        return PollOutcome::Ready(ready);
    }
    // Blocking: the kernel still walked and rewrote all three result
    // bitmaps before deciding to sleep — same 6× copy total as the
    // ready path (and as the pre-span cost model).
    kernel.charge_app(pid, cost.copy_per_byte * bitmap_bytes * 3);
    // Register and sleep.
    let mut registered = 0u64;
    for fd in read_set.iter() {
        kernel.watch(pid, fd);
        registered += 1;
    }
    for fd in write_set.iter() {
        if !read_set.is_set(fd) {
            kernel.watch(pid, fd);
            registered += 1;
        }
    }
    kernel.charge_app(pid, cost.wq_add * registered);
    PollOutcome::WouldBlock
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fdset_basics() {
        let mut s = FdSet::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.nfds(), 0);
        assert!(s.set(0));
        assert!(s.set(63));
        assert!(s.set(64));
        assert!(s.set(1023));
        assert!(!s.set(1024), "FD_SETSIZE is a hard wall");
        assert!(!s.set(-1));
        assert_eq!(s.count(), 4);
        assert_eq!(s.nfds(), 1024);
        assert!(s.is_set(63));
        assert!(!s.is_set(62));
        s.clear(63);
        assert!(!s.is_set(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 1023]);
    }

    #[test]
    fn nfds_tracks_highest_member() {
        let mut s = FdSet::new();
        s.set(5);
        assert_eq!(s.nfds(), 6);
        s.set(200);
        assert_eq!(s.nfds(), 201);
        s.clear(200);
        assert_eq!(s.nfds(), 6);
    }
}
