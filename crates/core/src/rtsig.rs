//! The POSIX RT-signal event API (§2): the userspace conventions phhttpd
//! uses on top of `fcntl(F_SETSIG)` + `sigwaitinfo()`.
//!
//! The kernel-side queueing lives in `simkernel::signal`; this module
//! wraps it into an event API — registration, event pickup, overflow
//! detection — and implements the paper's proposed `sigtimedwait4()`
//! batch pickup (§6).

use simkernel::{Errno, Fd, Kernel, Pid, PollBits, Siginfo, SIGIO, SIGRTMAX, SIGRTMIN};

/// An event delivered through the RT signal queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtEvent {
    /// I/O readiness on a descriptor. The information equals a `pollfd`'s
    /// `fd`/`revents` pair (paper Fig. 2) — and like a `pollfd` it is
    /// only a *hint*: the connection may have changed state since.
    Io {
        /// The descriptor.
        fd: Fd,
        /// What happened (`_band`).
        band: PollBits,
    },
    /// SIGIO: the RT queue overflowed; events were lost. The application
    /// must flush the queue and recover via `poll()`.
    Overflow,
}

impl RtEvent {
    /// The event a dequeued signal reports: SIGIO is the overflow
    /// notice, anything else is readiness on its descriptor.
    fn of(info: Siginfo) -> RtEvent {
        if info.signo == SIGIO {
            RtEvent::Overflow
        } else {
            RtEvent::Io {
                fd: info.fd,
                band: info.band,
            }
        }
    }
}

/// How signal numbers are assigned to descriptors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalAssignment {
    /// Every descriptor uses one signal number (events dequeue strictly
    /// FIFO). This is what production servers do.
    Single(u8),
    /// Descriptors spread across the RT range (`SIGRTMIN + fd mod range`).
    /// Exposes the paper's ordering hazard: "activity on lower-numbered
    /// connections can cause longer delays for activity reports on
    /// higher-numbered connections".
    PerFd,
}

/// The RT-signal event interface of one process.
#[derive(Debug, Clone, Copy)]
pub struct RtSignalApi {
    assignment: SignalAssignment,
}

impl Default for RtSignalApi {
    fn default() -> Self {
        RtSignalApi::new(SignalAssignment::Single(SIGRTMIN))
    }
}

impl RtSignalApi {
    /// Creates the API with the given signal assignment policy.
    pub fn new(assignment: SignalAssignment) -> RtSignalApi {
        RtSignalApi { assignment }
    }

    /// The signal number used for `fd`.
    pub fn signo_for(&self, fd: Fd) -> u8 {
        match self.assignment {
            SignalAssignment::Single(s) => s,
            SignalAssignment::PerFd => {
                let range = (SIGRTMAX - SIGRTMIN) as i32 + 1;
                SIGRTMIN + (fd.rem_euclid(range)) as u8
            }
        }
    }

    /// Registers `fd` for signal-driven I/O:
    /// `fcntl(fd, F_SETSIG, signo)` + `F_SETOWN` + `O_NONBLOCK|O_ASYNC`.
    pub fn register(&self, kernel: &mut Kernel, pid: Pid, fd: Fd) -> Result<(), Errno> {
        kernel.sys_set_nonblock(pid, fd)?;
        kernel.sys_set_sig(pid, fd, Some(self.signo_for(fd)))
    }

    /// Stops signal delivery for `fd`.
    pub fn unregister(&self, kernel: &mut Kernel, pid: Pid, fd: Fd) -> Result<(), Errno> {
        kernel.sys_set_sig(pid, fd, None)
    }

    /// Picks up the next queued event (`sigwaitinfo`).
    ///
    /// Returns `EAGAIN` when the queue is empty (the caller blocks).
    pub fn next_event(&self, kernel: &mut Kernel, pid: Pid) -> Result<RtEvent, Errno> {
        kernel.sys_sigwaitinfo(pid).map(RtEvent::of)
    }

    /// Picks up up to `max` events in one syscall — the proposed
    /// `sigtimedwait4()` (§6) — into `out`, which is cleared first so a
    /// caller can reuse one buffer for every pickup.
    pub fn next_events(
        &self,
        kernel: &mut Kernel,
        pid: Pid,
        max: usize,
        out: &mut Vec<RtEvent>,
    ) -> Result<(), Errno> {
        out.clear();
        kernel
            .sys_sigtimedwait4(pid, max, |info| out.push(RtEvent::of(info)))
            .map(|_| ())
    }

    /// Overflow recovery step 1: discard the (stale) queue contents, as
    /// an application does by resetting handlers to `SIG_DFL`. Returns
    /// the number of discarded events. Step 2 is a `poll()` over the
    /// connection set, which is the server's job.
    pub fn flush(&self, kernel: &mut Kernel, pid: Pid) -> usize {
        kernel.sys_flush_rt(pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_assignment_uses_one_number() {
        let api = RtSignalApi::default();
        assert_eq!(api.signo_for(3), SIGRTMIN);
        assert_eq!(api.signo_for(999), SIGRTMIN);
    }

    #[test]
    fn per_fd_assignment_spreads_and_stays_in_range() {
        let api = RtSignalApi::new(SignalAssignment::PerFd);
        for fd in 0..200 {
            let s = api.signo_for(fd);
            assert!((SIGRTMIN..=SIGRTMAX).contains(&s));
        }
        assert_ne!(api.signo_for(0), api.signo_for(1));
    }
}
