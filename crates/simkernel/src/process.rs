//! Simulated processes and their run-state machine.
//!
//! A process executes *batches*: bursts of syscalls issued at one logical
//! instant whose costs accumulate and are then charged to the CPU as one
//! piece of work. After a batch the process either yields (it has more
//! work and runs again as soon as the CPU lets it) or sleeps (blocked in
//! `poll`/`ioctl(DP_POLL)`/`sigwaitinfo` until an event or timeout).
//! This "quantized event loop" model keeps server code straight-line
//! while preserving the throughput-vs-cost dynamics the paper measures.

use simcore::time::{SimDuration, SimTime};

use crate::fd::{Fd, FdTable};
use crate::signal::SignalState;

/// Process identifier.
pub type Pid = u32;

/// What happens when the in-progress batch's CPU work completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterBatch {
    /// Run again immediately (more work queued in the application).
    Yield,
    /// Go to sleep, optionally with a wakeup deadline.
    Sleep {
        /// Absolute timeout, if any.
        timeout: Option<SimTime>,
    },
}

/// The run state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Waiting for the orchestrator to run its next batch.
    Idle,
    /// A batch's CPU work is in progress until the given time.
    Running {
        /// When the CPU work finishes.
        until: SimTime,
        /// What to do then.
        then: AfterBatch,
    },
    /// Blocked awaiting an event (or timeout).
    Sleeping {
        /// Absolute timeout, if any.
        timeout: Option<SimTime>,
    },
}

/// Hints the list holds before it gives up listing and reports that
/// anything may have changed. A stock-`poll()` process takes its hints
/// on every wait, a handful each time; only a process that stops
/// polling lets them pile up.
const POLL_HINT_CAP: usize = 4096;

/// Descriptors whose poll bits may have risen since the process's last
/// stock-`poll()` wait took them: simulator bookkeeping that lets the
/// wait re-evaluate only what may have changed. It is not modelled
/// state: stock 2.2 `poll()` keeps nothing between calls, so the list is
/// out of the kernel's memory and fingerprint, and a wait's result is
/// the same whatever it holds.
#[derive(Debug, Clone, Default)]
pub(crate) struct PollHints {
    /// Whether `fds` lists every rise since the last take: false before
    /// the first take (recording starts there, so a process that never
    /// polls pays nothing) and after the list overflowed
    /// [`POLL_HINT_CAP`].
    complete: bool,
    fds: Vec<Fd>,
}

impl PollHints {
    /// Whether [`PollHints::record`] keeps what it is given: a caller
    /// can skip working out whether a bit rose when it is not.
    pub(crate) fn recording(&self) -> bool {
        self.complete
    }

    /// Records that `fd`'s poll bits may have risen.
    pub(crate) fn record(&mut self, fd: Fd) {
        if !self.complete {
            return;
        }
        if self.fds.len() == POLL_HINT_CAP {
            self.complete = false;
            self.fds.clear();
            return;
        }
        self.fds.push(fd);
    }

    /// Moves the hints into `out` (swapped into an empty buffer,
    /// appended otherwise) and starts recording afresh. `false` means
    /// the hints do not cover every change since the last call: on the
    /// first call, which starts the recording, and after an overflow.
    pub(crate) fn take(&mut self, out: &mut Vec<Fd>) -> bool {
        if out.is_empty() {
            std::mem::swap(out, &mut self.fds);
        } else {
            out.append(&mut self.fds);
        }
        std::mem::replace(&mut self.complete, true)
    }
}

/// A simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Descriptor table.
    pub fds: FdTable,
    /// Signal state (RT queue + SIGIO).
    pub signals: SignalState,
    /// Run state.
    pub state: ProcState,
    /// Cost accumulated by the batch currently being issued, if any.
    pub batch_acc: Option<SimDuration>,
    /// When the current (or most recent) batch began; `batch_start +
    /// batch_acc` is the batch's virtual now, the clock latency spans
    /// are stamped with.
    pub batch_start: SimTime,
    /// A wake arrived while the batch that decided to sleep was still on
    /// the CPU; do not sleep after all.
    pub pending_wake: bool,
    /// Descriptors whose poll bits may have risen since the last
    /// stock-`poll()` wait ([`PollHints`]).
    pub(crate) poll_hints: PollHints,
    /// Whether the process's wait-queue registrations are parked: left
    /// in place by [`crate::Kernel::unwatch_all`] and read as none.
    pub(crate) watch_parked: bool,
    /// Whether they are its stock-`poll()` array's
    /// ([`crate::Kernel::claim_watches`]). Both flags are host
    /// bookkeeping, not modelled state.
    pub(crate) watch_kept: bool,
}

impl Process {
    /// Creates an idle process.
    pub fn new(fd_limit: usize, rt_queue_max: usize) -> Process {
        Process::with_first_fd(fd_limit, rt_queue_max, 0)
    }

    /// Creates an idle process whose descriptor numbering starts at
    /// `first_fd` (the elevated-offset layout-independence lane).
    pub fn with_first_fd(fd_limit: usize, rt_queue_max: usize, first_fd: usize) -> Process {
        Process {
            fds: FdTable::with_first_fd(fd_limit, first_fd),
            signals: SignalState::new(rt_queue_max),
            state: ProcState::Idle,
            batch_acc: None,
            batch_start: SimTime::ZERO,
            pending_wake: false,
            poll_hints: PollHints::default(),
            watch_parked: false,
            watch_kept: false,
        }
    }

    /// Whether the process is asleep (and so needs a wake to make
    /// progress).
    pub fn is_sleeping(&self) -> bool {
        matches!(self.state, ProcState::Sleeping { .. })
    }

    /// The next time this process needs attention, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.state {
            ProcState::Idle => None,
            ProcState::Running { until, .. } => Some(until),
            ProcState::Sleeping { timeout } => timeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_is_idle() {
        let p = Process::new(1024, 1024);
        assert_eq!(p.state, ProcState::Idle);
        assert_eq!(p.next_deadline(), None);
        assert!(!p.is_sleeping());
    }

    #[test]
    fn poll_hints_start_at_the_first_take_and_overflow_to_everything() {
        let mut h = PollHints::default();
        let mut out = Vec::new();
        h.record(3);
        assert!(!h.take(&mut out), "the first take covers nothing");
        assert!(out.is_empty(), "nothing is recorded before it");
        h.record(3);
        h.record(5);
        assert!(h.take(&mut out));
        assert_eq!(out, [3, 5]);
        out.clear();
        for fd in 0..=POLL_HINT_CAP as Fd {
            h.record(fd);
        }
        assert!(!h.take(&mut out), "an overflowed list covers nothing");
        assert!(out.is_empty());
        h.record(7);
        assert!(h.take(&mut out), "recording resumes after the take");
        assert_eq!(out, [7]);
    }

    #[test]
    fn deadlines_reflect_state() {
        let mut p = Process::new(16, 16);
        p.state = ProcState::Running {
            until: SimTime::from_micros(5),
            then: AfterBatch::Yield,
        };
        assert_eq!(p.next_deadline(), Some(SimTime::from_micros(5)));
        p.state = ProcState::Sleeping {
            timeout: Some(SimTime::from_millis(1)),
        };
        assert_eq!(p.next_deadline(), Some(SimTime::from_millis(1)));
        assert!(p.is_sleeping());
        p.state = ProcState::Sleeping { timeout: None };
        assert_eq!(p.next_deadline(), None);
    }
}
