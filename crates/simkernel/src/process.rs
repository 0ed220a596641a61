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

use crate::fd::FdTable;
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
