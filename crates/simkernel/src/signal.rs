//! POSIX signals: the classic SIGIO plus the queued real-time signals
//! the paper studies (§2).
//!
//! RT signals carry a payload (`siginfo`, Fig. 2 in the paper): the file
//! descriptor and a `band` of poll bits describing what happened. The
//! queue is bounded; when it overflows the kernel raises SIGIO and the
//! application must fall back to `poll()` to discover pending activity.
//! Pending signals dequeue lowest-signal-number-first, FIFO within one
//! number — the source of the paper's observation that "activity on
//! lower-numbered connections can cause longer delays for activity
//! reports on higher-numbered connections".

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::fd::Fd;
use crate::poll_bits::PollBits;

/// The classic I/O signal raised on RT-queue overflow.
pub const SIGIO: u8 = 29;
/// First real-time signal number *available to applications*.
///
/// The kernel's RT range began at 32, but glibc's LinuxThreads claimed
/// signal 32 for itself — the §6 portability hazard: "glibc's pthread
/// implementation uses signal 32. If an application starts using
/// pthreads after it has assigned signal 32 to a file descriptor via
/// fcntl(), application behavior is undetermined." Starting the usable
/// range at 33 models the safe convention.
pub const SIGRTMIN: u8 = 33;
/// The RT signal number glibc's LinuxThreads reserved (see [`SIGRTMIN`]).
pub const GLIBC_PTHREAD_SIGNAL: u8 = 32;
/// Last real-time signal number.
pub const SIGRTMAX: u8 = 63;
/// Default RT signal queue limit (the paper: "normally set high enough
/// (1024 by default)").
pub const DEFAULT_RT_QUEUE_MAX: usize = 1024;

/// The payload of one queued RT signal — the paper's simplified
/// `siginfo` struct (Fig. 2): `_fd` and `_band` carry the same
/// information as `pollfd.fd` / `pollfd.revents`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Siginfo {
    /// The signal number (`si_signo`).
    pub signo: u8,
    /// The descriptor the event refers to (`_sigpoll._fd`).
    pub fd: Fd,
    /// Poll bits describing the event (`_sigpoll._band`).
    pub band: PollBits,
}

/// Per-process signal state: the bounded RT queue plus the SIGIO flag.
#[derive(Debug, Clone)]
pub struct SignalState {
    /// Queued RT signals by signal number (dequeue order: lowest number
    /// first, FIFO within a number). A number's queue is kept once
    /// created, empty or not, so steady queueing does not allocate.
    queues: BTreeMap<u8, VecDeque<Siginfo>>,
    queued: usize,
    max_queued: usize,
    /// SIGIO pending (queue overflowed).
    sigio_pending: bool,
}

impl SignalState {
    /// Folds the queue's semantic state into `h`: the pending-SIGIO
    /// flag plus every queued siginfo in dequeue order (an emptied
    /// queue kept for reuse hashes as an absent one). Enqueues,
    /// overflows and the depth's high-water mark are the kernel probe's
    /// `rtsig.*` counters and gauge, not queue state.
    pub fn fingerprint_into(&self, h: &mut simcore::fingerprint::Fnv) {
        h.write_bool(self.sigio_pending);
        h.write_usize(self.max_queued);
        h.write_len(self.queued);
        for (signo, q) in self.queues.iter().filter(|(_, q)| !q.is_empty()) {
            h.write_u8(*signo);
            h.write_len(q.len());
            for info in q {
                h.write_u8(info.signo);
                h.write_i64(i64::from(info.fd));
                h.write_u32(u32::from(info.band.0));
            }
        }
    }

    /// Creates signal state with the given RT queue limit.
    pub fn new(max_queued: usize) -> SignalState {
        SignalState {
            queues: BTreeMap::new(),
            queued: 0,
            max_queued,
            sigio_pending: false,
        }
    }

    /// Attempts to queue an RT signal.
    ///
    /// Returns `true` on success; on a full queue the event is lost, the
    /// SIGIO flag is raised, and `false` is returned.
    pub fn enqueue_rt(&mut self, info: Siginfo) -> bool {
        debug_assert!(
            (SIGRTMIN..=SIGRTMAX).contains(&info.signo),
            "RT signal number out of range"
        );
        if self.queued >= self.max_queued {
            self.sigio_pending = true;
            return false;
        }
        self.queues.entry(info.signo).or_default().push_back(info);
        self.queued += 1;
        true
    }

    /// Dequeues the next pending signal for `sigwaitinfo`.
    ///
    /// A pending SIGIO (overflow) is delivered before any RT signal,
    /// because classic signals rank ahead of the RT range.
    pub fn dequeue(&mut self) -> Option<Siginfo> {
        if self.sigio_pending {
            self.sigio_pending = false;
            return Some(Siginfo {
                signo: SIGIO,
                fd: -1,
                band: PollBits::EMPTY,
            });
        }
        if self.queued == 0 {
            return None;
        }
        let info = self
            .queues
            .values_mut()
            .find_map(VecDeque::pop_front)
            .expect("invariant: `queued` counts the queued signals");
        self.queued -= 1;
        Some(info)
    }

    /// Dequeues up to `max` signals at once, handing each to `deliver`
    /// in dequeue order — the paper's proposed `sigtimedwait4()` batch
    /// interface (§6). Returns how many were dequeued.
    pub fn dequeue_batch(&mut self, max: usize, mut deliver: impl FnMut(Siginfo)) -> usize {
        let mut n = 0;
        while n < max {
            let Some(s) = self.dequeue() else { break };
            deliver(s);
            n += 1;
        }
        n
    }

    /// Discards every queued RT signal (the application reset its
    /// handlers to `SIG_DFL` during overflow recovery). Returns how many
    /// were flushed.
    pub fn flush_rt(&mut self) -> usize {
        let n = self.queued;
        self.queues.values_mut().for_each(VecDeque::clear);
        self.queued = 0;
        n
    }

    /// Whether anything (SIGIO or RT) is deliverable.
    pub fn has_pending(&self) -> bool {
        self.sigio_pending || self.queued > 0
    }

    /// Current RT queue depth.
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// The configured queue limit.
    pub fn queue_max(&self) -> usize {
        self.max_queued
    }

    /// Whether SIGIO is pending (overflow happened and was not yet
    /// picked up).
    pub fn sigio_pending(&self) -> bool {
        self.sigio_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(signo: u8, fd: Fd) -> Siginfo {
        Siginfo {
            signo,
            fd,
            band: PollBits::POLLIN,
        }
    }

    #[test]
    fn fifo_within_one_signal_number() {
        let mut s = SignalState::new(16);
        s.enqueue_rt(info(SIGRTMIN, 3));
        s.enqueue_rt(info(SIGRTMIN, 4));
        s.enqueue_rt(info(SIGRTMIN, 5));
        assert_eq!(s.dequeue().unwrap().fd, 3);
        assert_eq!(s.dequeue().unwrap().fd, 4);
        assert_eq!(s.dequeue().unwrap().fd, 5);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn lower_signal_numbers_dequeue_first() {
        // The paper: activity on lower-numbered connections delays
        // reports for higher-numbered ones.
        let mut s = SignalState::new(16);
        s.enqueue_rt(info(SIGRTMIN + 5, 50));
        s.enqueue_rt(info(SIGRTMIN, 10));
        s.enqueue_rt(info(SIGRTMIN + 5, 51));
        s.enqueue_rt(info(SIGRTMIN, 11));
        let order: Vec<Fd> = std::iter::from_fn(|| s.dequeue()).map(|i| i.fd).collect();
        assert_eq!(order, vec![10, 11, 50, 51]);
    }

    #[test]
    fn overflow_raises_sigio_and_drops_event() {
        let mut s = SignalState::new(2);
        assert!(s.enqueue_rt(info(SIGRTMIN, 1)));
        assert!(s.enqueue_rt(info(SIGRTMIN, 2)));
        assert!(!s.enqueue_rt(info(SIGRTMIN, 3)));
        assert!(s.sigio_pending());
        // SIGIO delivers before the queued RT signals.
        assert_eq!(s.dequeue().unwrap().signo, SIGIO);
        assert_eq!(s.dequeue().unwrap().fd, 1);
    }

    #[test]
    fn flush_discards_rt_but_not_sigio() {
        let mut s = SignalState::new(1);
        s.enqueue_rt(info(SIGRTMIN, 1));
        s.enqueue_rt(info(SIGRTMIN, 2)); // overflow
        assert_eq!(s.flush_rt(), 1);
        assert!(s.has_pending(), "SIGIO still pending");
        assert_eq!(s.dequeue().unwrap().signo, SIGIO);
        assert!(!s.has_pending());
    }

    #[test]
    fn dequeue_batch_takes_up_to_max() {
        let mut s = SignalState::new(16);
        for i in 0..5 {
            s.enqueue_rt(info(SIGRTMIN, i));
        }
        let mut batch = Vec::new();
        assert_eq!(s.dequeue_batch(3, |i| batch.push(i)), 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].fd, 0);
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.dequeue_batch(100, |_| {}), 2);
    }

    #[test]
    fn emptied_queues_are_kept_and_hash_as_absent() {
        let digest = |s: &SignalState| {
            let mut h = simcore::fingerprint::Fnv::new();
            s.fingerprint_into(&mut h);
            h.finish()
        };
        let mut s = SignalState::new(16);
        s.enqueue_rt(info(SIGRTMIN, 1));
        s.enqueue_rt(info(SIGRTMIN + 5, 2));
        assert_eq!(s.dequeue().unwrap().fd, 1);
        assert_eq!(s.dequeue().unwrap().fd, 2);
        assert!(s.dequeue().is_none());
        assert_eq!(s.queues.len(), 2, "both queues kept after emptying");
        assert_eq!(digest(&s), digest(&SignalState::new(16)));
        // The kept lower queue is skipped while empty, then ranks first
        // again once refilled.
        s.enqueue_rt(info(SIGRTMIN + 5, 3));
        s.enqueue_rt(info(SIGRTMIN, 4));
        let mut fresh = SignalState::new(16);
        fresh.enqueue_rt(info(SIGRTMIN + 5, 3));
        fresh.enqueue_rt(info(SIGRTMIN, 4));
        assert_eq!(digest(&s), digest(&fresh));
        assert_eq!(s.dequeue().unwrap().fd, 4);
        assert_eq!(s.flush_rt(), 1);
        assert_eq!(s.queues.len(), 2, "flush keeps the queues");
        assert_eq!(digest(&s), digest(&SignalState::new(16)));
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn queue_len_counts_queued_signals() {
        let mut s = SignalState::new(16);
        for i in 0..7 {
            s.enqueue_rt(info(SIGRTMIN, i));
        }
        s.dequeue();
        s.dequeue();
        assert_eq!(s.queue_len(), 5);
    }

    #[test]
    fn application_rt_range_avoids_the_glibc_pthread_signal() {
        // The paper's §6 black-box-library hazard: signal 32 belongs to
        // LinuxThreads; the application-visible RT range must start
        // above it.
        assert_eq!(GLIBC_PTHREAD_SIGNAL, 32);
        const { assert!(SIGRTMIN > GLIBC_PTHREAD_SIGNAL) };
    }

    #[test]
    fn stale_events_survive_for_closed_fds() {
        // The paper §2: events queued before close remain on the queue
        // and must be processed or ignored by the application.
        let mut s = SignalState::new(16);
        s.enqueue_rt(info(SIGRTMIN, 9));
        // fd 9 closes here — the queue does not care.
        assert_eq!(s.dequeue().unwrap().fd, 9);
    }
}
