//! The two-lane timer queue behind every time-ordered work source.
//!
//! The network keeps two kinds of timers. Segment deliveries fall due
//! within microseconds to milliseconds. Retransmission timeouts are
//! parked hundreds of milliseconds to seconds ahead, and many never come
//! due before the run ends. In one binary heap the parked timers
//! outnumber the short-lived ones by two orders of magnitude, so every
//! delivery pays heap levels for timers that are idle — the cost the
//! paper removes from `poll()` by not rescanning inactive descriptors on
//! every call. A queue whose mix has not been measured keeps every timer
//! in one lane.
//!
//! [`TimerQueue`] keeps one heap per [`Lane`] and one sequence counter
//! shared by both. Timers are ordered by `(at, seq)`: `seq` is the
//! global arming order, so ties at equal instants fire first-armed
//! first whichever lane each timer sits in. The lane a timer goes into
//! changes only what its push and pop cost, never the firing order.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which heap a timer waits in. Only the cost depends on the choice.
#[derive(Debug, Clone, Copy)]
pub enum Lane {
    /// Short-lived timers (segment deliveries), or every timer of a
    /// queue that uses one lane.
    Near,
    /// Long-parked timers, many of which never come due (retransmission
    /// timeouts).
    Far,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// `BinaryHeap` is a max-heap: order entries by reversed key so the
// head is the earliest `(at, seq)`. The payload never takes part.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

/// Timers ordered by `(at, arming order)`, split over two heaps.
///
/// # Examples
///
/// ```
/// use simcore::time::SimTime;
/// use simcore::timer::{Lane, TimerQueue};
///
/// let mut q = TimerQueue::new();
/// let t = SimTime::from_millis(5);
/// q.push(Lane::Far, t, "rto");
/// q.push(Lane::Near, t, "deliver");
/// assert_eq!(q.next_at(), Some(t));
/// // Equal instants fire in arming order, whatever the lanes.
/// assert_eq!(q.pop(t), Some((t, "rto")));
/// assert_eq!(q.pop(t), Some((t, "deliver")));
/// assert_eq!(q.pop(t), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimerQueue<T> {
    near: BinaryHeap<Entry<T>>,
    far: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue::new()
    }
}

impl<T> TimerQueue<T> {
    /// An empty queue.
    pub fn new() -> TimerQueue<T> {
        TimerQueue {
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Arms `item` to fire at `at`, after every timer already armed for
    /// the same instant.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn push(&mut self, lane: Lane, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, item };
        match lane {
            Lane::Near => self.near.push(entry),
            Lane::Far => self.far.push(entry),
        }
    }

    /// Removes and returns the earliest timer if it is due at or before
    /// `now`.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn pop(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let near_first = match (self.near.peek(), self.far.peek()) {
            (Some(n), Some(f)) => n.key() < f.key(),
            (n, _) => n.is_some(),
        };
        let lane = if near_first {
            &mut self.near
        } else {
            &mut self.far
        };
        let head = lane.peek_mut()?;
        if head.at > now {
            return None;
        }
        let Entry { at, item, .. } = PeekMut::pop(head);
        Some((at, item))
    }

    /// When the earliest timer falls due.
    pub fn next_at(&self) -> Option<SimTime> {
        match (self.near.peek(), self.far.peek()) {
            (Some(n), Some(f)) => Some(n.at.min(f.at)),
            (n, f) => n.or(f).map(|e| e.at),
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Every armed timer as `(at, seq, item)`, in firing order — the
    /// lane split is invisible here, as it is to `pop`. Allocates; meant
    /// for fingerprints and diagnostics, not the event path.
    pub fn in_order(&self) -> Vec<(SimTime, u64, &T)> {
        let mut all: Vec<_> = self
            .near
            .iter()
            .chain(self.far.iter())
            .map(|e| (e.at, e.seq, &e.item))
            .collect();
        all.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        all
    }
}
