//! The lane timer queue behind every time-ordered work source.
//!
//! Almost every timer in the simulation is armed at a constant delay
//! from a clock that only moves forward: a host's transmitter finishes
//! segments in strictly increasing order, retransmission timeouts are
//! armed at `now` plus a fixed timeout, client timeouts at `now + 2 s`.
//! Timers of one such class are already sorted when armed, so they need
//! only a FIFO (Varghese and Lauck, SOSP 1987), not a heap that every
//! push and pop walks.
//!
//! [`TimerQueue`] keeps one FIFO per [`Lane::Fifo`] id and one fallback
//! binary heap, and merges them through a small index heap that holds
//! each non-empty lane's front. A push goes to the back of its lane
//! unless it is earlier than the lane's tail; then, and for
//! [`Lane::Fallback`], it goes into the fallback heap. Popping is one
//! head replacement in the index heap, O(log lanes), whatever the
//! number of timers armed.
//!
//! Timers are ordered by `(at, seq)`: `seq` is the global arming order,
//! shared by every lane, so ties at equal instants fire first-armed
//! first whichever lane each timer sits in. The lane a timer goes into
//! changes only what its push and pop cost, never the firing order.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Where a timer waits. Only the cost depends on the choice.
#[derive(Debug, Clone, Copy)]
pub enum Lane {
    /// FIFO lane `id`, for timers armed in firing order (a constant
    /// delay from a clock that only moves forward). Ids are small and
    /// dense: the queue keeps a lane for every id up to the largest
    /// used.
    Fifo(usize),
    /// The fallback heap, for timers with no arming order to exploit
    /// (backoffs, rearms at an earlier progress time).
    Fallback,
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

/// Timers ordered by `(at, arming order)`, kept in FIFO lanes merged by
/// an index heap, with a fallback heap for timers armed out of order.
///
/// # Examples
///
/// ```
/// use simcore::time::SimTime;
/// use simcore::timer::{Lane, TimerQueue};
///
/// let mut q = TimerQueue::new();
/// let (t5, t7) = (SimTime::from_millis(5), SimTime::from_millis(7));
/// q.push(Lane::Fifo(0), t7, "rto");
/// q.push(Lane::Fifo(1), t5, "deliver");
/// // Earlier than its lane's tail: waits in the fallback heap instead.
/// q.push(Lane::Fifo(0), t5, "rearm");
/// assert_eq!(q.next_at(), Some(t5));
/// // Equal instants fire in arming order, whatever the lanes.
/// assert_eq!(q.pop(t7), Some((t5, "deliver")));
/// assert_eq!(q.pop(t7), Some((t5, "rearm")));
/// assert_eq!(q.pop(t5), None);
/// assert_eq!(q.pop(t7), Some((t7, "rto")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TimerQueue<T> {
    /// FIFO lanes by id, each sorted by `(at, seq)` front to back.
    lanes: Vec<VecDeque<Entry<T>>>,
    /// One entry per non-empty lane: its front's key, with the lane id
    /// as the item.
    heads: BinaryHeap<Entry<usize>>,
    fallback: BinaryHeap<Entry<T>>,
    seq: u64,
    /// Pushes named for a FIFO lane that went to the fallback heap.
    lane_misses: u64,
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
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            fallback: BinaryHeap::new(),
            seq: 0,
            lane_misses: 0,
        }
    }

    /// Arms `item` to fire at `at`, after every timer already armed for
    /// the same instant. A timer for a FIFO lane that is earlier than
    /// the lane's tail waits in the fallback heap.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn push(&mut self, lane: Lane, at: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, item };
        let Lane::Fifo(id) = lane else {
            self.fallback.push(entry);
            return;
        };
        if id >= self.lanes.len() {
            self.add_lanes(id);
        }
        let fifo = &mut self.lanes[id];
        match fifo.back() {
            None => self.heads.push(Entry { at, seq, item: id }),
            Some(tail) if tail.at > at => {
                self.lane_misses += 1;
                self.fallback.push(entry);
                return;
            }
            Some(_) => {}
        }
        fifo.push_back(entry);
    }

    #[cold]
    fn add_lanes(&mut self, id: usize) {
        self.lanes.resize_with(id + 1, VecDeque::new);
    }

    /// Removes and returns the earliest timer if it is due at or before
    /// `now`.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn pop(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let lane_first = match (self.heads.peek(), self.fallback.peek()) {
            (Some(h), Some(f)) => h.key() < f.key(),
            (h, _) => h.is_some(),
        };
        let Entry { at, item, .. } = if lane_first {
            let mut head = self.heads.peek_mut()?;
            if head.at > now {
                return None;
            }
            let fifo = &mut self.lanes[head.item];
            let entry = fifo
                .pop_front()
                .expect("invariant: an indexed lane is non-empty");
            match fifo.front() {
                // The lane's next front is later than the one it
                // replaces: `PeekMut` sifts it down on drop.
                Some(next) => {
                    head.at = next.at;
                    head.seq = next.seq;
                }
                None => {
                    PeekMut::pop(head);
                }
            }
            entry
        } else {
            let head = self.fallback.peek_mut()?;
            if head.at > now {
                return None;
            }
            PeekMut::pop(head)
        };
        Some((at, item))
    }

    /// When the earliest timer falls due.
    pub fn next_at(&self) -> Option<SimTime> {
        match (self.heads.peek(), self.fallback.peek()) {
            (Some(h), Some(f)) => Some(h.at.min(f.at)),
            (h, f) => h.map(|h| h.at).or(f.map(|f| f.at)),
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.fallback.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty() && self.fallback.is_empty()
    }

    /// How many pushes named a FIFO lane but were earlier than its tail
    /// and went to the fallback heap. A lane whose class is not armed in
    /// firing order shows up here, not in the firing order.
    #[doc(hidden)]
    pub fn lane_misses(&self) -> u64 {
        self.lane_misses
    }

    /// Every armed timer as `(at, seq, item)`, in firing order — the
    /// lanes are invisible here, as they are to `pop`. Allocates; meant
    /// for fingerprints and diagnostics, not the event path.
    pub fn in_order(&self) -> Vec<(SimTime, u64, &T)> {
        let mut all: Vec<_> = self
            .lanes
            .iter()
            .flatten()
            .chain(self.fallback.iter())
            .map(|e| (e.at, e.seq, &e.item))
            .collect();
        all.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn drain(q: &mut TimerQueue<&'static str>) -> Vec<(SimTime, &'static str)> {
        std::iter::from_fn(|| q.pop(SimTime::MAX)).collect()
    }

    #[test]
    fn push_earlier_than_lane_tail_falls_back_to_the_heap() {
        let mut q = TimerQueue::new();
        q.push(Lane::Fifo(0), ms(10), "tail");
        q.push(Lane::Fifo(0), ms(10), "equal");
        assert_eq!(q.lane_misses(), 0, "an equal instant keeps lane order");
        q.push(Lane::Fifo(0), ms(4), "early");
        assert_eq!(q.lane_misses(), 1);
        q.push(Lane::Fallback, ms(2), "fallback");
        assert_eq!(q.lane_misses(), 1, "a fallback push is not a lane miss");
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_at(), Some(ms(2)));
        assert_eq!(
            drain(&mut q),
            [
                (ms(2), "fallback"),
                (ms(4), "early"),
                (ms(10), "tail"),
                (ms(10), "equal")
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn equal_instants_fire_in_arming_order_across_lanes() {
        let mut q = TimerQueue::new();
        q.push(Lane::Fifo(2), ms(5), "a");
        q.push(Lane::Fallback, ms(5), "b");
        q.push(Lane::Fifo(0), ms(5), "c");
        q.push(Lane::Fifo(2), ms(5), "d");
        q.push(Lane::Fifo(1), ms(5), "e");
        let order: Vec<_> = q.in_order().iter().map(|&(_, seq, &s)| (seq, s)).collect();
        assert_eq!(order, [(0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e")]);
        assert_eq!(q.pop(ms(4)), None, "nothing is due before 5 ms");
        let fired: Vec<_> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(fired, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn a_lane_that_empties_refills_from_an_earlier_instant() {
        let mut q = TimerQueue::new();
        q.push(Lane::Fifo(0), ms(8), "first");
        assert_eq!(q.pop(ms(8)), Some((ms(8), "first")));
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        // The emptied lane has no tail left to compare against, so an
        // earlier instant goes back into the lane, not the fallback.
        q.push(Lane::Fifo(0), ms(3), "again");
        q.push(Lane::Fifo(0), ms(6), "later");
        assert_eq!(q.lane_misses(), 0);
        assert_eq!(q.next_at(), Some(ms(3)));
        assert_eq!(drain(&mut q), [(ms(3), "again"), (ms(6), "later")]);
    }

    #[test]
    fn index_heap_head_replacement_sifts_the_next_front_into_place() {
        // Lane 0 fronts at 1 ms then 9 ms; lanes 1 and 2 sit between.
        // Popping lane 0's front replaces the index head with 9 ms,
        // which must sink below both other lanes.
        let mut q = TimerQueue::new();
        q.push(Lane::Fifo(0), ms(1), "l0a");
        q.push(Lane::Fifo(0), ms(9), "l0b");
        q.push(Lane::Fifo(1), ms(4), "l1");
        q.push(Lane::Fifo(2), ms(6), "l2a");
        q.push(Lane::Fifo(2), ms(7), "l2b");
        assert_eq!(q.pop(ms(1)), Some((ms(1), "l0a")));
        assert_eq!(q.next_at(), Some(ms(4)));
        assert_eq!(q.heads.len(), 3, "lane 0 still has a front");
        assert_eq!(q.pop(ms(4)), Some((ms(4), "l1")));
        assert_eq!(q.heads.len(), 2, "lane 1 left the index heap");
        assert_eq!(q.pop(ms(6)), Some((ms(6), "l2a")));
        assert_eq!(q.next_at(), Some(ms(7)));
        assert_eq!(drain(&mut q), [(ms(7), "l2b"), (ms(9), "l0b")]);
        assert!(q.heads.is_empty());
    }
}
