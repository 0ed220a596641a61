//! Property test for the lane timer queue: whatever lanes the timers
//! go into, and whether a lane's pushes arrive in order or fall back to
//! the heap, they fire exactly as one binary heap keyed by
//! `(at, arming order)` fires them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simcore::timer::{Lane, TimerQueue};

/// FIFO lane ids the test pushes to.
const LANES: usize = 4;

proptest! {
    /// Each op is `(kind, lane, dt)`, `dt` in µs:
    ///
    /// * kinds 0–4 arm a timer in FIFO lane `lane` at `dt` past the later
    ///   of `now` and the last instant armed in that lane, so each lane's
    ///   instants mostly rise;
    /// * kind 5 arms one in lane `lane` at `now + dt`, which falls below
    ///   the lane's tail whenever the lane runs ahead of `now` — the
    ///   fallback path;
    /// * kind 6 arms one in the fallback heap at `now + dt`;
    /// * kind 7 advances `now` by `dt` and pops once.
    ///
    /// `dt` in 0..3 makes equal instants across and within lanes
    /// common. After every op, the pop, `next_at`, `len` and `in_order`
    /// must match a single-heap reference.
    #[test]
    fn lanes_fire_like_one_heap(
        ops in prop::collection::vec((0u8..8, 0..LANES, 0u64..3), 1..200)
    ) {
        let mut queue = TimerQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut tails = [SimTime::ZERO; LANES];
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        for (kind, lane, dt) in ops {
            let dt = SimDuration::from_micros(dt);
            if kind == 7 {
                now += dt;
                let want = match reference.peek() {
                    Some(&Reverse((at, id))) if at <= now => {
                        reference.pop();
                        Some((at, id))
                    }
                    _ => None,
                };
                prop_assert_eq!(queue.pop(now), want);
            } else {
                let (target, at) = match kind {
                    0..=4 => (Lane::Fifo(lane), tails[lane].max(now) + dt),
                    5 => (Lane::Fifo(lane), now + dt),
                    _ => (Lane::Fallback, now + dt),
                };
                if let Lane::Fifo(id) = target {
                    tails[id] = tails[id].max(at);
                }
                // The payload is the arming index, so a pop names exactly
                // which timer fired.
                queue.push(target, at, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.is_empty());
            prop_assert_eq!(
                queue.next_at(),
                reference.peek().map(|&Reverse((at, _))| at)
            );
            let in_order: Vec<(SimTime, u64)> = queue
                .in_order()
                .iter()
                .map(|&(at, seq, &item)| {
                    assert_eq!(seq, item, "in_order reports the arming index");
                    (at, item)
                })
                .collect();
            let mut expected: Vec<_> = reference.iter().map(|&Reverse(e)| e).collect();
            expected.sort_unstable();
            prop_assert_eq!(in_order, expected);
        }
        while let Some(Reverse((at, id))) = reference.pop() {
            prop_assert_eq!(queue.pop(SimTime::MAX), Some((at, id)));
        }
        prop_assert_eq!(queue.pop(SimTime::MAX), None);
        prop_assert!(queue.is_empty());
    }
}
