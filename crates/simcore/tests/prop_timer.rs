//! Property test for the two-lane timer queue: whatever lanes the
//! timers go into, they fire exactly as one binary heap keyed by
//! `(at, arming order)` fires them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simcore::timer::{Lane, TimerQueue};

proptest! {
    /// Each op is `(kind, far, dt)`: kinds 0–2 arm a timer `dt` µs after
    /// `now` in the lane `far` picks (`dt` in 0..8 makes equal instants
    /// across and within lanes common); kind 3 advances `now` by `dt`
    /// µs and pops everything due. Every pop, the head instant and the
    /// length must match the single-heap reference.
    #[test]
    fn two_lanes_fire_like_one_heap(
        ops in prop::collection::vec((0u8..4, any::<bool>(), 0u64..8), 1..400)
    ) {
        let mut queue = TimerQueue::new();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let drain = |queue: &mut TimerQueue<u64>,
                     reference: &mut BinaryHeap<Reverse<(SimTime, u64, u64)>>,
                     now: SimTime| {
            loop {
                let want = match reference.peek() {
                    Some(&Reverse((at, _, item))) if at <= now => {
                        reference.pop();
                        Some((at, item))
                    }
                    _ => None,
                };
                let got = queue.pop(now);
                assert_eq!(got, want, "pop at {now:?}");
                if got.is_none() {
                    break;
                }
            }
        };
        for (kind, far, dt) in ops {
            let dt = SimDuration::from_micros(dt);
            if kind < 3 {
                let lane = if far { Lane::Far } else { Lane::Near };
                // The payload is the arming index, so a pop names exactly
                // which timer fired.
                queue.push(lane, now + dt, seq);
                reference.push(Reverse((now + dt, seq, seq)));
                seq += 1;
            } else {
                now += dt;
                drain(&mut queue, &mut reference, now);
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(
                queue.next_at(),
                reference.peek().map(|&Reverse((at, _, _))| at)
            );
        }
        let in_order: Vec<u64> = queue.in_order().iter().map(|&(_, _, &item)| item).collect();
        let mut expected: Vec<_> = reference.iter().map(|&Reverse(e)| e).collect();
        expected.sort_unstable();
        prop_assert_eq!(in_order, expected.iter().map(|e| e.2).collect::<Vec<_>>());
        drain(&mut queue, &mut reference, SimTime::MAX);
        prop_assert!(queue.is_empty());
    }
}
