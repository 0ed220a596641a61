//! Ephemeral port allocation with TIME_WAIT accounting.
//!
//! The paper's benchmark procedure is shaped by this resource: "we can
//! have only about 60000 open sockets at a single point in time. When a
//! socket closes it enters the TIME-WAIT state for sixty seconds, so we
//! must avoid reaching the port number limitation. We therefore run each
//! benchmark for 35,000 connections, and then wait for all sockets to
//! leave the TIMEWAIT state" (§5). This module reproduces that limit.

use std::collections::VecDeque;

use simcore::paged::PagedBits;
use simcore::time::SimTime;

use crate::addr::Port;

/// Default start of the ephemeral range (Linux 2.2 used 1024).
pub const EPHEMERAL_LO: Port = 1024;
/// Default end (exclusive) of the ephemeral range.
pub const EPHEMERAL_HI: Port = 61024;

/// Allocates ephemeral ports and tracks TIME_WAIT occupancy.
///
/// Port membership lives in bitmaps indexed by port number, and
/// TIME_WAIT is one deque in expiry order, so nothing hashes, walks a
/// tree or allocates per release. The TIME_WAIT interval is a constant,
/// so a release almost always appends; an earlier expiry (tests use
/// them) is inserted in place. Expiry checks only the deque's front.
#[derive(Debug, Clone)]
pub struct PortAllocator {
    lo: Port,
    hi: Port,
    next: Port,
    /// Ports currently bound to a live endpoint — ephemeral and
    /// well-known (`bind`) alike, so the bitmap grows to cover both.
    in_use: PagedBits,
    /// Ports in TIME_WAIT.
    waiting: PagedBits,
    /// TIME_WAIT entries in `(expiry, release)` order; several ports
    /// may share an expiry.
    time_wait: VecDeque<(SimTime, Port)>,
}

impl PortAllocator {
    /// Creates an allocator over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(lo: Port, hi: Port) -> PortAllocator {
        assert!(lo < hi, "empty port range");
        PortAllocator {
            lo,
            hi,
            next: lo,
            in_use: PagedBits::new(),
            waiting: PagedBits::new(),
            time_wait: VecDeque::new(),
        }
    }

    /// Creates an allocator over the default ephemeral range.
    pub fn ephemeral() -> PortAllocator {
        PortAllocator::new(EPHEMERAL_LO, EPHEMERAL_HI)
    }

    /// Expires TIME_WAIT entries due at or before `now`.
    pub fn expire(&mut self, now: SimTime) {
        while let Some(&(at, port)) = self.time_wait.front() {
            if at > now {
                break;
            }
            self.time_wait.pop_front();
            self.waiting.remove(usize::from(port));
        }
    }

    /// Allocates a port, or `None` if the range is exhausted
    /// (everything is in use or in TIME_WAIT).
    pub fn alloc(&mut self, now: SimTime) -> Option<Port> {
        self.expire(now);
        // Fast path: sweep the range once from `next`.
        let span = (self.hi - self.lo) as usize;
        for _ in 0..span {
            let p = self.next;
            self.next = if self.next + 1 >= self.hi {
                self.lo
            } else {
                self.next + 1
            };
            let ix = usize::from(p);
            if !self.in_use.contains(ix) && !self.waiting.contains(ix) {
                self.in_use.insert(ix);
                return Some(p);
            }
        }
        None
    }

    /// Marks a specific port as bound (for well-known server ports).
    ///
    /// Returns `false` if the port is already taken.
    pub fn bind(&mut self, port: Port) -> bool {
        self.in_use.insert(usize::from(port))
    }

    /// Releases a port into TIME_WAIT until `until`.
    pub fn release_time_wait(&mut self, port: Port, until: SimTime) {
        if !self.in_use.remove(usize::from(port)) {
            return;
        }
        // After every entry expiring at or before `until`: equal
        // expiries stay in release order.
        if self.time_wait.back().is_none_or(|&(at, _)| at <= until) {
            self.time_wait.push_back((until, port));
        } else {
            let at = self.time_wait.partition_point(|&(t, _)| t <= until);
            self.time_wait.insert(at, (until, port));
        }
        self.waiting.insert(usize::from(port));
    }

    /// Releases a port immediately (abortive close — no TIME_WAIT).
    pub fn release(&mut self, port: Port) {
        self.in_use.remove(usize::from(port));
    }

    /// Number of ports currently bound.
    pub fn in_use(&self) -> usize {
        self.in_use.count()
    }

    /// Number of ports sitting in TIME_WAIT.
    pub fn in_time_wait(&self) -> usize {
        self.waiting.count()
    }

    /// Earliest TIME_WAIT expiry, if any.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.time_wait.front().map(|&(at, _)| at)
    }

    /// Folds the allocator's semantic state into `h`. The port sets are
    /// folded as an order-independent XOR of per-port digests, and
    /// TIME_WAIT as one record per distinct expiry (its ports in release
    /// order).
    pub fn fingerprint_into(&self, h: &mut simcore::fingerprint::Fnv) {
        h.write_u64(u64::from(self.lo));
        h.write_u64(u64::from(self.hi));
        h.write_u64(u64::from(self.next));
        let xor_of = |set: &PagedBits| {
            let mut acc = 0u64;
            set.for_each_nonzero_word(|w, mut word| {
                while word != 0 {
                    let p = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    let mut e = simcore::fingerprint::Fnv::new();
                    e.write_u64(p as u64);
                    acc ^= e.finish();
                }
            });
            acc
        };
        h.write_len(self.in_use.count());
        h.write_u64(xor_of(&self.in_use));
        h.write_len(self.waiting.count());
        h.write_u64(xor_of(&self.waiting));
        let tw = &self.time_wait;
        let groups = (0..tw.len())
            .filter(|&i| i == 0 || tw[i - 1].0 != tw[i].0)
            .count();
        h.write_len(groups);
        let mut i = 0;
        while i < tw.len() {
            let at = tw[i].0;
            let n = tw.range(i..).take_while(|&&(t, _)| t == at).count();
            h.write_u64(at.as_nanos());
            h.write_len(n);
            for &(_, p) in tw.range(i..i + n) {
                h.write_u64(u64::from(p));
            }
            i += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    #[test]
    fn allocates_distinct_ports() {
        let mut a = PortAllocator::new(10, 14);
        let t = SimTime::ZERO;
        let mut got = vec![
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 12, 13]);
        assert_eq!(a.alloc(t), None);
    }

    #[test]
    fn released_ports_are_reusable() {
        let mut a = PortAllocator::new(10, 12);
        let t = SimTime::ZERO;
        let p = a.alloc(t).unwrap();
        a.alloc(t).unwrap();
        assert_eq!(a.alloc(t), None);
        a.release(p);
        assert_eq!(a.alloc(t), Some(p));
    }

    #[test]
    fn time_wait_blocks_reuse_until_expiry() {
        let mut a = PortAllocator::new(10, 11);
        let t0 = SimTime::ZERO;
        let p = a.alloc(t0).unwrap();
        let expiry = t0 + SimDuration::from_secs(60);
        a.release_time_wait(p, expiry);
        assert_eq!(a.in_time_wait(), 1);
        assert_eq!(a.alloc(SimTime::from_secs(59)), None);
        assert_eq!(a.alloc(expiry), Some(p));
        assert_eq!(a.in_time_wait(), 0);
    }

    #[test]
    fn expired_time_wait_leaves_no_state_behind() {
        // Once its TIME_WAIT is over, a port is indistinguishable from
        // one released outright: nothing accumulates per expired port.
        let digest = |a: &PortAllocator| {
            let mut h = simcore::fingerprint::Fnv::new();
            a.fingerprint_into(&mut h);
            h.finish()
        };
        let t0 = SimTime::ZERO;
        let mut waited = PortAllocator::new(10, 20);
        let p = waited.alloc(t0).unwrap();
        waited.release_time_wait(p, SimTime::from_secs(60));
        waited.expire(SimTime::from_secs(60));
        let mut released = PortAllocator::new(10, 20);
        let q = released.alloc(t0).unwrap();
        released.release(q);
        assert_eq!(digest(&waited), digest(&released));
    }

    #[test]
    fn bind_well_known_port() {
        let mut a = PortAllocator::new(10, 20);
        assert!(a.bind(80));
        assert!(!a.bind(80));
        a.release(80);
        assert!(a.bind(80));
    }

    #[test]
    fn next_expiry_reports_earliest() {
        let mut a = PortAllocator::new(10, 20);
        let t = SimTime::ZERO;
        let p1 = a.alloc(t).unwrap();
        let p2 = a.alloc(t).unwrap();
        a.release_time_wait(p1, SimTime::from_secs(60));
        a.release_time_wait(p2, SimTime::from_secs(30));
        assert_eq!(a.next_expiry(), Some(SimTime::from_secs(30)));
    }

    #[test]
    fn exhaustion_reproduces_paper_limit() {
        // Faster than 1000 conns/s with 60s TIME_WAIT exhausts a
        // 60000-port range in under a minute — the reason the paper ran
        // 35,000 connections per benchmark and then drained.
        let mut a = PortAllocator::ephemeral();
        let mut t = SimTime::ZERO;
        let mut failed_at = None;
        for i in 0..70_000u64 {
            t = SimTime::from_micros(i * 900); // ~1111 conns per second.
            match a.alloc(t) {
                Some(p) => a.release_time_wait(p, t + SimDuration::from_secs(60)),
                None => {
                    failed_at = Some(i);
                    break;
                }
            }
        }
        assert_eq!(
            failed_at,
            Some(60_000),
            "exhausts exactly at the range size"
        );
        // After the drain the allocator recovers fully.
        a.expire(t + SimDuration::from_secs(61));
        assert_eq!(a.in_time_wait(), 0);
        assert!(a.alloc(t + SimDuration::from_secs(61)).is_some());
    }
}
