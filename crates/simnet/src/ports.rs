//! Ephemeral port allocation with TIME_WAIT accounting.
//!
//! The paper's benchmark procedure is shaped by this resource: "we can
//! have only about 60000 open sockets at a single point in time. When a
//! socket closes it enters the TIME-WAIT state for sixty seconds, so we
//! must avoid reaching the port number limitation. We therefore run each
//! benchmark for 35,000 connections, and then wait for all sockets to
//! leave the TIMEWAIT state" (§5). This module reproduces that limit.

use simcore::paged::PagedBits;

use crate::addr::Port;

/// Default start of the ephemeral range (Linux 2.2 used 1024).
pub const EPHEMERAL_LO: Port = 1024;
/// Default end (exclusive) of the ephemeral range.
pub const EPHEMERAL_HI: Port = 61024;

/// Allocates ephemeral ports and tracks TIME_WAIT occupancy.
///
/// Port membership lives in bitmaps indexed by port number, so nothing
/// hashes, walks a tree or allocates per release. The allocator keeps
/// no clock: whoever parks a port in TIME_WAIT also ends it, as
/// `Network` does from a timer lane armed at `close + time_wait`.
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
        }
    }

    /// Creates an allocator over the default ephemeral range.
    pub fn ephemeral() -> PortAllocator {
        PortAllocator::new(EPHEMERAL_LO, EPHEMERAL_HI)
    }

    /// Allocates a port, or `None` if the range is exhausted
    /// (everything is in use or in TIME_WAIT).
    pub fn alloc(&mut self) -> Option<Port> {
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

    /// Releases a bound port into TIME_WAIT, where it stays until
    /// [`PortAllocator::end_time_wait`]. Returns `false` (and does
    /// nothing) if the port was not bound.
    pub fn release_time_wait(&mut self, port: Port) -> bool {
        let bound = self.in_use.remove(usize::from(port));
        if bound {
            self.waiting.insert(usize::from(port));
        }
        bound
    }

    /// Ends a port's TIME_WAIT: it may be allocated again.
    pub fn end_time_wait(&mut self, port: Port) {
        self.waiting.remove(usize::from(port));
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

    /// Folds the allocator's semantic state into `h`. The port sets are
    /// folded as an order-independent XOR of per-port digests; TIME_WAIT
    /// expiries are timers, folded by their owner.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_ports() {
        let mut a = PortAllocator::new(10, 14);
        let mut got = vec![
            a.alloc().unwrap(),
            a.alloc().unwrap(),
            a.alloc().unwrap(),
            a.alloc().unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 12, 13]);
        assert_eq!(a.alloc(), None);
    }

    #[test]
    fn released_ports_are_reusable() {
        let mut a = PortAllocator::new(10, 12);
        let p = a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), None);
        a.release(p);
        assert_eq!(a.alloc(), Some(p));
    }

    #[test]
    fn time_wait_blocks_reuse_until_it_ends() {
        let mut a = PortAllocator::new(10, 11);
        let p = a.alloc().unwrap();
        assert!(a.release_time_wait(p));
        assert!(!a.release_time_wait(p), "a port enters TIME_WAIT once");
        assert_eq!(a.in_time_wait(), 1);
        assert_eq!(a.alloc(), None);
        a.end_time_wait(p);
        assert_eq!(a.alloc(), Some(p));
        assert_eq!(a.in_time_wait(), 0);
    }

    #[test]
    fn ended_time_wait_leaves_no_state_behind() {
        // Once its TIME_WAIT is over, a port is indistinguishable from
        // one released outright: nothing accumulates per expired port.
        let digest = |a: &PortAllocator| {
            let mut h = simcore::fingerprint::Fnv::new();
            a.fingerprint_into(&mut h);
            h.finish()
        };
        let mut waited = PortAllocator::new(10, 20);
        let p = waited.alloc().unwrap();
        waited.release_time_wait(p);
        waited.end_time_wait(p);
        let mut released = PortAllocator::new(10, 20);
        let q = released.alloc().unwrap();
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
    fn exhaustion_reproduces_paper_limit() {
        // Faster than 1000 conns/s with 60s TIME_WAIT exhausts a
        // 60000-port range in under a minute — the reason the paper ran
        // 35,000 connections per benchmark and then drained. Every port
        // here is still in TIME_WAIT when the range runs out.
        let mut a = PortAllocator::ephemeral();
        let mut parked = Vec::new();
        while let Some(p) = a.alloc() {
            a.release_time_wait(p);
            parked.push(p);
        }
        assert_eq!(parked.len(), 60_000, "exhausts exactly at the range size");
        // After the drain the allocator recovers fully.
        for p in parked {
            a.end_time_wait(p);
        }
        assert_eq!(a.in_time_wait(), 0);
        assert!(a.alloc().is_some());
    }
}
