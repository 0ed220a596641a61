//! A lockdep-style lock-order recorder for the `/dev/poll` locking
//! scheme.
//!
//! The paper's implementation serializes the backmapping lists with one
//! global rwlock and calls per-socket locks "an obvious refinement"
//! (§3.2). That refinement is exactly where an AB/BA deadlock can sneak
//! in: the scan path takes the backmap lock and then touches sockets,
//! while the driver event path starts from a socket. This module records
//! every simulated acquisition as an ordering edge between lock
//! *classes* (as Linux lockdep does) and detects cycles, so the
//! per-socket-lock refinement can land with a deadlock detector already
//! watching it.
//!
//! Recording is wired into [`crate::device`] for checked registries
//! (see [`crate::audit`]); tools and tests can also use the graph
//! directly.

/// A lock class (lockdep granularity: all per-socket locks are one
/// class, whatever socket they guard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// The global backmap rwlock of §3.2.
    Backmap,
    /// A per-socket backmap lock (the §3.2 refinement).
    Socket,
    /// The interest hash-table lock.
    InterestTable,
}

impl LockClass {
    /// Every class, in `Ord` order (the bit order of [`LockGraph`]'s
    /// edge masks).
    const ALL: [LockClass; 3] = [
        LockClass::Backmap,
        LockClass::Socket,
        LockClass::InterestTable,
    ];

    fn bit(self) -> u8 {
        1 << self as u8
    }

    fn name(self) -> &'static str {
        match self {
            LockClass::Backmap => "backmap",
            LockClass::Socket => "socket",
            LockClass::InterestTable => "interest-table",
        }
    }
}

/// One recorded ordering violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderViolation {
    /// The acquisition that closed a cycle.
    pub acquired: LockClass,
    /// A lock already held that `acquired` is ordered before elsewhere.
    pub held: LockClass,
}

impl std::fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lock-order inversion: acquired {} while holding {}, but {} -> {} was recorded earlier",
            self.acquired.name(),
            self.held.name(),
            self.acquired.name(),
            self.held.name()
        )
    }
}

/// The lock-order graph of one simulated kernel context.
///
/// `acquire`/`release` model a single thread of execution (the
/// simulation is single-threaded); edges accumulate across the whole
/// run, so an AB order in one code path and a BA order in another are
/// caught even though no two threads ever actually interleave.
#[derive(Debug, Default, Clone)]
pub struct LockGraph {
    /// held-before edges, one bitmask of successors per class: bit `b`
    /// of `edges[a]` means `b` was acquired while `a` was held.
    edges: [u8; LockClass::ALL.len()],
    held: Vec<LockClass>,
    violations: Vec<OrderViolation>,
    acquisitions: u64,
}

impl LockGraph {
    /// Creates an empty graph.
    pub fn new() -> LockGraph {
        LockGraph::default()
    }

    /// Records acquiring a lock of `class` while everything previously
    /// acquired (and not yet released) is still held.
    pub fn acquire(&mut self, class: LockClass) {
        self.acquisitions += 1;
        for &held in &self.held {
            if held == class {
                // Recursive same-class acquisition: rwlock read sides
                // allow it; not an ordering edge.
                continue;
            }
            // Before inserting held -> class, check the reverse path:
            // if class already reaches held, this acquisition inverts an
            // established order.
            if self.reaches(class, held) {
                self.violations.push(OrderViolation {
                    acquired: class,
                    held,
                });
            }
            self.edges[held as usize] |= class.bit();
        }
        self.held.push(class);
    }

    /// Records releasing the most recent acquisition of `class`.
    pub fn release(&mut self, class: LockClass) {
        if let Some(pos) = self.held.iter().rposition(|&c| c == class) {
            self.held.remove(pos);
        }
    }

    /// Whether `from` reaches `to` through recorded held-before edges.
    fn reaches(&self, from: LockClass, to: LockClass) -> bool {
        // Grow the reached set by every reached class's successors until
        // it stops growing.
        let mut reached = from.bit();
        loop {
            let grown = LockClass::ALL
                .iter()
                .filter(|c| reached & c.bit() != 0)
                .fold(reached, |m, &c| m | self.edges[c as usize]);
            if grown == reached {
                return reached & to.bit() != 0;
            }
            reached = grown;
        }
    }

    /// Ordering violations recorded so far.
    pub fn violations(&self) -> &[OrderViolation] {
        &self.violations
    }

    /// Total acquisitions recorded (evidence the recorder is wired in).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Recorded held-before edges as `(held, then_acquired)` pairs.
    pub fn edges(&self) -> Vec<(LockClass, LockClass)> {
        LockClass::ALL
            .iter()
            .flat_map(|&a| {
                LockClass::ALL
                    .iter()
                    .filter(move |b| self.edges[a as usize] & b.bit() != 0)
                    .map(move |&b| (a, b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_order_is_clean() {
        let mut g = LockGraph::new();
        for _ in 0..3 {
            g.acquire(LockClass::Backmap);
            g.acquire(LockClass::Socket);
            g.release(LockClass::Socket);
            g.release(LockClass::Backmap);
        }
        assert!(g.violations().is_empty());
        assert_eq!(g.acquisitions(), 6);
        assert_eq!(g.edges(), vec![(LockClass::Backmap, LockClass::Socket)]);
    }

    #[test]
    fn inverted_order_is_detected() {
        let mut g = LockGraph::new();
        g.acquire(LockClass::Backmap);
        g.acquire(LockClass::Socket);
        g.release(LockClass::Socket);
        g.release(LockClass::Backmap);
        // The driver event path taking socket -> backmap would deadlock
        // against the scan path above.
        g.acquire(LockClass::Socket);
        g.acquire(LockClass::Backmap);
        assert_eq!(
            g.violations(),
            &[OrderViolation {
                acquired: LockClass::Backmap,
                held: LockClass::Socket,
            }]
        );
    }

    #[test]
    fn transitive_inversion_is_detected() {
        let mut g = LockGraph::new();
        g.acquire(LockClass::Backmap);
        g.acquire(LockClass::InterestTable);
        g.release(LockClass::InterestTable);
        g.release(LockClass::Backmap);
        g.acquire(LockClass::InterestTable);
        g.acquire(LockClass::Socket);
        g.release(LockClass::Socket);
        g.release(LockClass::InterestTable);
        // backmap -> interest-table -> socket established; socket ->
        // backmap closes the loop.
        g.acquire(LockClass::Socket);
        g.acquire(LockClass::Backmap);
        assert_eq!(g.violations().len(), 1);
    }

    #[test]
    fn recursive_read_acquisition_is_not_an_edge() {
        let mut g = LockGraph::new();
        g.acquire(LockClass::Backmap);
        g.acquire(LockClass::Backmap);
        g.release(LockClass::Backmap);
        g.release(LockClass::Backmap);
        assert!(g.violations().is_empty());
        assert!(g.edges().is_empty());
    }
}
