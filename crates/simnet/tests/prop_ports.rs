//! Property test: the bitmap `PortAllocator` is observably a hash-set
//! allocator.
//!
//! `Reference` below is that model: the allocator's earlier hash-set
//! form, minus the TIME_WAIT expiry queue (expiries are network timers
//! now, pinned in `timer_lanes.rs`). Both are driven through the same
//! random interleavings of `alloc`, `bind` (in-range and well-known
//! ports), `release`, `release_time_wait` and `end_time_wait` over a
//! range small enough to exhaust, and must agree after every operation
//! on the allocated port, every return value, the counts and the state
//! fingerprint.

use std::collections::HashSet;

use proptest::prelude::*;
use simcore::fingerprint::Fnv;
use simnet::{Port, PortAllocator};

/// The allocator as a pair of hash sets.
struct Reference {
    lo: Port,
    hi: Port,
    next: Port,
    in_use: HashSet<Port>,
    waiting: HashSet<Port>,
}

impl Reference {
    fn new(lo: Port, hi: Port) -> Reference {
        Reference {
            lo,
            hi,
            next: lo,
            in_use: HashSet::new(),
            waiting: HashSet::new(),
        }
    }

    fn alloc(&mut self) -> Option<Port> {
        let span = (self.hi - self.lo) as usize;
        for _ in 0..span {
            let p = self.next;
            self.next = if self.next + 1 >= self.hi {
                self.lo
            } else {
                self.next + 1
            };
            if !self.in_use.contains(&p) && !self.waiting.contains(&p) {
                self.in_use.insert(p);
                return Some(p);
            }
        }
        None
    }

    fn bind(&mut self, port: Port) -> bool {
        self.in_use.insert(port)
    }

    fn release_time_wait(&mut self, port: Port) -> bool {
        let bound = self.in_use.remove(&port);
        if bound {
            self.waiting.insert(port);
        }
        bound
    }

    fn end_time_wait(&mut self, port: Port) {
        self.waiting.remove(&port);
    }

    fn release(&mut self, port: Port) {
        self.in_use.remove(&port);
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        h.write_u64(u64::from(self.lo));
        h.write_u64(u64::from(self.hi));
        h.write_u64(u64::from(self.next));
        let xor_of = |set: &HashSet<Port>| {
            set.iter().fold(0u64, |acc, &p| {
                let mut e = Fnv::new();
                e.write_u64(u64::from(p));
                acc ^ e.finish()
            })
        };
        h.write_len(self.in_use.len());
        h.write_u64(xor_of(&self.in_use));
        h.write_len(self.waiting.len());
        h.write_u64(xor_of(&self.waiting));
    }
}

const LO: Port = 10;
const HI: Port = 16;
/// Ports the operations name: the whole range, one past each end and
/// three well-known ports outside it.
const PORTS: [Port; 11] = [9, 10, 11, 12, 13, 14, 15, 16, 80, 443, 8080];

/// One operation: `(kind, port index)`.
type Op = (u8, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0usize..PORTS.len()), 1..250)
}

fn digest_new(a: &PortAllocator) -> u64 {
    let mut h = Fnv::new();
    a.fingerprint_into(&mut h);
    h.finish()
}

fn digest_ref(r: &Reference) -> u64 {
    let mut h = Fnv::new();
    r.fingerprint_into(&mut h);
    h.finish()
}

/// What a run exercised, so coverage can be asserted.
#[derive(Default)]
struct Coverage {
    exhausted: usize,
    /// Allocations refused while some port sat in TIME_WAIT.
    blocked_by_time_wait: usize,
    parked: usize,
    ended: usize,
}

/// Drives both allocators through `ops`, asserting agreement after
/// every step.
fn run_both(ops: &[Op]) -> Coverage {
    let mut new = PortAllocator::new(LO, HI);
    let mut old = Reference::new(LO, HI);
    let mut cov = Coverage::default();
    for (step, &(kind, pi)) in ops.iter().enumerate() {
        let port = PORTS[pi];
        match kind {
            0 | 1 => {
                let got = new.alloc();
                assert_eq!(got, old.alloc(), "step {step}: alloc");
                cov.exhausted += usize::from(got.is_none());
                cov.blocked_by_time_wait += usize::from(got.is_none() && !old.waiting.is_empty());
            }
            2 => assert_eq!(new.bind(port), old.bind(port), "step {step}: bind {port}"),
            3 => {
                new.release(port);
                old.release(port);
            }
            4 => {
                let parked = new.release_time_wait(port);
                assert_eq!(
                    parked,
                    old.release_time_wait(port),
                    "step {step}: release_time_wait {port}"
                );
                cov.parked += usize::from(parked);
            }
            _ => {
                cov.ended += usize::from(old.waiting.contains(&port));
                new.end_time_wait(port);
                old.end_time_wait(port);
            }
        }
        assert_eq!(new.in_use(), old.in_use.len(), "step {step}: in_use");
        assert_eq!(
            new.in_time_wait(),
            old.waiting.len(),
            "step {step}: in_time_wait"
        );
        assert_eq!(
            digest_new(&new),
            digest_ref(&old),
            "step {step}: fingerprint"
        );
    }
    cov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitmap_allocator_matches_reference(ops in ops()) {
        run_both(&ops);
    }
}

/// The generated interleavings reach every branch worth checking:
/// exhaustion, an allocation refused while ports wait, and TIME_WAIT
/// entered and ended.
#[test]
fn generated_ops_cover_exhaustion_and_time_wait() {
    let mut total = Coverage::default();
    for case in 0..64 {
        let mut rng = proptest::Rng::for_case("prop_ports::coverage", case);
        let cov = run_both(&ops().generate(&mut rng));
        total.exhausted += cov.exhausted;
        total.blocked_by_time_wait += cov.blocked_by_time_wait;
        total.parked += cov.parked;
        total.ended += cov.ended;
    }
    assert!(total.exhausted > 0, "no alloc ever hit exhaustion");
    assert!(
        total.blocked_by_time_wait > 0,
        "no alloc was refused while a port waited"
    );
    assert!(total.parked > 0, "no port ever entered TIME_WAIT");
    assert!(total.ended > 0, "no TIME_WAIT ever ended");
}
