//! Property test: the bitmap/deque `PortAllocator` is observably the
//! hash-set/tree allocator it replaced.
//!
//! `Reference` below is that earlier allocator, kept verbatim as the
//! model. Both are driven through the same random interleavings of
//! `alloc`, `bind` (in-range and well-known ports), `release`,
//! `release_time_wait` (with out-of-order and equal expiries) and
//! `expire` over a range small enough to exhaust, and must agree after
//! every operation on the allocated port, the counts, the next expiry
//! and the state fingerprint.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;
use simcore::fingerprint::Fnv;
use simcore::time::SimTime;
use simnet::{Port, PortAllocator};

/// The allocator as it was before the bitmap/deque rewrite.
struct Reference {
    lo: Port,
    hi: Port,
    next: Port,
    in_use: HashSet<Port>,
    time_wait: BTreeMap<SimTime, Vec<Port>>,
    waiting: HashSet<Port>,
}

impl Reference {
    fn new(lo: Port, hi: Port) -> Reference {
        Reference {
            lo,
            hi,
            next: lo,
            in_use: HashSet::new(),
            time_wait: BTreeMap::new(),
            waiting: HashSet::new(),
        }
    }

    fn expire(&mut self, now: SimTime) {
        match self.time_wait.first_key_value() {
            Some((&t, _)) if t <= now => {}
            _ => return,
        }
        let still_waiting = self
            .time_wait
            .split_off(&SimTime::from_nanos(now.as_nanos() + 1));
        for (_t, ports) in std::mem::replace(&mut self.time_wait, still_waiting) {
            for p in ports {
                self.waiting.remove(&p);
            }
        }
    }

    fn alloc(&mut self, now: SimTime) -> Option<Port> {
        self.expire(now);
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
        if self.in_use.contains(&port) {
            return false;
        }
        self.in_use.insert(port);
        true
    }

    fn release_time_wait(&mut self, port: Port, until: SimTime) {
        if self.in_use.remove(&port) {
            self.time_wait.entry(until).or_default().push(port);
            self.waiting.insert(port);
        }
    }

    fn release(&mut self, port: Port) {
        self.in_use.remove(&port);
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.time_wait.keys().next().copied()
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
        h.write_len(self.time_wait.len());
        for (at, ports) in &self.time_wait {
            h.write_u64(at.as_nanos());
            h.write_len(ports.len());
            for &p in ports {
                h.write_u64(u64::from(p));
            }
        }
    }
}

const LO: Port = 10;
const HI: Port = 16;
/// Ports the operations name: the whole range, one past each end and
/// three well-known ports outside it.
const PORTS: [Port; 11] = [9, 10, 11, 12, 13, 14, 15, 16, 80, 443, 8080];

/// One operation: `((kind, port index), (clock step, TIME_WAIT length))`,
/// times in seconds.
type Op = ((u8, usize), (u64, u64));

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(((0u8..6, 0usize..PORTS.len()), (0u64..3, 0u64..5)), 1..250)
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
    out_of_order: usize,
    equal_expiry: usize,
    expired: usize,
}

/// Drives both allocators through `ops`, asserting agreement after
/// every step.
fn run_both(ops: &[Op]) -> Coverage {
    let mut new = PortAllocator::new(LO, HI);
    let mut old = Reference::new(LO, HI);
    let mut cov = Coverage::default();
    let mut secs = 0;
    for (step, &((kind, pi), (dt, tw))) in ops.iter().enumerate() {
        secs += dt;
        let now = SimTime::from_secs(secs);
        let port = PORTS[pi];
        match kind {
            0 | 1 => {
                let got = new.alloc(now);
                assert_eq!(got, old.alloc(now), "step {step}: alloc at {now:?}");
                cov.exhausted += usize::from(got.is_none());
            }
            2 => assert_eq!(new.bind(port), old.bind(port), "step {step}: bind {port}"),
            3 => {
                new.release(port);
                old.release(port);
            }
            4 => {
                let until = SimTime::from_secs(secs + tw);
                if old.in_use.contains(&port) {
                    match old.time_wait.last_key_value() {
                        Some((&last, _)) if last > until => cov.out_of_order += 1,
                        _ => {}
                    }
                    cov.equal_expiry += usize::from(old.time_wait.contains_key(&until));
                }
                new.release_time_wait(port, until);
                old.release_time_wait(port, until);
            }
            _ => {
                let before = old.waiting.len();
                new.expire(now);
                old.expire(now);
                cov.expired += before - old.waiting.len();
            }
        }
        assert_eq!(new.in_use(), old.in_use.len(), "step {step}: in_use");
        assert_eq!(
            new.in_time_wait(),
            old.waiting.len(),
            "step {step}: in_time_wait"
        );
        assert_eq!(
            new.next_expiry(),
            old.next_expiry(),
            "step {step}: next_expiry"
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
/// exhaustion, out-of-order and equal TIME_WAIT expiries, and expiry.
#[test]
fn generated_ops_cover_exhaustion_and_reordering() {
    let mut total = Coverage::default();
    for case in 0..64 {
        let mut rng = proptest::Rng::for_case("prop_ports::coverage", case);
        let cov = run_both(&ops().generate(&mut rng));
        total.exhausted += cov.exhausted;
        total.out_of_order += cov.out_of_order;
        total.equal_expiry += cov.equal_expiry;
        total.expired += cov.expired;
    }
    assert!(total.exhausted > 0, "no alloc ever hit exhaustion");
    assert!(total.out_of_order > 0, "no out-of-order TIME_WAIT expiry");
    assert!(total.equal_expiry > 0, "no shared TIME_WAIT expiry");
    assert!(total.expired > 0, "no TIME_WAIT entry ever expired");
}
