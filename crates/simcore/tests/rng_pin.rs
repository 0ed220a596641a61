//! Float determinism pin: the first exponential inter-arrival draws of
//! the load generator's seed, bit for bit, and the nanoseconds they
//! become. `SimRng::exp` goes through the platform libm's `ln`, so a
//! host whose `ln` rounds differently changes arrival times and every
//! figure after them; this test is the tripwire. It lives under `tests/`
//! rather than in the library's unit tests so Miri, which deliberately
//! perturbs float results, never runs it.

use simcore::{SimDuration, SimRng};

/// `(f64::to_bits(draw), SimDuration::from_secs_f64(draw).as_nanos())`
/// for the first 16 `SimRng::new(42).exp(1e-3)` draws.
const PINNED: [(u64, u64); 16] = [
    (0x3f5b95bdfa50dced, 1683650),
    (0x3f392947ba521b84, 383930),
    (0x3f70e91f9a78b6d3, 4128573),
    (0x3f53c9bc219224ba, 1207765),
    (0x3f59d86a9c717703, 1577476),
    (0x3f4d10739ef941d6, 886970),
    (0x3f218e1692c7ceda, 133934),
    (0x3f4e7285e89039e0, 929179),
    (0x3f2e84b54389d8ce, 232836),
    (0x3f662fa0660c2f7b, 2708256),
    (0x3f4ade1bd0f06b78, 819934),
    (0x3f5f15ee9953eca6, 1897318),
    (0x3f52ab37f52108b8, 1139454),
    (0x3f12e44399b37385, 72065),
    (0x3f40e831b6cb6b32, 515960),
    (0x3f49e033f9eff2d3, 789666),
];

#[test]
fn exponential_draws_are_bit_identical() {
    let mut rng = SimRng::new(42);
    for (i, &(bits, nanos)) in PINNED.iter().enumerate() {
        let draw = rng.exp(1e-3);
        assert_eq!(
            draw.to_bits(),
            bits,
            "draw {i}: {draw:e} differs from the pinned value (platform libm `ln`?)"
        );
        assert_eq!(
            SimDuration::from_secs_f64(draw).as_nanos(),
            nanos,
            "draw {i}"
        );
    }
}
