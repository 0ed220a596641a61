//! The million lane's first point keeps the load generator's ledger:
//! with 10^4 held-open connections, every active attempt still ends as
//! exactly one reply or one error class, or is in flight at the end.

use bench::figures::{million_kinds, million_params};

#[test]
fn million_lane_attempts_resolve_exactly_once() {
    for kind in million_kinds() {
        let r = httperf::run_one(million_params(42, kind, 10_000));
        assert_eq!(
            r.attempted,
            r.replies + r.errors.total() + r.in_flight,
            "{}: replies {} errors {:?} in flight {}",
            r.server,
            r.replies,
            r.errors,
            r.in_flight
        );
    }
}
