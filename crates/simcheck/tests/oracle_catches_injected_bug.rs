//! Acceptance test for the differential oracle: a deliberately injected
//! bug — `/dev/poll` serving cached poll results without revalidating
//! them (the exact bug class §3.2's "results … have to be reevaluated
//! each time" warns about) — must be caught by lane divergence and
//! shrunk to a minimal reproducing script.
//!
//! The bug is injected through `DevPollRegistry::testhook_skip_revalidation`,
//! a doc-hidden hook that bypasses the runtime auditor too, so only the
//! differential comparison can catch it — which is the point.

use devpoll::{DevPollConfig, DevPollRegistry, DvPoll, PollFd};
use simcheck::oracle::{self, Failure, Mutant};
use simcheck::script::{Op, ScriptConfig};
use simcore::time::SimTime;
use simkernel::{CostModel, Kernel, PollBits};
use simnet::HostId;

const CFG: ScriptConfig = ScriptConfig { conns: 4, ops: 30 };
const SEEDS: u64 = 40;

#[test]
fn clean_build_passes_the_sweep() {
    let stats = oracle::sweep(0..10, CFG, Mutant::None).unwrap_or_else(|f| {
        panic!(
            "clean backends must agree on every boundary:\n{}",
            oracle::render_failure(&f)
        )
    });
    assert!(stats.boundaries > 0, "sweep must compare real boundaries");
    // Summed from each lane's `DevPollRegistry::audit_checks`.
    assert!(stats.audit_checks > 0, "invariant auditor must be live");
    assert!(stats.lock_acquisitions > 0, "lockdep graph must be live");
}

#[test]
fn audit_checks_are_counted_by_the_registry_not_the_probes() {
    let t = SimTime::ZERO;
    let mut kernel = Kernel::new(HostId(1), CostModel::k6_2_400mhz());
    let pid = kernel.spawn_default();
    let mut registry = DevPollRegistry::audited();
    kernel.begin_batch(t, pid);
    let dpfd = registry
        .open(&mut kernel, pid, DevPollConfig::default())
        .expect("open /dev/poll");
    registry
        .write(&mut kernel, pid, dpfd, &[PollFd::new(7, PollBits::POLLIN)])
        .expect("write interest");
    registry
        .dp_poll(&mut kernel, pid, dpfd, DvPoll::into_user_buffer(8, 0))
        .expect("DP_POLL");
    assert!(registry.audit_checks() > 0, "audited registry must check");
    assert!(
        registry.lockdep().acquisitions() > 0,
        "and record lock order"
    );
    let probes = kernel.probe().snapshot().to_json_lines();
    assert!(
        !probes.contains("\"audit."),
        "the auditor must leave the probes untouched:\n{probes}"
    );
}

#[test]
fn skipped_revalidation_is_caught_and_shrunk() {
    // Some seed in a bounded sweep must expose the stale-cache bug...
    let failure = oracle::sweep(0..SEEDS, CFG, Mutant::SkipRevalidation)
        .expect_err("a bounded sweep must catch the injected stale-cache bug");

    // ...in a /dev/poll lane (the hook only affects cached results, and
    // only the hinted+cached configuration serves them).
    let Failure::Divergence(d) = &failure.failure else {
        panic!("expected a lane divergence, got {:?}", failure.failure);
    };
    assert_eq!(
        d.lane, "devpoll",
        "stale cached results are a devpoll-lane bug"
    );

    // The shrunk script must still fail, be no longer than the
    // generated one, and end at a Poll boundary where the stale result
    // shows up.
    let full_len = simcheck::script::generate(failure.seed, CFG).len();
    assert!(failure.minimal.len() <= full_len);
    assert!(
        failure.minimal.len() < full_len,
        "shrinking should drop at least some of the {full_len} ops"
    );
    assert!(
        failure.minimal.contains(&Op::Poll),
        "a divergence needs a comparison boundary"
    );
    assert!(
        oracle::run_script(&failure.minimal, CFG.conns, Mutant::SkipRevalidation).is_err(),
        "the minimal script must still reproduce the divergence"
    );
    assert!(
        oracle::run_script(&failure.minimal, CFG.conns, Mutant::None).is_ok(),
        "the minimal script must pass once the bug is removed"
    );

    // The report names the stale extra readiness: the devpoll lane
    // claims more (or different) readiness than the rescanning
    // reference.
    assert_ne!(d.expected, d.got);
}

#[test]
fn lanes_agree_at_elevated_fd_offsets() {
    // The million lane parks descriptors at indexes the old dense
    // tables never reached; readiness semantics must not notice. Every
    // clean script that passes at base 0 must pass with descriptors
    // numbered from 10^6 (select sits out — FD_SETSIZE is a real wall,
    // not a divergence), and the injected stale-cache bug must still be
    // caught there.
    let mut boundaries = 0;
    for seed in 0..10 {
        let ops = simcheck::script::generate(seed, CFG);
        let stats = oracle::run_script_at(&ops, CFG.conns, Mutant::None, 1_000_000)
            .unwrap_or_else(|f| panic!("seed {seed} diverged at fd base 10^6:\n{f:?}"));
        boundaries += stats.boundaries;
    }
    assert!(boundaries > 0, "the sweep must compare real boundaries");

    let caught = (0..SEEDS).any(|seed| {
        let ops = simcheck::script::generate(seed, CFG);
        oracle::run_script_at(&ops, CFG.conns, Mutant::SkipRevalidation, 1_000_000).is_err()
    });
    assert!(caught, "the stale-cache bug must be visible at any fd base");
}
