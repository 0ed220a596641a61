//! Acceptance test for walks (`simcheck explore --walks`): seeded
//! random schedules replayed through explore's worlds must pass on
//! clean backends and catch a deliberately injected bug — `/dev/poll`
//! serving cached poll results without revalidating them (the exact
//! bug class §3.2's "results … have to be reevaluated each time" warns
//! about) — shrunk to a minimal replayable schedule.
//!
//! The bug is injected through `DevPollRegistry::testhook_skip_revalidation`,
//! a doc-hidden hook that bypasses the runtime auditor too, so only the
//! reference model can catch it — which is the point.

use devpoll::{DevPollConfig, DevPollRegistry, DvPoll, PollFd};
use simcheck::explore::{self, DivergenceKind, ExploreConfig, ExploreStats};
use simcheck::lane::Mutant;
use simcheck::script::{self, Op};
use simcore::time::SimTime;
use simkernel::{CostModel, Kernel, PollBits};
use simnet::HostId;

const SEEDS: u64 = 40;

fn cfg(mutant: Mutant) -> ExploreConfig {
    ExploreConfig {
        mutant,
        ..ExploreConfig::quick()
    }
}

/// Runs the first 10 walks on clean worlds built by `cfg`; all must
/// conform and check real boundaries.
fn clean_walks(cfg: &ExploreConfig) -> ExploreStats {
    let walks = explore::walks(0..10, cfg);
    if let Some(f) = &walks.shortest {
        panic!(
            "clean backends must conform on every walk:\n{}",
            explore::render_failure(f, cfg)
        );
    }
    assert!(
        walks.stats.boundaries > 0,
        "walks must check real boundaries"
    );
    walks.stats
}

#[test]
fn clean_walks_pass_with_the_auditor_and_lockdep_live() {
    let stats = clean_walks(&cfg(Mutant::None));
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
    // Some walk in a bounded range must expose the stale-cache bug...
    let cfg = cfg(Mutant::SkipRevalidation);
    let walks = explore::walks(0..SEEDS, &cfg);
    let failure = walks
        .shortest
        .expect("a bounded range of walks must catch the injected stale-cache bug");

    // ...in a /dev/poll lane (the hook only affects cached results, and
    // only the hinted+cached configuration serves them), as a ready set
    // that differs from the model's.
    assert_eq!(
        failure.lane, "devpoll",
        "stale cached results are a devpoll-lane bug"
    );
    let DivergenceKind::Snapshot { expected, got } = &failure.kind else {
        panic!("expected a ready-set divergence, got {:?}", failure.kind);
    };
    assert_ne!(expected, got);

    // The shrunk schedule is shorter than any generated walk and ends
    // at the boundary where the stale result shows up.
    let walk_len = script::generate(0, cfg.conns).len();
    assert!(
        failure.schedule.len() < walk_len,
        "shrinking should drop most of the {walk_len} ops"
    );
    assert_eq!(failure.schedule.last(), Some(&Op::Poll));

    // It survives the token encoding, still fails under the mutant, and
    // passes once the bug is removed.
    let decoded = script::parse(&script::encode(&failure.schedule))
        .unwrap_or_else(|e| panic!("encoded schedule must re-parse: {e}"));
    assert_eq!(decoded, failure.schedule);
    assert!(
        explore::replay(&decoded, &cfg).is_err(),
        "the shrunk schedule must still reproduce the divergence"
    );
    assert!(
        explore::replay(&decoded, &ExploreConfig::quick()).is_ok(),
        "the shrunk schedule must pass once the bug is removed"
    );
}

#[test]
fn walks_conform_at_elevated_fd_offsets() {
    // The million lane parks descriptors at indexes the old dense
    // tables never reached; readiness semantics must not notice. Clean
    // walks must pass with descriptors numbered from 10^6 (select sits
    // out — FD_SETSIZE is a real wall, not a divergence), and the
    // injected stale-cache bug must still be caught there.
    let at_million = |mutant| ExploreConfig {
        fd_base: 1_000_000,
        ..cfg(mutant)
    };
    clean_walks(&at_million(Mutant::None));

    let caught = explore::walks(0..SEEDS, &at_million(Mutant::SkipRevalidation)).failing > 0;
    assert!(caught, "the stale-cache bug must be visible at any fd base");
}
