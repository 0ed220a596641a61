//! Acceptance test for `simcheck explore`: every seeded /dev/poll fault
//! must be caught by exhaustive exploration with a **minimal**
//! counterexample (iterative deepening guarantees no shorter schedule
//! fails), the counterexample must replay through the token encoding,
//! and seeded walks must catch every fault too — yet never shrink to a
//! shorter schedule than exhaustive search finds.
//!
//! The release-mode CI job re-runs the comparison at 200 walks
//! (`simcheck mutants --seeds 200`); this test uses fewer so debug-mode
//! `cargo test` stays quick. Both sides count their accepts as ops.

use simcheck::explore::{self, DivergenceKind, ExploreConfig};
use simcheck::lane::Mutant;
use simcheck::script;

const WALKS: u64 = 40;

fn cfg(mutant: Mutant) -> ExploreConfig {
    ExploreConfig {
        conns: 2,
        depth: 6,
        mutant,
        ..ExploreConfig::quick()
    }
}

/// The shortest shrunk walk over a bounded range of seeds; `None` if no
/// walk fails.
fn walk_minimal(mutant: Mutant) -> Option<usize> {
    let walks = explore::walks(
        0..WALKS,
        &ExploreConfig {
            mutant,
            ..ExploreConfig::quick()
        },
    );
    walks.shortest.map(|f| f.schedule.len())
}

/// Every seeded fault with its known minimal counterexample length and
/// whether it shows as a watcher leak (rather than a ready-set split).
const FAULTS: [(Mutant, usize, bool); 3] = [
    (Mutant::SkipRevalidation, 6, false),
    (Mutant::OrInsteadOfReplace, 4, false),
    (Mutant::SkipBackmapPurge, 4, true),
];

/// Explore must catch `FAULTS[i]` with a counterexample of exactly the
/// known minimal length that replays through the token encoding.
fn assert_caught_minimal_and_replayable(i: usize) {
    let (mutant, expected_len, is_watcher_leak) = FAULTS[i];
    let cfg = cfg(mutant);
    let cx = explore::find_minimal_counterexample(&cfg)
        .unwrap_or_else(|| panic!("explore must catch `{}`", mutant.name()));
    let schedule = &cx.failure.schedule;
    assert_eq!(
        schedule.len(),
        expected_len,
        "`{}` has a known minimal counterexample length",
        mutant.name()
    );
    assert_eq!(
        cx.depth, expected_len,
        "iterative deepening finds the failure exactly at the minimal depth"
    );
    assert_eq!(
        cx.failure.lane, "devpoll",
        "all seeded faults live in /dev/poll"
    );
    assert_eq!(
        matches!(cx.failure.kind, DivergenceKind::WatcherLeak { .. }),
        is_watcher_leak,
        "`{}` has a known divergence shape",
        mutant.name()
    );

    // The counterexample survives the token encoding and replays to the
    // same verdict: failing under the mutant...
    let tokens = script::encode(schedule);
    let decoded =
        script::parse(&tokens).unwrap_or_else(|e| panic!("encoded schedule must re-parse: {e}"));
    assert_eq!(&decoded, schedule);
    assert!(
        explore::replay(&decoded, &cfg).is_err(),
        "`{}` counterexample must reproduce from its token form",
        mutant.name()
    );
    // ...and clean on unmutated worlds, so the schedule indicts the
    // fault rather than the alphabet.
    let clean = ExploreConfig {
        mutant: Mutant::None,
        ..cfg
    };
    assert!(
        explore::replay(&decoded, &clean).is_ok(),
        "`{}` counterexample must pass once the fault is removed",
        mutant.name()
    );
}

#[test]
fn skip_revalidation_is_caught_with_a_minimal_replayable_schedule() {
    assert_caught_minimal_and_replayable(0);
}

#[test]
fn or_semantics_is_caught_with_a_minimal_replayable_schedule() {
    assert_caught_minimal_and_replayable(1);
}

#[test]
fn skip_backmap_purge_is_caught_with_a_minimal_replayable_schedule() {
    assert_caught_minimal_and_replayable(2);
}

#[test]
fn walks_catch_every_fault_and_explore_is_never_longer() {
    // Walks check raw ready bits and the watcher invariant, so they
    // must catch or-semantics (a widened mask) and skip-backmap-purge
    // (a leaked watcher changes no ready set) as well as stale caches.
    // Explore's lengths are the ones the tests above pin.
    for (mutant, explore_len, _) in FAULTS {
        let walk_len = walk_minimal(mutant)
            .unwrap_or_else(|| panic!("{WALKS} walks must catch `{}`", mutant.name()));
        assert!(
            explore_len <= walk_len,
            "`{}`: explore found {explore_len} op(s), a walk shrank to {walk_len}",
            mutant.name(),
        );
    }
}
