//! `simcheck explore`: model checking of readiness semantics, by
//! exhaustive enumeration or by seeded random walks.
//!
//! Both modes drive all five backend lanes ([`crate::lane`]) in
//! isolated worlds over one event alphabet — accept, data arrival, FIN,
//! interest add/modify/remove, server read and write, wait boundary —
//! and check each wait boundary against the executable reference model
//! ([`crate::model::Model`]): raw per-slot ready bits per lane, the
//! kernel-watcher (backmap) registration invariant on the /dev/poll
//! lanes, and every lane's lock-order graph.
//!
//! * [`explore`] enumerates **all** canonical schedules up to a depth
//!   bound over 2–4 connections.
//! * [`walks`] replays long seeded schedules ([`crate::script::generate`]):
//!   fewer interleavings, but deeper histories and more varied sizes.
//!
//! Two prunings keep the exhaustive state space tractable (soundness
//! argument in DESIGN.md "Exhaustive exploration and the reference
//! model"):
//!
//! * **Canonical slot order** (sleep-set/DPOR-style): between two wait
//!   boundaries, events on different connections commute — no
//!   observation separates them and the settled world state is
//!   identical — so only the representative with non-decreasing slot
//!   indices is explored. Same-slot event orderings (which do not
//!   commute) are all explored; a boundary resets the floor.
//! * **Fingerprint memoization**: worlds are FNV-fingerprinted
//!   ([`simcore::fingerprint`]) across all five lanes; a state already
//!   explored with at least the remaining depth (and an equally or less
//!   constrained canonical floor) is not re-expanded.
//!
//! A failing schedule from either mode is tightened with ddmin
//! (exhaustive search first deepens iteratively to the shortest failing
//! length) and printed as a replayable `--replay` token string
//! ([`crate::script::encode`]).

use std::collections::HashMap;
use std::ops::Range;

use proptest::shrink_sequence;
use simkernel::PollBits;

use crate::lane::{Lane, LaneKind, Mutant, Snapshot};
use crate::model::Model;
use crate::script::{self, Op};

/// Exploration shape.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Connection slots (2–4 are useful; state space is exponential).
    pub conns: usize,
    /// Maximum schedule length (events, boundaries included).
    pub depth: usize,
    /// Client sends allowed per connection (bounds the alphabet).
    pub max_sends_per_conn: usize,
    /// Seeded fault to inject into the /dev/poll lanes.
    pub mutant: Mutant,
    /// First descriptor number of every lane's process. The select
    /// lane sits out once its descriptors would pass `FD_SETSIZE`.
    pub fd_base: usize,
}

impl ExploreConfig {
    /// The PR-blocking CI shape: seconds of wall time, ≥10k schedules.
    pub fn quick() -> ExploreConfig {
        ExploreConfig {
            conns: 3,
            depth: 6,
            max_sends_per_conn: 2,
            mutant: Mutant::None,
            fd_base: 0,
        }
    }

    /// The nightly shape: same alphabet, deeper bound (~3.4M schedules,
    /// ~2 minutes in release).
    pub fn full() -> ExploreConfig {
        ExploreConfig {
            depth: 9,
            ..ExploreConfig::quick()
        }
    }
}

/// Aggregate statistics of one exploration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Interior nodes expanded (worlds from which children were tried).
    pub nodes: u64,
    /// Distinct post-pruning schedules fully explored (maximal paths).
    pub schedules: u64,
    /// Wait boundaries executed and checked against the model.
    pub boundaries: u64,
    /// Subtrees skipped because an equal-or-stronger visit was memoized.
    pub dedup_hits: u64,
    /// Distinct world fingerprints seen.
    pub distinct_states: u64,
    /// Invariant-audit checks the lanes' `/dev/poll` registries ran
    /// (replays and walks only: exhaustive search forks its worlds).
    pub audit_checks: u64,
    /// Lock acquisitions the lanes' lockdep graphs recorded (replays
    /// and walks only).
    pub lock_acquisitions: u64,
}

impl ExploreStats {
    fn absorb(&mut self, other: ExploreStats) {
        self.nodes += other.nodes;
        self.schedules += other.schedules;
        self.boundaries += other.boundaries;
        self.dedup_hits += other.dedup_hits;
        self.distinct_states += other.distinct_states;
        self.audit_checks += other.audit_checks;
        self.lock_acquisitions += other.lock_acquisitions;
    }
}

/// How a lane disagreed with the reference model.
#[derive(Debug, Clone)]
pub enum DivergenceKind {
    /// The raw ready set differs from the model's prediction.
    Snapshot {
        /// What the model predicts for this lane.
        expected: Snapshot,
        /// What the lane reported.
        got: Snapshot,
    },
    /// The kernel watcher registry disagrees with the declared interest
    /// set (the POLLREMOVE dual-purge invariant; /dev/poll lanes only).
    WatcherLeak {
        /// The offending slot.
        slot: usize,
        /// Whether the model says a watcher must exist.
        expected: bool,
        /// Whether the kernel actually holds one.
        got: bool,
    },
    /// The lane's lockdep graph recorded an inverted lock acquisition.
    LockOrder {
        /// The recorded violations, rendered.
        detail: String,
    },
}

/// A schedule on which a lane diverged from the reference model.
#[derive(Debug, Clone)]
pub struct ExploreFailure {
    /// The failing schedule (its last op is the failing boundary).
    pub schedule: Vec<Op>,
    /// The disagreeing lane.
    pub lane: &'static str,
    /// What went wrong.
    pub kind: DivergenceKind,
    /// The disagreeing lane's probe snapshot at the failing boundary.
    pub probe: String,
}

/// One exploration node: the backend worlds, the reference model, and
/// the canonical-order bookkeeping.
#[derive(Clone)]
struct World {
    lanes: Vec<Lane>,
    model: Model,
    /// Client sends already used per slot.
    sends: Vec<u8>,
    /// Canonical floor: the next non-boundary event's slot must be
    /// `>= min_slot`. Reset by a boundary.
    min_slot: usize,
    /// Two consecutive boundaries observe identical state; the second
    /// is pruned.
    last_was_poll: bool,
}

impl World {
    fn new(cfg: &ExploreConfig) -> World {
        // `select()` cannot number descriptors past FD_SETSIZE — the
        // paper's §2 wall, not a divergence.
        let fits_select = cfg.fd_base + cfg.conns + 8 < devpoll::FD_SETSIZE;
        World {
            lanes: LaneKind::all()
                .into_iter()
                .filter(|&k| fits_select || k != LaneKind::Select)
                .map(|k| Lane::new(k, cfg.conns, cfg.mutant, cfg.fd_base))
                .collect(),
            model: Model::new(cfg.conns),
            sends: vec![0; cfg.conns],
            min_slot: 0,
            last_was_poll: false,
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = simcore::fingerprint::Fnv::new();
        for lane in &self.lanes {
            h.write_u64(lane.state_fingerprint());
        }
        h.finish()
    }

    /// The slot an op acts on, for the canonical ordering.
    fn slot_of(&self, op: Op) -> usize {
        match op {
            Op::Accept => self.model.accepted(),
            Op::Watch { conn, .. }
            | Op::Unwatch { conn }
            | Op::ClientSend { conn, .. }
            | Op::ClientClose { conn }
            | Op::ServerRead { conn, .. }
            | Op::ServerSend { conn, .. } => conn,
            Op::Poll => 0,
        }
    }

    /// Applies a non-boundary event to every lane and the model.
    fn apply(&mut self, op: Op) {
        for lane in &mut self.lanes {
            lane.apply(op);
        }
        self.min_slot = self.slot_of(op);
        self.model.apply(op);
        if let Op::ClientSend { conn, .. } = op {
            if let Some(s) = self.sends.get_mut(conn) {
                *s += 1;
            }
        }
        self.last_was_poll = false;
    }

    /// Executes a wait boundary on every lane and checks each against
    /// the reference model and its own lock-order graph. `schedule` is
    /// borrowed only to build the failure report.
    fn boundary(&mut self, schedule: &[Op]) -> Result<(), Box<ExploreFailure>> {
        for lane in &mut self.lanes {
            if let Some(kind) = check_lane(lane, &self.model) {
                return Err(Box::new(ExploreFailure {
                    schedule: schedule.to_vec(),
                    lane: lane.kind.name(),
                    kind,
                    probe: lane.kernel.probe().snapshot().to_text(),
                }));
            }
        }
        self.model.apply(Op::Poll);
        self.min_slot = 0;
        self.last_was_poll = true;
        Ok(())
    }

    /// Runs `ops` from this world, checking every `Poll` boundary.
    fn run(mut self, ops: &[Op]) -> Result<ExploreStats, Box<ExploreFailure>> {
        let mut stats = ExploreStats {
            schedules: 1,
            ..ExploreStats::default()
        };
        for (i, &op) in ops.iter().enumerate() {
            if op == Op::Poll {
                stats.boundaries += 1;
                self.boundary(&ops[..=i])?;
            } else {
                self.apply(op);
            }
        }
        for lane in &self.lanes {
            stats.audit_checks += lane.registry.audit_checks();
            stats.lock_acquisitions += lane.lock_graph().acquisitions();
        }
        Ok(stats)
    }

    /// The canonically-enabled events, in deterministic expansion order.
    fn enabled(&self, cfg: &ExploreConfig) -> Vec<Op> {
        let m = &self.model;
        let mut ops = Vec::new();
        if !self.last_was_poll {
            ops.push(Op::Poll);
        }
        if m.accepted() < cfg.conns && m.accepted() >= self.min_slot {
            ops.push(Op::Accept);
        }
        for conn in self.min_slot..cfg.conns {
            if m.is_accepted(conn) {
                for mask in [
                    PollBits::POLLIN,
                    PollBits::POLLOUT,
                    PollBits::POLLIN | PollBits::POLLOUT,
                ] {
                    if m.interest(conn) != Some(mask) {
                        ops.push(Op::Watch { conn, events: mask });
                    }
                }
                if m.interest(conn).is_some() {
                    ops.push(Op::Unwatch { conn });
                }
                if m.has_unread(conn) {
                    ops.push(Op::ServerRead { conn, max: 1 << 20 });
                }
            }
            if !m.fin(conn) {
                if usize::from(self.sends[conn]) < cfg.max_sends_per_conn {
                    ops.push(Op::ClientSend { conn, bytes: 512 });
                }
                ops.push(Op::ClientClose { conn });
            }
        }
        ops
    }
}

/// Runs one wait boundary on `lane` and checks it: the raw ready set
/// against the model, the kernel-watcher invariant on the /dev/poll
/// lanes, and the lane's lock order. `None` when the lane conforms.
fn check_lane(lane: &mut Lane, model: &Model) -> Option<DivergenceKind> {
    let got = lane.ready_set();
    let expected = model.expected(lane.kind);
    if got != expected {
        return Some(DivergenceKind::Snapshot { expected, got });
    }
    if matches!(lane.kind, LaneKind::DevPoll | LaneKind::DevPollNoHints) {
        for slot in 0..lane.accepted() {
            let expected = model.expect_kernel_watcher(slot);
            let got = lane.slot_watched_in_kernel(slot);
            if expected != got {
                return Some(DivergenceKind::WatcherLeak {
                    slot,
                    expected,
                    got,
                });
            }
        }
    }
    let violations = lane.lock_graph().violations();
    if !violations.is_empty() {
        let detail = violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        return Some(DivergenceKind::LockOrder { detail });
    }
    None
}

/// Memo key: world fingerprint plus the two bits of search bookkeeping
/// that constrain the continuation set. A memoized visit dominates a
/// later one only if it had at least the remaining depth *and* an
/// equally-or-less constrained continuation set (same flags).
type SeenKey = (u64, u32, bool);
type Seen = HashMap<SeenKey, u32>;

struct Ctx<'a> {
    cfg: &'a ExploreConfig,
    seen: Seen,
    stats: ExploreStats,
    schedule: Vec<Op>,
}

/// Runs one full exploration at `cfg.depth`. `Ok` carries the stats of
/// a clean (model-conformant) exploration; `Err` the first divergence
/// in depth-first order.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreStats, Box<ExploreFailure>> {
    let mut ctx = Ctx {
        cfg,
        seen: Seen::new(),
        stats: ExploreStats::default(),
        schedule: Vec::with_capacity(cfg.depth),
    };
    let root = World::new(cfg);
    dfs(&root, cfg.depth, &mut ctx)?;
    ctx.stats.distinct_states = ctx.seen.len() as u64;
    Ok(ctx.stats)
}

fn dfs(world: &World, depth_left: usize, ctx: &mut Ctx<'_>) -> Result<(), Box<ExploreFailure>> {
    if depth_left == 0 {
        ctx.stats.schedules += 1;
        return Ok(());
    }
    let key: SeenKey = (
        world.fingerprint(),
        world.min_slot as u32,
        world.last_was_poll,
    );
    let remaining = depth_left as u32;
    match ctx.seen.get(&key) {
        Some(&r) if r >= remaining => {
            ctx.stats.dedup_hits += 1;
            return Ok(());
        }
        _ => {
            ctx.seen.insert(key, remaining);
        }
    }
    let ops = world.enabled(ctx.cfg);
    if ops.is_empty() {
        ctx.stats.schedules += 1;
        return Ok(());
    }
    ctx.stats.nodes += 1;
    // One child per node, refilled for each op: each refill is built
    // before the previous child is freed, which keeps the heap from
    // shrinking and regrowing between siblings (at quick depth this
    // halves the page faults of a fresh clone per op).
    let mut child = world.clone();
    for (i, op) in ops.into_iter().enumerate() {
        if i > 0 {
            child.clone_from(world);
        }
        ctx.schedule.push(op);
        let step = if op == Op::Poll {
            ctx.stats.boundaries += 1;
            child.boundary(&ctx.schedule)
        } else {
            child.apply(op);
            Ok(())
        };
        let result = step.and_then(|()| dfs(&child, depth_left - 1, ctx));
        ctx.schedule.pop();
        result?;
    }
    Ok(())
}

/// Replays one explicit schedule (the `--replay` path): fresh worlds,
/// every `Poll` checked against the model.
pub fn replay(ops: &[Op], cfg: &ExploreConfig) -> Result<ExploreStats, Box<ExploreFailure>> {
    World::new(cfg).run(ops)
}

/// Tightens a failing schedule with ddmin and replays the minimum for
/// its report. Every candidate replays from a fork of `root`, which is
/// cheaper than building fresh worlds.
fn shrink(root: &World, schedule: &[Op]) -> ExploreFailure {
    let minimal = shrink_sequence(schedule, |candidate| root.clone().run(candidate).is_err());
    match root.clone().run(&minimal) {
        Err(f) => *f,
        Ok(_) => unreachable!("invariant: shrink_sequence keeps failing schedules"),
    }
}

/// The outcome of a range of walks.
#[derive(Debug, Clone, Default)]
pub struct Walks {
    /// Statistics summed over the conforming walks.
    pub stats: ExploreStats,
    /// Walks that diverged from the model.
    pub failing: u64,
    /// The shortest failing walk after shrinking.
    pub shortest: Option<ExploreFailure>,
}

/// Runs walk *s* for every seed *s* in `seeds` and shrinks each
/// failure. Walk *s* is `cfg.conns` accepts, then the seed's generated
/// script ([`script::generate`]), replayed from a fork of one root world
/// against the model; `cfg.depth` and `max_sends_per_conn` do not
/// apply.
pub fn walks(seeds: Range<u64>, cfg: &ExploreConfig) -> Walks {
    let root = World::new(cfg);
    let mut out = Walks::default();
    for seed in seeds {
        match root.clone().run(&script::generate(seed, cfg.conns)) {
            Ok(stats) => out.stats.absorb(stats),
            Err(failure) => {
                out.failing += 1;
                let minimal = shrink(&root, &failure.schedule);
                if out
                    .shortest
                    .as_ref()
                    .is_none_or(|best| minimal.schedule.len() < best.schedule.len())
                {
                    out.shortest = Some(minimal);
                }
            }
        }
    }
    out
}

/// A minimal counterexample: found by iterative deepening (no shorter
/// schedule fails), then ddmin-tightened and re-verified.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimal failing schedule and its divergence.
    pub failure: ExploreFailure,
    /// Exploration statistics accumulated across all deepening rounds.
    pub stats: ExploreStats,
    /// Depths explored before the failure surfaced.
    pub depth: usize,
}

/// Searches for the shortest failing schedule under `cfg.mutant` by
/// iterative deepening up to `cfg.depth`. Because every subsequence of
/// a schedule is a valid schedule, the ddmin pass cannot shrink below
/// the deepening bound — it re-validates minimality and exercises the
/// exact machinery `--replay` uses.
pub fn find_minimal_counterexample(cfg: &ExploreConfig) -> Option<Counterexample> {
    let mut stats = ExploreStats::default();
    for depth in 1..=cfg.depth {
        let round = ExploreConfig { depth, ..*cfg };
        match explore(&round) {
            Ok(s) => stats.absorb(s),
            Err(failure) => {
                return Some(Counterexample {
                    failure: shrink(&World::new(cfg), &failure.schedule),
                    stats,
                    depth,
                });
            }
        }
    }
    None
}

/// Renders an explore divergence the way CI and `--replay` print it.
pub fn render_failure(f: &ExploreFailure, cfg: &ExploreConfig) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lane `{}` diverged from the reference model; schedule ({} ops):",
        f.lane,
        f.schedule.len()
    );
    let _ = write!(out, "{}", script::render(&f.schedule));
    let _ = writeln!(
        out,
        "probe snapshot of `{}` at the failing boundary:",
        f.lane
    );
    for line in f.probe.lines() {
        let _ = writeln!(out, "  {line}");
    }
    match &f.kind {
        DivergenceKind::Snapshot { expected, got } => {
            let _ = writeln!(out, "at the final boundary:");
            let _ = writeln!(out, "  model expects (slot, bits): {expected:?}");
            let _ = writeln!(out, "  lane reported (slot, bits): {got:?}");
        }
        DivergenceKind::WatcherLeak {
            slot,
            expected,
            got,
        } => {
            let _ = writeln!(
                out,
                "kernel watcher invariant violated on slot {slot}: \
                 interest-table says {expected}, watcher registry says {got} \
                 (POLLREMOVE dual-purge)",
            );
        }
        DivergenceKind::LockOrder { detail } => {
            let _ = writeln!(out, "lock-order violation: {detail}");
        }
    }
    let _ = writeln!(
        out,
        "replay: cargo run -p simcheck -- explore --conns {} --mutant {} --replay \"{}\"",
        cfg.conns,
        cfg.mutant.name(),
        script::encode(&f.schedule)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mutant: Mutant) -> ExploreConfig {
        ExploreConfig {
            conns: 2,
            depth: 5,
            max_sends_per_conn: 1,
            mutant,
            fd_base: 0,
        }
    }

    #[test]
    fn clean_tiny_world_conforms_to_the_model() {
        let stats = explore(&tiny(Mutant::None)).expect("clean world must match the model");
        assert!(stats.schedules > 0, "must explore at least one schedule");
        assert!(stats.boundaries > 0, "must check at least one boundary");
    }

    #[test]
    fn dedup_actually_fires() {
        let stats = explore(&tiny(Mutant::None)).expect("clean world must match the model");
        assert!(
            stats.dedup_hits > 0,
            "permutation-equivalent states must be memoized: {stats:?}"
        );
    }

    #[test]
    fn replay_roundtrips_through_the_token_encoding() {
        let cfg = tiny(Mutant::None);
        let ops = script::parse("a w0:i d0:512 P r0:1048576 P").expect("valid tokens");
        // 6 ops > depth 5 is fine: replay ignores cfg.depth.
        replay(&ops, &cfg).expect("clean schedule must conform");
    }

    #[test]
    fn an_inverted_lock_acquisition_fails_replay_naming_the_lane() {
        use devpoll::{LockClass, LockGraph};
        let cfg = tiny(Mutant::None);
        let ops = script::parse("a w0:i P").expect("valid tokens");
        let mut world = World::new(&cfg);
        let mut graph = LockGraph::new();
        for order in [
            [LockClass::Backmap, LockClass::Socket],
            [LockClass::Socket, LockClass::Backmap],
        ] {
            graph.acquire(order[0]);
            graph.acquire(order[1]);
            graph.release(order[1]);
            graph.release(order[0]);
        }
        let rtsig = world
            .lanes
            .iter_mut()
            .find(|l| l.kind == LaneKind::RtSig)
            .expect("the rtsig lane runs at fd base 0");
        rtsig.planted_locks = Some(graph);
        let failure = world.run(&ops).expect_err("an inverted order must fail");
        assert_eq!(failure.lane, "rtsig");
        let DivergenceKind::LockOrder { detail } = &failure.kind else {
            panic!("expected a lock-order failure, got {:?}", failure.kind);
        };
        assert!(
            detail.contains("acquired backmap while holding socket"),
            "{detail}"
        );
        let report = render_failure(&failure, &cfg);
        assert!(report.contains("lock-order violation"), "{report}");
        assert!(report.contains("probe snapshot of `rtsig`"), "{report}");
    }

    #[test]
    fn fd_base_numbers_every_lane_and_benches_select() {
        let cfg = ExploreConfig {
            fd_base: 1_000_000,
            ..tiny(Mutant::None)
        };
        let mut w = World::new(&cfg);
        w.apply(Op::Accept);
        assert_eq!(w.lanes.len(), 4, "select cannot number fds past FD_SETSIZE");
        assert!(w.lanes.iter().all(|l| l.kind != LaneKind::Select));
        assert!(w.lanes.iter().all(|l| l.fds[0] >= 1_000_000));
    }

    #[test]
    fn consecutive_boundaries_are_pruned() {
        let cfg = tiny(Mutant::None);
        let w = World::new(&cfg);
        let mut after_poll = w.clone();
        after_poll
            .boundary(&[Op::Poll])
            .expect("empty boundary conforms");
        assert!(
            !after_poll.enabled(&cfg).contains(&Op::Poll),
            "a boundary directly after a boundary observes nothing new"
        );
    }

    #[test]
    fn canonical_floor_limits_slots() {
        let cfg = tiny(Mutant::None);
        let mut w = World::new(&cfg);
        w.apply(Op::Accept);
        w.apply(Op::Accept);
        w.apply(Op::ClientSend {
            conn: 1,
            bytes: 512,
        });
        // Floor is now slot 1: no slot-0 events until a boundary.
        assert!(w
            .enabled(&cfg)
            .iter()
            .all(|&op| op == Op::Poll || w.slot_of(op) >= 1));
    }
}
