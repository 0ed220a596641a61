//! The `simcheck` CLI: offline analysis passes over the simulation.
//!
//! ```text
//! simcheck all                  # lint + oracle sweep + audit + quick explore (CI entry)
//! simcheck lint                 # source lint pass; any finding fails
//! simcheck oracle [--seeds N] [--conns N] [--ops N]
//! simcheck audit  [--seed N]    # one audited run; prints live check counts
//! simcheck explore [--depth quick|full|N] [--conns N] [--max-sends N]
//!                  [--mutant NAME] [--min-schedules N]
//!                  [--replay "<tokens>"]
//!                               # bounded exhaustive model checking; with a
//!                               # mutant, hunts the minimal counterexample
//! simcheck mutants [--seeds N]  # explore vs. random oracle on all seeded
//!                               # faults; explore must win strictly
//! simcheck --replay <seed>      # rerun one oracle seed; on divergence print
//!                               # the minimal script + probe snapshot
//! ```
//!
//! Exit status is non-zero on any finding, so CI can gate on it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use simcheck::explore::{self, ExploreConfig};
use simcheck::oracle::{self, Failure, Mutant};
use simcheck::script::ScriptConfig;
use simcheck::{lint, script};

/// Repository root (the workspace the binary was built from).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// The value following `flag`, or `None` when the flag is absent. A
/// present flag with no value is a usage error: exit 2 naming the flag,
/// rather than run the default in its place.
fn parse_str_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        eprintln!("simcheck: {flag} needs a value");
        std::process::exit(2);
    };
    Some(value)
}

/// The numeric value of `flag`, or `None` when the flag is absent. A
/// value that is missing or not a number is a usage error: exit 2
/// naming the flag and the value.
fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let value = parse_str_flag(args, flag)?;
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("simcheck: {flag} expects a non-negative integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

fn script_config(args: &[String]) -> ScriptConfig {
    let mut cfg = ScriptConfig::default();
    if let Some(c) = parse_flag(args, "--conns") {
        cfg.conns = (c as usize).max(1);
    }
    if let Some(o) = parse_flag(args, "--ops") {
        cfg.ops = o as usize;
    }
    cfg
}

fn run_lint(root: &Path) -> bool {
    let findings = match lint::scan(root) {
        Ok(findings) => findings,
        Err(msg) => {
            println!("lint: FAIL — {msg}");
            return false;
        }
    };
    for f in &findings {
        println!("  {f}");
    }
    if findings.is_empty() {
        println!("lint: OK (no findings)");
        true
    } else {
        println!("lint: FAIL — {} finding(s)", findings.len());
        false
    }
}

fn run_oracle(args: &[String]) -> bool {
    let seeds = parse_flag(args, "--seeds").unwrap_or(25);
    let cfg = script_config(args);
    match oracle::sweep(0..seeds, cfg, Mutant::None) {
        Ok(stats) => {
            println!(
                "oracle: OK — {seeds} seed(s), {} op(s), {} boundarie(s) compared, \
                 {} audit check(s), {} lock acquisition(s)",
                stats.ops, stats.boundaries, stats.audit_checks, stats.lock_acquisitions
            );
            true
        }
        Err(failure) => {
            println!("oracle: FAIL");
            print!("{}", oracle::render_failure(&failure));
            println!(
                "replay with: cargo run -p simcheck -- --replay {}",
                failure.seed
            );
            false
        }
    }
}

fn run_audit(args: &[String]) -> bool {
    let seed = parse_flag(args, "--seed").unwrap_or(0);
    let cfg = script_config(args);
    match oracle::run_seed(seed, cfg, Mutant::None) {
        Ok(stats) => {
            println!(
                "audit: OK — seed {seed}: {} invariant check(s) live, {} lock acquisition(s), \
                 0 order violations",
                stats.audit_checks, stats.lock_acquisitions
            );
            stats.audit_checks > 0
        }
        Err(Failure::Divergence(d)) => {
            println!(
                "audit: FAIL — lanes diverged at op {} ({})",
                d.op_index, d.lane
            );
            false
        }
        Err(Failure::LockOrder { lane, detail }) => {
            println!("audit: FAIL — lock order violation in `{lane}`: {detail}");
            false
        }
    }
}

fn run_replay(seed: u64, args: &[String]) -> bool {
    let cfg = script_config(args);
    match oracle::run_seed(seed, cfg, Mutant::None) {
        Ok(stats) => {
            println!(
                "replay: seed {seed} passes ({} boundarie(s) compared); script:",
                stats.boundaries
            );
            print!("{}", script::render(&script::generate(seed, cfg)));
            true
        }
        Err(_) => {
            let failure = oracle::shrink_failure(seed, cfg, Mutant::None);
            print!("{}", oracle::render_failure(&failure));
            false
        }
    }
}

/// Builds an [`ExploreConfig`] from `--depth quick|full|N`, `--conns`,
/// `--max-sends` and `--mutant`.
fn explore_config(args: &[String]) -> Result<ExploreConfig, String> {
    let mut cfg = match parse_str_flag(args, "--depth") {
        None | Some("quick") => ExploreConfig::quick(),
        Some("full") => ExploreConfig::full(),
        Some(n) => {
            let depth: usize = n
                .parse()
                .map_err(|_| format!("--depth expects quick, full or a number, got `{n}`"))?;
            ExploreConfig {
                depth,
                ..ExploreConfig::quick()
            }
        }
    };
    if let Some(c) = parse_flag(args, "--conns") {
        cfg.conns = (c as usize).clamp(1, 4);
    }
    if let Some(s) = parse_flag(args, "--max-sends") {
        cfg.max_sends_per_conn = s as usize;
    }
    if let Some(name) = parse_str_flag(args, "--mutant") {
        cfg.mutant = Mutant::parse(name)
            .ok_or_else(|| format!("unknown mutant `{name}` (see `simcheck mutants`)"))?;
    }
    Ok(cfg)
}

#[allow(clippy::disallowed_methods)] // reports the exploration's own wall time
fn run_explore(args: &[String]) -> bool {
    let min_schedules = parse_flag(args, "--min-schedules");
    let cfg = match explore_config(args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("explore: {msg}");
            return false;
        }
    };
    if let Some(tokens) = parse_str_flag(args, "--replay") {
        return run_explore_replay(tokens, &cfg);
    }
    let started = Instant::now();
    if cfg.mutant != Mutant::None {
        // Mutant hunt: iterative deepening for the shortest failing
        // schedule, then ddmin. *Not* finding one is the failure.
        return match explore::find_minimal_counterexample(&cfg) {
            Some(cx) => {
                println!(
                    "explore: mutant `{}` caught — minimal counterexample ({} op(s), \
                     found at depth {}, {} schedule(s) explored, {:.1}s):",
                    cfg.mutant.name(),
                    cx.schedule.len(),
                    cx.depth,
                    cx.stats.schedules,
                    started.elapsed().as_secs_f64()
                );
                print!("{}", explore::render_failure(&cx.failure, &cfg));
                true
            }
            None => {
                println!(
                    "explore: FAIL — mutant `{}` survived exploration to depth {}",
                    cfg.mutant.name(),
                    cfg.depth
                );
                false
            }
        };
    }
    match explore::explore(&cfg) {
        Ok(stats) => {
            let elapsed = started.elapsed().as_secs_f64();
            println!(
                "explore: OK — conns {} depth {}: {} schedule(s), {} boundarie(s) checked \
                 against the model, {} node(s), {} distinct state(s), {} dedup hit(s), {elapsed:.1}s",
                cfg.conns,
                cfg.depth,
                stats.schedules,
                stats.boundaries,
                stats.nodes,
                stats.distinct_states,
                stats.dedup_hits
            );
            if let Some(min) = min_schedules {
                if stats.schedules < min {
                    println!(
                        "explore: FAIL — only {} schedule(s), gate requires >= {min} \
                         (exploration shrank; did pruning get too aggressive?)",
                        stats.schedules
                    );
                    return false;
                }
            }
            true
        }
        Err(failure) => {
            println!("explore: FAIL — a lane diverged from the reference model");
            print!("{}", explore::render_failure(&failure, &cfg));
            false
        }
    }
}

fn run_explore_replay(tokens: &str, cfg: &ExploreConfig) -> bool {
    let ops = match script::parse(tokens) {
        Ok(ops) => ops,
        Err(msg) => {
            eprintln!("explore --replay: {msg}");
            return false;
        }
    };
    match explore::replay(&ops, cfg) {
        Ok(stats) => {
            println!(
                "explore replay: {} op(s) conform to the model ({} boundarie(s) checked)",
                ops.len(),
                stats.boundaries
            );
            // A replay that *passes* is the suspicious case when the
            // schedule came out of a failure report: signal it.
            cfg.mutant == Mutant::None
        }
        Err(failure) => {
            println!("explore replay: diverges as recorded");
            print!("{}", explore::render_failure(&failure, cfg));
            // Reproducing a recorded divergence is the expected outcome
            // when replaying a counterexample under its mutant.
            cfg.mutant != Mutant::None
        }
    }
}

/// One row of the explore-vs-oracle comparison.
struct MutantRow {
    mutant: Mutant,
    explore_len: Option<usize>,
    /// Minimal shrunk oracle script length over all failing seeds, plus
    /// the `conns` accepts the oracle harness performs implicitly
    /// before every script (the explore schedule pays for its accepts
    /// as explicit ops, so the comparison counts both sides' setup).
    oracle_len: Option<usize>,
    oracle_failing_seeds: usize,
}

fn run_mutants(args: &[String]) -> bool {
    let seeds = parse_flag(args, "--seeds").unwrap_or(200);
    // Two connections suffice for every seeded fault and keep the
    // deepening rounds fast; depth 8 leaves headroom over the deepest
    // known counterexample (6 ops for skip-revalidation).
    let ex_cfg = ExploreConfig {
        conns: 2,
        depth: 8,
        max_sends_per_conn: 2,
        mutant: Mutant::None,
    };
    let or_cfg = ScriptConfig::default();
    let mut rows = Vec::new();
    for mutant in Mutant::all() {
        let cx = explore::find_minimal_counterexample(&ExploreConfig { mutant, ..ex_cfg });
        let mut best: Option<usize> = None;
        let mut failing = 0usize;
        for seed in 0..seeds {
            if oracle::run_seed(seed, or_cfg, mutant).is_err() {
                failing += 1;
                let shrunk = oracle::shrink_failure(seed, or_cfg, mutant);
                let len = shrunk.minimal.len() + or_cfg.conns;
                if best.is_none_or(|b| len < b) {
                    best = Some(len);
                }
            }
        }
        rows.push(MutantRow {
            mutant,
            explore_len: cx.map(|c| c.schedule.len()),
            oracle_len: best,
            oracle_failing_seeds: failing,
        });
    }
    let mut ok = true;
    println!("mutants: explore vs. random oracle ({seeds} seed(s); lengths include accepts)");
    for row in &rows {
        let explore_s = row
            .explore_len
            .map_or("MISSED".to_string(), |l| format!("{l} op(s)"));
        let oracle_s = row.oracle_len.map_or_else(
            || "not caught".to_string(),
            |l| format!("{l} op(s), {} failing seed(s)", row.oracle_failing_seeds),
        );
        let win = match (row.explore_len, row.oracle_len) {
            (Some(e), Some(o)) => e < o,
            (Some(_), None) => true,
            _ => false,
        };
        ok &= win;
        println!(
            "  {:<20} explore {:<10} oracle {:<30} {}",
            row.mutant.name(),
            explore_s,
            oracle_s,
            if win { "explore wins" } else { "FAIL" }
        );
    }
    if ok {
        println!("mutants: OK — every seeded fault caught, strictly shorter than the oracle");
    } else {
        println!("mutants: FAIL — a seeded fault was missed or not strictly shorter");
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let ok = match cmd {
        "lint" => run_lint(&repo_root()),
        "oracle" => run_oracle(&args),
        "audit" => run_audit(&args),
        "explore" => run_explore(&args),
        "mutants" => run_mutants(&args),
        "--replay" => match args.get(1).and_then(|s| s.parse().ok()) {
            Some(seed) => run_replay(seed, &args),
            None => {
                eprintln!("usage: simcheck --replay <seed>");
                false
            }
        },
        "all" => {
            let lint_ok = run_lint(&repo_root());
            let oracle_ok = run_oracle(&args);
            let audit_ok = run_audit(&args);
            let explore_ok = run_explore(&["--depth".into(), "quick".into()]);
            lint_ok && oracle_ok && audit_ok && explore_ok
        }
        other => {
            eprintln!("unknown command `{other}`; see src/main.rs docs for usage");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
