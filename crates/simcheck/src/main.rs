//! The `simcheck` CLI: offline analysis passes over the simulation.
//!
//! ```text
//! simcheck all [--seeds N]      # lint + N clean walks + quick explore (CI entry)
//! simcheck lint                 # source lint pass; any finding fails
//! simcheck explore [--depth quick|full|N] [--conns 1..=4] [--max-sends N]
//!                  [--mutant NAME] [--min-schedules N]
//! simcheck explore [--conns 1..=4] [--mutant NAME] --walks N | --replay "<tokens>"
//!                               # model checking against the reference model:
//!                               # exhaustive to a depth bound, or N seeded
//!                               # walks; with a mutant, hunts the minimal
//!                               # counterexample
//! simcheck mutants [--seeds N]  # every seeded fault caught by walks, and
//!                               # explore's counterexample no longer
//! ```
//!
//! Exit status is non-zero on any finding, so CI can gate on it; a
//! usage error exits 2 naming the flag, as does a flag the chosen mode
//! would ignore.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use simcheck::explore::{self, ExploreConfig};
use simcheck::lane::Mutant;
use simcheck::{lint, script};

/// Repository root (the workspace the binary was built from).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Stops the CLI with a usage error: exit 2, never a default run in
/// place of what was asked.
fn usage(msg: &str) -> ! {
    eprintln!("simcheck: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, or `None` when the flag is absent. A
/// present flag with no value is a usage error naming the flag.
fn parse_str_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        usage(&format!("{flag} needs a value"));
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
        Err(_) => usage(&format!(
            "{flag} expects a non-negative integer, got {value:?}"
        )),
    }
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

/// Builds an [`ExploreConfig`] from `--depth quick|full|N`, `--conns`,
/// `--max-sends` and `--mutant`; a bad value is a usage error.
fn explore_config(args: &[String]) -> ExploreConfig {
    let mut cfg = match parse_str_flag(args, "--depth") {
        None | Some("quick") => ExploreConfig::quick(),
        Some("full") => ExploreConfig::full(),
        Some(n) => ExploreConfig {
            depth: n.parse().unwrap_or_else(|_| {
                usage(&format!(
                    "--depth expects quick, full or a number, got {n:?}"
                ))
            }),
            ..ExploreConfig::quick()
        },
    };
    if let Some(c) = parse_flag(args, "--conns") {
        if !(1..=4).contains(&c) {
            usage(&format!("--conns expects 1 to 4 connections, got {c}"));
        }
        cfg.conns = c as usize;
    }
    if let Some(s) = parse_flag(args, "--max-sends") {
        cfg.max_sends_per_conn = s as usize;
    }
    if let Some(name) = parse_str_flag(args, "--mutant") {
        cfg.mutant = Mutant::parse(name).unwrap_or_else(|| {
            usage(&format!(
                "--mutant expects none, skip-revalidation, or-semantics or \
                 skip-backmap-purge, got {name:?}"
            ))
        });
    }
    cfg
}

/// Stops with a usage error when a flag is given to a mode that would
/// ignore it: walks and replays run fixed schedules (no depth, send
/// bound or schedule floor), and a mutant hunt stops at its
/// counterexample (no schedule floor).
fn reject_ignored_flags(args: &[String], cfg: &ExploreConfig) {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    for (flag, mode) in [
        ("--min-schedules", "--walks"),
        ("--min-schedules", "--replay"),
        ("--depth", "--walks"),
        ("--depth", "--replay"),
        ("--max-sends", "--walks"),
        ("--max-sends", "--replay"),
        ("--walks", "--replay"),
    ] {
        if has(flag) && has(mode) {
            usage(&format!("{flag} has no effect with {mode}"));
        }
    }
    if has("--min-schedules") && cfg.mutant != Mutant::None {
        usage("--min-schedules has no effect with --mutant: the hunt stops at its counterexample");
    }
}

#[allow(clippy::disallowed_methods)] // reports the exploration's own wall time
fn run_explore(args: &[String]) -> bool {
    let min_schedules = parse_flag(args, "--min-schedules");
    let walks = parse_flag(args, "--walks");
    let cfg = explore_config(args);
    reject_ignored_flags(args, &cfg);
    if let Some(tokens) = parse_str_flag(args, "--replay") {
        return run_explore_replay(tokens, &cfg);
    }
    if let Some(n) = walks {
        if n == 0 {
            usage("--walks expects at least 1 walk, got 0");
        }
        return run_walks(n, &cfg);
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
                    cx.failure.schedule.len(),
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
    let ops = script::parse(tokens).unwrap_or_else(|msg| usage(&format!("--replay: {msg}")));
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

/// Runs walks `0..seeds`. Clean worlds must conform on every walk,
/// with the auditor and lockdep live (nonzero counts); a mutant must be
/// caught by at least one walk.
#[allow(clippy::disallowed_methods)] // reports the walks' own wall time
fn run_walks(seeds: u64, cfg: &ExploreConfig) -> bool {
    let started = Instant::now();
    let walks = explore::walks(0..seeds, cfg);
    let s = walks.stats;
    let ok = if cfg.mutant == Mutant::None {
        walks.failing == 0 && s.audit_checks > 0 && s.lock_acquisitions > 0
    } else {
        walks.failing > 0
    };
    println!(
        "walks: {} — conns {}, mutant {}: {} of {seeds} walk(s) failed; the rest checked {} \
         boundarie(s) against the model, {} audit check(s), {} lock acquisition(s), {:.1}s",
        if ok { "OK" } else { "FAIL" },
        cfg.conns,
        cfg.mutant.name(),
        walks.failing,
        s.boundaries,
        s.audit_checks,
        s.lock_acquisitions,
        started.elapsed().as_secs_f64()
    );
    if let Some(f) = &walks.shortest {
        println!("shortest failing walk, shrunk:");
        print!("{}", explore::render_failure(f, cfg));
    }
    ok
}

/// For every seeded fault: walks `0..seeds` must catch it, and
/// exhaustive explore's counterexample must be no longer than the
/// shortest shrunk walk.
fn run_mutants(args: &[String]) -> bool {
    let seeds = parse_flag(args, "--seeds").unwrap_or(200);
    // Two connections suffice for every seeded fault and keep the
    // deepening rounds fast; depth 8 leaves headroom over the deepest
    // known counterexample (6 ops for skip-revalidation).
    let ex_cfg = ExploreConfig {
        conns: 2,
        depth: 8,
        ..ExploreConfig::quick()
    };
    let mut ok = true;
    println!("mutants: exhaustive explore vs. {seeds} walk(s) (lengths include accepts)");
    for mutant in Mutant::all() {
        let cx = explore::find_minimal_counterexample(&ExploreConfig { mutant, ..ex_cfg });
        let explore_len = cx.map(|c| c.failure.schedule.len());
        let walks = explore::walks(
            0..seeds,
            &ExploreConfig {
                mutant,
                ..ExploreConfig::quick()
            },
        );
        let walk_len = walks.shortest.map(|f| f.schedule.len());
        let pass = matches!((explore_len, walk_len), (Some(e), Some(w)) if e <= w);
        ok &= pass;
        println!(
            "  {:<20} explore {:<10} walks {:<30} {}",
            mutant.name(),
            explore_len.map_or("MISSED".to_string(), |l| format!("{l} op(s)")),
            walk_len.map_or("MISSED".to_string(), |l| format!(
                "{l} op(s), {} failing seed(s)",
                walks.failing
            )),
            if pass { "ok" } else { "FAIL" }
        );
    }
    if ok {
        println!("mutants: OK — every seeded fault caught; explore is never longer than a walk");
    } else {
        println!("mutants: FAIL — a seeded fault was missed, or a walk beat explore");
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let ok = match cmd {
        "lint" => run_lint(&repo_root()),
        "explore" => run_explore(&args),
        "mutants" => run_mutants(&args),
        "all" => {
            let seeds = parse_flag(&args, "--seeds").unwrap_or(25);
            let lint_ok = run_lint(&repo_root());
            let walks_ok = run_walks(seeds, &ExploreConfig::quick());
            let explore_ok = run_explore(&["--depth".into(), "quick".into()]);
            lint_ok && walks_ok && explore_ok
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
