//! A flag value that does not parse must stop the CLI with a usage
//! error, not be replaced by the default: `--min-schedules 10k` silently
//! running without a floor would turn the coverage gate into a no-op,
//! and a clamped `--conns` would print a `--replay` line for a
//! different world.

use std::process::Command;

/// Runs `simcheck explore <args>` and asserts exit 2 with a message
/// naming every string in `names`.
fn assert_usage_error(args: &[&str], names: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .arg("explore")
        .args(args)
        .output()
        .expect("run simcheck");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    for name in names {
        assert!(
            stderr.contains(name),
            "{args:?}: message must name {name}: {stderr}"
        );
    }
}

#[test]
fn unparsable_min_schedules_exits_2_naming_the_flag() {
    assert_usage_error(&["--min-schedules", "10k"], &["--min-schedules", "10k"]);
}

#[test]
fn missing_string_values_exit_2_naming_the_flag() {
    // `explore --mutant` with no name must not run a clean exploration
    // and pass in place of the mutant hunt.
    for flag in ["--mutant", "--depth", "--replay"] {
        assert_usage_error(&[flag], &[flag]);
    }
}

#[test]
fn bad_values_exit_2_naming_the_flag_and_the_value() {
    for (flag, value) in [
        ("--conns", "0"),
        ("--conns", "9"),
        ("--depth", "abc"),
        ("--mutant", "bogus"),
        ("--walks", "abc"),
        ("--walks", "0"),
        ("--replay", "x1"),
    ] {
        assert_usage_error(&[flag, value], &[flag, value]);
    }
    // A flag the chosen mode would ignore: named with the mode.
    let value = |flag: &str| match flag {
        "--mutant" => "skip-revalidation",
        "--replay" => "a",
        "--depth" => "quick",
        _ => "3",
    };
    for (flag, mode) in [
        ("--min-schedules", "--walks"),
        ("--min-schedules", "--replay"),
        ("--min-schedules", "--mutant"),
        ("--depth", "--walks"),
        ("--depth", "--replay"),
        ("--max-sends", "--walks"),
        ("--max-sends", "--replay"),
        ("--walks", "--replay"),
    ] {
        assert_usage_error(&[flag, value(flag), mode, value(mode)], &[flag, mode]);
    }
}
