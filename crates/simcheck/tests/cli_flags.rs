//! A flag value that does not parse must stop the CLI with a usage
//! error, not be replaced by the default: `--min-schedules 10k` silently
//! running without a floor would turn the coverage gate into a no-op.

use std::process::Command;

#[test]
fn unparsable_min_schedules_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["explore", "--min-schedules", "10k"])
        .output()
        .expect("run simcheck");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--min-schedules") && stderr.contains("10k"),
        "message must name the flag and the value: {stderr}"
    );
}

#[test]
fn missing_string_values_exit_2_naming_the_flag() {
    // `explore --mutant` with no name must not run a clean exploration
    // and pass in place of the mutant hunt.
    for flag in ["--mutant", "--depth", "--replay"] {
        let out = Command::new(env!("CARGO_BIN_EXE_simcheck"))
            .args(["explore", flag])
            .output()
            .expect("run simcheck");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(stderr.contains(flag), "message must name {flag}: {stderr}");
    }
}
