//! The root CLI rejects unparsable and out-of-range flag values: exit 2
//! with a message naming the flag, rather than a run on a meaningless
//! input or the whole usage text.

use std::process::Command;

#[test]
fn out_of_range_flags_exit_2_naming_the_flag() {
    let cases = [
        ("--rate", "0"),
        ("--rate", "-50"),
        ("--rate", "NaN"),
        ("--rate", "inf"),
        ("--conns", "0"),
        ("--loss", "2"),
        ("--loss", "-1"),
        ("--inactive", "-1"),
        ("--inactive", "many"),
        ("--seed", "x"),
        ("--doc-bytes", "6k"),
        ("--jobs", "two"),
        ("--server", "epoll"),
    ];
    for (flag, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_scalable-net-io"))
            .args(["run", flag, value])
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: exit {:?}, stdout {:?}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            stderr.starts_with(flag),
            "{flag} {value}: stderr does not lead with the flag: {stderr:?}"
        );
    }
}

/// A value missing at the end of the line is named the same way.
#[test]
fn a_missing_flag_value_exits_2_naming_the_flag() {
    for flag in [
        "--server",
        "--inactive",
        "--seed",
        "--jobs",
        "--trace-export",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scalable-net-io"))
            .args(["run", flag])
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr:?}");
        assert!(stderr.starts_with(flag), "{flag}: {stderr:?}");
    }
}

/// An unparsable `BENCH_JOBS` stops `compare` and `sweep` before any
/// run, naming the variable, instead of falling back silently.
#[test]
fn an_unparsable_bench_jobs_exits_2_naming_it() {
    for cmd in ["compare", "sweep"] {
        let out = Command::new(env!("CARGO_BIN_EXE_scalable-net-io"))
            .env("BENCH_JOBS", "two")
            .args([cmd, "--conns", "50"])
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr:?}");
        assert!(stderr.starts_with("BENCH_JOBS"), "{cmd}: {stderr:?}");
        assert!(out.stdout.is_empty(), "{cmd} printed before rejecting");
    }
}
