//! The root CLI rejects out-of-range flag values: exit 2 with a message
//! naming the flag, rather than a run on a meaningless input.

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
