//! `obs_gate`'s command line: asking for help is not an error.

use std::process::Command;

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_obs_gate"))
            .arg(flag)
            .output()
            .expect("obs_gate starts");
        assert!(out.status.success(), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("Usage: obs_gate"), "{stdout}");
        assert!(stdout.contains("--bench-baseline"), "{stdout}");
    }
}

#[test]
fn unknown_argument_still_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_obs_gate"))
        .arg("--bogus")
        .output()
        .expect("obs_gate starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument --bogus"));
}
