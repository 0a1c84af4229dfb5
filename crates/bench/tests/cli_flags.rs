//! End-to-end flag handling of the experiment binaries: a standalone
//! experiment writes every export its flags ask for, and a malformed
//! flag aborts instead of running with a default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one binary run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmog-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, cwd: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("binary starts")
}

#[test]
fn single_experiment_writes_trace_and_summary() {
    let dir = scratch_dir("fig08-exports");
    let out = run(
        env!("CARGO_BIN_EXE_fig08_static_vs_dynamic"),
        &dir,
        &[
            "--days",
            "1",
            "--cap",
            "2",
            "--jobs",
            "1",
            "--trace",
            "t.jsonl",
            "--metrics",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("t.jsonl").is_file(), "--trace wrote no trace");
    assert!(
        dir.join("results/OBS_summary.json").is_file(),
        "--metrics wrote no summary"
    );
    let check = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &dir,
        &["results/OBS_summary.json", "t.jsonl"],
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(
        check.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(
        stdout.contains("OK summary") && stdout.contains("OK trace"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_bench_rejects_unparsable_ticks() {
    let dir = scratch_dir("scale-ticks");
    let out = run(
        env!("CARGO_BIN_EXE_scale_bench"),
        &dir,
        &["--quick", "--ticks", "abc"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--ticks abc must abort");
    assert!(
        stderr.contains("invalid value \"abc\" for --ticks"),
        "{stderr}"
    );
    assert!(
        !dir.join("results").exists(),
        "an aborted sweep must write nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}
