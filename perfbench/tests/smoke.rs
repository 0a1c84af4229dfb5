//! Self-tests: a tiny-scale smoke of every workload through the binary,
//! and the correctness check catching a tampered reference.

use mmog_obs::json::{self, Value};
use perfbench::check::{parse_references, DEFAULT_SEED, REFERENCE};
use perfbench::measure::measure;
use perfbench::workloads::{Scale, Workload};
use perfbench::{END_TO_END, PER_LAYER};
use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("readable")).expect("parses");
        doc.get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

fn run_binary(workload: Workload, trace: bool) -> Value {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload.name(),
            "--scale",
            "tiny",
            "--seconds",
            "1",
        ])
        .args(["--seed", &DEFAULT_SEED.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("result parses")
}

#[test]
fn tiny_smoke_of_every_workload_reports_every_metric() {
    for w in Workload::ALL {
        for (trace, list) in [(false, owned(&END_TO_END)), (true, owned(&PER_LAYER))] {
            let v = run_binary(w, trace);
            let keys: Vec<&str> = v
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{w:?}");
            assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
            assert!(v.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = v.get("metrics").and_then(Value::as_obj).expect("metrics");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{w:?} {name}: {m:?}");
                    let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, list, "{w:?} trace={trace}");
            if trace {
                let fail_rate = metrics
                    .iter()
                    .find(|(n, _)| n == "fail_rate")
                    .expect("fail_rate");
                assert_eq!(fail_rate.1.get("value").and_then(Value::as_f64), Some(0.0));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper_sweep", "--trace", "2"],
        &["--seconds", "5"],
        &["--workload", "paper_sweep", "--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_tampered_reference_counts_the_run_as_failed() {
    let refs = parse_references(REFERENCE).expect("reference.txt parses");
    let key = ("fault_storm".to_string(), "tiny".to_string(), DEFAULT_SEED);
    let clean = measure(
        Workload::FaultStorm,
        Scale::Tiny,
        DEFAULT_SEED,
        false,
        &refs,
    );
    assert_eq!(
        (clean.failed, clean.errors.len()),
        (0, 0),
        "{:?}",
        clean.errors
    );
    let mut tampered = refs.clone();
    let digest = tampered
        .get_mut(&key)
        .and_then(|runs| runs.get_mut("storm-1"))
        .expect("a stored tiny fault_storm reference");
    *digest ^= 1;
    let m = measure(
        Workload::FaultStorm,
        Scale::Tiny,
        DEFAULT_SEED,
        false,
        &tampered,
    );
    assert_eq!(m.failed, 1);
    assert!(m.errors[0].starts_with("storm-1: digest"), "{:?}", m.errors);
}

#[test]
fn self_times_add_up_to_the_traced_wall() {
    let refs = parse_references(REFERENCE).expect("reference.txt parses");
    let m = measure(Workload::PaperSweep, Scale::Tiny, DEFAULT_SEED, true, &refs);
    let self_sum: f64 = [
        "workload.generate_s",
        "sim.build_s",
        "sim.run_s",
        "bench.self_s",
    ]
    .iter()
    .map(|k| m.per_layer[k])
    .sum();
    let wall = m.end_to_end["wall_s"];
    assert!(
        (self_sum - wall).abs() <= 0.01 * wall,
        "{self_sum} vs {wall}"
    );
    assert!(m
        .spans
        .iter()
        .any(|s| s.name == "sim.new" && s.item.is_some()));
}
