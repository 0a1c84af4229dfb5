//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale paper|tiny]
//! perfbench --bless --workload NAME [--seed N] [--scale paper|tiny]
//! ```
//!
//! The parent process runs one measured execution per fresh child
//! process (`--child`): one, then more while they fit in `--seconds`.
//! It checks the children's outputs and prints one JSON line: the
//! median of every end-to-end metric (`--trace 0`) or of every
//! per-layer metric from traced children interleaved with untraced
//! ones (`--trace 1`). Times and rates are rescaled to the reference
//! host's speed by a probe that runs beside each child.
//! `--bless` runs the workload once in process and prints its
//! `reference.txt` lines.

use mmog_obs::json::{self, Value};
use perfbench::calibrate::{rescale, Probe, PROBE_REF_S};
use perfbench::check::{parse_references, References, DEFAULT_SEED, REFERENCE};
use perfbench::measure::{measure, Measurement};
use perfbench::spans::wall_share_self;
use perfbench::workloads::{Scale, Workload};
use perfbench::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// No child is started, and a running one is killed, past this point:
/// the whole invocation must end within 180 s.
const HARD_LIMIT: Duration = Duration::from_secs(165);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    child: bool,
    bless: bool,
}

const USAGE: &str = "usage: perfbench --workload paper_sweep|ladder_stream|fault_storm \
[--seed N] [--seconds S] [--trace 0|1] [--scale paper|tiny] [--bless]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperSweep,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        scale: Scale::Paper,
        child: false,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => args.child = true,
            "--bless" => args.bless = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--scale" => {
                let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad value `{v}` for {flag}");
                match flag.as_str() {
                    "--workload" => workload = Some(Workload::parse(v).ok_or_else(bad)?),
                    "--seed" => args.seed = v.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        args.seconds = v.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?;
                    }
                    "--trace" => {
                        args.trace = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad()),
                        };
                    }
                    _ => args.scale = Scale::parse(v).ok_or_else(bad)?,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn metrics_value(values: &BTreeMap<&'static str, f64>) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(k, v)| ((*k).to_string(), Value::Num(*v)))
            .collect(),
    )
}

/// The child's single stdout line.
fn child_line(m: &Measurement) -> String {
    Value::Obj(vec![
        ("attempted".into(), Value::UInt(m.attempted)),
        ("failed".into(), Value::UInt(m.failed)),
        ("digest".into(), Value::Str(format!("{:016x}", m.digest))),
        (
            "errors".into(),
            Value::Arr(m.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("end_to_end".into(), metrics_value(&m.end_to_end)),
        ("per_layer".into(), metrics_value(&m.per_layer)),
    ])
    .render()
}

/// Writes a traced child's spans, with their self times, as JSONL.
fn write_spans(args: &Args, m: &Measurement) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir)?;
    let self_s = wall_share_self(&m.spans);
    let mut out = String::new();
    for (s, t) in m.spans.iter().zip(self_s) {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
        let line = Value::Obj(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("start_ns".into(), Value::UInt(s.start_ns)),
            ("end_ns".into(), Value::UInt(s.end_ns)),
            ("parent".into(), opt(s.parent.map(|p| p as u64))),
            ("item".into(), opt(s.item)),
            ("self_s".into(), Value::Num(t)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    let name = format!("spans_{}_{}.jsonl", args.workload.name(), args.seed);
    std::fs::write(dir.join(name), out)
}

fn run_child(args: &Args) -> ExitCode {
    // Blessing ignores the stored digests it is about to replace; the
    // Fig. 11 rows and the invariants still apply.
    let refs = if args.bless {
        References::new()
    } else {
        parse_references(REFERENCE).expect("reference.txt is well-formed")
    };
    let m = measure(args.workload, args.scale, args.seed, args.trace, &refs);
    if args.bless {
        for e in &m.errors {
            eprintln!("perfbench: {e}");
        }
        for line in &m.reference_lines {
            println!("{line}");
        }
        return if m.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.trace {
        if let Err(e) = write_spans(args, &m) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", child_line(&m));
    ExitCode::SUCCESS
}

/// One child's parsed result.
struct ChildResult {
    attempted: u64,
    failed: u64,
    digest: String,
    errors: Vec<String>,
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
}

fn parse_child(line: &str) -> Result<ChildResult, String> {
    let v = json::parse(line)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("missing {k}"))
    };
    let map = |k: &str| -> Result<BTreeMap<String, f64>, String> {
        v.get(k)
            .and_then(Value::as_obj)
            .ok_or(format!("missing {k}"))?
            .iter()
            .map(|(n, x)| Ok((n.clone(), x.as_f64().ok_or(format!("{n} is not a number"))?)))
            .collect()
    };
    Ok(ChildResult {
        attempted: num("attempted")?,
        failed: num("failed")?,
        digest: v
            .get("digest")
            .and_then(Value::as_str)
            .ok_or("missing digest")?
            .into(),
        errors: v
            .get("errors")
            .and_then(Value::as_arr)
            .ok_or("missing errors")?
            .iter()
            .filter_map(|e| e.as_str().map(String::from))
            .collect(),
        end_to_end: map("end_to_end")?,
        per_layer: map("per_layer")?,
    })
}

/// Runs one fresh child process and waits for it, killing it at
/// `deadline`.
fn spawn_child(args: &Args, traced: bool, deadline: Instant) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", args.scale.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() >= deadline {
            // Kill, then reap so no process outlives the benchmark.
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("child exceeded the time limit and was killed".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("reading child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    parse_child(out.lines().last().unwrap_or(""))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn median_of(children: &[ChildResult], pick: impl Fn(&ChildResult) -> Option<f64>) -> f64 {
    median(children.iter().filter_map(pick).collect())
}

fn run_parent(args: &Args) -> ExitCode {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let deadline = start + HARD_LIMIT;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut problems = Vec::new();
    let mut crashed = 0u64;
    let mut longest_round = Duration::ZERO;
    loop {
        let round = Instant::now();
        for with_trace in [false, true] {
            if with_trace && !args.trace {
                continue;
            }
            let probe = Probe::start();
            let child = spawn_child(args, with_trace, deadline);
            let pass_s = probe.finish();
            match child {
                Ok(mut c) => {
                    let speed = PROBE_REF_S / pass_s;
                    rescale(&mut c.end_to_end, &END_TO_END, speed);
                    rescale(&mut c.per_layer, &PER_LAYER, speed);
                    c.per_layer
                        .insert("host.calibration_ms".into(), pass_s * 1e3);
                    if with_trace {
                        traced.push(c);
                    } else {
                        plain.push(c);
                    }
                }
                Err(e) => {
                    crashed += 1;
                    problems.push(e);
                }
            }
        }
        longest_round = longest_round.max(round.elapsed());
        let next_end = start.elapsed() + longest_round;
        if !problems.is_empty() || next_end > budget || next_end > HARD_LIMIT {
            break;
        }
    }
    let children: Vec<&ChildResult> = plain.iter().chain(&traced).collect();
    // A child that never reported counts as one failed run.
    let attempted: u64 = crashed + children.iter().map(|c| c.attempted).sum::<u64>();
    let mut failed: u64 = crashed + children.iter().map(|c| c.failed).sum::<u64>();
    // Every child ran the same inputs, and the program is
    // deterministic: a digest that differs from the first child's marks
    // that child's runs as failed.
    if let Some(first) = children.first() {
        for c in &children[1..] {
            if c.digest != first.digest {
                failed += c.attempted - c.failed;
                problems.push(format!("digest {} differs from {}", c.digest, first.digest));
            }
        }
    }
    for c in &children {
        problems.extend(c.errors.iter().cloned());
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let walls: Vec<String> = plain
        .iter()
        .map(|c| {
            format!(
                "{:.3}",
                c.end_to_end.get("wall_s").copied().unwrap_or(f64::NAN)
            )
        })
        .collect();
    eprintln!(
        "perfbench: {} {} children, wall_s [{}], {} traced",
        args.workload.name(),
        plain.len(),
        walls.join(" "),
        traced.len()
    );
    let mut metrics = Vec::new();
    let entry = |v: f64, u: &str| {
        Value::Obj(vec![
            ("value".into(), Value::Num(v)),
            ("unit".into(), Value::Str(u.to_string())),
        ])
    };
    if args.trace {
        let wall = |cs: &[ChildResult]| median_of(cs, |c| c.end_to_end.get("wall_s").copied());
        for (name, u) in PER_LAYER {
            let v = match name {
                "fail_rate" => failed as f64 / attempted.max(1) as f64,
                "obs.trace_overhead_pct" => 100.0 * (wall(&traced) / wall(&plain) - 1.0),
                _ => median_of(&traced, |c| c.per_layer.get(name).copied()),
            };
            metrics.push((name.to_string(), entry(v, u)));
        }
    } else {
        for (name, u) in END_TO_END {
            let v = median_of(&plain, |c| c.end_to_end.get(name).copied());
            metrics.push((name.to_string(), entry(v, u)));
        }
    }
    let result = Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(failed == 0 && problems.is_empty()),
        ),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child || args.bless {
        run_child(&args)
    } else {
        run_parent(&args)
    }
}
