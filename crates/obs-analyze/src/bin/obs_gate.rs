//! `obs_gate` — the baseline regression gate CI runs after the quick
//! suite. `obs_gate --help` prints the flags.
//!
//! Default mode compares and exits non-zero on any failure (semantic
//! drift always fails; timing failures require a matching
//! `jobs`/`logical_cpus` environment). Stages and latency paths the
//! baseline has never seen are listed by name — warnings by default,
//! hard failures under `--strict-paths` (the CI posture, so a renamed
//! kernel path can't silently dodge the p99 gate). `--update`
//! regenerates the baseline files from the current artifacts instead.
//!
//! `--summary`/`--obs-baseline` may be omitted **together** for
//! bench-only gating — any timing document with `jobs`,
//! `logical_cpus`, `stages[{path, total_ms}]` and `wall_seconds`
//! (`BENCH_parallel.json`, `BENCH_scale.json`) works as `--bench`.

use mmog_obs_analyze::gate::{
    check_bench, check_obs, make_bench_baseline, make_obs_baseline, BenchThresholds, GateOutcome,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
Usage: obs_gate --summary OBS_summary.json --bench BENCH_parallel.json
                --obs-baseline results/BASELINE_obs.json
                --bench-baseline results/BASELINE_bench.json
                [--max-slowdown-pct 25] [--min-stage-ms 50]
                [--max-p99-slowdown-pct 100] [--min-p99-us 20]
                [--strict-paths] [--update] [--suite quick]
       obs_gate --bench results/BENCH_scale.json
                --bench-baseline results/BASELINE_scale.json
";

struct Opts {
    /// `None` in bench-only mode (`--obs-baseline` must be absent too).
    summary: Option<PathBuf>,
    bench: PathBuf,
    obs_baseline: Option<PathBuf>,
    bench_baseline: PathBuf,
    thresholds: BenchThresholds,
    update: bool,
    suite: String,
}

/// The parsed flags, or `None` when `--help` asked for the usage.
fn parse_args() -> Result<Option<Opts>, String> {
    let mut args = std::env::args().skip(1);
    let mut summary = None;
    let mut bench = None;
    let mut obs_baseline = None;
    let mut bench_baseline = None;
    let mut thresholds = BenchThresholds::default();
    let mut update = false;
    let mut suite = "quick".to_string();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--summary" => summary = Some(PathBuf::from(value("--summary")?)),
            "--bench" => bench = Some(PathBuf::from(value("--bench")?)),
            "--obs-baseline" => obs_baseline = Some(PathBuf::from(value("--obs-baseline")?)),
            "--bench-baseline" => bench_baseline = Some(PathBuf::from(value("--bench-baseline")?)),
            "--max-slowdown-pct" => {
                thresholds.max_slowdown_pct = value("--max-slowdown-pct")?
                    .parse()
                    .map_err(|e| format!("--max-slowdown-pct: {e}"))?;
            }
            "--min-stage-ms" => {
                thresholds.min_stage_ms = value("--min-stage-ms")?
                    .parse()
                    .map_err(|e| format!("--min-stage-ms: {e}"))?;
            }
            "--max-p99-slowdown-pct" => {
                thresholds.max_p99_slowdown_pct = value("--max-p99-slowdown-pct")?
                    .parse()
                    .map_err(|e| format!("--max-p99-slowdown-pct: {e}"))?;
            }
            "--min-p99-us" => {
                thresholds.min_p99_us = value("--min-p99-us")?
                    .parse()
                    .map_err(|e| format!("--min-p99-us: {e}"))?;
            }
            "--strict-paths" => thresholds.strict_paths = true,
            "--update" => update = true,
            "--suite" => suite = value("--suite")?,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if summary.is_some() != obs_baseline.is_some() {
        return Err(
            "--summary and --obs-baseline must be given together (omit both for bench-only gating)"
                .into(),
        );
    }
    Ok(Some(Opts {
        summary,
        bench: bench.ok_or("missing --bench")?,
        obs_baseline,
        bench_baseline: bench_baseline.ok_or("missing --bench-baseline")?,
        thresholds,
        update,
        suite,
    }))
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &PathBuf, body: String) -> Result<(), String> {
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(opts: &Opts) -> Result<bool, String> {
    let bench = read(&opts.bench)?;
    if opts.update {
        if let (Some(summary), Some(obs_baseline)) = (&opts.summary, &opts.obs_baseline) {
            write(
                obs_baseline,
                make_obs_baseline(&read(summary)?, &opts.suite)?,
            )?;
            println!("updated {}", obs_baseline.display());
        }
        write(&opts.bench_baseline, make_bench_baseline(&bench)?)?;
        println!("updated {}", opts.bench_baseline.display());
        return Ok(true);
    }
    let mut outcome = GateOutcome::default();
    if let (Some(summary), Some(obs_baseline)) = (&opts.summary, &opts.obs_baseline) {
        outcome.merge(check_obs(&read(obs_baseline)?, &read(summary)?)?);
    }
    outcome.merge(check_bench(
        &read(&opts.bench_baseline)?,
        &bench,
        &opts.thresholds,
    )?);
    print!("{}", outcome.render("obs_gate"));
    Ok(outcome.pass())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|opts| match opts {
        Some(opts) => run(&opts),
        None => {
            print!("{USAGE}");
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("obs_gate: {e}");
            ExitCode::from(2)
        }
    }
}
