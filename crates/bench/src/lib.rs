//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/` binary is a thin wrapper around a function in
//! [`experiments`]; `bin/all_experiments` runs the full suite and
//! writes `results/*.txt`. Criterion micro-benchmarks live under
//! `benches/`.

pub mod cli;
pub mod experiments;
pub mod scale;

pub use cli::RunOpts;

use std::fs;
use std::path::Path;

/// One table or figure: renders its report at the given scale.
pub type Experiment = fn(&RunOpts) -> String;

/// Runs one experiment as a standalone binary: parses the process
/// flags, prints the report and writes the observability exports the
/// flags asked for (see [`flush_obs`]).
pub fn run_experiment(experiment: Experiment) {
    let opts = RunOpts::from_args();
    print!("{}", experiment(&opts));
    flush_obs(&opts);
}

/// Writes a run's observability exports: the event trace (`--trace` /
/// `MMOG_TRACE`), the time-series documents (`--ts` / `MMOG_TS`) and,
/// under `--metrics`, `results/OBS_summary.json`. Every binary calls
/// this once its work is done, so no parsed flag goes unwritten.
///
/// # Panics
/// Panics when `results/` or the summary cannot be written.
pub fn flush_obs(opts: &RunOpts) {
    match mmog_obs::flush_trace() {
        Ok(Some(path)) => println!("== event trace -> {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("== event trace write failed: {e}"),
    }
    match mmog_obs::flush_ts() {
        Ok(paths) => {
            for path in paths {
                println!("== time series -> {}", path.display());
            }
        }
        Err(e) => eprintln!("== time-series write failed: {e}"),
    }
    if !opts.metrics {
        return;
    }
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");
    let path = out_dir.join("OBS_summary.json");
    fs::write(&path, mmog_obs::summary_json()).expect("cannot write OBS summary");
    println!("== metrics summary -> {}", path.display());
}
