//! `scale_bench` — the federation scale sweep (10k → 10M synthetic
//! players), writing `results/BENCH_scale.json`.
//!
//! Each sweep point federates independent worlds, every one driven by a
//! streaming one-region RuneScape-like workload (O(1) memory per group
//! in the trace length) and fanned across the parallel layer; see
//! [`mmog_bench::scale`]. The JSON is gate-compatible: CI compares it
//! against `results/BASELINE_scale.json` with `obs_gate --bench-only`.
//!
//! ```text
//! scale_bench [--quick] [--full] [--ticks N] [--jobs N] [--seed N]
//!             [--flight N] [--flight-dump] [--tick-deadline-ms N]
//!             [--trace PATH] [--ts DIR] [--live PATH] [--live-every N]
//! ```
//!
//! `--quick` stops the ladder at 100k (the CI smoke scale), the default
//! runs 10k → 1M, `--full` adds the 10M point. `--ticks` sets the
//! per-world tick count (default one day, 720). The flight flags
//! install the per-run flight recorder exactly as the experiment
//! binaries do (see `mmog_bench::cli`): each world keeps a bounded
//! window of full-detail events and dumps `FLIGHT_<run>.jsonl` only on
//! a trigger.

use mmog_bench::{cli, scale};
use mmog_util::time::TICKS_PER_DAY;
use std::fs;
use std::path::Path;

struct Opts {
    quick: bool,
    full: bool,
    ticks: usize,
    run: cli::RunOpts,
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        quick: false,
        full: false,
        ticks: TICKS_PER_DAY as usize,
        // --seed, --jobs and the observability flags (--trace, --flight,
        // --ts, --live, ...) share the experiment binaries' parser, so
        // every binary spells them identically.
        run: cli::RunOpts::parse(args.clone()),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--ticks" => opts.ticks = cli::parse_next(&mut args, "--ticks"),
            _ => {}
        }
    }
    opts.run.apply_jobs();
    opts.run.apply_obs();
    opts
}

fn main() {
    let opts = parse_args();
    let points = scale::sweep_points(opts.quick, opts.full);
    println!(
        "Scale sweep: {} -> {} players, {} ticks/world, {} jobs",
        points.first().map_or(0, scale::SweepPoint::players),
        points.last().map_or(0, scale::SweepPoint::players),
        opts.ticks,
        mmog_par::jobs()
    );
    let results = scale::run_sweep(&points, opts.ticks, opts.run.seed);
    let json = scale::render_json(&results, opts.ticks, opts.run.seed);
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");
    let path = out_dir.join("BENCH_scale.json");
    fs::write(&path, &json).expect("cannot write BENCH_scale.json");
    println!("-> {}", path.display());
    print!("{json}");
    mmog_bench::flush_obs(&opts.run);
}
