//! Regenerates the fault-injection figure (outage intensity × mode).
//!
//! Standalone entry point for the fault plane: writes the rendered
//! table to `results/fig_faults.txt`, flushes the event trace when one
//! is configured (`--trace` / `MMOG_TRACE`), and exports the metrics
//! summary under `--metrics` — the artifacts the `faults-smoke` CI job
//! validates.

use std::fs;
use std::path::Path;

fn main() {
    let opts = mmog_bench::RunOpts::from_args();
    let report = mmog_bench::experiments::fig_faults(&opts);
    print!("{report}");
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");
    let path = out_dir.join("fig_faults.txt");
    fs::write(&path, &report).expect("cannot write report");
    println!("== fig_faults -> {}", path.display());
    mmog_bench::flush_obs(&opts);
}
