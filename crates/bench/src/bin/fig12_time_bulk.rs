//! Regenerates Figure 12 (time-bulk sweep).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig12_time_bulk);
}
