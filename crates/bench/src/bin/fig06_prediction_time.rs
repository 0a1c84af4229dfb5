//! Regenerates Figure 6 (per-prediction latency).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig06_prediction_time);
}
