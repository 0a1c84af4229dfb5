//! Regenerates Figure 5 (prediction accuracy bake-off).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig05_prediction_accuracy);
}
