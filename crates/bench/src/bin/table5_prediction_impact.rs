//! Regenerates Table V and Figure 7 (prediction impact on provisioning).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::table5_prediction_impact);
}
