//! Regenerates Figure 3 (regional load envelope, IQR, ACF).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig03_regional_patterns);
}
