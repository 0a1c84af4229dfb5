//! Regenerates the area-of-interest ablation.
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::ablation_aoi);
}
