//! Regenerates the headroom ablation.
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::ablation_headroom);
}
