//! Regenerates the request-priority extension (the paper's future work).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::ablation_priority);
}
