//! Regenerates Figure 11 (CPU resource-bulk sweep).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig11_resource_bulk);
}
