//! Regenerates Figure 8 (static vs dynamic over-allocation).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig08_static_vs_dynamic);
}
