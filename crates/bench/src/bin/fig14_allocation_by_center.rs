//! Regenerates Figure 14 (per-center allocation at Very-far tolerance).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig14_allocation_by_center);
}
