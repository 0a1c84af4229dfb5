//! Regenerates Table VII (multi-MMOG workload mixes).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::table7_multi_mmog);
}
