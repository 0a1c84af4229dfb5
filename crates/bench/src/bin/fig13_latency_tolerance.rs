//! Regenerates Figure 13 (latency-tolerance allocation distribution).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig13_latency_tolerance);
}
