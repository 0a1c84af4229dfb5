//! Regenerates Figure 2 (global concurrent players with population events).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig02_global_population);
}
