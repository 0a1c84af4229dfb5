//! Regenerates Figure 1 (MMORPG market growth).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig01_growth);
}
