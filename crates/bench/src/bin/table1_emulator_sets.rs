//! Regenerates Table I (the eight emulated data sets).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::table1_emulator_sets);
}
