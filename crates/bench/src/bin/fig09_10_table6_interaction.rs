//! Regenerates Figures 9-10 and Table VI (update-model impact).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig09_10_table6_interaction);
}
