//! Regenerates Figure 4 (packet length / IAT CDFs).
fn main() {
    mmog_bench::run_experiment(mmog_bench::experiments::fig04_packet_cdfs);
}
