//! The repository's benchmark: three workloads driven through the
//! program's public functions, measured end to end in fresh processes
//! and layer by layer in a separate traced run. See `README.md`.

pub mod calibrate;
pub mod check;
pub mod measure;
pub mod spans;
pub mod workloads;

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
/// Times and rates here and per layer are rescaled to the reference
/// host's speed; see [`calibrate`].
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("group_ticks_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("over_cpu_pct", "%"),
];

/// Per-layer metrics with their units, as `BENCHMARK.json` lists them.
/// `fail_rate`, `obs.trace_overhead_pct` and `host.calibration_ms` are
/// computed by the parent process; the rest come from a traced child.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("workload.generate_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("bench.self_s", "s"),
    ("predict.train_calls", "count"),
    ("predict.train_s", "s"),
    ("predict.train_repeat_share", "ratio"),
    ("sim.predict_score_s", "s"),
    ("sim.reduce_s", "s"),
    ("sim.match_settle_s", "s"),
    ("datacenter.match_calls", "count"),
    ("sim.match_full", "count"),
    ("sim.match_skips", "count"),
    ("sim.match_skip_rate", "ratio"),
    ("datacenter.leases_granted", "count"),
    ("datacenter.leases_released", "count"),
    ("datacenter.rejections", "count"),
    ("faults.events", "count"),
    ("faults.leases_revoked", "count"),
    ("faults.reprovisions", "count"),
    ("unserved_player_ticks", "player-ticks"),
    ("scenario.events", "count"),
    ("scenario.migrations", "count"),
    ("par.items", "count"),
    ("par.busy_s", "s"),
    ("par.efficiency", "ratio"),
    ("par.straggler_s", "s"),
    ("sim.tick_p50_us", "us"),
    ("sim.tick_p99_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("under_events", "count"),
    ("fail_rate", "ratio"),
    ("host.calibration_ms", "ms"),
];
