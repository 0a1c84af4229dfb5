//! One measured execution of a workload inside a fresh process: runs
//! it, checks every run's output, and turns the outcome, the
//! benchmark's spans and the `mmog_obs` snapshots into metric values.

use crate::check::{self, References, DEFAULT_SEED};
use crate::spans::{par_stats, wall_share_self, Recorder, Span};
use crate::workloads::{execute, Outcome, Scale, Workload};
use mmog_datacenter::resource::ResourceType;
use std::collections::BTreeMap;

/// Worker count for `mmog_par`: the logical CPUs, at most two, so the
/// figures stay comparable between small and large hosts.
#[must_use]
fn jobs() -> usize {
    mmog_par::available_jobs().min(2)
}

/// Process user+sys CPU seconds, all threads included.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    if f.len() == 2 {
        (f[0] + f[1]) / 100.0
    } else {
        f64::NAN
    }
}

/// The process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one process measured.
#[derive(Debug)]
pub struct Measurement {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that panicked or whose output failed a check.
    pub failed: u64,
    /// Why runs failed, one line each.
    pub errors: Vec<String>,
    /// Digest over every run's label and semantic digest.
    pub digest: u64,
    /// Reference lines for `reference.txt`, one per run.
    pub reference_lines: Vec<String>,
    /// End-to-end metric values.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The benchmark's spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Checks every run; returns (failed, errors, combined digest,
/// reference lines).
fn check_runs(
    w: Workload,
    scale: Scale,
    seed: u64,
    outcome: &Outcome,
    refs: &References,
) -> (u64, Vec<String>, u64, Vec<String>) {
    let expected = refs.get(&(w.name().to_string(), scale.name().to_string(), seed));
    let fig11 = (w == Workload::PaperSweep && scale == Scale::Paper && seed == DEFAULT_SEED)
        .then(check::committed_fig11_rows);
    let mut errors = Vec::new();
    let mut failed = 0;
    let mut combined = check::Fnv::default();
    let mut lines = Vec::new();
    for run in &outcome.runs {
        let Some(report) = &run.report else {
            failed += 1;
            errors.push(format!("{}: panicked", run.label));
            combined.str(&run.label);
            continue;
        };
        let d = check::digest(report);
        combined.str(&run.label);
        combined.u64(d);
        lines.push(format!(
            "{} {} {seed} {} {d:016x}",
            w.name(),
            scale.name(),
            run.label
        ));
        let mut error = check::invariant_violation(report);
        if let Some(expected) = expected {
            match expected.get(&run.label) {
                Some(&e) if e == d => {}
                Some(&e) => error = Some(format!("digest {d:016x}, reference {e:016x}")),
                None => error = Some("no reference digest".into()),
            }
        }
        if let Some(rows) = &fig11 {
            let row = check::fig11_row(&run.label, report);
            if rows.get(&run.label) != Some(&row) {
                error = Some(format!(
                    "Fig. 11 row `{row}` differs from the committed report"
                ));
            }
        }
        if let Some(e) = error {
            failed += 1;
            errors.push(format!("{}: {e}", run.label));
        }
    }
    (failed, errors, combined.finish(), lines)
}

/// Runs the workload once in this process and measures it.
#[must_use]
pub fn measure(
    w: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    refs: &References,
) -> Measurement {
    let jobs = jobs();
    mmog_par::set_jobs(jobs);
    let cpu_start = cpu_seconds();
    let rec = Recorder::new(traced);
    let outcome = execute(w, scale, seed, &rec);
    let cpu_s = cpu_seconds() - cpu_start;
    let spans = rec.into_spans();
    let (failed, errors, digest, reference_lines) = check_runs(w, scale, seed, &outcome, refs);
    let reports: Vec<_> = outcome
        .runs
        .iter()
        .filter_map(|r| r.report.as_ref())
        .collect();
    let over_cpu_pct = reports
        .iter()
        .map(|r| r.metrics.avg_over(ResourceType::Cpu))
        .sum::<f64>()
        / reports.len().max(1) as f64;
    let end_to_end = BTreeMap::from([
        ("wall_s", outcome.wall_s),
        ("setup_s", outcome.setup_s),
        (
            "group_ticks_per_s",
            outcome.group_ticks as f64 / outcome.run_s,
        ),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("over_cpu_pct", over_cpu_pct),
    ]);
    let attempted = outcome.runs.len() as u64;
    let per_layer = if traced {
        layers(&outcome, &reports, &spans, jobs)
    } else {
        BTreeMap::new()
    };
    Measurement {
        attempted,
        failed,
        errors,
        digest,
        reference_lines,
        end_to_end,
        per_layer,
        spans,
    }
}

fn layers(
    outcome: &Outcome,
    reports: &[&mmog_sim::SimReport],
    spans: &[Span],
    jobs: usize,
) -> BTreeMap<&'static str, f64> {
    let self_s = wall_share_self(spans);
    let self_of = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&self_s)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    };
    let bench_self: f64 = spans
        .iter()
        .zip(&self_s)
        .filter(|(s, _)| !matches!(s.name, "workload.generate" | "sim.new" | "sim.run"))
        .map(|(_, t)| t)
        .sum();
    let obs_spans = mmog_obs::snapshot_spans();
    let span = |path: &str| {
        obs_spans
            .iter()
            .find(|(p, _)| p == path)
            .map_or(0.0, |(_, s)| s.total_ns as f64 / 1e9)
    };
    let counters = mmog_obs::snapshot_metrics().counters;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, _, v)| *v as f64)
    };
    let tick = mmog_obs::snapshot_latency()
        .into_iter()
        .find(|(p, _)| p == "sim/run/tick")
        .map(|(_, s)| s);
    let tick_us = |q: f64| {
        tick.as_ref()
            .and_then(|s| s.quantile(q))
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let (skips, full) = (counter("sim.match.skips"), counter("sim.match.full"));
    let par = par_stats(spans, jobs);
    BTreeMap::from([
        ("workload.generate_s", self_of("workload.generate")),
        ("sim.build_s", self_of("sim.new")),
        ("sim.run_s", self_of("sim.run")),
        ("bench.self_s", bench_self),
        ("predict.train_calls", counter("predict.train.models")),
        ("predict.train_s", span("predict/neural/train")),
        (
            "predict.train_repeat_share",
            outcome.train_repeats as f64 / (outcome.train_calls.max(1)) as f64,
        ),
        ("sim.predict_score_s", span("sim/run/predict_score")),
        ("sim.reduce_s", span("sim/run/reduce")),
        ("sim.match_settle_s", span("sim/run/match_settle")),
        ("datacenter.match_calls", counter("match.requests")),
        ("sim.match_full", full),
        ("sim.match_skips", skips),
        ("sim.match_skip_rate", skips / (skips + full).max(1.0)),
        ("datacenter.leases_granted", counter("sim.leases_granted")),
        ("datacenter.leases_released", counter("sim.leases_released")),
        (
            "datacenter.rejections",
            reports.iter().map(|r| r.rejections.total()).sum::<u64>() as f64,
        ),
        ("faults.events", counter("faults.events")),
        ("faults.leases_revoked", counter("faults.leases_revoked")),
        ("faults.reprovisions", counter("faults.reprovisions")),
        (
            "unserved_player_ticks",
            reports.iter().map(|r| r.unserved_player_ticks).sum(),
        ),
        ("scenario.events", counter("scenario.events")),
        ("scenario.migrations", counter("scenario.migrations")),
        ("par.items", par.items as f64),
        ("par.busy_s", par.busy_s),
        ("par.efficiency", par.efficiency),
        ("par.straggler_s", par.straggler_s),
        ("sim.tick_p50_us", tick_us(0.5)),
        ("sim.tick_p99_us", tick_us(0.99)),
        (
            "under_events",
            reports.iter().map(|r| r.metrics.events()).sum::<u64>() as f64,
        ),
    ])
}
