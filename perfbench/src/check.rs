//! Correctness of the simulation runs: a semantic digest per run,
//! compared against the references stored with the benchmark, plus the
//! committed Fig. 11 rows and invariants that hold for every seed.

use mmog_datacenter::resource::ResourceType;
use mmog_sim::engine::SimReport;
use mmog_sim::metrics::MetricsCollector;
use std::collections::BTreeMap;

/// The references stored with the benchmark.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The committed Figure 11 report the paper sweep reproduces at the
/// default seed.
const FIG11: &str = include_str!("../../results/fig11_resource_bulk.txt");

/// The experiments' default master seed.
pub const DEFAULT_SEED: u64 = 2008;

/// FNV-1a over the bit patterns of the values fed to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds eight bytes in.
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string in, length first.
    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    #[must_use]
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn metrics(h: &mut Fnv, m: &MetricsCollector) {
    for r in ResourceType::ALL {
        for stats in [m.over_stats(r), m.under_stats(r)] {
            h.u64(stats.count());
            h.f64(stats.mean());
            h.f64(stats.variance());
        }
    }
    h.u64(m.events());
    h.u64(m.samples());
}

/// The semantic digest of one run: Ω/Υ/events overall and per game,
/// per-center usage, rejection totals and the fault and scenario
/// counters. The memo's skip/full split is left out: it depends on the
/// process-global availability epoch, which concurrent runs move.
#[must_use]
pub(crate) fn digest(report: &SimReport) -> u64 {
    let mut h = Fnv::default();
    metrics(&mut h, &report.metrics);
    for game in &report.per_game {
        h.str(&game.name);
        metrics(&mut h, &game.metrics);
    }
    for c in &report.center_usage {
        h.str(&c.name);
        h.f64(c.capacity_cpu);
        h.f64(c.cpu_total);
        h.f64(c.cpu_free);
        for (&op, &cpu) in &c.cpu_by_operator {
            h.u64(u64::from(op));
            h.f64(cpu);
        }
    }
    let r = &report.rejections;
    for n in [
        r.distance,
        r.exhausted,
        r.grant_failed,
        r.unavailable,
        r.partitioned,
    ] {
        h.u64(n);
    }
    h.u64(report.unmet_steps);
    h.u64(report.ticks as u64);
    h.f64(report.unserved_player_ticks);
    for &t in &report.recovery_ticks {
        h.u64(t);
    }
    for n in [
        report.unrecovered_outages as u64,
        report.fault_events,
        report.leases_revoked,
        report.reprovisions,
        report.scenario_events,
        report.migrations,
    ] {
        h.u64(n);
    }
    h.f64(report.migration_player_ticks);
    h.finish()
}

/// Reference digests keyed by (workload, scale, seed), then run label.
pub type References = BTreeMap<(String, String, u64), BTreeMap<String, u64>>;

/// Parses reference lines `workload scale seed run digest-hex`; `#`
/// starts a comment.
///
/// # Errors
/// Names the first malformed line.
pub fn parse_references(text: &str) -> Result<References, String> {
    let mut out = References::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f[..] {
            [w, scale, seed, run, hex] => seed
                .parse()
                .ok()
                .zip(u64::from_str_radix(hex, 16).ok())
                .map(|(seed, d)| ((w.to_string(), scale.to_string(), seed), run, d)),
            _ => None,
        };
        let (key, run, d) = parsed.ok_or_else(|| format!("reference line {}: `{line}`", n + 1))?;
        out.entry(key).or_default().insert(run.to_string(), d);
    }
    Ok(out)
}

/// Why a run's output is wrong, if it is.
#[must_use]
pub(crate) fn invariant_violation(report: &SimReport) -> Option<String> {
    if report.ticks == 0 {
        return Some("no ticks simulated".into());
    }
    let m = &report.metrics;
    for r in ResourceType::ALL {
        if !(m.avg_over(r).is_finite() && m.avg_under(r).is_finite()) {
            return Some(format!("non-finite {} allocation metric", r.label()));
        }
    }
    if !(report.unserved_player_ticks.is_finite() && report.unserved_player_ticks >= 0.0) {
        return Some("unserved player-ticks negative or non-finite".into());
    }
    for c in &report.center_usage {
        let by_operator: f64 = c.cpu_by_operator.values().sum();
        if c.cpu_total < 0.0 || (by_operator - c.cpu_total).abs() > 1e-6 * c.cpu_total.max(1.0) {
            return Some(format!(
                "{}: usage by operator {by_operator} does not sum to {}",
                c.name, c.cpu_total
            ));
        }
    }
    None
}

/// The Figure 11 row of one policy as the committed report prints it.
#[must_use]
pub(crate) fn fig11_row(policy: &str, report: &SimReport) -> String {
    let m = &report.metrics;
    format!(
        "{policy} {:.2} {:.3} {}",
        m.avg_over(ResourceType::Cpu),
        m.avg_under(ResourceType::Cpu),
        m.events()
    )
}

/// The committed Figure 11 rows, in the [`fig11_row`] format.
#[must_use]
pub(crate) fn committed_fig11_rows() -> BTreeMap<String, String> {
    FIG11
        .lines()
        .filter(|l| l.starts_with("HP-"))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 5).then(|| {
                (
                    f[0].to_string(),
                    format!("{} {} {} {}", f[0], f[2], f[3], f[4]),
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_references_parse() {
        let refs = parse_references(REFERENCE).expect("reference.txt parses");
        assert!(!refs.is_empty());
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(parse_references("paper_sweep paper x HP-3 00").is_err());
        assert!(parse_references("paper_sweep paper 1 HP-3").is_err());
        assert!(parse_references("paper_sweep paper 1 HP-3 zz").is_err());
    }

    #[test]
    fn the_committed_figure_has_five_policies() {
        let rows = committed_fig11_rows();
        let policies: Vec<&str> = rows.keys().map(String::as_str).collect();
        assert_eq!(policies, ["HP-3", "HP-4", "HP-5", "HP-6", "HP-7"]);
    }
}
