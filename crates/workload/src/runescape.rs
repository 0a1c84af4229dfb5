//! The calibrated RuneScape-like trace generator.
//!
//! The paper's input workload is ten months of scraped RuneScape player
//! counts; this generator is the substitution (DESIGN.md §2). It
//! reproduces every statistical property Sec. III reports:
//!
//! - five geographical regions, with region 0 (Europe) holding 40 server
//!   groups (Fig. 3 analyses "40 different server groups");
//! - a diurnal pattern whose autocorrelation peaks at lag 720 (24 h of
//!   2-minute samples) with a negative peak at lag 360 (12 h);
//! - cross-group popularity spread such that at peak hours "the median is
//!   about 50% higher than the minimum";
//! - "the load of 2-5% of the servers is always 95%, except for outages";
//! - rare, short-lived server-group outages ("few and short-lived");
//! - a weekend effect on roughly one third of the traces (Sec. III-C:
//!   "This behavior is typical for one third of our traces");
//! - optional global population events (Figure 2's mass-quit and
//!   content-release shocks) via [`PopulationEvent`].

use crate::events::{combined_multiplier, PopulationEvent};
use crate::trace::{GameTrace, RegionId, RegionTrace, ServerGroupId, ServerGroupTrace};
use mmog_util::rng::Rng64;
use mmog_util::time::{SimTime, TICKS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Parameters of one geographical region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Region name (for reports).
    pub name: String,
    /// Number of server groups hosted for this region.
    pub groups: u32,
    /// Player capacity of one fully loaded server group (2 000 for
    /// RuneScape, Sec. V-A).
    pub peak_players: f64,
    /// Offset of the local clock from trace time, in hours; shifts the
    /// diurnal peak so regions peak at their own late afternoon.
    pub utc_offset_hours: f64,
}

/// Full generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuneScapeConfig {
    /// Regions to generate.
    pub regions: Vec<RegionSpec>,
    /// Length of the trace in days.
    pub days: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Global population events applied to every group.
    pub events: Vec<PopulationEvent>,
    /// Fraction of groups pinned at 95 % load (paper: 2–5 %).
    pub always_full_fraction: f64,
    /// Fraction of groups showing a weekend effect (paper: one third).
    pub weekend_fraction: f64,
    /// Per-group probability of an outage starting on any given day.
    pub outage_prob_per_day: f64,
    /// Amplitude of the diurnal swing (0 = flat, 1 = empty at trough).
    pub diurnal_amplitude: f64,
    /// Per-tick probability that a group starts a flash episode — a
    /// ±10–25 % load swing ramping over a few ticks (world hops,
    /// minigame schedules). These drive the short-term dynamics that
    /// Sec. III shows are "more dynamic than previously believed".
    pub flash_prob_per_tick: f64,
    /// Per-tick probability that a whole region surges together — the
    /// scheduled in-game events (minigame rounds, boss spawns) that move
    /// players across every server group of a region at once. These
    /// correlated ramps are what defeat lagging predictors.
    pub regional_flash_prob_per_tick: f64,
}

impl RuneScapeConfig {
    /// The five-region layout calibrated to the paper: ~130 groups with
    /// 2 000-player capacity each, giving a maximal global concurrent
    /// population around 250 000 (Sec. III-B).
    #[must_use]
    pub fn paper_default(days: u64, seed: u64) -> Self {
        Self {
            regions: vec![
                RegionSpec {
                    name: "Europe".into(),
                    groups: 40,
                    peak_players: 2000.0,
                    utc_offset_hours: 1.0,
                },
                RegionSpec {
                    name: "US East".into(),
                    groups: 30,
                    peak_players: 2000.0,
                    utc_offset_hours: -5.0,
                },
                RegionSpec {
                    name: "US West".into(),
                    groups: 25,
                    peak_players: 2000.0,
                    utc_offset_hours: -8.0,
                },
                RegionSpec {
                    name: "US Central".into(),
                    groups: 20,
                    peak_players: 2000.0,
                    utc_offset_hours: -6.0,
                },
                RegionSpec {
                    name: "Oceania".into(),
                    groups: 15,
                    peak_players: 2000.0,
                    utc_offset_hours: 10.0,
                },
            ],
            days,
            seed,
            events: Vec::new(),
            always_full_fraction: 0.03,
            weekend_fraction: 1.0 / 3.0,
            outage_prob_per_day: 0.03,
            diurnal_amplitude: 0.65,
            flash_prob_per_tick: 0.004,
            regional_flash_prob_per_tick: 0.01,
        }
    }

    /// Like [`Self::paper_default`] but with the Figure 2 event sequence
    /// attached (mass-quit at `lead_days`, releases after).
    #[must_use]
    pub fn with_figure2_events(days: u64, seed: u64, lead_days: u64) -> Self {
        let mut cfg = Self::paper_default(days, seed);
        cfg.events = PopulationEvent::figure2_sequence(lead_days);
        cfg
    }
}

/// Peak-hour weight in `[0, 1]`: 1 at 19:00 local, 0 at 07:00 local.
fn diurnal(local_hour: f64) -> f64 {
    0.5 * (1.0 - (2.0 * std::f64::consts::PI * (local_hour - 7.0) / 24.0).cos())
}

/// Longest regional surge episode: ramp ≤ 4 ticks and hold ≤ 60 (the
/// bounds [`EpisodeStream::next`] draws from), so `2·ramp + hold ≤ 68`.
pub(crate) const SURGE_EPISODE_CAP: usize = 2 * 4 + 60;

/// Longest group flash episode: ramp ≤ 8 ticks and hold ≤ 60 (the
/// bounds [`GroupStream::next`] draws from), so `2·ramp + hold ≤ 76`.
pub(crate) const FLASH_EPISODE_CAP: usize = 2 * 8 + 60;

/// One region's model state: its surge episodes, shared by every group
/// of the region, and its groups.
#[derive(Debug, Clone)]
pub(crate) struct RegionStream {
    pub(crate) surge: EpisodeStream,
    pub(crate) groups: Vec<GroupStream>,
}

/// Splits the seed into the model's streams, region-major: per region
/// one surge stream, then one stream per group. Both drivers start
/// here, so there is one RNG protocol.
pub(crate) fn region_streams(cfg: &RuneScapeConfig) -> Vec<RegionStream> {
    let mut rng = Rng64::seed_from(cfg.seed);
    cfg.regions
        .iter()
        .map(|spec| RegionStream {
            surge: EpisodeStream::new(rng.split()),
            groups: (0..spec.groups)
                .map(|_| GroupStream::new(rng.split(), cfg))
                .collect(),
        })
        .collect()
}

/// A region's surge episodes: an episode starts with a per-tick
/// probability, ramps to a magnitude in ±[4 %, 13 %] over 1–4 ticks,
/// holds, then ramps back. The levels of the episode in progress are
/// staged in a fixed-capacity buffer.
#[derive(Debug, Clone)]
pub(crate) struct EpisodeStream {
    rng: Rng64,
    /// Levels of the episode in progress; `cursor..` is still to serve.
    pub(crate) levels: Vec<f64>,
    cursor: usize,
}

impl EpisodeStream {
    fn new(rng: Rng64) -> Self {
        Self {
            rng,
            levels: Vec::with_capacity(SURGE_EPISODE_CAP),
            cursor: 0,
        }
    }

    /// The surge level at tick `t`. Calls must come for `t = 0, 1, 2, …`
    /// in order.
    pub(crate) fn next(&mut self, t: SimTime, spec: &RegionSpec, cfg: &RuneScapeConfig) -> f64 {
        if let Some(&level) = self.levels.get(self.cursor) {
            self.cursor += 1;
            return level;
        }
        // Magnitudes sit near the |Υ| = 1% event threshold on purpose,
        // and episodes cluster at the region's peak hours (scheduled
        // in-game events run when players are online): super-linear
        // update models amplify the same player surge into a larger
        // resource shortfall there (the Figure 10 separation).
        let peak = diurnal(t.hour_of_day() + spec.utc_offset_hours);
        if !self
            .rng
            .chance(cfg.regional_flash_prob_per_tick * 2.0 * peak * peak)
        {
            return 0.0;
        }
        let magnitude =
            self.rng.range_f64(0.04, 0.13) * if self.rng.chance(0.6) { 1.0 } else { -1.0 };
        let ramp = self.rng.range_u64(1, 5) as usize;
        let hold = self.rng.range_u64(10, 61) as usize;
        let step = magnitude / ramp as f64;
        let mut level = 0.0;
        self.levels.clear();
        for phase in 0..(2 * ramp + hold) {
            if phase < ramp {
                level += step;
            } else if phase >= ramp + hold {
                level -= step;
            }
            self.levels.push(level);
        }
        self.cursor = 1;
        self.levels[0]
    }
}

/// Per-group latent state sampled once at generation start.
#[derive(Debug, Clone)]
struct GroupProfile {
    /// Relative popularity in (0, 1]; spreads the peak-hour loads so the
    /// cross-group median sits ~50 % above the minimum.
    popularity: f64,
    /// Pinned at 95 % load?
    always_full: bool,
    /// Shows the weekend effect?
    weekend: bool,
    /// Small per-group phase shift of the diurnal peak (hours).
    phase_jitter: f64,
}

/// One server group's load model, advanced one tick per call with O(1)
/// state: the AR(1) noise register, the outage countdown and the flash
/// episode in progress.
#[derive(Debug, Clone)]
pub(crate) struct GroupStream {
    rng: Rng64,
    profile: GroupProfile,
    /// AR(1) multiplicative noise: keeps the 2-minute signal smooth but
    /// wandering, like real login churn.
    noise: f64,
    /// Remaining outage ticks.
    outage_left: u32,
    /// Current flash boost and the reversed delta plan being consumed.
    flash_boost: f64,
    pub(crate) flash_plan: Vec<f64>,
}

impl GroupStream {
    fn new(mut rng: Rng64, cfg: &RuneScapeConfig) -> Self {
        let profile = GroupProfile {
            popularity: rng.triangular(0.55, 1.0, 0.85),
            always_full: rng.chance(cfg.always_full_fraction),
            weekend: rng.chance(cfg.weekend_fraction),
            phase_jitter: rng.range_f64(-1.0, 1.0),
        };
        Self {
            rng,
            profile,
            noise: 0.0,
            outage_left: 0,
            flash_boost: 0.0,
            flash_plan: Vec::with_capacity(FLASH_EPISODE_CAP),
        }
    }

    /// The group's load at tick `t`, given the region's surge level
    /// there. Calls must come for `t = 0, 1, 2, …` in order.
    pub(crate) fn next(
        &mut self,
        t: SimTime,
        regional: f64,
        spec: &RegionSpec,
        cfg: &RuneScapeConfig,
    ) -> f64 {
        // Outages hit all groups, including the always-full ones
        // ("always 95%, except for outages").
        if self.outage_left > 0 {
            self.outage_left -= 1;
            return 0.0;
        }
        if self
            .rng
            .chance(cfg.outage_prob_per_day / TICKS_PER_DAY as f64)
        {
            // 10–60 minutes: "few and short-lived".
            self.outage_left = self.rng.range_u64(5, 31) as u32;
            return 0.0;
        }

        // Flash episodes: ramp up over 3-8 ticks, hold 10-60, ramp down.
        if self.flash_plan.is_empty()
            && self.flash_boost == 0.0
            && self.rng.chance(cfg.flash_prob_per_tick)
        {
            let magnitude =
                self.rng.range_f64(0.10, 0.25) * if self.rng.chance(0.6) { 1.0 } else { -1.0 };
            let ramp = self.rng.range_u64(3, 9) as usize;
            let hold = self.rng.range_u64(10, 61) as usize;
            // The reversed delta plan, consumed back to front: ramp
            // down, hold, ramp up.
            let step = magnitude / ramp as f64;
            self.flash_plan.clear();
            self.flash_plan.extend(std::iter::repeat_n(-step, ramp));
            self.flash_plan.extend(std::iter::repeat_n(0.0, hold));
            self.flash_plan.extend(std::iter::repeat_n(step, ramp));
        }
        if let Some(delta) = self.flash_plan.pop() {
            self.flash_boost += delta;
            if self.flash_plan.is_empty() {
                self.flash_boost = 0.0; // cancel rounding drift
            }
        }

        let event_mult = combined_multiplier(&cfg.events, t);
        let load = if self.profile.always_full {
            0.95 * spec.peak_players * event_mult.min(1.05)
        } else {
            let local_hour = t.hour_of_day() + spec.utc_offset_hours + self.profile.phase_jitter;
            let daily = (1.0 - cfg.diurnal_amplitude) + cfg.diurnal_amplitude * diurnal(local_hour);
            let weekend = if self.profile.weekend && t.is_weekend() {
                1.2
            } else {
                1.0
            };
            let (rho, sigma) = (0.98, 0.015);
            self.noise = rho * self.noise + sigma * self.rng.normal();
            spec.peak_players
                * self.profile.popularity
                * daily
                * weekend
                * event_mult
                * (1.0 + self.noise)
                * (1.0 + self.flash_boost)
                * (1.0 + regional)
        };
        load.clamp(0.0, spec.peak_players * 1.05).round()
    }
}

/// Generates a full multi-region trace, driving the model group-major:
/// each region's surge levels first, then each group across all ticks.
/// [`crate::stream::StreamingTrace`] drives the same streams tick-major
/// and yields the same values.
#[must_use]
pub fn generate(cfg: &RuneScapeConfig) -> GameTrace {
    let ticks = (cfg.days * TICKS_PER_DAY) as usize;
    let regions = region_streams(cfg)
        .into_iter()
        .zip(&cfg.regions)
        .enumerate()
        .map(|(ri, (mut stream, spec))| {
            let region = RegionId(ri as u8);
            let surge: Vec<f64> = (0..ticks)
                .map(|t| stream.surge.next(SimTime(t as u64), spec, cfg))
                .collect();
            let groups = stream
                .groups
                .iter_mut()
                .zip(0..)
                .map(|(group, gi)| ServerGroupTrace {
                    region,
                    group: ServerGroupId(gi),
                    series: surge
                        .iter()
                        .enumerate()
                        .map(|(t, &regional)| group.next(SimTime(t as u64), regional, spec, cfg))
                        .collect(),
                })
                .collect();
            RegionTrace {
                region,
                name: spec.name.clone(),
                groups,
            }
        })
        .collect();
    GameTrace { regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_util::stats;

    fn small_cfg() -> RuneScapeConfig {
        let mut cfg = RuneScapeConfig::paper_default(4, 99);
        // Shrink for test speed: two regions, few groups.
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 10;
        cfg.regions[1].groups = 5;
        cfg
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.global_series().values(), b.global_series().values());
    }

    #[test]
    fn shape_matches_config() {
        let t = generate(&small_cfg());
        assert_eq!(t.regions.len(), 2);
        assert_eq!(t.total_groups(), 15);
        assert_eq!(t.global_series().len(), 4 * TICKS_PER_DAY as usize);
    }

    #[test]
    fn loads_within_capacity() {
        let t = generate(&small_cfg());
        for r in &t.regions {
            for g in &r.groups {
                for &v in g.series.values() {
                    assert!(v >= 0.0);
                    assert!(v <= 2000.0 * 1.05 + 0.5, "load {v} beyond capacity");
                }
            }
        }
    }

    #[test]
    fn diurnal_pattern_has_daily_acf_peak() {
        let mut cfg = small_cfg();
        cfg.days = 6;
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        // Regional aggregate should autocorrelate at 24 h (lag 720) and
        // anti-correlate at 12 h (lag 360) — the Figure 3 structure.
        let agg = t.regions[0].aggregate();
        let acf = stats::autocorrelation(agg.values(), 760);
        assert!(acf[720] > 0.6, "24h ACF {}", acf[720]);
        assert!(acf[360] < -0.3, "12h ACF {}", acf[360]);
    }

    #[test]
    fn peak_hour_median_roughly_fifty_pct_above_min() {
        // Sec. III-C: "the median is about 50% higher than the minimum"
        // during peak hours. Exclude pinned/always-full groups (they are
        // outliers above) and outage zeros (below).
        let mut cfg = RuneScapeConfig::paper_default(2, 5);
        cfg.regions.truncate(1);
        cfg.always_full_fraction = 0.0;
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        // Peak local hour for Europe (+1): 19:00 local = 18:00 trace.
        let tick = (18 * 30) as usize;
        let cross = t.regions[0].cross_section(tick);
        let med = stats::median(&cross).unwrap();
        let min = cross.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = med / min;
        assert!((1.2..2.2).contains(&ratio), "median/min at peak: {ratio}");
    }

    #[test]
    fn always_full_groups_sit_at_95_pct() {
        let mut cfg = small_cfg();
        cfg.always_full_fraction = 1.0;
        cfg.outage_prob_per_day = 0.0;
        cfg.events.clear();
        let t = generate(&cfg);
        for r in &t.regions {
            for g in &r.groups {
                let mean = g.series.mean().unwrap();
                assert!((mean - 1900.0).abs() < 10.0, "mean {mean}");
            }
        }
    }

    #[test]
    fn outages_drop_load_to_zero_briefly() {
        let mut cfg = small_cfg();
        cfg.outage_prob_per_day = 2.0; // force some outages
        let t = generate(&cfg);
        let zeros: usize = t
            .regions
            .iter()
            .flat_map(|r| &r.groups)
            .map(|g| g.series.values().iter().filter(|v| **v == 0.0).count())
            .sum();
        assert!(zeros > 0, "no outages generated");
        // Still short-lived overall: far less than 20% of all samples.
        let total: usize = t
            .regions
            .iter()
            .flat_map(|r| &r.groups)
            .map(|g| g.series.len())
            .sum();
        assert!((zeros as f64) < 0.2 * total as f64);
    }

    #[test]
    fn figure2_events_shape_global_series() {
        let mut cfg = RuneScapeConfig::with_figure2_events(24, 3, 8);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 8;
        cfg.regions[1].groups = 6;
        let t = generate(&cfg);
        let global = t.global_series();
        // Daily means to smooth the diurnal cycle out.
        let daily = global.downsample_mean(TICKS_PER_DAY as usize);
        let before = daily.values()[6]; // day 6: pre-event baseline
        let crash = daily.values()[9]; // day 9: right after the decision
        let surge = daily.values()[18]; // day 18: first release surge
        assert!(crash < 0.9 * before, "crash {crash} vs before {before}");
        assert!(surge > before, "surge {surge} vs before {before}");
    }

    #[test]
    fn weekend_fraction_respected_in_aggregate() {
        // With weekends boosted for a third of groups, weekend loads
        // should exceed weekday loads slightly in aggregate.
        let mut cfg = RuneScapeConfig::paper_default(14, 11);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 30;
        cfg.outage_prob_per_day = 0.0;
        cfg.always_full_fraction = 0.0;
        let t = generate(&cfg);
        let daily = t.global_series().downsample_mean(TICKS_PER_DAY as usize);
        let vals = daily.values();
        // Days 5,6,12,13 are weekends under the Monday-epoch convention.
        let weekend_mean = (vals[5] + vals[6] + vals[12] + vals[13]) / 4.0;
        let weekday_mean = (0..14)
            .filter(|d| ![5usize, 6, 12, 13].contains(d))
            .map(|d| vals[d])
            .sum::<f64>()
            / 10.0;
        assert!(
            weekend_mean > weekday_mean * 1.02,
            "weekend {weekend_mean} weekday {weekday_mean}"
        );
    }

    #[test]
    fn global_peak_near_quarter_million_with_paper_layout() {
        let mut cfg = RuneScapeConfig::paper_default(2, 17);
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        let peak = t.global_series().max().unwrap();
        // Sec. III-B: maximum global concurrent players ≈ 250 000. The
        // regions peak at different trace hours, so the global peak sits
        // below the 260 000 theoretical capacity.
        assert!((120_000.0..260_000.0).contains(&peak), "global peak {peak}");
    }
}
