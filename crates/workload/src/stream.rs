//! Streaming trace generation: the RuneScape model driven tick-major.
//!
//! [`crate::runescape::generate`] materialises every server group's full
//! series before anything can consume it — fine for the paper's ~130
//! groups × two weeks (≈10 MB), fatal at thousands of groups / millions
//! of synthetic players. [`StreamingTrace`] drives the same per-region
//! and per-group state machines one tick at a time instead: each
//! [`StreamingTrace::next_tick`] advances every group by one tick with
//! O(1) state per group — the AR(1) noise register, the outage
//! countdown, and two small fixed-capacity episode buffers whose size is
//! set by the model's own ramp/hold bounds, not by the trace length.
//! Each stream owns its RNG, so the order in which the two drivers
//! visit the streams does not change a single value.
//!
//! # Steady-state allocation
//!
//! All buffers are sized at construction; `next_tick` performs no
//! allocation (asserted by `crates/bench/tests/alloc_smoke.rs`).

use crate::runescape::{region_streams, RegionStream, RuneScapeConfig};
use mmog_util::time::{SimTime, TICKS_PER_DAY};

/// The whole configuration as a lazy tick source.
///
/// Group order is region-major (region 0's groups, then region 1's, …)
/// — the same global order in which the materialized
/// [`crate::trace::GameTrace`] enumerates its groups, and the order the
/// simulation engine assigns group indices.
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    cfg: RuneScapeConfig,
    regions: Vec<RegionStream>,
    ticks: usize,
    t: usize,
    group_count: usize,
}

impl StreamingTrace {
    /// Builds the per-region / per-group streams from the
    /// configuration's seed, the same way [`crate::runescape::generate`]
    /// does.
    #[must_use]
    pub fn new(cfg: &RuneScapeConfig) -> Self {
        let regions = region_streams(cfg);
        Self {
            group_count: regions.iter().map(|r| r.groups.len()).sum(),
            ticks: (cfg.days * TICKS_PER_DAY) as usize,
            cfg: cfg.clone(),
            regions,
            t: 0,
        }
    }

    /// The configuration this stream was built from.
    #[must_use]
    pub fn config(&self) -> &RuneScapeConfig {
        &self.cfg
    }

    /// Total ticks the stream will produce (`days × TICKS_PER_DAY`).
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The next tick index to be generated.
    #[must_use]
    pub fn tick(&self) -> usize {
        self.t
    }

    /// Total server groups across all regions.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Generates one tick of demand for every group into `out`
    /// (region-major group order). Returns `false` — writing nothing —
    /// once the configured trace length is exhausted.
    ///
    /// Performs no allocation: the only mutable state is the per-group
    /// registers and the pre-sized episode buffers.
    ///
    /// # Panics
    /// Panics when `out` is shorter than [`Self::group_count`].
    pub fn next_tick(&mut self, out: &mut [f64]) -> bool {
        if self.t >= self.ticks {
            return false;
        }
        assert!(
            out.len() >= self.group_count,
            "output slice holds {} groups, stream has {}",
            out.len(),
            self.group_count
        );
        let t = SimTime(self.t as u64);
        let mut gi = 0usize;
        for (region, spec) in self.regions.iter_mut().zip(&self.cfg.regions) {
            // The regional surge level first: every group of the region
            // feels it.
            let regional = region.surge.next(t, spec, &self.cfg);
            for group in &mut region.groups {
                out[gi] = group.next(t, regional, spec, &self.cfg);
                gi += 1;
            }
        }
        self.t += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runescape::{generate, FLASH_EPISODE_CAP, SURGE_EPISODE_CAP};

    /// The tick-major driver yields `generate`'s group-major values.
    fn check_matches(cfg: &RuneScapeConfig) {
        let materialized = generate(cfg);
        let mut stream = StreamingTrace::new(cfg);
        let groups: Vec<&crate::trace::ServerGroupTrace> = materialized
            .regions
            .iter()
            .flat_map(|r| &r.groups)
            .collect();
        assert_eq!(stream.group_count(), groups.len());
        let mut out = vec![0.0f64; stream.group_count()];
        for t in 0..stream.ticks() {
            assert!(stream.next_tick(&mut out));
            for (gi, g) in groups.iter().enumerate() {
                let expect = g.series.values()[t];
                let got = out[gi];
                assert!(
                    expect.to_bits() == got.to_bits(),
                    "tick {t} group {gi}: stream {got} != materialized {expect}"
                );
            }
        }
        assert!(!stream.next_tick(&mut out), "stream must end at ticks()");
    }

    #[test]
    fn streaming_matches_materialized() {
        let mut cfg = RuneScapeConfig::paper_default(2, 99);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 6;
        cfg.regions[1].groups = 3;
        check_matches(&cfg);
    }

    #[test]
    fn streaming_matches_with_outages_and_events() {
        let mut cfg = RuneScapeConfig::with_figure2_events(3, 41, 1);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 4;
        cfg.regions[1].groups = 4;
        cfg.outage_prob_per_day = 2.0; // force outage branches
        check_matches(&cfg);
    }

    #[test]
    fn streaming_matches_always_full() {
        let mut cfg = RuneScapeConfig::paper_default(1, 7);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 3;
        cfg.always_full_fraction = 1.0;
        check_matches(&cfg);
    }

    #[test]
    fn episode_buffers_never_outgrow_their_caps() {
        let mut cfg = RuneScapeConfig::paper_default(4, 13);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 5;
        cfg.flash_prob_per_tick = 0.05; // plenty of episodes
        cfg.regional_flash_prob_per_tick = 0.05;
        let mut stream = StreamingTrace::new(&cfg);
        let mut out = vec![0.0f64; stream.group_count()];
        while stream.next_tick(&mut out) {
            for region in &stream.regions {
                assert!(region.surge.levels.capacity() <= SURGE_EPISODE_CAP);
                for g in &region.groups {
                    assert!(g.flash_plan.capacity() <= FLASH_EPISODE_CAP);
                }
            }
        }
    }

    #[test]
    fn tick_cursor_advances() {
        let mut cfg = RuneScapeConfig::paper_default(1, 3);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 2;
        let mut stream = StreamingTrace::new(&cfg);
        assert_eq!(stream.tick(), 0);
        let mut out = [0.0f64; 2];
        assert!(stream.next_tick(&mut out));
        assert_eq!(stream.tick(), 1);
        assert_eq!(stream.ticks(), TICKS_PER_DAY as usize);
    }
}
