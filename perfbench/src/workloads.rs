//! The three workloads: how each builds its simulations from the seed,
//! and the one execution path they share (generate, build every
//! simulation, then run every simulation, each step fanned out through
//! `mmog_par::par_map`).

use crate::check::Fnv;
use crate::spans::Recorder;
use mmog_bench::scale::{world_config, SweepPoint};
use mmog_datacenter::policy::HostingPolicy;
use mmog_faults::{FaultSpec, ScenarioSpec, ScenarioTimeline};
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{AllocationMode, GameWorkload, SimReport, Simulation, SimulationConfig};
use mmog_sim::scenario::{self, ScenarioOpts};
use mmog_util::time::TICKS_PER_DAY;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 resource-bulk sweep (HP-3…HP-7) at paper scale with the
    /// trained Neural predictor.
    PaperSweep,
    /// A federation of streaming one-region LastValue worlds.
    LadderStream,
    /// The Sec. V-B platform under a 4× fault storm plus the paper
    /// scenario timeline.
    FaultStorm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::PaperSweep, Self::LadderStream, Self::FaultStorm];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperSweep => "paper_sweep",
            Self::LadderStream => "ladder_stream",
            Self::FaultStorm => "fault_storm",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Paper scale for measuring; tiny scale for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Paper,
    /// A few groups for a couple of days.
    Tiny,
}

impl Scale {
    /// The scale's name on the command line and in `reference.txt`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::Tiny => "tiny",
        }
    }

    /// Looks a scale up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        [Self::Paper, Self::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }

    fn opts(self, seed: u64) -> ScenarioOpts {
        match self {
            Self::Paper => ScenarioOpts::paper(seed),
            Self::Tiny => ScenarioOpts::smoke(seed),
        }
    }
}

/// Worlds in the streaming federation at paper scale.
const LADDER_WORLDS: usize = 400;

/// Fault storms per `fault_storm` execution, each with its own fault
/// and scenario seeds drawn from the workload seed. Averaging over
/// several storm histories keeps the workload's figures steady across
/// seeds.
const FAULT_STORMS: u64 = 4;

/// One simulation run's result; `report` is `None` when it panicked.
#[derive(Debug)]
pub(crate) struct Run {
    /// Stable run label (`HP-3`, `world-17`, `storm-0`).
    pub label: String,
    /// The report.
    pub report: Option<SimReport>,
}

/// Everything one execution of a workload produced.
#[derive(Debug)]
pub(crate) struct Outcome {
    /// Per-run results, in configuration order.
    pub runs: Vec<Run>,
    /// Wall time of set-up plus run, seconds.
    pub wall_s: f64,
    /// Trace generation plus every `Simulation::new`, seconds.
    pub setup_s: f64,
    /// Every `Simulation::run`, seconds.
    pub run_s: f64,
    /// Σ groups × ticks over the runs that completed.
    pub group_ticks: u64,
    /// Predictor trainings the configurations ask for.
    pub train_calls: u64,
    /// Trainings whose input already occurred earlier in the workload.
    pub train_repeats: u64,
}

fn trains(kind: PredictorKind) -> bool {
    kind == PredictorKind::Neural
}

/// Counts the trainings the configurations imply, and how many repeat
/// an earlier (kind, history prefix, train ticks, group seed) input —
/// the property a trained-predictor cache would exploit.
#[must_use]
fn training_inputs(configs: &[SimulationConfig]) -> (u64, u64) {
    let mut seen = HashSet::new();
    let (mut calls, mut repeats) = (0u64, 0u64);
    for cfg in configs {
        let mut group_index = 0u64;
        for game in &cfg.games {
            let GameWorkload::Trace(trace) = &game.workload else {
                assert!(
                    !trains(game.predictor) || cfg.train_ticks == 0,
                    "streaming workloads here never train"
                );
                group_index += game.workload.group_count() as u64;
                continue;
            };
            for group in trace.regions.iter().flat_map(|r| &r.groups) {
                let seed = mmog_util::rng::stream_seed(cfg.master_seed, group_index);
                group_index += 1;
                if !trains(game.predictor) {
                    continue;
                }
                let end = cfg.train_ticks.min(group.series.len());
                let mut h = Fnv::default();
                for &v in &group.series.values()[..end] {
                    h.f64(v);
                }
                calls += 1;
                if !seen.insert((game.predictor, h.finish(), end, seed)) {
                    repeats += 1;
                }
            }
        }
    }
    (calls, repeats)
}

fn configs(
    w: Workload,
    scale: Scale,
    seed: u64,
    rec: &Recorder,
    parent: Option<usize>,
) -> Vec<(String, SimulationConfig)> {
    let opts = scale.opts(seed);
    let generate = |rec: &Recorder| {
        rec.within("workload.generate", parent, None, |_| {
            drop(scenario::standard_trace(&opts));
        });
    };
    match w {
        Workload::PaperSweep => {
            generate(rec);
            (3..=7)
                .map(|n| {
                    (
                        format!("HP-{n}"),
                        scenario::policy_impact(HostingPolicy::hp(n), &opts),
                    )
                })
                .collect()
        }
        Workload::LadderStream => {
            let worlds = match scale {
                Scale::Paper => LADDER_WORLDS,
                Scale::Tiny => 4,
            };
            let point = SweepPoint {
                label: "ladder",
                worlds,
                groups_per_world: 10,
            };
            (0..worlds)
                .map(|i| {
                    let ticks = TICKS_PER_DAY as usize;
                    (format!("world-{i}"), world_config(&point, i, ticks, seed))
                })
                .collect()
        }
        Workload::FaultStorm => {
            generate(rec);
            (0..FAULT_STORMS)
                .map(|k| {
                    let storm_seed = mmog_util::rng::stream_seed(seed, k);
                    let faults = FaultSpec {
                        seed: storm_seed,
                        ..FaultSpec::paper_default()
                    }
                    .scaled(4.0);
                    let mut cfg =
                        scenario::fault_injection(&faults, AllocationMode::Dynamic, &opts);
                    let timeline = ScenarioTimeline::from_spec(
                        &ScenarioSpec {
                            seed: storm_seed,
                            ..ScenarioSpec::paper_default()
                        },
                        opts.days * TICKS_PER_DAY,
                        cfg.centers.len(),
                    );
                    cfg.scenario = (!timeline.is_empty()).then_some(timeline);
                    (format!("storm-{k}"), cfg)
                })
                .collect()
        }
    }
}

/// Runs `f` on every item through `mmog_par::par_map`, inside a
/// `par.map` span with one `par.item` span and one `name` span per
/// item. A panic inside `f` yields `None` for that item.
fn fan_out<T: Send, R: Send>(
    rec: &Recorder,
    parent: Option<usize>,
    name: &'static str,
    items: Vec<Option<T>>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<Option<R>> {
    let cells: Vec<(u64, Mutex<Option<T>>)> = items
        .into_iter()
        .enumerate()
        .map(|(i, t)| (i as u64, Mutex::new(t)))
        .collect();
    rec.within("par.map", parent, None, |region| {
        mmog_par::par_map(&cells, |(i, cell)| {
            rec.within("par.item", region, Some(*i), |item| {
                let input = cell.lock().expect("each item is taken once").take()?;
                rec.within(name, item, Some(*i), |_| {
                    catch_unwind(AssertUnwindSafe(|| f(input))).ok()
                })
            })
        })
    })
}

/// Generates the workload's inputs, builds every simulation, then runs
/// them all, recording spans into `rec`.
#[must_use]
pub(crate) fn execute(w: Workload, scale: Scale, seed: u64, rec: &Recorder) -> Outcome {
    let start = Instant::now();
    let root = rec.open("workload", None, None);
    let setup = rec.open("setup", root, None);
    let (labels, cfgs): (Vec<String>, Vec<SimulationConfig>) =
        configs(w, scale, seed, rec, setup).into_iter().unzip();
    let (train_calls, train_repeats) = training_inputs(&cfgs);
    let group_counts: Vec<u64> = cfgs
        .iter()
        .map(|c| {
            c.games
                .iter()
                .map(|g| g.workload.group_count() as u64)
                .sum()
        })
        .collect();
    let sims = fan_out(
        rec,
        setup,
        "sim.new",
        cfgs.into_iter().map(Some).collect(),
        Simulation::new,
    );
    rec.close(setup);
    let setup_s = start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let run = rec.open("run", root, None);
    let reports = fan_out(rec, run, "sim.run", sims, Simulation::run);
    rec.close(run);
    rec.close(root);
    let run_s = run_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let group_ticks = reports
        .iter()
        .zip(&group_counts)
        .filter_map(|(r, &g)| r.as_ref().map(|r| r.ticks as u64 * g))
        .sum();
    Outcome {
        runs: labels
            .into_iter()
            .zip(reports)
            .map(|(label, report)| Run { label, report })
            .collect(),
        wall_s,
        setup_s,
        run_s,
        group_ticks,
        train_calls,
        train_repeats,
    }
}
