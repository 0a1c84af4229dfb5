//! The trace-driven simulation engine.
//!
//! Binds everything together per the Section V protocol: every two
//! simulated minutes each game operator observes the per-server-group
//! player counts from the input trace, predicts the next step, converts
//! the prediction into resource demand, and adjusts its leases through
//! the request–offer matching mechanism; the collector then scores
//! allocation against the *actual* demand (Equations 1–2).

use crate::demand::DemandModel;
use crate::metrics::MetricsCollector;
use crate::provision::{AdjustOutcome, GroupProvisioner, ReleaseCause, RetryPolicy};
use mmog_datacenter::center::{DataCenter, Lease};
use mmog_datacenter::matching::RejectionTotals;
use mmog_datacenter::request::OperatorId;
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::topology::Topology;
use mmog_faults::{FaultKind, FaultSchedule, ScenarioEventKind, ScenarioTimeline};
use mmog_obs::{
    Domain, EventSink, FlightRecorder, FlightTrigger, LatencyHisto, LatencySnapshot, LiveConfig,
    SpanStat,
};
use mmog_par::Pool;
use mmog_predict::eval::PredictorKind;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::series::TimeSeries;
use mmog_util::time::{SimTime, TICKS_PER_DAY};
use mmog_workload::runescape::RuneScapeConfig;
use mmog_workload::stream::StreamingTrace;
use mmog_workload::trace::GameTrace;
use mmog_world::update::UpdateModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How resources are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationMode {
    /// Prediction-driven adjustment every two minutes.
    Dynamic,
    /// One peak-sized allocation at the start, never adjusted — "the
    /// current industry practice" the paper argues against.
    Static,
}

/// A game's player-count workload: a fully materialized trace, or a
/// generator configuration the engine expands tick by tick in O(1)
/// memory per group. The two forms are byte-identical for the same
/// configuration (see [`mmog_workload::stream`]); streaming is what
/// makes thousand-group / million-player runs representable at all.
#[derive(Debug, Clone)]
pub enum GameWorkload {
    /// Materialized per-group series (the paper-scale default).
    Trace(GameTrace),
    /// Streamed from the RuneScape-like generator during the run; no
    /// full-length series is ever held in memory.
    Streaming(RuneScapeConfig),
}

impl GameWorkload {
    /// Number of server groups this workload drives, without
    /// materialising anything.
    #[must_use]
    pub fn group_count(&self) -> usize {
        match self {
            Self::Trace(trace) => trace.total_groups(),
            Self::Streaming(cfg) => cfg.regions.iter().map(|r| r.groups as usize).sum(),
        }
    }

    /// Each region as (operator offset, name, group count), in
    /// configuration order.
    fn regions(&self) -> Vec<(u32, &str, usize)> {
        match self {
            Self::Trace(trace) => trace
                .regions
                .iter()
                .map(|r| (u32::from(r.region.0), r.name.as_str(), r.groups.len()))
                .collect(),
            Self::Streaming(cfg) => cfg
                .regions
                .iter()
                .enumerate()
                .map(|(ri, r)| (ri as u32, r.name.as_str(), r.groups as usize))
                .collect(),
        }
    }
}

impl From<GameTrace> for GameWorkload {
    fn from(trace: GameTrace) -> Self {
        Self::Trace(trace)
    }
}

impl From<RuneScapeConfig> for GameWorkload {
    fn from(cfg: RuneScapeConfig) -> Self {
        Self::Streaming(cfg)
    }
}

/// One MMOG handled by the ecosystem.
#[derive(Debug, Clone)]
pub struct GameSpec {
    /// Display name.
    pub name: String,
    /// Base operator id; each region of the trace gets `base + region`.
    pub operator_base: u32,
    /// The game's interaction/update model (Sec. V-C axis).
    pub update_model: UpdateModel,
    /// Latency tolerance (Sec. V-E axis).
    pub tolerance: DistanceClass,
    /// Demand headroom multiplier (1.0 = allocate the prediction).
    pub headroom: f64,
    /// The load predictor (Sec. V-B axis).
    pub predictor: PredictorKind,
    /// The player-count workload.
    pub workload: GameWorkload,
    /// Per-group peak players used by static provisioning.
    pub static_peak_players: f64,
    /// Request priority (lower = served first each tick). The paper's
    /// future work proposes "prioritizing the resource requests
    /// according to the interaction type of the MMOG"; this knob
    /// implements it. Ties process in insertion order.
    pub priority: i32,
}

/// Full simulation configuration.
#[derive(Debug)]
pub struct SimulationConfig {
    /// The hosting platform.
    pub centers: Vec<DataCenter>,
    /// The games sharing it.
    pub games: Vec<GameSpec>,
    /// Provisioning mode (applies to every game).
    pub mode: AllocationMode,
    /// Ticks to simulate (`None` = shortest trace length).
    pub ticks: Option<usize>,
    /// Leading ticks excluded from the metrics (provisioning warm-up;
    /// the paper's two-week averages are insensitive to the first hour).
    pub warmup_ticks: usize,
    /// Ticks of each group's history used as the neural predictor's
    /// offline data-collection phase.
    pub train_ticks: usize,
    /// Master seed for the per-group random streams (each group trains
    /// its predictor from stream `i` of this seed, so results are
    /// bit-identical no matter how many threads build or run the
    /// simulation).
    pub master_seed: u64,
    /// Fault-injection schedule. `None` (the default everywhere)
    /// reproduces the unfaulted simulation byte-for-byte: no retry
    /// policy is installed, no fault counters are registered, and the
    /// trace label is unchanged. `Some` plays the schedule's timed
    /// events — outages, degradations, lease revocations, predictor
    /// dropouts — from the engine's serial section at the start of each
    /// tick, so fault runs stay deterministic for any `--jobs`.
    pub faults: Option<FaultSchedule>,
    /// Scenario timeline: topology mutations (partitions, link
    /// degradation), zone migrations, region failovers and flash
    /// crowds. `None` (the default everywhere) reproduces the
    /// scenario-free simulation byte-for-byte — the topology stays
    /// nominal, which the matcher evaluates exactly like the bare
    /// platform. `Some` plays the timeline from the engine's serial
    /// sections, composing freely with a fault schedule.
    pub scenario: Option<ScenarioTimeline>,
}

/// Per-center usage integrated over the simulation (the Figures 13–14
/// raw data). "Unit-ticks" are resource-units held × 2-minute ticks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CenterUsage {
    /// Center name.
    pub name: String,
    /// Center CPU capacity, units.
    pub capacity_cpu: f64,
    /// CPU unit-ticks held, per operator id.
    pub cpu_by_operator: BTreeMap<u32, f64>,
    /// Total CPU unit-ticks held.
    pub cpu_total: f64,
    /// Free CPU unit-ticks.
    pub cpu_free: f64,
}

/// Per-game metric breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GameMetrics {
    /// The game's display name.
    pub name: String,
    /// Ω/Υ/event metrics for this game's groups only. M of Eq. 2 is the
    /// game's own group count.
    pub metrics: MetricsCollector,
}

/// What a simulation run produces.
#[derive(Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Aggregate Ω/Υ/event metrics.
    pub metrics: MetricsCollector,
    /// Per-game breakdown (same order as the configuration's games).
    pub per_game: Vec<GameMetrics>,
    /// Per-center usage attribution.
    pub center_usage: Vec<CenterUsage>,
    /// Operator id → (region name, origin) for usage attribution.
    pub operator_origins: BTreeMap<u32, (String, GeoPoint)>,
    /// Aggregate demand (CPU) over time, for plotting.
    pub demand_cpu_series: TimeSeries,
    /// Aggregate allocation (CPU) over time.
    pub alloc_cpu_series: TimeSeries,
    /// Number of adjustment steps whose request was partially unmet.
    pub unmet_steps: u64,
    /// Ticks simulated (after warm-up exclusion they are all scored).
    pub ticks: usize,
    /// Matcher rejections aggregated over every adjustment step of the
    /// run, by reason.
    pub rejections: RejectionTotals,
    /// Σ over all ticks of players × (CPU shortfall fraction): the
    /// player-ticks the platform failed to serve. Zero in a healthy run.
    pub unserved_player_ticks: f64,
    /// Time-to-recover, in ticks, for each outage episode that healed:
    /// from the tick the center went down to the first tick with no
    /// unserved players anywhere.
    pub recovery_ticks: Vec<u64>,
    /// Outage episodes still unhealed when the run ended.
    pub unrecovered_outages: usize,
    /// Fault events applied during the run.
    pub fault_events: u64,
    /// Leases lost to outages and spontaneous revocations.
    pub leases_revoked: u64,
    /// Leases granted while re-acquiring fault-lost capacity.
    pub reprovisions: u64,
    /// Scenario events applied during the run (partitions, heals, link
    /// changes, migrations, failover drains, flash crowds).
    pub scenario_events: u64,
    /// Zone migrations executed: explicit `Migrate` events that found
    /// leases to move, plus one per group drained by a region failover.
    pub migrations: u64,
    /// Σ players × migration-cost ticks charged by migrations. Also
    /// included in `unserved_player_ticks` (migration is player-visible
    /// downtime); this field isolates the migration share.
    pub migration_player_ticks: f64,
    /// The flight-recorder dump this run produced, if flight recording
    /// was configured and a trigger fired. `None` on every un-configured
    /// run, so baseline reports are unaffected.
    pub flight_dump: Option<FlightDumpReport>,
    /// The run's wall-clock side. Left out of the `Debug` rendering,
    /// which must be identical for any two runs of one configuration.
    pub timing: RunTiming,
}

/// The run-local instruments of one run: its own stage latency
/// distributions and match-memo split, free of any concurrent run's
/// records. The process registry receives the same data when the run
/// ends.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// `sim/run/*` stage latency distributions, sorted by path.
    pub latency: Vec<(String, LatencySnapshot)>,
    /// Settle calls the match memo replayed. Deterministic: the memo
    /// keys only on this run's state, so the count is the same at any
    /// `--jobs`.
    pub match_skips: u64,
    /// Settle calls that walked the candidates.
    pub match_full: u64,
}

impl std::fmt::Debug for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Destructured so a new field cannot be left out by accident.
        let Self {
            metrics,
            per_game,
            center_usage,
            operator_origins,
            demand_cpu_series,
            alloc_cpu_series,
            unmet_steps,
            ticks,
            rejections,
            unserved_player_ticks,
            recovery_ticks,
            unrecovered_outages,
            fault_events,
            leases_revoked,
            reprovisions,
            scenario_events,
            migrations,
            migration_player_ticks,
            flight_dump,
            timing: _,
        } = self;
        f.debug_struct("SimReport")
            .field("metrics", metrics)
            .field("per_game", per_game)
            .field("center_usage", center_usage)
            .field("operator_origins", operator_origins)
            .field("demand_cpu_series", demand_cpu_series)
            .field("alloc_cpu_series", alloc_cpu_series)
            .field("unmet_steps", unmet_steps)
            .field("ticks", ticks)
            .field("rejections", rejections)
            .field("unserved_player_ticks", unserved_player_ticks)
            .field("recovery_ticks", recovery_ticks)
            .field("unrecovered_outages", unrecovered_outages)
            .field("fault_events", fault_events)
            .field("leases_revoked", leases_revoked)
            .field("reprovisions", reprovisions)
            .field("scenario_events", scenario_events)
            .field("migrations", migrations)
            .field("migration_player_ticks", migration_player_ticks)
            .field("flight_dump", flight_dump)
            .finish()
    }
}

/// Mirror of [`mmog_obs::FlightDumpInfo`] carried in the report so
/// harnesses can assert on trigger decisions without re-reading the
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDumpReport {
    /// What fired the dump (`fault`, `partition`, `migration`,
    /// `deadline_overrun`, `gate_breach`, `explicit`).
    pub trigger: String,
    /// Tick the trigger fired on.
    pub trigger_tick: u64,
    /// Oldest tick in the dumped window.
    pub tick_from: u64,
    /// Newest tick in the dumped window.
    pub tick_to: u64,
    /// Event records dumped (excluding the meta line).
    pub records: u64,
    /// Artifact path.
    pub path: String,
}

/// A group's hot per-tick state, split struct-of-arrays style out of
/// [`GroupRuntime`]: every field here is read or written by every tick,
/// so the engine keeps one contiguous `Vec<GroupHot>` that the
/// fan-out writes and the ordered reduction scans — a linear walk over
/// packed 80-byte records instead of chasing provisioner-sized structs.
/// Folding happens serially in group-index order, which keeps aggregates
/// bit-identical for any thread count.
#[derive(Debug, Clone, Copy, Default)]
struct GroupHot {
    /// This tick's observed player count, filled from the group's
    /// workload source before the fan-out.
    players: f64,
    demand: ResourceVector,
    alloc: ResourceVector,
    short: ResourceVector,
    target: ResourceVector,
    /// Σ|predicted − actual| players over scored ticks (the paper's
    /// un-normalized sample prediction error, accumulated online).
    abs_err_sum: f64,
    /// Σ actual players over the same ticks (the metric's denominator).
    actual_sum: f64,
}

/// A group's cold state: touched once per tick at most (the provisioner
/// during predict/settle), never scanned by the reduction.
struct GroupRuntime {
    provisioner: GroupProvisioner,
    demand_model: DemandModel,
    /// Index into the configuration's game list.
    game: usize,
}

/// Where one game's per-tick player counts come from. Each source
/// covers a contiguous range of global group indices starting at
/// `start` (games are enumerated in configuration order).
enum WorkloadSource {
    /// Materialized series, one per group, indexed by tick.
    Materialized {
        start: usize,
        series: Vec<TimeSeries>,
    },
    /// Lazily generated; `next_tick` yields each tick's counts in O(1)
    /// memory per group.
    Streaming {
        start: usize,
        stream: StreamingTrace,
    },
}

/// Below this many server groups a per-tick fan-out costs more in
/// barrier traffic than it saves; the engine stays serial.
const PARALLEL_GROUP_THRESHOLD: usize = 8;

/// Wall-clock nanoseconds since `start`, saturating.
fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One pipeline stage's timing instruments: the span total (means) and
/// the run's own log-bucketed latency distribution (tails), on the same
/// path so reports line up. All of it is timing-domain data.
struct StageClock {
    timer: Arc<SpanStat>,
    latency: LatencyHisto,
}

impl StageClock {
    fn new(path: &str) -> Self {
        Self {
            timer: mmog_obs::timer(path),
            latency: LatencyHisto::new(),
        }
    }

    /// Records the time since `start` and returns it in nanoseconds.
    fn record(&self, start: Instant) -> u64 {
        let ns = ns_since(start);
        self.timer.record_ns(ns);
        self.latency.record(ns);
        ns
    }
}

/// Emits one trace event through a [`RunObserver`] when the run's sink
/// is on, as `emit!(obs, "kind", "field" => value, ..)`. Fields render
/// in the order given, and their values are evaluated only when the
/// sink is on, so a disabled trace never formats a string.
macro_rules! emit {
    ($obs:expr, $kind:literal $(, $name:literal => $value:expr)* $(,)?) => {
        if let Some(sink) = $obs.sink.as_mut() {
            sink.emit($kind, &[$(($name, mmog_obs::Field::from($value))),*]);
        }
    };
}

/// A run's observability planes — the event sink, the flight recorder,
/// the time-series collector and the live tap — plus the per-stage
/// timing instruments. Each plane is `None` unless its process-global
/// configuration is set; a disabled plane costs one branch per
/// emission site and changes nothing else. Everything is fed from the
/// engine's serial sections only, so within-run event order is program
/// order (the event-log determinism contract).
struct RunObserver {
    /// Deterministic configuration-derived label the run's trace chunk,
    /// time-series document, flight dump and live snapshots carry.
    label: String,
    sink: Option<EventSink>,
    /// Per-run flight ring.
    flight: Option<FlightRecorder>,
    /// Fixed-memory ring series per metric, sampled once per tick.
    /// Downsampling is a pure function of the sample sequence, so the
    /// semantic series are byte-identical across `--jobs`.
    ts: Option<mmog_obs::TimeSeries>,
    ts_samples: u64,
    /// Live telemetry tap: an atomically rewritten snapshot built from
    /// serial state only, so its semantic half is jobs-independent.
    live: Option<LiveConfig>,
    last_live_write: Option<Instant>,
    live_writes: u64,
    live_write_ns: u64,
    run_start_wall: Instant,
    /// Stride for per-center `center_tick` trace samples: at most ~96
    /// sampled ticks per run regardless of scale, derived from the
    /// configuration so it is jobs-independent.
    center_tick_stride: usize,
    predict: StageClock,
    reduce: StageClock,
    settle: StageClock,
    /// Ticks where every settled group replayed its no-op memo: the
    /// settle stage's fast-path distribution, recorded alongside (not
    /// instead of) `match_settle` so the slow path's tail stays
    /// comparable against old baselines.
    skip_latency: LatencyHisto,
    tick_latency: LatencyHisto,
    /// Memo hit accounting: settle calls replayed vs walked.
    memo_skips: u64,
    memo_full: u64,
}

/// Live snapshots are wall-clock throttled on top of the tick
/// interval: a dashboard cannot use more than a few frames per second,
/// and each atomic publish costs two filesystem syscalls. The throttle
/// is pure timing (which ticks get published); nothing semantic flows
/// back into the run, and the final `done` snapshot is always written.
const MIN_LIVE_WRITE_GAP: Duration = Duration::from_millis(250);

impl RunObserver {
    fn new(label: String, ticks: usize) -> Self {
        Self {
            label,
            sink: EventSink::if_enabled(),
            flight: mmog_obs::flight_recorder(),
            ts: mmog_obs::ts_enabled()
                .then(|| mmog_obs::TimeSeries::new(mmog_obs::TS_DEFAULT_CAPACITY)),
            ts_samples: 0,
            live: mmog_obs::live_config(),
            last_live_write: None,
            live_writes: 0,
            live_write_ns: 0,
            run_start_wall: Instant::now(),
            center_tick_stride: (ticks / 96).max(1),
            predict: StageClock::new("sim/run/predict_score"),
            reduce: StageClock::new("sim/run/reduce"),
            settle: StageClock::new("sim/run/match_settle"),
            skip_latency: LatencyHisto::new(),
            tick_latency: LatencyHisto::new(),
            memo_skips: 0,
            memo_full: 0,
        }
    }

    /// Pushes one record into the flight ring when one is active.
    fn push(&mut self, kind: &'static str, tick: usize, values: &[f64]) {
        if let Some(rec) = self.flight.as_mut() {
            rec.push(kind, tick as u64, values);
        }
    }

    /// The terminal `lease_release` event of one lease, whatever the
    /// cause: surplus, reshape, outage, migration, failover or run end.
    fn lease_release(
        &mut self,
        tick: usize,
        center: usize,
        operator: u32,
        lease: &Lease,
        cause: ReleaseCause,
    ) {
        emit!(self, "lease_release", "tick" => tick, "center" => center, "lease" => lease.id.0,
            "operator" => operator, "cpu" => lease.amounts.cpu, "cause" => cause.label());
    }

    /// Emits the `provision` event for one adjustment step that changed
    /// anything, plus one `match_reject` event per center the matcher
    /// considered and rejected when part of the request went unmet. The
    /// same step also lands in the flight ring (when a recorder is
    /// active) so a triggered dump carries provisioning detail even when
    /// the full trace is off.
    ///
    /// On traced runs the step's causal lease-lifecycle chain rides
    /// along, in the order the provisioner performed it: maturities
    /// observed this tick, releases (with cause), then the request and
    /// the grants that answered it. Grants carry the request id, so the
    /// analyzer can reconstruct every lease's waterfall without
    /// guessing.
    fn adjust_events(
        &mut self,
        tick: usize,
        provisioner: &GroupProvisioner,
        target: &ResourceVector,
        out: &AdjustOutcome,
    ) {
        let detail = provisioner.lifecycle_detail();
        let changed = out.granted > 0 || out.released > 0 || out.unmet;
        let op = provisioner.operator.0;
        let alloc_cpu = provisioner.allocated().cpu;
        if changed {
            self.push(
                "provision",
                tick,
                &[
                    f64::from(op),
                    out.granted as f64,
                    out.released as f64,
                    if out.unmet { 1.0 } else { 0.0 },
                    target.cpu,
                    alloc_cpu,
                ],
            );
        }
        if self.sink.is_none() {
            return;
        }
        for &(center, lease_id) in &detail.matured {
            emit!(self, "lease_mature", "tick" => tick, "center" => center, "lease" => lease_id.0,
                "operator" => op);
        }
        for (center, lease, cause) in &detail.releases {
            self.lease_release(tick, *center, op, lease, *cause);
        }
        if let Some((request, cpu)) = detail.request {
            emit!(self, "lease_request", "tick" => tick, "request" => request,
                "group" => request >> 32, "operator" => op, "cpu" => cpu);
            for (center, lease) in &detail.grants {
                emit!(self, "lease_grant", "tick" => tick, "request" => request,
                    "center" => *center, "lease" => lease.id.0, "operator" => op,
                    "cpu" => lease.amounts.cpu);
            }
        }
        if !changed {
            return;
        }
        emit!(self, "provision", "tick" => tick, "operator" => op, "granted" => out.granted,
            "released" => out.released, "unmet" => out.unmet, "target_cpu" => target.cpu,
            "alloc_cpu" => alloc_cpu);
        let rejections = match provisioner.last_match() {
            Some(matched) if out.unmet => matched.rejections.as_slice(),
            _ => &[],
        };
        for r in rejections {
            emit!(self, "match_reject", "tick" => tick, "operator" => op,
                "center" => r.center_index, "reason" => r.reason.label());
        }
    }

    /// The reduce stage's trace output: the tick totals, plus
    /// per-center allocation snapshots for the analytics timelines on a
    /// tick-count-derived stride (and the final tick) so suite-scale
    /// traces stay bounded.
    fn tick_events(&mut self, ticks: usize, tick: &TickState, centers: &[DataCenter]) {
        let t = tick.t;
        if self.sink.is_none() {
            return;
        }
        emit!(self, "tick", "tick" => t, "demand_cpu" => tick.demand.cpu,
            "alloc_cpu" => tick.alloc.cpu, "shortfall_cpu" => tick.shortfall.cpu);
        if t.is_multiple_of(self.center_tick_stride) || t + 1 == ticks {
            for (ci, center) in centers.iter().enumerate() {
                let alloc_cpu: f64 = center.leases().iter().map(|l| l.amounts.cpu).sum();
                emit!(self, "center_tick", "tick" => t, "center" => ci, "alloc_cpu" => alloc_cpu,
                    "free_cpu" => center.free().cpu);
            }
        }
    }

    /// Records a settle stage that ran: its duration and memo split.
    fn record_settle(&mut self, ns: u64, tick: &TickState) {
        self.memo_skips += tick.skips;
        self.memo_full += tick.full;
        if tick.full == 0 && tick.skips > 0 {
            // A pure fast-path tick: the whole settle stage was memo
            // replays, so its duration belongs to the skip
            // distribution too.
            self.skip_latency.record(ns);
        }
    }

    /// The serial tail of a tick: its latency, the time-series sample,
    /// the live snapshot, and the flight ring's tick records and
    /// trigger decision.
    fn observe_tick(&mut self, sim: &Simulation, tick: &TickState) {
        let t = tick.t;
        self.tick_latency.record(tick.tick_ns);
        // The skip rate is this tick's memo-replay fraction (zero with
        // no settle stage).
        let settled = tick.skips + tick.full;
        let skip_rate = if settled > 0 {
            tick.skips as f64 / settled as f64
        } else {
            0.0
        };
        if let Some(ts) = self.ts.as_mut() {
            ts.record_semantic("demand_cpu", tick.demand.cpu);
            ts.record_semantic("alloc_cpu", tick.alloc.cpu);
            ts.record_semantic("shortfall_cpu", tick.shortfall.cpu);
            ts.record_semantic("match_skip_rate", skip_rate);
            ts.record_timing("predict_ns", tick.predict_ns as f64);
            ts.record_timing("reduce_ns", tick.reduce_ns as f64);
            ts.record_timing("settle_ns", tick.settle_ns.unwrap_or(0) as f64);
            ts.record_timing("tick_ns", tick.tick_ns as f64);
            self.ts_samples += 8;
        }
        self.publish_live(sim, t, tick, skip_rate);
        let Some(rec) = self.flight.as_mut() else {
            return;
        };
        let at = t as u64;
        rec.push(
            "tick",
            at,
            &[tick.demand.cpu, tick.alloc.cpu, tick.shortfall.cpu],
        );
        // Stage latencies travel with the window so a dump shows both
        // what the engine decided and how long it took.
        rec.push(
            "tick_latency",
            at,
            &[
                tick.predict_ns as f64,
                tick.reduce_ns as f64,
                tick.settle_ns.unwrap_or(0) as f64,
                tick.tick_ns as f64,
            ],
        );
        // Trigger decisions, in fixed priority order: faults and
        // scenario events are semantic (deterministic for a fixed
        // schedule), the deadline is wall-clock (opt-in via the config).
        let trigger = if tick.fault_fired {
            Some(FlightTrigger::Fault)
        } else if tick.partition_fired {
            Some(FlightTrigger::Partition)
        } else if tick.migration_fired {
            Some(FlightTrigger::Migration)
        } else {
            rec.deadline_ns()
                .is_some_and(|d| tick.tick_ns > d)
                .then_some(FlightTrigger::DeadlineOverrun)
        };
        if let Some(trigger) = trigger {
            if let Err(err) = rec.trigger(trigger, at, &self.label) {
                eprintln!("warning: flight dump failed: {err}");
            }
        }
    }

    /// Rewrites the live snapshot when this tick is due and the
    /// wall-clock throttle allows it.
    fn publish_live(&mut self, sim: &Simulation, t: usize, tick: &TickState, skip_rate: f64) {
        let Some(cfg) = self.live.as_ref() else {
            return;
        };
        let done = t + 1 == sim.ticks;
        let due = (t as u64).is_multiple_of(cfg.interval()) || done;
        let throttled = !done
            && self
                .last_live_write
                .is_some_and(|at| at.elapsed() < MIN_LIVE_WRITE_GAP);
        if !due || throttled {
            return;
        }
        let p99_us = |l: &LatencyHisto| l.snapshot().p99().map_or(0.0, |ns| ns as f64 / 1000.0);
        let snap = mmog_obs::LiveSnapshot {
            run: self.label.clone(),
            tick: t as u64,
            ticks_total: sim.ticks as u64,
            done,
            demand_cpu: tick.demand.cpu,
            alloc_cpu: tick.alloc.cpu,
            shortfall_cpu: tick.shortfall.cpu,
            match_skip_rate: skip_rate,
            leases_held: sim
                .groups
                .iter()
                .map(|g| g.provisioner.held_leases().len() as u64)
                .sum(),
            fault_events: sim
                .faults
                .as_ref()
                .map_or(0, |s| s.applied_through(t as u64)),
            scenario_events: sim
                .scenario
                .as_ref()
                .map_or(0, |s| s.applied_through(t as u64)),
            centers_down: sim.centers.iter().filter(|c| c.is_down()).count() as u64,
            centers: sim
                .centers
                .iter()
                .map(|c| mmog_obs::LiveCenter {
                    name: c.spec.name.clone(),
                    alloc_cpu: c.allocated().cpu,
                    capacity_cpu: c.effective_capacity().cpu,
                })
                .collect(),
            tick_rate: (t + 1) as f64 / self.run_start_wall.elapsed().as_secs_f64().max(1e-9),
            stage_p99_us: vec![
                ("predict_score".to_string(), p99_us(&self.predict.latency)),
                ("reduce".to_string(), p99_us(&self.reduce.latency)),
                ("match_settle".to_string(), p99_us(&self.settle.latency)),
                ("tick".to_string(), p99_us(&self.tick_latency)),
            ],
        };
        let write_start = Instant::now();
        if let Err(err) = mmog_obs::write_live(&cfg.path, &snap.to_value()) {
            eprintln!("warning: live snapshot write failed: {err}");
        }
        self.live_write_ns += ns_since(write_start);
        self.live_writes += 1;
        self.last_live_write = Some(Instant::now());
    }

    /// Folds the run's stage latencies and memo split into the process
    /// registry and returns them, submits the trace chunk and the
    /// time-series document, records the planes' self-cost (timing
    /// domain: sample counts depend on whether the planes are enabled,
    /// never on the run's semantics), and tears the flight recorder
    /// down: the end-of-run explicit dump (when `--flight-dump` asked
    /// for one), its cost counters, and the dump report for harnesses.
    fn finish(self, ticks: usize) -> (RunTiming, Option<FlightDumpReport>) {
        let latency: Vec<(String, LatencySnapshot)> = [
            ("sim/run/match_settle", &self.settle.latency),
            ("sim/run/match_skip", &self.skip_latency),
            ("sim/run/predict_score", &self.predict.latency),
            ("sim/run/reduce", &self.reduce.latency),
            ("sim/run/tick", &self.tick_latency),
        ]
        .into_iter()
        .map(|(path, histo)| {
            let snap = histo.snapshot();
            mmog_obs::latency(path).merge_snapshot(&snap);
            (path.to_string(), snap)
        })
        .collect();
        mmog_obs::counter("sim.match.skips", Domain::Semantic).add(self.memo_skips);
        mmog_obs::counter("sim.match.full", Domain::Semantic).add(self.memo_full);
        let timing = RunTiming {
            latency,
            match_skips: self.memo_skips,
            match_full: self.memo_full,
        };
        if let Some(sink) = self.sink {
            sink.submit(&self.label);
        }
        if let Some(ts) = &self.ts {
            mmog_obs::submit_ts(&self.label, &ts.to_value(&self.label, ticks as u64));
            mmog_obs::counter("obs.self.ts_samples", Domain::Timing).add(self.ts_samples);
        }
        if self.live.is_some() {
            mmog_obs::counter("obs.self.live_writes", Domain::Timing).add(self.live_writes);
            mmog_obs::counter("obs.self.live_write_ns", Domain::Timing).add(self.live_write_ns);
        }
        let flight_dump = self.flight.and_then(|mut rec| {
            if let Err(err) = rec.finish(ticks.saturating_sub(1) as u64, &self.label) {
                eprintln!("warning: flight dump failed: {err}");
            }
            mmog_obs::counter("obs.self.flight_pushes", Domain::Timing).add(rec.pushed());
            mmog_obs::counter("obs.self.flight_dropped", Domain::Timing).add(rec.dropped());
            mmog_obs::counter("obs.self.flight_suppressed", Domain::Timing).add(rec.suppressed());
            mmog_obs::counter("obs.self.flight_dumps", Domain::Timing)
                .add(u64::from(rec.dump_info().is_some()));
            rec.into_dump_info().map(|info| FlightDumpReport {
                trigger: info.trigger.to_string(),
                trigger_tick: info.trigger_tick,
                tick_from: info.tick_from,
                tick_to: info.tick_to,
                records: info.records,
                path: info.path.display().to_string(),
            })
        });
        (timing, flight_dump)
    }
}

/// Per-center usage accumulators, slot-indexed by operator. The
/// operator set is fixed at construction, so the per-tick attribution
/// loop indexes a flat array instead of paying a map lookup per lease;
/// slots stay in ascending-id order so the final per-operator maps
/// render identically to a `BTreeMap` accumulation (same per-lease
/// addition order, same iteration order).
#[derive(Default)]
struct UsageLedger {
    /// Operator ids in ascending order; slot `i` belongs to `op_ids[i]`.
    op_ids: Vec<u32>,
    /// Direct operator-id → slot table: one indexed load per lease
    /// instead of a binary search. Ids are small dense integers, so the
    /// table stays tiny.
    op_slot: Vec<u32>,
    /// Per center: (per-slot CPU sum, per-slot touched flag, free-CPU
    /// sum).
    centers: Vec<(Vec<f64>, Vec<bool>, f64)>,
}

impl UsageLedger {
    fn new(groups: &[GroupRuntime], n_centers: usize) -> Self {
        let mut op_ids: Vec<u32> = groups.iter().map(|g| g.provisioner.operator.0).collect();
        op_ids.sort_unstable();
        op_ids.dedup();
        let max_op = op_ids.last().copied().unwrap_or(0) as usize;
        let mut op_slot = vec![u32::MAX; max_op + 1];
        for (slot, &op) in op_ids.iter().enumerate() {
            op_slot[op as usize] = slot as u32;
        }
        let slots = op_ids.len();
        Self {
            op_ids,
            op_slot,
            centers: vec![(vec![0.0; slots], vec![false; slots], 0.0); n_centers],
        }
    }

    /// Adds one tick of every center's leases and free pool.
    fn accumulate(&mut self, centers: &[DataCenter]) {
        for (center, acc) in centers.iter().zip(self.centers.iter_mut()) {
            for &(op, cpu) in center.lease_cpu() {
                let slot = self.op_slot[op as usize] as usize;
                debug_assert!(slot < self.op_ids.len(), "lease from a non-group operator");
                acc.0[slot] += cpu;
                acc.1[slot] = true;
            }
            acc.2 += center.free().cpu;
        }
    }

    /// The integrated per-center usage. An operator that never leased
    /// at a center stays absent from its map even though its
    /// (untouched) slot is zero.
    fn report(self, centers: &[DataCenter]) -> Vec<CenterUsage> {
        let op_ids = self.op_ids;
        centers
            .iter()
            .zip(self.centers)
            .map(|(c, (sums, touched, free))| {
                let by_op: BTreeMap<u32, f64> = op_ids
                    .iter()
                    .zip(sums)
                    .zip(touched)
                    .filter(|(_, t)| *t)
                    .map(|((op, sum), _)| (*op, sum))
                    .collect();
                CenterUsage {
                    name: c.spec.name.clone(),
                    capacity_cpu: c.spec.capacity().cpu,
                    cpu_total: by_op.values().sum(),
                    cpu_by_operator: by_op,
                    cpu_free: free,
                }
            })
            .collect()
    }
}

/// Everything a run accumulates across its ticks: the counters and
/// series the [`SimReport`] is built from.
#[derive(Default)]
struct RunTally {
    metrics: MetricsCollector,
    game_metrics: Vec<MetricsCollector>,
    demand_cpu_series: TimeSeries,
    alloc_cpu_series: TimeSeries,
    unmet_steps: u64,
    leases_granted: u64,
    leases_released: u64,
    rejections: RejectionTotals,
    fault_events: u64,
    leases_revoked: u64,
    reprovisions: u64,
    scenario_events: u64,
    migrations: u64,
    migration_player_ticks: f64,
    unserved_player_ticks: f64,
    /// Open outage episodes as (center, start tick); an episode closes
    /// at the first tick the whole platform serves every player again.
    open_outages: Vec<(usize, u64)>,
    recovery_ticks: Vec<u64>,
    usage: UsageLedger,
}

impl RunTally {
    /// An empty tally sized for one run of `sim`.
    fn new(sim: &Simulation) -> Self {
        Self {
            game_metrics: vec![MetricsCollector::new(); sim.game_names.len()],
            demand_cpu_series: TimeSeries::with_capacity(sim.ticks),
            alloc_cpu_series: TimeSeries::with_capacity(sim.ticks),
            usage: UsageLedger::new(&sim.groups, sim.centers.len()),
            ..Self::default()
        }
    }

    /// Opens an outage episode at `center` unless one is already open.
    fn open_outage(&mut self, center: usize, t: usize) {
        if !self.open_outages.iter().any(|(c, _)| *c == center) {
            self.open_outages.push((center, t as u64));
        }
    }
}

/// What one tick's stages hand each other and the observer.
#[derive(Default)]
struct TickState {
    t: usize,
    /// The fault schedule dropped the predictor this tick.
    dropout: bool,
    /// Fault / partition / migration events fired this tick (the
    /// flight recorder's semantic triggers).
    fault_fired: bool,
    partition_fired: bool,
    migration_fired: bool,
    demand: ResourceVector,
    alloc: ResourceVector,
    shortfall: ResourceVector,
    /// Groups whose settle step replayed its memo / walked in full.
    skips: u64,
    full: u64,
    predict_ns: u64,
    reduce_ns: u64,
    /// `None` when no settle stage ran this tick.
    settle_ns: Option<u64>,
    tick_ns: u64,
}

/// The simulation itself.
pub struct Simulation {
    centers: Vec<DataCenter>,
    groups: Vec<GroupRuntime>,
    /// Hot per-group state, one contiguous array (SoA split of the
    /// group runtimes); indexed like `groups`.
    hot: Vec<GroupHot>,
    /// Per-game player-count sources, contiguous over group indices.
    sources: Vec<WorkloadSource>,
    /// Scratch for streaming sources' per-tick output (sized once to
    /// the widest streaming game, so the tick loop never allocates).
    players_scratch: Vec<f64>,
    /// Per-game (alloc, demand, shortfall) reduction scratch, recycled
    /// tick to tick.
    per_game: Vec<(ResourceVector, ResourceVector, ResourceVector)>,
    /// Server groups per game: M of Eq. 2 for the per-game metrics.
    game_machines: Vec<f64>,
    mode: AllocationMode,
    ticks: usize,
    warmup: usize,
    operator_origins: BTreeMap<u32, (String, GeoPoint)>,
    static_targets: Vec<ResourceVector>,
    game_names: Vec<String>,
    /// Group indices in request-processing order (by game priority).
    processing_order: Vec<usize>,
    /// Deterministic configuration-derived label the run's trace chunk
    /// is submitted under.
    trace_label: String,
    /// Fault schedule and the index of its next unplayed event.
    faults: Option<FaultSchedule>,
    fault_cursor: usize,
    /// Scenario timeline and the index of its next unplayed event.
    scenario: Option<ScenarioTimeline>,
    scenario_cursor: usize,
    /// The network every request is matched through. Runs without a
    /// scenario keep it nominal (fully connected, unit link factors),
    /// which the matcher evaluates exactly like a bare great-circle
    /// clique.
    topology: Topology,
    /// Each group's region id (regions are enumerated in configuration
    /// order across games); flash crowds resolve against this table.
    region_ids: Vec<u32>,
    /// Groups per region id, for the `flash_crowd` event payload.
    region_group_counts: Vec<u64>,
    /// Per-region flash-crowd demand multipliers (1.0 = nominal).
    region_flash: Vec<f64>,
    flashes_active: usize,
    /// The run's accumulated counters (sized when the run starts).
    tally: RunTally,
}

/// One server group's construction inputs.
struct GroupSpec {
    game: usize,
    operator: OperatorId,
    origin: GeoPoint,
    /// Materialized series (empty for streaming groups; moved into the
    /// game's [`WorkloadSource`] after training).
    series: TimeSeries,
    /// Streaming groups' training prefix (materialized groups train on
    /// `series[..train_end]` instead).
    prefix: Vec<f64>,
    train_end: usize,
    seed: u64,
}

/// Pass 1 of [`Simulation::new`]: every group enumerated serially in
/// configuration order, with the per-operator and per-region tables.
/// The group index assigned here also names the group's random stream,
/// so it must not depend on scheduling.
struct GroupLayout {
    specs: Vec<GroupSpec>,
    operator_origins: BTreeMap<u32, (String, GeoPoint)>,
    static_targets: Vec<ResourceVector>,
    /// Each group's region id. Each (game, region) gets the next id in
    /// configuration order, so flash-crowd targeting is jobs-independent.
    region_ids: Vec<u32>,
    /// Groups per region id.
    region_group_counts: Vec<u64>,
    /// The shortest workload, in ticks.
    min_len: usize,
}

impl GroupLayout {
    /// Walks every game's (region, group count) list once; only where
    /// each group's series or training prefix comes from depends on the
    /// workload form.
    fn new(cfg: &SimulationConfig) -> Self {
        let mut layout = Self {
            specs: Vec::new(),
            operator_origins: BTreeMap::new(),
            static_targets: Vec::new(),
            region_ids: Vec::new(),
            region_group_counts: Vec::new(),
            min_len: usize::MAX,
        };
        for (game_idx, game) in cfg.games.iter().enumerate() {
            let static_target = DemandModel::paper(game.update_model)
                .demand(game.static_peak_players)
                * game.headroom;
            let first_spec = layout.specs.len();
            for (offset, name, groups) in game.workload.regions() {
                let operator = OperatorId(game.operator_base + offset);
                let origin = crate::scenario::region_origin(name);
                layout
                    .operator_origins
                    .insert(operator.0, (name.to_string(), origin));
                let rid = layout.region_group_counts.len() as u32;
                layout.region_group_counts.push(groups as u64);
                for _ in 0..groups {
                    layout.region_ids.push(rid);
                    layout.static_targets.push(static_target);
                    let seed =
                        mmog_util::rng::stream_seed(cfg.master_seed, layout.specs.len() as u64);
                    layout.specs.push(GroupSpec {
                        game: game_idx,
                        operator,
                        origin,
                        series: TimeSeries::new(),
                        prefix: Vec::new(),
                        train_end: 0,
                        seed,
                    });
                }
            }
            let game_specs = &mut layout.specs[first_spec..];
            match &game.workload {
                GameWorkload::Trace(trace) => {
                    let groups = trace
                        .regions
                        .iter()
                        .flat_map(|r| r.groups.iter().map(move |g| (&r.name, &g.series)));
                    for (spec, (region, series)) in game_specs.iter_mut().zip(groups) {
                        assert!(!series.is_empty(), "empty trace for {region}");
                        layout.min_len = layout.min_len.min(series.len());
                        spec.train_end = cfg.train_ticks.min(series.len());
                        spec.series = series.clone();
                    }
                }
                GameWorkload::Streaming(rs) => {
                    let ticks = (rs.days * TICKS_PER_DAY) as usize;
                    assert!(ticks > 0, "empty streaming workload for {}", game.name);
                    layout.min_len = layout.min_len.min(ticks);
                    let train_end = cfg.train_ticks.min(ticks);
                    for spec in game_specs.iter_mut() {
                        spec.train_end = train_end;
                        spec.prefix.reserve_exact(train_end);
                    }
                    // Predictor training needs each group's leading
                    // `train_end` ticks: stream exactly that prefix into
                    // per-group buffers (the run itself re-streams from
                    // tick 0 on a fresh, identical source). This is the
                    // only trace-length-proportional memory a streaming
                    // game ever holds, and only when training is on.
                    if train_end > 0 {
                        let mut stream = StreamingTrace::new(rs);
                        let mut row = vec![0.0f64; stream.group_count()];
                        for _ in 0..train_end {
                            assert!(stream.next_tick(&mut row), "prefix within trace length");
                            for (spec, &v) in game_specs.iter_mut().zip(&row) {
                                spec.prefix.push(v);
                            }
                        }
                    }
                }
            }
        }
        layout
    }
}

/// The label a run's trace chunk is submitted under. It identifies the
/// run by configuration alone, so identical configs produce identical
/// chunks and the trace file sorts deterministically regardless of
/// completion order; faulted and scenario runs label their chunks
/// distinctly so they never collide with an undisturbed run's.
fn trace_label(cfg: &SimulationConfig, ticks: usize) -> String {
    let game_tags: Vec<String> = cfg
        .games
        .iter()
        .map(|g| format!("{}:{}:p{}", g.name, g.predictor.label(), g.priority))
        .collect();
    let mut label = format!(
        "sim mode={:?} seed={} ticks={} warmup={} centers={} games=[{}]",
        cfg.mode,
        cfg.master_seed,
        ticks,
        cfg.warmup_ticks,
        cfg.centers.len(),
        game_tags.join(",")
    );
    if let Some(faults) = &cfg.faults {
        label.push_str(&format!(" faults=[{}]", faults.label()));
    }
    if let Some(scenario) = &cfg.scenario {
        label.push_str(&format!(" scenario=[{}]", scenario.label()));
    }
    label
}

impl Simulation {
    /// Builds the runtime from a configuration.
    ///
    /// # Panics
    /// Panics when a game's trace is empty.
    #[must_use]
    pub fn new(cfg: SimulationConfig) -> Self {
        let _span = mmog_obs::span("sim/build");
        let layout = GroupLayout::new(&cfg);
        // Pass 2 (parallel): the offline phase. Training one MLP per
        // server group dominates construction cost; each group's
        // training is self-contained (own series slice, own seed), so
        // the fan-out is embarrassingly parallel and order-preserving.
        let train_span = mmog_obs::span("sim/build/train");
        let record_matches = mmog_obs::trace_enabled();
        // Self-healing re-provisioning only backs off under fault or
        // scenario injection; the undisturbed baseline keeps its
        // request-every-tick behaviour bit-for-bit.
        let retry = (cfg.faults.is_some() || cfg.scenario.is_some()).then(RetryPolicy::default);
        let mut groups: Vec<GroupRuntime> = mmog_par::par_map(&layout.specs, |spec| {
            let game = &cfg.games[spec.game];
            let demand_model = DemandModel::paper(game.update_model);
            let history: &[f64] = if spec.series.is_empty() {
                &spec.prefix
            } else {
                &spec.series.values()[..spec.train_end]
            };
            let predictor = game.predictor.build_seeded(history, spec.seed);
            let mut provisioner = GroupProvisioner::new(
                spec.operator,
                spec.origin,
                game.tolerance,
                demand_model,
                game.headroom,
                predictor,
            );
            provisioner.record_matches = record_matches;
            provisioner.retry = retry;
            GroupRuntime {
                provisioner,
                demand_model,
                game: spec.game,
            }
        });
        drop(train_span);
        // Causal-group ids: the group index names each group's request-id
        // stream (`request = group << 32 | seq`), so it is assigned in
        // configuration order by a post-pass (`par_map` is
        // order-preserving but its closure never sees the index).
        for (gi, group) in groups.iter_mut().enumerate() {
            group.provisioner.set_causal_group(gi as u64);
        }
        // The specs' materialized series become the run's per-tick
        // sources (moved, not cloned a second time); streaming games
        // get a fresh source that replays from tick 0.
        let mut sources = Vec::with_capacity(cfg.games.len());
        let mut players_scratch_len = 0usize;
        let mut spec_iter = layout.specs.into_iter();
        let mut start = 0usize;
        for game in &cfg.games {
            let n = game.workload.group_count();
            let game_specs = spec_iter.by_ref().take(n);
            sources.push(match &game.workload {
                GameWorkload::Trace(_) => WorkloadSource::Materialized {
                    start,
                    series: game_specs.map(|s| s.series).collect(),
                },
                GameWorkload::Streaming(rs) => {
                    game_specs.for_each(drop);
                    players_scratch_len = players_scratch_len.max(n);
                    WorkloadSource::Streaming {
                        start,
                        stream: StreamingTrace::new(rs),
                    }
                }
            });
            start += n;
        }
        mmog_obs::counter("sim.groups", Domain::Semantic).add(groups.len() as u64);
        mmog_obs::gauge("sim.groups_max", Domain::Semantic).set_max(groups.len() as i64);
        assert!(
            !groups.is_empty(),
            "simulation needs at least one server group"
        );
        let ticks = cfg.ticks.unwrap_or(layout.min_len).min(layout.min_len);
        // Stable sort keeps insertion order among equal priorities.
        let mut processing_order: Vec<usize> = (0..groups.len()).collect();
        processing_order.sort_by_key(|&gi| cfg.games[groups[gi].game].priority);
        let mut game_machines = vec![0.0f64; cfg.games.len()];
        for group in &groups {
            game_machines[group.game] += 1.0;
        }
        let trace_label = trace_label(&cfg, ticks);
        Self {
            tally: RunTally::default(),
            topology: Topology::new(cfg.centers.len()),
            centers: cfg.centers,
            hot: vec![GroupHot::default(); groups.len()],
            players_scratch: vec![0.0; players_scratch_len],
            per_game: vec![Default::default(); cfg.games.len()],
            game_machines,
            sources,
            groups,
            mode: cfg.mode,
            ticks,
            warmup: cfg.warmup_ticks.min(ticks),
            operator_origins: layout.operator_origins,
            static_targets: layout.static_targets,
            game_names: cfg.games.iter().map(|g| g.name.clone()).collect(),
            processing_order,
            trace_label,
            faults: cfg.faults,
            fault_cursor: 0,
            scenario: cfg.scenario,
            scenario_cursor: 0,
            region_ids: layout.region_ids,
            region_flash: vec![1.0; layout.region_group_counts.len().max(1)],
            region_group_counts: layout.region_group_counts,
            flashes_active: 0,
        }
    }

    /// Runs the simulation to completion.
    ///
    /// Each tick runs the Sec. V pipeline as named stages, in order:
    /// apply faults, fill players, apply scenario, predict/score,
    /// reduce, settle, account unserved, observe. Every stage but
    /// predict/score is serial, so fault, scenario and event order is
    /// program order for any thread count.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let _run_span = mmog_obs::span("sim/run");
        mmog_obs::counter("sim.runs", Domain::Semantic).incr();
        mmog_obs::counter("sim.ticks", Domain::Semantic).add(self.ticks as u64);
        let mut obs = RunObserver::new(std::mem::take(&mut self.trace_label), self.ticks);
        self.tally = RunTally::new(&self);
        let mode = if self.mode == AllocationMode::Dynamic {
            "dynamic"
        } else {
            "static"
        };
        emit!(obs, "run_start", "mode" => mode, "groups" => self.groups.len(),
            "centers" => self.centers.len(), "ticks" => self.ticks, "warmup" => self.warmup);
        // Static mode: one up-front peak-sized allocation per group.
        if self.mode == AllocationMode::Static {
            for gi in 0..self.groups.len() {
                self.settle_group(gi, 0, &mut obs);
            }
        }
        // Per-tick fan-out pool: scoring and observe→predict→target are
        // independent per group, so they fan out across a persistent
        // pool (spawning scoped threads every two-minute tick would
        // cost more than the work). Nested parallel regions (e.g. a
        // sweep already running experiments in parallel) fall back to
        // serial automatically.
        let pool = (mmog_par::jobs() > 1
            && !mmog_par::in_parallel()
            && self.groups.len() >= PARALLEL_GROUP_THRESHOLD)
            .then(Pool::with_global_jobs);
        for t in 0..self.ticks {
            let tick_start = Instant::now();
            if let Some(rec) = obs.flight.as_mut() {
                rec.begin_tick(t as u64);
            }
            let mut tick = TickState {
                t,
                ..TickState::default()
            };
            self.apply_faults(&mut tick, &mut obs);
            self.fill_players(t);
            self.apply_scenario(&mut tick, &mut obs);
            self.predict_score(pool.as_ref(), &mut tick, &obs);
            self.reduce(&mut tick, &mut obs);
            self.settle(&mut tick, &mut obs);
            self.account_unserved(t, &mut obs);
            tick.tick_ns = ns_since(tick_start);
            obs.observe_tick(&self, &tick);
        }
        self.finish(obs)
    }

    /// Whether a fault schedule or scenario timeline is installed. Only
    /// disturbed runs back off, re-provision static allocations and
    /// account unserved players; an undisturbed run is byte-identical
    /// to the baseline.
    fn disturbed(&self) -> bool {
        self.faults.is_some() || self.scenario.is_some()
    }

    /// The allocation group `gi` is settled toward: this tick's
    /// prediction-driven target, or its fixed static peak.
    fn target(&self, gi: usize) -> ResourceVector {
        match self.mode {
            AllocationMode::Dynamic => self.hot[gi].target,
            AllocationMode::Static => self.static_targets[gi],
        }
    }

    /// Stage 1: plays this tick's fault events — outages, repairs,
    /// degradations, revocations, predictor dropouts — before the
    /// fan-out, so revoked capacity is already gone when the tick is
    /// scored.
    fn apply_faults(&mut self, tick: &mut TickState, obs: &mut RunObserver) {
        let t = tick.t;
        while let Some(ev) = self
            .faults
            .as_ref()
            .and_then(|s| s.events().get(self.fault_cursor).copied())
            .filter(|ev| ev.tick == t as u64)
        {
            self.fault_cursor += 1;
            self.tally.fault_events += 1;
            tick.fault_fired = true;
            let c = ev.center;
            if ev.kind != FaultKind::PredictorDropout && c >= self.centers.len() {
                continue; // explicit schedule naming a center we don't have
            }
            match ev.kind {
                FaultKind::CenterDown => {
                    let lost = self.centers[c].fail(&mut self.topology).len();
                    self.tally.leases_revoked += lost as u64;
                    for gi in 0..self.groups.len() {
                        self.drain(gi, c, ReleaseCause::CenterDown, t, obs);
                    }
                    self.tally.open_outage(c, t);
                    let name = self.centers[c].spec.name.as_str();
                    emit!(obs, "center_down", "tick" => t, "center" => c, "name" => name,
                        "leases_lost" => lost);
                }
                FaultKind::CenterUp => {
                    self.centers[c].repair(&mut self.topology);
                    let name = self.centers[c].spec.name.as_str();
                    emit!(obs, "center_up", "tick" => t, "center" => c, "name" => name);
                }
                FaultKind::CenterDegraded { fraction } => {
                    self.centers[c].degrade(&mut self.topology, fraction);
                    emit!(obs, "center_degraded", "tick" => t, "center" => c,
                        "fraction" => fraction);
                }
                FaultKind::LeaseRevoked => {
                    let Some(lease) = self.centers[c].revoke_oldest() else {
                        continue;
                    };
                    for group in &mut self.groups {
                        if group.provisioner.drop_lease(c, lease.id).is_some() {
                            break;
                        }
                    }
                    self.tally.leases_revoked += 1;
                    emit!(obs, "lease_revoked", "tick" => t, "center" => c, "lease" => lease.id.0,
                        "operator" => lease.operator.0, "cpu" => lease.amounts.cpu);
                }
                FaultKind::PredictorDropout => {
                    tick.dropout = true;
                    emit!(obs, "predictor_dropout", "tick" => t);
                }
            }
        }
    }

    /// Stage 2: fills this tick's player counts into the hot array from
    /// each game's source (serial: streaming sources advance stateful
    /// generators; the materialized copy is a gather).
    fn fill_players(&mut self, t: usize) {
        let hot = &mut self.hot;
        for src in &mut self.sources {
            match src {
                WorkloadSource::Materialized { start, series } => {
                    for (j, s) in series.iter().enumerate() {
                        hot[*start + j].players = s.values()[t];
                    }
                }
                WorkloadSource::Streaming { start, stream } => {
                    let row = &mut self.players_scratch[..stream.group_count()];
                    let produced = stream.next_tick(row);
                    debug_assert!(produced, "ticks clamped to the stream length");
                    for (j, &p) in row.iter().enumerate() {
                        hot[*start + j].players = p;
                    }
                }
            }
        }
    }

    /// Stage 3: plays this tick's scenario events — partitions, heals,
    /// link changes, flash crowds, migrations, failovers — after the
    /// fill (so migration costs are charged against this tick's player
    /// counts) and before the fan-out (so dropped leases and flash-crowd
    /// demand are visible the same tick).
    fn apply_scenario(&mut self, tick: &mut TickState, obs: &mut RunObserver) {
        let t = tick.t;
        while let Some(ev) = self
            .scenario
            .as_ref()
            .and_then(|s| s.events().get(self.scenario_cursor).copied())
            .filter(|ev| ev.tick == t as u64)
        {
            self.scenario_cursor += 1;
            self.tally.scenario_events += 1;
            match ev.kind {
                ScenarioEventKind::Partition { mask } => {
                    self.topology.partition(mask);
                    tick.partition_fired = true;
                    let components = self.topology.components();
                    obs.push("partition", t, &[mask as f64, components as f64]);
                    emit!(obs, "partition", "tick" => t, "mask" => mask,
                        "components" => components);
                }
                ScenarioEventKind::Heal => {
                    self.topology.heal();
                    let components = self.topology.components();
                    obs.push("heal", t, &[components as f64]);
                    emit!(obs, "heal", "tick" => t, "components" => components);
                }
                ScenarioEventKind::LinkDegrade { a, b, factor } => {
                    self.set_link_factor(a, b, factor, t, obs);
                }
                ScenarioEventKind::LinkRestore { a, b } => self.set_link_factor(a, b, 1.0, t, obs),
                ScenarioEventKind::FlashBegin { pick, factor } => {
                    self.set_flash(pick, Some(factor), t, obs);
                }
                ScenarioEventKind::FlashEnd { pick } => self.set_flash(pick, None, t, obs),
                ScenarioEventKind::Migrate { pick } => {
                    let gi = (pick % self.groups.len() as u64) as usize;
                    // Drain the group everywhere it holds leases; the
                    // charge lands on the center that held the most CPU.
                    let mut moved = 0usize;
                    let mut principal: Option<(usize, f64)> = None;
                    for c in 0..self.centers.len() {
                        let (n, cpu) = self.drain(gi, c, ReleaseCause::Migration, t, obs);
                        moved += n;
                        if n > 0 && principal.is_none_or(|(_, best)| cpu > best) {
                            principal = Some((c, cpu));
                        }
                    }
                    // A group with nothing allocated migrates for free:
                    // nothing moved, nothing charged.
                    if let Some((center, _)) = principal {
                        self.charge_migration(gi, center, moved, tick, obs);
                    }
                }
                ScenarioEventKind::RegionFailover { center } => {
                    let center = center as usize;
                    if center >= self.centers.len() {
                        continue;
                    }
                    for gi in 0..self.groups.len() {
                        let (n, _) = self.drain(gi, center, ReleaseCause::Failover, t, obs);
                        if n > 0 {
                            self.charge_migration(gi, center, n, tick, obs);
                        }
                    }
                }
            }
        }
        // Flash crowds multiply demand while active: every group in a
        // surging region sees its player count scaled.
        if self.flashes_active > 0 {
            for (hot, &rid) in self.hot.iter_mut().zip(&self.region_ids) {
                hot.players *= self.region_flash[rid as usize];
            }
        }
    }

    /// Sets the distance multiplier of link `a`↔`b` (1.0 restores it).
    fn set_link_factor(&mut self, a: u32, b: u32, factor: f64, t: usize, obs: &mut RunObserver) {
        self.topology
            .set_link_factor(a as usize, b as usize, factor);
        obs.push("topology_change", t, &[f64::from(a), f64::from(b), factor]);
        emit!(obs, "topology_change", "tick" => t, "a" => a, "b" => b, "factor" => factor);
    }

    /// Starts (`Some(factor)`) or ends (`None`) a flash crowd in the
    /// region `pick` selects.
    fn set_flash(&mut self, pick: u64, factor: Option<f64>, t: usize, obs: &mut RunObserver) {
        let n_regions = self.region_group_counts.len();
        if n_regions == 0 {
            return;
        }
        if factor.is_some() {
            self.flashes_active += 1;
        } else {
            self.flashes_active = self.flashes_active.saturating_sub(1);
        }
        let factor = factor.unwrap_or(1.0);
        let region = (pick % n_regions as u64) as usize;
        self.region_flash[region] = factor;
        let groups = self.region_group_counts[region];
        obs.push("flash_crowd", t, &[region as f64, factor, groups as f64]);
        emit!(obs, "flash_crowd", "tick" => t, "region" => region, "factor" => factor,
            "groups" => groups);
    }

    /// The one lease-drain path (outage, migration, failover): drops
    /// every lease group `gi` holds at `center`, revokes each
    /// center-side (a no-op at a center whose outage already cleared
    /// its ledger), and emits its terminal `lease_release` under
    /// `cause`. Returns the number of leases dropped and their CPU.
    fn drain(
        &mut self,
        gi: usize,
        center: usize,
        cause: ReleaseCause,
        t: usize,
        obs: &mut RunObserver,
    ) -> (usize, f64) {
        let provisioner = &mut self.groups[gi].provisioner;
        let dropped = provisioner.drop_leases_at_center(center);
        for lease in &dropped {
            self.centers[center].revoke(lease.id);
            obs.lease_release(t, center, provisioner.operator.0, lease, cause);
        }
        (dropped.len(), dropped.iter().map(|l| l.amounts.cpu).sum())
    }

    /// Charges group `gi`'s move away from `center`: its players sit
    /// out the timeline's migration cost (player-visible downtime,
    /// counted as unserved) and an outage episode opens at `center`.
    fn charge_migration(
        &mut self,
        gi: usize,
        center: usize,
        leases: usize,
        tick: &mut TickState,
        obs: &mut RunObserver,
    ) {
        let t = tick.t;
        let migration_cost = self
            .scenario
            .as_ref()
            .map_or(0, ScenarioTimeline::migration_cost_ticks);
        let cost = self.hot[gi].players * migration_cost as f64;
        self.tally.migration_player_ticks += cost;
        self.tally.unserved_player_ticks += cost;
        self.tally.migrations += 1;
        tick.migration_fired = true;
        self.tally.open_outage(center, t);
        obs.push(
            "migration",
            t,
            &[gi as f64, center as f64, leases as f64, cost],
        );
        emit!(obs, "migration", "tick" => t, "group" => gi, "center" => center, "leases" => leases,
            "cost" => cost);
    }

    /// Stage 4 (fan-out): scores the allocation in force against the
    /// actual demand and, in dynamic mode, computes each group's next
    /// demand target. Each group touches only its own cold state and
    /// its slot in the contiguous hot array.
    fn predict_score(&mut self, pool: Option<&Pool>, tick: &mut TickState, obs: &RunObserver) {
        let dynamic = self.mode == AllocationMode::Dynamic;
        let dropout = tick.dropout;
        let step = |_i: usize, group: &mut GroupRuntime, hot: &mut GroupHot| {
            let players = hot.players;
            // Score the prediction made last tick against this tick's
            // observation. Per-group accumulators keep the sums
            // deterministic under the fan-out.
            let prev = group.provisioner.last_prediction();
            if dynamic && prev.is_finite() {
                hot.abs_err_sum += (prev - players).abs();
                hot.actual_sum += players;
            }
            hot.demand = group.demand_model.demand(players);
            hot.alloc = group.provisioner.allocated();
            hot.short = (hot.alloc - hot.demand).min(&ResourceVector::ZERO);
            hot.target = if !dynamic {
                ResourceVector::ZERO
            } else if dropout {
                // The schedule dropped the predictor this tick:
                // last-value fallback, history stays warm.
                group.provisioner.observe_and_target_fallback(players)
            } else {
                group.provisioner.observe_and_target(players)
            };
        };
        let start = Instant::now();
        match pool {
            Some(pool) => pool.for_each_mut2(&mut self.groups, &mut self.hot, step),
            None => {
                for (i, (group, hot)) in self.groups.iter_mut().zip(self.hot.iter_mut()).enumerate()
                {
                    step(i, group, hot);
                }
            }
        }
        tick.predict_ns = obs.predict.record(start);
    }

    /// Stage 5: the ordered reduction. Eq. 2's min is per server group
    /// so one group's surplus never hides another's deficit; folding in
    /// group-index order makes the float sums bit-identical to the
    /// serial engine for any thread count.
    fn reduce(&mut self, tick: &mut TickState, obs: &mut RunObserver) {
        let t = tick.t;
        let start = Instant::now();
        self.per_game.fill(Default::default());
        for (group, hot) in self.groups.iter().zip(&self.hot) {
            tick.demand += hot.demand;
            tick.alloc += hot.alloc;
            tick.shortfall += hot.short;
            let entry = &mut self.per_game[group.game];
            entry.0 += hot.alloc;
            entry.1 += hot.demand;
            entry.2 += hot.short;
        }
        if t >= self.warmup {
            let now = SimTime(t as u64);
            // M of Eq. 2: one machine-equivalent per server group (a
            // group at full load is exactly one game server, Sec. V-A).
            let machines = self.groups.len() as f64;
            self.tally
                .metrics
                .record(now, &tick.alloc, &tick.demand, &tick.shortfall, machines);
            for (gi, (alloc, demand, short)) in self.per_game.iter().enumerate() {
                self.tally.game_metrics[gi].record(
                    now,
                    alloc,
                    demand,
                    short,
                    self.game_machines[gi],
                );
            }
            self.tally.demand_cpu_series.push(tick.demand.cpu);
            self.tally.alloc_cpu_series.push(tick.alloc.cpu);
            self.tally.usage.accumulate(&self.centers);
        }
        obs.tick_events(self.ticks, tick, &self.centers);
        tick.reduce_ns = obs.reduce.record(start);
    }

    /// Stage 6 (serial): adjusts allocations for the next tick in
    /// priority order — higher-priority games lease (and keep) capacity
    /// first. Matching contends on the shared centers, so this ordering
    /// IS the semantics and cannot fan out. Dynamic groups settle
    /// toward their prediction every tick; static groups only re-buy
    /// their fixed peak after a fault or scenario drain took capacity,
    /// so an undisturbed static run stays allocate-once.
    fn settle(&mut self, tick: &mut TickState, obs: &mut RunObserver) {
        let t = tick.t;
        let dynamic = self.mode == AllocationMode::Dynamic;
        if !dynamic && !self.disturbed() {
            return;
        }
        let start = Instant::now();
        for i in 0..self.processing_order.len() {
            let gi = self.processing_order[i];
            let lost = self.groups[gi].provisioner.lost_capacity();
            if !dynamic && lost.is_negligible(1e-9) {
                continue;
            }
            if self.settle_group(gi, t, obs).replayed {
                tick.skips += 1;
            } else {
                tick.full += 1;
            }
        }
        let ns = obs.settle.record(start);
        tick.settle_ns = Some(ns);
        obs.record_settle(ns, tick);
    }

    /// The one settle path: one adjustment step of group `gi` toward
    /// its target, booked into the run tallies, with fault-recovery
    /// accounting and the step's events. Serves dynamic steps, static
    /// re-provisioning and the tick-0 static allocation alike.
    fn settle_group(&mut self, gi: usize, t: usize, obs: &mut RunObserver) -> AdjustOutcome {
        let target = self.target(gi);
        let provisioner = &mut self.groups[gi].provisioner;
        let lost = provisioner.lost_capacity();
        let now = SimTime(t as u64);
        let out = provisioner.adjust(&self.topology, &target, &mut self.centers, now);
        self.tally.leases_granted += out.granted as u64;
        self.tally.leases_released += out.released as u64;
        self.tally.rejections.merge(&out.rejections);
        self.tally.unmet_steps += u64::from(out.unmet);
        // Capacity lost to a fault or drain: grants re-acquire it, and
        // once the group is whole again further grants stop counting as
        // recovery.
        if !lost.is_negligible(1e-9) {
            if out.granted > 0 {
                self.tally.reprovisions += out.granted as u64;
                emit!(obs, "reprovision", "tick" => t, "operator" => provisioner.operator.0,
                    "granted" => out.granted, "lost_cpu" => lost.cpu);
            }
            if !out.unmet && !out.deferred {
                provisioner.clear_lost_capacity();
            }
        }
        obs.adjust_events(t, provisioner, &target, &out);
        out
    }

    /// Stage 7 (disturbed runs only): unserved player-ticks — each
    /// group's players scaled by the fraction of its target the settle
    /// stage could not (re-)acquire. Routine prediction lag never shows
    /// up here (a met request zeroes the deficit), so a healthy run
    /// contributes nothing and an outage episode closes at the first
    /// tick the platform is whole again.
    fn account_unserved(&mut self, t: usize, obs: &mut RunObserver) {
        if !self.disturbed() {
            return;
        }
        let mut tick_unserved = 0.0f64;
        for (gi, group) in self.groups.iter().enumerate() {
            let target = self.target(gi);
            if target.cpu <= 1e-12 {
                continue;
            }
            let deficit = (target.cpu - group.provisioner.allocated().cpu).max(0.0);
            if deficit <= 1e-9 {
                continue;
            }
            tick_unserved += self.hot[gi].players * (deficit / target.cpu).clamp(0.0, 1.0);
        }
        self.tally.unserved_player_ticks += tick_unserved;
        if tick_unserved > 1e-9 {
            return;
        }
        for (center, start) in self.tally.open_outages.drain(..) {
            let down_ticks = t as u64 - start;
            self.tally.recovery_ticks.push(down_ticks);
            emit!(obs, "fault_recovery", "tick" => t, "center" => center,
                "down_ticks" => down_ticks);
        }
    }

    /// Final stage: registers the run's counters, scores per-group
    /// prediction error, closes every surviving lease's lifecycle,
    /// tears the observer down and builds the report.
    fn finish(self, mut obs: RunObserver) -> SimReport {
        let tally = self.tally;
        let center_usage = tally.usage.report(&self.centers);
        mmog_obs::counter("sim.unmet_steps", Domain::Semantic).add(tally.unmet_steps);
        mmog_obs::counter("sim.leases_granted", Domain::Semantic).add(tally.leases_granted);
        mmog_obs::counter("sim.leases_released", Domain::Semantic).add(tally.leases_released);
        // Fault and scenario counters register only on runs with that
        // plane, so an undisturbed metrics summary stays byte-identical
        // to the baseline.
        if self.faults.is_some() {
            mmog_obs::counter("faults.events", Domain::Semantic).add(tally.fault_events);
            mmog_obs::counter("faults.leases_revoked", Domain::Semantic).add(tally.leases_revoked);
            mmog_obs::counter("faults.reprovisions", Domain::Semantic).add(tally.reprovisions);
            mmog_obs::counter("faults.outages_recovered", Domain::Semantic)
                .add(tally.recovery_ticks.len() as u64);
            mmog_obs::counter("faults.outages_unrecovered", Domain::Semantic)
                .add(tally.open_outages.len() as u64);
        }
        if self.scenario.is_some() {
            mmog_obs::counter("scenario.events", Domain::Semantic).add(tally.scenario_events);
            mmog_obs::counter("scenario.migrations", Domain::Semantic).add(tally.migrations);
        }
        // Per-group online prediction error (the paper's metric, scored
        // over the whole run); both the histogram records and the event
        // values are per-group deterministic quantities.
        let err_hist = mmog_obs::histogram(
            "sim.prediction_error_pct",
            Domain::Semantic,
            &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
        );
        for (gi, (group, hot)) in self.groups.iter().zip(&self.hot).enumerate() {
            if hot.actual_sum <= 0.0 {
                continue;
            }
            let error_pct = 100.0 * hot.abs_err_sum / hot.actual_sum;
            err_hist.record(error_pct);
            emit!(obs, "prediction_group", "group" => gi,
                "operator" => group.provisioner.operator.0,
                "game" => self.game_names[group.game].as_str(), "error_pct" => error_pct);
        }
        // Integrated per-center usage: the bulk-waste attribution of
        // Figures 13–14, one event per center in platform order.
        for u in &center_usage {
            emit!(obs, "center_usage", "name" => u.name.as_str(), "capacity_cpu" => u.capacity_cpu,
                "cpu_unit_ticks" => u.cpu_total, "cpu_free_unit_ticks" => u.cpu_free);
        }
        if self.faults.is_some() {
            emit!(obs, "fault_summary", "events" => tally.fault_events,
                "leases_revoked" => tally.leases_revoked,
                "reprovisions" => tally.reprovisions,
                "unserved_player_ticks" => tally.unserved_player_ticks,
                "recovered" => tally.recovery_ticks.len(),
                "unrecovered" => tally.open_outages.len());
        }
        // Lifecycle closure: every lease still held at run end gets its
        // terminal event (groups in index order), so the analyzer always
        // reconstructs 100% of granted leases.
        if obs.sink.is_some() {
            let end_tick = self.ticks.saturating_sub(1);
            for group in &self.groups {
                let op = group.provisioner.operator.0;
                for held in group.provisioner.held_leases() {
                    obs.lease_release(end_tick, held.center, op, &held.lease, ReleaseCause::RunEnd);
                }
            }
        }
        emit!(obs, "run_end", "ticks" => self.ticks, "unmet_steps" => tally.unmet_steps,
            "leases_granted" => tally.leases_granted,
            "leases_released" => tally.leases_released);
        let (timing, flight_dump) = obs.finish(self.ticks);
        SimReport {
            metrics: tally.metrics,
            per_game: self
                .game_names
                .into_iter()
                .zip(tally.game_metrics)
                .map(|(name, metrics)| GameMetrics { name, metrics })
                .collect(),
            center_usage,
            operator_origins: self.operator_origins,
            demand_cpu_series: tally.demand_cpu_series,
            alloc_cpu_series: tally.alloc_cpu_series,
            unmet_steps: tally.unmet_steps,
            ticks: self.ticks,
            rejections: tally.rejections,
            unserved_player_ticks: tally.unserved_player_ticks,
            recovery_ticks: tally.recovery_ticks,
            unrecovered_outages: tally.open_outages.len(),
            fault_events: tally.fault_events,
            leases_revoked: tally.leases_revoked,
            reprovisions: tally.reprovisions,
            scenario_events: tally.scenario_events,
            migrations: tally.migrations,
            migration_player_ticks: tally.migration_player_ticks,
            flight_dump,
            timing,
        }
    }
}

impl SimReport {
    /// Shares of total allocated CPU unit-ticks per distance class
    /// between the request origin and the granting center — the bars of
    /// Figure 13. `centers` must be the configuration's center list (for
    /// locations). Returns `(class label, share in percent)`.
    #[must_use]
    pub fn allocation_by_distance_class(&self, centers: &[DataCenter]) -> Vec<(&'static str, f64)> {
        use mmog_util::geo::DistanceClass;
        let mut buckets = [0.0f64; 5];
        let mut total = 0.0;
        for (usage, center) in self.center_usage.iter().zip(centers) {
            for (op, units) in &usage.cpu_by_operator {
                let Some((_, origin)) = self.operator_origins.get(op) else {
                    continue;
                };
                let d = center.spec.location.distance_km(origin);
                let class = DistanceClass::ALL
                    .iter()
                    .position(|c| c.admits(d))
                    .unwrap_or(DistanceClass::ALL.len() - 1);
                buckets[class] += units;
                total += units;
            }
        }
        DistanceClass::ALL
            .iter()
            .zip(buckets)
            .map(|(c, b)| (c.label(), if total > 0.0 { 100.0 * b / total } else { 0.0 }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_datacenter::locations::table3_hp12;
    use mmog_util::time::TICKS_PER_DAY;
    use mmog_workload::runescape::{generate, RuneScapeConfig};

    fn small_trace(days: u64, seed: u64) -> GameTrace {
        let mut cfg = RuneScapeConfig::paper_default(days, seed);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 6;
        cfg.regions[1].groups = 4;
        cfg.outage_prob_per_day = 0.0;
        generate(&cfg)
    }

    fn base_config(mode: AllocationMode, predictor: PredictorKind) -> SimulationConfig {
        SimulationConfig {
            centers: table3_hp12(),
            games: vec![GameSpec {
                name: "game".into(),
                operator_base: 0,
                update_model: UpdateModel::Quadratic,
                tolerance: DistanceClass::VeryFar,
                headroom: 1.0,
                predictor,
                workload: small_trace(2, 5).into(),
                static_peak_players: 2100.0, // capacity x the 1.05 overfull clamp
                priority: 0,
            }],
            mode,
            ticks: None,
            warmup_ticks: 30,
            train_ticks: 0,
            master_seed: 5,
            faults: None,
            scenario: None,
        }
    }

    #[test]
    fn dynamic_run_produces_full_report() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        assert_eq!(report.ticks, 2 * TICKS_PER_DAY as usize);
        assert_eq!(
            report.metrics.samples(),
            (report.ticks - 30) as u64,
            "warm-up excluded"
        );
        assert_eq!(report.center_usage.len(), 17);
    }

    #[test]
    fn dynamic_tracks_demand_with_modest_over_allocation() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        use mmog_datacenter::resource::ResourceType;
        let over = report.metrics.avg_over(ResourceType::Cpu);
        assert!(
            over > 0.0,
            "bulk rounding guarantees some over-allocation: {over}"
        );
        assert!(over < 150.0, "dynamic CPU over-allocation too high: {over}");
        // Under-allocation should be small in magnitude.
        let under = report.metrics.avg_under(ResourceType::Cpu);
        assert!(under <= 0.0);
        assert!(under > -5.0, "under-allocation {under}");
    }

    #[test]
    fn static_over_allocates_much_more_than_dynamic() {
        // The headline claim: "static resource provisioning can be on
        // average from five up to ten times more inefficient".
        use mmog_datacenter::resource::ResourceType;
        let dynamic = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let static_ = Simulation::new(base_config(
            AllocationMode::Static,
            PredictorKind::LastValue,
        ))
        .run();
        let od = dynamic.metrics.avg_over(ResourceType::Cpu);
        let os = static_.metrics.avg_over(ResourceType::Cpu);
        assert!(os > 2.0 * od, "static {os}% should dwarf dynamic {od}%");
    }

    #[test]
    fn static_never_under_allocates() {
        use mmog_datacenter::resource::ResourceType;
        let report = Simulation::new(base_config(
            AllocationMode::Static,
            PredictorKind::LastValue,
        ))
        .run();
        for r in ResourceType::ALL {
            assert!(
                report.metrics.avg_under(r).abs() < 1e-9,
                "{r}: {}",
                report.metrics.avg_under(r)
            );
        }
        assert_eq!(report.metrics.events(), 0);
    }

    #[test]
    fn ticks_clamped_to_trace_length() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.ticks = Some(10_000_000);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.ticks, 2 * TICKS_PER_DAY as usize);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.ticks = Some(100);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.ticks, 100);
    }

    #[test]
    fn usage_attribution_sums_to_allocation() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        // The integrated per-operator usage must equal the integrated
        // allocation series.
        let total_usage: f64 = report.center_usage.iter().map(|u| u.cpu_total).sum();
        let total_alloc: f64 = report.alloc_cpu_series.sum();
        assert!(
            (total_usage - total_alloc).abs() < 1e-6 * total_alloc.max(1.0),
            "usage {total_usage} vs alloc {total_alloc}"
        );
    }

    #[test]
    fn distance_class_shares_sum_to_100() {
        let cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        let centers_copy = table3_hp12();
        let report = Simulation::new(cfg).run();
        let shares = report.allocation_by_distance_class(&centers_copy);
        assert_eq!(shares.len(), 5);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn same_location_tolerance_limits_placement() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.games[0].tolerance = DistanceClass::SameLocation;
        let centers_copy = table3_hp12();
        let report = Simulation::new(cfg).run();
        let shares = report.allocation_by_distance_class(&centers_copy);
        // Everything allocated must be in the SameLocation bucket.
        assert!(shares[0].1 > 99.9 || report.alloc_cpu_series.sum() == 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server group")]
    fn empty_simulation_rejected() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.games.clear();
        let _ = Simulation::new(cfg);
    }

    #[test]
    fn per_game_metrics_cover_each_game() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        let second = GameSpec {
            name: "second".into(),
            operator_base: 100,
            update_model: UpdateModel::Linear,
            ..cfg.games[0].clone()
        };
        cfg.games.push(second);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.per_game.len(), 2);
        assert_eq!(report.per_game[0].name, "game");
        assert_eq!(report.per_game[1].name, "second");
        for gm in &report.per_game {
            assert_eq!(
                gm.metrics.samples(),
                report.metrics.samples(),
                "{}",
                gm.name
            );
        }
        // The aggregate over-allocation sits between the per-game ones
        // (it is a demand-weighted combination).
        use mmog_datacenter::resource::ResourceType;
        let (a, b) = (
            report.per_game[0].metrics.avg_over(ResourceType::Cpu),
            report.per_game[1].metrics.avg_over(ResourceType::Cpu),
        );
        let total = report.metrics.avg_over(ResourceType::Cpu);
        assert!(
            total >= a.min(b) - 1.0 && total <= a.max(b) + 1.0,
            "{a} {total} {b}"
        );
    }

    #[test]
    fn streaming_workload_matches_materialized_report() {
        // The tentpole contract: a game whose workload is the streaming
        // generator must produce the same report, to the last bit, as
        // the same configuration materialized up front — including with
        // predictor training on (the stream serves the train prefix).
        let mut rs = RuneScapeConfig::paper_default(1, 5);
        rs.regions.truncate(2);
        rs.regions[0].groups = 6;
        rs.regions[1].groups = 4;
        let mut materialized = base_config(AllocationMode::Dynamic, PredictorKind::Neural);
        materialized.games[0].workload = generate(&rs).into();
        materialized.train_ticks = 96;
        let mut streaming = base_config(AllocationMode::Dynamic, PredictorKind::Neural);
        streaming.games[0].workload = rs.into();
        streaming.train_ticks = 96;
        let a = Simulation::new(materialized).run();
        let b = Simulation::new(streaming).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Index of the most-used center in a baseline run — the victim
    /// whose outage is guaranteed to revoke leases.
    fn busiest_center(mode: AllocationMode) -> usize {
        let report = Simulation::new(base_config(mode, PredictorKind::LastValue)).run();
        report
            .center_usage
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.cpu_total.total_cmp(&b.cpu_total))
            .map(|(i, _)| i)
            .expect("at least one center")
    }

    #[test]
    fn outage_recovers_under_dynamic_provisioning() {
        use mmog_faults::{FaultEvent, FaultKind};
        // The busiest center dies at tick 100 and comes back at tick
        // 160. Dynamic provisioning must re-acquire the lost capacity
        // from the surviving centers and drive unserved player-ticks
        // back to zero.
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "test-outage",
            vec![
                FaultEvent {
                    tick: 100,
                    center: victim,
                    kind: FaultKind::CenterDown,
                },
                FaultEvent {
                    tick: 160,
                    center: victim,
                    kind: FaultKind::CenterUp,
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert_eq!(report.fault_events, 2);
        assert!(report.leases_revoked > 0, "the busiest center held leases");
        assert!(report.reprovisions > 0, "lost capacity was re-acquired");
        assert_eq!(
            report.unrecovered_outages, 0,
            "dynamic provisioning must heal the outage"
        );
        assert_eq!(report.recovery_ticks.len(), 1);
        assert!(
            report.recovery_ticks[0] < 30,
            "recovery took {} ticks",
            report.recovery_ticks[0]
        );
    }

    #[test]
    fn empty_fault_schedule_matches_baseline_report() {
        // Faults = Some(empty) exercises the fault plumbing (retry
        // policy installed, accounting live) without any event — the
        // scored metrics must equal the unfaulted run's exactly.
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events("empty", vec![]));
        let faulted = Simulation::new(cfg).run();
        use mmog_datacenter::resource::ResourceType;
        for r in ResourceType::ALL {
            assert_eq!(baseline.metrics.avg_over(r), faulted.metrics.avg_over(r));
            assert_eq!(baseline.metrics.avg_under(r), faulted.metrics.avg_under(r));
        }
        assert_eq!(baseline.unmet_steps, faulted.unmet_steps);
        assert_eq!(faulted.fault_events, 0);
        assert_eq!(faulted.leases_revoked, 0);
        assert_eq!(faulted.unserved_player_ticks, 0.0);
        assert_eq!(baseline.rejections, faulted.rejections);
    }

    #[test]
    fn static_reprovisions_after_outage_only_under_faults() {
        use mmog_faults::{FaultEvent, FaultKind};
        let victim = busiest_center(AllocationMode::Static);
        let mut cfg = base_config(AllocationMode::Static, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "static-outage",
            vec![FaultEvent {
                tick: 100,
                center: victim,
                kind: FaultKind::CenterDown,
            }],
        ));
        let report = Simulation::new(cfg).run();
        assert!(report.leases_revoked > 0);
        assert!(
            report.reprovisions > 0,
            "static operators re-buy their fixed allocation"
        );
        assert_eq!(report.unrecovered_outages, 0);
    }

    #[test]
    fn empty_scenario_timeline_matches_baseline_report() {
        // Scenario = Some(empty) exercises the scenario plumbing (retry
        // policy installed, nominal topology threaded through every
        // matcher call) without any event — the scored metrics must
        // equal the scenario-free run's exactly.
        use mmog_faults::ScenarioTimeline;
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events("empty", vec![]));
        let scenario = Simulation::new(cfg).run();
        use mmog_datacenter::resource::ResourceType;
        for r in ResourceType::ALL {
            assert_eq!(baseline.metrics.avg_over(r), scenario.metrics.avg_over(r));
            assert_eq!(baseline.metrics.avg_under(r), scenario.metrics.avg_under(r));
        }
        assert_eq!(baseline.unmet_steps, scenario.unmet_steps);
        assert_eq!(baseline.rejections, scenario.rejections);
        assert_eq!(scenario.scenario_events, 0);
        assert_eq!(scenario.migrations, 0);
        assert_eq!(scenario.migration_player_ticks, 0.0);
        assert_eq!(scenario.unserved_player_ticks, 0.0);
    }

    #[test]
    fn migration_moves_leases_and_charges_cost() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        // Group 0 migrates at tick 100 (pick 0 resolves to group 0):
        // its leases are dropped center-side and player-visible cost is
        // charged into both migration and unserved accounting.
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(
            ScenarioTimeline::from_events(
                "one-migration",
                vec![ScenarioEvent {
                    tick: 100,
                    kind: ScenarioEventKind::Migrate { pick: 0 },
                }],
            )
            .with_migration_cost(3),
        );
        let report = Simulation::new(cfg).run();
        assert_eq!(report.scenario_events, 1);
        assert_eq!(report.migrations, 1);
        assert!(
            report.migration_player_ticks > 0.0,
            "a live group pays to move"
        );
        assert!(report.unserved_player_ticks >= report.migration_player_ticks);
        assert_eq!(
            report.unrecovered_outages, 0,
            "dynamic provisioning re-acquires the moved capacity"
        );
        assert!(!report.recovery_ticks.is_empty());
    }

    #[test]
    fn partition_heals_and_run_recovers() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        // Split the platform for 60 ticks; the run must complete with
        // both events applied and no lingering topology effects (the
        // heal restores full reachability).
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "partition-heal",
            vec![
                ScenarioEvent {
                    tick: 100,
                    kind: ScenarioEventKind::Partition { mask: 0b101 },
                },
                ScenarioEvent {
                    tick: 160,
                    kind: ScenarioEventKind::Heal,
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert_eq!(report.scenario_events, 2);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migration_player_ticks, 0.0);
    }

    #[test]
    fn flash_crowd_inflates_demand() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "flash",
            vec![
                ScenarioEvent {
                    tick: 200,
                    kind: ScenarioEventKind::FlashBegin {
                        pick: 0,
                        factor: 2.0,
                    },
                },
                ScenarioEvent {
                    tick: 500,
                    kind: ScenarioEventKind::FlashEnd { pick: 0 },
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert!(
            report.demand_cpu_series.sum() > baseline.demand_cpu_series.sum(),
            "a 2x flash crowd must raise integrated demand"
        );
        assert_eq!(report.scenario_events, 2);
    }

    #[test]
    fn region_failover_drains_every_group_at_the_center() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "failover",
            vec![ScenarioEvent {
                tick: 100,
                kind: ScenarioEventKind::RegionFailover {
                    center: victim as u32,
                },
            }],
        ));
        let report = Simulation::new(cfg).run();
        assert!(
            report.migrations > 0,
            "the busiest center hosted at least one group"
        );
        assert!(report.migration_player_ticks > 0.0);
        assert_eq!(report.unrecovered_outages, 0);
    }

    #[test]
    fn scenario_composes_with_fault_schedule() {
        use mmog_faults::{
            FaultEvent, FaultKind, ScenarioEvent, ScenarioEventKind, ScenarioTimeline,
        };
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "outage",
            vec![
                FaultEvent {
                    tick: 100,
                    center: victim,
                    kind: FaultKind::CenterDown,
                },
                FaultEvent {
                    tick: 160,
                    center: victim,
                    kind: FaultKind::CenterUp,
                },
            ],
        ));
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "partition",
            vec![
                ScenarioEvent {
                    tick: 120,
                    kind: ScenarioEventKind::Partition { mask: 0b11 },
                },
                ScenarioEvent {
                    tick: 200,
                    kind: ScenarioEventKind::Heal,
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert_eq!(report.fault_events, 2);
        assert_eq!(report.scenario_events, 2);
        assert_eq!(report.unrecovered_outages, 0, "both planes heal");
    }

    #[test]
    fn priority_orders_request_processing_under_contention() {
        // Two identical games on a platform that can only hold roughly
        // one of them: the prioritized game must come out with the
        // smaller under-allocation.
        let run = |priorities: [i32; 2]| {
            let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
            let mut second = GameSpec {
                name: "low".into(),
                operator_base: 100,
                ..cfg.games[0].clone()
            };
            cfg.games[0].name = "high".into();
            cfg.games[0].priority = priorities[0];
            second.priority = priorities[1];
            cfg.games.push(second);
            // Shrink the platform until requests contend: ~10 CPU units
            // against a combined mean demand of ~15.
            let mut budget = 8u32;
            for c in &mut cfg.centers {
                let m = (c.spec.machines / 8).min(budget);
                c.spec.machines = m;
                budget -= m;
            }
            cfg.centers.retain(|c| c.spec.machines > 0);
            Simulation::new(cfg).run()
        };
        use mmog_datacenter::resource::ResourceType;
        let report = run([0, 5]);
        let high = report.per_game[0].metrics.avg_under(ResourceType::Cpu);
        let low = report.per_game[1].metrics.avg_under(ResourceType::Cpu);
        assert!(report.unmet_steps > 0, "platform must actually contend");
        assert!(
            high > low,
            "prioritized game should be under-allocated less: high {high} vs low {low}"
        );
    }
}
