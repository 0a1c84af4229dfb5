//! Minimal argument parsing shared by the experiment binaries.

use mmog_faults::{FaultSpec, ScenarioSpec};
use mmog_sim::scenario::ScenarioOpts;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// `--help` text shared by the experiment binaries: every flag plus the
/// full `--faults` and `--scenario` grammars.
pub const HELP: &str = "\
Usage: <experiment> [FLAGS]

Scale:
  --quick                3-day, 6-groups-per-region smoke run
  --days N               trace length in days (default 14)
  --cap N                cap server groups per region (default: none)
  --seed N               deterministic master seed (default 2008)
  --jobs N               worker threads (0 = all CPUs, 1 = serial)

Observability:
  --trace PATH           write the JSONL event log to PATH
                         (fallback: MMOG_TRACE environment variable)
  --metrics              export the metrics summary (OBS_summary.json)
  --flight N             flight recorder: retain the last N ticks,
                         dumped to FLIGHT_<run>.jsonl on a trigger
  --flight-dump          dump the final window at run end regardless
  --tick-deadline-ms N   fire the flight recorder when a tick exceeds
                         N wall-clock milliseconds (diagnosis only)
  --ts DIR               export per-run downsampled time series as
                         DIR/TS_<run>.json (fallback: MMOG_TS)
  --live PATH            atomically rewrite a live telemetry snapshot
                         at PATH every few ticks; watch it with
                         mmog_top (fallback: MMOG_LIVE)
  --live-every N         live snapshot rewrite interval in ticks
                         (default 64)

Fault injection (--faults SPEC | MMOG_FAULTS):
  SPEC is `paper` or comma-separated key=value pairs; whitespace
  around `=` and `,` is ignored.
    outages=F   expected outages per center-day     repair=N   mean repair minutes
    degrade=F   expected degradations per center-day  dfrac=F  surviving fraction
    dmins=N     mean degradation minutes            revoke=F   lease revocations/day
    dropout=F   predictor dropout probability per tick          seed=N

Scenario engine (--scenario SPEC | MMOG_SCENARIO):
  SPEC is `paper` or comma-separated key=value pairs; whitespace
  around `=` and `,` is ignored.
    partition=F  expected network partitions/day    pmins=N    mean partition minutes
    migrate=F    expected zone migrations/day       mcost=N    ticks charged per player
    flash=F      expected flash crowds/day          fpeak=F    demand multiplier (>= 1)
    fmins=N      mean flash-crowd minutes           failover=F center drains/day
    link=F       link degradations/day              lfactor=F  distance multiplier (>= 1)
    lmins=N      mean link-degradation minutes      seed=N
";

/// Scale options for an experiment run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Trace length in days (paper: 14).
    pub days: u64,
    /// Optional cap on server groups per region (paper: none).
    pub cap: Option<u32>,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the parallel execution layer (0 = all
    /// logical CPUs; 1 = fully serial, bit-identical reference path).
    pub jobs: usize,
    /// JSONL event-log destination (`--trace <path>`; the `MMOG_TRACE`
    /// environment variable is the fallback).
    pub trace: Option<PathBuf>,
    /// Whether to export the metrics summary (`--metrics`).
    pub metrics: bool,
    /// Fault-injection spec (`--faults SPEC`; the `MMOG_FAULTS`
    /// environment variable is the fallback). `--faults paper` selects
    /// the default rates; `--faults "outages=0.5,repair=120"` tunes
    /// them. Malformed specs abort rather than silently running
    /// unfaulted.
    pub faults: Option<FaultSpec>,
    /// Scenario-engine spec (`--scenario SPEC`; the `MMOG_SCENARIO`
    /// environment variable is the fallback). `--scenario paper`
    /// selects the default rates; `--scenario "partition=1,migrate=4"`
    /// tunes them. Malformed specs abort rather than silently running
    /// scenario-free.
    pub scenario_spec: Option<ScenarioSpec>,
    /// Flight-recorder window (`--flight N`): retain the last N ticks
    /// of full-detail events per run, dumped to `FLIGHT_<run>.jsonl`
    /// only when a trigger fires. `None` disables the recorder (the
    /// default — runs stay byte-identical to pre-flight builds).
    pub flight: Option<u64>,
    /// `--flight-dump`: dump the final window at run end even without
    /// a trigger (implies `--flight` with the default window).
    pub flight_dump: bool,
    /// Per-tick deadline in milliseconds (`--tick-deadline-ms N`): a
    /// tick exceeding it fires the flight recorder's deadline-overrun
    /// trigger. Wall-clock — for interactive diagnosis, never CI gates.
    pub tick_deadline_ms: Option<u64>,
    /// Time-series output directory (`--ts DIR`; the `MMOG_TS`
    /// environment variable is the fallback). Each run exports its
    /// downsampled per-metric series as `DIR/TS_<run>.json`. `None`
    /// disables the plane (the default — runs stay byte-identical).
    pub ts_dir: Option<PathBuf>,
    /// Live telemetry snapshot path (`--live PATH`; the `MMOG_LIVE`
    /// environment variable is the fallback). `None` disables the tap.
    pub live: Option<PathBuf>,
    /// Live snapshot rewrite interval in ticks (`--live-every N`).
    pub live_every: Option<u64>,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            days: 14,
            cap: None,
            seed: 2008,
            jobs: 0,
            trace: None,
            metrics: false,
            faults: None,
            scenario_spec: None,
            flight: None,
            flight_dump: false,
            tick_deadline_ms: None,
            ts_dir: None,
            live: None,
            live_every: None,
        }
    }
}

impl RunOpts {
    /// Parses `--days N`, `--cap N`, `--seed N`, `--jobs N`, `--quick`,
    /// `--trace PATH`, `--metrics` from the process arguments and
    /// applies `--jobs` to the global parallelism setting plus the
    /// trace destination to the observability plane. `--quick` is
    /// shorthand for a 3-day, 6-group smoke run. Unknown flags are
    /// ignored so binaries stay composable; a known flag with a missing
    /// or unparsable value aborts.
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
            print!("{HELP}");
            std::process::exit(0);
        }
        let mut opts = Self::parse(std::env::args().skip(1));
        if opts.faults.is_none() {
            if let Ok(spec) = std::env::var("MMOG_FAULTS") {
                if !spec.is_empty() {
                    opts.faults = Some(parse_fault_spec(&spec));
                }
            }
        }
        if opts.scenario_spec.is_none() {
            if let Ok(spec) = std::env::var("MMOG_SCENARIO") {
                if !spec.is_empty() {
                    opts.scenario_spec = Some(parse_scenario_spec(&spec));
                }
            }
        }
        opts.apply_jobs();
        opts.apply_obs();
        opts
    }

    /// Parses flags from an explicit argument list (testable core of
    /// [`from_args`]; does not touch global state). Unknown flags are
    /// skipped, because binaries add flags of their own.
    ///
    /// # Panics
    /// Panics when a known flag's value is missing or, for a numeric
    /// flag, does not parse: a typo must abort the run, not silently
    /// fall back to a default.
    ///
    /// [`from_args`]: Self::from_args
    #[must_use]
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.days = 3;
                    opts.cap = Some(6);
                }
                "--days" => opts.days = parse_next(&mut args, "--days"),
                "--cap" => opts.cap = Some(parse_next(&mut args, "--cap")),
                "--seed" => opts.seed = parse_next(&mut args, "--seed"),
                "--jobs" => opts.jobs = parse_next(&mut args, "--jobs"),
                "--trace" => opts.trace = Some(PathBuf::from(next_value(&mut args, "--trace"))),
                "--metrics" => opts.metrics = true,
                "--faults" => {
                    opts.faults = Some(parse_fault_spec(&next_value(&mut args, "--faults")))
                }
                "--scenario" => {
                    opts.scenario_spec =
                        Some(parse_scenario_spec(&next_value(&mut args, "--scenario")));
                }
                "--flight" => opts.flight = Some(parse_next(&mut args, "--flight")),
                "--flight-dump" => opts.flight_dump = true,
                "--tick-deadline-ms" => {
                    opts.tick_deadline_ms = Some(parse_next(&mut args, "--tick-deadline-ms"));
                }
                "--ts" => opts.ts_dir = Some(PathBuf::from(next_value(&mut args, "--ts"))),
                "--live" => opts.live = Some(PathBuf::from(next_value(&mut args, "--live"))),
                "--live-every" => opts.live_every = Some(parse_next(&mut args, "--live-every")),
                _ => {}
            }
        }
        opts
    }

    /// Installs this run's `--jobs` value as the process-wide worker
    /// count consulted by every parallel sweep and simulation.
    pub fn apply_jobs(&self) {
        mmog_par::set_jobs(self.jobs);
    }

    /// Installs the trace destination: `--trace` wins, otherwise the
    /// `MMOG_TRACE` environment variable applies. Also installs the
    /// flight-recorder configuration when `--flight`/`--flight-dump`
    /// asked for one, the time-series output directory (`--ts` /
    /// `MMOG_TS`) and the live telemetry tap (`--live` / `MMOG_LIVE`).
    pub fn apply_obs(&self) {
        match &self.trace {
            Some(path) => mmog_obs::set_trace_path(Some(path)),
            None => mmog_obs::apply_trace_env(),
        }
        mmog_obs::set_flight_config(self.flight_config());
        match &self.ts_dir {
            Some(dir) => mmog_obs::set_ts_dir(Some(dir)),
            None => {
                if let Ok(dir) = std::env::var("MMOG_TS") {
                    if !dir.is_empty() {
                        mmog_obs::set_ts_dir(Some(Path::new(&dir)));
                    }
                }
            }
        }
        match self.live_config() {
            Some(cfg) => mmog_obs::set_live_config(Some(cfg)),
            None => mmog_obs::apply_live_env(),
        }
    }

    /// The live-tap configuration this run asked for, if any.
    #[must_use]
    pub fn live_config(&self) -> Option<mmog_obs::LiveConfig> {
        let path = self.live.as_deref()?;
        let mut cfg = mmog_obs::LiveConfig::new(path);
        if let Some(every) = self.live_every {
            cfg.every_ticks = every;
        }
        Some(cfg)
    }

    /// The flight-recorder configuration this run asked for, if any.
    #[must_use]
    pub fn flight_config(&self) -> Option<mmog_obs::FlightConfig> {
        const DEFAULT_RETAIN_TICKS: u64 = 64;
        if self.flight.is_none() && !self.flight_dump && self.tick_deadline_ms.is_none() {
            return None;
        }
        let mut cfg = mmog_obs::FlightConfig::new(self.flight.unwrap_or(DEFAULT_RETAIN_TICKS));
        cfg.dump_at_end = self.flight_dump;
        cfg.deadline_ns = self.tick_deadline_ms.map(|ms| ms.saturating_mul(1_000_000));
        Some(cfg)
    }

    /// The equivalent scenario options.
    #[must_use]
    pub fn scenario(&self) -> ScenarioOpts {
        ScenarioOpts {
            days: self.days,
            seed: self.seed,
            group_cap: self.cap,
        }
    }
}

/// The argument following a value-taking `flag`.
///
/// # Panics
/// Panics naming the flag when the arguments end before its value or
/// the next argument is itself a flag (`--trace --metrics` must not
/// write the trace to a file named `--metrics`).
pub fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .filter(|value| !value.starts_with("--"))
        .unwrap_or_else(|| panic!("missing value for {flag}"))
}

/// Parses the argument following a numeric `flag`.
///
/// # Panics
/// Panics naming the flag when its value is missing or does not parse:
/// a typo must abort the run, not silently fall back to a default.
pub fn parse_next<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: Display,
{
    let value = next_value(args, flag);
    value
        .parse()
        .unwrap_or_else(|err| panic!("invalid value {value:?} for {flag}: {err}"))
}

/// Resolves a `--faults` / `MMOG_FAULTS` value: the keyword `paper`
/// selects [`FaultSpec::paper_default`]; anything else must parse as a
/// `key=value` list.
///
/// # Panics
/// Panics on a malformed spec — a typo must abort the run, not
/// silently disable fault injection.
#[must_use]
pub fn parse_fault_spec(spec: &str) -> FaultSpec {
    if spec == "paper" {
        return FaultSpec::paper_default();
    }
    match FaultSpec::parse(spec) {
        Ok(parsed) => parsed,
        Err(err) => panic!("invalid fault spec {spec:?}: {err}"),
    }
}

/// Resolves a `--scenario` / `MMOG_SCENARIO` value: the keyword `paper`
/// selects [`ScenarioSpec::paper_default`]; anything else must parse as
/// a `key=value` list.
///
/// # Panics
/// Panics on a malformed spec — a typo must abort the run, not
/// silently disable the scenario engine.
#[must_use]
pub fn parse_scenario_spec(spec: &str) -> ScenarioSpec {
    if spec == "paper" {
        return ScenarioSpec::paper_default();
    }
    match ScenarioSpec::parse(spec) {
        Ok(parsed) => parsed,
        Err(err) => panic!("invalid scenario spec {spec:?}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = RunOpts::parse(args(&[]));
        assert_eq!((o.days, o.cap, o.seed, o.jobs), (14, None, 2008, 0));
    }

    #[test]
    fn quick_and_overrides_parse() {
        let o = RunOpts::parse(args(&["--quick", "--seed", "7", "--jobs", "3"]));
        assert_eq!(o.days, 3);
        assert_eq!(o.cap, Some(6));
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);
        // Explicit scale after --quick wins.
        let o = RunOpts::parse(args(&["--quick", "--days", "5", "--cap", "9"]));
        assert_eq!((o.days, o.cap), (5, Some(9)));
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let o = RunOpts::parse(args(&["--verbose"]));
        assert_eq!(o.days, 14);
        assert_eq!(o.jobs, 0);
        assert_eq!(o.trace, None);
        assert!(!o.metrics);
    }

    #[test]
    #[should_panic(expected = "invalid value \"abc\" for --days")]
    fn unparsable_days_aborts() {
        let _ = RunOpts::parse(args(&["--days", "abc"]));
    }

    #[test]
    #[should_panic(expected = "invalid value \"5ms\" for --tick-deadline-ms")]
    fn unparsable_tick_deadline_aborts() {
        let _ = RunOpts::parse(args(&["--tick-deadline-ms", "5ms"]));
    }

    #[test]
    fn faults_flag_parses() {
        let o = RunOpts::parse(args(&["--faults", "paper"]));
        assert_eq!(o.faults, Some(FaultSpec::paper_default()));
        let o = RunOpts::parse(args(&["--faults", "outages=0.5,repair=120,seed=9"]));
        let spec = o.faults.expect("spec parsed");
        assert_eq!(spec.outages_per_center_day, 0.5);
        assert_eq!(spec.repair_minutes, 120);
        assert_eq!(spec.seed, 9);
        assert_eq!(RunOpts::parse(args(&[])).faults, None);
    }

    #[test]
    #[should_panic(expected = "invalid fault spec")]
    fn malformed_fault_spec_aborts() {
        let _ = RunOpts::parse(args(&["--faults", "bogus_key=1"]));
    }

    #[test]
    fn scenario_flag_parses() {
        let o = RunOpts::parse(args(&["--scenario", "paper"]));
        assert_eq!(o.scenario_spec, Some(ScenarioSpec::paper_default()));
        let o = RunOpts::parse(args(&["--scenario", "partition=1.5, migrate = 4, mcost=3"]));
        let spec = o.scenario_spec.expect("spec parsed");
        assert_eq!(spec.partitions_per_day, 1.5);
        assert_eq!(spec.migrations_per_day, 4.0);
        assert_eq!(spec.migration_cost_ticks, 3);
        assert_eq!(RunOpts::parse(args(&[])).scenario_spec, None);
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn malformed_scenario_spec_aborts() {
        let _ = RunOpts::parse(args(&["--scenario", "partitions=1"]));
    }

    #[test]
    fn help_documents_both_spec_grammars() {
        for key in [
            "--faults",
            "outages=",
            "repair=",
            "dropout=",
            "--scenario",
            "partition=",
            "pmins=",
            "migrate=",
            "mcost=",
            "flash=",
            "fpeak=",
            "fmins=",
            "failover=",
            "link=",
            "lfactor=",
            "lmins=",
            "seed=",
        ] {
            assert!(HELP.contains(key), "help text missing {key}");
        }
    }

    #[test]
    fn observability_flags_parse() {
        let o = RunOpts::parse(args(&["--trace", "events.jsonl", "--metrics"]));
        assert_eq!(o.trace.as_deref(), Some(Path::new("events.jsonl")));
        assert!(o.metrics);
    }

    #[test]
    fn every_value_flag_without_its_value_aborts_naming_itself() {
        for flag in [
            "--days",
            "--cap",
            "--seed",
            "--jobs",
            "--trace",
            "--faults",
            "--scenario",
            "--flight",
            "--tick-deadline-ms",
            "--ts",
            "--live",
            "--live-every",
        ] {
            // Given last, or followed by another flag.
            for list in [["--metrics", flag], [flag, "--metrics"]] {
                let err = std::panic::catch_unwind(|| RunOpts::parse(args(&list))).expect_err(flag);
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert_eq!(msg, &format!("missing value for {flag}"));
            }
        }
    }

    #[test]
    fn ts_and_live_flags_parse_and_configure() {
        // Off by default: no tap, runs stay byte-identical.
        let o = RunOpts::parse(args(&[]));
        assert_eq!(o.ts_dir, None);
        assert!(o.live_config().is_none());
        let o = RunOpts::parse(args(&[
            "--ts",
            "results",
            "--live",
            "results/OBS_live.json",
            "--live-every",
            "16",
        ]));
        assert_eq!(o.ts_dir.as_deref(), Some(Path::new("results")));
        let cfg = o.live_config().expect("configured");
        assert_eq!(cfg.path, Path::new("results/OBS_live.json"));
        assert_eq!(cfg.interval(), 16);
        // --live without --live-every keeps the default interval.
        let o = RunOpts::parse(args(&["--live", "x.json"]));
        assert_eq!(o.live_config().expect("configured").interval(), 64);
    }

    #[test]
    fn flight_flags_parse_and_configure() {
        // Off by default: no recorder, runs stay byte-identical.
        assert!(RunOpts::parse(args(&[])).flight_config().is_none());
        let o = RunOpts::parse(args(&["--flight", "32"]));
        assert_eq!(o.flight, Some(32));
        let cfg = o.flight_config().expect("configured");
        assert_eq!(cfg.retain_ticks, 32);
        assert!(!cfg.dump_at_end);
        assert_eq!(cfg.deadline_ns, None);
        // --flight-dump alone implies the default window.
        let o = RunOpts::parse(args(&["--flight-dump"]));
        let cfg = o.flight_config().expect("configured");
        assert_eq!(cfg.retain_ticks, 64);
        assert!(cfg.dump_at_end);
        // The deadline converts ms → ns and implies a recorder too.
        let o = RunOpts::parse(args(&["--tick-deadline-ms", "5"]));
        let cfg = o.flight_config().expect("configured");
        assert_eq!(cfg.deadline_ns, Some(5_000_000));
    }
}
