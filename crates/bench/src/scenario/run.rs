//! Executes compiled scenarios and reports results.
//!
//! [`run_scenario`] is the one spec-driven runner: it trains the adversary
//! the spec asks for ([`train_for`] → a frozen batch ensemble, or a
//! warm-started online adversary forked per station), then compiles every
//! station of the [`CompiledScenario`] into a
//! [`StationRun`](crate::streaming::StationRun) and hands the population to
//! the spec'd [`Executor`] — the work-stealing pool, or the virtual-time
//! event core for populations that only fit as O(active stations) state.
//! Station outcomes are deterministic per seed whichever executor (and
//! worker count) runs them, so the returned [`ScenarioReport`] is a pure
//! function of the spec. It serializes straight to JSON through the serde
//! shim, which is what `scenario_run` writes per scenario and what the
//! golden files under `tests/golden/` pin.

use crate::pipeline::{train_adversary, train_adversary_online};
use crate::scenario::spec::{
    AdversaryMode, CompiledScenario, ScenarioStation, SCENARIO_FEATURE_MODE,
};
use crate::streaming::{
    Executor, ExecutorStats, FrozenScorer, ScheduledReport, StationRun, WindowScorer,
};
use classifier::ensemble::AdversaryEnsemble;
use classifier::online::{OnlineAdversary, PrequentialEvaluator, SegmentStats};
use classifier::stream::WindowExample;
use serde::Serialize;
use traffic_gen::app::AppKind;

/// One phase of one station, as reported (and serialized).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseOutcome {
    /// Session-relative second the phase's defense took over.
    pub from_secs: f64,
    /// The defense's label (`"padding"`, `"morphing+or"`, …).
    pub defense: String,
    /// Windows the adversary scored during the phase.
    pub windows: u64,
    /// Windows identified correctly during the phase.
    pub windows_identified: u64,
    /// The phase pipeline's byte overhead, as a percentage.
    pub overhead_pct: f64,
}

/// One station's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StationOutcome {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// The station's traffic seed.
    pub seed: u64,
    /// Wall-clock second the station arrived.
    pub arrival_secs: f64,
    /// The station's effective session length (clipped by departure).
    pub session_secs: f64,
    /// Packets the station streamed.
    pub packets: u64,
    /// Windows scored across all phases.
    pub windows: u64,
    /// Windows identified correctly across all phases.
    pub windows_identified: u64,
    /// The adversary's per-station recognition rate.
    pub identification_rate: f64,
    /// The station's end-to-end byte overhead, as a percentage.
    pub overhead_pct: f64,
    /// Per-phase breakdown, in schedule order.
    pub phases: Vec<PhaseOutcome>,
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// `"batch"` or `"online"`.
    pub adversary_mode: String,
    /// Station count.
    pub stations: usize,
    /// Packets streamed across all stations.
    pub packets: u64,
    /// Windows scored across all stations.
    pub windows: u64,
    /// Windows identified correctly across all stations.
    pub windows_identified: u64,
    /// The adversary's overall recognition rate (the paper's metric, over
    /// the whole population).
    pub identification_rate: f64,
    /// Mean of per-station overhead percentages (Table VI's convention).
    pub mean_overhead_pct: f64,
    /// Per-station outcomes, in population order; capped by the spec's
    /// `max_station_reports` (aggregates above always cover everyone).
    pub station_reports: Vec<StationOutcome>,
}

/// A scenario's trained adversary, reusable across executions — training is
/// the expensive part, so equivalence tests train once and execute many
/// times.
pub enum TrainedAdversary {
    /// A frozen batch ensemble, shared by reference across all stations.
    Frozen(AdversaryEnsemble),
    /// A warm-started online adversary, forked (cloned) per station.
    Warm {
        /// The warm base every station forks.
        adversary: OnlineAdversary,
        /// Timeline cadence (windows per snapshot) of the per-station forks.
        snapshot_every: u64,
    },
}

/// Trains the adversary a scenario's spec asks for.
pub fn train_for(scenario: &CompiledScenario) -> TrainedAdversary {
    match scenario.adversary.mode {
        AdversaryMode::Batch => TrainedAdversary::Frozen(train_adversary(
            &scenario.adversary.train,
            SCENARIO_FEATURE_MODE,
        )),
        AdversaryMode::Online => TrainedAdversary::Warm {
            adversary: train_adversary_online(&scenario.adversary.train, SCENARIO_FEATURE_MODE)
                .into_adversary(),
            snapshot_every: scenario.adversary.snapshot_every,
        },
    }
}

/// Either scoring mode behind one scorer type, so a single executor call
/// covers both adversary modes.
// The frozen arm is a bare borrow; boxing the live arm would add an
// allocation per station to the online mode's fork.
#[allow(clippy::large_enum_variant)]
enum ScenarioScorer<'a> {
    Frozen(FrozenScorer<'a>),
    Live(PrequentialEvaluator),
}

impl WindowScorer for ScenarioScorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        match self {
            ScenarioScorer::Frozen(scorer) => scorer.score(example),
            ScenarioScorer::Live(evaluator) => evaluator.score(example),
        }
    }

    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        // Forwarded so the frozen arm keeps its blocked inference path (the
        // live arm's default loop preserves test-then-train order).
        match self {
            ScenarioScorer::Frozen(scorer) => scorer.score_slice(examples, out),
            ScenarioScorer::Live(evaluator) => evaluator.score_slice(examples, out),
        }
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        match self {
            ScenarioScorer::Frozen(scorer) => scorer.end_phase(),
            ScenarioScorer::Live(evaluator) => evaluator.end_phase(),
        }
    }
}

/// One station's folded result: the aggregate counters always, the full
/// outcome only below the report cap.
struct StationResult {
    packets: u64,
    windows: u64,
    windows_identified: u64,
    overhead_pct: f64,
    outcome: Option<StationOutcome>,
}

/// A compiled station as the builder the executors consume.
fn station_run(scenario: &CompiledScenario, station: ScenarioStation) -> StationRun<'static> {
    let ScenarioStation {
        traffic,
        interfaces,
        defense,
        arrival_secs,
        departure_secs: _,
        splices,
    } = station;
    StationRun::new(traffic)
        .defense(defense)
        .splices(splices)
        .interfaces(interfaces)
        .calib_secs(scenario.calib_secs)
        .window(scenario.window)
        .feature_mode(SCENARIO_FEATURE_MODE)
        .arrival_secs(arrival_secs)
}

/// Folds station `i`'s [`ScheduledReport`] into a [`StationResult`],
/// materialising the station only when its full outcome is reported.
fn station_result(
    scenario: &CompiledScenario,
    i: usize,
    report: &ScheduledReport,
) -> StationResult {
    let outcome = (i < scenario.max_station_reports).then(|| {
        let station = scenario.station(i);
        let mut labels: Vec<String> = vec![station.defense.label()];
        labels.extend(station.splices.iter().map(|(_, d)| d.label()));
        let phases = report
            .phases
            .iter()
            .zip(&labels)
            .map(|(phase, label)| PhaseOutcome {
                from_secs: phase.from_secs,
                defense: label.clone(),
                windows: phase.windows,
                windows_identified: phase.windows_identified,
                overhead_pct: phase.overhead.percent(),
            })
            .collect();
        StationOutcome {
            app: station.traffic.app,
            seed: station.traffic.seed,
            arrival_secs: station.arrival_secs,
            session_secs: station.session_secs(),
            packets: report.packets,
            windows: report.windows(),
            windows_identified: report.windows_identified(),
            identification_rate: report.identification_rate(),
            overhead_pct: report.overhead().percent(),
            phases,
        }
    });
    StationResult {
        packets: report.packets,
        windows: report.windows(),
        windows_identified: report.windows_identified(),
        overhead_pct: report.overhead().percent(),
        outcome,
    }
}

/// Executes a compiled scenario on `executor` with an already-trained
/// adversary. The report is identical for every executor and worker count;
/// the returned [`ExecutorStats`] describe how this particular run was
/// scheduled (and are deliberately not part of the report).
pub fn execute_scenario(
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
    executor: Executor,
) -> Result<(ScenarioReport, ExecutorStats), String> {
    let outcome = executor.run_scheduled(
        scenario.station_count(),
        |i| scenario.arrival_secs(i),
        |i| station_run(scenario, scenario.station(i)),
        |_| match adversary {
            TrainedAdversary::Frozen(ensemble) => {
                ScenarioScorer::Frozen(FrozenScorer::new(ensemble))
            }
            TrainedAdversary::Warm {
                adversary,
                snapshot_every,
            } => ScenarioScorer::Live(PrequentialEvaluator::new(
                adversary.clone(),
                *snapshot_every,
            )),
        },
        |i, report, _| station_result(scenario, i, &report),
    )?;
    let results = outcome.results;
    let packets = results.iter().map(|s| s.packets).sum();
    let windows: u64 = results.iter().map(|s| s.windows).sum();
    let windows_identified: u64 = results.iter().map(|s| s.windows_identified).sum();
    // Mean of per-station percentages, Table VI's convention.
    let mean_overhead_pct = if results.is_empty() {
        0.0
    } else {
        results.iter().map(|s| s.overhead_pct).sum::<f64>() / results.len() as f64
    };
    let report = ScenarioReport {
        scenario: scenario.name.clone(),
        adversary_mode: match scenario.adversary.mode {
            AdversaryMode::Batch => "batch".to_string(),
            AdversaryMode::Online => "online".to_string(),
        },
        stations: scenario.station_count(),
        packets,
        windows,
        windows_identified,
        identification_rate: if windows == 0 {
            0.0
        } else {
            windows_identified as f64 / windows as f64
        },
        mean_overhead_pct,
        station_reports: results.into_iter().filter_map(|s| s.outcome).collect(),
    };
    Ok((report, outcome.stats))
}

/// Runs a compiled scenario end to end: trains the spec'd adversary once,
/// then executes the population on the spec'd executor.
pub fn run_scenario(scenario: &CompiledScenario) -> Result<ScenarioReport, String> {
    let adversary = train_for(scenario);
    execute_scenario(scenario, &adversary, scenario.executor).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DefenseKind;
    use crate::scenario::spec::{
        AdversarySpec, DefenseSpec, EventKind, EventSpec, ScenarioSpec, StationGroupSpec,
    };

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".to_string(),
            seed: 5,
            window_secs: 5.0,
            calib_secs: 30.0,
            interfaces: 3,
            stations: vec![
                StationGroupSpec {
                    app: AppKind::BitTorrent,
                    count: 2,
                    seed: Some(700),
                    secs: 30.0,
                    interfaces: None,
                    defense: DefenseSpec::from_kind(DefenseKind::Orthogonal),
                    stagger_secs: 0.0,
                },
                StationGroupSpec {
                    app: AppKind::Video,
                    count: 1,
                    seed: Some(800),
                    secs: 30.0,
                    interfaces: None,
                    defense: DefenseSpec::none(),
                    stagger_secs: 0.0,
                },
            ],
            adversary: AdversarySpec::default(),
            events: Vec::new(),
            executor: Executor::Pooled,
            max_station_reports: usize::MAX,
        }
    }

    #[test]
    fn a_calibration_length_too_short_for_any_packet_is_a_run_error() {
        // 1 ms is positive and finite, so the spec passes `--check`, but no
        // session that short holds a packet to calibrate morphing from: the
        // run must fail with an error naming calib_secs instead of panicking.
        use crate::scenario::{default_scenarios_dir, load_spec};
        let mut spec = load_spec(&default_scenarios_dir().join("throughput_baseline.toml"))
            .expect("committed spec loads");
        spec.calib_secs = 0.001;
        let scenario = spec.build().expect("a positive calib_secs validates");
        let err =
            run_scenario(&scenario).expect_err("morphing cannot calibrate on 1 ms of traffic");
        assert!(err.contains("calib_secs"), "{err}");
    }

    #[test]
    fn scenario_runs_are_deterministic_on_the_pool() {
        let scenario = small_spec().build().expect("valid spec");
        let first = run_scenario(&scenario).expect("runs");
        let second = run_scenario(&scenario).expect("runs");
        assert_eq!(first, second, "pool scheduling must not leak into results");
        assert_eq!(first.stations, 3);
        assert!(first.packets > 1000);
        assert!(first.windows > 0);
        // The undefended Video station is the easy one; OR-defended BT should
        // not be easier to identify than it.
        let video = &first.station_reports[2];
        assert_eq!(video.app, AppKind::Video);
        for bt in &first.station_reports[..2] {
            assert!(bt.identification_rate <= video.identification_rate + 1e-9);
        }
    }

    #[test]
    fn the_virtual_time_executor_reproduces_the_pool_report() {
        let mut spec = small_spec();
        spec.events = vec![EventSpec {
            at_secs: 12.0,
            station: Some(2),
            kind: EventKind::Arrive,
            line: None,
        }];
        let scenario = spec.build().expect("valid spec");
        let adversary = train_for(&scenario);
        let (pooled, pool_stats) =
            execute_scenario(&scenario, &adversary, Executor::Pooled).expect("runs");
        for workers in [1usize, 2, 8] {
            let (vtime, stats) = execute_scenario(
                &scenario,
                &adversary,
                Executor::VirtualTime {
                    workers: Some(workers),
                    max_slice: None,
                },
            )
            .expect("runs");
            assert_eq!(
                vtime, pooled,
                "{workers}-worker virtual time diverged from the pool"
            );
            assert_eq!(stats.admitted, 3);
            assert_eq!(
                stats.peak_active, 3,
                "station 2 arrives at 12 s while the other two are still live"
            );
        }
        assert_eq!(pool_stats.admitted, 3);
    }

    #[test]
    fn the_report_cap_keeps_aggregates_over_everyone() {
        let mut spec = small_spec();
        spec.max_station_reports = 1;
        let scenario = spec.build().expect("valid spec");
        let capped = run_scenario(&scenario).expect("runs");
        assert_eq!(capped.station_reports.len(), 1);
        assert_eq!(capped.stations, 3);

        let mut full_spec = small_spec();
        full_spec.max_station_reports = usize::MAX;
        let full = run_scenario(&full_spec.build().expect("valid")).expect("runs");
        assert_eq!(full.packets, capped.packets, "aggregates cover everyone");
        assert_eq!(full.windows, capped.windows);
        assert_eq!(full.station_reports[0], capped.station_reports[0]);
    }

    #[test]
    fn departed_stations_stream_less_than_their_peers() {
        let mut spec = small_spec();
        spec.events = vec![EventSpec {
            at_secs: 10.0,
            station: Some(1),
            kind: EventKind::Depart,
            line: None,
        }];
        let report = run_scenario(&spec.build().expect("valid")).expect("runs");
        let [full, departed, _] = &report.station_reports[..] else {
            panic!("expected 3 stations");
        };
        assert_eq!(departed.session_secs, 10.0);
        assert!(
            departed.packets < full.packets / 2,
            "a station departing at 10 s of 30 s must stream far less \
             ({} vs {})",
            departed.packets,
            full.packets
        );
    }

    #[test]
    fn online_scenarios_report_per_phase_prequential_counts() {
        let mut spec = small_spec();
        spec.adversary.mode = crate::scenario::spec::AdversaryMode::Online;
        spec.events = vec![EventSpec {
            at_secs: 15.0,
            station: None,
            kind: EventKind::Splice(DefenseSpec::from_kind(DefenseKind::Padding)),
            line: None,
        }];
        let report = run_scenario(&spec.build().expect("valid")).expect("runs");
        assert_eq!(report.adversary_mode, "online");
        for station in &report.station_reports {
            assert_eq!(station.phases.len(), 2, "initial phase + splice");
            assert_eq!(station.phases[1].from_secs, 15.0);
            assert_eq!(station.phases[1].defense, "padding");
            assert!(station.phases[1].overhead_pct > 0.0);
            let total: u64 = station.phases.iter().map(|p| p.windows).sum();
            assert_eq!(total, station.windows);
        }
    }
}
