//! The three station workloads: a scenario spec generated from a committed
//! TOML file and the workload seed, executed through
//! `bench::scenario::execute_scenario`, checked station by station against a
//! single-threaded layer replay that drives the same public calls in order.

use crate::measure::{self, derive_seed, median, secs_since, Metrics};
use crate::trace::{Layer, Tracer};
use crate::Run;
use bench::scenario::spec::SCENARIO_FEATURE_MODE;
use bench::scenario::{
    execute_scenario, load_spec, train_for, AdversaryMode, CompiledScenario, DefenseSpec,
    PhaseOutcome, ScenarioReport, ScenarioSpec, ScenarioStation, StationOutcome, TrainedAdversary,
};
use bench::streaming::{
    Executor, ExecutorStats, FrozenScorer, ScheduledReport, StationRun, WindowScorer, WINDOW_BATCH,
};
use bench::DefenseKind;
use classifier::online::{PrequentialEvaluator, SegmentStats};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::DEFAULT_MIN_PACKETS;
use defenses::overhead::Overhead;
use defenses::stage::{StagePipeline, STAGE_BATCH};
use std::path::Path;
use std::time::Instant;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::stream::PacketSource;
use wlan_sim::time::SimDuration;

/// Stations of the `metropolis` workload (the committed million-station
/// spec, every group scaled by the same factor).
const METROPOLIS_STATIONS: usize = 100_000;
/// Stations of the `prequential` workload (same population rule).
const PREQUENTIAL_STATIONS: usize = 50_000;
/// `long_haul`: stations per application and session length in seconds.
const LONG_HAUL_PER_APP: usize = 8;
const LONG_HAUL_SECS: f64 = 1800.0;

/// Which station population a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationWorkload {
    /// Reduced metropolis, virtual-time executor, frozen batch adversary.
    Metropolis,
    /// The same population shape, prequential (online) adversary.
    Prequential,
    /// Hour-scale mixed-application sessions on the pooled executor.
    LongHaul,
}

/// The defense each `long_haul` application group runs.
fn long_haul_defense(app: AppKind) -> DefenseKind {
    match app {
        AppKind::Browsing => DefenseKind::MorphThenReshape,
        AppKind::Chatting => DefenseKind::Padding,
        AppKind::Downloading => DefenseKind::Pseudonym,
        AppKind::Uploading => DefenseKind::FrequencyHopping,
        AppKind::Video => DefenseKind::Morphing,
        AppKind::Gaming | AppKind::BitTorrent => DefenseKind::Orthogonal,
    }
}

impl StationWorkload {
    /// The workload's scenario spec: a committed spec file resized, with
    /// every seed derived from `seed`. `smoke` shrinks it to a few seconds.
    fn spec(self, seed: u64, smoke: bool) -> Result<ScenarioSpec, String> {
        let mut spec = match self {
            StationWorkload::Metropolis | StationWorkload::Prequential => {
                let mut spec = load_spec(Path::new("scenarios/metropolis.toml"))?;
                let target = match (self, smoke) {
                    (_, true) => 2_000,
                    (StationWorkload::Metropolis, false) => METROPOLIS_STATIONS,
                    _ => PREQUENTIAL_STATIONS,
                };
                let total: usize = spec.stations.iter().map(|g| g.count).sum();
                for group in &mut spec.stations {
                    group.count = (group.count * target / total).max(1);
                }
                if self == StationWorkload::Prequential {
                    spec.adversary.mode = AdversaryMode::Online;
                }
                spec
            }
            StationWorkload::LongHaul => {
                let mut spec = load_spec(Path::new("scenarios/mixed_population.toml"))?;
                for group in &mut spec.stations {
                    group.count = if smoke { 1 } else { LONG_HAUL_PER_APP };
                    group.secs = if smoke { 120.0 } else { LONG_HAUL_SECS };
                    group.defense = DefenseSpec::from_kind(long_haul_defense(group.app));
                }
                spec
            }
        };
        spec.seed = derive_seed(seed, 1);
        spec.adversary.train.train_seed = derive_seed(seed, 2);
        spec.adversary.train.eval_seed = derive_seed(seed, 3);
        // Every station's outcome is reported, so every station is checked.
        spec.max_station_reports = usize::MAX;
        Ok(spec)
    }
}

/// The compiled scenario and trained adversary, with the set-up timings.
struct Setup {
    scenario: CompiledScenario,
    adversary: TrainedAdversary,
    /// Seconds of `load_spec` + `ScenarioSpec::build`, per repetition.
    compile_s: Vec<f64>,
    /// Seconds of `train_for`, per repetition.
    train_s: Vec<f64>,
}

impl Setup {
    fn new(workload: StationWorkload, seed: u64, smoke: bool) -> Result<Self, String> {
        let mut compile_s = Vec::new();
        let mut train_s = Vec::new();
        let mut last = None;
        let start = Instant::now();
        while measure::more_setup(compile_s.len(), start) {
            let start = Instant::now();
            let scenario = workload.spec(seed, smoke)?.build()?;
            compile_s.push(secs_since(start));
            let start = Instant::now();
            let adversary = train_for(&scenario);
            train_s.push(secs_since(start));
            last = Some((scenario, adversary));
        }
        let (scenario, adversary) = last.expect("at least one set-up repetition");
        Ok(Setup {
            scenario,
            adversary,
            compile_s,
            train_s,
        })
    }

    fn setup_s(&self) -> Vec<f64> {
        self.compile_s
            .iter()
            .zip(&self.train_s)
            .map(|(c, t)| c + t)
            .collect()
    }
}

/// Either adversary mode behind one scorer type.
enum Scorer<'a> {
    Frozen(FrozenScorer<'a>),
    Live(PrequentialEvaluator),
}

/// Station `i`'s scorer: a frozen borrow or a fork of the warm adversary —
/// exactly what `execute_scenario` hands each station.
fn fork(adversary: &TrainedAdversary) -> Scorer<'_> {
    match adversary {
        TrainedAdversary::Frozen(ensemble) => Scorer::Frozen(FrozenScorer::new(ensemble)),
        TrainedAdversary::Warm {
            adversary,
            snapshot_every,
        } => Scorer::Live(PrequentialEvaluator::new(
            adversary.clone(),
            *snapshot_every,
        )),
    }
}

impl WindowScorer for Scorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        match self {
            Scorer::Frozen(s) => s.score(example),
            Scorer::Live(s) => s.score(example),
        }
    }

    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        match self {
            Scorer::Frozen(s) => s.score_slice(examples, out),
            Scorer::Live(s) => s.score_slice(examples, out),
        }
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        match self {
            Scorer::Frozen(s) => s.end_phase(),
            Scorer::Live(s) => s.end_phase(),
        }
    }
}

/// Defense labels (as `DefenseSpec::label` prints them) with a per-packet
/// stage metric, and the metric's name.
const STAGES: [(&str, &str); 7] = [
    ("none", "defenses.ns_per_pkt.none"),
    ("padding", "defenses.ns_per_pkt.padding"),
    ("morphing", "defenses.ns_per_pkt.morphing"),
    ("pseudonym", "defenses.ns_per_pkt.pseudonym"),
    ("frequency_hopping", "defenses.ns_per_pkt.fh"),
    ("or", "defenses.ns_per_pkt.or"),
    ("morphing+or", "defenses.ns_per_pkt.morph_or"),
];

/// Index of a defense label in [`STAGES`]; the last slot collects every
/// other composition.
fn stage_slot(label: &str) -> usize {
    STAGES
        .iter()
        .position(|(l, _)| *l == label)
        .unwrap_or(STAGES.len())
}

/// Work and busy time per layer, summed over a replay.
#[derive(Debug, Default)]
struct LayerTotals {
    stations: u64,
    gen_build_ns: u64,
    pull_ns: u64,
    pulled: u64,
    def_build_ns: u64,
    fork_ns: u64,
    stage_ns: [u64; STAGES.len() + 1],
    stage_in: [u64; STAGES.len() + 1],
    staged: u64,
    windower_ns: u64,
    windows: u64,
    scorer_ns: u64,
    scorer_calls: u64,
}

impl LayerTotals {
    fn busy_ns(&self) -> u64 {
        self.gen_build_ns
            + self.pull_ns
            + self.def_build_ns
            + self.fork_ns
            + self.stage_ns.iter().sum::<u64>()
            + self.windower_ns
            + self.scorer_ns
    }
}

/// Buffers the replay reuses across stations.
#[derive(Default)]
struct Buffers {
    batch: Vec<PacketRecord>,
    flows: Vec<usize>,
    staged: Vec<PacketRecord>,
    pending: Vec<WindowExample>,
    predictions: Vec<usize>,
}

/// One station's feature and scoring state during the replay.
struct Lane<'a> {
    station: usize,
    app: AppKind,
    window: SimDuration,
    scorer: Scorer<'a>,
    windowers: FlowWindowers,
    windows: u64,
    hits: u64,
}

/// One finished phase: windows, windows identified, the pipeline's
/// overhead, and the session second the phase began.
type PhaseTally = (u64, u64, Overhead, f64);

impl Lane<'_> {
    /// Feeds the staged packets in `bufs` to the windower bank.
    fn window(&mut self, bufs: &mut Buffers, tracer: &mut Tracer, totals: &mut LayerTotals) {
        let start = tracer.now();
        self.windowers
            .push_slice(&bufs.flows, &bufs.staged, &mut bufs.pending);
        totals.windower_ns += tracer.close(Layer::Windower, self.station, start) - start;
        totals.staged += bufs.staged.len() as u64;
    }

    /// Scores every pending window in `WINDOW_BATCH` blocks.
    fn flush(&mut self, bufs: &mut Buffers, tracer: &mut Tracer, totals: &mut LayerTotals) {
        for block in bufs.pending.chunks(WINDOW_BATCH) {
            let start = tracer.now();
            self.scorer.score_slice(block, &mut bufs.predictions);
            totals.scorer_ns += tracer.close(Layer::Scorer, self.station, start) - start;
            totals.scorer_calls += 1;
            self.windows += block.len() as u64;
            self.hits += block
                .iter()
                .zip(&bufs.predictions)
                .filter(|(example, &predicted)| predicted == example.1)
                .count() as u64;
        }
        totals.windows += bufs.pending.len() as u64;
        bufs.pending.clear();
    }

    /// Ends a phase: flushes its pipeline through the windowers, closes
    /// every trailing window, scores what is pending, and starts a fresh
    /// windower bank for the next phase.
    fn end_phase(
        &mut self,
        (from_secs, pipeline): &mut (f64, StagePipeline),
        slot: usize,
        bufs: &mut Buffers,
        tracer: &mut Tracer,
        totals: &mut LayerTotals,
    ) -> PhaseTally {
        bufs.flows.clear();
        bufs.staged.clear();
        let start = tracer.now();
        pipeline.finish(|flow, packet| {
            bufs.flows.push(flow as usize);
            bufs.staged.push(*packet);
        });
        totals.stage_ns[slot] += tracer.close(Layer::Stage, self.station, start) - start;
        self.window(bufs, tracer, totals);
        let start = tracer.now();
        bufs.pending.extend(self.windowers.finish());
        totals.windower_ns += tracer.close(Layer::Windower, self.station, start) - start;
        self.flush(bufs, tracer, totals);
        self.scorer.end_phase();
        self.windowers = windowers_for(self.window, self.app);
        (
            std::mem::take(&mut self.windows),
            std::mem::take(&mut self.hits),
            pipeline.overhead(),
            *from_secs,
        )
    }
}

/// A fresh windower bank, as the station machine builds one per phase.
fn windowers_for(window: SimDuration, app: AppKind) -> FlowWindowers {
    FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, SCENARIO_FEATURE_MODE, app)
}

/// The replay of a whole population: the reference outcome of every
/// station, and the per-layer totals.
struct Replay {
    outcomes: Vec<StationOutcome>,
    /// Wall-clock second each station retires (its last packet; its arrival
    /// when it sends none).
    retire_secs: Vec<f64>,
    totals: LayerTotals,
    tracer: Tracer,
}

/// Replays every station on one thread through the layers' public calls,
/// in the order the executor makes them: generator and pipeline build,
/// scorer fork, then per `STAGE_BATCH` pull → `process_batch` (split at
/// splices) → `push_slice` → `score_slice` in `WINDOW_BATCH` blocks.
fn replay(
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
    traced: bool,
) -> Result<Replay, String> {
    let mut tracer = Tracer::new(traced);
    let mut totals = LayerTotals::default();
    let mut bufs = Buffers::default();
    let count = scenario.station_count();
    let mut outcomes = Vec::with_capacity(count);
    let mut retire_secs = Vec::with_capacity(count);
    for i in 0..count {
        let station = scenario.station(i);
        let (outcome, retire) = replay_station(
            i,
            &station,
            scenario,
            adversary,
            &mut bufs,
            &mut tracer,
            &mut totals,
        )?;
        outcomes.push(outcome);
        retire_secs.push(retire);
    }
    Ok(Replay {
        outcomes,
        retire_secs,
        totals,
        tracer,
    })
}

fn replay_station(
    i: usize,
    station: &ScenarioStation,
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
    bufs: &mut Buffers,
    tracer: &mut Tracer,
    totals: &mut LayerTotals,
) -> Result<(StationOutcome, f64), String> {
    let app = station.traffic.app;
    totals.stations += 1;
    let start = tracer.now();
    let mut source = station.traffic.build();
    let start = {
        let end = tracer.close(Layer::GenBuild, i, start);
        totals.gen_build_ns += end - start;
        end
    };
    let mut phases = station.build_pipelines(scenario.calib_secs)?;
    let start = {
        let end = tracer.close(Layer::DefBuild, i, start);
        totals.def_build_ns += end - start;
        end
    };
    let scorer = fork(adversary);
    totals.fork_ns += tracer.close(Layer::Fork, i, start) - start;

    let labels: Vec<String> = std::iter::once(station.defense.label())
        .chain(station.splices.iter().map(|(_, d)| d.label()))
        .collect();
    let slots: Vec<usize> = labels.iter().map(|l| stage_slot(l)).collect();
    let mut lane = Lane {
        station: i,
        app,
        window: scenario.window,
        scorer,
        windowers: windowers_for(scenario.window, app),
        windows: 0,
        hits: 0,
    };
    let mut index = 0;
    let mut packets = 0u64;
    let mut last_secs = None;
    let mut reports: Vec<PhaseTally> = Vec::with_capacity(phases.len());
    let mut batch = std::mem::take(&mut bufs.batch);
    loop {
        batch.clear();
        let start = tracer.now();
        while batch.len() < STAGE_BATCH {
            match source.next_packet() {
                Some(packet) => batch.push(packet),
                None => break,
            }
        }
        totals.pull_ns += tracer.close(Layer::GenPull, i, start) - start;
        totals.pulled += batch.len() as u64;
        let Some(last) = batch.last() else { break };
        last_secs = Some(last.time.as_secs_f64());
        let mut rest = &batch[..];
        while !rest.is_empty() {
            let now = rest[0].time.as_secs_f64();
            while index + 1 < phases.len() && now >= phases[index + 1].0 {
                reports.push(lane.end_phase(
                    &mut phases[index],
                    slots[index],
                    bufs,
                    tracer,
                    totals,
                ));
                index += 1;
            }
            let run_len = match phases.get(index + 1) {
                Some(&(next, _)) => rest.partition_point(|p| p.time.as_secs_f64() < next),
                None => rest.len(),
            };
            let (run, tail) = rest.split_at(run_len);
            packets += run.len() as u64;
            bufs.flows.clear();
            bufs.staged.clear();
            let start = tracer.now();
            phases[index].1.process_batch(run, |flow, packet| {
                bufs.flows.push(flow as usize);
                bufs.staged.push(*packet);
            });
            totals.stage_ns[slots[index]] += tracer.close(Layer::Stage, i, start) - start;
            totals.stage_in[slots[index]] += run.len() as u64;
            lane.window(bufs, tracer, totals);
            if bufs.pending.len() >= WINDOW_BATCH {
                lane.flush(bufs, tracer, totals);
            }
            rest = tail;
        }
        if batch.len() < STAGE_BATCH {
            break;
        }
    }
    bufs.batch = batch;
    reports.push(lane.end_phase(&mut phases[index], slots[index], bufs, tracer, totals));
    for (from_secs, pipeline) in &phases[index + 1..] {
        reports.push((0, 0, pipeline.overhead(), *from_secs));
        lane.scorer.end_phase();
    }

    let windows: u64 = reports.iter().map(|r| r.0).sum();
    let hits: u64 = reports.iter().map(|r| r.1).sum();
    let overhead = reports
        .iter()
        .fold(Overhead::default(), |acc, r| acc.combined(&r.2));
    let outcome = StationOutcome {
        app,
        seed: station.traffic.seed,
        arrival_secs: station.arrival_secs,
        session_secs: station.session_secs(),
        packets,
        windows,
        windows_identified: hits,
        identification_rate: rate(hits, windows),
        overhead_pct: overhead.percent(),
        phases: reports
            .iter()
            .zip(&labels)
            .map(
                |(&(windows, hits, overhead, from_secs), label)| PhaseOutcome {
                    from_secs,
                    defense: label.clone(),
                    windows,
                    windows_identified: hits,
                    overhead_pct: overhead.percent(),
                },
            )
            .collect(),
    };
    let retire = station.arrival_secs + last_secs.unwrap_or(0.0);
    Ok((outcome, retire))
}

fn rate(hits: u64, windows: u64) -> f64 {
    if windows == 0 {
        0.0
    } else {
        hits as f64 / windows as f64
    }
}

/// What a correct execution of the scenario must report, computed from the
/// replay.
struct Reference {
    outcomes: Vec<StationOutcome>,
    packets: u64,
    windows: u64,
    windows_identified: u64,
    mean_overhead_pct: f64,
    events_popped: u64,
    peak_active: usize,
}

impl Reference {
    fn new(replay: &Replay, executor: Executor) -> Result<Self, String> {
        let outcomes = replay.outcomes.clone();
        let count = outcomes.len();
        let (events_popped, peak_active) = match executor {
            Executor::Pooled => (0, measure::nproc().min(count.max(1))),
            Executor::VirtualTime {
                max_slice: None, ..
            } => (
                2 * count as u64,
                peak_active(&outcomes, &replay.retire_secs),
            ),
            Executor::VirtualTime { .. } => {
                return Err("the benchmark's workloads drain stations unbounded".to_string())
            }
        };
        Ok(Reference {
            packets: outcomes.iter().map(|o| o.packets).sum(),
            windows: outcomes.iter().map(|o| o.windows).sum(),
            windows_identified: outcomes.iter().map(|o| o.windows_identified).sum(),
            mean_overhead_pct: outcomes.iter().map(|o| o.overhead_pct).sum::<f64>()
                / count.max(1) as f64,
            outcomes,
            events_popped,
            peak_active,
        })
    }

    /// Operations one execution performs: every station, plus the report's
    /// aggregates and the executor's counters as one more.
    fn operations(&self) -> u64 {
        self.outcomes.len() as u64 + 1
    }

    /// Failed operations of one execution: stations whose outcome differs
    /// from the reference, plus one if the aggregates or counters differ.
    fn failures<'o>(
        &self,
        outcomes: impl ExactSizeIterator<Item = &'o StationOutcome>,
        aggregates: bool,
        stats: &ExecutorStats,
    ) -> u64 {
        let stations = if outcomes.len() == self.outcomes.len() {
            outcomes.zip(&self.outcomes).filter(|(a, b)| a != b).count() as u64
        } else {
            self.outcomes.len() as u64
        };
        let counters = stats.admitted == self.outcomes.len()
            && stats.packets == self.packets
            && stats.events_popped == self.events_popped
            && stats.peak_active == self.peak_active;
        stations + u64::from(!(aggregates && counters))
    }

    fn check(&self, report: &ScenarioReport, stats: &ExecutorStats) -> u64 {
        let aggregates = report.stations == self.outcomes.len()
            && report.packets == self.packets
            && report.windows == self.windows
            && report.windows_identified == self.windows_identified
            && report.identification_rate == rate(self.windows_identified, self.windows)
            && report.mean_overhead_pct == self.mean_overhead_pct;
        self.failures(report.station_reports.iter(), aggregates, stats)
    }
}

/// Most stations on air at once, by the executor's canonical timeline rule:
/// admit at arrival, retire at the last packet, ordered by (time, station,
/// admit before retire).
fn peak_active(outcomes: &[StationOutcome], retire_secs: &[f64]) -> usize {
    let mut records: Vec<(f64, usize, i8)> = outcomes
        .iter()
        .zip(retire_secs)
        .enumerate()
        .flat_map(|(i, (o, &retire))| [(o.arrival_secs, i, 1), (retire, i, -1)])
        .collect();
    records.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(b.2.cmp(&a.2)));
    let (mut active, mut peak) = (0i64, 0i64);
    for (_, _, delta) in records {
        active += i64::from(delta);
        peak = peak.max(active);
    }
    peak as usize
}

/// The executor's description of station `i`, built the way
/// `execute_scenario` builds it.
fn station_run(scenario: &CompiledScenario, station: ScenarioStation) -> StationRun<'static> {
    StationRun::new(station.traffic)
        .defense(station.defense)
        .splices(station.splices)
        .interfaces(station.interfaces)
        .calib_secs(scenario.calib_secs)
        .window(scenario.window)
        .feature_mode(SCENARIO_FEATURE_MODE)
        .arrival_secs(station.arrival_secs)
}

/// A station's report as a [`StationOutcome`].
fn outcome_of(station: &ScenarioStation, report: &ScheduledReport) -> StationOutcome {
    let labels = std::iter::once(station.defense.label())
        .chain(station.splices.iter().map(|(_, d)| d.label()));
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
        phases: report
            .phases
            .iter()
            .zip(labels)
            .map(|(phase, defense)| PhaseOutcome {
                from_secs: phase.from_secs,
                defense,
                windows: phase.windows,
                windows_identified: phase.windows_identified,
                overhead_pct: phase.overhead.percent(),
            })
            .collect(),
    }
}

/// A station's scorer, timing its `score_slice` calls and carrying the
/// time its station started.
struct Hooked<'a> {
    inner: Scorer<'a>,
    start: Instant,
    scoring: std::time::Duration,
}

impl WindowScorer for Hooked<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.inner.score(example)
    }

    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        let start = Instant::now();
        self.inner.score_slice(examples, out);
        self.scoring += start.elapsed();
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        self.inner.end_phase()
    }
}

/// One station of a hooked execution.
struct HookedStation {
    outcome: StationOutcome,
    start: Instant,
    end: Instant,
    /// Time spent in `score_slice` within the station's span.
    scoring: std::time::Duration,
}

/// One `Executor::run` of the scenario with timing closures: each station's
/// span runs from its `scorer_of` call to its `finish` call.
struct HookedRun {
    stations: Vec<HookedStation>,
    stats: ExecutorStats,
    wall_s: f64,
}

fn hooked_run(
    scenario: &CompiledScenario,
    adversary: &TrainedAdversary,
) -> Result<HookedRun, String> {
    let start = Instant::now();
    let outcome = scenario.executor.run(
        scenario.station_count(),
        |i| station_run(scenario, scenario.station(i)),
        |_| Hooked {
            start: Instant::now(),
            inner: fork(adversary),
            scoring: std::time::Duration::ZERO,
        },
        |i, report, scorer| {
            let end = Instant::now();
            HookedStation {
                outcome: outcome_of(&scenario.station(i), &report),
                start: scorer.start,
                end,
                scoring: scorer.scoring,
            }
        },
    )?;
    Ok(HookedRun {
        wall_s: secs_since(start),
        stations: outcome.results,
        stats: outcome.stats,
    })
}

/// Runs a station workload for `seconds` and reports its metrics.
pub fn run(
    workload: StationWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Run, String> {
    let setup = Setup::new(workload, seed, smoke)?;
    let (scenario, adversary) = (&setup.scenario, &setup.adversary);
    let replay = replay(scenario, adversary, traced)?;
    let reference = Reference::new(&replay, scenario.executor)?;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let execute = |attempted: &mut u64, failed: &mut u64| -> Result<(f64, ExecutorStats), String> {
        let start = Instant::now();
        let (report, stats) = execute_scenario(scenario, adversary, scenario.executor)?;
        let secs = secs_since(start);
        *attempted += reference.operations();
        *failed += reference.check(&report, &stats);
        Ok((secs, stats))
    };

    // Untimed warm-up: caches, allocator arenas and lazily built state fill
    // here, so cold cost shows only in `setup_s`.
    let (_, stats) = execute(&mut attempted, &mut failed)?;
    let mut run_s = Vec::new();
    let mut hooked = Vec::new();
    let start = Instant::now();
    while run_s.is_empty() || secs_since(start) < seconds {
        run_s.push(execute(&mut attempted, &mut failed)?.0);
        if traced {
            let run = hooked_run(scenario, adversary)?;
            let outcomes = run.stations.iter().map(|s| &s.outcome);
            attempted += reference.operations();
            failed += reference.failures(outcomes, true, &run.stats);
            hooked.push(run);
        }
    }
    let run_median = median(&run_s);
    let mut metrics = Metrics::default();
    let stations = scenario.station_count() as f64;
    if traced {
        let totals = &replay.totals;
        let workers = stats.workers as f64;
        layer_metrics(&mut metrics, totals);
        metrics.put("classifier.train_s", "s", median(&setup.train_s));
        metrics.put("scenario.compile_ms", "ms", median(&setup.compile_s) * 1e3);
        let mut station_us: Vec<f64> = Vec::new();
        let mut busy_shares = Vec::new();
        let mut scorer_shares = Vec::new();
        let mut hooked_wall = Vec::new();
        for run in &hooked {
            station_us.extend(
                run.stations
                    .iter()
                    .map(|s| (s.end - s.start).as_secs_f64() * 1e6),
            );
            let busy: f64 = run
                .stations
                .iter()
                .map(|s| (s.end - s.start).as_secs_f64())
                .sum();
            let scoring: f64 = run.stations.iter().map(|s| s.scoring.as_secs_f64()).sum();
            busy_shares.push(busy / (workers * run.wall_s));
            scorer_shares.push(scoring / busy);
            hooked_wall.push(run.wall_s);
        }
        let (tail_pct, tail_us) = measure::tail(&station_us);
        metrics.put("streaming.station_us_p50", "us", median(&station_us));
        metrics.put("streaming.station_us_tail", "us", tail_us);
        metrics.put("streaming.station_tail_pct", "%", tail_pct);
        metrics.put(
            "streaming.station_samples",
            "count",
            station_us.len() as f64,
        );
        metrics.put("streaming.worker_busy_share", "ratio", median(&busy_shares));
        metrics.put("streaming.scorer_share", "ratio", median(&scorer_shares));
        metrics.put(
            "streaming.events_popped",
            "count",
            stats.events_popped as f64,
        );
        metrics.put(
            "streaming.packets_per_event",
            "count",
            stats.packets_per_event(),
        );
        metrics.put("streaming.peak_active", "count", stats.peak_active as f64);
        metrics.put(
            "streaming.unattributed_share",
            "ratio",
            1.0 - totals.busy_ns() as f64 * 1e-9 / (workers * run_median),
        );
        metrics.put(
            "trace.overhead_pct",
            "%",
            (median(&hooked_wall) / run_median - 1.0) * 100.0,
        );
        let mut tracer = replay.tracer;
        if let Some(last) = hooked.last() {
            let origin = tracer.origin();
            for (i, s) in last.stations.iter().enumerate() {
                let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
                tracer.push(Layer::Station, i, ns(s.start), ns(s.end));
            }
        }
        let path = crate::spans_path(workload_name(workload));
        tracer
            .write_csv(&path)
            .map_err(|e| format!("{}: cannot write spans: {e}", path.display()))?;
    } else {
        metrics.put("setup_s", "s", median(&setup.setup_s()));
        metrics.put("run_s", "s", run_median);
        metrics.put("stations_per_s", "1/s", stations / run_median);
        metrics.put(
            "packets_per_s",
            "1/s",
            reference.packets as f64 / run_median,
        );
        metrics.put(
            "windows_per_s",
            "1/s",
            reference.windows as f64 / run_median,
        );
        let name = workload_name(workload);
        metrics.put(
            "peak_rss_mb",
            "MB",
            measure::probe_peak_rss_mb(name, seed, smoke)?,
        );
        metrics.put(
            "correct_share",
            "ratio",
            crate::correct_share(attempted, failed),
        );
    }
    let context = format!(
        "\"stations\": {}, \"packets\": {}, \"windows\": {}, \"events_popped\": {}, \"peak_active\": {}, \"iterations\": {}, \"run_s_samples\": {:?}, \"setup_s_samples\": {:?}",
        scenario.station_count(),
        reference.packets,
        reference.windows,
        stats.events_popped,
        stats.peak_active,
        run_s.len(),
        run_s,
        setup.setup_s(),
    );
    Ok(Run {
        metrics,
        attempted,
        failed,
        context,
    })
}

/// The memory probe's body: one set-up and one execution, nothing else.
pub fn probe(workload: StationWorkload, seed: u64, smoke: bool) -> Result<(), String> {
    let scenario = workload.spec(seed, smoke)?.build()?;
    let adversary = train_for(&scenario);
    execute_scenario(&scenario, &adversary, scenario.executor).map(drop)
}

/// The per-layer metrics the replay yields.
fn layer_metrics(metrics: &mut Metrics, t: &LayerTotals) {
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let busy = t.busy_ns();
    let stage_ns: u64 = t.stage_ns.iter().sum();
    metrics.put(
        "traffic_gen.build_us",
        "us",
        per(t.gen_build_ns, t.stations) / 1e3,
    );
    metrics.put(
        "traffic_gen.pull_ns_per_pkt",
        "ns",
        per(t.pull_ns, t.pulled),
    );
    metrics.put(
        "traffic_gen.busy_share",
        "ratio",
        per(t.gen_build_ns + t.pull_ns, busy),
    );
    metrics.put(
        "defenses.build_us",
        "us",
        per(t.def_build_ns, t.stations) / 1e3,
    );
    for (slot, (_, name)) in STAGES.iter().enumerate() {
        metrics.put(name, "ns", per(t.stage_ns[slot], t.stage_in[slot]));
    }
    metrics.put("defenses.out_per_in", "count", per(t.staged, t.pulled));
    metrics.put(
        "defenses.busy_share",
        "ratio",
        per(t.def_build_ns + stage_ns, busy),
    );
    metrics.put(
        "classifier.windower.ns_per_pkt",
        "ns",
        per(t.windower_ns, t.staged),
    );
    metrics.put(
        "classifier.windower.pkts_per_window",
        "count",
        per(t.staged, t.windows),
    );
    metrics.put(
        "classifier.windower.busy_share",
        "ratio",
        per(t.windower_ns, busy),
    );
    metrics.put(
        "classifier.scorer.us_per_window",
        "us",
        per(t.scorer_ns, t.windows) / 1e3,
    );
    metrics.put(
        "classifier.scorer.rows_per_call",
        "count",
        per(t.windows, t.scorer_calls),
    );
    metrics.put(
        "classifier.scorer.fork_us",
        "us",
        per(t.fork_ns, t.stations) / 1e3,
    );
    metrics.put(
        "classifier.scorer.busy_share",
        "ratio",
        per(t.scorer_ns + t.fork_ns, busy),
    );
}

fn workload_name(workload: StationWorkload) -> &'static str {
    match workload {
        StationWorkload::Metropolis => "metropolis",
        StationWorkload::Prequential => "prequential",
        StationWorkload::LongHaul => "long_haul",
    }
}
