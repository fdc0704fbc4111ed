//! [`StationRun`]: the one way to describe a station's evaluation.
//!
//! Every historical entry point — single station, pooled populations, live
//! adversaries, drift splices, arbitrary schedules — is a point in the same
//! configuration space: a packet source, a defense schedule, a window, a
//! feature mode and a [`WindowScorer`]. `StationRun` is that space as a
//! builder. A run describes **what** to evaluate; **where** it executes is
//! the [`Executor`](super::Executor)'s choice, so the same run streams
//! unchanged on the work-stealing pool or the virtual-time event core.
//!
//! ```no_run
//! use bench::streaming::{FrozenScorer, StationRun};
//! use bench::scenario::DefenseSpec;
//! use bench::DefenseKind;
//! use traffic_gen::spec::TrafficSpec;
//! use traffic_gen::app::AppKind;
//! # let adversary: classifier::ensemble::AdversaryEnsemble = unimplemented!();
//! let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 7, 120.0))
//!     .defense(DefenseSpec::from_kind(DefenseKind::Orthogonal))
//!     .splice(60.0, DefenseSpec::from_kind(DefenseKind::Padding))
//!     .run(&mut FrozenScorer::new(&adversary))
//!     .expect("valid defense stages");
//! ```

use super::machine::{ScheduledReport, StationMachine, StationScratch, WindowScorer, WINDOW_BATCH};
use crate::scenario::spec::DefenseSpec;
use classifier::window::FeatureMode;
use defenses::spec::StageContext;
use defenses::stage::{StagePipeline, STAGE_BATCH};
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use traffic_gen::spec::TrafficSpec;
use traffic_gen::stream::{PacketSource, PeekableSource, StreamingSession};
use wlan_sim::time::SimDuration;

/// Session length of the calibration traces generated for morphing stations
/// (the live stream never materialises, so the source CDF comes from a
/// short generated session of the same application).
pub const STATION_CALIB_SECS: f64 = 60.0;

/// Where a run's packets come from.
enum SourceSpec<'a> {
    /// Generated lazily from a traffic spec **at admission time** — until
    /// then the station holds no generator state at all.
    Traffic(TrafficSpec),
    /// An externally supplied source (trace replay, custom generators).
    External(Box<dyn PacketSource + 'a>),
}

/// How the run's defense schedule is stated.
enum PhasePlan {
    /// Declaratively: an initial [`DefenseSpec`] plus `(session-relative
    /// second, spec)` splices, built into pipelines at admission.
    Spec {
        initial: DefenseSpec,
        splices: Vec<(f64, DefenseSpec)>,
    },
    /// Pre-built pipelines (the legacy scheduled entry point).
    Built(Vec<(f64, StagePipeline)>),
}

/// One station's evaluation, as a value: traffic (or an external packet
/// source), a defense schedule, the eavesdropping window and an arrival
/// time. Execute it directly with [`run`](StationRun::run), or hand many of
/// them to an [`Executor`](super::Executor).
pub struct StationRun<'a> {
    app: AppKind,
    seed: u64,
    source: SourceSpec<'a>,
    plan: PhasePlan,
    interfaces: usize,
    calib_secs: f64,
    window: SimDuration,
    mode: FeatureMode,
    arrival_secs: f64,
    window_batch: usize,
}

impl StationRun<'static> {
    /// A run over generated traffic, undefended by default.
    ///
    /// Defaults: no defense, 3 virtual interfaces, a 5 s window, the full
    /// feature set, arrival at wall-clock 0, morphing calibration over
    /// [`STATION_CALIB_SECS`].
    pub fn new(traffic: TrafficSpec) -> Self {
        StationRun {
            app: traffic.app,
            seed: traffic.seed,
            source: SourceSpec::Traffic(traffic),
            plan: PhasePlan::Spec {
                initial: DefenseSpec::none(),
                splices: Vec::new(),
            },
            interfaces: 3,
            calib_secs: STATION_CALIB_SECS,
            window: SimDuration::from_secs(5),
            mode: FeatureMode::Full,
            arrival_secs: 0.0,
            window_batch: WINDOW_BATCH,
        }
    }
}

impl<'a> StationRun<'a> {
    /// A run over an external packet source (same defaults as
    /// [`new`](StationRun::new); seeded stages derive from seed 0 unless
    /// [`seed`](StationRun::seed) overrides it).
    pub fn from_source(app: AppKind, source: impl PacketSource + 'a) -> Self {
        StationRun {
            app,
            seed: 0,
            source: SourceSpec::External(Box::new(source)),
            plan: PhasePlan::Spec {
                initial: DefenseSpec::none(),
                splices: Vec::new(),
            },
            interfaces: 3,
            calib_secs: STATION_CALIB_SECS,
            window: SimDuration::from_secs(5),
            mode: FeatureMode::Full,
            arrival_secs: 0.0,
            window_batch: WINDOW_BATCH,
        }
    }

    /// Sets the defense active from the session start.
    pub fn defense(mut self, defense: DefenseSpec) -> Self {
        match &mut self.plan {
            PhasePlan::Spec { initial, .. } => *initial = defense,
            PhasePlan::Built(_) => panic!("defense() conflicts with pre-built phases()"),
        }
        self
    }

    /// Splices `defense` in at session-relative second `at_secs` (any
    /// number of splices; they are sorted at build time).
    pub fn splice(mut self, at_secs: f64, defense: DefenseSpec) -> Self {
        match &mut self.plan {
            PhasePlan::Spec { splices, .. } => splices.push((at_secs, defense)),
            PhasePlan::Built(_) => panic!("splice() conflicts with pre-built phases()"),
        }
        self
    }

    /// Replaces the splice schedule wholesale (`(session-relative second,
    /// defense)` pairs).
    pub fn splices(mut self, schedule: Vec<(f64, DefenseSpec)>) -> Self {
        match &mut self.plan {
            PhasePlan::Spec { splices, .. } => *splices = schedule,
            PhasePlan::Built(_) => panic!("splices() conflicts with pre-built phases()"),
        }
        self
    }

    /// Supplies pre-built `(session-relative second, pipeline)` phases,
    /// bypassing the declarative defense schedule entirely.
    pub fn phases(mut self, phases: Vec<(f64, StagePipeline)>) -> Self {
        self.plan = PhasePlan::Built(phases);
        self
    }

    /// Virtual-interface count for reshape stages (default 3).
    pub fn interfaces(mut self, interfaces: usize) -> Self {
        self.interfaces = interfaces;
        self
    }

    /// Seed of seeded defense stages (defaults to the traffic seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Length of generated morphing-calibration sessions, in seconds.
    pub fn calib_secs(mut self, calib_secs: f64) -> Self {
        self.calib_secs = calib_secs;
        self
    }

    /// The eavesdropping window `W` (default 5 s).
    pub fn window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// The adversary's feature mode (default [`FeatureMode::Full`]).
    pub fn feature_mode(mut self, mode: FeatureMode) -> Self {
        self.mode = mode;
        self
    }

    /// Wall-clock second the station arrives (default 0); packet times are
    /// session-relative, so the virtual-time executor schedules this run's
    /// events at `arrival + packet time`.
    pub fn arrival_secs(mut self, arrival_secs: f64) -> Self {
        self.arrival_secs = arrival_secs;
        self
    }

    /// How many closed windows buffer before a batched
    /// [`WindowScorer::score_slice`] flush (default
    /// [`WINDOW_BATCH`](super::WINDOW_BATCH); clamped to at least 1). Purely
    /// a scheduling knob: reports are bit-identical for every batch size.
    pub fn window_batch(mut self, window_batch: usize) -> Self {
        self.window_batch = window_batch.max(1);
        self
    }

    /// The station's ground-truth application.
    pub fn app(&self) -> AppKind {
        self.app
    }

    /// The station's wall-clock arrival second.
    pub fn arrival(&self) -> f64 {
        self.arrival_secs
    }

    /// Admits the station: builds its defense pipelines and packet source,
    /// taking its machine's buffers from the worker's `scratch`. This is the
    /// moment a station starts holding state — before it, a run is just a
    /// description.
    pub(crate) fn admit(self, scratch: &mut StationScratch) -> Result<AdmittedStation<'a>, String> {
        let mut parts = scratch.take_parts();
        let phases = match self.plan {
            PhasePlan::Built(phases) => phases,
            PhasePlan::Spec { initial, splices } => {
                let ctx = StageContext::live(self.app, self.seed, self.calib_secs);
                let mut phases = std::mem::take(&mut parts.phases);
                phases.push((0.0, initial.build(&ctx, self.interfaces)?));
                if let Some((index, (at, defense))) = splices
                    .iter()
                    .enumerate()
                    .find(|(_, (at, _))| !at.is_finite())
                {
                    return Err(format!(
                        "splice #{index} ({}) at {at} s: splice times must be finite",
                        defense.label()
                    ));
                }
                let mut splices = splices;
                // Every time is finite (checked above), so the order is total.
                splices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("splice times are finite"));
                for (at, defense) in &splices {
                    phases.push((*at, defense.build(&ctx, self.interfaces)?));
                }
                phases
            }
        };
        let source = match self.source {
            SourceSpec::Traffic(traffic) => AdmittedSource::Traffic(traffic.build()),
            SourceSpec::External(source) => AdmittedSource::External(source),
        };
        Ok(AdmittedStation {
            machine: StationMachine::new(
                self.app,
                phases,
                self.window,
                self.mode,
                self.window_batch,
                parts,
                scratch,
            ),
            source: PeekableSource::new(source),
            arrival_secs: self.arrival_secs,
        })
    }

    /// Runs the station to completion with `scorer`, returning its report.
    /// Fails only if a defense stage cannot be built (e.g. an invalid
    /// interface count for orthogonal reshaping).
    pub fn run(self, scorer: &mut dyn WindowScorer) -> Result<ScheduledReport, String> {
        let mut scratch = StationScratch::new();
        let mut station = self.admit(&mut scratch)?;
        station.drain_until(None, &mut scratch, scorer);
        Ok(station.finish_into(scorer, &mut scratch))
    }
}

/// An admitted station's packet source: generated traffic held inline (it
/// borrows the shared calibrated model, so admission allocates nothing for
/// it), or the boxed external source.
// Boxing the session would put an allocation back on every admission.
#[allow(clippy::large_enum_variant)]
enum AdmittedSource<'a> {
    Traffic(StreamingSession<'static>),
    External(Box<dyn PacketSource + 'a>),
}

impl PacketSource for AdmittedSource<'_> {
    fn next_packet(&mut self) -> Option<PacketRecord> {
        match self {
            AdmittedSource::Traffic(session) => session.next_packet(),
            AdmittedSource::External(source) => source.next_packet(),
        }
    }

    fn label(&self) -> Option<AppKind> {
        match self {
            AdmittedSource::Traffic(session) => session.label(),
            AdmittedSource::External(source) => source.label(),
        }
    }
}

/// What one coalesced [`drain_until`](AdmittedStation::drain_until) run did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrainRun {
    /// Wall-clock second of the last packet processed (`None` when the run
    /// processed no packet at all).
    pub(crate) last_secs: Option<f64>,
    /// Packets processed during the run.
    pub(crate) packets: u64,
}

/// A station that has been admitted: live pipelines, a peekable source, and
/// the machine driving both. Only admitted stations hold per-station state.
pub(crate) struct AdmittedStation<'a> {
    machine: StationMachine,
    source: PeekableSource<AdmittedSource<'a>>,
    arrival_secs: f64,
}

impl AdmittedStation<'_> {
    /// Wall-clock time of the station's next packet (`None` once the source
    /// is exhausted) — the timestamp its next event carries in the
    /// virtual-time heap.
    pub(crate) fn next_wall_secs(&mut self) -> Option<f64> {
        self.source.next_time_secs().map(|t| self.arrival_secs + t)
    }

    /// Drains every packet whose wall-clock time is strictly before
    /// `horizon` (the whole source when `None`) in [`STAGE_BATCH`]-sized
    /// micro-batches — the coalesced fast path, byte-identical to stepping
    /// per packet because [`StationMachine::offer_slice`] splits each batch
    /// at phase-splice boundaries. The caller's `scratch` batch is reused
    /// across runs and stations.
    pub(crate) fn drain_until(
        &mut self,
        horizon: Option<f64>,
        scratch: &mut StationScratch,
        scorer: &mut dyn WindowScorer,
    ) -> DrainRun {
        let mut run = DrainRun {
            last_secs: None,
            packets: 0,
        };
        let StationScratch { batch, staged, .. } = scratch;
        loop {
            batch.clear();
            while batch.len() < STAGE_BATCH {
                let Some(t) = self.source.next_time_secs() else {
                    break;
                };
                if horizon.is_some_and(|h| self.arrival_secs + t >= h) {
                    break;
                }
                batch.push(
                    self.source
                        .next_packet()
                        .expect("a peeked time has a packet"),
                );
            }
            let Some(last) = batch.last() else { break };
            run.last_secs = Some(self.arrival_secs + last.time.as_secs_f64());
            run.packets += batch.len() as u64;
            self.machine.offer_slice(batch, staged, scorer);
            if batch.len() < STAGE_BATCH {
                break;
            }
        }
        run
    }

    /// Retires the station and returns its report, reclaiming its
    /// pipelines' scratch and its machine's buffers into the worker's
    /// `scratch` for the next admission.
    pub(crate) fn finish_into(
        self,
        scorer: &mut dyn WindowScorer,
        scratch: &mut StationScratch,
    ) -> ScheduledReport {
        self.machine.finish_with(scorer, scratch)
    }
}
