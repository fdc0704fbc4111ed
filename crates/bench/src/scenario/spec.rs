//! The declarative scenario schema and its compiler.
//!
//! A [`ScenarioSpec`] is the paper's whole evaluation grid as data: a station
//! population (each station a [`TrafficSpec`] plus a [`DefenseSpec`] stage
//! list), an [`AdversarySpec`] (batch or online/prequential), and an optional
//! [`EventSpec`] schedule for mid-session defense splices and station
//! arrival/departure churn. [`ScenarioSpec::build`] compiles the spec into
//! the existing streaming machinery — [`TrafficSpec`] → `StreamingSession`,
//! [`DefenseSpec`] → [`StagePipeline`], adversary spec → ensemble/evaluator —
//! after validating everything that can fail statically, so `--check` passes
//! imply a runnable scenario.
//!
//! The schema (see `scenarios/*.toml` for committed examples):
//!
//! ```toml
//! name = "staged-defense"
//! seed = 7
//! window_secs = 5.0
//!
//! [[stations]]
//! app = "bt"            # any AppKind alias
//! count = 4             # expands into 4 stations with consecutive seeds
//! secs = 120.0          # session length per station
//! defense = "padding"   # DefenseKind shorthand, or a [[stations.defense]] stage list
//!
//! [adversary]
//! mode = "online"        # "batch" (frozen ensemble) or "online" (prequential)
//!
//! [[events]]
//! at_secs = 60.0
//! kind = "splice"        # or "arrive" / "depart" (station churn)
//! defense = "morph_or"
//! ```

use crate::corpus::ExperimentConfig;
use crate::pipeline::DefenseKind;
use crate::streaming::Executor;
use classifier::window::FeatureMode;
use defenses::spec::{DefenseStageSpec, StageContext};
use defenses::stage::StagePipeline;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::BTreeMap;
use traffic_gen::app::AppKind;
use traffic_gen::spec::{app_from_value, TrafficSpec};
use wlan_sim::time::SimDuration;

/// A reshaping scheduler, as data (Tables II/III's four algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmSpec {
    /// Random assignment over virtual interfaces (RA).
    Random,
    /// Round-robin assignment (RR).
    RoundRobin,
    /// Orthogonal reshaping over packet-size ranges (OR).
    Orthogonal,
    /// The size-modulo OR variant of Fig. 5.
    OrthogonalModulo,
}

impl AlgorithmSpec {
    /// The spec tag (and report label).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmSpec::Random => "ra",
            AlgorithmSpec::RoundRobin => "rr",
            AlgorithmSpec::Orthogonal => "or",
            AlgorithmSpec::OrthogonalModulo => "or_mod",
        }
    }

    /// Parses an algorithm tag.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "ra" | "random" => Ok(AlgorithmSpec::Random),
            "rr" | "round_robin" | "roundrobin" => Ok(AlgorithmSpec::RoundRobin),
            "or" | "orthogonal" => Ok(AlgorithmSpec::Orthogonal),
            "or_mod" | "or-mod" | "orthogonal_modulo" | "modulo" => {
                Ok(AlgorithmSpec::OrthogonalModulo)
            }
            other => Err(format!("unknown reshape algorithm `{other}`")),
        }
    }

    /// Constructs the scheduler, seeded exactly like the historical
    /// hand-coded pipelines.
    pub fn build(self, interfaces: usize, seed: u64) -> Result<Box<dyn ReshapeAlgorithm>, String> {
        Ok(match self {
            AlgorithmSpec::Random => Box::new(RandomAssign::new(interfaces, seed)),
            AlgorithmSpec::RoundRobin => Box::new(RoundRobin::new(interfaces)),
            AlgorithmSpec::Orthogonal => Box::new(
                OrthogonalRanges::for_interface_count(interfaces)
                    .map_err(|e| format!("invalid interface count {interfaces}: {e}"))?,
            ),
            AlgorithmSpec::OrthogonalModulo => Box::new(OrthogonalModulo::new(interfaces)),
        })
    }

    /// Whether the algorithm is valid for `interfaces` virtual interfaces.
    fn validate(self, interfaces: usize) -> Result<(), String> {
        match self {
            AlgorithmSpec::Orthogonal => SizeRanges::for_interface_count(interfaces)
                .map(|_| ())
                .map_err(|e| format!("invalid interface count {interfaces}: {e}")),
            _ if interfaces == 0 => Err("interface count must be positive".to_string()),
            _ => Ok(()),
        }
    }
}

/// One stage of a defense pipeline: a defense-crate stage or the reshaping
/// engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageSpec {
    /// A transforming/partitioning defense stage (padding, morphing,
    /// pseudonym rotation, frequency hopping).
    Defense(DefenseStageSpec),
    /// The reshaping engine over a scheduling algorithm.
    Reshape {
        /// The scheduler dispatching packets to virtual interfaces.
        algorithm: AlgorithmSpec,
        /// Virtual-interface count; the station's count when `None`.
        interfaces: Option<usize>,
    },
}

impl StageSpec {
    /// The stage's report label.
    pub fn name(&self) -> &'static str {
        match self {
            StageSpec::Defense(d) => d.name(),
            StageSpec::Reshape { algorithm, .. } => algorithm.name(),
        }
    }
}

impl Serialize for StageSpec {
    fn to_value(&self) -> Value {
        match self {
            StageSpec::Defense(d) => d.to_value(),
            StageSpec::Reshape {
                algorithm,
                interfaces,
            } => {
                let mut entries = vec![
                    ("stage".to_string(), Value::Str("reshape".to_string())),
                    (
                        "algorithm".to_string(),
                        Value::Str(algorithm.name().to_string()),
                    ),
                ];
                if let Some(i) = interfaces {
                    entries.push(("interfaces".to_string(), Value::U64(*i as u64)));
                }
                Value::Map(entries)
            }
        }
    }
}

impl Deserialize for StageSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // A bare algorithm tag is a reshape stage; any other bare tag (or a
        // table without `stage = "reshape"`) is a defense stage.
        if let Value::Str(s) = v {
            if let Ok(algorithm) = AlgorithmSpec::parse(s) {
                return Ok(StageSpec::Reshape {
                    algorithm,
                    interfaces: None,
                });
            }
            return DefenseStageSpec::from_value(v).map(StageSpec::Defense);
        }
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a stage table or tag"))?;
        let tag = match serde::value_get(map, "stage") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(Error::custom("stage table is missing `stage`")),
        };
        if tag == "reshape" {
            serde::value_deny_unknown(map, &["stage", "algorithm", "interfaces"], "reshape stage")?;
            let algorithm = match serde::value_get(map, "algorithm") {
                Some(Value::Str(s)) => AlgorithmSpec::parse(s).map_err(Error::custom)?,
                Some(other) => {
                    return Err(Error::custom(format!(
                        "expected algorithm tag, found {other:?}"
                    )))
                }
                None => AlgorithmSpec::Orthogonal,
            };
            let interfaces = serde::value_get(map, "interfaces")
                .map(usize::from_value)
                .transpose()?;
            Ok(StageSpec::Reshape {
                algorithm,
                interfaces,
            })
        } else {
            DefenseStageSpec::from_value(v).map(StageSpec::Defense)
        }
    }
}

/// A whole defense pipeline, as an ordered stage list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DefenseSpec {
    /// The stages, in packet-flow order; empty is the undefended identity.
    pub stages: Vec<StageSpec>,
}

impl DefenseSpec {
    /// The undefended (identity) pipeline.
    pub fn none() -> Self {
        DefenseSpec::default()
    }

    /// The stage list of a named [`DefenseKind`] — the bridge that makes the
    /// historical enum a thin shorthand over the declarative form.
    pub fn from_kind(kind: DefenseKind) -> Self {
        let reshape = |algorithm| StageSpec::Reshape {
            algorithm,
            interfaces: None,
        };
        let stages = match kind {
            DefenseKind::None => vec![],
            DefenseKind::FrequencyHopping => {
                vec![StageSpec::Defense(DefenseStageSpec::FrequencyHopping {
                    dwell_ms: None,
                })]
            }
            DefenseKind::Random => vec![reshape(AlgorithmSpec::Random)],
            DefenseKind::RoundRobin => vec![reshape(AlgorithmSpec::RoundRobin)],
            DefenseKind::Orthogonal => vec![reshape(AlgorithmSpec::Orthogonal)],
            DefenseKind::OrthogonalModulo => vec![reshape(AlgorithmSpec::OrthogonalModulo)],
            DefenseKind::Pseudonym => {
                vec![StageSpec::Defense(DefenseStageSpec::Pseudonym {
                    period_secs: None,
                })]
            }
            DefenseKind::Padding => {
                vec![StageSpec::Defense(DefenseStageSpec::Padding { size: None })]
            }
            DefenseKind::Morphing => {
                vec![StageSpec::Defense(DefenseStageSpec::Morphing {
                    target: None,
                })]
            }
            DefenseKind::MorphThenReshape => vec![
                StageSpec::Defense(DefenseStageSpec::Morphing { target: None }),
                reshape(AlgorithmSpec::Orthogonal),
            ],
        };
        DefenseSpec { stages }
    }

    /// The [`DefenseKind`] this spec is the expansion of, if any — the
    /// inverse of [`from_kind`](Self::from_kind), used where an API still
    /// speaks the enum shorthand (e.g. `evaluate_defense`).
    pub fn as_kind(&self) -> Option<DefenseKind> {
        DefenseKind::ALL
            .into_iter()
            .find(|kind| &DefenseSpec::from_kind(*kind) == self)
    }

    /// A human-readable label (`"morphing+or"`, `"none"`).
    pub fn label(&self) -> String {
        if self.stages.is_empty() {
            "none".to_string()
        } else {
            self.stages
                .iter()
                .map(StageSpec::name)
                .collect::<Vec<_>>()
                .join("+")
        }
    }

    /// Builds the streaming stage pipeline: each spec'd stage constructed in
    /// order, reshape stages defaulting to `interfaces` virtual interfaces.
    pub fn build(
        &self,
        ctx: &StageContext<'_>,
        interfaces: usize,
    ) -> Result<StagePipeline, String> {
        let mut pipeline = StagePipeline::new();
        for stage in &self.stages {
            match stage {
                StageSpec::Defense(d) => pipeline.push_stage(d.build(ctx)?),
                StageSpec::Reshape {
                    algorithm,
                    interfaces: stage_interfaces,
                } => {
                    let count = stage_interfaces.unwrap_or(interfaces);
                    pipeline.push_stage(Box::new(ReshapeStage::new(
                        algorithm.build(count, ctx.seed)?,
                    )));
                }
            }
        }
        Ok(pipeline)
    }

    /// Everything that can fail in [`build`](Self::build), checked without
    /// constructing stages (morphing calibration is expensive): reshape
    /// stages need a valid interface count, and morphing needs a positive
    /// calibration length to estimate its target distribution from.
    pub fn validate(&self, interfaces: usize, calib_secs: f64) -> Result<(), String> {
        for stage in &self.stages {
            match stage {
                StageSpec::Reshape {
                    algorithm,
                    interfaces: stage_interfaces,
                } => algorithm.validate(stage_interfaces.unwrap_or(interfaces))?,
                StageSpec::Defense(DefenseStageSpec::Morphing { .. })
                    if !(calib_secs.is_finite() && calib_secs > 0.0) =>
                {
                    return Err(format!(
                        "morphing needs a positive, finite calib_secs, got {calib_secs}"
                    ));
                }
                StageSpec::Defense(_) => {}
            }
        }
        Ok(())
    }
}

impl Serialize for DefenseSpec {
    fn to_value(&self) -> Value {
        Value::Seq(self.stages.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for DefenseSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // A DefenseKind shorthand (`defense = "morph_or"`).
            Value::Str(s) => {
                let kind = s
                    .parse::<DefenseKind>()
                    .map_err(|e| Error::custom(format!("{e} (and `{s}` is not a stage list)")))?;
                Ok(DefenseSpec::from_kind(kind))
            }
            Value::Seq(stages) => Ok(DefenseSpec {
                stages: stages
                    .iter()
                    .map(StageSpec::from_value)
                    .collect::<Result<_, _>>()?,
            }),
            other => Err(Error::custom(format!(
                "expected defense shorthand or stage list, found {other:?}"
            ))),
        }
    }
}

/// A group of identical stations (traffic model + defense), expanded into
/// `count` stations with consecutive seeds by the compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct StationGroupSpec {
    /// The application every station in the group runs.
    pub app: AppKind,
    /// How many stations the group expands to.
    pub count: usize,
    /// Base seed of the group (member `i` uses `seed + i`); derived from the
    /// scenario seed and group index when `None`.
    pub seed: Option<u64>,
    /// Session length per station, in seconds.
    pub secs: f64,
    /// Virtual interfaces for reshape stages; scenario default when `None`.
    pub interfaces: Option<usize>,
    /// The defense pipeline protecting the group.
    pub defense: DefenseSpec,
    /// Arrival stagger within the group: member `i` arrives at wall-clock
    /// `i * stagger_secs` (0 = everyone at once). This is how large
    /// populations state continuous churn in O(1) spec space.
    pub stagger_secs: f64,
}

impl Deserialize for StationGroupSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a station table"))?;
        serde::value_deny_unknown(
            map,
            &[
                "app",
                "count",
                "seed",
                "secs",
                "interfaces",
                "defense",
                "stagger_secs",
            ],
            "station group",
        )?;
        let app = app_from_value(
            serde::value_get(map, "app")
                .ok_or_else(|| Error::custom("station group is missing `app`"))?,
        )?;
        let count = serde::value_get(map, "count")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(1);
        let seed = serde::value_get(map, "seed")
            .map(u64::from_value)
            .transpose()?;
        let secs = serde::value_get(map, "secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(60.0);
        let interfaces = serde::value_get(map, "interfaces")
            .map(usize::from_value)
            .transpose()?;
        let defense = serde::value_get(map, "defense")
            .map(DefenseSpec::from_value)
            .transpose()?
            .unwrap_or_default();
        let stagger_secs = serde::value_get(map, "stagger_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(0.0);
        Ok(StationGroupSpec {
            app,
            count,
            seed,
            secs,
            interfaces,
            defense,
            stagger_secs,
        })
    }
}

/// Which adversary scores the scenario's windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryMode {
    /// A frozen ensemble trained offline on undefended traffic.
    Batch,
    /// A live prequential adversary: warm-started on undefended traffic,
    /// then forked per station and learning test-then-train as it scores.
    Online,
}

/// The adversary configuration of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    /// Batch (frozen) or online (prequential) scoring.
    pub mode: AdversaryMode,
    /// Corpus sizing and seeding of the training phase; fields overlay
    /// [`ExperimentConfig::quick`].
    pub train: ExperimentConfig,
    /// Timeline cadence (windows per snapshot) for online stations.
    pub snapshot_every: u64,
}

impl Default for AdversarySpec {
    fn default() -> Self {
        AdversarySpec {
            mode: AdversaryMode::Batch,
            train: ExperimentConfig::quick(),
            snapshot_every: 10,
        }
    }
}

impl Deserialize for AdversarySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an adversary table"))?;
        serde::value_deny_unknown(map, &["mode", "train", "snapshot_every"], "adversary spec")?;
        let mode = match serde::value_get(map, "mode") {
            None => AdversaryMode::Batch,
            Some(Value::Str(s)) => match s.as_str() {
                "batch" => AdversaryMode::Batch,
                "online" | "prequential" => AdversaryMode::Online,
                other => return Err(Error::custom(format!("unknown adversary mode `{other}`"))),
            },
            Some(other) => {
                return Err(Error::custom(format!(
                    "expected adversary mode string, found {other:?}"
                )))
            }
        };
        let train = match serde::value_get(map, "train") {
            Some(t) => config_overlay(t)?,
            None => ExperimentConfig::quick(),
        };
        let snapshot_every = serde::value_get(map, "snapshot_every")
            .map(u64::from_value)
            .transpose()?
            .unwrap_or(10);
        Ok(AdversarySpec {
            mode,
            train,
            snapshot_every,
        })
    }
}

/// Reads an [`ExperimentConfig`] table where every field is optional,
/// overlaying [`ExperimentConfig::quick`] — spec files only state what they
/// change.
fn config_overlay(v: &Value) -> Result<ExperimentConfig, Error> {
    let map = v
        .as_map()
        .ok_or_else(|| Error::custom("expected a train-config table"))?;
    serde::value_deny_unknown(
        map,
        &[
            "train_seed",
            "eval_seed",
            "train_sessions",
            "train_session_secs",
            "eval_sessions",
            "eval_session_secs",
            "window_secs",
            "interfaces",
        ],
        "train config",
    )?;
    let mut config = ExperimentConfig::quick();
    if let Some(x) = serde::value_get(map, "train_seed") {
        config.train_seed = u64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_seed") {
        config.eval_seed = u64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "train_sessions") {
        config.train_sessions = usize::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "train_session_secs") {
        config.train_session_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_sessions") {
        config.eval_sessions = usize::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "eval_session_secs") {
        config.eval_session_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "window_secs") {
        config.window_secs = f64::from_value(x)?;
    }
    if let Some(x) = serde::value_get(map, "interfaces") {
        config.interfaces = usize::from_value(x)?;
    }
    Ok(config)
}

/// What happens at one point of a scenario's event schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Splice a new defense pipeline into the running session.
    Splice(DefenseSpec),
    /// The station joins the network at the event time (churn).
    Arrive,
    /// The station leaves the network at the event time (churn).
    Depart,
}

/// One scheduled event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Scenario wall-clock second the event fires at.
    pub at_secs: f64,
    /// Global station index the event applies to; `None` applies a splice to
    /// every station (arrive/depart always need a station).
    pub station: Option<usize>,
    /// What happens.
    pub kind: EventKind,
    /// The `[[events]]` header's line in the spec file, when loaded from
    /// one — build errors cite it.
    pub line: Option<u32>,
}

impl EventSpec {
    /// How a build error names this event (`[[events]] entry #2 (line 31)`).
    fn describe(&self, index: usize) -> String {
        match self.line {
            Some(line) => format!("[[events]] entry #{} (line {line})", index + 1),
            None => format!("[[events]] entry #{}", index + 1),
        }
    }
}

impl Deserialize for EventSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected an event table"))?;
        serde::value_deny_unknown(map, &["at_secs", "station", "kind", "defense"], "event")?;
        let at_secs = f64::from_value(
            serde::value_get(map, "at_secs")
                .ok_or_else(|| Error::custom("event is missing `at_secs`"))?,
        )?;
        let station = serde::value_get(map, "station")
            .map(usize::from_value)
            .transpose()?;
        let kind = match serde::value_get(map, "kind") {
            Some(Value::Str(s)) => match s.as_str() {
                "splice" => {
                    let defense = serde::value_get(map, "defense")
                        .ok_or_else(|| Error::custom("splice event is missing `defense`"))?;
                    EventKind::Splice(DefenseSpec::from_value(defense)?)
                }
                "arrive" | "depart" => {
                    if serde::value_get(map, "defense").is_some() {
                        return Err(Error::custom(format!(
                            "`defense` does not apply to a {s} event"
                        )));
                    }
                    if s == "arrive" {
                        EventKind::Arrive
                    } else {
                        EventKind::Depart
                    }
                }
                other => return Err(Error::custom(format!("unknown event kind `{other}`"))),
            },
            _ => return Err(Error::custom("event is missing `kind`")),
        };
        Ok(EventSpec {
            at_secs,
            station,
            kind,
            line: None,
        })
    }
}

/// A whole experiment, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario's name (defaults to the spec file's stem).
    pub name: String,
    /// Base seed; per-station seeds derive from it unless a group pins one.
    pub seed: u64,
    /// The eavesdropping window `W` in seconds.
    pub window_secs: f64,
    /// Length of generated morphing-calibration sessions, in seconds.
    pub calib_secs: f64,
    /// Default virtual-interface count for reshape stages.
    pub interfaces: usize,
    /// The station population.
    pub stations: Vec<StationGroupSpec>,
    /// The adversary.
    pub adversary: AdversarySpec,
    /// The event schedule (splices and churn).
    pub events: Vec<EventSpec>,
    /// Which executor runs the population (`"pooled"` or `"virtual_time"`);
    /// the optional `max_slice_secs` key caps the virtual span one station
    /// drains per event on the virtual-time executor (reports are identical
    /// for every horizon — it only trades heap traffic for slice length).
    pub executor: Executor,
    /// How many stations keep a full per-station outcome in the report
    /// (aggregates always cover everyone). Caps report size for
    /// million-station scenarios.
    pub max_station_reports: usize,
}

impl Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected a scenario table"))?;
        serde::value_deny_unknown(
            map,
            &[
                "name",
                "seed",
                "window_secs",
                "calib_secs",
                "interfaces",
                "stations",
                "adversary",
                "events",
                "executor",
                "max_slice_secs",
                "max_station_reports",
            ],
            "scenario",
        )?;
        let name = serde::value_get(map, "name")
            .map(String::from_value)
            .transpose()?
            .unwrap_or_default();
        let seed = serde::value_get(map, "seed")
            .map(u64::from_value)
            .transpose()?
            .unwrap_or(0);
        let window_secs = serde::value_get(map, "window_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(5.0);
        let calib_secs = serde::value_get(map, "calib_secs")
            .map(f64::from_value)
            .transpose()?
            .unwrap_or(60.0);
        let interfaces = serde::value_get(map, "interfaces")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(3);
        let stations = serde::value_get(map, "stations")
            .map(Vec::<StationGroupSpec>::from_value)
            .transpose()?
            .unwrap_or_default();
        let adversary = serde::value_get(map, "adversary")
            .map(AdversarySpec::from_value)
            .transpose()?
            .unwrap_or_default();
        let events = serde::value_get(map, "events")
            .map(Vec::<EventSpec>::from_value)
            .transpose()?
            .unwrap_or_default();
        let executor = match serde::value_get(map, "executor") {
            None => Executor::default(),
            Some(Value::Str(s)) => Executor::parse(s).map_err(Error::custom)?,
            Some(other) => {
                return Err(Error::custom(format!(
                    "expected executor tag string, found {other:?}"
                )))
            }
        };
        let executor = match serde::value_get(map, "max_slice_secs")
            .map(f64::from_value)
            .transpose()?
        {
            None => executor,
            Some(secs) => {
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(Error::custom(format!(
                        "max_slice_secs must be a positive, finite number of seconds, got {secs}"
                    )));
                }
                if executor == Executor::Pooled {
                    return Err(Error::custom(
                        "max_slice_secs only applies to executor = \"virtual_time\"",
                    ));
                }
                // Virtual time ticks in microseconds: a horizon that rounds
                // to zero would never drain a packet.
                let max_slice = SimDuration::from_secs_f64(secs);
                if max_slice.is_zero() {
                    return Err(Error::custom(format!(
                        "max_slice_secs = {secs} rounds to 0 µs; the minimum is 1 µs (1e-6)"
                    )));
                }
                executor.with_max_slice(max_slice)
            }
        };
        let max_station_reports = serde::value_get(map, "max_station_reports")
            .map(usize::from_value)
            .transpose()?
            .unwrap_or(usize::MAX);
        Ok(ScenarioSpec {
            name,
            seed,
            window_secs,
            calib_secs,
            interfaces,
            stations,
            adversary,
            events,
            executor,
            max_station_reports,
        })
    }
}

/// One compiled station: resolved traffic, defense, churn interval and
/// session-relative splice schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStation {
    /// The station's traffic (seed resolved, duration clipped by departure).
    pub traffic: TrafficSpec,
    /// Virtual interfaces for its reshape stages.
    pub interfaces: usize,
    /// The defense active from session start.
    pub defense: DefenseSpec,
    /// Wall-clock second the station arrives (0 unless churned in).
    pub arrival_secs: f64,
    /// Wall-clock second the station departs, when churned out.
    pub departure_secs: Option<f64>,
    /// Mid-session defense splices, as `(session-relative second, defense)`
    /// sorted by time.
    pub splices: Vec<(f64, DefenseSpec)>,
}

impl ScenarioStation {
    /// The station's effective session length: its traffic duration clipped
    /// by its departure.
    pub fn session_secs(&self) -> f64 {
        self.traffic.secs.expect("compiled stations are bounded")
    }

    /// Builds the defense pipelines for the station's phases:
    /// `(start_secs, pipeline)` with the initial defense at 0.
    pub fn build_pipelines(&self, calib_secs: f64) -> Result<Vec<(f64, StagePipeline)>, String> {
        let ctx = StageContext::live(self.traffic.app, self.traffic.seed, calib_secs);
        let mut phases = vec![(0.0, self.defense.build(&ctx, self.interfaces)?)];
        for (at, defense) in &self.splices {
            phases.push((*at, defense.build(&ctx, self.interfaces)?));
        }
        Ok(phases)
    }
}

/// One compiled station group: seeds resolved, interfaces defaulted.
/// `Population` materialises members on demand from these.
#[derive(Debug, Clone, PartialEq)]
struct CompiledGroup {
    /// Global index of the group's first member.
    first: usize,
    /// Member count.
    count: usize,
    /// The application every member runs.
    app: AppKind,
    /// Member `i` streams with seed `base_seed + i`.
    base_seed: u64,
    /// Session length per member, before departure clipping.
    secs: f64,
    /// Resolved virtual-interface count.
    interfaces: usize,
    /// The group's defense pipeline.
    defense: DefenseSpec,
    /// Member `i` arrives at `i * stagger_secs` unless an arrive event
    /// overrides it.
    stagger_secs: f64,
}

/// A station's churn override from explicit `[[events]]` entries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct ChurnOverride {
    arrival: Option<f64>,
    departure: Option<f64>,
}

/// The compiled station population, stored by *rule*, not by member: group
/// descriptors, per-station churn overrides and the splice schedule. A
/// million-station population is a handful of groups plus its explicit
/// events, and [`station`](Population::station) materialises any member on
/// demand — the representation that lets the virtual-time executor hold
/// state only for stations currently on air.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    groups: Vec<CompiledGroup>,
    churn: BTreeMap<usize, ChurnOverride>,
    /// `(wall-clock second, target station or all, defense)` in spec order.
    splices: Vec<(f64, Option<usize>, DefenseSpec)>,
    total: usize,
}

impl Population {
    /// Total station count.
    pub fn station_count(&self) -> usize {
        self.total
    }

    fn group_of(&self, index: usize) -> &CompiledGroup {
        &self.groups[self.groups.partition_point(|g| g.first + g.count <= index)]
    }

    /// The station's wall-clock arrival second (override or stagger).
    fn arrival_of(&self, index: usize) -> f64 {
        self.churn
            .get(&index)
            .and_then(|c| c.arrival)
            .unwrap_or_else(|| {
                let group = self.group_of(index);
                (index - group.first) as f64 * group.stagger_secs
            })
    }

    /// The station's active wall-clock interval `[arrival, end]`.
    fn interval_of(&self, index: usize) -> (f64, f64) {
        let arrival = self.arrival_of(index);
        let mut secs = self.group_of(index).secs;
        if let Some(depart) = self.churn.get(&index).and_then(|c| c.departure) {
            secs = secs.min((depart - arrival).max(0.0));
        }
        (arrival, arrival + secs)
    }

    /// Materialises station `index`: resolved seed, arrival, departure-
    /// clipped duration and its session-relative splice schedule.
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn station(&self, index: usize) -> ScenarioStation {
        assert!(
            index < self.total,
            "station {index} out of range (0..{})",
            self.total
        );
        let group = self.group_of(index);
        let member = index - group.first;
        let over = self.churn.get(&index).copied().unwrap_or_default();
        let arrival_secs = over.arrival.unwrap_or(member as f64 * group.stagger_secs);
        let mut secs = group.secs;
        if let Some(depart) = over.departure {
            // Clip the session at departure: a departed station generates
            // nothing past its departure.
            secs = secs.min((depart - arrival_secs).max(0.0));
        }
        // Session-relative: a splice before the station arrives applies from
        // its first packet (the t=0 edge case).
        let mut splices: Vec<(f64, DefenseSpec)> = self
            .splices
            .iter()
            .filter(|(_, target, _)| target.is_none_or(|t| t == index))
            .map(|(at, _, defense)| ((at - arrival_secs).max(0.0), defense.clone()))
            .collect();
        splices.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("splice times are finite"));
        ScenarioStation {
            traffic: TrafficSpec::bounded(
                group.app,
                group.base_seed.wrapping_add(member as u64),
                secs,
            ),
            interfaces: group.interfaces,
            defense: group.defense.clone(),
            arrival_secs,
            departure_secs: over.departure,
            splices,
        }
    }
}

/// A compiled, validated scenario ready to run on either executor.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The scenario's name (report key and output file stem).
    pub name: String,
    /// The eavesdropping window.
    pub window: SimDuration,
    /// Morphing-calibration session length, in seconds.
    pub calib_secs: f64,
    /// The adversary.
    pub adversary: AdversarySpec,
    /// Which executor runs the population.
    pub executor: Executor,
    /// How many stations keep a full per-station outcome in the report.
    pub max_station_reports: usize,
    /// The compiled station population (materialised on demand).
    pub population: Population,
}

/// Historical name of [`CompiledScenario`].
pub type Scenario = CompiledScenario;

impl CompiledScenario {
    /// Total station count.
    pub fn station_count(&self) -> usize {
        self.population.station_count()
    }

    /// Materialises station `index` (see [`Population::station`]).
    pub fn station(&self, index: usize) -> ScenarioStation {
        self.population.station(index)
    }

    /// Station `index`'s wall-clock arrival second — `station(index)
    /// .arrival_secs` without materialising the station.
    pub(crate) fn arrival_secs(&self, index: usize) -> f64 {
        self.population.arrival_of(index)
    }

    /// Iterates the whole population in station order, materialising each
    /// member on demand.
    pub fn stations(&self) -> impl Iterator<Item = ScenarioStation> + '_ {
        (0..self.station_count()).map(|i| self.station(i))
    }
}

impl ScenarioSpec {
    /// Compiles the spec into a [`CompiledScenario`], validating everything
    /// that can fail statically: station population non-empty, positive
    /// durations, a trainable adversary, event indices in range, reshape
    /// stages valid for their interface counts, a calibration length
    /// wherever a stage morphs, and a coherent event schedule (a station cannot
    /// depart before it arrives, and targeted splices must land inside the
    /// target's active interval). The population itself stays symbolic, so
    /// compiling a million-station spec is O(groups + events).
    pub fn build(&self) -> Result<CompiledScenario, String> {
        if self.stations.is_empty() {
            return Err(format!("scenario `{}` has no stations", self.name));
        }
        if self.window_secs <= 0.0 {
            return Err("window_secs must be positive".to_string());
        }
        let train = &self.adversary.train;
        if !(train.window_secs.is_finite() && train.window_secs > 0.0) {
            return Err(format!(
                "[adversary.train] window_secs must be positive and finite, got {}",
                train.window_secs
            ));
        }
        // An online adversary may start cold; a batch one has nothing to
        // train on.
        if self.adversary.mode == AdversaryMode::Batch && train.train_sessions == 0 {
            return Err(
                "[adversary.train] train_sessions must be at least 1 for a batch adversary"
                    .to_string(),
            );
        }
        let mut groups = Vec::with_capacity(self.stations.len());
        let mut first = 0usize;
        for (group_index, group) in self.stations.iter().enumerate() {
            if group.count == 0 {
                return Err(format!("station group {group_index} has count 0"));
            }
            if group.secs <= 0.0 {
                return Err(format!("station group {group_index} has non-positive secs"));
            }
            if !group.stagger_secs.is_finite() || group.stagger_secs < 0.0 {
                return Err(format!(
                    "station group {group_index} has invalid stagger_secs {}",
                    group.stagger_secs
                ));
            }
            let interfaces = group.interfaces.unwrap_or(self.interfaces);
            group
                .defense
                .validate(interfaces, self.calib_secs)
                .map_err(|e| format!("station group {group_index} ({}): {e}", group.app))?;
            let base_seed = group
                .seed
                .unwrap_or_else(|| derive_group_seed(self.seed, group_index));
            groups.push(CompiledGroup {
                first,
                count: group.count,
                app: group.app,
                base_seed,
                secs: group.secs,
                interfaces,
                defense: group.defense.clone(),
                stagger_secs: group.stagger_secs,
            });
            first += group.count;
        }
        let total = first;
        // Churn first (splice times are relative to the arrival they follow,
        // and departure checks need the final arrival).
        let mut churn: BTreeMap<usize, ChurnOverride> = BTreeMap::new();
        let mut splices: Vec<(f64, Option<usize>, DefenseSpec)> = Vec::new();
        for (index, event) in self.events.iter().enumerate() {
            if !event.at_secs.is_finite() {
                return Err(format!("{}: at_secs must be finite", event.describe(index)));
            }
            match &event.kind {
                EventKind::Arrive | EventKind::Depart => {
                    let station = event.station.ok_or_else(|| {
                        format!(
                            "{}: arrive/depart events need a `station` index",
                            event.describe(index)
                        )
                    })?;
                    if station >= total {
                        return Err(format!(
                            "{}: station {station} out of range (0..{total})",
                            event.describe(index)
                        ));
                    }
                    let entry = churn.entry(station).or_default();
                    match event.kind {
                        EventKind::Arrive => entry.arrival = Some(event.at_secs),
                        EventKind::Depart => entry.departure = Some(event.at_secs),
                        _ => unreachable!(),
                    }
                }
                EventKind::Splice(defense) => {
                    if let Some(i) = event.station {
                        if i >= total {
                            return Err(format!(
                                "{}: station {i} out of range (0..{total})",
                                event.describe(index)
                            ));
                        }
                    }
                    splices.push((event.at_secs, event.station, defense.clone()));
                }
            }
        }
        let population = Population {
            groups,
            churn,
            splices,
            total,
        };
        // Schedule-coherence pass, now that every arrival is final. Global
        // splices keep the historical clamp-to-arrival semantics; targeted
        // ones must land inside the target's active interval.
        for (index, event) in self.events.iter().enumerate() {
            match &event.kind {
                EventKind::Depart => {
                    let station = event.station.expect("validated above");
                    let arrival = population.arrival_of(station);
                    if event.at_secs <= arrival {
                        return Err(format!(
                            "{}: station {station} departs at {} s but arrives at {} s \
                             — its session would be empty",
                            event.describe(index),
                            event.at_secs,
                            arrival
                        ));
                    }
                }
                EventKind::Splice(defense) => match event.station {
                    Some(i) => {
                        defense
                            .validate(population.group_of(i).interfaces, self.calib_secs)
                            .map_err(|e| {
                                format!("{}: splice on station {i}: {e}", event.describe(index))
                            })?;
                        let (arrival, end) = population.interval_of(i);
                        if event.at_secs < arrival || event.at_secs > end {
                            return Err(format!(
                                "{}: splice at {} s lands outside station {i}'s active \
                                 interval [{arrival} s, {end} s]",
                                event.describe(index),
                                event.at_secs
                            ));
                        }
                    }
                    None => {
                        for (gi, group) in population.groups.iter().enumerate() {
                            defense
                                .validate(group.interfaces, self.calib_secs)
                                .map_err(|e| {
                                    format!(
                                        "{}: splice on station group {gi} ({}): {e}",
                                        event.describe(index),
                                        group.app
                                    )
                                })?;
                        }
                    }
                },
                EventKind::Arrive => {}
            }
        }
        Ok(CompiledScenario {
            name: self.name.clone(),
            window: SimDuration::from_secs_f64(self.window_secs),
            calib_secs: self.calib_secs,
            adversary: self.adversary.clone(),
            executor: self.executor,
            max_station_reports: self.max_station_reports,
            population,
        })
    }
}

/// Derives a station group's base seed from the scenario seed (the same
/// golden-ratio mixing the corpus generators use), leaving room for
/// consecutive member seeds.
fn derive_group_seed(scenario_seed: u64, group_index: usize) -> u64 {
    scenario_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((group_index as u64) + 1) << 16)
}

/// The feature mode scenarios evaluate with (the paper's full feature set).
pub const SCENARIO_FEATURE_MODE: FeatureMode = FeatureMode::Full;

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".to_string(),
            seed: 7,
            window_secs: 5.0,
            calib_secs: 30.0,
            interfaces: 3,
            stations: vec![
                StationGroupSpec {
                    app: AppKind::BitTorrent,
                    count: 2,
                    seed: Some(100),
                    secs: 40.0,
                    interfaces: None,
                    defense: DefenseSpec::from_kind(DefenseKind::Orthogonal),
                    stagger_secs: 0.0,
                },
                StationGroupSpec {
                    app: AppKind::Video,
                    count: 1,
                    seed: None,
                    secs: 40.0,
                    interfaces: Some(5),
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
    fn build_expands_groups_with_consecutive_seeds() {
        let scenario = demo_spec().build().expect("valid spec");
        assert_eq!(scenario.station_count(), 3);
        assert_eq!(scenario.station(0).traffic.seed, 100);
        assert_eq!(scenario.station(1).traffic.seed, 101);
        assert_eq!(scenario.station(0).interfaces, 3);
        assert_eq!(scenario.station(2).interfaces, 5);
        assert_eq!(
            scenario.station(2).traffic.seed,
            derive_group_seed(7, 1),
            "unpinned groups derive their seed from the scenario seed"
        );
        assert_eq!(scenario.stations().count(), 3);
    }

    #[test]
    fn staggered_groups_spread_arrivals_without_events() {
        let mut spec = demo_spec();
        spec.stations[0].stagger_secs = 7.5;
        let scenario = spec.build().expect("valid spec");
        assert_eq!(scenario.station(0).arrival_secs, 0.0);
        assert_eq!(scenario.station(1).arrival_secs, 7.5);
        assert_eq!(
            scenario.station(2).arrival_secs,
            0.0,
            "stagger is per-group"
        );
        // An explicit arrive event overrides the stagger.
        spec.events = vec![EventSpec {
            at_secs: 3.0,
            station: Some(1),
            kind: EventKind::Arrive,
            line: None,
        }];
        let scenario = spec.build().expect("valid spec");
        assert_eq!(scenario.station(1).arrival_secs, 3.0);
    }

    #[test]
    fn events_compile_into_churn_and_splice_schedules() {
        let mut spec = demo_spec();
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(1),
                kind: EventKind::Arrive,
                line: None,
            },
            EventSpec {
                at_secs: 30.0,
                station: Some(1),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 20.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::from_kind(DefenseKind::Padding)),
                line: None,
            },
        ];
        let scenario = spec.build().expect("valid spec");
        let churned = scenario.station(1);
        assert_eq!(churned.arrival_secs, 10.0);
        assert_eq!(churned.departure_secs, Some(30.0));
        // 40 s of traffic clipped to the 20 s the station is on air.
        assert_eq!(churned.session_secs(), 20.0);
        // The global splice lands session-relative: 20 - 10 = 10 s in.
        assert_eq!(churned.splices.len(), 1);
        assert_eq!(churned.splices[0].0, 10.0);
        // Un-churned stations see it at wall-clock = session time.
        assert_eq!(scenario.station(0).splices[0].0, 20.0);
    }

    #[test]
    fn incoherent_event_schedules_are_rejected_with_their_entry() {
        // Departing before arriving used to clip silently to an empty
        // session; now it is a build error naming the offending entry.
        let mut spec = demo_spec();
        spec.events = vec![
            EventSpec {
                at_secs: 50.0,
                station: Some(1),
                kind: EventKind::Arrive,
                line: Some(12),
            },
            EventSpec {
                at_secs: 20.0,
                station: Some(1),
                kind: EventKind::Depart,
                line: Some(17),
            },
        ];
        let err = spec.build().expect_err("depart before arrive");
        assert!(
            err.contains("[[events]] entry #2 (line 17)") && err.contains("departs"),
            "unexpected error: {err}"
        );

        // A targeted splice after the station's departure is equally dead.
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(0),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 25.0,
                station: Some(0),
                kind: EventKind::Splice(DefenseSpec::from_kind(DefenseKind::Padding)),
                line: Some(31),
            },
        ];
        let err = spec.build().expect_err("splice outside the interval");
        assert!(
            err.contains("(line 31)") && err.contains("active interval"),
            "unexpected error: {err}"
        );

        // Global splices keep the historical clamp semantics (the committed
        // scenarios rely on a global splice landing mid-churn).
        spec.events = vec![
            EventSpec {
                at_secs: 10.0,
                station: Some(0),
                kind: EventKind::Depart,
                line: None,
            },
            EventSpec {
                at_secs: 25.0,
                station: None,
                kind: EventKind::Splice(DefenseSpec::from_kind(DefenseKind::Padding)),
                line: None,
            },
        ];
        assert!(spec.build().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected_at_build_time() {
        let mut no_stations = demo_spec();
        no_stations.stations.clear();
        assert!(no_stations.build().is_err());

        let mut bad_interfaces = demo_spec();
        bad_interfaces.stations[0].interfaces = Some(0);
        assert!(bad_interfaces.build().unwrap_err().contains('0'));

        let mut bad_event = demo_spec();
        bad_event.events = vec![EventSpec {
            at_secs: 1.0,
            station: Some(9),
            kind: EventKind::Depart,
            line: None,
        }];
        assert!(bad_event.build().is_err());

        let mut bad_stagger = demo_spec();
        bad_stagger.stations[0].stagger_secs = -1.0;
        assert!(bad_stagger.build().unwrap_err().contains("stagger"));
    }

    #[test]
    fn morphing_without_a_calibration_length_is_rejected_at_build_time() {
        let mut spec = demo_spec();
        spec.calib_secs = 0.0;
        // No morphing stage: the calibration length is never used.
        assert!(spec.build().is_ok());

        spec.stations[1].defense = DefenseSpec::from_kind(DefenseKind::Morphing);
        let err = spec.build().unwrap_err();
        assert!(
            err.contains("station group 1") && err.contains("calib_secs"),
            "{err}"
        );

        // A splice that morphs needs it just as much.
        spec.stations[1].defense = DefenseSpec::none();
        spec.events = vec![EventSpec {
            at_secs: 10.0,
            station: None,
            kind: EventKind::Splice(DefenseSpec::from_kind(DefenseKind::MorphThenReshape)),
            line: Some(12),
        }];
        let err = spec.build().unwrap_err();
        assert!(
            err.contains("line 12") && err.contains("calib_secs"),
            "{err}"
        );
    }

    #[test]
    fn batch_adversary_without_training_sessions_is_rejected_at_build_time() {
        let mut spec = demo_spec();
        spec.adversary.train.train_sessions = 0;
        let err = spec.build().unwrap_err();
        assert!(err.contains("train_sessions"), "{err}");

        // The online adversary starts cold and learns on the stations.
        spec.adversary.mode = AdversaryMode::Online;
        assert!(spec.build().is_ok());
    }

    #[test]
    fn adversary_without_a_training_window_is_rejected_at_build_time() {
        for window_secs in [0.0, -5.0, f64::NAN] {
            let mut spec = demo_spec();
            spec.adversary.train.window_secs = window_secs;
            let err = spec.build().unwrap_err();
            assert!(
                err.contains("[adversary.train] window_secs"),
                "{window_secs}: {err}"
            );
        }
    }

    #[test]
    fn typoed_spec_keys_are_rejected_not_defaulted() {
        // The `--check` CI gate must catch misspelled keys instead of
        // silently running with defaults.
        let cases = [
            "windows_secs = 2.0\n[[stations]]\napp = \"bt\"",
            "[[stations]]\napp = \"bt\"\nsecss = 9.0",
            "[[stations]]\napp = \"bt\"\n[adversary]\nmod = \"online\"",
            "[[stations]]\napp = \"bt\"\n[adversary.train]\ntrain_sesions = 2",
            "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"splice\"\nstations = 0\ndefense = \"padding\"",
            "[[stations]]\napp = \"bt\"\n[[stations.defense]]\nstage = \"padding\"\nsizes = 400",
            // `defense` on churn events is meaningless, not ignored.
            "[[stations]]\napp = \"bt\"\n[[events]]\nat_secs = 1.0\nkind = \"depart\"\nstation = 0\ndefense = \"padding\"",
        ];
        for doc in cases {
            let value = crate::scenario::toml::parse(doc).expect("well-formed TOML");
            assert!(
                ScenarioSpec::from_value(&value).is_err(),
                "should reject: {doc}"
            );
        }
        // The un-typoed sibling parses fine.
        let good = crate::scenario::toml::parse(
            "window_secs = 2.0\n[[stations]]\napp = \"bt\"\nsecs = 9.0",
        )
        .expect("well-formed TOML");
        let spec = ScenarioSpec::from_value(&good).expect("valid spec");
        assert_eq!(spec.window_secs, 2.0);
        assert_eq!(spec.stations[0].secs, 9.0);
    }

    #[test]
    fn a_max_slice_below_one_microsecond_is_rejected() {
        let spec = |secs: &str| {
            let doc = format!(
                "executor = \"virtual_time\"\nmax_slice_secs = {secs}\n[[stations]]\napp = \"bt\""
            );
            ScenarioSpec::from_value(&crate::scenario::toml::parse(&doc).expect("well-formed"))
        };
        // Virtual time ticks in microseconds, so 0.1 µs would be a zero
        // horizon that never drains a packet (the run would spin forever).
        for secs in ["1e-7", "4.9e-7"] {
            let err = spec(secs)
                .expect_err("rounds to a zero horizon")
                .to_string();
            assert!(
                err.contains("max_slice_secs") && err.contains("1 µs"),
                "{secs}: {err}"
            );
        }
        for (secs, micros) in [("1e-6", 1), ("5e-7", 1), ("0.25", 250_000)] {
            let spec = spec(secs).expect("at least 1 µs after rounding");
            assert_eq!(
                spec.executor,
                Executor::virtual_time().with_max_slice(SimDuration::from_micros(micros)),
                "{secs}"
            );
        }
    }

    #[test]
    fn defense_spec_round_trips_every_kind() {
        for kind in [
            DefenseKind::None,
            DefenseKind::FrequencyHopping,
            DefenseKind::Random,
            DefenseKind::RoundRobin,
            DefenseKind::Orthogonal,
            DefenseKind::OrthogonalModulo,
            DefenseKind::Pseudonym,
            DefenseKind::Padding,
            DefenseKind::Morphing,
            DefenseKind::MorphThenReshape,
        ] {
            let spec = DefenseSpec::from_kind(kind);
            let back = DefenseSpec::from_value(&spec.to_value()).expect("round trip");
            assert_eq!(back, spec, "{kind:?}");
        }
        assert_eq!(DefenseSpec::from_kind(DefenseKind::None).label(), "none");
        assert_eq!(
            DefenseSpec::from_kind(DefenseKind::MorphThenReshape).label(),
            "morphing+or"
        );
    }
}
