//! Defense stages as **data**: serde-buildable stage specifications.
//!
//! The scenario engine composes whole experiments from committed spec files.
//! [`DefenseStageSpec`] is this crate's end of that contract: one value names
//! a defense stage (padding, morphing, pseudonym rotation, frequency hopping)
//! plus its parameters, and [`build`](DefenseStageSpec::build) constructs the
//! streaming [`PacketStage`] from it. The seeding rules match the hand-coded
//! pipelines the bench crate used before the refactor, so a spec-built stage
//! is byte-identical per seed to its historical construction.
//!
//! Morphing is the one stage that needs context beyond its own parameters:
//! its source/target CDFs are fixed before traffic flows, estimated from
//! calibration sessions (or the materialised source trace when one exists).
//! [`StageContext`] carries exactly that: the station's application, seed,
//! calibration-session length and optional source trace.

use crate::frequency_hopping::FrequencyHopper;
use crate::morphing::{paper_morphing_target, MorphingStage, TrafficMorpher};
use crate::padding::PacketPadder;
use crate::pseudonym::PseudonymRotator;
use crate::stage::PacketStage;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Error, Serialize, Value};
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::spec::app_from_value;
use traffic_gen::trace::Trace;
use wlan_sim::time::SimDuration;

/// The per-station context a stage spec is built in: everything a stage needs
/// that is not a parameter of the stage itself.
#[derive(Debug, Clone, Copy)]
pub struct StageContext<'a> {
    /// The application of the traffic the stage will defend (selects the
    /// paper's morphing pairing).
    pub app: AppKind,
    /// Seed for seeded stages (pseudonym draws, morphing calibration).
    pub seed: u64,
    /// Length in seconds of the generated calibration sessions the morphing
    /// stage estimates its CDFs from.
    pub calib_secs: f64,
    /// The materialised source trace, when the whole session is known up
    /// front (the batch-equivalent path); live streams pass `None` and the
    /// source CDF comes from a generated calibration session instead.
    pub source: Option<&'a Trace>,
}

impl<'a> StageContext<'a> {
    /// A context for a live stream (no materialised source trace).
    pub fn live(app: AppKind, seed: u64, calib_secs: f64) -> Self {
        StageContext {
            app,
            seed,
            calib_secs,
            source: None,
        }
    }
}

/// One defense stage, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseStageSpec {
    /// Pad every packet up to `size` bytes (the paper's maximum size when
    /// `None`).
    Padding {
        /// Target size in bytes; defaults to the maximum packet size.
        size: Option<usize>,
    },
    /// Morph packet sizes toward `target`'s distribution (the paper's
    /// application pairing when `None`).
    Morphing {
        /// Explicit morphing target; defaults to the paper's pairing for the
        /// context's application.
        target: Option<AppKind>,
    },
    /// Rotate the MAC pseudonym every `period_secs` (60 s when `None`).
    Pseudonym {
        /// Rotation period in seconds; defaults to 60.
        period_secs: Option<f64>,
    },
    /// Hop channels 1/6/11 with a dwell of `dwell_ms` (500 ms when `None`).
    FrequencyHopping {
        /// Dwell time per channel in milliseconds; defaults to 500.
        dwell_ms: Option<u64>,
    },
}

impl DefenseStageSpec {
    /// The spec's tag in spec files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseStageSpec::Padding { .. } => "padding",
            DefenseStageSpec::Morphing { .. } => "morphing",
            DefenseStageSpec::Pseudonym { .. } => "pseudonym",
            DefenseStageSpec::FrequencyHopping { .. } => "frequency_hopping",
        }
    }

    /// Constructs the streaming stage this spec describes. Fails only for
    /// morphing, when a session it calibrates from is empty (e.g. a
    /// `calib_secs` too short for any packet).
    pub fn build(&self, ctx: &StageContext<'_>) -> Result<Box<dyn PacketStage>, String> {
        Ok(match self {
            DefenseStageSpec::Padding { size } => {
                let padder = match size {
                    Some(s) => PacketPadder::to_size(*s),
                    None => PacketPadder::new(),
                };
                Box::new(padder.stage())
            }
            DefenseStageSpec::Morphing { target } => Box::new(morphing_stage(target, ctx)?),
            DefenseStageSpec::Pseudonym { period_secs } => {
                let rotator = match period_secs {
                    Some(secs) => PseudonymRotator::new(SimDuration::from_secs_f64(*secs)),
                    None => PseudonymRotator::default(),
                };
                Box::new(rotator.stage_with_rng(StdRng::seed_from_u64(ctx.seed)))
            }
            DefenseStageSpec::FrequencyHopping { dwell_ms } => {
                let hopper = match dwell_ms {
                    Some(ms) => FrequencyHopper::new(
                        FrequencyHopper::default().channels().to_vec(),
                        SimDuration::from_millis(*ms),
                    ),
                    None => FrequencyHopper::default(),
                };
                Box::new(hopper.stage())
            }
        })
    }
}

/// Builds the morphing stage for the context's application: the target CDF
/// comes from a generated session of the morphing target (the paper's pairing
/// unless overridden), the source CDF from the materialised trace when one is
/// given or from a generated calibration session otherwise. Seeding matches
/// the historical hand-coded pipeline exactly. An empty session is an error.
fn morphing_stage(
    target: &Option<AppKind>,
    ctx: &StageContext<'_>,
) -> Result<MorphingStage, String> {
    let target_app = target.unwrap_or_else(|| paper_morphing_target(ctx.app));
    let target_trace =
        SessionGenerator::new(target_app, ctx.seed ^ 0xfeed).generate_secs(ctx.calib_secs);
    let calib;
    let source = match ctx.source {
        Some(trace) => trace,
        None => {
            calib = SessionGenerator::new(ctx.app, ctx.seed ^ 0xca1b).generate_secs(ctx.calib_secs);
            &calib
        }
    };
    if target_trace.is_empty() || source.is_empty() {
        return Err(format!(
            "morphing {:?}: no packets to calibrate from (calib_secs = {}); raise calib_secs",
            ctx.app, ctx.calib_secs
        ));
    }
    let morpher = TrafficMorpher::from_target_trace(target_app, &target_trace);
    Ok(morpher.stage_for_source_trace(source))
}

impl Serialize for DefenseStageSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![("stage".to_string(), Value::Str(self.name().to_string()))];
        match self {
            DefenseStageSpec::Padding { size: Some(s) } => {
                entries.push(("size".to_string(), Value::U64(*s as u64)));
            }
            DefenseStageSpec::Morphing { target: Some(t) } => {
                entries.push(("target".to_string(), t.to_value()));
            }
            DefenseStageSpec::Pseudonym {
                period_secs: Some(secs),
            } => {
                entries.push(("period_secs".to_string(), Value::F64(*secs)));
            }
            DefenseStageSpec::FrequencyHopping { dwell_ms: Some(ms) } => {
                entries.push(("dwell_ms".to_string(), Value::U64(*ms)));
            }
            _ => {}
        }
        Value::Map(entries)
    }
}

impl Deserialize for DefenseStageSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // Both the bare tag (`"padding"`) and the parameterised table form
        // (`{ stage = "padding", size = 1576 }`) are accepted.
        let (tag, map): (&str, &[(String, Value)]) = match v {
            Value::Str(s) => (s.as_str(), &[]),
            Value::Map(m) => {
                let tag = serde::value_get(m, "stage")
                    .ok_or_else(|| Error::custom("defense stage table is missing `stage`"))?;
                match tag {
                    Value::Str(s) => (s.as_str(), m.as_slice()),
                    other => {
                        return Err(Error::custom(format!(
                            "expected stage name string, found {other:?}"
                        )))
                    }
                }
            }
            other => {
                return Err(Error::custom(format!(
                    "expected defense stage name or table, found {other:?}"
                )))
            }
        };
        let opt_f64 = |key: &str| -> Result<Option<f64>, Error> {
            serde::value_get(map, key).map(f64::from_value).transpose()
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, Error> {
            serde::value_get(map, key).map(u64::from_value).transpose()
        };
        let known = |allowed: &[&str]| serde::value_deny_unknown(map, allowed, "defense stage");
        match tag {
            "padding" | "pad" => {
                known(&["stage", "size"])?;
                Ok(DefenseStageSpec::Padding {
                    size: opt_u64("size")?.map(|s| s as usize),
                })
            }
            "morphing" | "morph" => {
                known(&["stage", "target"])?;
                Ok(DefenseStageSpec::Morphing {
                    target: serde::value_get(map, "target")
                        .map(app_from_value)
                        .transpose()?,
                })
            }
            "pseudonym" => {
                known(&["stage", "period_secs"])?;
                Ok(DefenseStageSpec::Pseudonym {
                    period_secs: opt_f64("period_secs")?,
                })
            }
            "frequency_hopping" | "fh" => {
                known(&["stage", "dwell_ms"])?;
                Ok(DefenseStageSpec::FrequencyHopping {
                    dwell_ms: opt_u64("dwell_ms")?,
                })
            }
            other => Err(Error::custom(format!("unknown defense stage `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{stage_trace, StagePipeline, ROOT_FLOW};
    use traffic_gen::MAX_PACKET_SIZE;

    fn trace() -> Trace {
        SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(20.0)
    }

    #[test]
    fn padding_spec_builds_the_default_padder() {
        let trace = trace();
        let ctx = StageContext::live(AppKind::BitTorrent, 1, 20.0);
        let mut stage = DefenseStageSpec::Padding { size: None }
            .build(&ctx)
            .unwrap();
        let out = stage_trace(stage.as_mut(), &trace);
        assert_eq!(out.len(), trace.len());
        assert!(out.iter().all(|(_, p)| p.size == MAX_PACKET_SIZE));
        let mut sized = DefenseStageSpec::Padding { size: Some(400) }
            .build(&ctx)
            .unwrap();
        let out = stage_trace(sized.as_mut(), &trace);
        assert!(out.iter().all(|(_, p)| p.size >= 400.min(MAX_PACKET_SIZE)));
    }

    #[test]
    fn seeded_spec_stages_match_their_hand_coded_constructions() {
        // The contract the scenario engine rests on: a spec-built stage is
        // byte-identical per seed to the direct construction.
        let trace = trace();
        let ctx = StageContext {
            app: AppKind::BitTorrent,
            seed: 42,
            calib_secs: 20.0,
            source: Some(&trace),
        };
        // Pseudonym: same seed, same pseudonym draws, same partitions.
        let mut from_spec = DefenseStageSpec::Pseudonym { period_secs: None }
            .build(&ctx)
            .unwrap();
        let mut direct =
            PseudonymRotator::default().stage_with_rng(StdRng::seed_from_u64(ctx.seed));
        assert_eq!(
            stage_trace(from_spec.as_mut(), &trace),
            stage_trace(&mut direct, &trace)
        );
        // Morphing with a materialised source: same seeds, same CDFs.
        let mut from_spec = DefenseStageSpec::Morphing { target: None }
            .build(&ctx)
            .unwrap();
        let target_trace =
            SessionGenerator::new(AppKind::Video, ctx.seed ^ 0xfeed).generate_secs(20.0);
        let mut direct = TrafficMorpher::from_target_trace(AppKind::Video, &target_trace)
            .stage_for_source_trace(&trace);
        assert_eq!(
            stage_trace(from_spec.as_mut(), &trace),
            stage_trace(&mut direct, &trace)
        );
    }

    #[test]
    fn spec_stages_compose_in_a_pipeline() {
        let trace = trace();
        let ctx = StageContext::live(AppKind::BitTorrent, 9, 20.0);
        let mut pipeline = StagePipeline::new();
        pipeline.push_stage(
            DefenseStageSpec::Morphing { target: None }
                .build(&ctx)
                .unwrap(),
        );
        pipeline.push_stage(
            DefenseStageSpec::Padding { size: None }
                .build(&ctx)
                .unwrap(),
        );
        let mut out = Vec::new();
        pipeline.run(&mut trace.stream(), |flow, p| out.push((flow, *p)));
        assert_eq!(out.len(), trace.len());
        assert!(out
            .iter()
            .all(|(f, p)| *f == ROOT_FLOW && p.size == MAX_PACKET_SIZE));
    }

    #[test]
    fn morphing_with_an_empty_calibration_session_is_an_error() {
        // A millisecond of traffic holds no packet: the morphing target
        // cannot be estimated, and the error says which knob to turn.
        let ctx = StageContext::live(AppKind::Chatting, 3, 0.001);
        let err = DefenseStageSpec::Morphing { target: None }
            .build(&ctx)
            .expect_err("an empty calibration session cannot calibrate morphing");
        assert!(
            err.contains("calib_secs") && err.contains("Chatting"),
            "{err}"
        );
        // An empty materialised source trace is rejected too.
        let empty = Trace::from_packets(Some(AppKind::Chatting), Vec::new());
        let ctx = StageContext {
            source: Some(&empty),
            ..StageContext::live(AppKind::Chatting, 3, 20.0)
        };
        assert!(DefenseStageSpec::Morphing { target: None }
            .build(&ctx)
            .is_err());
    }

    #[test]
    fn specs_round_trip_through_serde_values() {
        let specs = [
            DefenseStageSpec::Padding { size: Some(1576) },
            DefenseStageSpec::Padding { size: None },
            DefenseStageSpec::Morphing {
                target: Some(AppKind::Video),
            },
            DefenseStageSpec::Pseudonym {
                period_secs: Some(30.0),
            },
            DefenseStageSpec::FrequencyHopping { dwell_ms: None },
        ];
        for spec in specs {
            let back = DefenseStageSpec::from_value(&spec.to_value()).expect("round trip");
            assert_eq!(back, spec);
        }
        // Bare tags parse too.
        assert_eq!(
            DefenseStageSpec::from_value(&Value::Str("fh".into())).unwrap(),
            DefenseStageSpec::FrequencyHopping { dwell_ms: None }
        );
        assert!(DefenseStageSpec::from_value(&Value::Str("quantum".into())).is_err());
    }
}
