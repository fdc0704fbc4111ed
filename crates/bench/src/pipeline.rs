//! The evaluation pipeline shared by every table experiment.
//!
//! 1. Train the adversary (SVM + NN ensemble) on *original*, un-defended
//!    traffic, cut into eavesdropping windows of `W` seconds.
//! 2. Apply a defense to each evaluation trace, producing the sub-flows the
//!    adversary actually observes (one per virtual interface / channel / MAC
//!    pseudonym, or the trace itself when no defense is active).
//! 3. Window each observed sub-flow, classify every window, and score the
//!    prediction against the ground-truth application of the original trace.
//!
//! That is exactly the paper's methodology: the adversary knows what original
//! application traffic looks like, and the defense succeeds when per-interface
//! sub-flows no longer resemble it.
//!
//! The tables run on the station machine: [`evaluate_defense`] runs each
//! evaluation trace as one [`StationRun`] on [`Executor::Pooled`], scored
//! per member by a [`MemberScorer`]. [`defended_examples`] (per packet) and
//! [`apply_defense`] (batch wrappers) remain as references; the online
//! evaluation also uses [`defended_examples`], because its one learner must
//! see windows interleaved across traces.

use classifier::ensemble::{AdversaryEnsemble, EnsembleConfig};
use classifier::features::FEATURE_DIM;
use classifier::metrics::ConfusionMatrix;
use classifier::online::{OnlineAdversary, PrequentialEvaluator, SegmentStats};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::{build_dataset, FeatureMode, DEFAULT_MIN_PACKETS};
use defenses::frequency_hopping::FrequencyHopper;
use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::padding::PacketPadder;
use defenses::pseudonym::PseudonymRotator;
use defenses::spec::StageContext;
use defenses::stage::{FlowId, StagePipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reshape_core::reshaper::Reshaper;
use serde::{Deserialize, Serialize};
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::trace::Trace;

use crate::corpus::ExperimentConfig;
use crate::scenario::{AlgorithmSpec, DefenseSpec};
use crate::streaming::vtime::pooled;
use crate::streaming::{Executor, MemberScorer, StationRun};

/// The defenses compared by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefenseKind {
    /// No defense: the adversary sees the original traffic.
    None,
    /// Frequency hopping over channels 1/6/11 with a 500 ms dwell.
    FrequencyHopping,
    /// Random assignment over virtual interfaces (RA).
    Random,
    /// Round-robin assignment over virtual interfaces (RR).
    RoundRobin,
    /// Orthogonal Reshaping over packet-size ranges (OR).
    Orthogonal,
    /// The size-modulo OR variant of Fig. 5.
    OrthogonalModulo,
    /// MAC pseudonym rotation (per-60 s address change).
    Pseudonym,
    /// Packet padding to the maximum packet size.
    Padding,
    /// Traffic morphing using the paper's application pairing.
    Morphing,
    /// The composed defense∘reshape scenario: morph toward the paper's
    /// pairing target first, then reshape the morphed stream with OR — a
    /// two-stage pipeline (§V-C's composition idea, streamed end to end).
    MorphThenReshape,
}

impl DefenseKind {
    /// The four scheduling algorithms of Tables II/III, in paper order
    /// (plus the undefended baseline first).
    pub const TABLE23: [DefenseKind; 5] = [
        DefenseKind::None,
        DefenseKind::FrequencyHopping,
        DefenseKind::Random,
        DefenseKind::RoundRobin,
        DefenseKind::Orthogonal,
    ];

    /// Every defense kind, in paper/table order.
    pub const ALL: [DefenseKind; 10] = [
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
    ];

    /// The column label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            DefenseKind::None => "Original",
            DefenseKind::FrequencyHopping => "FH",
            DefenseKind::Random => "RA",
            DefenseKind::RoundRobin => "RR",
            DefenseKind::Orthogonal => "OR",
            DefenseKind::OrthogonalModulo => "OR-mod",
            DefenseKind::Pseudonym => "Pseudonym",
            DefenseKind::Padding => "Padding",
            DefenseKind::Morphing => "Morphing",
            DefenseKind::MorphThenReshape => "Morph+OR",
        }
    }
}

impl std::str::FromStr for DefenseKind {
    type Err = String;

    /// Parses the shorthand used by scenario spec files (table labels and
    /// snake_case aliases both work).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.trim().to_ascii_lowercase();
        let kind = match lowered.as_str() {
            "none" | "original" => DefenseKind::None,
            "fh" | "frequency_hopping" => DefenseKind::FrequencyHopping,
            "ra" | "random" => DefenseKind::Random,
            "rr" | "round_robin" => DefenseKind::RoundRobin,
            "or" | "orthogonal" => DefenseKind::Orthogonal,
            "or_mod" | "or-mod" | "orthogonal_modulo" => DefenseKind::OrthogonalModulo,
            "pseudonym" => DefenseKind::Pseudonym,
            "padding" => DefenseKind::Padding,
            "morphing" => DefenseKind::Morphing,
            "morph_or" | "morph+or" | "morph_then_reshape" => DefenseKind::MorphThenReshape,
            _ => return Err(format!("unknown defense kind: {s:?}")),
        };
        Ok(kind)
    }
}

/// Trains the paper's adversary on original traffic windows.
pub fn train_adversary(config: &ExperimentConfig, mode: FeatureMode) -> AdversaryEnsemble {
    let training = config.training_corpus();
    let dataset = build_dataset(&training, config.window(), DEFAULT_MIN_PACKETS, mode);
    AdversaryEnsemble::train(
        &dataset,
        &EnsembleConfig {
            seed: config.train_seed ^ 0xD15C,
            ..EnsembleConfig::default()
        },
    )
}

/// Builds the streaming stage pipeline of any defense: the kind expands to
/// its [`DefenseSpec`] stage list, built with the same construction (and the
/// same seeds) the scenario engine uses for spec files.
///
/// `calib_secs` sizes the generated calibration sessions the morphing stages
/// need (the paper's training-session length); `source` optionally provides
/// the materialised trace so batch-equivalent runs estimate the morphing
/// source CDF from the actual traffic, exactly like the batch wrapper.
/// Panics if the pipeline cannot be built (an interface count orthogonal
/// reshaping does not support, or an empty morphing calibration session).
pub fn defense_pipeline(
    defense: DefenseKind,
    app: AppKind,
    interfaces: usize,
    seed: u64,
    calib_secs: f64,
    source: Option<&Trace>,
) -> StagePipeline {
    let ctx = StageContext {
        app,
        seed,
        calib_secs,
        source,
    };
    DefenseSpec::from_kind(defense)
        .build(&ctx, interfaces)
        .unwrap_or_else(|e| panic!("{}: {e}", defense.label()))
}

/// Applies a defense to one labelled trace, returning the sub-flows the
/// adversary observes. Each sub-flow keeps the ground-truth label so the
/// evaluation can score predictions.
///
/// This is the **batch reference** built on the per-defense batch wrappers
/// (`apply` / `partition` / `Reshaper`), kept so the equivalence tests can
/// check the streaming path against an independent composition; the
/// evaluation itself never calls it.
pub fn apply_defense(
    trace: &Trace,
    defense: DefenseKind,
    config: &ExperimentConfig,
    seed: u64,
) -> Vec<Trace> {
    let reshape = |algorithm: AlgorithmSpec, trace: &Trace| {
        let scheduler = algorithm
            .build(config.interfaces, seed)
            .expect("experiment interface count is valid");
        Reshaper::new(scheduler)
            .reshape(trace)
            .sub_traces()
            .to_vec()
    };
    match defense {
        DefenseKind::None => vec![trace.clone()],
        DefenseKind::FrequencyHopping => FrequencyHopper::default()
            .partition(trace)
            .into_iter()
            .map(|(_, t)| t)
            .collect(),
        DefenseKind::Pseudonym => {
            let mut rng = StdRng::seed_from_u64(seed);
            PseudonymRotator::default()
                .partition(trace, &mut rng)
                .into_iter()
                .map(|(_, t)| t)
                .collect()
        }
        DefenseKind::Padding => vec![PacketPadder::new().apply(trace).0],
        DefenseKind::Morphing => vec![morphed_reference(trace, config, seed)],
        DefenseKind::MorphThenReshape => reshape(
            AlgorithmSpec::Orthogonal,
            &morphed_reference(trace, config, seed),
        ),
        DefenseKind::Random => reshape(AlgorithmSpec::Random, trace),
        DefenseKind::RoundRobin => reshape(AlgorithmSpec::RoundRobin, trace),
        DefenseKind::Orthogonal => reshape(AlgorithmSpec::Orthogonal, trace),
        DefenseKind::OrthogonalModulo => reshape(AlgorithmSpec::OrthogonalModulo, trace),
    }
}

/// The batch morphing reference: the paper pairing with the same seeds as the
/// streaming morphing stage.
fn morphed_reference(trace: &Trace, config: &ExperimentConfig, seed: u64) -> Trace {
    let app = trace.app().expect("evaluation traces are labelled");
    let target_app = paper_morphing_target(app);
    let target_trace =
        SessionGenerator::new(target_app, seed ^ 0xfeed).generate_secs(config.train_session_secs);
    TrafficMorpher::from_target_trace(target_app, &target_trace)
        .apply(trace)
        .0
}

/// Streams one evaluation trace through a defense, one packet at a time,
/// into one windower per emitted sub-flow, and returns every window example
/// the adversary observes: the per-packet reference of [`evaluate_defense`].
/// Unlabelled traces yield no examples.
pub fn defended_examples(
    trace: &Trace,
    defense: DefenseKind,
    config: &ExperimentConfig,
    seed: u64,
    mode: FeatureMode,
) -> Vec<WindowExample> {
    let Some(app) = trace.app() else {
        return Vec::new();
    };
    let mut pipeline = defense_pipeline(
        defense,
        app,
        config.interfaces,
        seed,
        config.train_session_secs,
        Some(trace),
    );
    let mut windowers = FlowWindowers::for_app(config.window(), DEFAULT_MIN_PACKETS, mode, app);
    let mut out = Vec::new();
    pipeline.run(&mut trace.stream(), |flow: FlowId, packet| {
        if let Some(example) = windowers.push(flow as usize, packet) {
            out.push(example);
        }
    });
    out.extend(windowers.finish());
    out
}

/// Evaluates one defense: the adversary classifies every window of every
/// observed sub-flow, and its best member's confusion matrix (the paper's
/// best-classifier convention) is returned, covering all seven classes.
///
/// Each labelled trace runs as one [`StationRun`] on [`Executor::Pooled`],
/// its defense pipeline seeded per trace index and calibrated on the trace.
/// The per-member matrices of the stations are summed in trace order, so
/// the outcome does not depend on thread scheduling.
pub fn evaluate_defense(
    adversary: &AdversaryEnsemble,
    eval_traces: &[Trace],
    defense: DefenseKind,
    config: &ExperimentConfig,
    mode: FeatureMode,
) -> ConfusionMatrix {
    let labelled: Vec<(usize, &Trace, AppKind)> = eval_traces
        .iter()
        .enumerate()
        .filter_map(|(i, trace)| Some((i, trace, trace.app()?)))
        .collect();
    let station = |k: usize| {
        let (i, trace, app) = labelled[k];
        let seed = config.eval_seed ^ ((i as u64) << 8);
        let pipeline = defense_pipeline(
            defense,
            app,
            config.interfaces,
            seed,
            config.train_session_secs,
            Some(trace),
        );
        StationRun::from_source(app, trace.stream())
            .phases(vec![(0.0, pipeline)])
            .window(config.window())
            .feature_mode(mode)
    };
    let stations = Executor::Pooled
        .run(
            labelled.len(),
            station,
            |_| MemberScorer::new(adversary),
            |_, _, scorer| scorer.into_results(),
        )
        .expect("pre-built phases cannot fail");
    let mut members = MemberScorer::new(adversary).into_results();
    for station in &stations.results {
        for ((_, sum), (_, matrix)) in members.iter_mut().zip(station) {
            sum.merge(matrix);
        }
    }
    AdversaryEnsemble::best_of(members).1
}

/// Interleaves per-trace example shards round-robin (first window of every
/// trace, then second window of every trace, …), which is the order a live
/// eavesdropper watching all sessions concurrently would see windows close.
/// An online learner must not receive the stream sorted by application.
fn interleave_shards(shards: Vec<Vec<WindowExample>>) -> Vec<WindowExample> {
    let total: usize = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut shards: Vec<std::vec::IntoIter<WindowExample>> =
        shards.into_iter().map(Vec::into_iter).collect();
    while out.len() < total {
        for shard in &mut shards {
            if let Some(example) = shard.next() {
                out.push(example);
            }
        }
    }
    out
}

/// The result of one online (prequential) evaluation phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineEvaluation {
    /// Majority-vote confusion matrix over **this phase's** examples only,
    /// widened to all seven classes like the batch matrices.
    pub matrix: ConfusionMatrix,
    /// Prequential counts of this phase, including per-member hits.
    pub segment: SegmentStats,
}

impl OnlineEvaluation {
    /// The phase's majority-vote mean accuracy (the paper's metric).
    pub fn mean_accuracy(&self) -> f64 {
        self.matrix.mean_accuracy()
    }
}

/// Creates the untrained online counterpart of [`train_adversary`]'s
/// ensemble: same members, same seeding rule, but learning one window at a
/// time behind a running normalizer.
pub fn online_adversary(config: &ExperimentConfig) -> OnlineAdversary {
    OnlineAdversary::new(
        FEATURE_DIM,
        AppKind::COUNT,
        &EnsembleConfig {
            seed: config.train_seed ^ 0xD15C,
            ..EnsembleConfig::default()
        },
    )
}

/// Trains the streaming adversary prequentially on the **undefended**
/// training corpus — the online-mode analogue of [`train_adversary`]. The
/// returned evaluator carries the warm adversary plus the accuracy timeline
/// of the warm-up phase; chain [`evaluate_defense_online`] calls on it to
/// score defenses.
pub fn train_adversary_online(
    config: &ExperimentConfig,
    mode: FeatureMode,
) -> PrequentialEvaluator {
    let mut evaluator = PrequentialEvaluator::new(online_adversary(config), 25);
    let training = config.training_corpus();
    evaluate_defense_online(
        &mut evaluator,
        &training,
        DefenseKind::None,
        config,
        config.train_seed,
        mode,
    );
    evaluator
}

/// Evaluates one defense in **online-adversary mode**: the defended window
/// examples of all evaluation traces ([`defended_examples`], one trace per
/// task on the work-stealing pool) are interleaved round-robin (the order a
/// live eavesdropper sees windows close across concurrent sessions) and
/// scored test-then-train through the evaluator's adversary, which keeps
/// learning as it scores.
///
/// Returns this phase's confusion matrix and segment counts; cumulative
/// state (matrices, timeline, the adversary itself) stays on `evaluator`, so
/// phases chain: warm up on undefended traffic, then splice in a defense and
/// watch the prequential curve drop.
pub fn evaluate_defense_online(
    evaluator: &mut PrequentialEvaluator,
    eval_traces: &[Trace],
    defense: DefenseKind,
    config: &ExperimentConfig,
    seed_base: u64,
    mode: FeatureMode,
) -> OnlineEvaluation {
    let shards = pooled(eval_traces.len(), |i| {
        let seed = seed_base ^ ((i as u64) << 8);
        defended_examples(&eval_traces[i], defense, config, seed, mode)
    });
    let stream = interleave_shards(shards);
    let mut matrix = ConfusionMatrix::new(AppKind::COUNT);
    // Start a fresh segment for this phase.
    let _ = evaluator.take_segment();
    for (features, label) in &stream {
        let predicted = evaluator.test_then_train(features, *label);
        matrix.record(*label, predicted);
    }
    OnlineEvaluation {
        matrix,
        segment: evaluator.take_segment(),
    }
}

/// Convenience wrapper: train the adversary and evaluate a set of defenses,
/// returning `(defense, confusion matrix)` pairs.
pub fn run_defense_comparison(
    config: &ExperimentConfig,
    defenses: &[DefenseKind],
    mode: FeatureMode,
) -> Vec<(DefenseKind, ConfusionMatrix)> {
    let adversary = train_adversary(config, mode);
    let eval = config.evaluation_corpus();
    defenses
        .iter()
        .map(|&d| (d, evaluate_defense(&adversary, &eval, d, config, mode)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use classifier::dataset::Dataset;
    use classifier::window::windowed_examples;

    #[test]
    fn streaming_evaluation_sees_the_same_windows_as_the_batch_path() {
        // The unified stage-pipeline evaluation must observe exactly the
        // windows the independent batch reference (per-defense wrappers ->
        // sub-traces -> windowed_examples) does — for every defense,
        // including the composed morph-then-reshape pipeline.
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(40.0);
        for defense in [
            DefenseKind::None,
            DefenseKind::Random,
            DefenseKind::RoundRobin,
            DefenseKind::Orthogonal,
            DefenseKind::OrthogonalModulo,
            DefenseKind::FrequencyHopping,
            DefenseKind::Pseudonym,
            DefenseKind::Padding,
            DefenseKind::Morphing,
            DefenseKind::MorphThenReshape,
        ] {
            let streamed = defended_examples(&trace, defense, &config, 1, FeatureMode::Full);
            let batch: usize = apply_defense(&trace, defense, &config, 1)
                .iter()
                .map(|observed| {
                    windowed_examples(
                        observed,
                        config.window(),
                        DEFAULT_MIN_PACKETS,
                        FeatureMode::Full,
                    )
                    .len()
                })
                .sum();
            assert_eq!(streamed.len(), batch, "{defense:?} window counts diverge");
            assert!(!streamed.is_empty(), "{defense:?} produced no examples");
        }
    }

    #[test]
    fn evaluate_defense_matches_the_per_packet_reference() {
        // The station-run evaluation against the per-packet reference
        // (defended_examples on one thread, one Dataset, evaluate_best) for
        // every defense kind in both feature modes. An unlabelled trace in
        // the middle of the slice contributes no window but keeps its index,
        // so the traces after it keep their seeds.
        let config = ExperimentConfig::quick();
        let mut eval = config.evaluation_corpus();
        let unlabelled = Trace::from_packets(None, eval[0].packets().to_vec());
        eval.insert(eval.len() / 2, unlabelled.clone());
        for mode in [FeatureMode::Full, FeatureMode::TimingOnly] {
            let adversary = train_adversary(&config, mode);
            for defense in DefenseKind::ALL {
                let mut dataset = Dataset::new(FEATURE_DIM);
                for (i, trace) in eval.iter().enumerate() {
                    let seed = config.eval_seed ^ ((i as u64) << 8);
                    for (features, label) in defended_examples(trace, defense, &config, seed, mode)
                    {
                        dataset.push(features, label);
                    }
                }
                assert!(!dataset.is_empty(), "{defense:?}/{mode:?}: no windows");
                let (_, reference) = adversary.evaluate_best(&dataset);
                let got = evaluate_defense(&adversary, &eval, defense, &config, mode);
                assert_eq!(
                    got,
                    reference.widen_to(AppKind::COUNT),
                    "{defense:?}/{mode:?}"
                );
            }
            let nothing = evaluate_defense(
                &adversary,
                std::slice::from_ref(&unlabelled),
                DefenseKind::Orthogonal,
                &config,
                mode,
            );
            assert_eq!(nothing, ConfusionMatrix::new(AppKind::COUNT));
        }
    }

    #[test]
    fn defense_labels_are_unique() {
        let labels: Vec<&str> = DefenseKind::TABLE23.iter().map(|d| d.label()).collect();
        assert_eq!(labels, vec!["Original", "FH", "RA", "RR", "OR"]);
        assert_eq!(DefenseKind::Padding.label(), "Padding");
        assert_eq!(DefenseKind::MorphThenReshape.label(), "Morph+OR");
    }

    #[test]
    fn apply_defense_preserves_packets_for_partitioning_defenses() {
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::BitTorrent, 5).generate_secs(20.0);
        for defense in [
            DefenseKind::None,
            DefenseKind::FrequencyHopping,
            DefenseKind::Random,
            DefenseKind::RoundRobin,
            DefenseKind::Orthogonal,
            DefenseKind::OrthogonalModulo,
            DefenseKind::Pseudonym,
        ] {
            let observed = apply_defense(&trace, defense, &config, 1);
            let total: usize = observed.iter().map(Trace::len).sum();
            assert_eq!(
                total,
                trace.len(),
                "{defense:?} must not add or drop packets"
            );
        }
        // Padding, morphing and the composition keep the packet count but may
        // grow bytes.
        for defense in [
            DefenseKind::Padding,
            DefenseKind::Morphing,
            DefenseKind::MorphThenReshape,
        ] {
            let observed = apply_defense(&trace, defense, &config, 1);
            let total: usize = observed.iter().map(Trace::len).sum();
            assert_eq!(total, trace.len());
            let bytes: u64 = observed.iter().map(Trace::total_bytes).sum();
            assert!(bytes >= trace.total_bytes());
        }
    }

    #[test]
    fn composed_pipeline_reports_overhead_through_the_shared_ledger() {
        // Morph-then-reshape: the pipeline ledger shows the morphing bytes
        // (reshaping adds none), and the per-stage ledgers agree.
        let config = ExperimentConfig::quick();
        let trace = SessionGenerator::new(AppKind::Chatting, 9).generate_secs(40.0);
        let mut pipeline = defense_pipeline(
            DefenseKind::MorphThenReshape,
            AppKind::Chatting,
            config.interfaces,
            7,
            config.train_session_secs,
            Some(&trace),
        );
        let mut emitted = 0usize;
        pipeline.run(&mut trace.stream(), |_, _| emitted += 1);
        assert_eq!(emitted, trace.len());
        let end_to_end = pipeline.overhead();
        assert!(end_to_end.percent() > 0.0, "morphing chat adds bytes");
        assert_eq!(end_to_end.added_packets(), 0);
        let morph = pipeline.stages()[0].overhead();
        let reshape = pipeline.stages()[1].overhead();
        assert_eq!(end_to_end.added_bytes(), morph.added_bytes());
        assert_eq!(reshape.percent(), 0.0, "reshaping is zero-overhead");
        assert_eq!(reshape.original_bytes, morph.transformed_bytes);
    }

    #[test]
    fn composed_overhead_covers_each_components_contribution() {
        // Regression for the observation that morphing and morph∘OR report
        // the *same* overhead percentage (13.12 on the throughput baseline).
        // Verified correct, not a ledger bug: ReshapeStage records every
        // byte through its own ledger (absorbed == emitted) but adds none,
        // so the composed end-to-end overhead equals the morphing
        // contribution exactly. The invariant this pins: wherever padding
        // (or any byte-adding stage) applies, the composed pipeline's
        // overhead is at least every component's added bytes.
        use crate::scenario::{AlgorithmSpec, DefenseSpec, StageSpec};
        use defenses::spec::{DefenseStageSpec, StageContext};

        let trace = SessionGenerator::new(AppKind::BitTorrent, 3).generate_secs(40.0);
        let ctx = StageContext {
            app: AppKind::BitTorrent,
            seed: 3,
            calib_secs: 40.0,
            source: Some(&trace),
        };
        let pad = StageSpec::Defense(DefenseStageSpec::Padding { size: None });
        let morph = StageSpec::Defense(DefenseStageSpec::Morphing { target: None });
        let or = StageSpec::Reshape {
            algorithm: AlgorithmSpec::Orthogonal,
            interfaces: None,
        };
        for stages in [
            vec![pad, or],    // pad upstream of the dispatcher
            vec![or, pad],    // per-vif padding downstream
            vec![morph, or],  // the paper's composition
            vec![morph, pad], // two byte-adding stages chained
        ] {
            let labels: Vec<_> = stages.iter().map(StageSpec::name).collect();
            let mut pipeline = DefenseSpec { stages }
                .build(&ctx, 3)
                .expect("valid composition");
            let mut emitted = 0usize;
            pipeline.run(&mut trace.stream(), |_, _| emitted += 1);
            assert_eq!(emitted, trace.len(), "{labels:?}");
            let end_to_end = pipeline.overhead();
            assert!(end_to_end.added_bytes() > 0, "{labels:?} adds bytes");
            for (stage, label) in pipeline.stages().iter().zip(&labels) {
                let component = stage.overhead();
                // Every stage accounts every byte it saw...
                assert!(component.original_bytes > 0, "{labels:?}/{label} ledger");
                // ...and the composition never under-reports a component.
                assert!(
                    end_to_end.added_bytes() >= component.added_bytes(),
                    "{labels:?}: end-to-end {} < component {label} {}",
                    end_to_end.added_bytes(),
                    component.added_bytes()
                );
            }
        }

        // The observed equality itself, pinned: morph∘OR costs exactly what
        // morphing alone costs, because the reshape stage is zero-overhead
        // while still recording every byte through the shared ledger.
        let run_overhead = |defense: DefenseKind| {
            let mut pipeline =
                defense_pipeline(defense, AppKind::BitTorrent, 3, 3, 40.0, Some(&trace));
            pipeline.run(&mut trace.stream(), |_, _| {});
            pipeline.overhead()
        };
        let morphing_only = run_overhead(DefenseKind::Morphing);
        let composed = run_overhead(DefenseKind::MorphThenReshape);
        assert_eq!(morphing_only.added_bytes(), composed.added_bytes());
        assert_eq!(morphing_only.percent(), composed.percent());
    }

    #[test]
    fn adversary_identifies_original_traffic_far_better_than_chance() {
        let config = ExperimentConfig::quick();
        let adversary = train_adversary(&config, FeatureMode::Full);
        let eval = config.evaluation_corpus();
        let matrix = evaluate_defense(
            &adversary,
            &eval,
            DefenseKind::None,
            &config,
            FeatureMode::Full,
        );
        let acc = matrix.mean_accuracy();
        assert!(
            acc > 0.5,
            "mean accuracy on original traffic {acc} should beat chance (1/7)"
        );
    }

    #[test]
    fn online_prequential_accuracy_converges_to_the_batch_ensemble() {
        // The acceptance criterion of the online-adversary refactor: on the
        // same seeded undefended workload, the prequential (online) ensemble
        // converges to within 5 percentage points of the batch-trained
        // ensemble.
        let config = ExperimentConfig {
            train_sessions: 4,
            train_session_secs: 90.0,
            eval_sessions: 2,
            eval_session_secs: 60.0,
            ..ExperimentConfig::quick()
        };
        let mode = FeatureMode::Full;
        let eval = config.evaluation_corpus();

        let batch = train_adversary(&config, mode);
        let batch_acc =
            evaluate_defense(&batch, &eval, DefenseKind::None, &config, mode).mean_accuracy();

        let mut evaluator = train_adversary_online(&config, mode);
        let warmup_examples = evaluator.examples();
        assert!(
            warmup_examples > 100,
            "warm-up saw {warmup_examples} windows"
        );
        let online = evaluate_defense_online(
            &mut evaluator,
            &eval,
            DefenseKind::None,
            &config,
            config.eval_seed,
            mode,
        );
        let online_acc = online.mean_accuracy();
        eprintln!("batch mean accuracy {batch_acc:.3}, online mean accuracy {online_acc:.3}");
        assert!(
            online_acc >= batch_acc - 0.05,
            "online mean accuracy {online_acc:.3} must converge to within 5pp \
             of the batch ensemble {batch_acc:.3}"
        );
        // The phase bookkeeping is consistent: segment counts cover exactly
        // the evaluation stream.
        assert_eq!(online.segment.total, online.matrix.total());
        assert_eq!(evaluator.examples(), warmup_examples + online.segment.total);
    }

    #[test]
    fn adaptive_adversary_beats_the_frozen_one_on_the_throughput_baseline() {
        // The committed `throughput_baseline.toml` adversary config against
        // its padding and morph∘OR stations: the batch ensemble is frozen
        // after training, the prequential one keeps learning as it scores.
        // The four mean accuracies are deterministic per seed and pinned
        // exactly; the adaptive adversary must beat the frozen one on both.
        use crate::scenario::{default_scenarios_dir, load_spec};

        let spec = load_spec(&default_scenarios_dir().join("throughput_baseline.toml"))
            .expect("committed spec loads");
        let config = spec.adversary.train;
        let mode = FeatureMode::Full;
        let eval = config.evaluation_corpus();
        let batch_adversary = train_adversary(&config, mode);
        let warm = train_adversary_online(&config, mode);
        for (defense, want_batch, want_online) in [
            (
                DefenseKind::Padding,
                0.14285714285714285,
                0.5178571428571429,
            ),
            (
                DefenseKind::MorphThenReshape,
                0.22261904761904763,
                0.5351190476190476,
            ),
        ] {
            let batch =
                evaluate_defense(&batch_adversary, &eval, defense, &config, mode).mean_accuracy();
            let mut evaluator = warm.clone();
            let online = evaluate_defense_online(
                &mut evaluator,
                &eval,
                defense,
                &config,
                config.eval_seed,
                mode,
            )
            .mean_accuracy();
            assert_eq!(batch, want_batch, "{defense:?}: batch mean accuracy");
            assert_eq!(online, want_online, "{defense:?}: online mean accuracy");
            assert!(
                online > batch,
                "{defense:?}: online {online:.3} must beat batch {batch:.3}"
            );
        }
    }

    #[test]
    fn orthogonal_reshaping_hurts_the_adversary_more_than_round_robin() {
        let config = ExperimentConfig::quick();
        let results = run_defense_comparison(
            &config,
            &[
                DefenseKind::None,
                DefenseKind::RoundRobin,
                DefenseKind::Orthogonal,
            ],
            FeatureMode::Full,
        );
        let acc: Vec<f64> = results.iter().map(|(_, m)| m.mean_accuracy()).collect();
        // Original >= RR accuracy >= OR accuracy (with a small tolerance for noise).
        assert!(
            acc[0] > acc[2],
            "original {} must beat OR {}",
            acc[0],
            acc[2]
        );
        assert!(
            acc[1] > acc[2] - 0.05,
            "RR {} should not be (much) worse than OR {}",
            acc[1],
            acc[2]
        );
    }
}
