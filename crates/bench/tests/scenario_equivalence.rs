//! The scenario engine's acceptance contract.
//!
//! 1. Every committed spec under `scenarios/` parses and compiles through
//!    `ScenarioSpec::build()` (what CI's `scenario_run --check` gates on).
//! 2. The committed throughput baseline carries exactly the workload that
//!    was hard-coded before the scenario engine, with its recorded defended
//!    overheads, and the pipelines built from its specs are
//!    **byte-identical** to independent hand-coded constructions of the same
//!    defenses.
//! 3. The shorthand ↔ declarative bridge round-trips every `DefenseKind`.

use bench::pipeline::DefenseKind;
use bench::scenario::{default_scenarios_dir, load_spec, spec_files, AdversaryMode, DefenseSpec};
use bench::ExperimentConfig;
use defenses::morphing::{paper_morphing_target, TrafficMorpher};
use defenses::spec::StageContext;
use defenses::stage::StagePipeline;
use defenses::{FrequencyHopper, PacketPadder, PseudonymRotator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reshape_core::ranges::SizeRanges;
use reshape_core::scheduler::{
    OrthogonalModulo, OrthogonalRanges, RandomAssign, ReshapeAlgorithm, RoundRobin,
};
use reshape_core::stage::ReshapeStage;
use traffic_gen::app::AppKind;
use traffic_gen::generator::SessionGenerator;
use traffic_gen::packet::PacketRecord;
use traffic_gen::trace::Trace;

#[test]
fn every_committed_scenario_spec_parses_and_builds() {
    let dir = default_scenarios_dir();
    let files = spec_files(&dir).expect("scenarios/ exists");
    assert!(
        files.len() >= 4,
        "expected the committed scenario families, found {files:?}"
    );
    for file in files {
        let spec = load_spec(&file).unwrap_or_else(|e| panic!("{e}"));
        let scenario = spec
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(scenario.station_count() > 0, "{}", file.display());
    }
}

#[test]
fn throughput_baseline_spec_pins_the_historical_bench_json_workload() {
    // The exact parameters hard-coded before the scenario engine:
    // BitTorrent seed 1 for 60 s, W = 5 s, 3 interfaces, quick()-sized
    // adversary, stations in padding/morphing/morph∘OR order.
    let spec = load_spec(&default_scenarios_dir().join("throughput_baseline.toml"))
        .expect("committed baseline parses");
    let scenario = spec.build().expect("committed baseline builds");
    assert_eq!(scenario.window.as_secs_f64(), 5.0);
    assert_eq!(scenario.calib_secs, 60.0);
    assert_eq!(scenario.adversary.mode, AdversaryMode::Batch);
    assert_eq!(scenario.adversary.train, ExperimentConfig::quick());
    let kinds: Vec<DefenseKind> = scenario
        .stations()
        .map(|s| s.defense.as_kind().expect("shorthand kinds"))
        .collect();
    assert_eq!(
        kinds,
        vec![
            DefenseKind::Padding,
            DefenseKind::Morphing,
            DefenseKind::MorphThenReshape
        ]
    );
    for station in scenario.stations() {
        assert_eq!(station.traffic.app, AppKind::BitTorrent);
        assert_eq!(station.traffic.seed, 1);
        assert_eq!(station.traffic.secs, Some(60.0));
        assert_eq!(station.interfaces, 3);
    }
    // The spec'd trace is the historical workload trace, packet for packet.
    let trace = scenario.station(0).traffic.trace();
    assert_eq!(
        trace,
        SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(60.0)
    );
    // The defended overhead of each station's pipeline, calibrated on and
    // run over that trace, as the retired throughput baseline recorded it
    // (63.76 %, 13.12 %, 13.12 %).
    let overheads: Vec<f64> = scenario
        .stations()
        .map(|station| {
            let ctx = StageContext {
                app: station.traffic.app,
                seed: station.traffic.seed,
                calib_secs: scenario.calib_secs,
                source: Some(&trace),
            };
            let mut pipeline = station
                .defense
                .build(&ctx, station.interfaces)
                .expect("valid spec");
            pipeline.run(&mut trace.stream(), |_, _| {});
            pipeline.overhead().percent()
        })
        .collect();
    assert_eq!(
        overheads,
        vec![63.75842522585885, 13.11566596613443, 13.11566596613443]
    );
}

/// Streams `trace` through `pipeline` and collects every emitted
/// `(flow, packet)` pair.
fn staged(mut pipeline: StagePipeline, trace: &Trace) -> Vec<(u32, PacketRecord)> {
    let mut out = Vec::new();
    pipeline.run(&mut trace.stream(), |flow, p| out.push((flow, *p)));
    out
}

/// The historical hand-coded pipeline of a [`DefenseKind`], reconstructed
/// independently of the declarative path (this is what
/// `bench::pipeline::defense_pipeline` did before the refactor).
fn hand_coded_pipeline(
    kind: DefenseKind,
    app: AppKind,
    interfaces: usize,
    seed: u64,
    calib_secs: f64,
    source: Option<&Trace>,
) -> StagePipeline {
    let scheduler: Option<Box<dyn ReshapeAlgorithm>> = match kind {
        DefenseKind::Random => Some(Box::new(RandomAssign::new(interfaces, seed))),
        DefenseKind::RoundRobin => Some(Box::new(RoundRobin::new(interfaces))),
        DefenseKind::Orthogonal => Some(Box::new(OrthogonalRanges::new(
            SizeRanges::for_interface_count(interfaces).expect("valid"),
        ))),
        DefenseKind::OrthogonalModulo => Some(Box::new(OrthogonalModulo::new(interfaces))),
        _ => None,
    };
    if let Some(algorithm) = scheduler {
        return StagePipeline::new().with_stage(ReshapeStage::new(algorithm));
    }
    let morphing = |app: AppKind| {
        let target_app = paper_morphing_target(app);
        let target = SessionGenerator::new(target_app, seed ^ 0xfeed).generate_secs(calib_secs);
        let morpher = TrafficMorpher::from_target_trace(target_app, &target);
        match source {
            Some(trace) => morpher.stage_for_source_trace(trace),
            None => {
                let calib = SessionGenerator::new(app, seed ^ 0xca1b).generate_secs(calib_secs);
                morpher.stage_for_source_trace(&calib)
            }
        }
    };
    match kind {
        DefenseKind::None => StagePipeline::new(),
        DefenseKind::FrequencyHopping => {
            StagePipeline::new().with_stage(FrequencyHopper::default().stage())
        }
        DefenseKind::Pseudonym => StagePipeline::new()
            .with_stage(PseudonymRotator::default().stage_with_rng(StdRng::seed_from_u64(seed))),
        DefenseKind::Padding => StagePipeline::new().with_stage(PacketPadder::new().stage()),
        DefenseKind::Morphing => StagePipeline::new().with_stage(morphing(app)),
        DefenseKind::MorphThenReshape => {
            StagePipeline::new()
                .with_stage(morphing(app))
                .with_stage(ReshapeStage::new(Box::new(OrthogonalRanges::new(
                    SizeRanges::for_interface_count(interfaces).expect("valid"),
                ))))
        }
        _ => unreachable!("reshaping kinds handled above"),
    }
}

#[test]
fn spec_built_pipelines_are_byte_identical_to_the_hand_coded_constructions() {
    let trace = SessionGenerator::new(AppKind::BitTorrent, 1).generate_secs(40.0);
    for kind in DefenseKind::ALL {
        let ctx = StageContext {
            app: AppKind::BitTorrent,
            seed: 1,
            calib_secs: 40.0,
            source: Some(&trace),
        };
        let from_spec = DefenseSpec::from_kind(kind)
            .build(&ctx, 3)
            .expect("valid spec");
        let reference = hand_coded_pipeline(kind, AppKind::BitTorrent, 3, 1, 40.0, Some(&trace));
        assert_eq!(
            staged(from_spec, &trace),
            staged(reference, &trace),
            "{kind:?}: spec-built pipeline diverged from the historical construction"
        );
    }
}

#[test]
fn kind_round_trips_through_the_declarative_form() {
    for kind in DefenseKind::ALL {
        let spec = DefenseSpec::from_kind(kind);
        assert_eq!(spec.as_kind(), Some(kind));
    }
    // A custom stage list is NOT a shorthand kind.
    let custom = DefenseSpec {
        stages: vec![bench::scenario::StageSpec::Defense(
            defenses::spec::DefenseStageSpec::Padding { size: Some(400) },
        )],
    };
    assert_eq!(custom.as_kind(), None);
}
