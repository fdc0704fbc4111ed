//! Streaming evaluation: one [`StationRun`] description, two [`Executor`]s.
//!
//! The batch pipeline materialises every session as a [`Trace`] before it can
//! defend or window it, which caps session length by memory and forces one
//! station at a time. Everything here runs the full Fig. 3 data path online
//! instead — lazy generator → defense [`StagePipeline`] (any composition of
//! padding/morphing/pseudonym/FH/reshaping stages) → per-sub-flow windower
//! bank → adversary — so a session can span hours in O(stages + sub-flows)
//! memory.
//!
//! The API is one configuration space, split along three axes:
//!
//! * **What to evaluate** — a [`StationRun`]: traffic (or an external packet
//!   source), a defense schedule (initial defense plus any number of
//!   splices), the eavesdropping window, feature mode and arrival time.
//! * **Who scores it** — a [`WindowScorer`]: the frozen batch ensemble
//!   ([`FrozenScorer`]) or a live per-station
//!   [`PrequentialEvaluator`](classifier::online::PrequentialEvaluator)
//!   fork that tests-then-trains and reports per-phase segments.
//! * **Where it executes** — an [`Executor`]: [`Executor::Pooled`] streams
//!   each station to completion on the bounded work-stealing pool;
//!   [`Executor::VirtualTime`] interleaves stations on per-worker event
//!   heaps keyed on virtual timestamps, admitting and retiring them by
//!   schedule so a million-station day fits in O(active stations) memory.
//!   Per-station reports are identical either way (and for any worker
//!   count) — stations share no mutable state.
//!
//! Windows closed inside a drain slice are buffered by the machine and
//! flushed through [`WindowScorer::score_slice`] in [`WINDOW_BATCH`]-sized
//! blocks (override per run with
//! [`StationRun::window_batch`]) — batch scorers amortise ensemble inference
//! across a block, live scorers keep exact test-then-train order, and
//! reports are bit-identical for every batch size.
//!
//! [`Trace`]: traffic_gen::trace::Trace
//! [`StagePipeline`]: defenses::stage::StagePipeline

mod machine;
mod run;
mod vtime;

pub use machine::{FrozenScorer, PhaseReport, ScheduledReport, WindowScorer, WINDOW_BATCH};
pub use run::{StationRun, STATION_CALIB_SECS};
pub use vtime::{ExecutionOutcome, Executor, ExecutorStats};

use crate::pipeline::DefenseKind;
use crate::scenario::spec::DefenseSpec;
use classifier::online::PrequentialPoint;
use defenses::overhead::Overhead;
use traffic_gen::app::AppKind;
use traffic_gen::spec::TrafficSpec;

/// One station of a multi-station streaming scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationSpec {
    /// The application the station runs.
    pub app: AppKind,
    /// Seed of the station's traffic stream (and of seeded stages).
    pub seed: u64,
    /// The defense pipeline protecting the station — any [`DefenseKind`],
    /// including the composed morph-then-reshape pipeline.
    pub defense: DefenseKind,
    /// Number of virtual interfaces for the reshaping stages.
    pub interfaces: usize,
    /// Session length in seconds. Streaming keeps memory flat, so this can be
    /// hours — far past what a materialised trace would tolerate.
    pub session_secs: f64,
}

impl StationSpec {
    /// The spec as a [`StationRun`] builder.
    pub fn to_run(&self) -> StationRun<'static> {
        StationRun::new(TrafficSpec::bounded(self.app, self.seed, self.session_secs))
            .defense(DefenseSpec::from_kind(self.defense))
            .interfaces(self.interfaces)
    }
}

/// What one station's streamed session looked like to the adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct StationReport {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// Packets that left the station's defense pipeline.
    pub packets: u64,
    /// Bytes that left the pipeline (equals the generated bytes for
    /// zero-overhead defenses; larger under padding/morphing).
    pub bytes: u64,
    /// The defense pipeline's end-to-end overhead ledger.
    pub overhead: Overhead,
    /// Windows the adversary could classify across all sub-flows.
    pub windows: usize,
    /// Windows the adversary identified correctly (majority vote).
    pub windows_identified: usize,
}

impl StationReport {
    /// The adversary's per-station recognition rate (0 when no windows).
    pub fn identification_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.windows_identified as f64 / self.windows as f64
        }
    }
}

/// What one station's streamed session looked like to a **live, learning**
/// adversary: the [`StationReport`] counters plus the station's own
/// prequential identification trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStationReport {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// Packets that left the station's defense pipeline.
    pub packets: u64,
    /// The defense pipeline's end-to-end overhead ledger.
    pub overhead: Overhead,
    /// Windows scored (test-then-train) across all sub-flows.
    pub windows: u64,
    /// Windows the live adversary identified correctly (majority vote,
    /// scored *before* learning from the window).
    pub windows_identified: u64,
    /// The station's live identification trajectory: cumulative prequential
    /// accuracy sampled every `STATION_SNAPSHOT_EVERY` windows.
    pub timeline: Vec<PrequentialPoint>,
}

impl OnlineStationReport {
    /// The live adversary's per-station recognition rate (0 when no windows).
    pub fn identification_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.windows_identified as f64 / self.windows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ExperimentConfig;
    use crate::pipeline::{defense_pipeline, train_adversary};
    use classifier::ensemble::AdversaryEnsemble;
    use classifier::online::{OnlineAdversary, PrequentialEvaluator};
    use classifier::window::FeatureMode;
    use wlan_sim::time::SimDuration;

    /// Snapshot cadence (in windows) of per-station prequential timelines.
    const STATION_SNAPSHOT_EVERY: u64 = 10;

    /// [`ScheduledReport`] → the legacy batch-mode counters.
    fn station_report(report: &ScheduledReport) -> StationReport {
        let overhead = report.overhead();
        StationReport {
            app: report.app,
            packets: overhead.transformed_packets,
            bytes: overhead.transformed_bytes,
            overhead,
            windows: report.windows() as usize,
            windows_identified: report.windows_identified() as usize,
        }
    }

    /// One spec'd station against a frozen ensemble, via the builder.
    fn frozen_station(
        spec: &StationSpec,
        adversary: &AdversaryEnsemble,
        window: SimDuration,
        mode: FeatureMode,
    ) -> StationReport {
        let report = spec
            .to_run()
            .window(window)
            .feature_mode(mode)
            .run(&mut FrozenScorer::new(adversary))
            .expect("legacy defense kinds always build");
        station_report(&report)
    }

    /// One spec'd station against a per-station fork of a live adversary,
    /// via the builder.
    fn online_station(
        spec: &StationSpec,
        base: &OnlineAdversary,
        window: SimDuration,
        mode: FeatureMode,
    ) -> OnlineStationReport {
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = spec
            .to_run()
            .window(window)
            .feature_mode(mode)
            .run(&mut evaluator)
            .expect("legacy defense kinds always build");
        let overhead = report.overhead();
        OnlineStationReport {
            app: report.app,
            packets: overhead.transformed_packets,
            overhead,
            windows: report.windows(),
            windows_identified: report.windows_identified(),
            timeline: evaluator.timeline().to_vec(),
        }
    }

    fn quick_adversary() -> AdversaryEnsemble {
        train_adversary(&ExperimentConfig::quick(), FeatureMode::Full)
    }

    fn warm_base() -> OnlineAdversary {
        crate::pipeline::train_adversary_online(&ExperimentConfig::quick(), FeatureMode::Full)
            .into_adversary()
    }

    #[test]
    fn long_session_streams_in_constant_memory() {
        // A 20-minute BitTorrent session (~100k packets): far beyond the
        // quick batch corpus (40 s sessions), streamed packet by packet.
        let adversary = quick_adversary();
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 5, 1200.0))
            .defense(DefenseSpec::from_kind(DefenseKind::Orthogonal))
            .run(&mut FrozenScorer::new(&adversary))
            .expect("OR builds on 3 interfaces");
        assert!(
            report.packets > 20_000,
            "20 min of BT should be tens of thousands of packets, got {}",
            report.packets
        );
        assert!(report.windows() > 100, "windows: {}", report.windows());
        assert!(report.windows_identified() <= report.windows());
        assert!(report.identification_rate() <= 1.0);
        assert_eq!(report.overhead().percent(), 0.0, "OR is zero-overhead");
    }

    fn mixed_specs(count: usize) -> Vec<StationSpec> {
        let kinds = [
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
        (0..count)
            .map(|i| StationSpec {
                app: AppKind::ALL[i % AppKind::COUNT],
                seed: 300 + i as u64,
                defense: kinds[i % kinds.len()],
                interfaces: 3,
                session_secs: 15.0,
            })
            .collect()
    }

    #[test]
    fn pooled_executor_matches_sequential_execution_at_scale() {
        // 48 stations across every defense kind — including the composed
        // morph-then-reshape pipeline — on a pool of at most
        // available_parallelism workers. The pool must produce exactly what
        // running each station sequentially produces, in station order.
        let adversary = quick_adversary();
        let stations = mixed_specs(48);
        let outcome = Executor::Pooled
            .run(
                stations.len(),
                |i| stations[i].to_run(),
                |_| FrozenScorer::new(&adversary),
                |_, report, _| station_report(&report),
            )
            .expect("every defense kind builds");
        assert_eq!(outcome.results.len(), stations.len());
        assert_eq!(outcome.stats.admitted, stations.len());
        let sequential: Vec<StationReport> = stations
            .iter()
            .map(|spec| {
                frozen_station(
                    spec,
                    &adversary,
                    SimDuration::from_secs(5),
                    FeatureMode::Full,
                )
            })
            .collect();
        assert_eq!(outcome.results, sequential);
        for (spec, report) in stations.iter().zip(&outcome.results) {
            assert_eq!(report.app, spec.app);
            assert!(report.packets > 0, "{:?} streamed nothing", spec.app);
        }
        // Transforming defenses report their cost through the shared ledger.
        for (spec, report) in stations.iter().zip(&outcome.results) {
            match spec.defense {
                DefenseKind::Padding => assert!(report.overhead.percent() > 0.0),
                DefenseKind::None
                | DefenseKind::FrequencyHopping
                | DefenseKind::Pseudonym
                | DefenseKind::Random
                | DefenseKind::RoundRobin
                | DefenseKind::Orthogonal
                | DefenseKind::OrthogonalModulo => {
                    assert_eq!(report.overhead.added_bytes(), 0)
                }
                DefenseKind::Morphing | DefenseKind::MorphThenReshape => {
                    assert!(report.overhead.percent() >= 0.0)
                }
            }
        }
    }

    #[test]
    fn virtual_time_matches_the_pool_and_bounds_active_stations() {
        // 24 stations arriving 20 s apart, 15 s sessions: at most two are
        // ever on air together. The event core must (a) reproduce the pool's
        // reports bit-for-bit at every worker count and (b) report a merged
        // peak-active count that is sharding-invariant and far below the
        // population.
        let adversary = quick_adversary();
        let stations = mixed_specs(24);
        let run_of = |i: usize| stations[i].to_run().arrival_secs(20.0 * i as f64);
        let baseline = Executor::Pooled
            .run(
                stations.len(),
                run_of,
                |_| FrozenScorer::new(&adversary),
                |_, report, _| station_report(&report),
            )
            .expect("every defense kind builds");
        let mut events_popped = None;
        for workers in [1usize, 2, 8] {
            let outcome = Executor::VirtualTime {
                workers: Some(workers),
                max_slice: None,
            }
            .run(
                stations.len(),
                run_of,
                |_| FrozenScorer::new(&adversary),
                |_, report, _| station_report(&report),
            )
            .expect("every defense kind builds");
            assert_eq!(
                outcome.results, baseline.results,
                "{workers}-worker virtual time diverged from the pool"
            );
            assert_eq!(outcome.stats.workers, workers);
            assert_eq!(outcome.stats.admitted, stations.len());
            assert_eq!(
                outcome.stats.peak_active, 1,
                "20 s gaps over 15 s sessions never overlap"
            );
            assert!(
                outcome.stats.virtual_secs > 20.0 * 23.0,
                "the last station arrives at 460 s, got {}",
                outcome.stats.virtual_secs
            );
            // Unbounded coalescing: one admit + one retire per station, and
            // the counters are sharding-invariant.
            assert_eq!(outcome.stats.events_popped, 2 * stations.len() as u64);
            assert_eq!(outcome.stats.packets, baseline.stats.packets);
            assert!(outcome.stats.packets_per_event() > 1.0);
            assert_eq!(
                *events_popped.get_or_insert(outcome.stats.events_popped),
                outcome.stats.events_popped,
                "events popped must not depend on the worker count"
            );
        }
        // Synchronised arrivals: everyone is on air at once.
        let all_at_once = Executor::VirtualTime {
            workers: Some(3),
            max_slice: None,
        }
        .run(
            stations.len(),
            |i| stations[i].to_run(),
            |_| FrozenScorer::new(&adversary),
            |_, report, _| station_report(&report),
        )
        .expect("every defense kind builds");
        assert_eq!(all_at_once.results, baseline.results);
        assert_eq!(all_at_once.stats.peak_active, stations.len());
    }

    #[test]
    fn online_station_pool_matches_sequential_execution() {
        // The online mode on the work-stealing pool: each station forks the
        // shared warm adversary, so pooled and sequential runs are identical.
        let base = warm_base();
        let kinds = [
            DefenseKind::None,
            DefenseKind::Orthogonal,
            DefenseKind::Padding,
            DefenseKind::MorphThenReshape,
        ];
        let stations: Vec<StationSpec> = (0..12)
            .map(|i| StationSpec {
                app: AppKind::ALL[i % AppKind::COUNT],
                seed: 900 + i as u64,
                defense: kinds[i % kinds.len()],
                interfaces: 3,
                session_secs: 30.0,
            })
            .collect();
        let window = SimDuration::from_secs(5);
        let outcome = Executor::Pooled
            .run(
                stations.len(),
                |i| stations[i].to_run().window(window),
                |_| PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY),
                |_, report, evaluator| {
                    let overhead = report.overhead();
                    OnlineStationReport {
                        app: report.app,
                        packets: overhead.transformed_packets,
                        overhead,
                        windows: report.windows(),
                        windows_identified: report.windows_identified(),
                        timeline: evaluator.timeline().to_vec(),
                    }
                },
            )
            .expect("legacy defense kinds always build");
        let pooled = outcome.results;
        let sequential: Vec<OnlineStationReport> = stations
            .iter()
            .map(|spec| online_station(spec, &base, window, FeatureMode::Full))
            .collect();
        assert_eq!(pooled, sequential);
        for (spec, report) in stations.iter().zip(&pooled) {
            assert_eq!(report.app, spec.app);
            assert!(report.packets > 0);
            assert!(report.windows_identified <= report.windows);
            assert!(report.identification_rate() <= 1.0);
        }
    }

    #[test]
    fn warm_started_live_adversary_locks_onto_an_undefended_station() {
        let base = warm_base();
        let spec = StationSpec {
            app: AppKind::BitTorrent,
            seed: 41,
            defense: DefenseKind::None,
            interfaces: 1,
            session_secs: 240.0,
        };
        let report = online_station(&spec, &base, SimDuration::from_secs(5), FeatureMode::Full);
        assert!(report.windows > 30, "windows {}", report.windows);
        assert!(
            report.identification_rate() > 0.7,
            "a warm adversary should identify an undefended station: rate {:.2}",
            report.identification_rate()
        );
        assert!(!report.timeline.is_empty());
        // The trajectory is live: sampled while the session streamed.
        assert!(report.timeline.last().expect("non-empty").examples <= report.windows);
    }

    #[test]
    fn mid_session_defense_splice_drops_the_prequential_curve() {
        // The concept-drift scenario: undefended for the first half, then OR
        // is spliced in. The live adversary's prequential accuracy over the
        // defended segment must fall below the undefended segment.
        let base = warm_base();
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 17, 240.0))
            .splice(120.0, DefenseSpec::from_kind(DefenseKind::Orthogonal))
            .run(&mut evaluator)
            .expect("OR builds on 3 interfaces");
        let pre_stats = report.phases[0].segment.as_ref().expect("live scorer");
        let post_stats = report.phases[1].segment.as_ref().expect("live scorer");
        assert!(pre_stats.total > 10, "pre windows {}", pre_stats.total);
        assert!(post_stats.total > 10, "post windows {}", post_stats.total);
        let pre = pre_stats.majority_accuracy();
        let post = post_stats.majority_accuracy();
        eprintln!("drift: pre {pre:.3}, post {post:.3}");
        assert!(
            post < pre,
            "splicing OR in mid-session must drop prequential accuracy \
             (pre {pre:.3}, post {post:.3})"
        );
        assert!(!evaluator.timeline().is_empty());
        assert!(report.packets > 1000);
    }

    #[test]
    fn splice_at_time_zero_defends_the_whole_session() {
        // Edge case: the splice fires before the first packet, so the
        // pre-splice phase is empty and the run equals a session defended
        // from the start.
        let base = warm_base();
        let traffic = TrafficSpec::bounded(AppKind::BitTorrent, 17, 120.0);
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let spliced = StationRun::new(traffic)
            .splice(0.0, DefenseSpec::from_kind(DefenseKind::Orthogonal))
            .run(&mut evaluator)
            .expect("OR builds on 3 interfaces");
        let pre = spliced.phases[0].segment.as_ref().expect("live scorer");
        let post = spliced.phases[1].segment.as_ref().expect("live scorer");
        assert_eq!(pre.total, 0, "no window closes before a t=0 splice");
        assert!(post.total > 10, "post windows {}", post.total);

        // Reference: the same session with the defense active from the start.
        let mut reference = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let single = StationRun::new(traffic)
            .defense(DefenseSpec::from_kind(DefenseKind::Orthogonal))
            .run(&mut reference)
            .expect("OR builds on 3 interfaces");
        assert_eq!(spliced.packets, single.packets);
        assert_eq!(
            Some(post),
            single.phases[0].segment.as_ref(),
            "a t=0 splice must equal running the defense from the start"
        );
    }

    #[test]
    fn non_finite_splice_times_are_errors_that_name_the_splice() {
        // Admission fails before any window is scored, so an untrained
        // adversary will do.
        let untrained = OnlineAdversary::new(
            classifier::features::FEATURE_DIM,
            AppKind::COUNT,
            &classifier::ensemble::EnsembleConfig::default(),
        );
        for at in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = StationRun::new(TrafficSpec::bounded(AppKind::Chatting, 3, 10.0))
                .splice(5.0, DefenseSpec::from_kind(DefenseKind::Padding))
                .splice(at, DefenseSpec::from_kind(DefenseKind::Orthogonal))
                .run(&mut PrequentialEvaluator::new(untrained.clone(), 1))
                .expect_err("a non-finite splice time must be rejected");
            assert!(
                err.contains("splice #1") && err.contains("must be finite"),
                "{at}: {err}"
            );
        }
    }

    #[test]
    fn splice_after_session_end_never_fires() {
        // Edge case: the splice time is past the session end, so the defended
        // phase reports zero windows and the run equals an undefended one.
        let base = warm_base();
        let traffic = TrafficSpec::bounded(AppKind::BitTorrent, 23, 60.0);
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(traffic)
            .splice(1e6, DefenseSpec::from_kind(DefenseKind::Padding))
            .run(&mut evaluator)
            .expect("padding always builds");
        let pre = report.phases[0].segment.as_ref().expect("live scorer");
        let post = report.phases[1].segment.as_ref().expect("live scorer");
        assert!(pre.total > 5, "pre windows {}", pre.total);
        assert_eq!(post.total, 0, "the splice never fires");

        let mut reference = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let undefended = StationRun::new(traffic)
            .run(&mut reference)
            .expect("the identity pipeline always builds");
        assert_eq!(Some(pre), undefended.phases[0].segment.as_ref());
        assert_eq!(report.packets, undefended.packets);
    }

    #[test]
    fn two_splices_partition_one_session_into_three_phases() {
        // Two mid-session splices (none → padding → OR): every phase closes
        // its own windows, and the evaluator sees exactly the union.
        let base = warm_base();
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 31, 180.0))
            .splice(60.0, DefenseSpec::from_kind(DefenseKind::Padding))
            .splice(120.0, DefenseSpec::from_kind(DefenseKind::Orthogonal))
            .run(&mut evaluator)
            .expect("padding and OR build");
        assert_eq!(report.phases.len(), 3);
        for (i, phase) in report.phases.iter().enumerate() {
            assert!(phase.windows > 5, "phase {i} windows {}", phase.windows);
            let segment = phase.segment.as_ref().expect("live scorer");
            assert_eq!(segment.total, phase.windows, "phase {i} bookkeeping");
        }
        assert_eq!(report.phases[0].from_secs, 0.0);
        assert_eq!(report.phases[1].from_secs, 60.0);
        assert_eq!(report.phases[2].from_secs, 120.0);
        // Only the padding phase adds bytes.
        assert_eq!(report.phases[0].overhead.added_bytes(), 0);
        assert!(report.phases[1].overhead.percent() > 0.0);
        assert_eq!(report.phases[2].overhead.added_bytes(), 0);
        // The evaluator scored exactly the union of the three phases.
        assert_eq!(evaluator.examples(), report.windows());
        assert_eq!(
            report.windows(),
            report.phases.iter().map(|p| p.windows).sum::<u64>()
        );
    }

    #[test]
    fn or_defended_stations_are_harder_to_identify_than_undefended_singletons() {
        // The paper's effect, reproduced in the streaming world: a station
        // defended with OR over 3 interfaces is recognised in fewer windows
        // than the same undefended session.
        let adversary = quick_adversary();
        let window = SimDuration::from_secs(5);
        let make = |defense: DefenseKind, interfaces: usize| StationSpec {
            app: AppKind::BitTorrent,
            seed: 9,
            defense,
            interfaces,
            session_secs: 120.0,
        };
        let undefended = frozen_station(
            &make(DefenseKind::None, 1),
            &adversary,
            window,
            FeatureMode::Full,
        );
        let defended = frozen_station(
            &make(DefenseKind::Orthogonal, 3),
            &adversary,
            window,
            FeatureMode::Full,
        );
        assert!(
            defended.identification_rate() < undefended.identification_rate() + 1e-9,
            "OR ({:.2}) should not beat the undefended baseline ({:.2})",
            defended.identification_rate(),
            undefended.identification_rate()
        );
    }

    #[test]
    fn prebuilt_phases_and_external_sources_match_the_declarative_run() {
        // The two escape hatches of the builder — an external packet source
        // and pre-built phase pipelines — must reproduce the declarative
        // generated-traffic run exactly.
        let adversary = quick_adversary();
        let window = SimDuration::from_secs(5);
        let spec = StationSpec {
            app: AppKind::BitTorrent,
            seed: 77,
            defense: DefenseKind::Padding,
            interfaces: 3,
            session_secs: 30.0,
        };
        let make_phases = || {
            vec![(
                0.0,
                defense_pipeline(
                    DefenseKind::Orthogonal,
                    spec.app,
                    spec.interfaces,
                    spec.seed,
                    STATION_CALIB_SECS,
                    None,
                ),
            )]
        };
        let mut session =
            traffic_gen::stream::StreamingSession::bounded(spec.app, spec.seed, spec.session_secs);
        let external = StationRun::from_source(spec.app, &mut session)
            .phases(make_phases())
            .window(window)
            .feature_mode(FeatureMode::Full)
            .run(&mut FrozenScorer::new(&adversary))
            .expect("pre-built phases cannot fail");
        let direct = StationRun::new(TrafficSpec::bounded(spec.app, spec.seed, spec.session_secs))
            .phases(make_phases())
            .run(&mut FrozenScorer::new(&adversary))
            .expect("pre-built phases cannot fail");
        assert_eq!(external, direct);
    }

    #[test]
    fn window_batch_size_never_changes_a_report() {
        // The flush granularity is a scheduling knob: per-window (batch 1),
        // a ragged prime, and the default block size must produce the same
        // report for both the frozen and the live scorer.
        let adversary = quick_adversary();
        let base = warm_base();
        let run_of = || {
            StationRun::new(TrafficSpec::bounded(AppKind::BitTorrent, 13, 90.0))
                .splice(45.0, DefenseSpec::from_kind(DefenseKind::Padding))
        };
        let frozen_at = |batch: usize| {
            run_of()
                .window_batch(batch)
                .run(&mut FrozenScorer::new(&adversary))
                .expect("padding always builds")
        };
        let live_at = |batch: usize| {
            let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
            let report = run_of()
                .window_batch(batch)
                .run(&mut evaluator)
                .expect("padding always builds");
            (report, evaluator.timeline().to_vec())
        };
        let frozen_baseline = frozen_at(1);
        let live_baseline = live_at(1);
        assert!(frozen_baseline.windows() > 10);
        for batch in [3, WINDOW_BATCH, 10_000] {
            assert_eq!(frozen_at(batch), frozen_baseline, "frozen, batch {batch}");
            assert_eq!(live_at(batch), live_baseline, "live, batch {batch}");
        }
    }
}
