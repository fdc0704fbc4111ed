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
//!   ([`FrozenScorer`]), its members one by one ([`MemberScorer`], the
//!   paper's tables) or a live per-station
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
pub(crate) mod vtime;

pub use machine::{
    FrozenScorer, MemberScorer, PhaseReport, ScheduledReport, WindowScorer, WINDOW_BATCH,
};
pub use run::{StationRun, STATION_CALIB_SECS};
pub use vtime::{ExecutionOutcome, Executor, ExecutorStats};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::ExperimentConfig;
    use crate::pipeline::{defense_pipeline, train_adversary, DefenseKind};
    use crate::scenario::spec::DefenseSpec;
    use classifier::ensemble::AdversaryEnsemble;
    use classifier::online::{OnlineAdversary, PrequentialEvaluator, PrequentialPoint};
    use classifier::window::FeatureMode;
    use traffic_gen::app::AppKind;
    use traffic_gen::spec::TrafficSpec;
    use wlan_sim::time::SimDuration;

    /// Snapshot cadence (in windows) of per-station prequential timelines.
    const STATION_SNAPSHOT_EVERY: u64 = 10;

    /// One generated station: `secs` seconds of `app` traffic behind
    /// `defense` on `interfaces` virtual interfaces.
    fn station(
        app: AppKind,
        seed: u64,
        defense: DefenseKind,
        interfaces: usize,
        secs: f64,
    ) -> StationRun<'static> {
        StationRun::new(TrafficSpec::bounded(app, seed, secs))
            .defense(DefenseSpec::from_kind(defense))
            .interfaces(interfaces)
    }

    /// One station against a frozen ensemble.
    fn frozen_station(
        run: StationRun<'static>,
        adversary: &AdversaryEnsemble,
        window: SimDuration,
        mode: FeatureMode,
    ) -> ScheduledReport {
        run.window(window)
            .feature_mode(mode)
            .run(&mut FrozenScorer::new(adversary))
            .expect("defense kinds always build")
    }

    /// One station against a per-station fork of a live adversary: its
    /// report plus its prequential identification trajectory.
    fn online_station(
        run: StationRun<'static>,
        base: &OnlineAdversary,
        window: SimDuration,
        mode: FeatureMode,
    ) -> (ScheduledReport, Vec<PrequentialPoint>) {
        let mut evaluator = PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY);
        let report = run
            .window(window)
            .feature_mode(mode)
            .run(&mut evaluator)
            .expect("defense kinds always build");
        (report, evaluator.timeline().to_vec())
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

    /// The `(app, defense)` of the `i`-th station of a mixed population:
    /// every application and every defense kind in rotation.
    fn mixed_kind(i: usize) -> (AppKind, DefenseKind) {
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
        (AppKind::ALL[i % AppKind::COUNT], kinds[i % kinds.len()])
    }

    /// The `i`-th station of a mixed population: 15 s sessions on 3
    /// interfaces.
    fn mixed_station(i: usize) -> StationRun<'static> {
        let (app, defense) = mixed_kind(i);
        station(app, 300 + i as u64, defense, 3, 15.0)
    }

    #[test]
    fn pooled_executor_matches_sequential_execution_at_scale() {
        // 48 stations across every defense kind — including the composed
        // morph-then-reshape pipeline — on a pool of at most
        // available_parallelism workers. The pool must produce exactly what
        // running each station sequentially produces, in station order.
        let adversary = quick_adversary();
        let stations = 48;
        let outcome = Executor::Pooled
            .run(
                stations,
                mixed_station,
                |_| FrozenScorer::new(&adversary),
                |_, report, _| report,
            )
            .expect("every defense kind builds");
        assert_eq!(outcome.results.len(), stations);
        assert_eq!(outcome.stats.admitted, stations);
        let sequential: Vec<ScheduledReport> = (0..stations)
            .map(|i| {
                frozen_station(
                    mixed_station(i),
                    &adversary,
                    SimDuration::from_secs(5),
                    FeatureMode::Full,
                )
            })
            .collect();
        assert_eq!(outcome.results, sequential);
        for (i, report) in outcome.results.iter().enumerate() {
            let (app, _) = mixed_kind(i);
            assert_eq!(report.app, app);
            assert!(
                report.overhead().transformed_packets > 0,
                "{app:?} streamed nothing"
            );
        }
        // Transforming defenses report their cost through the shared ledger.
        for (i, report) in outcome.results.iter().enumerate() {
            let overhead = report.overhead();
            match mixed_kind(i).1 {
                DefenseKind::Padding => assert!(overhead.percent() > 0.0),
                DefenseKind::None
                | DefenseKind::FrequencyHopping
                | DefenseKind::Pseudonym
                | DefenseKind::Random
                | DefenseKind::RoundRobin
                | DefenseKind::Orthogonal
                | DefenseKind::OrthogonalModulo => {
                    assert_eq!(overhead.added_bytes(), 0)
                }
                DefenseKind::Morphing | DefenseKind::MorphThenReshape => {
                    assert!(overhead.percent() >= 0.0)
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
        let stations = 24;
        let run_of = |i: usize| mixed_station(i).arrival_secs(20.0 * i as f64);
        let baseline = Executor::Pooled
            .run(
                stations,
                run_of,
                |_| FrozenScorer::new(&adversary),
                |_, report, _| report,
            )
            .expect("every defense kind builds");
        let mut events_popped = None;
        for workers in [1usize, 2, 8] {
            let outcome = Executor::VirtualTime {
                workers: Some(workers),
                max_slice: None,
            }
            .run(
                stations,
                run_of,
                |_| FrozenScorer::new(&adversary),
                |_, report, _| report,
            )
            .expect("every defense kind builds");
            assert_eq!(
                outcome.results, baseline.results,
                "{workers}-worker virtual time diverged from the pool"
            );
            assert_eq!(outcome.stats.workers, workers);
            assert_eq!(outcome.stats.admitted, stations);
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
            assert_eq!(outcome.stats.events_popped, 2 * stations as u64);
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
            stations,
            mixed_station,
            |_| FrozenScorer::new(&adversary),
            |_, report, _| report,
        )
        .expect("every defense kind builds");
        assert_eq!(all_at_once.results, baseline.results);
        assert_eq!(all_at_once.stats.peak_active, stations);
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
        let app_of = |i: usize| AppKind::ALL[i % AppKind::COUNT];
        let station_of =
            |i: usize| station(app_of(i), 900 + i as u64, kinds[i % kinds.len()], 3, 30.0);
        let stations = 12;
        let window = SimDuration::from_secs(5);
        let outcome = Executor::Pooled
            .run(
                stations,
                |i| station_of(i).window(window),
                |_| PrequentialEvaluator::new(base.clone(), STATION_SNAPSHOT_EVERY),
                |_, report, evaluator| (report, evaluator.timeline().to_vec()),
            )
            .expect("defense kinds always build");
        let pooled = outcome.results;
        let sequential: Vec<_> = (0..stations)
            .map(|i| online_station(station_of(i), &base, window, FeatureMode::Full))
            .collect();
        assert_eq!(pooled, sequential);
        for (i, (report, _)) in pooled.iter().enumerate() {
            assert_eq!(report.app, app_of(i));
            assert!(report.overhead().transformed_packets > 0);
            assert!(report.windows_identified() <= report.windows());
            assert!(report.identification_rate() <= 1.0);
        }
    }

    #[test]
    fn warm_started_live_adversary_locks_onto_an_undefended_station() {
        let base = warm_base();
        let (report, timeline) = online_station(
            station(AppKind::BitTorrent, 41, DefenseKind::None, 1, 240.0),
            &base,
            SimDuration::from_secs(5),
            FeatureMode::Full,
        );
        assert!(report.windows() > 30, "windows {}", report.windows());
        assert!(
            report.identification_rate() > 0.7,
            "a warm adversary should identify an undefended station: rate {:.2}",
            report.identification_rate()
        );
        assert!(!timeline.is_empty());
        // The trajectory is live: sampled while the session streamed.
        assert!(timeline.last().expect("non-empty").examples <= report.windows());
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
    fn a_zero_max_slice_is_an_error_not_a_spin() {
        // A zero horizon drains nothing and its resume event re-enters the
        // heap at the same time forever; the executor refuses it up front
        // (no scorer is ever created, so an untrained adversary will do).
        let untrained = OnlineAdversary::new(
            classifier::features::FEATURE_DIM,
            AppKind::COUNT,
            &classifier::ensemble::EnsembleConfig::default(),
        );
        let err = Executor::virtual_time()
            .with_max_slice(SimDuration::ZERO)
            .run(
                2,
                |i| station(AppKind::Chatting, i as u64, DefenseKind::None, 3, 10.0),
                |_| PrequentialEvaluator::new(untrained.clone(), 1),
                |_, report, _| report,
            )
            .expect_err("a zero horizon never makes progress");
        assert!(err.contains("max_slice") && err.contains("1 µs"), "{err}");
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
        let make = |defense: DefenseKind, interfaces: usize| {
            station(AppKind::BitTorrent, 9, defense, interfaces, 120.0)
        };
        let undefended = frozen_station(
            make(DefenseKind::None, 1),
            &adversary,
            window,
            FeatureMode::Full,
        );
        let defended = frozen_station(
            make(DefenseKind::Orthogonal, 3),
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
        let (app, seed, interfaces, secs) = (AppKind::BitTorrent, 77, 3, 30.0);
        let make_phases = || {
            vec![(
                0.0,
                defense_pipeline(
                    DefenseKind::Orthogonal,
                    app,
                    interfaces,
                    seed,
                    STATION_CALIB_SECS,
                    None,
                ),
            )]
        };
        let mut session = traffic_gen::stream::StreamingSession::bounded(app, seed, secs);
        let external = StationRun::from_source(app, &mut session)
            .phases(make_phases())
            .window(window)
            .feature_mode(FeatureMode::Full)
            .run(&mut FrozenScorer::new(&adversary))
            .expect("pre-built phases cannot fail");
        let direct = StationRun::new(TrafficSpec::bounded(app, seed, secs))
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
