//! The per-station evaluation machine: one packet in, phase splices and
//! window scoring out.
//!
//! [`StationMachine`] is the single evaluation body both executors drive.
//! It owns a station's defense schedule (`(session-relative second,
//! pipeline)` phases), its per-sub-flow windower bank and its phase
//! counters; [`offer_slice`](StationMachine::offer_slice) advances the
//! schedule and processes a time-ordered micro-batch (splitting it at
//! phase-splice boundaries, so batching is byte-identical to a per-packet
//! feed), [`finish`](StationMachine::finish) flushes the running phase and
//! returns the [`ScheduledReport`]. Windows closed inside a drain slice are
//! buffered and pushed through [`WindowScorer::score_slice`] in
//! [`WINDOW_BATCH`]-sized blocks, in close order — so batch scorers amortise
//! inference across a block while live test-then-train scorers still see
//! each window exactly where a per-window feed would have scored it. Because the machine only ever sees its
//! own station's packets in order, the pooled executor (station-at-a-time)
//! and the virtual-time executor (station slices interleaved on a global
//! clock) produce bit-identical per-station reports — stations share no
//! mutable state, so interleaving cannot leak between them.

use classifier::ensemble::{AdversaryEnsemble, VoteScratch};
use classifier::metrics::ConfusionMatrix;
use classifier::online::{PrequentialEvaluator, SegmentStats};
use classifier::stream::{FlowWindowers, WindowExample};
use classifier::window::{FeatureMode, DEFAULT_MIN_PACKETS};
use defenses::overhead::Overhead;
use defenses::stage::{StageOutput, StagePipeline};
use std::cell::RefCell;
use traffic_gen::app::AppKind;
use traffic_gen::packet::PacketRecord;
use wlan_sim::time::SimDuration;

/// Scores the windows a scheduled station closes. Both adversary modes
/// implement it: the frozen batch ensemble ([`FrozenScorer`]) and the live
/// prequential evaluator (which tests-then-trains and reports per-phase
/// [`SegmentStats`]).
pub trait WindowScorer {
    /// Scores one window example, returning the predicted class.
    fn score(&mut self, example: &WindowExample) -> usize;

    /// Scores a slice of window examples in close order, appending one
    /// prediction per example to `out` (cleared first). The default loops
    /// [`score`](Self::score), so live test-then-train scorers keep their
    /// exact per-window ordering; batch scorers override it with the blocked
    /// inference plane. Every override must stay **bit-identical** to the
    /// per-example loop.
    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        out.clear();
        out.extend(examples.iter().map(|e| self.score(e)));
    }

    /// Called when a phase ends (splice boundary or session end); live
    /// scorers return the prequential counts of the finished phase.
    fn end_phase(&mut self) -> Option<SegmentStats> {
        None
    }
}

/// How many closed windows [`StationMachine`] buffers before it pushes them
/// through [`WindowScorer::score_slice`] as one block. Large enough that the
/// blocked kernels amortise their setup, small enough that a drain slice's
/// buffered windows stay cache-resident.
pub const WINDOW_BATCH: usize = 64;

/// A frozen batch ensemble as a [`WindowScorer`] (majority vote, no
/// learning). The scorer is only a borrow: the vote scratch and row buffer
/// its sliced scoring path fills are per thread ([`FROZEN_SCRATCH`]), so
/// every station an executor worker scores reuses one set of buffers, and
/// creating a scorer per station allocates nothing.
#[derive(Debug, Clone)]
pub struct FrozenScorer<'a> {
    ensemble: &'a AdversaryEnsemble,
}

impl<'a> FrozenScorer<'a> {
    /// Wraps a trained ensemble as a scorer.
    pub fn new(ensemble: &'a AdversaryEnsemble) -> Self {
        FrozenScorer { ensemble }
    }
}

thread_local! {
    /// The vote scratch and packed feature rows of every [`FrozenScorer`]
    /// on this thread. Scoring never re-enters itself, so one set per thread
    /// suffices; the buffers grow to a block's size once and stay.
    static FROZEN_SCRATCH: RefCell<(VoteScratch, Vec<f64>)> = RefCell::default();
}

impl WindowScorer for FrozenScorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.ensemble.predict_majority(&example.0)
    }

    fn score_slice(&mut self, examples: &[WindowExample], out: &mut Vec<usize>) {
        out.clear();
        let Some(first) = examples.first() else {
            return;
        };
        let dim = first.0.len();
        if dim == 0 || examples.iter().any(|e| e.0.len() != dim) {
            // Ragged feature rows cannot pack into one block; score them the
            // scalar way (bit-identical by definition).
            out.extend(
                examples
                    .iter()
                    .map(|e| self.ensemble.predict_majority(&e.0)),
            );
            return;
        }
        FROZEN_SCRATCH.with_borrow_mut(|(scratch, rows)| {
            rows.clear();
            for example in examples {
                rows.extend_from_slice(&example.0);
            }
            self.ensemble
                .predict_majority_slice(rows, dim, out, scratch);
        });
    }
}

/// A frozen batch ensemble scored **per member**, one confusion matrix per
/// member at [`AppKind::COUNT`] width: the raw material of the paper's
/// best-classifier convention ([`AdversaryEnsemble::best_of`]). Reports count
/// the members' majority vote, as under [`FrozenScorer`].
#[derive(Debug, Clone)]
pub struct MemberScorer<'a> {
    ensemble: &'a AdversaryEnsemble,
    matrices: Vec<ConfusionMatrix>,
    scratch: VoteScratch,
}

impl<'a> MemberScorer<'a> {
    /// One empty matrix per member of `ensemble`.
    pub fn new(ensemble: &'a AdversaryEnsemble) -> Self {
        let matrices = vec![ConfusionMatrix::new(AppKind::COUNT); ensemble.member_names().len()];
        let scratch = VoteScratch::new();
        MemberScorer {
            ensemble,
            matrices,
            scratch,
        }
    }

    /// The `(member name, confusion matrix)` pairs, in member order.
    pub fn into_results(self) -> Vec<(&'static str, ConfusionMatrix)> {
        let names = self.ensemble.member_names();
        names.into_iter().zip(self.matrices).collect()
    }
}

impl WindowScorer for MemberScorer<'_> {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.ensemble
            .record_members(&example.0, example.1, &mut self.matrices, &mut self.scratch)
    }
}

impl WindowScorer for PrequentialEvaluator {
    fn score(&mut self, example: &WindowExample) -> usize {
        self.absorb(example)
    }

    fn end_phase(&mut self) -> Option<SegmentStats> {
        Some(self.take_segment())
    }
}

/// What one phase of a station's defense schedule looked like to the
/// adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Session-relative second the phase's pipeline took over.
    pub from_secs: f64,
    /// Windows closed (and scored) during the phase.
    pub windows: u64,
    /// Windows the adversary identified correctly during the phase.
    pub windows_identified: u64,
    /// The phase pipeline's overhead ledger.
    pub overhead: Overhead,
    /// Prequential counts of the phase (live scorers only).
    pub segment: Option<SegmentStats>,
}

/// The record of one station streamed through a defense **schedule**.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledReport {
    /// The station's ground-truth application.
    pub app: AppKind,
    /// Packets pulled from the station's source.
    pub packets: u64,
    /// One report per scheduled phase, in schedule order. Phases scheduled
    /// past the end of the session report zero windows.
    pub phases: Vec<PhaseReport>,
}

impl ScheduledReport {
    /// Windows scored across all phases.
    pub fn windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows).sum()
    }

    /// Correctly identified windows across all phases.
    pub fn windows_identified(&self) -> u64 {
        self.phases.iter().map(|p| p.windows_identified).sum()
    }

    /// The adversary's whole-session recognition rate (0 when no windows).
    pub fn identification_rate(&self) -> f64 {
        let windows = self.windows();
        if windows == 0 {
            0.0
        } else {
            self.windows_identified() as f64 / windows as f64
        }
    }

    /// The combined overhead ledger of every phase pipeline.
    pub fn overhead(&self) -> Overhead {
        self.phases
            .iter()
            .fold(Overhead::default(), |acc, p| acc.combined(&p.overhead))
    }
}

/// Scores every buffered window in [`WINDOW_BATCH`]-at-most blocks through
/// [`WindowScorer::score_slice`] and folds the predictions into the phase
/// counters — the one scoring rule every site of the machine shares. Windows
/// are scored in exactly their close order, so deferring them into blocks is
/// bit-identical to scoring each as it closed. The scored windows' feature
/// buffers go back to the windower bank for the next windows it closes.
fn flush_windows(
    scorer: &mut dyn WindowScorer,
    windowers: &mut FlowWindowers,
    pending: &mut Vec<WindowExample>,
    out: &mut Vec<usize>,
    batch: usize,
    windows: &mut u64,
    hits: &mut u64,
) {
    for block in pending.chunks(batch.max(1)) {
        scorer.score_slice(block, out);
        debug_assert_eq!(out.len(), block.len(), "one prediction per window");
        *windows += block.len() as u64;
        *hits += block
            .iter()
            .zip(out.iter())
            .filter(|(example, &predicted)| predicted == example.1)
            .count() as u64;
    }
    windowers.recycle(pending);
}

/// Reusable staged-output buffers one drain slice fills and the windower
/// bank consumes. Owned per worker by the executors (inside their
/// [`StationScratch`]) so routing a slice from the stage pipeline into
/// [`FlowWindowers::push_slice`] allocates nothing after warm-up.
#[derive(Debug, Default)]
pub(crate) struct StagedScratch {
    /// Sub-flow of each staged packet, in emission order.
    flows: Vec<usize>,
    /// The staged packets themselves, in emission order.
    packets: Vec<PacketRecord>,
}

/// A retired machine's growable buffers: its (emptied) phase list, windower
/// bank, pending-window and prediction buffers. Pooled in [`StationScratch`]
/// and handed to the next admission, which restarts rather than rebuilds
/// them.
#[derive(Debug, Default)]
pub(crate) struct MachineParts {
    /// Always empty while pooled; admission pushes the new phases into it.
    pub(crate) phases: Vec<(f64, StagePipeline)>,
    windowers: Option<FlowWindowers>,
    pending: Vec<WindowExample>,
    slice_out: Vec<usize>,
}

/// Per-worker recycled allocations: the drain micro-batch, the staged-slice
/// buffers, and pools of stage scratch buffers and [`MachineParts`] handed
/// to stations at admission and reclaimed at retirement
/// ([`StationMachine::finish_with`]). A worker therefore pays each buffer's
/// growth once, not once per admission. Stations on air at the same time
/// (a bounded `max_slice`) each hold their own parts; the pools grow to the
/// worker's peak and no further.
#[derive(Debug, Default)]
pub(crate) struct StationScratch {
    pub(crate) batch: Vec<PacketRecord>,
    pub(crate) staged: StagedScratch,
    outputs: Vec<StageOutput>,
    machines: Vec<MachineParts>,
}

impl StationScratch {
    pub(crate) fn new() -> Self {
        StationScratch {
            batch: Vec::with_capacity(defenses::stage::STAGE_BATCH),
            ..StationScratch::default()
        }
    }

    /// The parts of a retired machine, or fresh ones.
    pub(crate) fn take_parts(&mut self) -> MachineParts {
        self.machines.pop().unwrap_or_default()
    }
}

/// Closes the running phase: flushes its pipeline through the windower bank,
/// closes every trailing window, and scores everything still buffered.
#[allow(clippy::too_many_arguments)]
fn close_phase(
    pipeline: &mut StagePipeline,
    windowers: &mut FlowWindowers,
    scorer: &mut dyn WindowScorer,
    pending: &mut Vec<WindowExample>,
    out: &mut Vec<usize>,
    batch: usize,
    windows: &mut u64,
    hits: &mut u64,
) {
    pipeline.finish(|flow, packet| {
        if let Some(example) = windowers.push(flow as usize, packet) {
            pending.push(example);
        }
    });
    windowers.finish_into(pending);
    flush_windows(scorer, windowers, pending, out, batch, windows, hits);
}

/// One station's evaluation, driven one packet at a time.
///
/// The machine holds everything a running station needs — schedule, the
/// active phase's pipeline, windower bank, counters — and nothing about the
/// packet source, which stays with the caller. That split is what lets the
/// virtual-time executor interleave thousands of machines on one clock while
/// each holds only O(stages + sub-flows) state.
#[derive(Debug)]
pub(crate) struct StationMachine {
    app: AppKind,
    phases: Vec<(f64, StagePipeline)>,
    index: usize,
    window: SimDuration,
    mode: FeatureMode,
    windowers: FlowWindowers,
    reports: Vec<PhaseReport>,
    windows: u64,
    hits: u64,
    packets: u64,
    /// Windows closed during the current drain slice, awaiting a batched
    /// [`WindowScorer::score_slice`] flush (in close order).
    pending: Vec<WindowExample>,
    /// Prediction buffer the flushes reuse.
    slice_out: Vec<usize>,
    /// Flush granularity (≥ 1; [`WINDOW_BATCH`] unless the run overrides it).
    window_batch: usize,
}

impl StationMachine {
    /// Creates the machine over a non-empty phase schedule, flushing closed
    /// windows through the scorer in `window_batch`-sized blocks. The
    /// windower bank and window buffers come from `parts` (restarted, so the
    /// machine behaves exactly as over fresh ones), and every phase
    /// pipeline's stage scratch from the `scratch` pool (see
    /// [`StagePipeline::adopt_scratch`]), so admission skips the growth a
    /// fresh station's first batches would otherwise pay.
    pub(crate) fn new(
        app: AppKind,
        mut phases: Vec<(f64, StagePipeline)>,
        window: SimDuration,
        mode: FeatureMode,
        window_batch: usize,
        parts: MachineParts,
        scratch: &mut StationScratch,
    ) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        for (_, pipeline) in &mut phases {
            let a = scratch.outputs.pop().unwrap_or_default();
            let b = scratch.outputs.pop().unwrap_or_default();
            pipeline.adopt_scratch(a, b);
        }
        let windowers = match parts.windowers {
            Some(mut bank) => {
                bank.restart(window, DEFAULT_MIN_PACKETS, mode, app);
                bank
            }
            None => FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, mode, app),
        };
        debug_assert!(parts.pending.is_empty(), "pooled parts are drained");
        StationMachine {
            app,
            phases,
            index: 0,
            window,
            mode,
            windowers,
            reports: Vec::new(),
            windows: 0,
            hits: 0,
            packets: 0,
            pending: parts.pending,
            slice_out: parts.slice_out,
            window_batch: window_batch.max(1),
        }
    }

    /// Splices in every phase whose time has come at `now` (possibly several
    /// between two packets).
    fn advance_schedule(&mut self, now: f64, scorer: &mut dyn WindowScorer) {
        while self.index + 1 < self.phases.len() && now >= self.phases[self.index + 1].0 {
            close_phase(
                &mut self.phases[self.index].1,
                &mut self.windowers,
                scorer,
                &mut self.pending,
                &mut self.slice_out,
                self.window_batch,
                &mut self.windows,
                &mut self.hits,
            );
            self.reports.push(PhaseReport {
                from_secs: self.phases[self.index].0,
                windows: self.windows,
                windows_identified: self.hits,
                overhead: self.phases[self.index].1.overhead(),
                segment: scorer.end_phase(),
            });
            self.windows = 0;
            self.hits = 0;
            self.windowers
                .restart(self.window, DEFAULT_MIN_PACKETS, self.mode, self.app);
            self.index += 1;
        }
    }

    /// Feeds a time-ordered micro-batch — the batched fast path, byte-
    /// identical to feeding each packet in turn through
    /// [`StagePipeline::process`]: the slice is split at phase-splice
    /// boundaries, so each sub-run flows through exactly the pipeline a
    /// per-packet feed would have used, in one
    /// [`StagePipeline::process_batch`] call instead of one per packet. The
    /// staged output of each sub-run is collected into `staged` and routed
    /// through [`FlowWindowers::push_slice`] — one windower-bank dispatch per
    /// same-flow run instead of one per packet — then any block of closed
    /// windows is flushed in close order (the PR 9 `WINDOW_BATCH`
    /// semantics: flush-block boundaries never change a report, which the
    /// window-batch invariance tests pin).
    pub(crate) fn offer_slice(
        &mut self,
        packets: &[PacketRecord],
        staged: &mut StagedScratch,
        scorer: &mut dyn WindowScorer,
    ) {
        let mut rest = packets;
        while !rest.is_empty() {
            self.advance_schedule(rest[0].time.as_secs_f64(), scorer);
            // After advancing at rest[0], at least one packet precedes the
            // next splice, so every iteration consumes a non-empty run.
            let run_len = if self.index + 1 < self.phases.len() {
                let next = self.phases[self.index + 1].0;
                rest.partition_point(|p| p.time.as_secs_f64() < next)
            } else {
                rest.len()
            };
            let (run, tail) = rest.split_at(run_len);
            self.packets += run.len() as u64;
            staged.flows.clear();
            staged.packets.clear();
            self.phases[self.index]
                .1
                .process_batch(run, |flow, packet| {
                    staged.flows.push(flow as usize);
                    staged.packets.push(*packet);
                });
            self.windowers
                .push_slice(&staged.flows, &staged.packets, &mut self.pending);
            if self.pending.len() >= self.window_batch {
                flush_windows(
                    scorer,
                    &mut self.windowers,
                    &mut self.pending,
                    &mut self.slice_out,
                    self.window_batch,
                    &mut self.windows,
                    &mut self.hits,
                );
            }
            rest = tail;
        }
    }

    /// Session end: closes the running phase, reports any phase scheduled
    /// past the end as empty, and returns the station's report. Every phase
    /// pipeline's stage scratch and the machine's own buffers go back to
    /// `scratch` for the next admission.
    pub(crate) fn finish_with(
        mut self,
        scorer: &mut dyn WindowScorer,
        scratch: &mut StationScratch,
    ) -> ScheduledReport {
        close_phase(
            &mut self.phases[self.index].1,
            &mut self.windowers,
            scorer,
            &mut self.pending,
            &mut self.slice_out,
            self.window_batch,
            &mut self.windows,
            &mut self.hits,
        );
        self.reports.push(PhaseReport {
            from_secs: self.phases[self.index].0,
            windows: self.windows,
            windows_identified: self.hits,
            overhead: self.phases[self.index].1.overhead(),
            segment: scorer.end_phase(),
        });
        let index = self.index;
        for (i, (from_secs, mut pipeline)) in self.phases.drain(..).enumerate() {
            if i > index {
                self.reports.push(PhaseReport {
                    from_secs,
                    windows: 0,
                    windows_identified: 0,
                    overhead: pipeline.overhead(),
                    segment: scorer.end_phase(),
                });
            }
            let (mut a, mut b) = pipeline.release_scratch();
            a.clear();
            b.clear();
            scratch.outputs.push(a);
            scratch.outputs.push(b);
        }
        scratch.machines.push(MachineParts {
            phases: self.phases,
            windowers: Some(self.windowers),
            pending: self.pending,
            slice_out: self.slice_out,
        });
        ScheduledReport {
            app: self.app,
            packets: self.packets,
            phases: self.reports,
        }
    }
}
