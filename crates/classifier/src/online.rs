//! The streaming adversary: incremental learning and prequential evaluation.
//!
//! The paper's threat model is an eavesdropper observing MAC-layer traffic
//! *live*. The batch [`AdversaryEnsemble`](crate::ensemble::AdversaryEnsemble)
//! models the strongest version of that adversary — trained offline on a
//! materialised dataset — while this module models the *online* one, closing
//! the streaming loop the rest of the pipeline already runs:
//!
//! * [`OnlineAdversary`] — the incremental counterpart of the ensemble: a
//!   [`RunningNormalizer`] (statistics evolve with the stream) in front of
//!   one [`OnlineClassifier`] per member (SVM, NN and optionally naive
//!   Bayes), all learning one [`WindowExample`] at a time.
//! * [`PrequentialEvaluator`] — the standard online-learning protocol:
//!   **test, then train**. Every example is first classified with the model
//!   as it stands (counted into live per-member and majority-vote
//!   [`ConfusionMatrix`]es and an accuracy timeline), and only then used for
//!   learning. The timeline is what exposes concept drift: splice a defense
//!   into the session and the curve drops.
//! * [`AdversarySink`] — the packet-facing end: per-sub-flow
//!   [`StreamingWindower`](crate::stream::StreamingWindower)s (a
//!   [`FlowWindowers`] bank) feeding every closed window straight into the
//!   evaluator. Push `(flow, packet)` pairs from any defense stage pipeline
//!   and the adversary learns and scores as the windows close — no dataset,
//!   no second pass, O(flows + models) state.

use crate::dataset::RunningNormalizer;
use crate::ensemble::{majority_vote, vote_slice, EnsembleConfig, VoteScratch};
use crate::kernel;
use crate::metrics::ConfusionMatrix;
use crate::nn::NeuralNet;
use crate::stream::{FlowWindowers, WindowExample};
use crate::svm::LinearSvm;
use crate::{bayes::GaussianNaiveBayes, Classifier, OnlineClassifier};
use traffic_gen::packet::PacketRecord;

/// The incremental adversary: a running normalizer plus one online classifier
/// per ensemble member.
///
/// Clone a trained (or warm-started) adversary to fork it — e.g. one
/// independent copy per station in a multi-station scenario. The members are
/// held by value, so a fork copies a handful of flat buffers and nothing
/// else.
#[derive(Debug, Clone)]
pub struct OnlineAdversary {
    normalizer: RunningNormalizer,
    svm: LinearSvm,
    nn: NeuralNet,
    /// The naive-Bayes member, when the config includes it.
    bayes: Option<GaussianNaiveBayes>,
    examples_seen: u64,
}

impl OnlineAdversary {
    /// Creates an untrained online adversary for `dim`-dimensional features
    /// over `classes` classes, with the same member line-up and seeding rule
    /// as the batch ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize, config: &EnsembleConfig) -> Self {
        assert!(classes > 0, "the adversary needs at least one class");
        OnlineAdversary {
            normalizer: RunningNormalizer::new(dim),
            svm: LinearSvm::new(dim, classes, &config.svm),
            nn: NeuralNet::new(dim, classes, &config.nn, config.seed ^ 0x55),
            bayes: config
                .include_bayes
                .then(|| GaussianNaiveBayes::new(dim, classes)),
            examples_seen: 0,
        }
    }

    /// Runs `f` on the members in vote order: SVM, NN, then naive Bayes
    /// when enabled.
    fn with_members<R>(&self, f: impl FnOnce(&[&(dyn Classifier + 'static)]) -> R) -> R {
        match &self.bayes {
            Some(bayes) => f(&[&self.svm, &self.nn, bayes]),
            None => f(&[&self.svm, &self.nn]),
        }
    }

    /// The number of classes the adversary distinguishes.
    pub fn class_count(&self) -> usize {
        self.svm.class_count()
    }

    /// Names of the member classifiers.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.with_members(|members| members.iter().map(|m| m.name()).collect())
    }

    /// Number of member classifiers.
    pub(crate) fn member_count(&self) -> usize {
        2 + usize::from(self.bayes.is_some())
    }

    /// Examples absorbed so far.
    pub fn examples_seen(&self) -> u64 {
        self.examples_seen
    }

    /// Absorbs one labelled example: the normalizer observes the raw
    /// features first, then every member takes one incremental step on the
    /// freshly-normalised vector (held in a stack buffer, so the loop
    /// allocates nothing).
    pub fn partial_fit(&mut self, features: &[f64], label: usize) {
        self.normalizer.observe(features);
        let Self {
            normalizer,
            svm,
            nn,
            bayes,
            ..
        } = self;
        kernel::with_buffer(
            features.len().min(normalizer.dim()),
            [0.0; 32],
            |normalized| {
                normalizer.transform_to(features, normalized);
                svm.partial_fit(normalized, label);
                nn.partial_fit(normalized, label);
                if let Some(bayes) = bayes {
                    bayes.partial_fit(normalized, label);
                }
            },
        );
        self.examples_seen += 1;
    }

    /// Every member's prediction for one feature vector (normalised once
    /// with the current running statistics).
    pub fn predict_members(&self, features: &[f64]) -> Vec<usize> {
        let normalized = self.normalizer.apply(features);
        self.with_members(|members| members.iter().map(|m| m.predict(&normalized)).collect())
    }

    /// Every member's prediction into `out` (one slot per member), with the
    /// features normalised once into a stack buffer — the allocation-free
    /// form of [`predict_members`](Self::predict_members).
    fn predict_members_to(&self, features: &[f64], out: &mut [usize]) {
        kernel::with_buffer(
            features.len().min(self.normalizer.dim()),
            [0.0; 32],
            |normalized| {
                self.normalizer.transform_to(features, normalized);
                out[0] = self.svm.predict(normalized);
                out[1] = self.nn.predict(normalized);
                if let Some(bayes) = &self.bayes {
                    out[2] = bayes.predict(normalized);
                }
            },
        );
    }

    /// The majority vote over all members, with the batch ensemble's tie
    /// rule (ties go to the first member, the SVM).
    ///
    /// For the committed three-member shape the vote short-circuits exactly
    /// like the batch ensemble's: two agreeing members decide a three-way
    /// vote, so the third (naive Bayes, by far the costliest single
    /// predictor) only runs as arbiter when SVM and NN disagree.
    pub fn predict_majority(&self, features: &[f64]) -> usize {
        let normalized = self.normalizer.apply(features);
        self.vote_normalized(&normalized)
    }

    /// [`predict_majority`](Self::predict_majority) with caller scratch, so
    /// the per-window hot path allocates nothing.
    pub fn predict_majority_with(&self, features: &[f64], scratch: &mut VoteScratch) -> usize {
        scratch.block.clear();
        self.normalizer.transform_into(features, &mut scratch.block);
        self.vote_normalized(&scratch.block)
    }

    /// The short-circuit vote over an already-normalised vector (the
    /// two-member shape falls back to the shared [`majority_vote`] rule).
    fn vote_normalized(&self, normalized: &[f64]) -> usize {
        let m0 = self.svm.predict(normalized);
        let m1 = self.nn.predict(normalized);
        match &self.bayes {
            Some(_) if m0 == m1 => m0,
            Some(bayes) => {
                if bayes.predict(normalized) == m1 {
                    m1
                } else {
                    m0
                }
            }
            None => majority_vote(&[m0, m1], self.class_count()),
        }
    }

    /// Batched [`predict_majority`](Self::predict_majority): one vote per
    /// `dim`-wide row of `rows`, into `out`. The whole block is normalised
    /// with the current statistics (a prediction never mutates them), and
    /// the members vote through the same gathered short-circuit kernel as
    /// the batch ensemble.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn predict_majority_slice(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<usize>,
        scratch: &mut VoteScratch,
    ) {
        assert!(dim > 0, "predict_majority_slice needs a positive dimension");
        scratch.block.clear();
        for row in rows.chunks_exact(dim) {
            self.normalizer.transform_into(row, &mut scratch.block);
        }
        let stride = dim.min(self.normalizer.dim()).max(1);
        self.with_members(|members| vote_slice(members, self.class_count(), stride, scratch, out));
    }
}

/// One point of a prequential accuracy timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrequentialPoint {
    /// Cumulative examples scored when the snapshot was taken.
    pub examples: u64,
    /// Cumulative majority-vote prequential accuracy at that point.
    pub accuracy: f64,
}

/// Prequential counts since the last [`PrequentialEvaluator::take_segment`]
/// call — the building block of before/after comparisons (e.g. around a
/// mid-session defense splice).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentStats {
    /// Examples scored in the segment.
    pub total: u64,
    /// Majority-vote hits in the segment.
    pub majority_correct: u64,
    /// Per-member hits in the segment (ensemble member order).
    pub member_correct: Vec<u64>,
}

impl SegmentStats {
    /// Majority-vote accuracy over the segment (0 when empty).
    pub fn majority_accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.majority_correct as f64 / self.total as f64
        }
    }

    /// The best per-member accuracy over the segment, never below the
    /// majority accuracy — the online counterpart of the paper's
    /// "highest accuracy of SVM/NN" reporting.
    pub fn best_accuracy(&self) -> f64 {
        let best_member = self
            .member_correct
            .iter()
            .map(|&c| {
                if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                }
            })
            .fold(0.0, f64::max);
        best_member.max(self.majority_accuracy())
    }
}

/// Test-then-train evaluation of an [`OnlineAdversary`].
///
/// Every example is scored against the model *before* the model learns from
/// it, so the cumulative confusion matrices measure honest out-of-sample
/// performance over the whole stream, and the [`timeline`](Self::timeline)
/// tracks how that accuracy evolves — flat stream, convergence; mid-stream
/// defense splice, a visible drop.
#[derive(Debug, Clone)]
pub struct PrequentialEvaluator {
    adversary: OnlineAdversary,
    majority: ConfusionMatrix,
    /// Every member's cumulative confusion counts in one flat block: a
    /// row-major `classes × classes` matrix (`[true][predicted]`) per member,
    /// in member order — one allocation per fork for all members.
    member_counts: Vec<u64>,
    timeline: Vec<PrequentialPoint>,
    snapshot_every: u64,
    segment: SegmentStats,
    correct: u64,
    scored: u64,
}

impl PrequentialEvaluator {
    /// Wraps an adversary, snapshotting the cumulative accuracy onto the
    /// timeline every `snapshot_every` examples (clamped to at least 1).
    pub fn new(adversary: OnlineAdversary, snapshot_every: u64) -> Self {
        let member_count = adversary.member_count();
        let classes = adversary.class_count();
        PrequentialEvaluator {
            adversary,
            majority: ConfusionMatrix::new(classes),
            member_counts: vec![0; member_count * classes * classes],
            timeline: Vec::new(),
            snapshot_every: snapshot_every.max(1),
            segment: SegmentStats {
                member_correct: vec![0; member_count],
                ..SegmentStats::default()
            },
            correct: 0,
            scored: 0,
        }
    }

    /// Scores one labelled example with the current model, then trains on
    /// it. Returns the majority-vote prediction.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range for the adversary's class count.
    pub fn test_then_train(&mut self, features: &[f64], label: usize) -> usize {
        // Every member votes (the evaluator needs each vote for the
        // per-member matrices, so the majority short-circuit does not apply
        // here); the votes live in a stack buffer.
        let predicted = kernel::with_buffer(self.adversary.member_count(), [0; 3], |votes| {
            self.adversary.predict_members_to(features, votes);
            self.record(label, votes)
        });
        self.adversary.partial_fit(features, label);
        predicted
    }

    /// Counts one scored example, whose members voted `votes`, into the
    /// matrices, the segment and the timeline; returns the majority vote.
    fn record(&mut self, label: usize, votes: &[usize]) -> usize {
        let classes = self.adversary.class_count();
        let predicted = majority_vote(votes, classes);
        // Range-checks `label`; member votes are argmaxes over the classes.
        self.majority.record(label, predicted);
        for (counts, &p) in self
            .member_counts
            .chunks_exact_mut(classes * classes)
            .zip(votes)
        {
            counts[label * classes + p] += 1;
        }
        self.scored += 1;
        self.segment.total += 1;
        if predicted == label {
            self.correct += 1;
            self.segment.majority_correct += 1;
        }
        for (c, &p) in self.segment.member_correct.iter_mut().zip(votes) {
            if p == label {
                *c += 1;
            }
        }
        if self.scored.is_multiple_of(self.snapshot_every) {
            self.timeline.push(PrequentialPoint {
                examples: self.scored,
                accuracy: self.correct as f64 / self.scored as f64,
            });
        }
        predicted
    }

    /// Scores and trains on one [`WindowExample`].
    pub fn absorb(&mut self, example: &WindowExample) -> usize {
        self.test_then_train(&example.0, example.1)
    }

    /// Examples scored so far.
    pub fn examples(&self) -> u64 {
        self.scored
    }

    /// Cumulative majority-vote prequential accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.correct as f64 / self.scored as f64
        }
    }

    /// The live cumulative majority-vote confusion matrix.
    pub fn matrix(&self) -> &ConfusionMatrix {
        &self.majority
    }

    /// `(member name, cumulative confusion matrix)` pairs, one per member.
    pub fn member_matrices(&self) -> Vec<(&'static str, ConfusionMatrix)> {
        let classes = self.adversary.class_count();
        self.adversary
            .member_names()
            .into_iter()
            .zip(self.member_counts.chunks_exact(classes * classes))
            .map(|(name, counts)| (name, ConfusionMatrix::from_counts(classes, counts.to_vec())))
            .collect()
    }

    /// The accuracy timeline recorded so far.
    pub fn timeline(&self) -> &[PrequentialPoint] {
        &self.timeline
    }

    /// Returns the prequential counts accumulated since the previous call
    /// (or since construction) and starts a fresh segment.
    pub fn take_segment(&mut self) -> SegmentStats {
        std::mem::replace(
            &mut self.segment,
            SegmentStats {
                member_correct: vec![0; self.adversary.member_count()],
                ..SegmentStats::default()
            },
        )
    }

    /// The adversary being evaluated.
    pub fn adversary(&self) -> &OnlineAdversary {
        &self.adversary
    }

    /// Unwraps the (now trained) adversary.
    pub fn into_adversary(self) -> OnlineAdversary {
        self.adversary
    }
}

/// The packet-facing end of the online adversary: a bank of per-sub-flow
/// windowers feeding every closed window straight into a
/// [`PrequentialEvaluator`].
///
/// Wire it behind any defense stage pipeline exactly like a plain
/// [`FlowWindowers`]: call [`push`](Self::push) per emitted `(flow, packet)`
/// and [`finish`](Self::finish) at session end. The adversary tests and
/// trains the moment each window closes.
#[derive(Debug, Clone)]
pub struct AdversarySink {
    windowers: FlowWindowers,
    evaluator: PrequentialEvaluator,
    /// Closed-window buffer the sliced entries reuse.
    closed: Vec<WindowExample>,
}

impl AdversarySink {
    /// Couples a windower bank to a prequential evaluator.
    pub fn new(windowers: FlowWindowers, evaluator: PrequentialEvaluator) -> Self {
        AdversarySink {
            windowers,
            evaluator,
            closed: Vec::new(),
        }
    }

    /// Folds one packet of sub-flow `flow` in; when this packet closes that
    /// sub-flow's window, the example is scored-then-learned immediately and
    /// the majority-vote prediction is returned.
    pub fn push(&mut self, flow: usize, packet: &PacketRecord) -> Option<usize> {
        self.windowers
            .push(flow, packet)
            .map(|example| self.evaluator.absorb(&example))
    }

    /// Folds a staged slice in (`flows[i]` is the sub-flow of `packets[i]`),
    /// scoring-then-learning every window the slice closes in exact close
    /// order — bit-identical to [`push`](Self::push)ing each pair, one
    /// windower-bank dispatch per run instead of per packet. Returns the
    /// number of windows scored.
    pub fn push_slice(&mut self, flows: &[usize], packets: &[PacketRecord]) -> usize {
        self.closed.clear();
        self.windowers.push_slice(flows, packets, &mut self.closed);
        for example in &self.closed {
            self.evaluator.absorb(example);
        }
        self.closed.len()
    }

    /// [`push_slice`](Self::push_slice) for a single-sub-flow run (e.g. a
    /// sniffer feed, where one observed device is one sub-flow). Returns the
    /// number of windows scored.
    pub fn push_run(&mut self, flow: usize, packets: &[PacketRecord]) -> usize {
        self.closed.clear();
        self.windowers.push_run(flow, packets, &mut self.closed);
        for example in &self.closed {
            self.evaluator.absorb(example);
        }
        self.closed.len()
    }

    /// Closes every sub-flow's trailing window at session end, feeding the
    /// remaining examples to the evaluator.
    pub fn finish(&mut self) {
        for example in self.windowers.finish() {
            self.evaluator.absorb(&example);
        }
    }

    /// Windows scored so far.
    pub fn windows(&self) -> u64 {
        self.evaluator.examples()
    }

    /// The evaluator behind the sink.
    pub fn evaluator(&self) -> &PrequentialEvaluator {
        &self.evaluator
    }

    /// Mutable access to the evaluator (e.g. for segment bookkeeping around
    /// a mid-session defense splice).
    pub fn evaluator_mut(&mut self) -> &mut PrequentialEvaluator {
        &mut self.evaluator
    }

    /// Unwraps the evaluator (and with it the trained adversary).
    pub fn into_evaluator(self) -> PrequentialEvaluator {
        self.evaluator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_DIM;
    use crate::stream::streamed_examples;
    use crate::window::{FeatureMode, DEFAULT_MIN_PACKETS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use traffic_gen::app::AppKind;
    use traffic_gen::generator::SessionGenerator;
    use wlan_sim::time::SimDuration;

    fn blob_stream(seed: u64, n_per_class: usize) -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0, 0.0], [8.0, 0.0, 4.0], [0.0, 8.0, -4.0]];
        let mut examples = Vec::new();
        // Interleave classes so the stream does not arrive sorted by label.
        for _ in 0..n_per_class {
            for (label, c) in centers.iter().enumerate() {
                let f: Vec<f64> = c.iter().map(|m| m + rng.gen_range(-1.0..1.0)).collect();
                examples.push((f, label));
            }
        }
        examples
    }

    #[test]
    fn online_adversary_learns_blobs_incrementally() {
        let mut adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        assert_eq!(adversary.class_count(), 3);
        assert_eq!(adversary.member_names(), vec!["svm", "nn", "naive-bayes"]);
        for (f, l) in blob_stream(1, 100) {
            adversary.partial_fit(&f, l);
        }
        assert_eq!(adversary.examples_seen(), 300);
        let test = blob_stream(2, 30);
        let correct = test
            .iter()
            .filter(|(f, l)| adversary.predict_majority(f) == *l)
            .count();
        assert!(
            correct as f64 / test.len() as f64 > 0.9,
            "online accuracy {}",
            correct as f64 / test.len() as f64
        );
    }

    #[test]
    fn prequential_accuracy_converges_on_a_stationary_stream() {
        let adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        let mut evaluator = PrequentialEvaluator::new(adversary, 30);
        for (f, l) in blob_stream(3, 120) {
            evaluator.test_then_train(&f, l);
        }
        assert_eq!(evaluator.examples(), 360);
        assert_eq!(evaluator.matrix().total(), 360);
        // The timeline was snapshotted every 30 examples.
        assert_eq!(evaluator.timeline().len(), 12);
        // Later accuracy beats the cold-start prefix.
        let first = evaluator.timeline().first().expect("non-empty").accuracy;
        let last = evaluator.timeline().last().expect("non-empty").accuracy;
        assert!(
            last > first,
            "prequential accuracy should improve: {first} -> {last}"
        );
        assert!(last > 0.8, "converged accuracy {last}");
        // Member matrices cover the same stream.
        for (name, matrix) in evaluator.member_matrices() {
            assert_eq!(matrix.total(), 360, "{name} matrix incomplete");
        }
    }

    #[test]
    fn segments_split_the_stream_without_losing_counts() {
        let adversary = OnlineAdversary::new(3, 3, &EnsembleConfig::default());
        let mut evaluator = PrequentialEvaluator::new(adversary, 1000);
        let stream = blob_stream(5, 60);
        let (a, b) = stream.split_at(90);
        for (f, l) in a {
            evaluator.test_then_train(f, *l);
        }
        let first = evaluator.take_segment();
        for (f, l) in b {
            evaluator.test_then_train(f, *l);
        }
        let second = evaluator.take_segment();
        assert_eq!(first.total, 90);
        assert_eq!(second.total, 90);
        assert_eq!(
            first.majority_correct + second.majority_correct,
            (evaluator.accuracy() * 180.0).round() as u64
        );
        // The warmed-up second segment is at least as accurate.
        assert!(second.majority_accuracy() >= first.majority_accuracy());
        assert!(second.best_accuracy() >= second.majority_accuracy());
    }

    #[test]
    fn adversary_sink_scores_every_window_the_batch_path_produces() {
        let window = SimDuration::from_secs(5);
        let app = AppKind::Video;
        let trace = SessionGenerator::new(app, 9).generate_secs(60.0);
        let reference = streamed_examples(
            &mut trace.stream(),
            app,
            window,
            DEFAULT_MIN_PACKETS,
            FeatureMode::Full,
        );
        let adversary =
            OnlineAdversary::new(FEATURE_DIM, AppKind::COUNT, &EnsembleConfig::default());
        let mut sink = AdversarySink::new(
            FlowWindowers::for_app(window, DEFAULT_MIN_PACKETS, FeatureMode::Full, app),
            PrequentialEvaluator::new(adversary, 4),
        );
        let mut source = trace.stream();
        use traffic_gen::stream::PacketSource;
        while let Some(packet) = source.next_packet() {
            sink.push(0, &packet);
        }
        sink.finish();
        assert_eq!(sink.windows(), reference.len() as u64);
        assert_eq!(
            sink.evaluator().adversary().examples_seen(),
            reference.len() as u64
        );
        assert!(!sink.evaluator().timeline().is_empty());
    }
}
