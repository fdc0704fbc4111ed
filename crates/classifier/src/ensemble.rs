//! The "best of SVM and NN" adversary the paper reports.
//!
//! §IV-C: *"We present the highest classification accuracy based on these
//! features."* — i.e. for every experiment the stronger of the SVM and the
//! neural network is reported. [`AdversaryEnsemble`] trains both (plus naive
//! Bayes as an internal cross-check), normalises features with statistics
//! fitted on the training set only, and exposes evaluation helpers that pick
//! the best classifier per evaluation set.

use crate::bayes::GaussianNaiveBayes;
use crate::dataset::{Dataset, Normalizer};
use crate::kernel;
use crate::metrics::ConfusionMatrix;
use crate::nn::{NeuralNet, NnConfig};
use crate::svm::{LinearSvm, SvmConfig};
use crate::Classifier;
use std::borrow::Borrow;

/// Training configuration for the ensemble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// SVM hyper-parameters.
    pub svm: SvmConfig,
    /// Neural-network hyper-parameters.
    pub nn: NnConfig,
    /// Whether to also train the naive-Bayes cross-check.
    pub include_bayes: bool,
    /// Seed for the stochastic trainers.
    pub seed: u64,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            svm: SvmConfig::default(),
            nn: NnConfig::default(),
            include_bayes: true,
            seed: 0xC1A5_51F1,
        }
    }
}

/// The trained adversary: a normaliser plus one or more classifiers.
#[derive(Debug)]
pub struct AdversaryEnsemble {
    normalizer: Normalizer,
    classifiers: Vec<Box<dyn Classifier>>,
    class_count: usize,
}

impl AdversaryEnsemble {
    /// Trains the ensemble on a labelled training set.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(training: &Dataset, config: &EnsembleConfig) -> Self {
        assert!(
            !training.is_empty(),
            "cannot train the adversary on an empty dataset"
        );
        let normalizer = training.fit_normalizer();
        let normalized = training.normalized(&normalizer);
        // The three members are seeded independently (SVM from `seed`, NN
        // from `seed ^ 0x55` with its own rng, Bayes deterministic), so
        // training them concurrently on scoped threads is bit-identical to
        // the historical serial loop. The SVM and NN train on spawned
        // threads while Bayes runs on the caller's; joins happen in the
        // fixed member order.
        let (svm, nn, bayes) = std::thread::scope(|s| {
            let svm = s.spawn(|| LinearSvm::train(&normalized, &config.svm, config.seed));
            let nn = s.spawn(|| NeuralNet::train(&normalized, &config.nn, config.seed ^ 0x55));
            let bayes = config
                .include_bayes
                .then(|| GaussianNaiveBayes::train(&normalized));
            (
                svm.join().expect("the SVM trainer panicked"),
                nn.join().expect("the NN trainer panicked"),
                bayes,
            )
        });
        let mut classifiers: Vec<Box<dyn Classifier>> = Vec::new();
        classifiers.push(Box::new(svm));
        classifiers.push(Box::new(nn));
        if let Some(bayes) = bayes {
            classifiers.push(Box::new(bayes));
        }
        AdversaryEnsemble {
            normalizer,
            classifiers,
            class_count: training.class_count(),
        }
    }

    /// The number of classes the adversary distinguishes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Names of the trained member classifiers.
    pub fn member_names(&self) -> Vec<&'static str> {
        self.classifiers.iter().map(|c| c.name()).collect()
    }

    /// Evaluates every member and returns `(name, confusion matrix)` pairs.
    pub fn evaluate_all(&self, eval: &Dataset) -> Vec<(&'static str, ConfusionMatrix)> {
        let classes = self.class_count.max(eval.class_count());
        let mut matrices = vec![ConfusionMatrix::new(classes); self.classifiers.len()];
        let mut scratch = VoteScratch::new();
        for ex in eval.examples() {
            self.record_members(&ex.features, ex.label, &mut matrices, &mut scratch);
        }
        self.member_names().into_iter().zip(matrices).collect()
    }

    /// Scores one example with every member, recording member `k`'s
    /// prediction against `label` in `matrices[k]` (the features are
    /// normalised once), and returns the members' majority vote, which is
    /// what [`predict_majority`](Self::predict_majority) predicts. The
    /// per-member accumulation behind [`evaluate_all`](Self::evaluate_all)
    /// and the streaming per-member scorer.
    pub fn record_members(
        &self,
        features: &[f64],
        label: usize,
        matrices: &mut [ConfusionMatrix],
        scratch: &mut VoteScratch,
    ) -> usize {
        assert_eq!(
            matrices.len(),
            self.classifiers.len(),
            "one matrix per member"
        );
        scratch.block.clear();
        self.normalizer.transform_into(features, &mut scratch.block);
        scratch.v0.clear();
        for (member, matrix) in self.classifiers.iter().zip(matrices.iter_mut()) {
            let predicted = member.predict(&scratch.block);
            matrix.record(label, predicted);
            scratch.v0.push(predicted);
        }
        majority_vote(&scratch.v0, self.class_count)
    }

    /// Evaluates the ensemble the way the paper reports results: the member
    /// with the highest *mean accuracy* on the evaluation set is selected and
    /// its confusion matrix returned together with its name.
    ///
    /// Runs every member exactly once ([`evaluate_all`](Self::evaluate_all))
    /// and selects with [`best_of`](Self::best_of); callers that already hold
    /// `evaluate_all` results should call `best_of` directly instead of
    /// re-running the evaluations.
    pub fn evaluate_best(&self, eval: &Dataset) -> (&'static str, ConfusionMatrix) {
        Self::best_of(self.evaluate_all(eval))
    }

    /// Selects the best member from **cached** `(name, confusion matrix)`
    /// evaluation results: highest mean accuracy, with exact ties broken
    /// deterministically in favour of the lexicographically smallest member
    /// name (so "naive-bayes" beats "nn" beats "svm" at equal accuracy,
    /// regardless of training order).
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn best_of(
        results: Vec<(&'static str, ConfusionMatrix)>,
    ) -> (&'static str, ConfusionMatrix) {
        results
            .into_iter()
            .max_by(|(name_a, a), (name_b, b)| {
                a.mean_accuracy()
                    .partial_cmp(&b.mean_accuracy())
                    .expect("accuracies are finite")
                    // On an exact accuracy tie the *smaller* name must rank
                    // higher, hence the reversed comparison.
                    .then_with(|| name_b.cmp(name_a))
            })
            .expect("ensemble has at least one classifier")
    }

    /// Predicts a single feature vector with every member and returns the
    /// majority vote (ties broken in favour of the first member, the SVM).
    ///
    /// For the committed three-member shape (SVM, NN, naive Bayes) the vote
    /// short-circuits: two agreeing members already decide a three-way vote,
    /// so the third member only runs as arbiter when the first two disagree,
    /// and a three-way split falls back to the first member exactly as
    /// [`majority_vote`]'s tie rule does.
    pub fn predict_majority(&self, features: &[f64]) -> usize {
        let normalized = self.normalizer.apply(features);
        if let [first, second, third] = self.classifiers.as_slice() {
            let m0 = first.predict(&normalized);
            let m1 = second.predict(&normalized);
            if m0 == m1 {
                return m0;
            }
            let m2 = third.predict(&normalized);
            return if m2 == m1 { m1 } else { m0 };
        }
        let predictions: Vec<usize> = self
            .classifiers
            .iter()
            .map(|c| c.predict(&normalized))
            .collect();
        majority_vote(&predictions, self.class_count)
    }

    /// Batched [`predict_majority`](Self::predict_majority): one majority
    /// vote per `dim`-wide row of `rows`, into `out`. Normalisation packs
    /// every row into one flat block, the first two members score the whole
    /// block through their `predict_slice` kernels, and the third member
    /// arbitrates only the **gathered** rows where they disagree — the same
    /// per-row short-circuit as the scalar path, so the votes are
    /// bit-identical to calling `predict_majority` row by row.
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
        // The normalised stride can be shorter than `dim` when the rows are
        // wider than the fitted normaliser (matching `apply`'s zip).
        let stride = dim.min(self.normalizer.dim()).max(1);
        vote_slice(&self.classifiers, self.class_count, stride, scratch, out);
    }
}

/// Reusable buffers for the slice-vote paths
/// ([`AdversaryEnsemble::predict_majority_slice`] and the online
/// adversary's counterpart).
#[derive(Debug, Clone, Default)]
pub struct VoteScratch {
    /// The normalised feature block, rows packed back to back.
    pub(crate) block: Vec<f64>,
    /// Member-level kernel scratch.
    pub(crate) kernel: kernel::Scratch,
    /// First member's votes for the whole block.
    pub(crate) v0: Vec<usize>,
    /// Second member's votes for the whole block.
    pub(crate) v1: Vec<usize>,
    /// Arbiter votes for the gathered disagreeing rows.
    pub(crate) v2: Vec<usize>,
    /// Disagreeing rows, gathered contiguously for the arbiter pass.
    pub(crate) gather: Vec<f64>,
    /// Block indices of the gathered rows.
    pub(crate) gather_idx: Vec<usize>,
}

impl VoteScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        VoteScratch::default()
    }
}

/// The shared slice-vote kernel over an **already normalised** block held in
/// `scratch.block` (`n` rows of `dim`): for the committed three-member shape
/// the first two members score the whole block, and the third scores only
/// the gathered disagreeing rows (two agreeing members already decide a
/// three-way vote). Any other shape falls back to the general
/// [`majority_vote`] per row. Both paths reproduce the scalar vote exactly.
pub(crate) fn vote_slice<M: Borrow<dyn Classifier>>(
    members: &[M],
    classes: usize,
    dim: usize,
    scratch: &mut VoteScratch,
    out: &mut Vec<usize>,
) {
    let VoteScratch {
        block,
        kernel,
        v0,
        v1,
        v2,
        gather,
        gather_idx,
        ..
    } = scratch;
    let n = block.len() / dim;
    if let [first, second, third] = members {
        first.borrow().predict_slice(block, dim, v0, kernel);
        second.borrow().predict_slice(block, dim, v1, kernel);
        out.clear();
        out.extend_from_slice(v0);
        gather.clear();
        gather_idx.clear();
        for i in 0..n {
            if v0[i] != v1[i] {
                gather.extend_from_slice(&block[i * dim..(i + 1) * dim]);
                gather_idx.push(i);
            }
        }
        if !gather_idx.is_empty() {
            third.borrow().predict_slice(gather, dim, v2, kernel);
            for (&i, &m2) in gather_idx.iter().zip(v2.iter()) {
                out[i] = if m2 == v1[i] { v1[i] } else { v0[i] };
            }
        }
        return;
    }
    out.clear();
    for row in block.chunks_exact(dim) {
        v0.clear();
        v0.extend(members.iter().map(|m| m.borrow().predict(row)));
        out.push(majority_vote(v0, classes));
    }
}

/// The shared majority-vote rule of the batch and online adversaries: the
/// most-voted class wins, with ties broken in favour of the first member's
/// prediction (the SVM); a tie the first member is not part of goes to the
/// highest class index. Predictions outside `0..classes` cast no vote.
///
/// Votes are counted by scanning the (member-sized) prediction list instead
/// of a per-class tally, so the per-window scoring path allocates nothing.
///
/// # Panics
///
/// Panics if `predictions` is empty.
pub fn majority_vote(predictions: &[usize], classes: usize) -> usize {
    let classes = classes.max(1);
    let votes = |class: usize| {
        if class < classes {
            predictions.iter().filter(|&&p| p == class).count()
        } else {
            0
        }
    };
    let first_choice = predictions[0];
    let max_votes = predictions.iter().map(|&p| votes(p)).max().unwrap_or(0);
    if votes(first_choice) == max_votes {
        first_choice
    } else {
        predictions
            .iter()
            .copied()
            .filter(|&p| votes(p) == max_votes)
            .max()
            .unwrap_or(first_choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(seed: u64, spread: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(3);
        let centers = [[0.0, 0.0, 0.0], [8.0, 0.0, 4.0], [0.0, 8.0, -4.0]];
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..60 {
                let f: Vec<f64> = c
                    .iter()
                    .map(|m| m + rng.gen_range(-spread..spread))
                    .collect();
                data.push(f, label);
            }
        }
        data
    }

    #[test]
    fn ensemble_trains_and_evaluates() {
        let train = blobs(1, 1.0);
        let test = blobs(2, 1.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        assert_eq!(ensemble.class_count(), 3);
        assert_eq!(ensemble.member_names(), vec!["svm", "nn", "naive-bayes"]);
        let (name, matrix) = ensemble.evaluate_best(&test);
        assert!(["svm", "nn", "naive-bayes"].contains(&name));
        assert!(
            matrix.mean_accuracy() > 0.9,
            "mean accuracy {}",
            matrix.mean_accuracy()
        );
    }

    #[test]
    fn best_member_is_at_least_as_good_as_every_member() {
        let train = blobs(3, 2.5);
        let test = blobs(4, 2.5);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        // One evaluation pass, cached; selection re-uses the matrices.
        let all = ensemble.evaluate_all(&test);
        let (_, best) = AdversaryEnsemble::best_of(all.clone());
        for (_, m) in &all {
            assert!(best.mean_accuracy() >= m.mean_accuracy() - 1e-12);
        }
        // evaluate_best agrees with best_of over the cached results.
        let (name, matrix) = ensemble.evaluate_best(&test);
        let (cached_name, cached_matrix) = AdversaryEnsemble::best_of(all);
        assert_eq!(name, cached_name);
        assert_eq!(matrix, cached_matrix);
    }

    #[test]
    fn accuracy_ties_break_deterministically_by_member_name() {
        use crate::metrics::ConfusionMatrix;
        let perfect = ConfusionMatrix::from_pairs(2, &[(0, 0), (1, 1)]);
        // Equal accuracy in every order: the lexicographically smallest name wins.
        for results in [
            vec![("svm", perfect.clone()), ("nn", perfect.clone())],
            vec![("nn", perfect.clone()), ("svm", perfect.clone())],
        ] {
            let (name, _) = AdversaryEnsemble::best_of(results);
            assert_eq!(name, "nn");
        }
        // A strictly better member still wins regardless of its name.
        let worse = ConfusionMatrix::from_pairs(2, &[(0, 0), (1, 0)]);
        let (name, _) = AdversaryEnsemble::best_of(vec![("aaa", worse), ("svm", perfect.clone())]);
        assert_eq!(name, "svm");
    }

    #[test]
    fn majority_vote_predicts_sensible_classes() {
        let train = blobs(5, 1.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        assert_eq!(ensemble.predict_majority(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(ensemble.predict_majority(&[8.0, 0.0, 4.0]), 1);
        assert_eq!(ensemble.predict_majority(&[0.0, 8.0, -4.0]), 2);
    }

    #[test]
    fn short_circuit_vote_matches_the_general_majority_rule() {
        let train = blobs(7, 3.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            // Points all over the space, including far between the blobs,
            // so the members genuinely disagree on a fraction of them.
            let f: Vec<f64> = (0..3).map(|_| rng.gen_range(-4.0..12.0)).collect();
            let normalized = ensemble.normalizer.apply(&f);
            let predictions: Vec<usize> = ensemble
                .classifiers
                .iter()
                .map(|c| c.predict(&normalized))
                .collect();
            assert_eq!(
                ensemble.predict_majority(&f),
                majority_vote(&predictions, ensemble.class_count),
                "members voted {predictions:?}"
            );
        }
    }

    #[test]
    fn record_members_scores_each_member_and_returns_the_majority_vote() {
        let train = blobs(7, 3.0);
        let test = blobs(8, 3.0);
        let ensemble = AdversaryEnsemble::train(&train, &EnsembleConfig::default());
        let mut matrices = vec![ConfusionMatrix::new(3); 3];
        let mut scratch = VoteScratch::new();
        let mut expected = vec![ConfusionMatrix::new(3); 3];
        for ex in test.examples() {
            let vote = ensemble.record_members(&ex.features, ex.label, &mut matrices, &mut scratch);
            assert_eq!(vote, ensemble.predict_majority(&ex.features));
            let normalized = ensemble.normalizer.apply(&ex.features);
            for (member, matrix) in ensemble.classifiers.iter().zip(&mut expected) {
                matrix.record(ex.label, member.predict(&normalized));
            }
        }
        assert_eq!(matrices, expected);
        let all: Vec<ConfusionMatrix> = ensemble
            .evaluate_all(&test)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn majority_vote_matches_a_per_class_tally_exhaustively() {
        // The historical rule: tally votes per class, keep the first
        // member's choice if it has the most votes, else the last
        // most-voted class in index order.
        fn tally_vote(predictions: &[usize], classes: usize) -> usize {
            let mut votes = vec![0usize; classes.max(1)];
            for &p in predictions {
                if p < votes.len() {
                    votes[p] += 1;
                }
            }
            let first_choice = predictions[0];
            let max_votes = votes.iter().copied().max().unwrap_or(0);
            if votes.get(first_choice).copied().unwrap_or(0) == max_votes {
                first_choice
            } else {
                votes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, v)| **v)
                    .map(|(i, _)| i)
                    .unwrap_or(first_choice)
            }
        }
        // Every prediction list of 1–4 members over 5 labels, against 0–4
        // classes (so out-of-range labels are covered too).
        for members in 1..=4u32 {
            for code in 0..5usize.pow(members) {
                let predictions: Vec<usize> =
                    (0..members).map(|i| code / 5usize.pow(i) % 5).collect();
                for classes in 0..=4 {
                    assert_eq!(
                        majority_vote(&predictions, classes),
                        tally_vote(&predictions, classes),
                        "{predictions:?} over {classes} classes"
                    );
                }
            }
        }
    }

    #[test]
    fn bayes_can_be_disabled() {
        let train = blobs(6, 1.0);
        let config = EnsembleConfig {
            include_bayes: false,
            ..EnsembleConfig::default()
        };
        let ensemble = AdversaryEnsemble::train(&train, &config);
        assert_eq!(ensemble.member_names(), vec!["svm", "nn"]);
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let _ = AdversaryEnsemble::train(&Dataset::new(2), &EnsembleConfig::default());
    }
}
