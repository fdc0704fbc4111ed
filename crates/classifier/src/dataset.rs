//! Labelled datasets, normalisation and train/test splitting.

use crate::stream::RunningStats;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One labelled training/evaluation example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledExample {
    /// The feature vector.
    pub features: Vec<f64>,
    /// The class label (a dense index).
    pub label: usize,
}

/// A collection of labelled examples with a fixed feature dimension.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    dim: usize,
    examples: Vec<LabeledExample>,
}

impl Dataset {
    /// Creates an empty dataset for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        Dataset {
            dim,
            examples: Vec::new(),
        }
    }

    /// The feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The examples.
    pub fn examples(&self) -> &[LabeledExample] {
        &self.examples
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Adds an example.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector does not match the dataset dimension.
    pub fn push(&mut self, features: Vec<f64>, label: usize) {
        assert_eq!(
            features.len(),
            self.dim,
            "feature vector has {} dimensions, dataset expects {}",
            features.len(),
            self.dim
        );
        self.examples.push(LabeledExample { features, label });
    }

    /// The number of distinct classes (`max label + 1`, 0 when empty).
    pub fn class_count(&self) -> usize {
        self.examples.iter().map(|e| e.label + 1).max().unwrap_or(0)
    }

    /// Number of examples per label.
    pub fn label_histogram(&self) -> HashMap<usize, usize> {
        let mut h = HashMap::new();
        for e in &self.examples {
            *h.entry(e.label).or_insert(0) += 1;
        }
        h
    }

    /// Fits a z-score normaliser on this dataset.
    pub fn fit_normalizer(&self) -> Normalizer {
        Normalizer::fit(self)
    }

    /// Returns a copy with every feature column z-score normalised by `norm`.
    pub fn normalized(&self, norm: &Normalizer) -> Dataset {
        let examples = self
            .examples
            .iter()
            .map(|e| LabeledExample {
                features: norm.apply(&e.features),
                label: e.label,
            })
            .collect();
        Dataset {
            dim: self.dim,
            examples,
        }
    }

    /// Splits into `(train, test)` with approximately `test_fraction` of each
    /// class going to the test set (stratified split).
    pub fn stratified_split<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        test_fraction: f64,
    ) -> (Dataset, Dataset) {
        let test_fraction = test_fraction.clamp(0.0, 1.0);
        let mut by_label: HashMap<usize, Vec<&LabeledExample>> = HashMap::new();
        for e in &self.examples {
            by_label.entry(e.label).or_default().push(e);
        }
        let mut train = Dataset::new(self.dim);
        let mut test = Dataset::new(self.dim);
        let mut labels: Vec<usize> = by_label.keys().copied().collect();
        labels.sort_unstable();
        for label in labels {
            let mut group = by_label.remove(&label).expect("label exists");
            group.shuffle(rng);
            let n_test = ((group.len() as f64) * test_fraction).round() as usize;
            for (i, e) in group.into_iter().enumerate() {
                if i < n_test {
                    test.push(e.features.clone(), e.label);
                } else {
                    train.push(e.features.clone(), e.label);
                }
            }
        }
        (train, test)
    }

    /// Merges another dataset into this one.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn extend_from(&mut self, other: &Dataset) {
        assert_eq!(self.dim, other.dim, "dataset dimensions differ");
        self.examples.extend_from_slice(&other.examples);
    }
}

/// Per-column z-score normalisation fitted on a training set.
///
/// This is the **frozen snapshot** form: fixed means and standard deviations
/// fitted once (on a batch training set, or taken from a
/// [`RunningNormalizer`] at any point of a stream).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Replaces a degenerate scale with 1.0 so constant (zero-variance) columns
/// pass through centred instead of dividing by zero into NaN/inf features.
/// The `s > …` comparison is false for a NaN scale (conceivable only through
/// pathological float accumulation), so that also takes the safe fallback.
fn safe_std(s: f64) -> f64 {
    if s > 1e-12 {
        s
    } else {
        1.0
    }
}

impl Normalizer {
    /// Fits means and standard deviations per feature column — a thin wrapper
    /// over a [`RunningNormalizer`] absorbing the dataset once and
    /// snapshotting.
    pub fn fit(data: &Dataset) -> Self {
        let mut running = RunningNormalizer::new(data.dim());
        for e in data.examples() {
            running.observe(&e.features);
        }
        running.snapshot()
    }

    /// Applies the normalisation to one feature vector.
    pub fn apply(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(features.len().min(self.means.len()));
        self.transform_into(features, &mut out);
        out
    }

    /// Appends the normalised form of `features` to `out` — the
    /// allocation-free counterpart of [`apply`](Self::apply), appending so
    /// callers can pack many rows into one flat slice buffer.
    pub fn transform_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.extend(
            features
                .iter()
                .zip(self.means.iter().zip(&self.stds))
                .map(|(x, (m, s))| (x - m) / s),
        );
    }

    /// The feature dimensionality the normaliser was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }
}

/// Streaming z-score normalisation: per-column [`RunningStats`] updated one
/// example at a time, applying the **current** statistics to each vector.
///
/// This is the online adversary's replacement for the static [`Normalizer`]:
/// there is no training set to fit on up front, so the scale estimates evolve
/// with the stream. O(dim) state; [`snapshot`](Self::snapshot) freezes the
/// current statistics into a [`Normalizer`] (which is exactly how
/// [`Normalizer::fit`] is implemented).
///
/// Each column caches the mean and safe standard deviation derived from its
/// statistics, refreshed by [`observe`](Self::observe): a test-then-train
/// stream applies the same statistics twice (to score an example, then —
/// after observing it — to learn from it, and the learning pass's
/// statistics are the next example's scoring statistics), so deriving them
/// once per observation instead of once per application halves the work
/// without changing a bit.
#[derive(Debug, Clone, Default)]
pub struct RunningNormalizer {
    columns: Vec<Column>,
}

/// One column of a [`RunningNormalizer`]: its running statistics plus the
/// z-score parameters derived from them.
#[derive(Debug, Clone, Copy)]
struct Column {
    stats: RunningStats,
    mean: f64,
    scale: f64,
}

impl Column {
    fn of(stats: RunningStats) -> Self {
        Column {
            stats,
            mean: stats.mean(),
            scale: safe_std(stats.std_dev()),
        }
    }
}

impl RunningNormalizer {
    /// Creates a normalizer for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        RunningNormalizer {
            columns: vec![Column::of(RunningStats::default()); dim],
        }
    }

    /// The feature dimensionality.
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Number of feature vectors absorbed so far.
    pub fn count(&self) -> u64 {
        self.columns.first().map_or(0, |c| c.stats.count())
    }

    /// Absorbs one feature vector into the per-column statistics.
    pub fn observe(&mut self, features: &[f64]) {
        for (column, &x) in self.columns.iter_mut().zip(features) {
            column.stats.push(x);
            *column = Column::of(column.stats);
        }
    }

    /// Applies the current z-score statistics to one feature vector.
    /// Zero-variance columns are centred but not scaled (see [`safe_std`] —
    /// before the fix a constant column yielded NaN/inf features).
    pub fn apply(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(features.len().min(self.columns.len()));
        self.transform_into(features, &mut out);
        out
    }

    /// Appends the normalised form of `features` to `out` with the
    /// **current** statistics — the allocation-free counterpart of
    /// [`apply`](Self::apply).
    pub fn transform_into(&self, features: &[f64], out: &mut Vec<f64>) {
        out.extend(
            features
                .iter()
                .zip(&self.columns)
                .map(|(x, c)| (x - c.mean) / c.scale),
        );
    }

    /// Writes the normalised form of `features` into `out`, one entry per
    /// element of `out` — [`transform_into`](Self::transform_into) for a
    /// caller-sized (e.g. stack) buffer of `features.len().min(dim)`
    /// entries.
    pub(crate) fn transform_to(&self, features: &[f64], out: &mut [f64]) {
        for ((o, x), c) in out.iter_mut().zip(features).zip(&self.columns) {
            *o = (x - c.mean) / c.scale;
        }
    }

    /// Freezes the current statistics into a static [`Normalizer`].
    pub fn snapshot(&self) -> Normalizer {
        let mut norm = Normalizer::default();
        self.snapshot_into(&mut norm);
        norm
    }

    /// [`snapshot`](Self::snapshot) into an existing [`Normalizer`], reusing
    /// its buffers — lets a slice-scoring hot path freeze the current
    /// statistics once per slice without allocating. Applying the snapshot
    /// is bit-identical to [`apply`](Self::apply) (both read the same
    /// derived mean and safe standard deviation per column).
    pub fn snapshot_into(&self, norm: &mut Normalizer) {
        norm.means.clear();
        norm.stds.clear();
        norm.means.extend(self.columns.iter().map(|c| c.mean));
        norm.stds.extend(self.columns.iter().map(|c| c.scale));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push(vec![i as f64, 100.0], 0);
            d.push(vec![i as f64, 200.0], 1);
        }
        d
    }

    #[test]
    fn push_and_accessors() {
        let d = toy_dataset();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 80);
        assert!(!d.is_empty());
        assert_eq!(d.class_count(), 2);
        let hist = d.label_histogram();
        assert_eq!(hist[&0], 40);
        assert_eq!(hist[&1], 40);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut d = Dataset::new(3);
        d.push(vec![1.0, 2.0], 0);
    }

    #[test]
    fn normalizer_zero_means_unit_std() {
        let d = toy_dataset();
        let norm = d.fit_normalizer();
        let nd = d.normalized(&norm);
        for col in 0..2 {
            let values: Vec<f64> = nd.examples().iter().map(|e| e.features[col]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
            assert!(mean.abs() < 1e-9, "column {col} mean {mean}");
            // Column 1 has two distinct values, std must be 1 after scaling.
            assert!(var.sqrt() > 0.5, "column {col} std {}", var.sqrt());
        }
    }

    #[test]
    fn constant_columns_do_not_divide_by_zero() {
        // Regression test: a zero-variance (constant) feature column must not
        // produce NaN/inf features on either the batch or the running path.
        let mut d = Dataset::new(2);
        for i in 0..5 {
            d.push(vec![3.0, i as f64], 0);
        }
        let norm = d.fit_normalizer();
        let out = norm.apply(&[3.0, 2.0]);
        assert!(out[0].abs() < 1e-12);
        assert!(out.iter().all(|v| v.is_finite()), "batch: {out:?}");
        // Off-mean values of the constant column stay finite too (centred,
        // unscaled).
        let off = norm.apply(&[7.5, 2.0]);
        assert!(off.iter().all(|v| v.is_finite()), "batch off-mean: {off:?}");
        assert!((off[0] - 4.5).abs() < 1e-12);

        let mut running = RunningNormalizer::new(2);
        for e in d.examples() {
            running.observe(&e.features);
        }
        let out = running.apply(&[3.0, 2.0]);
        assert!(out.iter().all(|v| v.is_finite()), "running: {out:?}");
        let off = running.apply(&[7.5, 2.0]);
        assert!(
            off.iter().all(|v| v.is_finite()),
            "running off-mean: {off:?}"
        );
    }

    #[test]
    fn running_normalizer_matches_batch_fit() {
        let d = toy_dataset();
        let batch = d.fit_normalizer();
        let mut running = RunningNormalizer::new(d.dim());
        for e in d.examples() {
            running.observe(&e.features);
        }
        assert_eq!(running.count(), d.len() as u64);
        assert_eq!(running.dim(), d.dim());
        // Normalizer::fit is literally a running snapshot, so the frozen
        // statistics agree exactly, and apply() agrees between the running
        // and snapshot forms.
        assert_eq!(running.snapshot(), batch);
        let x = &d.examples()[7].features;
        assert_eq!(running.apply(x), batch.apply(x));
    }

    #[test]
    fn running_normalizer_evolves_with_the_stream() {
        let mut running = RunningNormalizer::new(1);
        running.observe(&[0.0]);
        // One sample: zero variance, centred but unscaled.
        assert_eq!(running.apply(&[1.0]), vec![1.0]);
        running.observe(&[10.0]);
        // Mean 5, std 5 now.
        let z = running.apply(&[10.0]);
        assert!((z[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stratified_split_respects_fraction_and_classes() {
        let d = toy_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = d.stratified_split(&mut rng, 0.25);
        assert_eq!(train.len() + test.len(), d.len());
        let test_hist = test.label_histogram();
        assert_eq!(test_hist[&0], 10);
        assert_eq!(test_hist[&1], 10);
        let (all_train, empty_test) = d.stratified_split(&mut rng, 0.0);
        assert_eq!(all_train.len(), d.len());
        assert!(empty_test.is_empty());
    }

    #[test]
    fn extend_from_merges() {
        let mut a = toy_dataset();
        let b = toy_dataset();
        a.extend_from(&b);
        assert_eq!(a.len(), 160);
    }
}
