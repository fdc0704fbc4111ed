//! Gaussian naive Bayes.
//!
//! Not part of the paper's adversary, but a useful independent cross-check:
//! if a dirt-simple generative model already separates the applications, the
//! SVM/NN results are not an artifact of a particular discriminative trainer.
//!
//! The model is stored as **incremental sufficient statistics** — per-class
//! counts plus Welford-style running means and centred second moments — so it
//! learns online via [`OnlineClassifier::partial_fit`] in O(classes × dim)
//! state; the batch [`train`](GaussianNaiveBayes::train) entry point is a
//! thin wrapper that feeds the dataset through `partial_fit` once, in dataset
//! order. Welford's update is numerically stable for the same reason the
//! shifted accumulation in [`RunningStats`](crate::stream::RunningStats) is:
//! the second moment is accumulated already centred, so large means with tiny
//! spreads never catastrophically cancel.
//!
//! Prediction reads a cached `(mean, variance, ln variance)` table with one
//! entry per class and feature. The invariant: class `c`'s entries (its
//! "row") are recomputed exactly when class `c` trains (and nowhere else),
//! with the same `(M₂ / n).max(VARIANCE_FLOOR)`
//! expression [`log_posteriors`](GaussianNaiveBayes::log_posteriors)
//! evaluates from scratch — so a prediction costs one `ln` per class (the
//! prior) instead of one per (class, feature), and stays bit-identical to the
//! recomputing reference. The table is stored feature-major (all classes of
//! one feature side by side), so a prediction updates every class's
//! log-likelihood per feature in one contiguous, vectorisable pass.

use crate::dataset::Dataset;
use crate::kernel::{self, Scratch};
use crate::{Classifier, OnlineClassifier};
use serde::{Deserialize, Error, Serialize, Value};

/// A Gaussian naive Bayes classifier over incremental sufficient statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNaiveBayes {
    dim: usize,
    /// Examples absorbed in total (cached sum of `counts`).
    total: u64,
    /// Examples absorbed per class.
    counts: Vec<u64>,
    /// Welford `(running mean, centred second moment M₂ = Σ (x − mean)²)`
    /// per class and feature, flat row-major `classes × dim` (variance =
    /// `M₂ / count`).
    moments: Vec<(f64, f64)>,
    /// Cached `(mean, variance, ln variance)` per class and feature — a pure
    /// function of `counts` and `moments`, refreshed class by class as
    /// classes train (never serialized). Feature-major: feature `j` owns
    /// `3 × classes` entries, its means for every class, then the variances,
    /// then their logarithms.
    table: Vec<f64>,
}

/// Variance floor to keep the log-likelihood finite for constant features.
const VARIANCE_FLOOR: f64 = 1e-6;

/// The variance a class with `count` examples and second moment `m2` has in
/// one feature — the single expression both the cached table and the
/// recomputing [`log_posteriors`](GaussianNaiveBayes::log_posteriors) use.
fn variance(m2: f64, count: u64) -> f64 {
    if count == 0 {
        VARIANCE_FLOOR
    } else {
        (m2 / count as f64).max(VARIANCE_FLOOR)
    }
}

impl GaussianNaiveBayes {
    /// Creates an untrained model for `dim`-dimensional features over
    /// `classes` classes. Absorb examples with
    /// [`partial_fit`](OnlineClassifier::partial_fit).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(classes > 0, "naive Bayes needs at least one class");
        let mut nb = GaussianNaiveBayes {
            dim,
            total: 0,
            counts: vec![0; classes],
            moments: vec![(0.0, 0.0); classes * dim],
            table: vec![0.0; 3 * classes * dim],
        };
        nb.refresh_all();
        nb
    }

    /// Fits per-class feature means/variances and class priors — a thin
    /// wrapper over one [`partial_fit`](OnlineClassifier::partial_fit) pass in
    /// dataset order (the equivalence is property-tested). The variance table
    /// is built once at the end instead of after every example; the result
    /// is identical because each row depends only on its class's final
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot train naive Bayes on an empty dataset"
        );
        let mut nb = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for e in data.examples() {
            nb.absorb(&e.features, e.label);
        }
        nb.refresh_all();
        nb
    }

    /// Per-class log posterior (up to a constant) for a feature vector,
    /// recomputed from the Welford statistics without the cached table — the
    /// reference the table-driven [`predict`](Classifier::predict) and
    /// [`predict_slice`](Classifier::predict_slice) are tested against.
    pub fn log_posteriors(&self, features: &[f64]) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        (0..self.counts.len())
            .map(|c| {
                let prior = (self.counts[c] as f64 / total).max(1e-12);
                let mut lp = prior.ln();
                for (x, &(m, m2)) in features.iter().take(self.dim).zip(self.row(c)) {
                    let v = variance(m2, self.counts[c]);
                    lp += -0.5 * ((x - m).powi(2) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
                }
                lp
            })
            .collect()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.counts.len()
    }

    /// Class `c`'s Welford moments, one per feature.
    fn row(&self, c: usize) -> &[(f64, f64)] {
        &self.moments[c * self.dim..(c + 1) * self.dim]
    }

    /// Welford update of class `label`'s statistics, leaving the variance
    /// table stale for that row.
    fn absorb(&mut self, features: &[f64], label: usize) {
        assert!(
            label < self.counts.len(),
            "label {label} out of range for {} classes",
            self.counts.len()
        );
        self.counts[label] += 1;
        self.total += 1;
        let n = self.counts[label] as f64;
        let row = &mut self.moments[label * self.dim..(label + 1) * self.dim];
        for (&x, (m, m2)) in features.iter().zip(row) {
            // Welford: centre against the running mean before and after the
            // mean update.
            let delta = x - *m;
            *m += delta / n;
            *m2 += delta * (x - *m);
        }
    }

    /// Recomputes class `c`'s `(mean, variance, ln variance)` entries from
    /// its statistics.
    fn refresh_row(&mut self, c: usize) {
        let classes = self.counts.len();
        let count = self.counts[c];
        let row = &self.moments[c * self.dim..(c + 1) * self.dim];
        for (entry, &(mean, m2)) in self.table.chunks_exact_mut(3 * classes).zip(row) {
            let v = variance(m2, count);
            entry[c] = mean;
            // A variance that did not move (a constant feature on the floor)
            // keeps its logarithm.
            if v.to_bits() != entry[classes + c].to_bits() {
                entry[classes + c] = v;
                entry[2 * classes + c] = v.ln();
            }
        }
    }

    /// Recomputes every class's table entries.
    fn refresh_all(&mut self) {
        for c in 0..self.counts.len() {
            self.refresh_row(c);
        }
    }

    /// The first-maximum argmax of the per-class log posteriors of one row,
    /// read off the cached table. `lp` holds each class's log prior on entry
    /// and is the per-class accumulator.
    ///
    /// Each feature adds its term to every class in one contiguous pass over
    /// the table (independent lanes, so the divisions vectorise). Each
    /// class's accumulator still adds its terms in feature order with the
    /// exact association of [`log_posteriors`](Self::log_posteriors)
    /// (`(x−m)²/v + ln v` first, then `+ ln 2π`), so the result is the
    /// argmax of the reference bit for bit.
    fn argmax_cached(&self, row: &[f64], lp: &mut [f64]) -> usize {
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        let classes = self.counts.len();
        for (&x, entry) in row.iter().zip(self.table.chunks_exact(3 * classes)) {
            let (means, rest) = entry.split_at(classes);
            let (vars, ln_vars) = rest.split_at(classes);
            for (((lp, m), v), ln_v) in lp.iter_mut().zip(means).zip(vars).zip(ln_vars) {
                *lp += -0.5 * ((x - m).powi(2) / v + ln_v + ln_2pi);
            }
        }
        kernel::argmax(lp)
    }

    /// Class `c`'s log prior.
    fn log_prior(&self, c: usize) -> f64 {
        let total = self.total.max(1) as f64;
        (self.counts[c] as f64 / total).max(1e-12).ln()
    }
}

impl Classifier for GaussianNaiveBayes {
    fn predict(&self, features: &[f64]) -> usize {
        kernel::with_buffer(self.counts.len(), [0.0; 8], |lp| {
            for (c, lp) in lp.iter_mut().enumerate() {
                *lp = self.log_prior(c);
            }
            self.argmax_cached(features, lp)
        })
    }

    fn name(&self) -> &'static str {
        "naive-bayes"
    }

    fn predict_slice(&self, rows: &[f64], dim: usize, out: &mut Vec<usize>, scratch: &mut Scratch) {
        assert!(dim > 0, "predict_slice needs a positive feature dimension");
        // The per-class log priors are the only per-call derivation left
        // (the table is already cached); hoist them out of the row loop.
        let classes = self.counts.len();
        scratch.b.clear();
        scratch.b.extend((0..classes).map(|c| self.log_prior(c)));
        out.clear();
        for row in rows.chunks_exact(dim) {
            scratch.a.clear();
            scratch.a.extend_from_slice(&scratch.b);
            out.push(self.argmax_cached(row, &mut scratch.a));
        }
    }
}

impl OnlineClassifier for GaussianNaiveBayes {
    fn partial_fit(&mut self, features: &[f64], label: usize) {
        self.absorb(features, label);
        self.refresh_row(label);
    }

    fn examples_seen(&self) -> u64 {
        self.total
    }

    fn clone_online(&self) -> Box<dyn OnlineClassifier> {
        Box::new(self.clone())
    }
}

/// Serialized as the historical nested shape (`means`/`m2s` as one array
/// per class); the variance table is derived state and is rebuilt on load.
impl Serialize for GaussianNaiveBayes {
    fn to_value(&self) -> Value {
        let rows = |part: fn(&(f64, f64)) -> f64| -> Value {
            Value::Seq(
                (0..self.counts.len())
                    .map(|c| Value::Seq(self.row(c).iter().map(|m| part(m).to_value()).collect()))
                    .collect(),
            )
        };
        Value::Map(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("total".to_string(), self.total.to_value()),
            ("counts".to_string(), self.counts.to_value()),
            ("means".to_string(), rows(|&(mean, _)| mean)),
            ("m2s".to_string(), rows(|&(_, m2)| m2)),
        ])
    }
}

impl Deserialize for GaussianNaiveBayes {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected naive Bayes object"))?;
        let field = |key: &str| {
            serde::value_get(map, key)
                .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
        };
        let dim = usize::from_value(field("dim")?)?;
        let total = u64::from_value(field("total")?)?;
        let counts = Vec::<u64>::from_value(field("counts")?)?;
        if counts.is_empty() {
            return Err(Error::custom("naive Bayes needs at least one class"));
        }
        let flat = |key: &str| -> Result<Vec<f64>, Error> {
            let rows = Vec::<Vec<f64>>::from_value(field(key)?)?;
            if rows.len() != counts.len() || rows.iter().any(|r| r.len() != dim) {
                return Err(Error::custom(format!(
                    "`{key}` must be {} rows of {dim}",
                    counts.len()
                )));
            }
            Ok(rows.concat())
        };
        let mut nb = GaussianNaiveBayes::new(dim, counts.len());
        nb.moments = flat("means")?.into_iter().zip(flat("m2s")?).collect();
        nb.counts = counts;
        nb.total = total;
        nb.refresh_all();
        Ok(nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_blobs(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(3);
        let centers = [[0.0, 0.0, 0.0], [5.0, 5.0, 0.0], [0.0, 5.0, 5.0]];
        for (label, c) in centers.iter().enumerate() {
            for _ in 0..80 {
                let features: Vec<f64> = c.iter().map(|m| m + rng.gen_range(-1.0..1.0)).collect();
                data.push(features, label);
            }
        }
        data
    }

    #[test]
    fn separates_gaussian_blobs() {
        let data = gaussian_blobs(1);
        let nb = GaussianNaiveBayes::train(&data);
        assert_eq!(nb.class_count(), 3);
        let correct = nb
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.95);
        assert_eq!(nb.name(), "naive-bayes");
    }

    #[test]
    fn streaming_predict_matches_argmax_over_log_posteriors() {
        use crate::kernel::argmax;
        let data = gaussian_blobs(9);
        let nb = GaussianNaiveBayes::train(&data);
        for e in data.examples() {
            assert_eq!(
                nb.predict(&e.features),
                argmax(&nb.log_posteriors(&e.features))
            );
        }
    }

    #[test]
    fn constant_features_do_not_break_log_likelihood() {
        let mut data = Dataset::new(2);
        for i in 0..20 {
            data.push(vec![1.0, i as f64], 0);
            data.push(vec![1.0, 100.0 + i as f64], 1);
        }
        let nb = GaussianNaiveBayes::train(&data);
        let lp = nb.log_posteriors(&[1.0, 5.0]);
        assert!(lp.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&[1.0, 5.0]), 0);
        assert_eq!(nb.predict(&[1.0, 110.0]), 1);
    }

    #[test]
    fn priors_reflect_class_imbalance() {
        let mut data = Dataset::new(1);
        for _ in 0..90 {
            data.push(vec![0.0], 0);
        }
        for _ in 0..10 {
            data.push(vec![0.1], 1);
        }
        let nb = GaussianNaiveBayes::train(&data);
        // With heavily overlapping likelihoods the prior dominates.
        assert_eq!(nb.predict(&[0.05]), 0);
    }

    #[test]
    fn partial_fit_matches_batch_train_exactly() {
        let data = gaussian_blobs(7);
        let batch = GaussianNaiveBayes::train(&data);
        let mut online = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for e in data.examples() {
            online.partial_fit(&e.features, e.label);
        }
        assert_eq!(batch, online);
        assert_eq!(online.examples_seen(), data.len() as u64);
    }

    #[test]
    fn replayed_epochs_do_not_change_predictions() {
        // Duplicating the data k times scales every sufficient statistic by k,
        // leaving priors, means and variances (hence predictions) unchanged.
        let data = gaussian_blobs(9);
        let one = GaussianNaiveBayes::train(&data);
        let mut three = GaussianNaiveBayes::new(data.dim(), data.class_count());
        for _ in 0..3 {
            for e in data.examples() {
                three.partial_fit(&e.features, e.label);
            }
        }
        for e in data.examples() {
            assert_eq!(one.predict(&e.features), three.predict(&e.features));
        }
    }

    #[test]
    fn untrained_class_keeps_posteriors_finite() {
        let mut nb = GaussianNaiveBayes::new(2, 3);
        nb.partial_fit(&[1.0, 2.0], 0);
        let lp = nb.log_posteriors(&[1.0, 2.0]);
        assert_eq!(lp.len(), 3);
        assert!(lp.iter().all(|v| v.is_finite()));
        assert_eq!(nb.predict(&[1.0, 2.0]), 0);
    }

    #[test]
    fn serializes_the_nested_statistics_and_rebuilds_the_table() {
        let nb = GaussianNaiveBayes::train(&gaussian_blobs(4));
        let value = nb.to_value();
        let map = value.as_map().expect("an object");
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["dim", "total", "counts", "means", "m2s"]);
        let means = serde::value_get(map, "means")
            .and_then(Value::as_seq)
            .expect("means is an array");
        assert_eq!(means.len(), 3, "one row per class");
        assert!(means
            .iter()
            .all(|row| row.as_seq().map(<[Value]>::len) == Some(3)));
        // The table is not serialized; loading rebuilds it exactly.
        assert_eq!(
            GaussianNaiveBayes::from_value(&value).expect("round trip"),
            nb
        );
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let _ = GaussianNaiveBayes::train(&Dataset::new(2));
    }
}
