//! Evaluation metrics: confusion matrix, per-class accuracy and the paper's
//! false-positive rate.
//!
//! The paper uses two metrics (§IV):
//!
//! * **accuracy** — per application, the fraction of that application's
//!   instances classified correctly (i.e. recall), and **mean accuracy**, the
//!   average recognition probability over the seven applications;
//! * **false positive (FP)** — per application X, the fraction of *other*
//!   applications' instances that were classified as X.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// A confusion matrix over `n` classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    /// Flat row-major `classes × classes`: `counts[true · classes +
    /// predicted]` (one allocation per matrix, which matters when a
    /// prequential evaluator is forked per station).
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "a confusion matrix needs at least one class");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// A matrix over `classes` classes from its flat row-major counts
    /// (`counts[true · classes + predicted]`).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero or `counts` is not `classes²` long.
    pub(crate) fn from_counts(classes: usize, counts: Vec<u64>) -> Self {
        assert!(classes > 0, "a confusion matrix needs at least one class");
        assert_eq!(counts.len(), classes * classes, "counts must be classes²");
        ConfusionMatrix { classes, counts }
    }

    /// Row `true_label` of the matrix: counts per predicted class.
    fn row(&self, true_label: usize) -> &[u64] {
        &self.counts[true_label * self.classes..(true_label + 1) * self.classes]
    }

    /// The flat index of cell `(true_label, predicted)`, range-checked.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    fn cell(&self, true_label: usize, predicted: usize) -> usize {
        assert!(
            true_label < self.classes && predicted < self.classes,
            "label out of range: true {true_label}, predicted {predicted}, classes {}",
            self.classes
        );
        true_label * self.classes + predicted
    }

    /// Builds a matrix from `(true, predicted)` pairs.
    pub fn from_pairs(classes: usize, pairs: &[(usize, usize)]) -> Self {
        let mut m = ConfusionMatrix::new(classes);
        for &(t, p) in pairs {
            m.record(t, p);
        }
        m
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Records one classification outcome.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, true_label: usize, predicted: usize) {
        let cell = self.cell(true_label, predicted);
        self.counts[cell] += 1;
    }

    /// Records `count` identical classification outcomes at once — the O(1)
    /// bulk form of [`record`](Self::record).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_counts(&mut self, true_label: usize, predicted: usize, count: u64) {
        let cell = self.cell(true_label, predicted);
        self.counts[cell] += count;
    }

    /// Returns a copy of this matrix widened to `classes` classes, with every
    /// cell carried over in one addition (no per-instance replay).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is smaller than the current class count.
    pub fn widen_to(&self, classes: usize) -> ConfusionMatrix {
        assert!(
            classes >= self.classes,
            "cannot widen a {}-class matrix to {classes} classes",
            self.classes
        );
        if classes == self.classes {
            return self.clone();
        }
        let mut wide = ConfusionMatrix::new(classes);
        for t in 0..self.classes {
            for p in 0..self.classes {
                let count = self.count(t, p);
                if count > 0 {
                    wide.add_counts(t, p, count);
                }
            }
        }
        wide
    }

    /// Merges another matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.classes, other.classes, "class counts differ");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// The raw count of instances of `true_label` predicted as `predicted`.
    pub fn count(&self, true_label: usize, predicted: usize) -> u64 {
        self.counts[self.cell(true_label, predicted)]
    }

    /// Total number of recorded instances.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of instances whose true label is `class`.
    pub fn class_total(&self, class: usize) -> u64 {
        self.row(class).iter().sum()
    }

    /// Overall accuracy: correct / total (0 when empty).
    pub fn overall_accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Per-class accuracy (recall): fraction of class-`c` instances predicted
    /// as `c`. Returns 0 for classes with no instances.
    pub fn class_accuracy(&self, class: usize) -> f64 {
        let total = self.class_total(class);
        if total == 0 {
            return 0.0;
        }
        self.count(class, class) as f64 / total as f64
    }

    /// The paper's mean accuracy: average per-class accuracy over the classes
    /// that actually have instances.
    pub fn mean_accuracy(&self) -> f64 {
        let present: Vec<usize> = (0..self.classes)
            .filter(|&c| self.class_total(c) > 0)
            .collect();
        if present.is_empty() {
            return 0.0;
        }
        present.iter().map(|&c| self.class_accuracy(c)).sum::<f64>() / present.len() as f64
    }

    /// The paper's false-positive rate for `class`: the fraction of instances
    /// whose true label is *not* `class` that were nevertheless predicted as
    /// `class`.
    pub fn false_positive_rate(&self, class: usize) -> f64 {
        let mut fp = 0u64;
        let mut negatives = 0u64;
        for t in 0..self.classes {
            if t == class {
                continue;
            }
            negatives += self.class_total(t);
            fp += self.count(t, class);
        }
        if negatives == 0 {
            0.0
        } else {
            fp as f64 / negatives as f64
        }
    }

    /// Mean false-positive rate over classes that have at least one negative instance.
    pub fn mean_false_positive_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let rates: Vec<f64> = (0..self.classes)
            .map(|c| self.false_positive_rate(c))
            .collect();
        rates.iter().sum::<f64>() / rates.len() as f64
    }

    /// Per-class accuracies as a vector.
    pub fn class_accuracies(&self) -> Vec<f64> {
        (0..self.classes).map(|c| self.class_accuracy(c)).collect()
    }
}

/// Serialized as the historical nested shape, `{"classes": n, "counts":
/// [[…n…], …n rows…]}` (`counts[true][predicted]`).
impl Serialize for ConfusionMatrix {
    fn to_value(&self) -> Value {
        let rows = Value::Seq(
            self.counts
                .chunks_exact(self.classes)
                .map(|row| row.to_value())
                .collect(),
        );
        Value::Map(vec![
            ("classes".to_string(), self.classes.to_value()),
            ("counts".to_string(), rows),
        ])
    }
}

impl Deserialize for ConfusionMatrix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected confusion matrix object"))?;
        let field = |key: &str| {
            serde::value_get(map, key)
                .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
        };
        let classes = usize::from_value(field("classes")?)?;
        let rows = Vec::<Vec<u64>>::from_value(field("counts")?)?;
        if classes == 0 || rows.len() != classes || rows.iter().any(|r| r.len() != classes) {
            return Err(Error::custom(format!(
                "confusion matrix counts must be {classes} rows of {classes} (classes > 0)"
            )));
        }
        Ok(ConfusionMatrix {
            classes,
            counts: rows.concat(),
        })
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix ({} classes, {} instances):",
            self.classes,
            self.total()
        )?;
        for (t, row) in self.counts.chunks_exact(self.classes).enumerate() {
            write!(f, "  true {t}:")?;
            for c in row {
                write!(f, " {c:6}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier_metrics() {
        let mut m = ConfusionMatrix::new(3);
        for c in 0..3 {
            for _ in 0..10 {
                m.record(c, c);
            }
        }
        assert_eq!(m.total(), 30);
        assert_eq!(m.overall_accuracy(), 1.0);
        assert_eq!(m.mean_accuracy(), 1.0);
        for c in 0..3 {
            assert_eq!(m.class_accuracy(c), 1.0);
            assert_eq!(m.false_positive_rate(c), 0.0);
        }
    }

    #[test]
    fn degenerate_always_predicts_class_zero() {
        let mut m = ConfusionMatrix::new(2);
        for _ in 0..30 {
            m.record(0, 0);
        }
        for _ in 0..70 {
            m.record(1, 0);
        }
        assert!((m.overall_accuracy() - 0.3).abs() < 1e-12);
        assert_eq!(m.class_accuracy(0), 1.0);
        assert_eq!(m.class_accuracy(1), 0.0);
        assert!((m.mean_accuracy() - 0.5).abs() < 1e-12);
        // All 70 class-1 instances are false positives for class 0.
        assert!((m.false_positive_rate(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.false_positive_rate(1), 0.0);
    }

    #[test]
    fn from_pairs_and_counts() {
        let m = ConfusionMatrix::from_pairs(3, &[(0, 0), (0, 1), (1, 1), (2, 1)]);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.class_total(0), 2);
        assert_eq!(m.class_count(), 3);
        assert!((m.class_accuracy(0) - 0.5).abs() < 1e-12);
        // FP for class 1: true 0 predicted 1 (1) + true 2 predicted 1 (1) over 3 negatives.
        assert!((m.false_positive_rate(1) - 2.0 / 3.0).abs() < 1e-12);
        let accs = m.class_accuracies();
        assert_eq!(accs.len(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let a = ConfusionMatrix::from_pairs(2, &[(0, 0), (1, 1)]);
        let b = ConfusionMatrix::from_pairs(2, &[(0, 1), (1, 1)]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), 4);
        assert_eq!(merged.count(0, 1), 1);
        assert_eq!(merged.count(1, 1), 2);
    }

    #[test]
    fn empty_matrix_metrics_are_zero() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.overall_accuracy(), 0.0);
        assert_eq!(m.mean_accuracy(), 0.0);
        assert_eq!(m.mean_false_positive_rate(), 0.0);
        assert_eq!(m.class_accuracy(2), 0.0);
    }

    #[test]
    fn display_contains_counts() {
        let m = ConfusionMatrix::from_pairs(2, &[(0, 0), (1, 0)]);
        let s = m.to_string();
        assert!(s.contains("confusion matrix"));
        assert!(s.contains("true 0"));
    }

    #[test]
    fn serializes_in_the_nested_row_shape_and_round_trips() {
        let m = ConfusionMatrix::from_pairs(2, &[(0, 0), (0, 1), (1, 1), (1, 1)]);
        let value = m.to_value();
        assert_eq!(
            value,
            Value::Map(vec![
                ("classes".to_string(), Value::U64(2)),
                (
                    "counts".to_string(),
                    Value::Seq(vec![
                        Value::Seq(vec![Value::U64(1), Value::U64(1)]),
                        Value::Seq(vec![Value::U64(0), Value::U64(2)]),
                    ])
                ),
            ])
        );
        assert_eq!(ConfusionMatrix::from_value(&value).expect("round trip"), m);
    }

    #[test]
    fn deserialize_rejects_ragged_counts() {
        let ragged = Value::Map(vec![
            ("classes".to_string(), Value::U64(2)),
            (
                "counts".to_string(),
                Value::Seq(vec![
                    Value::Seq(vec![Value::U64(1), Value::U64(1)]),
                    Value::Seq(vec![Value::U64(0)]),
                ]),
            ),
        ]);
        assert!(ConfusionMatrix::from_value(&ragged).is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut m = ConfusionMatrix::new(2);
        m.record(0, 2);
    }
}
