//! # classifier
//!
//! The traffic-analysis adversary of the traffic-reshaping reproduction
//! (Zhang, He, Liu — ICDCS 2011).
//!
//! The paper evaluates its defense against the classification system of
//! Zhang et al. (WiSec'11), which infers a user's online activity from
//! MAC-layer traffic features using SVM and neural-network classifiers. This
//! crate reimplements that adversary from scratch:
//!
//! * [`features`] — the exact feature set the paper lists (§IV-C): number of
//!   packets, max/min/mean/standard deviation of packet size, and packet
//!   inter-arrival time statistics, computed separately for downlink and
//!   uplink.
//! * [`window`] — cutting flows into eavesdropping windows of `W` seconds.
//! * [`stream`] — the streaming windower: folds a packet stream into
//!   per-window running statistics and emits examples on window close,
//!   without materialising window sub-traces.
//! * [`dataset`] — labelled datasets, normalisation, stratified splits.
//! * [`svm`] — a multi-class linear SVM (one-vs-rest, SGD hinge loss).
//! * [`nn`] — a multi-layer perceptron with one hidden layer.
//! * [`bayes`] — Gaussian naive Bayes, used as a sanity check.
//! * [`metrics`] — confusion matrices, per-class accuracy and the paper's
//!   false-positive metric.
//! * [`ensemble`] — "highest accuracy of SVM/NN", as reported by the paper.
//! * [`online`] — the **streaming adversary**: every classifier also
//!   implements [`OnlineClassifier`] (incremental `partial_fit` on single
//!   window examples), and [`online::PrequentialEvaluator`] /
//!   [`online::AdversarySink`] score a live packet stream test-then-train,
//!   window by window, without ever materialising a dataset.
//!
//! # Example
//!
//! ```rust
//! use classifier::dataset::Dataset;
//! use classifier::svm::{LinearSvm, SvmConfig};
//! use classifier::Classifier;
//!
//! // Two trivially separable classes.
//! let mut data = Dataset::new(2);
//! for i in 0..50 {
//!     let x = i as f64 / 50.0;
//!     data.push(vec![x, 0.0], 0);
//!     data.push(vec![x, 10.0], 1);
//! }
//! let svm = LinearSvm::train(&data, &SvmConfig::default(), 7);
//! assert_eq!(svm.predict(&[0.5, 0.0]), 0);
//! assert_eq!(svm.predict(&[0.5, 10.0]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bayes;
pub mod dataset;
pub mod ensemble;
pub mod features;
pub mod kernel;
pub mod metrics;
pub mod nn;
pub mod online;
pub mod stream;
pub mod svm;
pub mod window;

pub use dataset::Dataset;
pub use features::FeatureVector;
pub use metrics::ConfusionMatrix;
pub use online::{AdversarySink, OnlineAdversary, PrequentialEvaluator};
pub use stream::{streamed_examples, FlowWindowers, StreamingWindower, WindowExample};

/// A trained multi-class classifier.
///
/// The trait is object-safe so the evaluation harness can treat the SVM, the
/// neural network and naive Bayes uniformly.
pub trait Classifier: std::fmt::Debug + Send + Sync {
    /// Predicts the class index for a feature vector.
    fn predict(&self, features: &[f64]) -> usize;

    /// A short human-readable name ("svm", "nn", …).
    fn name(&self) -> &'static str;

    /// Predicts every row of a dataset, returning `(true_label, predicted)` pairs.
    fn predict_dataset(&self, data: &Dataset) -> Vec<(usize, usize)> {
        data.examples()
            .iter()
            .map(|ex| (ex.label, self.predict(&ex.features)))
            .collect()
    }

    /// Batched prediction: `rows` is a flat `n × dim` row-major feature
    /// matrix; one prediction per row is written into `out` (cleared first).
    ///
    /// The default implementation loops [`predict`](Self::predict); models
    /// with a linear hot path override it with blocked
    /// [`kernel`] calls. Either way the predictions are **bit-identical** to
    /// calling `predict` per row (proptested in
    /// `tests/predict_slice_equivalence.rs`), so batching is always legal
    /// where per-example scoring was.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero. A trailing partial row is ignored
    /// (`chunks_exact` semantics).
    fn predict_slice(
        &self,
        rows: &[f64],
        dim: usize,
        out: &mut Vec<usize>,
        scratch: &mut kernel::Scratch,
    ) {
        assert!(dim > 0, "predict_slice needs a positive feature dimension");
        let _ = scratch;
        out.clear();
        out.extend(rows.chunks_exact(dim).map(|row| self.predict(row)));
    }
}

/// A classifier that learns **incrementally**, one window example at a time.
///
/// This is the contract of the streaming adversary: models start empty (or
/// randomly initialised) and absorb labelled examples as the
/// [`StreamingWindower`] closes windows — no materialised [`Dataset`], no
/// separate training phase. Every batch `train` entry point in this crate is
/// a thin seeded wrapper over epochs of [`partial_fit`](Self::partial_fit)
/// (equivalence is property-tested in `tests/online_equivalence.rs`), so the
/// batch and online adversaries share one learning implementation per model.
pub trait OnlineClassifier: Classifier {
    /// Absorbs one labelled example: a single SGD step for the
    /// discriminative models, a sufficient-statistics update for naive Bayes.
    /// Steps allocate nothing (intermediates live in stack buffers), so the
    /// hot training loop of the online adversary needs no scratch of its
    /// own.
    fn partial_fit(&mut self, features: &[f64], label: usize);

    /// Number of examples absorbed so far (counting repeats across epochs).
    fn examples_seen(&self) -> u64;

    /// Clones the model behind the trait object, so a warm-started adversary
    /// can be forked per station without knowing the concrete type.
    fn clone_online(&self) -> Box<dyn OnlineClassifier>;
}

impl Clone for Box<dyn OnlineClassifier> {
    fn clone(&self) -> Self {
        self.clone_online()
    }
}
