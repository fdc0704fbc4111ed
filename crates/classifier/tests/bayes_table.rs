//! The naive-Bayes `(variance, ln variance)` table against its recomputing
//! reference, and forks of a live online adversary.
//!
//! `GaussianNaiveBayes` caches one table row per class and refreshes row `c`
//! exactly when class `c` trains; `predict` and `predict_slice` read the
//! table, `log_posteriors` recomputes every variance from the Welford
//! statistics. Over random interleavings of `partial_fit` — classes that
//! never train, classes that train once, constant features that sit on the
//! variance floor — the table-driven predictions must equal the argmax of
//! the reference, and the incrementally refreshed table must equal one
//! rebuilt from scratch (a serialization round trip rebuilds it).
//!
//! The online adversary is forked per station by `clone()`. A fork taken
//! mid-stream must continue bit-identically to the adversary it was cloned
//! from: same test-then-train votes, same confusion matrices, same
//! predictions afterwards.

use classifier::bayes::GaussianNaiveBayes;
use classifier::ensemble::EnsembleConfig;
use classifier::kernel::{argmax, Scratch};
use classifier::online::{OnlineAdversary, PrequentialEvaluator};
use classifier::{Classifier, OnlineClassifier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How often a class appears in a generated stream.
#[derive(Debug, Clone, Copy)]
enum Role {
    Never,
    Once,
    Often,
}

/// A labelled stream over `classes` classes in which every class gets a
/// random [`Role`] (class 0 always trains often), and feature 0 is constant
/// when `constant_feature` is set (its variance stays on the floor).
fn stream(
    rng: &mut StdRng,
    classes: usize,
    dim: usize,
    len: usize,
    constant_feature: bool,
) -> Vec<(Vec<f64>, usize)> {
    let roles: Vec<Role> = (0..classes)
        .map(|c| match (c, rng.gen_range(0..3)) {
            (0, _) | (_, 2) => Role::Often,
            (_, 1) => Role::Once,
            _ => Role::Never,
        })
        .collect();
    let often: Vec<usize> = (0..classes)
        .filter(|&c| matches!(roles[c], Role::Often))
        .collect();
    let mut labels: Vec<usize> = (0..len)
        .map(|_| often[rng.gen_range(0..often.len())])
        .collect();
    for (c, role) in roles.iter().enumerate() {
        if matches!(role, Role::Once) {
            let at = rng.gen_range(0..=labels.len());
            labels.insert(at, c);
        }
    }
    labels
        .into_iter()
        .map(|label| {
            let features = (0..dim)
                .map(|f| {
                    if constant_feature && f == 0 {
                        3.0
                    } else {
                        label as f64 * 2.0 + rng.gen_range(-1.5..1.5)
                    }
                })
                .collect();
            (features, label)
        })
        .collect()
}

/// Probe rows spread over (and beyond) the range the stream covers.
fn probes(rng: &mut StdRng, dim: usize, n: usize) -> Vec<f64> {
    (0..n * dim).map(|_| rng.gen_range(-3.0..14.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_predictions_equal_the_recomputed_argmax(
        seed in 0u64..1_000_000,
        classes in 1usize..7,
        dim in 1usize..6,
        len in 0usize..60,
        constant_feature in prop::sample::select(vec![false, true]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let examples = stream(&mut rng, classes, dim, len, constant_feature);
        let rows = probes(&mut rng, dim, 5);
        let mut nb = GaussianNaiveBayes::new(dim, classes);
        let mut scratch = Scratch::new();
        let mut sliced = Vec::new();
        // Check before any training and after every step.
        for step in 0..=examples.len() {
            if step > 0 {
                let (features, label) = &examples[step - 1];
                nb.partial_fit(features, *label);
            }
            let reference: Vec<usize> = rows
                .chunks_exact(dim)
                .map(|row| argmax(&nb.log_posteriors(row)))
                .collect();
            let streamed: Vec<usize> = rows.chunks_exact(dim).map(|row| nb.predict(row)).collect();
            nb.predict_slice(&rows, dim, &mut sliced, &mut scratch);
            prop_assert!(
                streamed == reference,
                "predict {streamed:?} vs reference {reference:?} at step {step}"
            );
            prop_assert!(
                sliced == reference,
                "predict_slice {sliced:?} vs reference {reference:?} at step {step}"
            );
            // The incrementally refreshed table equals one rebuilt from the
            // statistics alone.
            let rebuilt = GaussianNaiveBayes::from_value(&nb.to_value()).expect("round trip");
            prop_assert!(rebuilt == nb, "table drifted at step {step}");
        }
        // Batch training builds the table once, at the end — the same model
        // (`train` sizes the model by the labels it saw, so compare only
        // when the highest class trained).
        let mut data = classifier::Dataset::new(dim);
        for (features, label) in &examples {
            data.push(features.clone(), *label);
        }
        if !data.is_empty() && data.class_count() == classes {
            prop_assert_eq!(&GaussianNaiveBayes::train(&data), &nb);
        }
    }

    #[test]
    fn a_mid_stream_fork_continues_bit_identically(
        seed in 0u64..1_000_000,
        classes in 2usize..6,
        dim in 1usize..6,
        fork_at in 0usize..30,
        constant_feature in prop::sample::select(vec![false, true]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let examples = stream(&mut rng, classes, dim, 40, constant_feature);
        let fork_at = fork_at.min(examples.len());
        let adversary = OnlineAdversary::new(dim, classes, &EnsembleConfig::default());
        let mut live = PrequentialEvaluator::new(adversary, 4);
        for (features, label) in &examples[..fork_at] {
            live.test_then_train(features, *label);
        }
        // The fork starts from the live adversary's state, with fresh
        // counters — exactly how a station forks the warm base.
        let mut fork = PrequentialEvaluator::new(live.adversary().clone(), 4);
        let mut rest = PrequentialEvaluator::new(live.into_adversary(), 4);
        for (features, label) in &examples[fork_at..] {
            prop_assert_eq!(
                fork.test_then_train(features, *label),
                rest.test_then_train(features, *label)
            );
        }
        prop_assert_eq!(fork.matrix(), rest.matrix());
        for ((name_a, a), (name_b, b)) in fork.member_matrices().into_iter().zip(rest.member_matrices()) {
            prop_assert_eq!(name_a, name_b);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(fork.timeline(), rest.timeline());
        let rows = probes(&mut rng, dim, 6);
        for row in rows.chunks_exact(dim) {
            prop_assert_eq!(
                fork.adversary().predict_members(row),
                rest.adversary().predict_members(row)
            );
        }
    }
}
