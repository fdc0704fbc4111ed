//! A multi-layer perceptron classifier.
//!
//! One hidden layer with ReLU activations and a softmax output trained with
//! mini-batch stochastic gradient descent on the cross-entropy loss. This is
//! the "NN" half of the paper's SVM/NN adversary.
//!
//! The trainer is SGD, so the network is also an [`OnlineClassifier`]:
//! [`partial_fit`](OnlineClassifier::partial_fit) performs one
//! single-example gradient step (a mini-batch of one), sharing the
//! forward/backward implementation with the batch
//! [`train`](NeuralNet::train) loop.

use crate::dataset::Dataset;
use crate::kernel::{self, Scratch};
use crate::{Classifier, OnlineClassifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Error, Serialize, Value};

/// Hyper-parameters of the MLP trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NnConfig {
    /// Number of hidden units.
    pub hidden_units: usize,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for NnConfig {
    fn default() -> Self {
        NnConfig {
            hidden_units: 32,
            epochs: 120,
            learning_rate: 0.05,
            batch_size: 16,
        }
    }
}

/// A multi-layer perceptron (trainable incrementally).
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNet {
    /// Every parameter in one flat block, layer after layer: `w1` (row-major
    /// `hidden × dim`), `b1` (`hidden`), `w2` (row-major `classes ×
    /// hidden`), `b2` (`classes`). One allocation per network, so forking an
    /// online adversary per station copies one block.
    params: Vec<f64>,
    /// Feature dimensionality (the `w1` row width).
    dim: usize,
    /// Hidden units (the `w2` row width).
    hidden: usize,
    /// Output classes.
    classes: usize,
    /// Learning rate used by single-example `partial_fit` steps.
    learning_rate: f64,
    /// Examples absorbed so far (counting repeats across epochs).
    seen: u64,
}

/// A parameter-shaped block split into its `(w1, b1, w2, b2)` layers.
type LayersMut<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// Splits a parameter-shaped block (the weights, or gradients laid out like
/// them) into its four layers.
fn split_layers_mut(block: &mut [f64], dim: usize, hidden: usize, classes: usize) -> LayersMut<'_> {
    let (w1, rest) = block.split_at_mut(hidden * dim);
    let (b1, rest) = rest.split_at_mut(hidden);
    let (w2, b2) = rest.split_at_mut(classes * hidden);
    (w1, b1, w2, b2)
}

impl NeuralNet {
    /// Creates a randomly-initialised, untrained network for
    /// `dim`-dimensional features over `classes` classes. Absorb examples
    /// with [`partial_fit`](OnlineClassifier::partial_fit).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(dim: usize, classes: usize, config: &NnConfig, seed: u64) -> Self {
        Self::init_with_rng(dim, classes, config, &mut StdRng::seed_from_u64(seed))
    }

    /// Random initialisation drawing from the caller's rng (so the batch
    /// trainer can keep drawing its shuffles from the same stream).
    fn init_with_rng(dim: usize, classes: usize, config: &NnConfig, rng: &mut StdRng) -> Self {
        assert!(classes > 0, "a network needs at least one class");
        let hidden = config.hidden_units.max(1);
        let scale1 = (2.0 / dim as f64).sqrt();
        let scale2 = (2.0 / hidden as f64).sqrt();
        // Row-major draw order matches the historical per-row Vec layout, so
        // a given rng stream still initialises the same network.
        let mut params = Vec::with_capacity(hidden * dim + hidden + classes * hidden + classes);
        params.extend((0..hidden * dim).map(|_| rng.gen_range(-scale1..scale1)));
        params.extend(std::iter::repeat_n(0.0, hidden));
        params.extend((0..classes * hidden).map(|_| rng.gen_range(-scale2..scale2)));
        params.extend(std::iter::repeat_n(0.0, classes));
        NeuralNet {
            params,
            dim,
            hidden,
            classes,
            learning_rate: config.learning_rate,
            seen: 0,
        }
    }

    /// Trains the network on a dataset: [`new`](Self::new) plus
    /// `config.epochs` mini-batch passes over a seeded shuffle. Each
    /// mini-batch shares the gradient accumulation with
    /// [`partial_fit`](OnlineClassifier::partial_fit) (which is a mini-batch
    /// of one).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, config: &NnConfig, seed: u64) -> Self {
        assert!(
            !data.is_empty(),
            "cannot train a network on an empty dataset"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = NeuralNet::init_with_rng(data.dim(), data.class_count(), config, &mut rng);

        let mut order: Vec<usize> = (0..data.len()).collect();
        let examples = data.examples();
        // One gradient accumulator (laid out like the parameters) for the
        // whole run — each mini-batch zeroes it instead of reallocating it.
        let mut grads = vec![0.0; net.params.len()];
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size.max(1)) {
                grads.fill(0.0);
                for &idx in batch {
                    let ex = &examples[idx];
                    net.accumulate(&ex.features, ex.label, &mut grads);
                    net.seen += 1;
                }
                // One flat axpy over every layer — bit-identical to the
                // historical per-element `w -= step * g`.
                kernel::axpy(
                    &mut net.params,
                    &grads,
                    -(config.learning_rate / batch.len() as f64),
                );
            }
        }
        net
    }

    /// The parameter block split into its `(w1, b1, w2, b2)` layers.
    fn layers(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        let (w1, rest) = self.params.split_at(self.hidden * self.dim);
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.classes * self.hidden);
        (w1, b1, w2, b2)
    }

    /// Length of the buffer [`backward`](Self::backward) works in.
    fn backward_len(&self) -> usize {
        2 * self.hidden + self.classes
    }

    /// One example's forward and backward pass in `buffer`
    /// ([`backward_len`](Self::backward_len) long): returns the hidden
    /// activations, the output deltas (softmax probabilities minus the
    /// one-hot label) and the hidden deltas. Shared by the mini-batch
    /// accumulation and the fused single-example step, so both see the same
    /// arithmetic.
    fn backward<'b>(
        &self,
        features: &[f64],
        label: usize,
        buffer: &'b mut [f64],
    ) -> (&'b [f64], &'b [f64], &'b [f64]) {
        let (hidden_out, rest) = buffer.split_at_mut(self.hidden);
        let (delta_out, hidden_deltas) = rest.split_at_mut(self.classes);
        self.forward_to(features, hidden_out, delta_out);
        // Softmax cross-entropy gradient, in place over the probabilities.
        delta_out[label] -= 1.0;
        self.backpropagate(delta_out, hidden_deltas);
        (hidden_out, delta_out, hidden_deltas)
    }

    /// Adds one example's softmax cross-entropy gradient into `grads` (laid
    /// out like the parameters).
    fn accumulate(&self, features: &[f64], label: usize, grads: &mut [f64]) {
        let (dim, hidden) = (self.dim, self.hidden);
        let (gw1, gb1, gw2, gb2) = split_layers_mut(grads, dim, hidden, self.classes);
        kernel::with_buffer(self.backward_len(), [0.0; BACKWARD_STACK], |buffer| {
            let (hidden_out, delta_out, hidden_deltas) = self.backward(features, label, buffer);
            for (c, &delta) in delta_out.iter().enumerate() {
                for (g, h_out) in gw2[c * hidden..(c + 1) * hidden].iter_mut().zip(hidden_out) {
                    *g += delta * h_out;
                }
                gb2[c] += delta;
            }
            // Hidden delta through ReLU.
            for h in 0..hidden {
                if hidden_out[h] <= 0.0 {
                    continue;
                }
                let d = hidden_deltas[h];
                for (g, x) in gw1[h * dim..(h + 1) * dim].iter_mut().zip(features) {
                    *g += d * x;
                }
                gb1[h] += d;
            }
        });
    }

    /// Backpropagates the output deltas through the output weights:
    /// `hidden_deltas[h] = Σ_c δ_c · w2[c][h]`.
    ///
    /// One row-major pass over `w2` accumulates every hidden unit at once,
    /// yet each unit still sums over the classes in order starting from
    /// `-0.0` — the exact fold of `Iterator::sum::<f64>()` over
    /// `δ_c · w2[c][h]`, so the deltas are bit-identical to the per-unit
    /// strided sums. Units the ReLU switched off get a delta too; callers
    /// skip them.
    fn backpropagate(&self, delta_out: &[f64], hidden_deltas: &mut [f64]) {
        let (_, _, w2, _) = self.layers();
        hidden_deltas.fill(-0.0);
        for (&dc, w2c) in delta_out.iter().zip(w2.chunks_exact(self.hidden)) {
            for (d, &w) in hidden_deltas.iter_mut().zip(w2c) {
                *d += dc * w;
            }
        }
    }

    /// Forward pass into caller buffers: `hidden_out` (`hidden` long)
    /// receives the hidden activations, `probs` (`classes` long) the class
    /// probabilities.
    fn forward_to(&self, features: &[f64], hidden_out: &mut [f64], probs: &mut [f64]) {
        let (w1, b1, w2, b2) = self.layers();
        kernel::matvec_bias(w1, b1, features, self.dim, hidden_out);
        for z in hidden_out.iter_mut() {
            *z = z.max(0.0);
        }
        kernel::matvec_bias(w2, b2, hidden_out, self.hidden, probs);
        softmax_in_place(probs);
    }

    /// Forward pass returning `(hidden activations, class probabilities)`.
    fn forward(&self, features: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut hidden_out = vec![0.0; self.hidden];
        let mut probs = vec![0.0; self.classes];
        self.forward_to(features, &mut hidden_out, &mut probs);
        (hidden_out, probs)
    }

    /// Class probabilities for a feature vector.
    pub fn probabilities(&self, features: &[f64]) -> Vec<f64> {
        self.forward(features).1
    }

    /// Number of classes the network distinguishes.
    pub fn class_count(&self) -> usize {
        self.classes
    }
}

/// Stack room for one forward pass (hidden units + classes) and one
/// backward pass (twice the hidden units + classes) of the committed 32-unit,
/// 7-class network; wider networks fall back to the heap.
const FORWARD_STACK: usize = 64;
const BACKWARD_STACK: usize = 96;

/// Softmax in place: max-shifted exponentials normalised by their sum, with
/// the same accumulation order as the historical collecting version.
fn softmax_in_place(logits: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for e in logits.iter_mut() {
        *e /= sum;
    }
}

#[cfg(test)]
fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

impl Classifier for NeuralNet {
    fn predict(&self, features: &[f64]) -> usize {
        // Softmax is strictly monotonic, so the argmax of the logits is the
        // argmax of the probabilities — the exp/normalise pass would be dead
        // work here. Both layers go through the blocked kernel exactly as in
        // `predict_slice`, into a stack buffer. (The kernel starts its sums
        // at `0.0` where `Iterator::sum` starts at `-0.0`: a logit can differ
        // only in the sign of a zero, which no comparison sees.)
        let (w1, b1, w2, b2) = self.layers();
        kernel::with_buffer(self.hidden + self.classes, [0.0; FORWARD_STACK], |buffer| {
            let (hidden, logits) = buffer.split_at_mut(self.hidden);
            kernel::matvec_bias(w1, b1, features, self.dim, hidden);
            for z in hidden.iter_mut() {
                *z = z.max(0.0);
            }
            kernel::matvec_bias(w2, b2, hidden, self.hidden, logits);
            kernel::argmax(logits)
        })
    }

    fn name(&self) -> &'static str {
        "nn"
    }

    fn predict_slice(&self, rows: &[f64], dim: usize, out: &mut Vec<usize>, scratch: &mut Scratch) {
        assert!(dim > 0, "predict_slice needs a positive feature dimension");
        let (w1, b1, w2, b2) = self.layers();
        // GEMM-shaped forward in logit space: layer 1 for every row, ReLU in
        // place, layer 2 for every row, then the first-maximum rule per row.
        // Softmax is skipped exactly as in the streaming `predict`.
        kernel::matmat_bias(w1, b1, rows, dim, &mut scratch.a);
        for z in scratch.a.iter_mut() {
            *z = z.max(0.0);
        }
        kernel::matmat_bias(w2, b2, &scratch.a, self.hidden, &mut scratch.b);
        out.clear();
        out.extend(scratch.b.chunks_exact(self.classes).map(kernel::argmax));
    }
}

impl OnlineClassifier for NeuralNet {
    /// One fused SGD step without gradient materialisation: the hidden
    /// deltas are computed against the **pre-update** output weights before
    /// either layer moves, so every parameter sees exactly the update the
    /// accumulate/apply path would have produced (`w -= lr * (δ ·
    /// activation)`, identical expression tree). The activations and deltas
    /// live in a stack buffer, so a step allocates nothing.
    fn partial_fit(&mut self, features: &[f64], label: usize) {
        let (dim, hidden, classes) = (self.dim, self.hidden, self.classes);
        let lr = self.learning_rate;
        kernel::with_buffer(self.backward_len(), [0.0; BACKWARD_STACK], |buffer| {
            let (hidden_out, delta_out, hidden_deltas) = self.backward(features, label, buffer);
            let (w1, b1, w2, b2) = split_layers_mut(&mut self.params, dim, hidden, classes);
            // Output layer.
            for c in 0..classes {
                let delta = delta_out[c];
                for (w, h_out) in w2[c * hidden..(c + 1) * hidden].iter_mut().zip(hidden_out) {
                    *w -= lr * (delta * h_out);
                }
                b2[c] -= lr * delta;
            }
            // Hidden layer.
            for h in 0..hidden {
                if hidden_out[h] <= 0.0 {
                    continue;
                }
                let d = hidden_deltas[h];
                for (w, x) in w1[h * dim..(h + 1) * dim].iter_mut().zip(features) {
                    *w -= lr * (d * x);
                }
                b1[h] -= lr * d;
            }
        });
        self.seen += 1;
    }

    fn examples_seen(&self) -> u64 {
        self.seen
    }

    fn clone_online(&self) -> Box<dyn OnlineClassifier> {
        Box::new(self.clone())
    }
}

/// Serialized as the historical four-layer shape (`w1`, `b1`, `w2`, `b2`
/// as separate flat arrays, then `dim`, `learning_rate`, `seen`).
impl Serialize for NeuralNet {
    fn to_value(&self) -> Value {
        let (w1, b1, w2, b2) = self.layers();
        Value::Map(vec![
            ("w1".to_string(), w1.to_value()),
            ("b1".to_string(), b1.to_value()),
            ("w2".to_string(), w2.to_value()),
            ("b2".to_string(), b2.to_value()),
            ("dim".to_string(), self.dim.to_value()),
            ("learning_rate".to_string(), self.learning_rate.to_value()),
            ("seen".to_string(), self.seen.to_value()),
        ])
    }
}

impl Deserialize for NeuralNet {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_map()
            .ok_or_else(|| Error::custom("expected neural network object"))?;
        let field = |key: &str| {
            serde::value_get(map, key)
                .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
        };
        let layer = |key: &str| Vec::<f64>::from_value(field(key)?);
        let (w1, b1, w2, b2) = (layer("w1")?, layer("b1")?, layer("w2")?, layer("b2")?);
        let dim = usize::from_value(field("dim")?)?;
        let (hidden, classes) = (b1.len(), b2.len());
        if hidden == 0 || classes == 0 || w1.len() != hidden * dim || w2.len() != classes * hidden {
            return Err(Error::custom(format!(
                "inconsistent layer shapes: w1 {}, b1 {hidden}, w2 {}, b2 {classes}, dim {dim}",
                w1.len(),
                w2.len()
            )));
        }
        Ok(NeuralNet {
            params: [w1, b1, w2, b2].concat(),
            dim,
            hidden,
            classes,
            learning_rate: f64::from_value(field("learning_rate")?)?,
            seen: u64::from_value(field("seen")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_dataset(seed: u64) -> Dataset {
        // A non-linearly-separable problem: class 0 near the origin, class 1 on a ring.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new(2);
        for _ in 0..150 {
            let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let r_inner: f64 = rng.gen_range(0.0..1.0);
            data.push(vec![r_inner * a.cos(), r_inner * a.sin()], 0);
            let r_outer: f64 = rng.gen_range(3.0..4.0);
            data.push(vec![r_outer * a.cos(), r_outer * a.sin()], 1);
        }
        data
    }

    #[test]
    fn learns_a_nonlinear_boundary() {
        let data = ring_dataset(1);
        let nn = NeuralNet::train(&data, &NnConfig::default(), 2);
        let correct = nn
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        let accuracy = correct as f64 / data.len() as f64;
        assert!(accuracy > 0.9, "accuracy {accuracy}");
        assert_eq!(nn.class_count(), 2);
        assert_eq!(nn.name(), "nn");
    }

    #[test]
    fn streaming_predict_matches_argmax_over_probabilities() {
        use crate::kernel::argmax;
        let data = ring_dataset(7);
        let nn = NeuralNet::train(&data, &NnConfig::default(), 8);
        for e in data.examples() {
            assert_eq!(
                nn.predict(&e.features),
                argmax(&nn.probabilities(&e.features))
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = ring_dataset(3);
        let nn = NeuralNet::train(
            &data,
            &NnConfig {
                epochs: 10,
                ..NnConfig::default()
            },
            4,
        );
        let p = nn.probabilities(&[0.5, -0.5]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let data = ring_dataset(5);
        let cfg = NnConfig {
            epochs: 5,
            ..NnConfig::default()
        };
        let a = NeuralNet::train(&data, &cfg, 9);
        let b = NeuralNet::train(&data, &cfg, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let _ = NeuralNet::train(&Dataset::new(2), &NnConfig::default(), 0);
    }

    #[test]
    fn hidden_deltas_match_the_strided_sums_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        for (dim, hidden, classes) in [(3, 1, 1), (18, 32, 7), (5, 7, 3), (2, 9, 4)] {
            let cfg = NnConfig {
                hidden_units: hidden,
                ..NnConfig::default()
            };
            let net = NeuralNet::new(dim, classes, &cfg, rng.gen());
            // Output deltas with exact zeros of both signs mixed in, so the
            // sign of a zero sum is exercised as well.
            let delta_out: Vec<f64> = (0..classes)
                .map(|c| match c % 3 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            let mut deltas = vec![f64::NAN; hidden];
            net.backpropagate(&delta_out, &mut deltas);
            for h in 0..hidden {
                let reference: f64 = delta_out
                    .iter()
                    .zip(net.layers().2.chunks_exact(hidden))
                    .map(|(dc, w2c)| dc * w2c[h])
                    .sum();
                assert_eq!(deltas[h].to_bits(), reference.to_bits(), "unit {h}");
            }
        }
    }

    #[test]
    fn wide_hidden_layers_predict_through_the_heap_fallback() {
        let data = ring_dataset(4);
        let cfg = NnConfig {
            hidden_units: BACKWARD_STACK,
            epochs: 3,
            ..NnConfig::default()
        };
        let nn = NeuralNet::train(&data, &cfg, 6);
        for e in data.examples() {
            let p = nn.probabilities(&e.features);
            let argmax = (0..p.len()).fold(0, |best, i| if p[i] > p[best] { i } else { best });
            assert_eq!(nn.predict(&e.features), argmax);
        }
    }

    #[test]
    fn serializes_in_the_four_layer_shape_and_round_trips() {
        let data = ring_dataset(2);
        let cfg = NnConfig {
            hidden_units: 5,
            epochs: 2,
            ..NnConfig::default()
        };
        let net = NeuralNet::train(&data, &cfg, 3);
        let value = net.to_value();
        let map = value.as_map().expect("an object");
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["w1", "b1", "w2", "b2", "dim", "learning_rate", "seen"]
        );
        let len = |key: &str| {
            serde::value_get(map, key)
                .and_then(Value::as_seq)
                .map(<[Value]>::len)
        };
        assert_eq!(len("w1"), Some(5 * 2));
        assert_eq!(len("b1"), Some(5));
        assert_eq!(len("w2"), Some(2 * 5));
        assert_eq!(len("b2"), Some(2));
        assert_eq!(NeuralNet::from_value(&value).expect("round trip"), net);
    }

    #[test]
    fn partial_fit_learns_the_ring_incrementally() {
        let data = ring_dataset(7);
        let mut net = NeuralNet::new(data.dim(), data.class_count(), &NnConfig::default(), 11);
        for _ in 0..30 {
            for e in data.examples() {
                net.partial_fit(&e.features, e.label);
            }
        }
        assert_eq!(net.examples_seen(), 30 * data.len() as u64);
        let correct = net
            .predict_dataset(&data)
            .iter()
            .filter(|(t, p)| t == p)
            .count();
        let accuracy = correct as f64 / data.len() as f64;
        assert!(accuracy > 0.85, "online accuracy {accuracy}");
    }
}
