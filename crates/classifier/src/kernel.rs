//! Blocked linear kernels shared by the batched inference plane.
//!
//! The batched `predict_slice` paths of the SVM, the MLP and (indirectly)
//! naive Bayes all reduce to the same primitive: a row-major weight matrix
//! times one or many feature vectors, plus a bias. This module implements
//! that primitive once, shaped for the autovectorizer:
//!
//! * **Row-major weight blocks** — each model stores its weights as one flat
//!   `rows × dim` `Vec<f64>`, so a whole layer is a single contiguous scan.
//! * **4-wide unrolled accumulators** — [`matvec_bias`] walks four output
//!   rows at a time with four independent accumulators sharing each loaded
//!   `x[j]`. Crucially the unroll is across *output rows*, never within one
//!   dot product: every accumulator still sums its products strictly left to
//!   right from `0.0`, exactly like the scalar
//!   `w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>()` reference, so the
//!   batched plane is **bit-identical** to the per-example one (the contract
//!   `tests/predict_slice_equivalence.rs` proptests).
//! * **Caller-provided scratch** — [`Scratch`] owns the intermediate
//!   buffers, so steady-state inference performs no allocation at all; the
//!   one-example online paths use `with_buffer`, a stack buffer, instead.

/// Reusable intermediate buffers for the batched inference plane.
///
/// One `Scratch` serves every member of an ensemble in turn: each
/// `predict_slice` override resizes the buffers it needs and leaves their
/// capacity behind for the next call. Buffers carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// First intermediate buffer (e.g. decision values, hidden activations).
    pub a: Vec<f64>,
    /// Second intermediate buffer (e.g. logits, probabilities).
    pub b: Vec<f64>,
    /// Third intermediate buffer (e.g. backpropagated hidden deltas).
    pub c: Vec<f64>,
}

impl Scratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Runs `f` on a `len`-element buffer: the caller's `stack` array when it is
/// long enough, a heap buffer of `T::default()` values otherwise.
///
/// This is the per-call scratch of the online (one example at a time) hot
/// paths. It needs no state in the model, so forking a model copies no
/// scratch, and each call site sizes `stack` for the committed model shape
/// (18 features, 32 hidden units, 7 classes) — those calls allocate nothing
/// and zero only the few hundred bytes they may use.
pub(crate) fn with_buffer<T: Copy + Default, const N: usize, R>(
    len: usize,
    mut stack: [T; N],
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if len <= N {
        f(&mut stack[..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// `out[r] = Σ_j weights[r·w_dim + j] · x[j] + biases[r]` for every row.
///
/// `weights` is a flat row-major `rows × w_dim` matrix with
/// `rows = biases.len()`; the dot product runs over
/// `min(w_dim, x.len())` columns (matching the truncating `zip` of the
/// scalar reference). Rows are processed in blocks of four with independent
/// accumulators — each accumulator sums strictly left to right from `0.0`,
/// so every `out[r]` is bit-identical to the scalar `dot(w_r, x) + b_r`.
///
/// # Panics
///
/// Panics if `out.len() < biases.len()` or `weights` is shorter than
/// `rows × w_dim`.
pub fn matvec_bias(weights: &[f64], biases: &[f64], x: &[f64], w_dim: usize, out: &mut [f64]) {
    let rows = biases.len();
    assert!(
        weights.len() >= rows * w_dim,
        "weight matrix too short for {rows} rows of {w_dim}"
    );
    let cols = w_dim.min(x.len());
    let x = &x[..cols];
    let mut r = 0;
    while r + 4 <= rows {
        let w0 = &weights[r * w_dim..r * w_dim + cols];
        let w1 = &weights[(r + 1) * w_dim..(r + 1) * w_dim + cols];
        let w2 = &weights[(r + 2) * w_dim..(r + 2) * w_dim + cols];
        let w3 = &weights[(r + 3) * w_dim..(r + 3) * w_dim + cols];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for j in 0..cols {
            let xj = x[j];
            a0 += w0[j] * xj;
            a1 += w1[j] * xj;
            a2 += w2[j] * xj;
            a3 += w3[j] * xj;
        }
        out[r] = a0 + biases[r];
        out[r + 1] = a1 + biases[r + 1];
        out[r + 2] = a2 + biases[r + 2];
        out[r + 3] = a3 + biases[r + 3];
        r += 4;
    }
    while r < rows {
        let w = &weights[r * w_dim..r * w_dim + cols];
        let mut acc = 0.0f64;
        for j in 0..cols {
            acc += w[j] * x[j];
        }
        out[r] = acc + biases[r];
        r += 1;
    }
}

/// The index of the first maximum of `values` (0 when empty) — the argmax
/// rule every classifier's `predict` applies to its per-class scores.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_value = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_value {
            best_value = v;
            best = i;
        }
    }
    best
}

/// Batched [`matvec_bias`]: every `x_dim`-wide row of `xs` through the same
/// `rows × w_dim` weight matrix, `rows` outputs per example, row-major into
/// `out` (resized to `n · rows`).
///
/// The weight row width is inferred as `weights.len() / rows`, so the
/// example width `x_dim` and the weight width may legally differ (the dot
/// product truncates like the scalar `zip`). A trailing partial example in
/// `xs` is ignored, matching `chunks_exact`.
///
/// # Panics
///
/// Panics if `x_dim` is zero.
pub fn matmat_bias(weights: &[f64], biases: &[f64], xs: &[f64], x_dim: usize, out: &mut Vec<f64>) {
    assert!(x_dim > 0, "matmat_bias needs a positive example width");
    let rows = biases.len();
    let w_dim = weights.len().checked_div(rows).unwrap_or(0);
    let n = xs.len() / x_dim;
    out.clear();
    out.resize(n * rows, 0.0);
    for (x, o) in xs
        .chunks_exact(x_dim)
        .zip(out.chunks_exact_mut(rows.max(1)))
    {
        matvec_bias(weights, biases, x, w_dim, o);
    }
}

/// `y[i] += alpha · x[i]` over `min(y.len(), x.len())` elements.
///
/// With `alpha = -step` this is bit-identical to the scalar
/// `y[i] -= step * x[i]` update (IEEE negation is exact), which is how the
/// gradient-apply paths use it.
pub fn axpy(y: &mut [f64], x: &[f64], alpha: f64) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scalar_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn matvec_matches_the_scalar_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for rows in [1usize, 2, 3, 4, 5, 6, 7, 8, 11] {
            for dim in [1usize, 2, 17, 18, 32] {
                let weights: Vec<f64> = (0..rows * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let biases: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let mut out = vec![0.0; rows];
                matvec_bias(&weights, &biases, &x, dim, &mut out);
                for r in 0..rows {
                    let reference = scalar_dot(&weights[r * dim..(r + 1) * dim], &x) + biases[r];
                    assert_eq!(out[r].to_bits(), reference.to_bits(), "row {r}");
                }
            }
        }
    }

    #[test]
    fn matvec_truncates_like_zip_on_short_inputs() {
        // A 2-column weight row against a 1-element x must use one term,
        // exactly like the zip-based scalar dot.
        let weights = [1.0, 100.0, 2.0, 200.0];
        let biases = [0.5, 0.25];
        let mut out = [0.0; 2];
        matvec_bias(&weights, &biases, &[3.0], 2, &mut out);
        assert_eq!(out, [3.5, 6.25]);
    }

    #[test]
    fn matmat_matches_per_example_matvec() {
        let mut rng = StdRng::seed_from_u64(11);
        let (rows, dim, n) = (6usize, 18usize, 9usize);
        let weights: Vec<f64> = (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let biases: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xs: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut batched = Vec::new();
        matmat_bias(&weights, &biases, &xs, dim, &mut batched);
        assert_eq!(batched.len(), n * rows);
        for (i, x) in xs.chunks_exact(dim).enumerate() {
            let mut single = vec![0.0; rows];
            matvec_bias(&weights, &biases, x, dim, &mut single);
            assert_eq!(&batched[i * rows..(i + 1) * rows], single.as_slice());
        }
    }

    #[test]
    fn axpy_matches_the_subtracting_update() {
        let mut rng = StdRng::seed_from_u64(13);
        let x: Vec<f64> = (0..40).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y0: Vec<f64> = (0..40).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let step = 0.0375;
        let mut via_axpy = y0.clone();
        axpy(&mut via_axpy, &x, -step);
        let mut via_sub = y0;
        for (yi, &xi) in via_sub.iter_mut().zip(&x) {
            *yi -= step * xi;
        }
        for (a, b) in via_axpy.iter().zip(&via_sub) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn with_buffer_hands_out_default_filled_buffers_of_any_length() {
        for len in [0, 1, 8, 9, 100] {
            let seen = with_buffer(len, [0.0; 8], |buf: &mut [f64]| {
                assert!(buf.iter().all(|&v| v == 0.0));
                buf.fill(1.0);
                buf.len()
            });
            assert_eq!(seen, len);
        }
    }

    #[test]
    fn scratch_starts_empty_and_is_cloneable() {
        let s = Scratch::new();
        assert!(s.a.is_empty() && s.b.is_empty() && s.c.is_empty());
        let _ = s.clone();
    }
}
