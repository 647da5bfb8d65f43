//! Softmax regression ("Soft-Max Neural Network" in the paper's §3): a
//! single dense layer `W ∈ R^{DIM×CLASSES}` + bias, cross-entropy loss.
//!
//! The gradient structure is what matters for the overlap experiment:
//! `∂L/∂W[p][c] = x[p] · (softmax(z)[c] − y[c])`, so the rows of `W`
//! touched by one mini-batch are exactly the union of the batch's active
//! pixels — sparse, centre-biased, and overlapping across workers.

use crate::data::{Sample, CLASSES, DIM};

/// The trainable parameters.
#[derive(Debug, Clone)]
pub struct Model {
    /// Row-major weights: `w[pixel * CLASSES + class]`.
    pub w: Vec<f32>,
    /// Per-class bias.
    pub b: Vec<f32>,
}

/// A sparse gradient: only rows whose pixel was active carry values.
#[derive(Debug, Clone)]
pub struct SparseGrad {
    /// `(pixel row, per-class gradient)` entries, ascending by row.
    pub rows: Vec<(usize, [f32; CLASSES])>,
    /// Bias gradient (always dense — it is one row).
    pub bias: [f32; CLASSES],
}

impl SparseGrad {
    /// The set of touched rows.
    pub fn touched_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(|(r, _)| *r)
    }
}

/// Per-class rows indexed densely by row number: row `r` is one
/// `[T; CLASSES]` at position `r`, so adding into a coordinate is an
/// indexed write, not a map lookup. Each row carries a *present* flag,
/// set when [`DenseRows::row_mut`] hands the row out, whatever is then
/// written into it: a row whose values sum to zero stays present.
/// [`DenseRows::iter`] visits the present rows only, ascending, which is
/// the order a map keyed by row gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseRows<T> {
    rows: Vec<[T; CLASSES]>,
    present: Vec<bool>,
}

impl<T: Copy + Default> DenseRows<T> {
    /// `n` absent rows, every value `T::default()`.
    pub fn new(n: usize) -> DenseRows<T> {
        DenseRows { rows: vec![[T::default(); CLASSES]; n], present: vec![false; n] }
    }

    /// Row `r`, marked present. Panics if `r` is not below `n`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T; CLASSES] {
        self.present[r] = true;
        &mut self.rows[r]
    }

    /// The present rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[T; CLASSES])> + '_ {
        let present = self.rows.iter().zip(&self.present).enumerate();
        present.filter(|(_, (_, &p))| p).map(|(r, (row, _))| (r, row))
    }

    /// The present rows as `(row, values)` entries, ascending: the shape
    /// of [`SparseGrad::rows`].
    pub fn to_sparse(&self) -> Vec<(usize, [T; CLASSES])> {
        self.iter().map(|(r, row)| (r, *row)).collect()
    }
}

impl Default for Model {
    fn default() -> Self {
        Model::new()
    }
}

impl Model {
    /// Zero-initialized model (fine for softmax regression — the loss is
    /// convex).
    pub fn new() -> Model {
        Model { w: vec![0.0; DIM * CLASSES], b: vec![0.0; CLASSES] }
    }

    /// Class logits for one sample.
    pub fn logits(&self, x: &[f32]) -> [f32; CLASSES] {
        self.logits_of(active(x))
    }

    /// Class logits from a sample's `(pixel, intensity)` entries, pixels
    /// ascending.
    fn logits_of(&self, active: impl Iterator<Item = (usize, f32)>) -> [f32; CLASSES] {
        let mut z = [0.0f32; CLASSES];
        z.copy_from_slice(&self.b);
        for (p, xp) in active {
            let row = &self.w[p * CLASSES..(p + 1) * CLASSES];
            for c in 0..CLASSES {
                z[c] += xp * row[c];
            }
        }
        z
    }

    /// Softmax probabilities.
    pub fn predict_proba(&self, x: &[f32]) -> [f32; CLASSES] {
        softmax(&self.logits(x))
    }

    /// Arg-max class.
    pub fn predict(&self, x: &[f32]) -> usize {
        let p = self.logits(x);
        let mut best = 0;
        for c in 1..CLASSES {
            if p[c] > p[best] {
                best = c;
            }
        }
        best
    }

    /// Mean cross-entropy over `batch`.
    pub fn loss(&self, batch: &[&Sample]) -> f32 {
        let mut total = 0.0f32;
        for s in batch {
            let p = self.predict_proba(&s.pixels);
            total -= p[s.label].max(1e-9).ln();
        }
        total / batch.len() as f32
    }

    /// Sparse mini-batch gradient (mean over the batch). Rows = union of
    /// active pixels across the batch; each row sums its samples in batch
    /// order.
    pub fn gradient(&self, batch: &[&Sample]) -> SparseGrad {
        let inv = 1.0 / batch.len() as f32;
        let mut acc = DenseRows::new(DIM);
        let mut bias = [0.0f32; CLASSES];
        let mut pixels = Vec::new();
        for s in batch {
            pixels.clear();
            pixels.extend(active(&s.pixels));
            let mut err = softmax(&self.logits_of(pixels.iter().copied()));
            err[s.label] -= 1.0;
            for c in 0..CLASSES {
                bias[c] += err[c] * inv;
            }
            for &(pixel, xp) in &pixels {
                let row = acc.row_mut(pixel);
                for c in 0..CLASSES {
                    row[c] += xp * err[c] * inv;
                }
            }
        }
        SparseGrad { rows: acc.to_sparse(), bias }
    }

    /// Applies a dense delta to touched rows: `w[r] += delta[r]`.
    pub fn apply_rows(&mut self, rows: &[(usize, [f32; CLASSES])], bias: &[f32; CLASSES]) {
        for (r, delta) in rows {
            let row = &mut self.w[r * CLASSES..(r + 1) * CLASSES];
            for (w, d) in row.iter_mut().zip(delta) {
                *w += d;
            }
        }
        for (b, d) in self.b.iter_mut().zip(bias) {
            *b += d;
        }
    }

    /// Classification accuracy over samples.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        let correct = samples.iter().filter(|s| self.predict(&s.pixels) == s.label).count();
        correct as f64 / samples.len() as f64
    }
}

/// The nonzero `(pixel, intensity)` entries of an image, ascending.
fn active(x: &[f32]) -> impl Iterator<Item = (usize, f32)> + '_ {
    x.iter().copied().enumerate().filter(|&(_, xp)| xp != 0.0)
}

/// Numerically stable softmax.
pub fn softmax(z: &[f32; CLASSES]) -> [f32; CLASSES] {
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out = [0.0f32; CLASSES];
    let mut sum = 0.0f32;
    for c in 0..CLASSES {
        out[c] = (z[c] - max).exp();
        sum += out[c];
    }
    for o in &mut out {
        *o /= sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataSpec, Dataset};

    #[test]
    fn softmax_sums_to_one() {
        let z = [1.0, 2.0, 3.0, -1.0, 0.0, 0.5, 2.5, -2.0, 1.5, 0.1];
        let p = softmax(&z);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| x > 0.0));
        // Largest logit gets largest probability.
        assert_eq!(
            p.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0,
            2
        );
    }

    #[test]
    fn gradient_rows_match_batch_support() {
        let d = Dataset::generate(&DataSpec { n: 6, ..Default::default() });
        let m = Model::new();
        let batch: Vec<&Sample> = d.samples.iter().take(3).collect();
        let g = m.gradient(&batch);
        let support: std::collections::HashSet<usize> =
            batch.iter().flat_map(|s| s.active_pixels()).collect();
        let touched: std::collections::HashSet<usize> = g.touched_rows().collect();
        assert_eq!(touched, support);
    }

    #[test]
    fn gradient_descends_the_loss() {
        let d = Dataset::generate(&DataSpec { n: 30, ..Default::default() });
        let mut m = Model::new();
        let batch: Vec<&Sample> = d.samples.iter().collect();
        let before = m.loss(&batch);
        for _ in 0..20 {
            let g = m.gradient(&batch);
            let lr = 0.5f32;
            let step: Vec<(usize, [f32; CLASSES])> = g
                .rows
                .iter()
                .map(|(r, row)| {
                    let mut d = [0.0f32; CLASSES];
                    for c in 0..CLASSES {
                        d[c] = -lr * row[c];
                    }
                    (*r, d)
                })
                .collect();
            let mut bias = [0.0f32; CLASSES];
            for (b, g) in bias.iter_mut().zip(&g.bias) {
                *b = -lr * g;
            }
            m.apply_rows(&step, &bias);
        }
        let after = m.loss(&batch);
        assert!(after < before * 0.7, "loss {before} -> {after}");
    }

    #[test]
    fn training_reaches_usable_accuracy() {
        // Convex problem on synthetic digits: full-batch GD should
        // separate the 10 stroke patterns far above chance.
        let d = Dataset::generate(&DataSpec { n: 200, ..Default::default() });
        let mut m = Model::new();
        let batch: Vec<&Sample> = d.samples.iter().collect();
        for _ in 0..60 {
            let g = m.gradient(&batch);
            let lr = 1.0f32;
            let step: Vec<(usize, [f32; CLASSES])> = g
                .rows
                .iter()
                .map(|(r, row)| {
                    let mut dd = [0.0f32; CLASSES];
                    for c in 0..CLASSES {
                        dd[c] = -lr * row[c];
                    }
                    (*r, dd)
                })
                .collect();
            let mut bias = [0.0f32; CLASSES];
            for (b, g) in bias.iter_mut().zip(&g.bias) {
                *b = -lr * g;
            }
            m.apply_rows(&step, &bias);
        }
        let acc = m.accuracy(&d.samples);
        assert!(acc > 0.8, "accuracy {acc}");
    }
}
