//! Parameter-server training simulation.
//!
//! §3's setup: "one acts as the parameter server while the other five
//! machines run as many worker processes … each worker is training the
//! same model on different mini-batches of the data. In each iteration,
//! the worker sends its parameter updates to the server which aggregates
//! the local updates from each worker. Then, the parameters at each
//! worker are updated according to their values at the parameter
//! server."
//!
//! Synchronous data parallelism: per step every worker computes a sparse
//! gradient on its own mini-batch, converts it to an update with its
//! optimizer replica, ships the update, and the server applies the
//! aggregate, summed in memory ([`PsCluster::step`]) or in the network
//! ([`PsCluster::apply_sums`]). The *update support sets* per worker per
//! step are the raw material of the Figure-1 overlap metric.

use crate::data::{Dataset, Sample, CLASSES, DIM};
use crate::model::{DenseRows, Model, SparseGrad};
use crate::netrun::{LaneSums, BIAS_ROW, GRAD_FRAC_BITS};
use crate::optimizer::Optimizer;
use daiet::agg::fixed;

/// What one worker sent in one step: its sparse mini-batch gradient (the
/// parameter server owns the optimizer state, as in TensorFlow's PS
/// architecture — workers ship gradients, the server applies them).
#[derive(Debug, Clone)]
pub struct WorkerGrad {
    /// Which worker.
    pub worker: usize,
    /// The sparse gradient.
    pub grad: SparseGrad,
}

/// The per-step record the overlap analysis consumes.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Step index.
    pub step: usize,
    /// Every worker's shipped gradient this step.
    pub updates: Vec<WorkerGrad>,
}

/// A synchronous parameter-server cluster.
pub struct PsCluster<O: Optimizer> {
    /// The authoritative model at the server.
    pub server: Model,
    optimizer: O,
    n_workers: usize,
    batch: usize,
    cursor: Vec<usize>,
}

impl<O: Optimizer> PsCluster<O> {
    /// A cluster of `n_workers` workers, the server applying `optimizer`,
    /// each worker drawing mini-batches of `batch` samples.
    pub fn new(n_workers: usize, batch: usize, optimizer: O) -> PsCluster<O> {
        PsCluster {
            server: Model::new(),
            optimizer,
            n_workers,
            batch,
            cursor: (0..n_workers).collect(),
        }
    }

    /// Every worker's gradient against the current server parameters
    /// (synchronous training: everyone reads the same snapshot).
    ///
    /// Worker `w` reads samples `cursor, cursor + n_workers, …` so the
    /// workers' shards are disjoint (data parallelism), then advances its
    /// cursor — the same round-robin sharding TF's input pipelines use.
    pub fn compute_updates(&mut self, data: &Dataset) -> Vec<WorkerGrad> {
        let mut updates = Vec::with_capacity(self.n_workers);
        for w in 0..self.n_workers {
            let mut batch: Vec<&Sample> = Vec::with_capacity(self.batch);
            for _ in 0..self.batch {
                batch.push(&data.samples[self.cursor[w] % data.samples.len()]);
                self.cursor[w] += self.n_workers;
            }
            let grad = self.server.gradient(&batch);
            updates.push(WorkerGrad { worker: w, grad });
        }
        updates
    }

    /// Runs one synchronous step over `data` with the server summing the
    /// gradients in memory, returning the trace.
    pub fn step(&mut self, data: &Dataset, step_idx: usize) -> StepTrace {
        let updates = self.compute_updates(data);
        // Server aggregates the gradients — *vector addition over the
        // touched rows*, the exact operation DAIET runs in-network — then
        // applies its optimizer once to the mean gradient.
        let inv = 1.0 / self.n_workers as f32;
        let mut rows = DenseRows::new(DIM);
        let mut bias = [0.0f32; CLASSES];
        for wu in &updates {
            for (r, g) in &wu.grad.rows {
                for (a, g) in rows.row_mut(*r).iter_mut().zip(g) {
                    *a += g * inv;
                }
            }
            for (b, g) in bias.iter_mut().zip(&wu.grad.bias) {
                *b += g * inv;
            }
        }
        let mean_grad = SparseGrad { rows: rows.to_sparse(), bias };
        let update = self.optimizer.step(&mean_grad);
        self.server.apply_rows(&update.rows, &update.bias);

        StepTrace { step: step_idx, updates }
    }

    /// The server half once the summation moves into the network:
    /// decodes aggregated lane sums into the mean gradient and applies
    /// one optimizer step. It is the single code path both the in-memory
    /// reference ([`crate::netrun::reference_sums`]) and the network go
    /// through, so their models cannot diverge unless the sums differ.
    pub fn apply_sums(&mut self, sums: &LaneSums) {
        let inv = 1.0 / self.n_workers as f32;
        let mean = |lanes: &[u32; CLASSES]| {
            lanes.map(|lane| fixed::decode(lane, GRAD_FRAC_BITS) as f32 * inv)
        };
        let mut rows = Vec::new();
        let mut bias = [0.0f32; CLASSES];
        for (row, lanes) in sums.rows() {
            if row == BIAS_ROW as usize {
                bias = mean(lanes);
            } else {
                rows.push((row, mean(lanes)));
            }
        }
        let mean_grad = SparseGrad { rows, bias };
        let update = self.optimizer.step(&mean_grad);
        self.server.apply_rows(&update.rows, &update.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataSpec;
    use crate::optimizer::{Adam, Sgd};

    #[test]
    fn workers_see_disjoint_shards() {
        let data = Dataset::generate(&DataSpec { n: 100, ..Default::default() });
        let mut cluster = PsCluster::new(5, 3, Sgd::new(0.1));
        let _ = cluster.step(&data, 0);
        // Cursors advanced by batch × n_workers from distinct offsets.
        assert_eq!(cluster.cursor, vec![15, 16, 17, 18, 19]);
    }

    #[test]
    fn training_converges_under_ps() {
        let data = Dataset::generate(&DataSpec { n: 300, ..Default::default() });
        let mut cluster = PsCluster::new(5, 10, Sgd::new(1.0));
        for s in 0..40 {
            cluster.step(&data, s);
        }
        let acc = cluster.server.accuracy(&data.samples);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn adam_cluster_also_converges() {
        let data = Dataset::generate(&DataSpec { n: 300, ..Default::default() });
        let mut cluster = PsCluster::new(5, 10, Adam::new(0.05));
        for s in 0..40 {
            cluster.step(&data, s);
        }
        let acc = cluster.server.accuracy(&data.samples);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn gradient_support_matches_batch_support() {
        let data = Dataset::generate(&DataSpec { n: 60, ..Default::default() });
        let mut cluster = PsCluster::new(2, 3, Sgd::new(0.1));
        let trace = cluster.step(&data, 0);
        assert_eq!(trace.updates.len(), 2);
        for wu in &trace.updates {
            assert!(!wu.grad.rows.is_empty());
            // Rows ascend (dense row order upstream).
            let rows: Vec<usize> = wu.grad.touched_rows().collect();
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
