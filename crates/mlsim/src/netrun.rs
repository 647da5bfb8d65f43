//! Packet-level parameter-server training — the Figure-1 workload driven
//! **through the real dataplane** instead of the analytic model.
//!
//! §3's loop ("the worker sends its parameter updates to the server which
//! aggregates the local updates from each worker") is exactly the
//! iterative traffic the paper argues for, so this module runs it as one
//! DAIET round per SGD step of a single job admitted on a long-lived
//! leaf-spine [`JobScheduler`]: per step every worker
//! quantizes its sparse gradient to fixed point ([`quantize_grad`]),
//! ships it as key/value pairs (key = weight coordinate, value =
//! two's-complement lane), the switches SUM-aggregate in flight, and the
//! server decodes the lane sums into the mean gradient.
//!
//! Fixed point is what makes the network path *bit-identical* to an
//! in-memory execution: wrapping `u32` addition is exact two's-complement
//! addition, so the aggregated lane equals the integer sum of the
//! workers' quantized elements no matter how the switches associate it.
//! [`NetCluster::apply_sums`] is the **single** decode-and-apply path —
//! the in-memory reference ([`NetTrainSpec::run_reference`]) and the
//! packet run ([`NetTrainSpec::run_packet`]) differ only in who computed the sums,
//! which is precisely the property the acceptance test pins
//! (`tests/iterative_recovery.rs`), loss-free and under chaos at k = 1.

// lint:allow-file(layer-netsim): network-mode training harness — drives a
// one-job JobScheduler under the Simulator with fault profiles. The
// gradient aggregation protocol itself stays fabric-only.
use crate::data::{DataSpec, Dataset, Sample, CLASSES, DIM};
use crate::model::{Model, SparseGrad};
use crate::optimizer::Optimizer;
use crate::psworker::WorkerGrad;
use daiet::agg::fixed;
use daiet::tenant::{JobRequest, JobScheduler, TenantSpec};
use daiet::worker::ReducerHost;
use daiet::{AggFn, DaietConfig};
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::{FaultProfile, LinkSpec, SimDuration};
use daiet_wire::checksum::crc32;
use daiet_wire::daiet::{Key, Pair};
use std::collections::BTreeMap;

/// Fractional bits of the gradient fixed-point encoding. Gradients of the
/// softmax layer live in `[-1, 1]`; 16 fractional bits leave 15 integer
/// bits of headroom for the worker sum, far beyond 5 workers' reach.
pub const GRAD_FRAC_BITS: u32 = 16;

/// The pseudo-row carrying the bias gradient (real rows are `0..DIM`).
pub const BIAS_ROW: u32 = DIM as u32;

/// Wire key of one weight coordinate: row in bytes 0–3, class in 4–7
/// (big-endian), rest zero.
pub fn grad_key(row: u32, class: u32) -> Key {
    let mut k = [0u8; 16];
    k[0..4].copy_from_slice(&row.to_be_bytes());
    k[4..8].copy_from_slice(&class.to_be_bytes());
    Key(k)
}

/// Inverse of [`grad_key`].
pub fn grad_key_decode(key: &Key) -> (u32, u32) {
    let k = &key.0;
    (
        u32::from_be_bytes([k[0], k[1], k[2], k[3]]),
        u32::from_be_bytes([k[4], k[5], k[6], k[7]]),
    )
}

/// Quantizes one worker's sparse gradient into wire pairs. Zero lanes are
/// skipped (they would ship bytes to add nothing); the reference executor
/// quantizes through this same function, so both paths agree on exactly
/// which coordinates exist.
pub fn quantize_grad(grad: &SparseGrad) -> Vec<Pair> {
    let mut pairs = Vec::new();
    for (row, g) in &grad.rows {
        for (c, &v) in g.iter().enumerate() {
            let lane = fixed::encode(f64::from(v), GRAD_FRAC_BITS);
            if lane != 0 {
                pairs.push(Pair::new(grad_key(*row as u32, c as u32), lane));
            }
        }
    }
    for (c, &v) in grad.bias.iter().enumerate() {
        let lane = fixed::encode(f64::from(v), GRAD_FRAC_BITS);
        if lane != 0 {
            pairs.push(Pair::new(grad_key(BIAS_ROW, c as u32), lane));
        }
    }
    pairs
}

/// Lane sums keyed by weight coordinate — what the network (or the
/// reference executor) hands the server each step.
pub type LaneSums = BTreeMap<(u32, u32), u32>;

/// The in-memory ground truth: every worker's quantized pairs summed with
/// wrapping `u32` addition, i.e. exactly what a lossless SUM-aggregating
/// network computes.
pub fn reference_sums(updates: &[WorkerGrad]) -> LaneSums {
    let mut sums = LaneSums::new();
    for wu in updates {
        for p in quantize_grad(&wu.grad) {
            let e = sums.entry(grad_key_decode(&p.key)).or_insert(0u32);
            *e = e.wrapping_add(p.value);
        }
    }
    sums
}

/// A synchronous PS cluster whose server consumes **aggregated lane
/// sums** instead of raw worker gradients — the half of
/// [`crate::psworker::PsCluster`] that survives when the summation moves
/// into the network. Gradient computation and shard cursors are identical
/// to the analytic cluster; only the aggregation transport differs.
pub struct NetCluster<O: Optimizer> {
    /// The authoritative model at the server.
    pub server: Model,
    optimizer: O,
    n_workers: usize,
    batch: usize,
    cursor: Vec<usize>,
}

impl<O: Optimizer> NetCluster<O> {
    /// A cluster of `n_workers` workers drawing mini-batches of `batch`.
    pub fn new(n_workers: usize, batch: usize, optimizer: O) -> NetCluster<O> {
        NetCluster {
            server: Model::new(),
            optimizer,
            n_workers,
            batch,
            cursor: (0..n_workers).collect(),
        }
    }

    /// Every worker's gradient for this step (round-robin disjoint
    /// shards, as in [`crate::psworker::PsCluster::step`]).
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

    /// Decodes aggregated lane sums into the mean gradient and applies
    /// one optimizer step — the single code path both the reference and
    /// the packet run go through, so their models cannot diverge unless
    /// the sums themselves differ.
    pub fn apply_sums(&mut self, sums: &LaneSums) {
        let inv = 1.0 / self.n_workers as f32;
        let mut rows: BTreeMap<usize, [f32; CLASSES]> = BTreeMap::new();
        let mut bias = [0.0f32; CLASSES];
        for (&(row, class), &lane) in sums {
            let mean = fixed::decode(lane, GRAD_FRAC_BITS) as f32 * inv;
            if row == BIAS_ROW {
                bias[class as usize] = mean;
            } else {
                rows.entry(row as usize).or_insert([0.0; CLASSES])[class as usize] = mean;
            }
        }
        let mean_grad = SparseGrad { rows: rows.into_iter().collect(), bias };
        let update = self.optimizer.step(&mean_grad);
        self.server.apply_rows(&update.rows, &update.bias);
    }
}

/// CRC-32 over the model's parameter bits — the per-step convergence
/// fingerprint two runs are compared by (collision-safe enough for a
/// 10-step trace; the acceptance test also compares final accuracy).
pub fn model_digest(m: &Model) -> u32 {
    let mut bytes = Vec::with_capacity((m.w.len() + m.b.len()) * 4);
    for v in m.w.iter().chain(m.b.iter()) {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

/// One packet-level training configuration.
#[derive(Debug, Clone)]
pub struct NetTrainSpec {
    /// Workers (paper: 5).
    pub workers: usize,
    /// Mini-batch per worker.
    pub batch: usize,
    /// SGD steps (= network rounds).
    pub steps: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// The synthetic dataset.
    pub data: DataSpec,
    /// Simulation seed.
    pub seed: u64,
    /// Fault profile applied to **every** link.
    pub faults: FaultProfile,
    /// Arm NACK recovery. Off is the paper-faithful prototype.
    pub recovery: bool,
}

impl Default for NetTrainSpec {
    fn default() -> Self {
        NetTrainSpec {
            workers: 5,
            batch: 3,
            steps: 10,
            lr: 0.1,
            data: DataSpec { n: 300, ..DataSpec::default() },
            seed: 11,
            faults: FaultProfile::NONE,
            recovery: true,
        }
    }
}

/// What one training run produced.
#[derive(Debug, Clone)]
pub struct NetTrainOutcome {
    /// Per-step model fingerprints ([`model_digest`] after each apply).
    pub digests: Vec<u32>,
    /// Final accuracy over the training set.
    pub accuracy: f64,
    /// Frames the network dropped by fault injection (whole run).
    pub fault_drops: u64,
    /// NACK frames the server emitted (0 without recovery).
    pub nacks_emitted: u64,
    /// Frames arriving at the server, per round (from the per-round
    /// stats deltas — NOT cumulative).
    pub server_frames_per_round: Vec<u64>,
    /// Pairs shipped by workers over the whole run (pre-aggregation).
    pub pairs_shipped: u64,
}

impl NetTrainSpec {
    fn cluster(&self) -> NetCluster<crate::optimizer::Sgd> {
        NetCluster::new(self.workers, self.batch, crate::optimizer::Sgd::new(self.lr))
    }

    /// The in-memory reference: identical quantize → sum → apply
    /// pipeline, no network. Digest trace and accuracy are the ground
    /// truth the packet run must reproduce bit-for-bit.
    pub fn run_reference(&self) -> NetTrainOutcome {
        let data = Dataset::generate(&self.data);
        let mut cluster = self.cluster();
        let mut digests = Vec::with_capacity(self.steps);
        let mut pairs_shipped = 0u64;
        for _ in 0..self.steps {
            let updates = cluster.compute_updates(&data);
            pairs_shipped += updates
                .iter()
                .map(|u| quantize_grad(&u.grad).len() as u64)
                .sum::<u64>();
            let sums = reference_sums(&updates);
            cluster.apply_sums(&sums);
            digests.push(model_digest(&cluster.server));
        }
        NetTrainOutcome {
            digests,
            accuracy: cluster.server.accuracy(&data.samples),
            fault_drops: 0,
            nacks_emitted: 0,
            server_frames_per_round: Vec::new(),
            pairs_shipped,
        }
    }

    /// Runs training over the real dataplane: workers and the parameter
    /// server on a leaf-spine fabric, one DAIET round per step, switch
    /// registers flushed and reused across rounds. Errors if any round
    /// cannot be completed exactly (loss beyond the NACK budget).
    pub fn run_packet(&self) -> Result<NetTrainOutcome, String> {
        let data = Dataset::generate(&self.data);
        let mut cluster = self.cluster();

        // Leaves of 3 hosts cover the paper's 5 workers + 1 server.
        let hosts_per_leaf = 3;
        let leaves = (self.workers + 1).div_ceil(hosts_per_leaf);
        let link = LinkSpec::fast()
            .with_queue_bytes(4 * 1024 * 1024)
            .with_faults(self.faults);
        let plan = TopologyPlan::leaf_spine(hosts_per_leaf, leaves.max(2), 2, link);
        let config = DaietConfig {
            register_cells: 8192,
            nack_recovery: self.recovery,
            ..DaietConfig::default()
        }
        .with_rtx_sized_for_flush();
        let mut spec =
            TenantSpec::new(config, plan, (0..self.workers).collect(), vec![self.workers]);
        spec.seed = self.seed;
        spec.pacing = SimDuration::from_micros(1);
        let mut sched = JobScheduler::build(spec).map_err(|e| e.to_string())?;
        let request = JobRequest {
            label: "sgd".into(),
            senders: self.workers,
            aggs: vec![AggFn::Sum],
        };
        let job = sched.admit(request).map_err(|e| e.to_string())?;

        let mut digests = Vec::with_capacity(self.steps);
        let mut server_frames_per_round = Vec::with_capacity(self.steps);
        let mut pairs_shipped = 0u64;
        let server = sched.node_id(self.workers);
        for _ in 0..self.steps {
            let updates = cluster.compute_updates(&data);
            let shards: Vec<Vec<Vec<Pair>>> = updates
                .iter()
                .map(|u| {
                    let pairs = quantize_grad(&u.grad);
                    pairs_shipped += pairs.len() as u64;
                    vec![pairs]
                })
                .collect();
            let before = sched.sim().snapshot();
            let per_tree = sched.run_round(job, &shards)?;
            let net = sched.sim().snapshot().delta(&before);
            server_frames_per_round.push(net.nodes[server.0].frames_in);
            let sums: LaneSums =
                per_tree[0].iter().map(|(k, v)| (grad_key_decode(k), *v)).collect();
            cluster.apply_sums(&sums);
            digests.push(model_digest(&cluster.server));
        }
        let nacks_emitted = sched
            .sim()
            .node_ref::<ReducerHost>(server)
            .map_or(0, ReducerHost::nacks_emitted);
        Ok(NetTrainOutcome {
            digests,
            accuracy: cluster.server.accuracy(&data.samples),
            fault_drops: sched.sim().snapshot().fault_drops(),
            nacks_emitted,
            server_frames_per_round,
            pairs_shipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_key_round_trips() {
        for (r, c) in [(0u32, 0u32), (783, 9), (BIAS_ROW, 3), (u32::MAX, 7)] {
            assert_eq!(grad_key_decode(&grad_key(r, c)), (r, c));
        }
    }

    #[test]
    fn quantized_pairs_skip_zero_lanes_and_cover_bias() {
        let grad = SparseGrad {
            rows: vec![(3, {
                let mut g = [0.0f32; CLASSES];
                g[1] = 0.5;
                g
            })],
            bias: {
                let mut b = [0.0f32; CLASSES];
                b[9] = -0.25;
                b
            },
        };
        let pairs = quantize_grad(&grad);
        assert_eq!(pairs.len(), 2, "one weight lane + one bias lane");
        assert_eq!(grad_key_decode(&pairs[0].key), (3, 1));
        assert_eq!(fixed::decode(pairs[0].value, GRAD_FRAC_BITS), 0.5);
        assert_eq!(grad_key_decode(&pairs[1].key), (BIAS_ROW, 9));
        assert_eq!(fixed::decode(pairs[1].value, GRAD_FRAC_BITS), -0.25);
    }

    #[test]
    fn reference_sums_are_exact_signed_fixed_point() {
        let mk = |v: f32| WorkerGrad {
            worker: 0,
            grad: SparseGrad {
                rows: vec![(0, {
                    let mut g = [0.0f32; CLASSES];
                    g[0] = v;
                    g
                })],
                bias: [0.0; CLASSES],
            },
        };
        // +0.75 and −0.5 sum to +0.25 exactly, through wrapping u32.
        let sums = reference_sums(&[mk(0.75), mk(-0.5)]);
        assert_eq!(sums.len(), 1);
        assert_eq!(fixed::decode(sums[&(0, 0)], GRAD_FRAC_BITS), 0.25);
    }

    #[test]
    fn reference_run_trains_and_is_deterministic() {
        let spec = NetTrainSpec { steps: 5, ..NetTrainSpec::default() };
        let a = spec.run_reference();
        let b = spec.run_reference();
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.digests.len(), 5);
        // Five steps of quantized SGD must already beat chance by a lot.
        assert!(a.accuracy > 0.4, "accuracy {}", a.accuracy);
    }
}
