//! Parameter-server training with its gradient sum in the network: how
//! the Figure-1 workload's gradients travel **through the real
//! dataplane** instead of the analytic model.
//!
//! §3's loop ("the worker sends its parameter updates to the server which
//! aggregates the local updates from each worker") is exactly the
//! iterative traffic the paper argues for. Per step every worker
//! quantizes its sparse gradient to fixed point ([`quantize_grad`]) and
//! ships it as key/value pairs (key = weight coordinate, value =
//! two's-complement lane), the switches SUM-aggregate in flight, and the
//! server decodes the lane sums into the mean gradient. The job itself,
//! one DAIET round per step, is [`crate::tenant::SgdTenant`].
//!
//! Fixed point is what makes the network path *bit-identical* to an
//! in-memory execution: wrapping `u32` addition is exact two's-complement
//! addition, so the aggregated lane equals the integer sum of the
//! workers' quantized elements no matter how the switches associate it.
//! [`PsCluster::apply_sums`] is the **single** decode-and-apply path —
//! the in-memory reference ([`reference_sums`]) and the network differ
//! only in who computed the sums, which is precisely the property
//! `tests/iterative_recovery.rs` pins, loss-free and under chaos at
//! k = 1.
//!
//! [`PsCluster::apply_sums`]: crate::psworker::PsCluster::apply_sums

use crate::data::{CLASSES, DIM};
use crate::model::{DenseRows, Model, SparseGrad};
use crate::psworker::WorkerGrad;
use daiet::agg::fixed;
use daiet_wire::checksum::crc32;
use daiet_wire::daiet::{Key, Pair};
use std::fmt;

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

/// One worker's gradient in fixed point, row by row: weight rows
/// ascending, then the bias row. A row whose lanes all quantize to 0 is
/// skipped: it would ship nothing. Both the wire ([`quantize_grad`]) and
/// the reference executor ([`reference_sums`]) draw from this, so they
/// agree on exactly which rows and lanes exist.
fn quantized_rows(grad: &SparseGrad) -> impl Iterator<Item = (usize, [u32; CLASSES])> + '_ {
    let rows = grad.rows.iter().map(|(r, g)| (*r, g));
    rows.chain(std::iter::once((BIAS_ROW as usize, &grad.bias)))
        .map(|(row, g)| (row, g.map(|v| fixed::encode(f64::from(v), GRAD_FRAC_BITS))))
        .filter(|(_, lanes)| lanes.iter().any(|&lane| lane != 0))
}

/// Quantizes one worker's sparse gradient into wire pairs. Zero lanes are
/// skipped (they would ship bytes to add nothing).
pub fn quantize_grad(grad: &SparseGrad) -> Vec<Pair> {
    let mut pairs = Vec::with_capacity((grad.rows.len() + 1) * CLASSES);
    for (row, lanes) in quantized_rows(grad) {
        for (class, &lane) in lanes.iter().enumerate() {
            if lane != 0 {
                pairs.push(Pair::new(grad_key(row as u32, class as u32), lane));
            }
        }
    }
    pairs
}

/// Rows of the model's coordinate space: the `DIM` weight rows, then
/// [`BIAS_ROW`].
pub const LANE_ROWS: usize = DIM + 1;

/// A wire key whose `(row, class)` lies outside the model's coordinate
/// space, so no lane can hold its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignLane {
    /// The decoded row.
    pub row: u32,
    /// The decoded class.
    pub class: u32,
}

impl fmt::Display for ForeignLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "foreign key (row {}, class {}) outside the model's {LANE_ROWS} x {CLASSES} lanes",
            self.row, self.class
        )
    }
}

/// Lane sums over the model's coordinate space: what the network (or the
/// reference executor) hands the server each step.
///
/// **Dense layout.** Every lane of the model has a slot: one
/// `[u32; CLASSES]` per row for all [`LANE_ROWS`] rows, i.e.
/// `(DIM + 1) × CLASSES` = 7 850 lanes, with the bias row [`BIAS_ROW`]
/// last. Adding a value is a wrapping add at a fixed index.
///
/// **Row presence.** A row is present once any of its lanes arrived,
/// even when that lane sums to 0 (the workers' values cancelled) or the
/// network delivered a 0. [`PsCluster::apply_sums`] hands the optimizer
/// exactly the present rows, so presence decides which rows Adam advances
/// its lazy per-row moments for: a present row of zero sums is not a
/// missing row. A lane of a present row that never arrived reads 0, the
/// value a sum that arrived as 0 decodes to.
///
/// [`PsCluster::apply_sums`]: crate::psworker::PsCluster::apply_sums
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSums(DenseRows<u32>);

impl Default for LaneSums {
    fn default() -> Self {
        LaneSums::new()
    }
}

impl LaneSums {
    /// No row present, every lane 0.
    pub fn new() -> LaneSums {
        LaneSums(DenseRows::new(LANE_ROWS))
    }

    /// Wrapping-adds `value` into lane `(row, class)` and marks the row
    /// present. A coordinate outside the model is refused and changes
    /// nothing.
    pub fn add(&mut self, row: u32, class: u32, value: u32) -> Result<(), ForeignLane> {
        if row as usize >= LANE_ROWS || class as usize >= CLASSES {
            return Err(ForeignLane { row, class });
        }
        let lane = &mut self.0.row_mut(row as usize)[class as usize];
        *lane = lane.wrapping_add(value);
        Ok(())
    }

    /// The sums a round delivered as `(key, sum)` pairs, each key a
    /// [`grad_key`] (a key that repeats adds up). Errors on the first key
    /// outside the model.
    pub fn from_pairs(pairs: &[(Key, u32)]) -> Result<LaneSums, ForeignLane> {
        let mut sums = LaneSums::new();
        for (key, value) in pairs {
            let (row, class) = grad_key_decode(key);
            sums.add(row, class, *value)?;
        }
        Ok(sums)
    }

    /// The present rows with their lanes, ascending (the bias row last).
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[u32; CLASSES])> + '_ {
        self.0.iter()
    }
}

/// The in-memory ground truth: every worker's quantized lanes summed with
/// wrapping `u32` addition, i.e. exactly what a lossless SUM-aggregating
/// network computes. A zero lane adds nothing, and its row is present
/// only if another lane of it shipped, as on the wire. Panics on a
/// gradient row outside the model, which only a hand-built
/// [`SparseGrad`] can carry.
pub fn reference_sums(updates: &[WorkerGrad]) -> LaneSums {
    let mut sums = LaneSums::new();
    for wu in updates {
        for (row, lanes) in quantized_rows(&wu.grad) {
            for (sum, lane) in sums.0.row_mut(row).iter_mut().zip(lanes) {
                *sum = sum.wrapping_add(lane);
            }
        }
    }
    sums
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataSpec, Dataset};
    use crate::optimizer::Optimizer;
    use crate::psworker::PsCluster;
    use crate::optimizer::{Adam, Sgd};
    use std::collections::BTreeMap;

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
        let mut want = [0u32; CLASSES];
        want[0] = fixed::encode(0.25, GRAD_FRAC_BITS);
        assert_eq!(sums.rows().collect::<Vec<_>>(), vec![(0, &want)]);
    }

    #[test]
    fn a_foreign_key_is_refused_not_indexed() {
        let hello = Key::from_str_key("hello").unwrap();
        let good = grad_key(BIAS_ROW, 9);
        let err = LaneSums::from_pairs(&[(good, 1), (hello, 1)]).unwrap_err();
        assert_eq!(err, ForeignLane { row: 0x6865_6c6c, class: 0x6f00_0000 });
        assert!(err.to_string().contains("row 1751477356, class 1862270976"), "{err}");
        // The last in-range row and class are lanes; one past either is not.
        let mut sums = LaneSums::new();
        assert!(sums.add(BIAS_ROW, CLASSES as u32 - 1, 1).is_ok());
        assert!(sums.add(BIAS_ROW + 1, 0, 1).is_err());
        assert!(sums.add(0, CLASSES as u32, 1).is_err());
        assert_eq!(sums.rows().map(|(r, _)| r).collect::<Vec<_>>(), vec![DIM]);
    }

    /// Row presence is what the network delivers: a row any worker
    /// shipped a lane of, even when the workers' values cancel. The sums
    /// built from merged wire pairs (as a tenant absorbs them) equal the
    /// reference's, and either applied under SGD or Adam gives the same
    /// model, bit for bit.
    #[test]
    fn network_and_reference_sums_agree_on_row_presence() {
        let data = Dataset::generate(&DataSpec { n: 60, mean_active: 40, seed: 3 });
        let mut cluster = PsCluster::new(3, 4, Sgd::new(0.1));
        let mut updates = cluster.compute_updates(&data);
        // Row 0 (a blank border pixel) gets +0.5 and −0.5 in class 2.
        for (w, v) in [(0, 0.5f32), (1, -0.5)] {
            let mut g = [0.0f32; CLASSES];
            g[2] = v;
            updates[w].grad.rows.insert(0, (0, g));
        }
        assert!(updates.iter().all(|u| u.grad.rows.windows(2).all(|p| p[0].0 < p[1].0)));

        let mut merged: BTreeMap<Key, u32> = BTreeMap::new();
        for u in &updates {
            for p in quantize_grad(&u.grad) {
                let e = merged.entry(p.key).or_insert(0);
                *e = e.wrapping_add(p.value);
            }
        }
        let wire: Vec<(Key, u32)> = merged.into_iter().collect();
        let from_wire = LaneSums::from_pairs(&wire).unwrap();
        let reference = reference_sums(&updates);
        assert_eq!(from_wire, reference);
        assert_eq!(reference.rows().next(), Some((0, &[0; CLASSES])), "cancelled lane keeps its row");

        fn model_after<O: Optimizer>(opt: O, steps: &[&LaneSums]) -> Model {
            let mut c = PsCluster::new(3, 4, opt);
            for sums in steps {
                c.apply_sums(sums);
            }
            c.server
        }
        let bits = |m: &Model| m.w.iter().chain(&m.b).map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in [
            (model_after(Sgd::new(0.1), &[&from_wire]), model_after(Sgd::new(0.1), &[&reference])),
            (model_after(Adam::new(0.1), &[&from_wire]), model_after(Adam::new(0.1), &[&reference])),
        ] {
            assert_eq!(bits(&a), bits(&b));
        }

        // Presence is what Adam's lazy moments key on: after a step that
        // moved row 0, a step where it is present but sums to 0 still
        // moves it by momentum; dropping the row would not.
        let mut first = LaneSums::new();
        first.add(0, 2, fixed::encode(0.5, GRAD_FRAC_BITS)).unwrap();
        let moved = model_after(Adam::new(0.1), &[&first]);
        let coasted = model_after(Adam::new(0.1), &[&first, &reference]);
        assert_ne!(moved.w[2].to_bits(), coasted.w[2].to_bits());
    }
}
