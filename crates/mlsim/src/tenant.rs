//! Iterative SGD as a multi-tenant job: the
//! [`daiet::tenant::TenantWorkload`] adapter over [`PsCluster`].
//!
//! Multi-round: each round one worker shard of quantized gradients per
//! sender, one SUM tree, and the aggregated lane sums applied to the
//! server model before the next round's gradients are computed — so the
//! job's rounds are genuinely dependent, the property that makes
//! mid-stream isolation failures visible in the digest trace. `verify`
//! replays the in-memory reference pipeline (same quantize → sum → apply
//! path) and compares per-step model digests bit-for-bit.

use crate::data::{DataSpec, Dataset};
use crate::netrun::{model_digest, quantize_grad, reference_sums, ForeignLane, LaneSums};
use crate::optimizer::Sgd;
use crate::psworker::PsCluster;
use daiet::agg::AggFn;
use daiet::tenant::{fold_round_digest, TenantWorkload, DIGEST_SEED};
use daiet_wire::daiet::{Key, Pair};

/// A synchronous-SGD training job runnable under the multi-tenant
/// scheduler.
pub struct SgdTenant {
    data_spec: DataSpec,
    data: Dataset,
    cluster: PsCluster<Sgd>,
    workers: usize,
    batch: usize,
    steps: u64,
    lr: f32,
    digests: Vec<u32>,
    /// The first key outside the model any round delivered, with its
    /// round; that round's sums are not applied.
    foreign: Option<(u64, ForeignLane)>,
    wire_digest: u64,
}

impl SgdTenant {
    /// A training job of `workers` workers × `steps` steps over a fresh
    /// synthetic dataset.
    pub fn new(workers: usize, batch: usize, steps: u64, lr: f32, data: DataSpec) -> SgdTenant {
        SgdTenant {
            data_spec: data,
            data: Dataset::generate(&data),
            cluster: PsCluster::new(workers, batch, Sgd::new(lr)),
            workers,
            batch,
            steps,
            lr,
            digests: Vec::new(),
            foreign: None,
            wire_digest: DIGEST_SEED,
        }
    }

    /// A small job for tests: 3 workers × 2 steps over a 30-sample set
    /// with few active pixels (keeps per-round pair counts small).
    pub fn tiny(seed: u64) -> SgdTenant {
        let data = DataSpec { n: 30, mean_active: 20, seed };
        SgdTenant::new(3, 2, 2, 0.1, data)
    }

    /// Per-step model fingerprints absorbed so far.
    pub fn step_digests(&self) -> &[u32] {
        &self.digests
    }

    /// The server model's accuracy over the training set.
    pub fn accuracy(&self) -> f64 {
        self.cluster.server.accuracy(&self.data.samples)
    }
}

impl TenantWorkload for SgdTenant {
    fn label(&self) -> String {
        format!("sgd[{}wx{}s]", self.workers, self.steps)
    }

    fn senders(&self) -> usize {
        self.workers
    }

    fn aggs(&self) -> Vec<AggFn> {
        vec![AggFn::Sum]
    }

    fn rounds(&self) -> u64 {
        self.steps
    }

    fn shards(&mut self, _round: u64) -> Vec<Vec<Vec<Pair>>> {
        // Gradients are a function of the server model, which absorbed
        // the previous round's sums — the scheduler guarantees rounds are
        // issued in order, one at a time per job.
        self.cluster
            .compute_updates(&self.data)
            .iter()
            .map(|u| vec![quantize_grad(&u.grad)])
            .collect()
    }

    fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
        self.wire_digest = fold_round_digest(self.wire_digest, &per_tree);
        match LaneSums::from_pairs(per_tree.first().map_or(&[][..], Vec::as_slice)) {
            Ok(sums) => self.cluster.apply_sums(&sums),
            Err(foreign) => {
                self.foreign.get_or_insert((round, foreign));
            }
        }
        self.digests.push(model_digest(&self.cluster.server));
    }

    fn digest(&self) -> u64 {
        self.wire_digest
    }

    fn verify(&self) -> Result<(), String> {
        if let Some((round, foreign)) = &self.foreign {
            return Err(format!("sgd step {round}: {foreign}"));
        }
        if self.digests.len() != self.steps as usize {
            return Err(format!(
                "sgd: {} steps absorbed, expected {}",
                self.digests.len(),
                self.steps
            ));
        }
        let data = Dataset::generate(&self.data_spec);
        let mut reference = PsCluster::new(self.workers, self.batch, Sgd::new(self.lr));
        for (step, &got) in self.digests.iter().enumerate() {
            let updates = reference.compute_updates(&data);
            let sums = reference_sums(&updates);
            reference.apply_sums(&sums);
            let want = model_digest(&reference.server);
            if got != want {
                return Err(format!(
                    "sgd step {step}: model digest {got:#010x} diverges from reference {want:#010x}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Drives the job the way a lossless SUM-aggregating network would:
    /// wrapping-sum every worker's pairs per round and absorb the merge.
    fn drive_lossless(t: &mut SgdTenant) {
        for round in 0..t.rounds() {
            let shards = t.shards(round);
            let mut merged: BTreeMap<Key, u32> = BTreeMap::new();
            for per_tree in &shards {
                for p in &per_tree[0] {
                    let e = merged.entry(p.key).or_insert(0);
                    *e = e.wrapping_add(p.value);
                }
            }
            t.absorb(round, vec![merged.into_iter().collect()]);
        }
    }

    #[test]
    fn absorbing_lossless_sums_verifies() {
        let mut t = SgdTenant::tiny(5);
        drive_lossless(&mut t);
        t.verify().expect("lossless sums must match the reference");
        assert_eq!(t.step_digests().len(), 2);
        assert_ne!(t.digest(), DIGEST_SEED);
    }

    #[test]
    fn a_corrupted_round_fails_verification() {
        let mut t = SgdTenant::tiny(6);
        let shards = t.shards(0);
        let mut merged: BTreeMap<Key, u32> = BTreeMap::new();
        for per_tree in &shards {
            for p in &per_tree[0] {
                let e = merged.entry(p.key).or_insert(0);
                *e = e.wrapping_add(p.value);
            }
        }
        // Flip one lane — the digest trace must diverge from step 0 on.
        let mut pairs: Vec<(Key, u32)> = merged.into_iter().collect();
        pairs[0].1 = pairs[0].1.wrapping_add(1);
        t.absorb(0, vec![pairs]);
        t.absorb(1, vec![Vec::new()]);
        assert!(t.verify().is_err());
    }

    #[test]
    fn a_foreign_key_fails_verification_instead_of_panicking() {
        let mut t = SgdTenant::tiny(4);
        let _ = t.shards(0);
        t.absorb(0, vec![vec![(Key::from_str_key("hello").unwrap(), 1)]]);
        let _ = t.shards(1);
        t.absorb(1, vec![Vec::new()]);
        let err = t.verify().unwrap_err();
        assert!(err.contains("step 0") && err.contains("row 1751477356, class 1862270976"), "{err}");
    }

    /// The ledger's SGD shape, driven loss-free. Captured at the commit
    /// that still summed through `BTreeMap`s: the dense layout must
    /// reproduce every model bit and every wire pair.
    #[test]
    fn ledger_shape_matches_its_golden_digests() {
        let mut t = SgdTenant::new(3, 16, 20, 0.1, DataSpec { n: 960, mean_active: 60, seed: 7 });
        drive_lossless(&mut t);
        t.verify().unwrap();
        assert_eq!(t.step_digests().last(), Some(&0xac41_7664));
        assert_eq!(t.digest(), 0xd7a4_4959_4b52_aa2f);
    }

    /// The paper's shape: 5 workers, batch 3, 10 steps over 300 samples.
    fn paper_shape(steps: u64) -> SgdTenant {
        SgdTenant::new(5, 3, steps, 0.1, DataSpec { n: 300, ..DataSpec::default() })
    }

    /// Captured at the commit that still summed through a `BTreeMap`: the
    /// dense sums must replay the same model bits.
    #[test]
    fn reference_run_matches_its_golden_digest() {
        let mut t = paper_shape(10);
        drive_lossless(&mut t);
        t.verify().unwrap();
        assert_eq!(t.step_digests().last(), Some(&0x23fd_5e28));
        assert_eq!(t.accuracy(), 296.0 / 300.0);
    }

    #[test]
    fn reference_run_trains_and_is_deterministic() {
        let mut a = paper_shape(5);
        let mut b = paper_shape(5);
        drive_lossless(&mut a);
        drive_lossless(&mut b);
        assert_eq!(a.step_digests(), b.step_digests());
        assert_eq!(a.accuracy(), b.accuracy());
        assert_eq!(a.step_digests().len(), 5);
        // Five steps of quantized SGD must already beat chance by a lot.
        assert!(a.accuracy() > 0.4, "accuracy {}", a.accuracy());
    }

    #[test]
    fn digest_traces_are_deterministic_per_seed() {
        let mut a = SgdTenant::tiny(7);
        let mut b = SgdTenant::tiny(7);
        drive_lossless(&mut a);
        drive_lossless(&mut b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.step_digests(), b.step_digests());
        let mut c = SgdTenant::tiny(8);
        drive_lossless(&mut c);
        assert_ne!(a.digest(), c.digest());
    }
}
