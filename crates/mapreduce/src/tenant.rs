//! WordCount as a multi-tenant job: the [`daiet::tenant::TenantWorkload`]
//! adapter over the deterministic [`Corpus`] generator.
//!
//! One round, `n_mappers` senders, one SUM tree per reducer. The shards
//! fed to the fabric are exactly the corpus's per-reducer map-output
//! partitions, so `verify` can check the collected trees against
//! [`Corpus::expected_reduction`] bit-for-bit — the same ground truth the
//! single-tenant runner uses.

use crate::wordcount::{Corpus, CorpusSpec};
use daiet::agg::AggFn;
use daiet::tenant::{fold_round_digest, TenantWorkload, DIGEST_SEED};
use daiet_wire::daiet::{Key, Pair};

/// A WordCount job runnable under the multi-tenant scheduler.
#[derive(Debug, Clone)]
pub struct WordCountTenant {
    corpus: Corpus,
    collected: Vec<Vec<(Key, u32)>>,
    digest: u64,
}

impl WordCountTenant {
    /// A tenant over a freshly generated corpus.
    pub fn new(spec: &CorpusSpec) -> WordCountTenant {
        WordCountTenant {
            corpus: Corpus::generate(spec),
            collected: Vec::new(),
            digest: DIGEST_SEED,
        }
    }

    /// A small tenant for tests (the [`CorpusSpec::tiny`] shape).
    pub fn tiny(seed: u64) -> WordCountTenant {
        WordCountTenant::new(&CorpusSpec::tiny(seed))
    }

    /// The corpus this job shuffles.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }
}

impl TenantWorkload for WordCountTenant {
    fn label(&self) -> String {
        format!("wordcount[{}w]", self.corpus.spec.distinct_words)
    }

    fn senders(&self) -> usize {
        self.corpus.spec.n_mappers
    }

    fn aggs(&self) -> Vec<AggFn> {
        vec![AggFn::Sum; self.corpus.spec.n_reducers]
    }

    fn rounds(&self) -> u64 {
        1
    }

    fn shards(&mut self, _round: u64) -> Vec<Vec<Vec<Pair>>> {
        // The trait hands out owned vectors, so each buffer is copied.
        self.corpus
            .partitions
            .iter()
            .map(|per_reducer| per_reducer.iter().map(|pairs| pairs.to_vec()).collect())
            .collect()
    }

    fn absorb(&mut self, _round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
        self.digest = fold_round_digest(self.digest, &per_tree);
        self.collected = per_tree;
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn verify(&self) -> Result<(), String> {
        if self.collected.len() != self.corpus.spec.n_reducers {
            return Err(format!(
                "wordcount: got {} trees, expected {}",
                self.collected.len(),
                self.corpus.spec.n_reducers
            ));
        }
        for (r, got) in self.collected.iter().enumerate() {
            let want = self.corpus.expected_reduction(r);
            if got.len() != want.len() {
                return Err(format!(
                    "wordcount reducer {r}: {} words, expected {}",
                    got.len(),
                    want.len()
                ));
            }
            for ((gk, gv), (word, count)) in got.iter().zip(want) {
                if *gk != word.key() || gv != count {
                    return Err(format!(
                        "wordcount reducer {r}: got ({}, {gv}), expected ({word}, {count})",
                        gk.display_lossy()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_every_record_exactly_once() {
        let mut t = WordCountTenant::tiny(3);
        let shards = t.shards(0);
        assert_eq!(shards.len(), t.corpus.spec.n_mappers);
        let total: usize = shards
            .iter()
            .flat_map(|per_tree| per_tree.iter().map(Vec::len))
            .sum();
        assert_eq!(total, t.corpus.total_records());
    }

    #[test]
    fn absorbing_the_expected_reduction_verifies() {
        let mut t = WordCountTenant::tiny(4);
        let per_tree: Vec<Vec<(Key, u32)>> = (0..t.corpus.spec.n_reducers)
            .map(|r| {
                t.corpus
                    .expected_reduction(r)
                    .iter()
                    .map(|(w, c)| (w.key(), *c))
                    .collect()
            })
            .collect();
        t.absorb(0, per_tree);
        t.verify().expect("expected reduction must verify");
        assert_ne!(t.digest(), DIGEST_SEED, "digest folds the result");
    }

    #[test]
    fn a_wrong_count_fails_verification() {
        let mut t = WordCountTenant::tiny(4);
        let mut per_tree: Vec<Vec<(Key, u32)>> = (0..t.corpus.spec.n_reducers)
            .map(|r| {
                t.corpus
                    .expected_reduction(r)
                    .iter()
                    .map(|(w, c)| (w.key(), *c))
                    .collect()
            })
            .collect();
        per_tree[0][0].1 = per_tree[0][0].1.wrapping_add(1);
        t.absorb(0, per_tree);
        assert!(t.verify().is_err());
    }
}
