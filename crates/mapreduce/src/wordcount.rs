//! The WordCount corpus generator.
//!
//! The paper's input is "a 500 MB file containing random words that are
//! not causing hash collisions" (their footnote: "Our current prototype
//! does not manage collisions"), sized so each reducer's partition fits
//! the 16 K-pair switch registers. Reductions are *ratios*, so the corpus
//! can be scaled down as long as its shape is preserved; the shape knobs
//! are explicit here:
//!
//! * `distinct_words` — dictionary size (≈ `16 K × reducers` at paper
//!   scale so registers fill without overflowing);
//! * `mean_multiplicity` — how many of the `n_mappers` mappers hold each
//!   word. This is the single most important knob: with mapper-side
//!   combining, the network sees `multiplicity` partial counts per word,
//!   and in-network aggregation collapses them to one, so pair-level
//!   reduction ≈ `1 − 1/multiplicity` (defaults calibrated to the paper's
//!   ≈90.5 % packet reduction vs the UDP baseline);
//! * word lengths uniform in `min_len..=max_len` (≤ 16) — sets the
//!   variable-length baseline's bytes per record and thus the data-volume
//!   reduction.
//!
//! Collision-freedom is enforced exactly the way the paper's dataset was
//! built: rejection-sampling words until, within each reducer's
//! partition, every word maps to a distinct `CRC32 % register_cells`
//! slot.
//!
//! The output is emitted directly as §4's fixed-size pairs — the padded
//! key hashed for that check, plus the count — see [`Corpus`].

use daiet_wire::checksum::crc32;
use daiet_wire::daiet::{Key, Pair};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use daiet_wire::fnv::{FnvBuildHasher, FnvHashMap, FnvHashSet};
use std::sync::Arc;

/// Corpus parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Number of map tasks (paper: 24).
    pub n_mappers: usize,
    /// Number of reduce tasks (paper: 12).
    pub n_reducers: usize,
    /// Dictionary size across all reducers.
    pub distinct_words: usize,
    /// Mean number of mappers holding each word (clamped to
    /// `1..=n_mappers`).
    pub mean_multiplicity: f64,
    /// Standard deviation of the multiplicity.
    pub sd_multiplicity: f64,
    /// Shortest generated word.
    pub min_len: usize,
    /// Longest generated word (≤ 16).
    pub max_len: usize,
    /// Register cells per tree (collision-freedom is enforced against
    /// this); use the DAIET config's value.
    pub register_cells: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CorpusSpec {
    /// Paper-shaped defaults at reduced scale: 24 mappers, 12 reducers,
    /// multiplicity ≈ 11, 5–14-character words. `distinct_words` is left
    /// small enough for tests; benches scale it up to `16 K × 12`.
    pub fn paper_scaled(distinct_words: usize, seed: u64) -> CorpusSpec {
        CorpusSpec {
            n_mappers: 24,
            n_reducers: 12,
            distinct_words,
            mean_multiplicity: 10.5,
            sd_multiplicity: 2.0,
            min_len: 7,
            max_len: 14,
            register_cells: 16 * 1024,
            seed,
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny(seed: u64) -> CorpusSpec {
        CorpusSpec {
            n_mappers: 4,
            n_reducers: 2,
            distinct_words: 60,
            mean_multiplicity: 2.5,
            sd_multiplicity: 0.8,
            min_len: 3,
            max_len: 10,
            register_cells: 1024,
            seed,
        }
    }
}

/// Deterministic partitioner: which reducer owns a word.
pub fn partition(word: &str, n_reducers: usize) -> usize {
    (crc32(word.as_bytes()) as usize) % n_reducers
}

/// A generated corpus, already mapper-combined (one pair per distinct
/// word per mapper — the classic WordCount combiner output the shuffle
/// actually moves).
///
/// The map output *is* §4's fixed-size file: each partition is an
/// immutable buffer of [`Pair`]s written once here. The corpus owns the
/// pairs; senders hold a handle to the same buffer and slice it by offset
/// (`Arc`, because the loopback backend runs them on driver threads), so
/// a job neither converts nor copies them, and cloning a corpus shares
/// them.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The specification that produced this corpus.
    pub spec: CorpusSpec,
    /// `partitions[mapper][reducer]` = that mapper's pairs bound for that
    /// reducer: the word as a zero-padded key, and its partial count.
    pub partitions: Vec<Vec<Arc<Vec<Pair>>>>,
    /// Ground truth: final count per word.
    pub truth: FnvHashMap<String, u32>,
    /// Per-reducer sorted ground truth, precomputed once (the correctness
    /// check runs after every simulated shuffle; recomputing it per run
    /// used to dominate small benches).
    expected: Vec<Vec<(String, u32)>>,
}

impl Corpus {
    /// Generates a corpus from `spec`.
    pub fn generate(spec: &CorpusSpec) -> Corpus {
        assert!(spec.max_len <= 16, "words must fit DAIET keys");
        assert!(spec.min_len >= 1 && spec.min_len <= spec.max_len);
        assert!(spec.n_mappers >= 1 && spec.n_reducers >= 1);
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // 1. Dictionary: unique words, collision-free per reducer.
        let mut words: Vec<(String, Key)> = Vec::with_capacity(spec.distinct_words);
        let mut seen: FnvHashSet<String> =
            FnvHashSet::with_capacity_and_hasher(spec.distinct_words, FnvBuildHasher::default());
        let mut used_cells: Vec<FnvHashSet<u32>> = vec![FnvHashSet::default(); spec.n_reducers];
        while words.len() < spec.distinct_words {
            let len = rng.random_range(spec.min_len..=spec.max_len);
            let w: String = (0..len)
                .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
                .collect();
            if seen.contains(&w) {
                continue;
            }
            let r = partition(&w, spec.n_reducers);
            // The switch hashes the padded 16-byte key.
            let key = Key::from_str_key(&w).expect("len <= 16");
            let cell = crc32(&key.0) % spec.register_cells as u32;
            if !used_cells[r].insert(cell) {
                continue; // would collide in-switch: reject, like the paper's dataset
            }
            seen.insert(w.clone());
            words.push((w, key));
        }

        // 2. Spread each word over a sampled set of mappers.
        let mut partitions: Vec<Vec<Vec<Pair>>> =
            vec![vec![Vec::new(); spec.n_reducers]; spec.n_mappers];
        let mut truth: FnvHashMap<String, u32> =
            FnvHashMap::with_capacity_and_hasher(words.len(), FnvBuildHasher::default());
        for (w, key) in &words {
            let r = partition(w, spec.n_reducers);
            let mult = sample_multiplicity(&mut rng, spec);
            let holders = sample_mappers(&mut rng, spec.n_mappers, mult);
            let mut total = 0u32;
            for m in holders {
                let count = rng.random_range(1..=9u32);
                total += count;
                partitions[m][r].push(Pair::new(*key, count));
            }
            truth.insert(w.clone(), total);
        }

        let mut expected: Vec<Vec<(String, u32)>> = vec![Vec::new(); spec.n_reducers];
        for (w, &c) in &truth {
            expected[partition(w, spec.n_reducers)].push((w.clone(), c));
        }
        for e in &mut expected {
            e.sort();
        }

        let partitions = partitions
            .into_iter()
            .map(|per_reducer| per_reducer.into_iter().map(Arc::new).collect())
            .collect();
        Corpus { spec: *spec, partitions, truth, expected }
    }

    /// Total shuffle records (pre-aggregation).
    pub fn total_records(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|per_reducer| per_reducer.iter())
            .map(|pairs| pairs.len())
            .sum()
    }

    /// Distinct words destined for reducer `r`.
    pub fn distinct_for_reducer(&self, r: usize) -> usize {
        self.expected[r].len()
    }

    /// Mean mapper multiplicity actually realized.
    pub fn realized_multiplicity(&self) -> f64 {
        self.total_records() as f64 / self.truth.len() as f64
    }

    /// The reference result for reducer `r`, sorted by word — what a
    /// correct shuffle+reduce must produce. Precomputed at generation.
    pub fn expected_reduction(&self, r: usize) -> &[(String, u32)] {
        &self.expected[r]
    }
}

fn sample_multiplicity(rng: &mut SmallRng, spec: &CorpusSpec) -> usize {
    // Approximate normal via the sum of three uniforms (Irwin–Hall),
    // cheap and deterministic; clamp to the legal range.
    let u: f64 = (rng.random::<f64>() + rng.random::<f64>() + rng.random::<f64>() - 1.5) * 2.0;
    let x = spec.mean_multiplicity + u * spec.sd_multiplicity;
    (x.round() as i64).clamp(1, spec.n_mappers as i64) as usize
}

fn sample_mappers(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    // Partial Fisher-Yates for a k-subset.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k.min(n) {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word a pair's key holds (padding trimmed).
    fn word(pair: &Pair) -> &str {
        std::str::from_utf8(pair.key.trimmed()).expect("corpus words are ASCII")
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&CorpusSpec::tiny(5));
        let b = Corpus::generate(&CorpusSpec::tiny(5));
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.partitions, b.partitions);
        let c = Corpus::generate(&CorpusSpec::tiny(6));
        assert_ne!(a.truth, c.truth);
        assert_ne!(a.partitions, c.partitions);
    }

    #[test]
    fn truth_matches_partitions() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(1));
        let mut sums: FnvHashMap<String, u32> = FnvHashMap::default();
        for pair in corpus.partitions.iter().flatten().flat_map(|pairs| pairs.iter()) {
            *sums.entry(word(pair).to_owned()).or_insert(0) += pair.value;
        }
        assert_eq!(sums, corpus.truth);
        assert_eq!(corpus.truth.len(), 60);
    }

    #[test]
    fn words_go_to_their_partition() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(2));
        for mapper in &corpus.partitions {
            for (r, pairs) in mapper.iter().enumerate() {
                for pair in pairs.iter() {
                    assert_eq!(partition(word(pair), corpus.spec.n_reducers), r);
                }
            }
        }
    }

    #[test]
    fn collision_freedom_holds_per_reducer() {
        let spec = CorpusSpec { register_cells: 128, ..CorpusSpec::tiny(3) };
        let corpus = Corpus::generate(&spec);
        for r in 0..spec.n_reducers {
            let mut cells = FnvHashSet::default();
            for w in corpus.truth.keys().filter(|w| partition(w, spec.n_reducers) == r) {
                let key = Key::from_str_key(w).unwrap();
                let cell = crc32(&key.0) % spec.register_cells as u32;
                assert!(cells.insert(cell), "collision on {w} in reducer {r}");
            }
        }
    }

    #[test]
    fn multiplicity_lands_near_target() {
        let spec = CorpusSpec {
            distinct_words: 2000,
            ..CorpusSpec::paper_scaled(2000, 4)
        };
        let corpus = Corpus::generate(&spec);
        let m = corpus.realized_multiplicity();
        assert!((10.0..12.0).contains(&m), "multiplicity {m}");
    }

    #[test]
    fn word_lengths_respect_bounds() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(7));
        for w in corpus.truth.keys() {
            assert!(w.len() >= 3 && w.len() <= 10, "{w}");
        }
    }

    #[test]
    fn expected_reduction_is_sorted_and_partitioned() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(8));
        let total: usize = (0..2).map(|r| corpus.expected_reduction(r).len()).sum();
        assert_eq!(total, corpus.truth.len());
        let red = corpus.expected_reduction(0);
        assert!(red.windows(2).all(|w| w[0].0 < w[1].0));
        for r in 0..2 {
            let rehashed = corpus.truth.keys().filter(|w| partition(w, 2) == r).count();
            assert_eq!(corpus.distinct_for_reducer(r), rehashed);
        }
    }
}
