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
//! slot. Each try draws a word into a stack key and tests one bit of its
//! reducer's cell bitmap; only an accepted word becomes a `String`. A
//! repeated word needs no set of its own: its first draw took its cell,
//! so the cell check rejects the repeat.
//!
//! The output is emitted as dictionary codes that decode to §4's
//! fixed-size pairs — the padded key hashed for that check, plus the
//! count — see [`Corpus`]. The reference each reducer is checked against
//! holds the same padded key, as a [`Word`], so no word is ever held as a
//! `String`.

use daiet::worker::CodedPairs;
use daiet_wire::checksum::crc32;
use daiet_wire::daiet::{Key, KEY_LEN};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::Deref;
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

/// A corpus word, held as the zero-padded [`Key`] the shuffle carries: 16
/// bytes inline, no heap `String`. Zero-padded keys order like the words
/// they hold, so a sorted list of `Word`s is sorted by word. It reads as
/// the word itself through `Deref<Target = str>`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word(Key);

impl Word {
    /// The word as the shuffle carries it.
    pub fn key(&self) -> Key {
        self.0
    }
}

impl Deref for Word {
    type Target = str;

    fn deref(&self) -> &str {
        std::str::from_utf8(self.0.trimmed()).expect("corpus words are ASCII")
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
/// The map output is §4's fixed-size file, held as one 4-byte code per
/// record ([`CodedPairs`]): each partition is an immutable buffer of
/// codes written once here, into its reducer's dictionary of words (in
/// generation order, shared by all of that reducer's partitions). A
/// partition's codes index the dictionary in increasing order. The corpus
/// owns the codes; senders hold a handle to the same buffer, slice it by
/// offset and decode each frame's pairs as they build it (`Arc`, because
/// the loopback backend runs them on driver threads), so a job neither
/// converts nor copies them, and cloning a corpus shares them.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The specification that produced this corpus.
    pub spec: CorpusSpec,
    /// `partitions[mapper][reducer]` = that mapper's records bound for
    /// that reducer: the word as a zero-padded key, and its partial count.
    pub partitions: Vec<Vec<Arc<CodedPairs>>>,
    /// Ground truth: each reducer's words and final counts, sorted by word
    /// once at generation (the correctness check runs after every shuffle).
    expected: Vec<Vec<(Word, u32)>>,
}

impl Corpus {
    /// Generates a corpus from `spec`. Panics if `spec` cannot be met,
    /// e.g. asks for more words than the reducers' cells can hold apart.
    pub fn generate(spec: &CorpusSpec) -> Corpus {
        assert!(spec.max_len <= KEY_LEN, "words must fit DAIET keys");
        assert!(spec.min_len >= 1 && spec.min_len <= spec.max_len);
        assert!(spec.n_mappers >= 1 && spec.n_reducers >= 1);
        let (n, cells) = (spec.distinct_words, spec.n_reducers.saturating_mul(spec.register_cells));
        assert!(n <= cells, "{n} words exceed the capacity of the reducers' cells: {cells}");
        let space = (spec.min_len..=spec.max_len)
            .fold(0usize, |sum, len| sum.saturating_add(26usize.saturating_pow(len as u32)));
        assert!(n <= space, "{n} words exceed the capacity of their lengths: {space}");
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        // 1. Dictionary: unique words, collision-free per reducer.
        let mut words: Vec<(Key, usize)> = Vec::with_capacity(n);
        let mut taken = vec![0u64; cells.div_ceil(64)]; // bit `r * register_cells + cell`
        while words.len() < n {
            let len = rng.random_range(spec.min_len..=spec.max_len);
            let mut k = [0u8; KEY_LEN];
            for b in &mut k[..len] {
                *b = b'a' + rng.random_range(0..26u8);
            }
            // The reducer is `partition(word)`; the switch hashes the padded key.
            let r = crc32(&k[..len]) as usize % spec.n_reducers;
            let bit = r * spec.register_cells + (crc32(&k) % spec.register_cells as u32) as usize;
            if taken[bit / 64] & (1 << (bit % 64)) != 0 {
                continue; // would collide in-switch, or repeats a word: reject
            }
            taken[bit / 64] |= 1 << (bit % 64);
            words.push((Key(k), r));
        }

        // Each reducer's dictionary: its words in generation order, and
        // each word's index in it.
        let mut dictionaries: Vec<Vec<Key>> = vec![Vec::new(); spec.n_reducers];
        let index: Vec<usize> = words
            .iter()
            .map(|&(key, r)| {
                dictionaries[r].push(key);
                dictionaries[r].len() - 1
            })
            .collect();

        // 2. Spread each word over a sampled set of mappers, twice from the
        // same RNG state: once to size every partition and sum every word,
        // then to fill each partition at its exact size. Partitions grown
        // by doubling leave their outgrown buffers behind as freed heap
        // the process keeps resident.
        let mut sizes = vec![vec![0usize; spec.n_reducers]; spec.n_mappers];
        let mut totals = vec![0u32; words.len()];
        spread(&mut rng.clone(), spec, &words, |w, m, r, count| {
            sizes[m][r] += 1;
            totals[w] += count;
        });
        let mut codes: Vec<Vec<Vec<u32>>> = sizes
            .iter()
            .map(|per_reducer| per_reducer.iter().map(|&n| Vec::with_capacity(n)).collect())
            .collect();
        // A count is drawn from 1..=9 and an index is below the reducer's
        // cells: both fit a code, which `CodedPairs::code` asserts.
        spread(&mut rng, spec, &words, |w, m, r, count| {
            codes[m][r].push(CodedPairs::code(index[w], count));
        });
        let mut expected: Vec<Vec<(Word, u32)>> = vec![Vec::new(); spec.n_reducers];
        for (&(key, r), &total) in words.iter().zip(&totals) {
            expected[r].push((Word(key), total));
        }
        expected.iter_mut().for_each(|e| e.sort_unstable()); // the words are unique

        let dictionaries: Vec<Arc<[Key]>> = dictionaries.into_iter().map(Arc::from).collect();
        let partitions = codes
            .into_iter()
            .map(|per_reducer| {
                per_reducer
                    .into_iter()
                    .zip(&dictionaries)
                    .map(|(codes, keys)| Arc::new(CodedPairs { keys: Arc::clone(keys), codes }))
                    .collect()
            })
            .collect();
        Corpus { spec: *spec, partitions, expected }
    }

    /// Total shuffle records (pre-aggregation).
    pub fn total_records(&self) -> usize {
        self.partitions.iter().flatten().map(|coded| coded.len()).sum()
    }

    /// Mean mapper multiplicity actually realized.
    pub fn realized_multiplicity(&self) -> f64 {
        self.total_records() as f64 / self.expected.iter().map(Vec::len).sum::<usize>() as f64
    }

    /// The reference result for reducer `r`, sorted by word — what a
    /// correct shuffle+reduce must produce. Precomputed at generation.
    pub fn expected_reduction(&self, r: usize) -> &[(Word, u32)] {
        &self.expected[r]
    }
}

/// Draws each word's mappers — a partial Fisher-Yates over the mapper
/// indices for a sampled multiplicity — and each mapper's partial count,
/// calling `visit(word, mapper, reducer, count)` in draw order.
fn spread(
    rng: &mut SmallRng,
    spec: &CorpusSpec,
    words: &[(Key, usize)],
    mut visit: impl FnMut(usize, usize, usize, u32),
) {
    let mut mappers: Vec<usize> = (0..spec.n_mappers).collect();
    for (w, &(_, r)) in words.iter().enumerate() {
        let k = sample_multiplicity(rng, spec);
        mappers.iter_mut().enumerate().for_each(|(i, m)| *m = i);
        for i in 0..k {
            mappers.swap(i, rng.random_range(i..spec.n_mappers));
        }
        for &m in &mappers[..k] {
            visit(w, m, r, rng.random_range(1..=9u32));
        }
    }
}

fn sample_multiplicity(rng: &mut SmallRng, spec: &CorpusSpec) -> usize {
    // Approximate normal via the sum of three uniforms (Irwin–Hall),
    // cheap and deterministic; clamp to the legal range.
    let u: f64 = (rng.random::<f64>() + rng.random::<f64>() + rng.random::<f64>() - 1.5) * 2.0;
    let x = spec.mean_multiplicity + u * spec.sd_multiplicity;
    (x.round() as i64).clamp(1, spec.n_mappers as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_wire::daiet::Pair;
    use daiet_wire::fnv::FnvHashMap;

    /// The word a pair's key holds (padding trimmed).
    fn word(pair: &Pair) -> &str {
        std::str::from_utf8(pair.key.trimmed()).expect("corpus words are ASCII")
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&CorpusSpec::tiny(5));
        let b = Corpus::generate(&CorpusSpec::tiny(5));
        let c = Corpus::generate(&CorpusSpec::tiny(6));
        for r in 0..a.spec.n_reducers {
            assert_eq!(a.expected_reduction(r), b.expected_reduction(r));
            assert_ne!(a.expected_reduction(r), c.expected_reduction(r));
        }
        assert_eq!(a.partitions, b.partitions);
        assert_ne!(a.partitions, c.partitions);
    }

    #[test]
    fn truth_matches_partitions() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(1));
        let mut sums: FnvHashMap<Key, u32> = FnvHashMap::default();
        for pair in corpus.partitions.iter().flatten().flat_map(|pairs| pairs.iter()) {
            *sums.entry(pair.key).or_insert(0) += pair.value;
        }
        let union: FnvHashMap<Key, u32> = (0..2)
            .flat_map(|r| corpus.expected_reduction(r))
            .map(|(w, n)| (w.key(), *n))
            .collect();
        assert_eq!(sums, union);
        assert_eq!(union.len(), 60);
    }

    #[test]
    fn words_go_to_their_partition() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(2));
        for mapper in &corpus.partitions {
            for (r, pairs) in mapper.iter().enumerate() {
                for pair in pairs.iter() {
                    assert_eq!(partition(word(&pair), corpus.spec.n_reducers), r);
                }
            }
        }
    }

    #[test]
    fn collision_freedom_holds_per_reducer() {
        let spec = CorpusSpec { register_cells: 128, ..CorpusSpec::tiny(3) };
        let corpus = Corpus::generate(&spec);
        for r in 0..spec.n_reducers {
            let mut taken = vec![false; spec.register_cells];
            for (w, _) in corpus.expected_reduction(r) {
                let cell = crc32(&w.key().0) as usize % spec.register_cells;
                let collides = std::mem::replace(&mut taken[cell], true);
                assert!(!collides, "collision on {w} in reducer {r}");
            }
        }
    }

    /// The map output costs 4 bytes a record plus one 16-byte key per
    /// word: the codes' capacity is exactly the records, each reducer
    /// holds one dictionary of exactly its words, shared by all its
    /// partitions, and each partition reads that dictionary forward.
    #[test]
    fn map_output_is_one_code_per_record_over_one_dictionary_per_reducer() {
        let spec = CorpusSpec { register_cells: 256, ..CorpusSpec::paper_scaled(1200, 11) };
        let corpus = Corpus::generate(&spec);
        let capacity: usize = corpus.partitions.iter().flatten().map(|c| c.codes.capacity()).sum();
        assert_eq!(capacity, corpus.total_records());
        for r in 0..spec.n_reducers {
            let keys = &corpus.partitions[0][r].keys;
            assert_eq!(keys.len(), corpus.expected_reduction(r).len(), "reducer {r}");
            for mapper in &corpus.partitions {
                assert!(Arc::ptr_eq(&mapper[r].keys, keys), "reducer {r} holds two dictionaries");
                let index = |code: &u32| code >> CodedPairs::VALUE_BITS;
                assert!(mapper[r].codes.windows(2).all(|w| index(&w[0]) < index(&w[1])));
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
        for (w, _) in (0..2).flat_map(|r| corpus.expected_reduction(r)) {
            assert!(w.len() >= 3 && w.len() <= 10, "{w}");
        }
    }

    #[test]
    fn expected_reduction_is_sorted_and_partitioned() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(8));
        let mut total = 0;
        for r in 0..2 {
            let list = corpus.expected_reduction(r);
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "reducer {r} unsorted");
            assert!(list.iter().all(|(w, _)| partition(w, 2) == r), "reducer {r}");
            total += list.len();
        }
        assert_eq!(total, corpus.spec.distinct_words);
    }

    /// A `Word` reads, prints and orders as the word it pads.
    #[test]
    fn a_word_reads_as_its_string() {
        let corpus = Corpus::generate(&CorpusSpec::tiny(9));
        let list = corpus.expected_reduction(0);
        for (w, _) in list {
            assert_eq!(Key::from_str_key(w).unwrap(), w.key());
            assert_eq!(w.to_string(), &**w);
            assert_eq!(format!("{w:?}"), format!("{:?}", w.to_string()));
        }
        let mut by_string: Vec<String> = list.iter().map(|(w, _)| w.to_string()).collect();
        by_string.sort_unstable();
        assert!(by_string.iter().map(String::as_str).eq(list.iter().map(|(w, _)| &**w)));
        // A word sorts before the words it prefixes: padding is zero.
        let word = |w: &str| Word(Key::from_str_key(w).unwrap());
        assert!(word("ab") < word("abc") && word("abc") < word("abd"));
    }

    #[test]
    #[should_panic(expected = "capacity of the reducers' cells: 128")]
    fn more_words_than_cells_is_refused() {
        let spec = CorpusSpec { distinct_words: 129, register_cells: 64, ..CorpusSpec::tiny(1) };
        Corpus::generate(&spec);
    }

    #[test]
    #[should_panic(expected = "capacity of their lengths: 26")]
    fn more_words_than_the_word_space_is_refused() {
        let spec = CorpusSpec { distinct_words: 27, min_len: 1, max_len: 1, ..CorpusSpec::tiny(1) };
        Corpus::generate(&spec);
    }
}
