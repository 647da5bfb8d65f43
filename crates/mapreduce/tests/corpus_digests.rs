//! Golden digests of the corpora the tests, the figures and the tracked
//! benchmark generate. `Corpus::generate` must draw the same words and
//! counts, from the same RNG draws in the same order, for as long as these
//! values stand: a change that moves one draw, one word or one count fails
//! here.

use core::hash::Hasher;
use daiet_mapreduce::{Corpus, CorpusSpec};
use daiet_wire::fnv::FnvHasher;

/// FNV-1a over every pair of every partition (a `0xff` after each
/// partition), then every reducer's reference list.
fn digest(corpus: &Corpus) -> u64 {
    let mut h = FnvHasher::default();
    for pairs in corpus.partitions.iter().flatten() {
        for pair in pairs.iter() {
            h.write(&pair.key.0);
            h.write(&pair.value.to_le_bytes());
        }
        h.write(&[0xff]);
    }
    for (w, n) in (0..corpus.spec.n_reducers).flat_map(|r| corpus.expected_reduction(r)) {
        h.write(w.as_bytes());
        h.write(&[0]);
        h.write(&n.to_le_bytes());
    }
    h.finish()
}

/// `tiny(5)`, fig3's default scale, the loopback workload's dictionary
/// (one mapper, one reducer, each word once), the chaos workload's
/// quarter scale and paper scale.
#[test]
fn corpora_match_their_golden_digests() {
    let at = |words: usize, cells: usize| CorpusSpec {
        register_cells: cells,
        ..CorpusSpec::paper_scaled(words, 42)
    };
    let udp_dictionary = CorpusSpec {
        n_mappers: 1,
        n_reducers: 1,
        mean_multiplicity: 1.0,
        sd_multiplicity: 0.0,
        ..at(512, 4096)
    };
    let cases = [
        (CorpusSpec::tiny(5), 155, 0xf144_64d6_8878_bcde),
        (at(2048 * 12, 2048), 258_172, 0x2f6b_8b06_418e_95c6),
        (udp_dictionary, 512, 0x6554_36e3_21f5_325c),
        (at(4096 * 12, 4096), 516_027, 0xa524_dc6c_9253_c1b4),
        (at(16384 * 12, 16384), 2_064_325, 0x876d_1cd7_b793_c619),
    ];
    for (spec, records, want) in cases {
        let corpus = Corpus::generate(&spec);
        assert_eq!(corpus.total_records(), records, "{spec:?}");
        let words: usize = (0..spec.n_reducers).map(|r| corpus.expected_reduction(r).len()).sum();
        assert_eq!(words, spec.distinct_words, "{spec:?}");
        assert_eq!(digest(&corpus), want, "{spec:?}: {:#018x}", digest(&corpus));
    }
}
