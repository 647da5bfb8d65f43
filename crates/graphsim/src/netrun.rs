//! Pregel messages on the wire: the vertex keys a superstep's messages
//! travel under, and the all-integer PageRank whose combiner a DAIET
//! switch executes exactly. The job that carries one superstep per DAIET
//! round is [`crate::tenant::PregelTenant`].
//!
//! [`FixedPageRank`] keeps ranks in 16-bit fixed point, SUM-combined
//! (wrapping `u32` addition is exact two's-complement addition, and it is
//! what [`AggFn::Sum`] runs on the switch). [`crate::algos::Wcc`]'s MIN
//! combiner rides the same path unchanged via [`AggFn::Min`].
//!
//! [`AggFn::Sum`]: daiet::agg::AggFn::Sum
//! [`AggFn::Min`]: daiet::agg::AggFn::Min

use crate::graph::Graph;
use crate::pregel::VertexProgram;
use daiet_wire::daiet::Key;

/// Fractional bits of [`FixedPageRank`]'s rank encoding.
pub const RANK_FRAC_BITS: u32 = 16;
const SCALE: u64 = 1 << RANK_FRAC_BITS;

/// PageRank in pure integer arithmetic: ranks are 16-bit fixed point,
/// messages are rank shares, the combiner is wrapping addition — exactly
/// the [`AggFn::Sum`] a DAIET switch executes, so in-network combining is
/// bit-exact rather than merely approximate. Semantics mirror
/// [`crate::algos::PageRank`] (damping, share-per-out-edge, all vertices
/// active every iteration); only the number representation differs.
///
/// [`AggFn::Sum`]: daiet::agg::AggFn::Sum
pub struct FixedPageRank {
    /// Damping factor in permille (850 = the classic 0.85).
    pub damping_permille: u64,
}

impl Default for FixedPageRank {
    fn default() -> Self {
        FixedPageRank { damping_permille: 850 }
    }
}

impl VertexProgram for FixedPageRank {
    type State = u32;
    type Msg = u32;

    fn combine(&self, a: u32, b: u32) -> u32 {
        a.wrapping_add(b)
    }

    fn init(&self, _v: u32, graph: &Graph) -> u32 {
        (SCALE / graph.vertices() as u64) as u32
    }

    fn first_messages(&self, v: u32, state: &u32, graph: &Graph) -> Vec<(u32, u32)> {
        let deg = graph.out_degree(v);
        if deg == 0 {
            return vec![];
        }
        let share = state / deg as u32;
        graph.out(v).iter().map(|&t| (t, share)).collect()
    }

    fn step(&self, v: u32, state: &mut u32, inbox: u32, graph: &Graph) -> Vec<(u32, u32)> {
        let n = graph.vertices() as u64;
        let dp = self.damping_permille;
        let base = ((1000 - dp) * SCALE / (1000 * n)) as u32;
        let damped = (dp * u64::from(inbox) / 1000) as u32;
        *state = base.wrapping_add(damped);
        let deg = graph.out_degree(v);
        if deg == 0 {
            return vec![];
        }
        let share = *state / deg as u32;
        graph.out(v).iter().map(|&t| (t, share)).collect()
    }
}

/// Wire key of a destination vertex: id in bytes 0–3 (big-endian).
pub fn vertex_key(v: u32) -> Key {
    let mut k = [0u8; 16];
    k[0..4].copy_from_slice(&v.to_be_bytes());
    Key(k)
}

/// Inverse of [`vertex_key`].
pub fn vertex_key_decode(key: &Key) -> u32 {
    let k = &key.0;
    u32::from_be_bytes([k[0], k[1], k[2], k[3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::PageRank;
    use daiet::agg::AggFn;
    use crate::generate::{fan, rmat, RmatSpec};
    use crate::pregel::run;

    #[test]
    fn vertex_key_round_trips() {
        for v in [0u32, 1, 255, 1 << 20, u32::MAX] {
            assert_eq!(vertex_key_decode(&vertex_key(v)), v);
        }
    }

    /// The fixed-point program must generate the exact message
    /// *structure* of the float one — the census depends only on the
    /// graph, so Figure 1(c)'s reduction series is unchanged.
    #[test]
    fn fixed_pagerank_census_matches_float_pagerank() {
        let g = rmat(&RmatSpec::livejournal_like(7, 11));
        let (_, float_census) = run(&PageRank::default(), &g, 6);
        let (_, fixed_census) = run(&FixedPageRank::default(), &g, 6);
        assert_eq!(float_census, fixed_census);
    }

    /// Integer PageRank still ranks like PageRank: the hub of a star
    /// outranks its leaves, and total rank is conserved up to integer
    /// truncation.
    #[test]
    fn fixed_pagerank_ranks_hubs() {
        let mut edges = vec![];
        for v in 1..=5u32 {
            edges.push((v, 0));
            edges.push((0, v));
        }
        let g = Graph::from_edges(6, &edges);
        let (ranks, _) = run(&FixedPageRank::default(), &g, 30);
        for leaf in 1..6 {
            assert!(ranks[0] > ranks[leaf], "hub must outrank leaf {leaf}: {ranks:?}");
        }
        let total: u64 = ranks.iter().map(|&r| u64::from(r)).sum();
        // Truncation only ever loses rank, never creates it.
        assert!(total <= SCALE, "rank overflow: {total}");
        assert!(total > SCALE * 9 / 10, "too much truncation loss: {total}");
    }

    /// Messages sum in fixed point exactly: a fan of sources sharing one
    /// sink delivers the wrapping-add of all shares.
    #[test]
    fn fixed_combiner_is_wrapping_sum() {
        let g = fan(10, 1);
        let p = FixedPageRank::default();
        let (_, census) = run(&p, &g, 2);
        assert_eq!(census[0].produced, 10);
        assert_eq!(census[0].distinct_destinations, 1);
        // And the combiner itself is AggFn::Sum on the nose.
        assert_eq!(p.combine(3_000_000_000, 2_000_000_000),
                   AggFn::Sum.apply(3_000_000_000, 2_000_000_000));
    }
}
