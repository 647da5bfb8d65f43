//! Pregel as a multi-tenant job: the [`daiet::tenant::TenantWorkload`]
//! adapter over a [`VertexProgram`] whose messages are `u32` lanes.
//!
//! Each superstep's message exchange is one DAIET round, the switches
//! running the program's combiner in-network (§3: "combining all the
//! messages sent to the same destination into a single message by
//! applying the aggregation function used by the algorithm … inside the
//! network"). A round runs the analytic engine's own `superstep`, vertex
//! `v` shipping from worker `v % workers`, and the collector returns the
//! combined inbox. So when the program's `combine` is the wire [`AggFn`],
//! the final states and per-superstep [`MessageCensus`] are bit-identical
//! to [`crate::pregel::run`]'s.

use crate::graph::Graph;
use crate::netrun::{vertex_key, vertex_key_decode};
use crate::pregel::{superstep, MessageCensus, VertexProgram};
use daiet::agg::AggFn;
use daiet::tenant::{fold_round_digest, TenantWorkload, DIGEST_SEED};
use daiet_wire::daiet::{Key, Pair};

/// A Pregel job runnable under the multi-tenant scheduler: one round per
/// superstep, superstep 0 being the initial broadcast.
pub struct PregelTenant<P: VertexProgram<Msg = u32>> {
    program: P,
    graph: Graph,
    workers: usize,
    agg: AggFn,
    max_supersteps: u64,
    states: Vec<P::State>,
    /// The combined messages the last absorbed round delivered.
    inbox: Vec<Option<u32>>,
    census: Vec<MessageCensus>,
    /// The census of the round in flight, completed when it is absorbed.
    open: MessageCensus,
    /// The first key outside the graph any round delivered, as
    /// `(superstep, vertex)`; the key is skipped.
    foreign: Option<(u64, u32)>,
    wire_digest: u64,
}

impl<P: VertexProgram<Msg = u32>> PregelTenant<P> {
    /// `program` over `graph` for up to `max_supersteps` supersteps after
    /// the initial broadcast, on `workers` senders, combined in the
    /// network with `agg` (which must equal the program's `combine`: SUM
    /// for [`crate::netrun::FixedPageRank`], MIN for
    /// [`crate::algos::Wcc`]).
    pub fn new(
        program: P,
        graph: Graph,
        workers: usize,
        agg: AggFn,
        max_supersteps: u64,
    ) -> PregelTenant<P> {
        let n = graph.vertices();
        PregelTenant {
            states: (0..n as u32).map(|v| program.init(v, &graph)).collect(),
            inbox: vec![None; n],
            program,
            graph,
            workers,
            agg,
            max_supersteps,
            census: Vec::new(),
            open: MessageCensus::default(),
            foreign: None,
            wire_digest: DIGEST_SEED,
        }
    }

    /// Vertex states after the supersteps absorbed so far.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// One census entry per absorbed superstep, comparable entry for
    /// entry with [`crate::pregel::run`]'s.
    pub fn census(&self) -> &[MessageCensus] {
        &self.census
    }
}

impl<P: VertexProgram<Msg = u32>> TenantWorkload for PregelTenant<P> {
    fn label(&self) -> String {
        format!("pregel[{}wx{}v]", self.workers, self.graph.vertices())
    }

    fn senders(&self) -> usize {
        self.workers
    }

    fn aggs(&self) -> Vec<AggFn> {
        vec![self.agg]
    }

    /// The most supersteps the job may run, until one sends or delivers
    /// no message (where [`crate::pregel::run`] stops too); the
    /// supersteps it ran from then on.
    fn rounds(&self) -> u64 {
        match self.census.last() {
            Some(c) if c.is_quiet() => self.census.len() as u64,
            _ => self.max_supersteps + 1,
        }
    }

    fn shards(&mut self, round: u64) -> Vec<Vec<Vec<Pair>>> {
        let workers = self.workers;
        let mut shards = vec![vec![Vec::new()]; workers];
        let (states, inbox) = (&mut self.states, &mut self.inbox);
        self.open = superstep(&self.program, &self.graph, round, states, inbox, |v, dst, msg| {
            shards[v as usize % workers][0].push(Pair::new(vertex_key(dst), msg));
        });
        shards
    }

    fn absorb(&mut self, round: u64, per_tree: Vec<Vec<(Key, u32)>>) {
        self.wire_digest = fold_round_digest(self.wire_digest, &per_tree);
        for (key, msg) in per_tree.first().map_or(&[][..], Vec::as_slice) {
            let v = vertex_key_decode(key);
            match self.inbox.get_mut(v as usize) {
                Some(slot) => *slot = Some(*msg),
                None => {
                    self.foreign.get_or_insert((round, v));
                }
            }
        }
        let mut c = std::mem::take(&mut self.open);
        c.distinct_destinations = self.inbox.iter().filter(|m| m.is_some()).count() as u64;
        self.census.push(c);
    }

    fn digest(&self) -> u64 {
        self.wire_digest
    }

    fn verify(&self) -> Result<(), String> {
        match self.foreign {
            Some((round, v)) => Err(format!(
                "pregel superstep {round}: foreign key for vertex {v} outside the graph's {} \
                 vertices",
                self.graph.vertices()
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::path;
    use crate::netrun::FixedPageRank;

    /// A key past the graph's last vertex is skipped and reported, not
    /// indexed: PageRank on the path 0 → 1 → 2 → 3 after its broadcast.
    #[test]
    fn a_foreign_vertex_key_fails_verification_instead_of_panicking() {
        let mut t = PregelTenant::new(FixedPageRank::default(), path(4), 2, AggFn::Sum, 3);
        assert_eq!(t.shards(0).iter().map(|s| s[0].len()).collect::<Vec<_>>(), [2, 1]);
        t.absorb(0, vec![vec![(vertex_key(1), 7), (vertex_key(4), 9)]]);
        assert_eq!(t.census()[0].distinct_destinations, 1, "the foreign key was skipped");
        let err = t.verify().unwrap_err();
        assert!(err.contains("superstep 0") && err.contains("vertex 4"), "{err}");
    }
}
