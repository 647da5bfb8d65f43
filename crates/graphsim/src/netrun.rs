//! Pregel supersteps driven **through the real dataplane**: every
//! superstep's message exchange becomes one DAIET round over a long-lived
//! leaf-spine simulation, with the switches running the algorithm's
//! combiner in-network (§3: "combining all the messages sent to the same
//! destination into a single message by applying the aggregation function
//! used by the algorithm … inside the network").
//!
//! The driver ([`run_packet`]) mirrors [`crate::pregel::run`]'s loop
//! statement for statement — vertex partitioning across workers, one
//! shard of `(dst, msg)` pairs per worker per superstep, the aggregated
//! inbox read back from the collector — so for any
//! [`VertexProgram`] whose `combine` equals a wire [`AggFn`] over `u32`
//! lanes, the packet run's final states **and** per-superstep
//! [`MessageCensus`] are bit-identical to the analytic engine's. That is
//! what `tests/iterative_recovery.rs` pins, loss-free and under
//! every-link chaos at k = 1.
//!
//! [`FixedPageRank`] is the all-integer PageRank this enables: ranks in
//! 16-bit fixed point, SUM-combined (wrapping `u32` addition is exact
//! two's-complement addition, and it is what [`AggFn::Sum`] runs on the
//! switch). [`crate::algos::Wcc`]'s MIN combiner rides the same driver
//! unchanged via [`AggFn::Min`].

// lint:allow-file(layer-netsim): network-mode PageRank harness — drives a
// one-job JobScheduler under the Simulator. The rank-update aggregation
// protocol itself stays fabric-only.
use crate::graph::Graph;
use crate::pregel::{MessageCensus, VertexProgram};
use daiet::agg::AggFn;
use daiet::tenant::{JobId, JobRequest, JobScheduler, TenantSpec};
use daiet::worker::ReducerHost;
use daiet::DaietConfig;
use daiet_netsim::topology::TopologyPlan;
use daiet_netsim::{FaultProfile, LinkSpec, SimDuration};
use daiet_wire::daiet::{Key, Pair};

/// Fractional bits of [`FixedPageRank`]'s rank encoding.
pub const RANK_FRAC_BITS: u32 = 16;
const SCALE: u64 = 1 << RANK_FRAC_BITS;

/// PageRank in pure integer arithmetic: ranks are 16-bit fixed point,
/// messages are rank shares, the combiner is wrapping addition — exactly
/// the [`AggFn::Sum`] a DAIET switch executes, so in-network combining is
/// bit-exact rather than merely approximate. Semantics mirror
/// [`crate::algos::PageRank`] (damping, share-per-out-edge, all vertices
/// active every iteration); only the number representation differs.
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

/// Network configuration of one packet-level Pregel run.
#[derive(Debug, Clone)]
pub struct PacketPregelSpec {
    /// Graph workers (vertex `v` lives on worker `v % workers`).
    pub workers: usize,
    /// The wire aggregation function — must equal the program's
    /// `combine` on `u32` lanes (SUM for [`FixedPageRank`], MIN for
    /// [`crate::algos::Wcc`]).
    pub agg: AggFn,
    /// Fault profile applied to **every** link.
    pub faults: FaultProfile,
    /// Arm NACK recovery. Off is the paper-faithful prototype.
    pub recovery: bool,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for PacketPregelSpec {
    fn default() -> Self {
        PacketPregelSpec {
            workers: 4,
            agg: AggFn::Sum,
            faults: FaultProfile::NONE,
            recovery: true,
            seed: 13,
        }
    }
}

/// What a packet-level Pregel run produced.
#[derive(Debug)]
pub struct PacketPregelOutcome<S> {
    /// Final vertex states.
    pub states: Vec<S>,
    /// Per-superstep census — comparable entry-for-entry with
    /// [`crate::pregel::run`]'s.
    pub census: Vec<MessageCensus>,
    /// Network rounds driven (= census entries).
    pub rounds: u64,
    /// Frames dropped by fault injection over the whole run.
    pub fault_drops: u64,
    /// NACK frames the inbox collector emitted (0 without recovery).
    pub nacks_emitted: u64,
}

/// Ships one superstep's sharded messages as a DAIET round and reads the
/// combined inbox back. Messages with equal destinations merge in the
/// network (and any stragglers at the collector) under `spec.agg`.
fn ship_round(
    sched: &mut JobScheduler,
    job: JobId,
    shards: Vec<Vec<(u32, u32)>>,
    n: usize,
) -> Result<Vec<Option<u32>>, String> {
    let shard_pairs: Vec<Vec<Vec<Pair>>> = shards
        .into_iter()
        .map(|msgs| {
            vec![msgs
                .into_iter()
                .map(|(dst, val)| Pair::new(vertex_key(dst), val))
                .collect()]
        })
        .collect();
    let per_tree = sched.run_round(job, &shard_pairs)?;
    let mut inbox: Vec<Option<u32>> = vec![None; n];
    for (k, v) in &per_tree[0] {
        inbox[vertex_key_decode(k) as usize] = Some(*v);
    }
    Ok(inbox)
}

/// Runs `program` for up to `max_supersteps` with every message exchange
/// carried by the dataplane — the packet-level counterpart of
/// [`crate::pregel::run`], returning bit-comparable states and census.
/// Errors if any round cannot be completed exactly (loss beyond the NACK
/// budget).
pub fn run_packet<P: VertexProgram<Msg = u32>>(
    program: &P,
    graph: &Graph,
    max_supersteps: usize,
    spec: &PacketPregelSpec,
) -> Result<PacketPregelOutcome<P::State>, String> {
    let n = graph.vertices();
    let workers = spec.workers.max(1);
    let hosts_per_leaf = 3;
    let leaves = (workers + 1).div_ceil(hosts_per_leaf);
    let link = LinkSpec::fast()
        .with_queue_bytes(4 * 1024 * 1024)
        .with_faults(spec.faults);
    let plan = TopologyPlan::leaf_spine(hosts_per_leaf, leaves.max(2), 2, link);
    let config = DaietConfig {
        register_cells: 8192,
        nack_recovery: spec.recovery,
        ..DaietConfig::default()
    }
    .with_rtx_sized_for_flush();
    let mut tspec = TenantSpec::new(config, plan, (0..workers).collect(), vec![workers]);
    tspec.seed = spec.seed;
    tspec.pacing = SimDuration::from_micros(1);
    let mut sched = JobScheduler::build(tspec).map_err(|e| e.to_string())?;
    let request = JobRequest { label: "pregel".into(), senders: workers, aggs: vec![spec.agg] };
    let job = sched.admit(request).map_err(|e| e.to_string())?;

    let mut states: Vec<P::State> =
        (0..n as u32).map(|v| program.init(v, graph)).collect();
    let mut census: Vec<MessageCensus> = Vec::new();

    // Superstep 0: the initial broadcast, sharded by vertex owner.
    let mut shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); workers];
    let mut c = MessageCensus::default();
    for v in 0..n as u32 {
        let out = program.first_messages(v, &states[v as usize], graph);
        if !out.is_empty() {
            c.active_vertices += 1;
        }
        for (dst, msg) in out {
            c.produced += 1;
            shards[v as usize % workers].push((dst, msg));
        }
    }
    let mut inbox = ship_round(&mut sched, job, shards, n)?;
    c.distinct_destinations = inbox.iter().filter(|m| m.is_some()).count() as u64;
    census.push(c);

    for _ in 1..=max_supersteps {
        let mut shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); workers];
        let mut c = MessageCensus::default();
        let mut any = false;
        for v in 0..n as u32 {
            if let Some(msg) = inbox[v as usize].take() {
                any = true;
                c.active_vertices += 1;
                for (dst, out) in program.step(v, &mut states[v as usize], msg, graph) {
                    c.produced += 1;
                    shards[v as usize % workers].push((dst, out));
                }
            }
        }
        if !any {
            break;
        }
        let next = ship_round(&mut sched, job, shards, n)?;
        c.distinct_destinations = next.iter().filter(|m| m.is_some()).count() as u64;
        census.push(c);
        inbox = next;
        if c.produced == 0 {
            break;
        }
    }
    let inbox_node = sched.node_id(workers);
    Ok(PacketPregelOutcome {
        states,
        census,
        rounds: sched.job_rounds(job).unwrap_or(0),
        fault_drops: sched.sim().snapshot().fault_drops(),
        nacks_emitted: sched
            .sim()
            .node_ref::<ReducerHost>(inbox_node)
            .map_or(0, ReducerHost::nacks_emitted),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::PageRank;
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
