//! Counters collected by the simulator: per-node frame/byte counts and
//! per-link transmission/drop/fault statistics. The Figure-3 harness reads
//! reducer NIC counts from here rather than trusting application logic.

use crate::node::NodeId;

/// Per-direction link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Frames put on the wire.
    pub tx_frames: u64,
    /// Bytes put on the wire.
    pub tx_bytes: u64,
    /// Frames dropped because the egress queue was full.
    pub drops_overflow: u64,
    /// Frames dropped by fault injection.
    pub drops_fault: u64,
    /// Frames corrupted by fault injection.
    pub corrupted: u64,
    /// Frames duplicated by fault injection.
    pub duplicated: u64,
    /// Frames delayed past their natural arrival (reordered) by fault
    /// injection.
    pub reordered: u64,
}

/// Both directions of one link (0 = a→b, 1 = b→a in connect order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Direction statistics.
    pub dirs: [DirStats; 2],
}

/// Per-node counters, maintained by the simulator at delivery/send time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Frames delivered to the node.
    pub frames_in: u64,
    /// Bytes delivered to the node.
    pub bytes_in: u64,
    /// Frames the node transmitted.
    pub frames_out: u64,
    /// Bytes the node transmitted.
    pub bytes_out: u64,
    /// Frames that arrived while the node was scripted down (see
    /// [`crate::NodeScript`]) and were discarded at the dead NIC.
    pub dead_drops: u64,
}

impl NodeStats {
    /// Frames observed at the NIC in either direction — the quantity a
    /// packet capture on the host would report (used for the Figure-3
    /// packet-count panels).
    pub fn frames_observed(&self) -> u64 {
        self.frames_in + self.frames_out
    }
}

// Loud monotonic-counter subtraction — now shared fabric-wide (the UDP
// backend's drivers keep the same kind of counters); re-exported here so
// every per-round delta in the workspace keeps one subtraction policy.
pub use daiet_fabric::counter_delta;

macro_rules! delta_fields {
    ($later:expr, $earlier:expr, $($field:ident),+) => {
        Self { $($field: counter_delta($later.$field, $earlier.$field, stringify!($field)),)+ }
    };
}

impl DirStats {
    /// Counter growth since `earlier` (field-wise `later − earlier`).
    pub fn delta(&self, earlier: &DirStats) -> DirStats {
        delta_fields!(
            self, earlier, tx_frames, tx_bytes, drops_overflow, drops_fault, corrupted,
            duplicated, reordered
        )
    }
}

impl LinkStats {
    /// Counter growth since `earlier`.
    pub fn delta(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            dirs: [self.dirs[0].delta(&earlier.dirs[0]), self.dirs[1].delta(&earlier.dirs[1])],
        }
    }
}

impl NodeStats {
    /// Counter growth since `earlier`.
    pub fn delta(&self, earlier: &NodeStats) -> NodeStats {
        delta_fields!(self, earlier, frames_in, bytes_in, frames_out, bytes_out, dead_drops)
    }
}

/// Every node and link counter at one instant, as captured by
/// [`crate::Simulator::snapshot`]. Counters are cumulative for the
/// simulator's life; an iterative harness snapshots at each round barrier
/// and reads the round's own traffic with [`delta`](Self::delta), so
/// per-round numbers never silently report the whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-node counters, indexed by node id.
    pub nodes: Vec<NodeStats>,
    /// Per-link counters, indexed in connect order.
    pub links: Vec<LinkStats>,
}

impl StatsSnapshot {
    /// The counter growth between `earlier` and this snapshot,
    /// field-for-field. Panics if any counter shrank (snapshots from
    /// different runs, or arguments swapped) — see [`NodeStats::delta`].
    /// `earlier` may be shorter (nodes/links added since): missing
    /// entries read as zero.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let zero_n = NodeStats::default();
        let zero_l = LinkStats::default();
        StatsSnapshot {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| n.delta(earlier.nodes.get(i).unwrap_or(&zero_n)))
                .collect(),
            links: self
                .links
                .iter()
                .enumerate()
                .map(|(i, l)| l.delta(earlier.links.get(i).unwrap_or(&zero_l)))
                .collect(),
        }
    }

    /// Frames dropped by fault injection, summed over every link and
    /// direction.
    pub fn fault_drops(&self) -> u64 {
        self.links.iter().flat_map(|l| l.dirs).map(|d| d.drops_fault).sum()
    }

    /// Frames dropped to egress-queue overflow, summed over every link
    /// and direction.
    pub fn overflow_drops(&self) -> u64 {
        self.links.iter().flat_map(|l| l.dirs).map(|d| d.drops_overflow).sum()
    }

    /// Frames discarded at dead (scripted-down) nodes, summed over every
    /// node.
    pub fn dead_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.dead_drops).sum()
    }

    /// Sums the per-node counters over `ids` — per-job traffic
    /// attribution on a shared fabric. The multi-tenant scheduler calls
    /// this on a delta snapshot (admission → departure) restricted to the
    /// host slots a job leased, so each tenant's frame/byte bill counts
    /// only its own NICs even while neighbors stream through the same
    /// switches. Ids beyond the snapshot read as zero (a node that never
    /// moved a frame).
    pub fn nodes_total(&self, ids: &[NodeId]) -> NodeStats {
        let mut total = NodeStats::default();
        for id in ids {
            if let Some(n) = self.nodes.get(id.0) {
                total.frames_in += n.frames_in;
                total.bytes_in += n.bytes_in;
                total.frames_out += n.frames_out;
                total.bytes_out += n.bytes_out;
                total.dead_drops += n.dead_drops;
            }
        }
        total
    }
}

/// All statistics for one simulation.
#[derive(Debug, Default)]
pub struct StatsTable {
    links: Vec<LinkStats>,
    nodes: Vec<NodeStats>,
}

impl StatsTable {
    fn link_mut(&mut self, idx: usize) -> &mut LinkStats {
        if idx >= self.links.len() {
            self.links.resize(idx + 1, LinkStats::default());
        }
        &mut self.links[idx]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeStats {
        if id.0 >= self.nodes.len() {
            self.nodes.resize(id.0 + 1, NodeStats::default());
        }
        &mut self.nodes[id.0]
    }

    /// Counters for link `idx` (zeros if never touched).
    pub fn link(&self, idx: usize) -> LinkStats {
        self.links.get(idx).copied().unwrap_or_default()
    }

    /// Counters for `node` (zeros if never touched).
    pub fn node(&self, node: NodeId) -> NodeStats {
        self.nodes.get(node.0).copied().unwrap_or_default()
    }

    pub(crate) fn link_tx(&mut self, idx: usize, dir: usize, bytes: usize) {
        let s = &mut self.link_mut(idx).dirs[dir];
        s.tx_frames += 1;
        s.tx_bytes += bytes as u64;
    }

    pub(crate) fn link_drop_overflow(&mut self, idx: usize, dir: usize, _bytes: usize) {
        self.link_mut(idx).dirs[dir].drops_overflow += 1;
    }

    pub(crate) fn link_drop_fault(&mut self, idx: usize, dir: usize, _bytes: usize) {
        self.link_mut(idx).dirs[dir].drops_fault += 1;
    }

    pub(crate) fn link_corrupt(&mut self, idx: usize, dir: usize) {
        self.link_mut(idx).dirs[dir].corrupted += 1;
    }

    pub(crate) fn link_duplicate(&mut self, idx: usize, dir: usize) {
        self.link_mut(idx).dirs[dir].duplicated += 1;
    }

    pub(crate) fn link_reorder(&mut self, idx: usize, dir: usize) {
        self.link_mut(idx).dirs[dir].reordered += 1;
    }

    pub(crate) fn node_dead_drop(&mut self, node: NodeId) {
        self.node_mut(node).dead_drops += 1;
    }

    pub(crate) fn node_sent(&mut self, node: NodeId, bytes: usize) {
        let s = self.node_mut(node);
        s.frames_out += 1;
        s.bytes_out += bytes as u64;
    }

    pub(crate) fn node_received(&mut self, node: NodeId, bytes: usize) {
        let s = self.node_mut(node);
        s.frames_in += 1;
        s.bytes_in += bytes as u64;
    }

    /// Copies the current counters out, padded with zeros to `n_nodes` /
    /// `n_links` (the tables grow lazily, so an untouched tail may not
    /// exist yet).
    pub(crate) fn snapshot(&self, n_nodes: usize, n_links: usize) -> StatsSnapshot {
        let mut nodes = self.nodes.clone();
        nodes.resize(nodes.len().max(n_nodes), NodeStats::default());
        let mut links = self.links.clone();
        links.resize(links.len().max(n_links), LinkStats::default());
        StatsSnapshot { nodes, links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_grow_on_demand() {
        let mut t = StatsTable::default();
        assert_eq!(t.node(NodeId(5)), NodeStats::default());
        t.node_sent(NodeId(5), 100);
        t.node_received(NodeId(5), 40);
        let s = t.node(NodeId(5));
        assert_eq!(s.frames_out, 1);
        assert_eq!(s.bytes_out, 100);
        assert_eq!(s.frames_in, 1);
        assert_eq!(s.bytes_in, 40);
        assert_eq!(s.frames_observed(), 2);
    }

    #[test]
    fn link_counters_accumulate() {
        let mut t = StatsTable::default();
        t.link_tx(2, 0, 1500);
        t.link_tx(2, 0, 1500);
        t.link_tx(2, 1, 64);
        t.link_drop_overflow(2, 0, 1500);
        t.link_drop_fault(2, 1, 64);
        t.link_corrupt(2, 0);
        t.link_duplicate(2, 1);
        let s = t.link(2);
        assert_eq!(s.dirs[0].tx_frames, 2);
        assert_eq!(s.dirs[0].tx_bytes, 3000);
        assert_eq!(s.dirs[0].drops_overflow, 1);
        assert_eq!(s.dirs[0].corrupted, 1);
        assert_eq!(s.dirs[1].tx_frames, 1);
        assert_eq!(s.dirs[1].drops_fault, 1);
        assert_eq!(s.dirs[1].duplicated, 1);
        // Untouched link reads as zeros.
        assert_eq!(t.link(0), LinkStats::default());
    }

    #[test]
    fn snapshot_deltas_isolate_one_rounds_counters() {
        let mut t = StatsTable::default();
        t.node_sent(NodeId(0), 100);
        t.link_tx(0, 0, 100);
        let before = t.snapshot(2, 1);
        // "Round 2": more traffic on the same counters.
        t.node_sent(NodeId(0), 50);
        t.node_received(NodeId(1), 50);
        t.link_tx(0, 0, 50);
        t.link_drop_fault(0, 1, 50);
        let after = t.snapshot(2, 1);
        let d = after.delta(&before);
        assert_eq!(d.nodes[0].frames_out, 1, "only the round's own frame");
        assert_eq!(d.nodes[0].bytes_out, 50);
        assert_eq!(d.nodes[1].frames_in, 1);
        assert_eq!(d.links[0].dirs[0].tx_frames, 1);
        assert_eq!(d.fault_drops(), 1);
        assert_eq!(d.overflow_drops(), 0);
    }

    #[test]
    fn snapshot_pads_untouched_tail_and_grown_tables() {
        let mut t = StatsTable::default();
        let before = t.snapshot(1, 0); // node 1 and the link don't exist yet
        t.node_sent(NodeId(1), 10);
        t.link_tx(0, 0, 10);
        let after = t.snapshot(2, 1);
        let d = after.delta(&before);
        assert_eq!(d.nodes[1].frames_out, 1, "entries born mid-window count from zero");
        assert_eq!(d.links[0].dirs[0].tx_frames, 1);
        // Padding: requesting more slots than ever touched reads zeros.
        assert_eq!(after.nodes[0], NodeStats::default());
    }

    /// Counters are monotonic; a shrinking "delta" means mismatched
    /// snapshots and must fail loudly, not saturate to zero.
    #[test]
    #[should_panic(expected = "went backwards")]
    fn swapped_snapshots_panic_instead_of_saturating() {
        let mut t = StatsTable::default();
        let before = t.snapshot(1, 0);
        t.node_sent(NodeId(0), 10);
        let after = t.snapshot(1, 0);
        let _ = before.delta(&after); // arguments swapped
    }
}
