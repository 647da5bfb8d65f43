//! Topology plans: pure graph descriptions of clusters that can be wired
//! into a [`Simulator`] once the caller has instantiated
//! the node objects (hosts and switches live in higher-level crates, so the
//! plan cannot construct them itself).
//!
//! Port numbers in a plan match the numbers the simulator will assign,
//! because both sides allocate ports sequentially in link-insertion order;
//! [`TopologyPlan::wire`] asserts this agreement. The plan also offers
//! deterministic BFS routing used both for plain L2 forwarding tables and
//! for the DAIET controller's aggregation trees.

use crate::link::LinkSpec;
use crate::node::{NodeId, PortId};
use crate::sim::Simulator;
use std::collections::VecDeque;

/// What kind of device occupies a plan slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// An end host (server).
    Host,
    /// A network switch.
    Switch,
}

/// One attached neighbor: (my port, peer plan-index, peer's port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjacency {
    /// Port on this node.
    pub port: PortId,
    /// Neighbor's plan index.
    pub peer: usize,
    /// Port on the neighbor.
    pub peer_port: PortId,
}

/// A cluster description: node roles plus links.
#[derive(Debug, Clone, Default)]
pub struct TopologyPlan {
    roles: Vec<Role>,
    links: Vec<(usize, usize, LinkSpec)>,
    adj: Vec<Vec<Adjacency>>,
}

impl TopologyPlan {
    /// An empty plan.
    pub fn new() -> TopologyPlan {
        TopologyPlan::default()
    }

    /// Adds a host slot, returning its plan index.
    pub fn add_host(&mut self) -> usize {
        self.roles.push(Role::Host);
        self.adj.push(Vec::new());
        self.roles.len() - 1
    }

    /// Adds a switch slot, returning its plan index.
    pub fn add_switch(&mut self) -> usize {
        self.roles.push(Role::Switch);
        self.adj.push(Vec::new());
        self.roles.len() - 1
    }

    /// Links two slots. Port numbers are assigned sequentially per node,
    /// mirroring [`Simulator::connect`].
    pub fn link(&mut self, a: usize, b: usize, spec: LinkSpec) {
        assert!(a < self.roles.len() && b < self.roles.len());
        assert_ne!(a, b, "self-links are not supported");
        let pa = PortId(self.adj[a].len());
        let pb = PortId(self.adj[b].len());
        self.adj[a].push(Adjacency { port: pa, peer: b, peer_port: pb });
        self.adj[b].push(Adjacency { port: pb, peer: a, peer_port: pa });
        self.links.push((a, b, spec));
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True when the plan has no slots.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Role of slot `i`.
    pub fn role(&self, i: usize) -> Role {
        self.roles[i]
    }

    /// All host slots, in index order.
    pub fn hosts(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.roles[i] == Role::Host).collect()
    }

    /// All switch slots, in index order.
    pub fn switches(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.roles[i] == Role::Switch).collect()
    }

    /// Neighbors of slot `i` in port order.
    pub fn neighbors(&self, i: usize) -> &[Adjacency] {
        &self.adj[i]
    }

    /// The links in insertion order.
    pub fn links(&self) -> &[(usize, usize, LinkSpec)] {
        &self.links
    }

    /// BFS tree of next hops toward `dst`: `next[i]` is the adjacency to
    /// take from node `i`, `None` at `dst` itself or for unreachable
    /// nodes. Neighbor order (= port order) breaks ties, so routing is
    /// deterministic.
    pub fn next_hops_toward(&self, dst: usize) -> Vec<Option<Adjacency>> {
        self.next_hops_toward_avoiding(dst, &[])
    }

    /// [`next_hops_toward`](Self::next_hops_toward), but routing *around*
    /// the nodes in `dead`: no next hop ever enters a dead node, and dead
    /// nodes (and nodes cut off by them) get `None`. The same
    /// deterministic BFS with the same neighbor-order tie-breaking, so on
    /// a fabric with path redundancy (≥ 2 spines) the controller can
    /// re-plan live around a failed switch and every survivor still
    /// agrees on the routes. Panics if `dst` itself is dead — there is no
    /// plan to compute around a dead destination.
    pub fn next_hops_toward_avoiding(
        &self,
        dst: usize,
        dead: &[usize],
    ) -> Vec<Option<Adjacency>> {
        assert!(!dead.contains(&dst), "cannot route toward a dead node {dst}");
        let mut next: Vec<Option<Adjacency>> = vec![None; self.len()];
        let mut visited = vec![false; self.len()];
        for &d in dead {
            visited[d] = true; // never expanded, never assigned a hop
        }
        let mut q = VecDeque::new();
        visited[dst] = true;
        q.push_back(dst);
        while let Some(n) = q.pop_front() {
            for adj in &self.adj[n] {
                if !visited[adj.peer] {
                    visited[adj.peer] = true;
                    // From adj.peer, the next hop toward dst is back to n.
                    next[adj.peer] = Some(Adjacency {
                        port: adj.peer_port,
                        peer: n,
                        peer_port: adj.port,
                    });
                    q.push_back(adj.peer);
                }
            }
        }
        next
    }

    /// The full node path `from → … → to` (inclusive), or `None` if
    /// unreachable.
    pub fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![from]);
        }
        let next = self.next_hops_toward(to);
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let hop = next[cur]?;
            cur = hop.peer;
            path.push(cur);
            if path.len() > self.len() {
                return None; // defensive: cannot happen with a BFS tree
            }
        }
        Some(path)
    }

    /// Wires this plan into `sim`. `ids[i]` must be the simulator node for
    /// plan slot `i`; the caller creates those in plan order. Panics if the
    /// port numbers the simulator assigns disagree with the plan (which
    /// would mean the caller connected something else first).
    pub fn wire(&self, sim: &mut Simulator, ids: &[NodeId]) {
        assert_eq!(ids.len(), self.len(), "one NodeId per plan slot");
        let mut seen: Vec<usize> = vec![0; self.len()];
        for &(a, b, spec) in &self.links {
            let (pa, pb) = sim.connect(ids[a], ids[b], spec);
            // Both sides must receive the same port number the plan
            // recorded; this fails if the caller connected anything to the
            // simulator outside the plan.
            assert_eq!(pa, PortId(seen[a]), "port drift on plan slot {a}");
            assert_eq!(pb, PortId(seen[b]), "port drift on plan slot {b}");
            seen[a] += 1;
            seen[b] += 1;
        }
    }

    // ---- Built-in cluster shapes -------------------------------------

    /// A star: `n_hosts` hosts all attached to one switch — the paper's
    /// testbed shape (24 mappers + 12 reducers + master behind one bmv2
    /// switch). Hosts are slots `0..n_hosts`, the switch is slot
    /// `n_hosts`.
    pub fn star(n_hosts: usize, spec: LinkSpec) -> TopologyPlan {
        let mut plan = TopologyPlan::new();
        for _ in 0..n_hosts {
            plan.add_host();
        }
        let sw = plan.add_switch();
        for h in 0..n_hosts {
            plan.link(h, sw, spec);
        }
        plan
    }

    /// A two-tier leaf-spine fabric: `n_leaves` leaf switches each with
    /// `hosts_per_leaf` hosts, fully meshed to `n_spines` spine switches.
    /// Hosts come first (grouped by leaf), then leaves, then spines.
    pub fn leaf_spine(
        hosts_per_leaf: usize,
        n_leaves: usize,
        n_spines: usize,
        spec: LinkSpec,
    ) -> TopologyPlan {
        let mut plan = TopologyPlan::new();
        let mut hosts = Vec::new();
        for _ in 0..n_leaves * hosts_per_leaf {
            hosts.push(plan.add_host());
        }
        let leaves: Vec<usize> = (0..n_leaves).map(|_| plan.add_switch()).collect();
        let spines: Vec<usize> = (0..n_spines).map(|_| plan.add_switch()).collect();
        for (l, &leaf) in leaves.iter().enumerate() {
            for h in 0..hosts_per_leaf {
                plan.link(hosts[l * hosts_per_leaf + h], leaf, spec);
            }
        }
        for &leaf in &leaves {
            for &spine in &spines {
                plan.link(leaf, spine, spec);
            }
        }
        plan
    }

    /// A k-ary fat-tree (k even): `(k/2)^2` core switches, `k` pods of
    /// `k/2` aggregation and `k/2` edge switches, `k/2` hosts per edge
    /// switch — `k^3/4` hosts total. Hosts come first (grouped by pod,
    /// then edge), then edge switches, aggregation switches, and core
    /// switches.
    pub fn fat_tree(k: usize, spec: LinkSpec) -> TopologyPlan {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree requires even k >= 2");
        let half = k / 2;
        let mut plan = TopologyPlan::new();

        let n_hosts = k * half * half;
        let hosts: Vec<usize> = (0..n_hosts).map(|_| plan.add_host()).collect();
        let edges: Vec<usize> = (0..k * half).map(|_| plan.add_switch()).collect();
        let aggs: Vec<usize> = (0..k * half).map(|_| plan.add_switch()).collect();
        let cores: Vec<usize> = (0..half * half).map(|_| plan.add_switch()).collect();

        for pod in 0..k {
            for e in 0..half {
                let edge = edges[pod * half + e];
                // Hosts under this edge switch.
                for h in 0..half {
                    plan.link(hosts[(pod * half + e) * half + h], edge, spec);
                }
                // Edge to every aggregation switch in the pod.
                for a in 0..half {
                    plan.link(edge, aggs[pod * half + a], spec);
                }
            }
            // Aggregation switch a connects to cores a*half .. a*half+half.
            for a in 0..half {
                let agg = aggs[pod * half + a];
                for c in 0..half {
                    plan.link(agg, cores[a * half + c], spec);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec::fast()
    }

    #[test]
    fn star_shape() {
        let plan = TopologyPlan::star(4, spec());
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.hosts(), vec![0, 1, 2, 3]);
        assert_eq!(plan.switches(), vec![4]);
        assert_eq!(plan.neighbors(4).len(), 4);
        assert_eq!(plan.neighbors(0).len(), 1);
        // Host 0 reaches host 3 through the switch.
        assert_eq!(plan.path(0, 3), Some(vec![0, 4, 3]));
    }

    #[test]
    fn leaf_spine_shape_and_paths() {
        let plan = TopologyPlan::leaf_spine(4, 3, 2, spec());
        assert_eq!(plan.hosts().len(), 12);
        assert_eq!(plan.switches().len(), 5);
        // Same-leaf hosts: two hops.
        assert_eq!(plan.path(0, 1).unwrap().len(), 3);
        // Cross-leaf hosts: host-leaf-spine-leaf-host.
        assert_eq!(plan.path(0, 11).unwrap().len(), 5);
        // Leaf degree: hosts_per_leaf + n_spines.
        let leaf = plan.switches()[0];
        assert_eq!(plan.neighbors(leaf).len(), 4 + 2);
    }

    #[test]
    fn fat_tree_counts() {
        let k = 4;
        let plan = TopologyPlan::fat_tree(k, spec());
        assert_eq!(plan.hosts().len(), k * k * k / 4); // 16
        assert_eq!(plan.switches().len(), 4 + 8 + 8); // 4 core, 8 agg, 8 edge
        // Every edge switch: k/2 hosts + k/2 aggs = k ports.
        for &sw in &plan.switches() {
            assert!(plan.neighbors(sw).len() <= k);
        }
        // Total links: hosts (16) + edge-agg (k pods * half * half = 16)
        // + agg-core (16).
        assert_eq!(plan.links().len(), 48);
    }

    #[test]
    fn fat_tree_all_pairs_reachable() {
        let plan = TopologyPlan::fat_tree(4, spec());
        let hosts = plan.hosts();
        for &a in &hosts {
            let next = plan.next_hops_toward(a);
            for &b in &hosts {
                if a != b {
                    assert!(next[b].is_some(), "{b} cannot reach {a}");
                    let p = plan.path(b, a).unwrap();
                    assert!(p.len() <= 7, "path too long: {p:?}");
                    assert_eq!(*p.first().unwrap(), b);
                    assert_eq!(*p.last().unwrap(), a);
                }
            }
        }
    }

    #[test]
    fn same_pod_paths_stay_local() {
        // In a k=4 fat-tree, hosts under the same edge switch are 2 hops
        // apart; same pod different edge is 4 hops (via aggregation).
        let plan = TopologyPlan::fat_tree(4, spec());
        assert_eq!(plan.path(0, 1).unwrap().len(), 3);
        assert_eq!(plan.path(0, 2).unwrap().len(), 5);
    }

    #[test]
    fn next_hops_form_tree_toward_destination() {
        let plan = TopologyPlan::leaf_spine(2, 2, 2, spec());
        let dst = 3;
        let next = plan.next_hops_toward(dst);
        assert!(next[dst].is_none());
        for i in 0..plan.len() {
            if i == dst {
                continue;
            }
            // Following next hops always terminates at dst.
            let mut cur = i;
            let mut steps = 0;
            while cur != dst {
                cur = next[cur].unwrap().peer;
                steps += 1;
                assert!(steps <= plan.len());
            }
        }
    }

    #[test]
    fn unreachable_nodes_have_no_path() {
        let mut plan = TopologyPlan::new();
        let a = plan.add_host();
        let b = plan.add_host();
        assert_eq!(plan.path(a, b), None);
        assert_eq!(plan.path(a, a), Some(vec![a]));
    }

    /// Routing around a dead spine: every host still reaches every other
    /// host, no route traverses the dead node, and killing the *only*
    /// path (a leaf) cuts its hosts off rather than routing through the
    /// corpse.
    #[test]
    fn avoiding_routes_skirt_dead_nodes() {
        // leaf_spine(4, 3, 2): hosts 0–11, leaves 12–14, spines 15–16.
        let plan = TopologyPlan::leaf_spine(4, 3, 2, spec());
        let dead_spine = 15;
        let next = plan.next_hops_toward_avoiding(0, &[dead_spine]);
        for i in 0..plan.len() {
            if i == 0 || i == dead_spine {
                continue;
            }
            let mut cur = i;
            let mut steps = 0;
            while cur != 0 {
                let hop = next[cur].unwrap_or_else(|| panic!("{i} cut off"));
                assert_ne!(hop.peer, dead_spine, "route from {i} enters the dead spine");
                cur = hop.peer;
                steps += 1;
                assert!(steps <= plan.len());
            }
        }
        assert!(next[dead_spine].is_none(), "dead nodes get no route");
        // Killing host 4's only leaf (12 serves hosts 0–3, 13 serves 4–7)
        // cuts hosts 4–7 off from host 0.
        let next = plan.next_hops_toward_avoiding(0, &[13]);
        for (h, hop) in next.iter().enumerate().take(8).skip(4) {
            assert!(hop.is_none(), "host {h} should be cut off");
        }
        assert!(next[8].is_some(), "other racks still reach the destination");
    }

    #[test]
    fn wire_matches_simulator_ports() {
        use crate::frame::Frame;
        use crate::node::{Fabric, Node, PortId};

        struct Dummy;
        impl Node for Dummy {
            fn on_packet(&mut self, _: &mut dyn Fabric, _: PortId, _: Frame) {}
        }

        let plan = TopologyPlan::leaf_spine(2, 2, 1, spec());
        let mut sim = Simulator::new(0);
        let ids: Vec<NodeId> = (0..plan.len()).map(|_| sim.add_node(Box::new(Dummy))).collect();
        plan.wire(&mut sim, &ids);
        // Spot-check: the peer across host 0's port 0 is its leaf switch.
        let leaf = plan.neighbors(0)[0].peer;
        assert_eq!(sim.peer(ids[0], PortId(0)), Some((ids[leaf], PortId(0))));
        assert_eq!(sim.link_count(), plan.links().len());
    }
}
