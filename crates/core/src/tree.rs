//! Aggregation trees (Figure 2 of the paper).
//!
//! "An aggregation tree is a spanning tree covering all the paths from all
//! the mappers to a reducer. There is one tree rooted at each reducer."
//! Every network device on the tree needs to know (i) the tree id, (ii)
//! the output port toward the next node, and (iii) the aggregation
//! function — plus "the number of children nodes it receives traffic
//! from, so that the aggregated data are flushed to the next node when all
//! the children have sent their intermediate results" (§4).

use daiet_netsim::topology::{Adjacency, TopologyPlan};
use std::collections::{BTreeMap, BTreeSet};

/// Errors from tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A mapper has no path to the reducer.
    Unreachable {
        /// The mapper's plan index.
        mapper: usize,
    },
    /// A mapper was placed on the reducer's own host (the shuffle for that
    /// pair never enters the network; the framework must special-case it
    /// rather than build a degenerate tree).
    MapperIsReducer,
}

impl core::fmt::Display for TreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TreeError::Unreachable { mapper } => {
                write!(f, "mapper at plan slot {mapper} cannot reach the reducer")
            }
            TreeError::MapperIsReducer => write!(f, "a mapper shares the reducer's host"),
        }
    }
}

impl std::error::Error for TreeError {}

/// One aggregation tree, rooted at a reducer.
#[derive(Debug, Clone)]
pub struct AggregationTree {
    /// Tree identifier embedded in packets ("the tree ID (i.e., reducer
    /// ID)").
    pub tree_id: u16,
    /// The reducer's plan slot (root of the tree).
    pub reducer: usize,
    /// Mapper plan slots (leaves).
    pub mappers: Vec<usize>,
    /// For every on-tree node except the root: the adjacency (port + next
    /// node) toward the reducer.
    pub parent: BTreeMap<usize, Adjacency>,
    /// For every on-tree *switch*: how many tree children feed it.
    pub switch_children: BTreeMap<usize, u32>,
    /// How many tree children feed the reducer host directly (its END
    /// expectation when in-network aggregation is on).
    pub reducer_children: u32,
}

impl AggregationTree {
    /// Builds the tree for `reducer` covering `mappers`, following the
    /// plan's deterministic shortest paths (the same next-hops the plain
    /// forwarding tables use, so aggregated traffic is pinned to the tree
    /// — the paper's answer to multipath).
    pub fn build(
        plan: &TopologyPlan,
        tree_id: u16,
        reducer: usize,
        mappers: &[usize],
    ) -> Result<AggregationTree, TreeError> {
        Self::build_avoiding(plan, tree_id, reducer, mappers, &[])
    }

    /// [`AggregationTree::build`], but routing around the `dead` nodes —
    /// the scheduler's re-planning primitive after a switch failure. A
    /// mapper whose every path to the reducer crosses a dead node is
    /// [`TreeError::Unreachable`]; the caller decides whether that aborts
    /// the job or evicts the mapper from the roster.
    pub fn build_avoiding(
        plan: &TopologyPlan,
        tree_id: u16,
        reducer: usize,
        mappers: &[usize],
        dead: &[usize],
    ) -> Result<AggregationTree, TreeError> {
        let next = if dead.is_empty() {
            plan.next_hops_toward(reducer)
        } else {
            plan.next_hops_toward_avoiding(reducer, dead)
        };
        let mut parent: BTreeMap<usize, Adjacency> = BTreeMap::new();
        let mut on_tree: BTreeSet<usize> = BTreeSet::new();
        on_tree.insert(reducer);

        for &m in mappers {
            if m == reducer {
                return Err(TreeError::MapperIsReducer);
            }
            let mut cur = m;
            while cur != reducer {
                let hop = next[cur].ok_or(TreeError::Unreachable { mapper: m })?;
                let newly_added = on_tree.insert(cur);
                parent.entry(cur).or_insert(hop);
                cur = hop.peer;
                if !newly_added {
                    break; // joined an existing branch; the rest is shared
                }
            }
        }

        // Children counts: one per distinct tree node whose parent edge
        // lands on this node.
        let mut children: BTreeMap<usize, u32> = BTreeMap::new();
        for hop in parent.values() {
            *children.entry(hop.peer).or_insert(0) += 1;
        }

        let mut switch_children = BTreeMap::new();
        let mut reducer_children = 0;
        for (node, count) in children {
            if node == reducer {
                reducer_children = count;
            } else {
                switch_children.insert(node, count);
            }
        }

        Ok(AggregationTree {
            tree_id,
            reducer,
            mappers: mappers.to_vec(),
            parent,
            switch_children,
            reducer_children,
        })
    }

    /// All switches participating in this tree.
    pub fn switches(&self) -> impl Iterator<Item = usize> + '_ {
        self.switch_children.keys().copied()
    }

    /// The egress adjacency a given on-tree node uses toward the root.
    pub fn upstream(&self, node: usize) -> Option<Adjacency> {
        self.parent.get(&node).copied()
    }

    /// The tree children feeding `node`, as `(child slot, node's port
    /// toward that child)` in ascending child order — the NACK roster a
    /// switch or the reducer needs to watch (and answer) its feeders.
    pub fn children_of(&self, node: usize) -> Vec<(usize, daiet_fabric::PortId)> {
        self.parent
            .iter()
            .filter(|(_, hop)| hop.peer == node)
            .map(|(&child, hop)| (child, hop.peer_port))
            .collect()
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// * every mapper reaches the root through `parent` edges;
    /// * the edge set is acyclic (each traversal terminates);
    /// * children counts equal the in-degree of each node.
    pub fn validate(&self) -> Result<(), String> {
        for &m in &self.mappers {
            let mut cur = m;
            let mut steps = 0;
            while cur != self.reducer {
                let hop = self
                    .parent
                    .get(&cur)
                    .ok_or_else(|| format!("node {cur} has no parent"))?;
                cur = hop.peer;
                steps += 1;
                if steps > self.parent.len() + 1 {
                    return Err(format!("cycle reached from mapper {m}"));
                }
            }
        }
        let mut indeg: BTreeMap<usize, u32> = BTreeMap::new();
        for hop in self.parent.values() {
            *indeg.entry(hop.peer).or_insert(0) += 1;
        }
        for (&sw, &count) in &self.switch_children {
            if indeg.get(&sw) != Some(&count) {
                return Err(format!("switch {sw} children count mismatch"));
            }
        }
        if indeg.get(&self.reducer).copied().unwrap_or(0) != self.reducer_children {
            return Err("reducer children count mismatch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daiet_netsim::LinkSpec;

    fn star(n: usize) -> TopologyPlan {
        TopologyPlan::star(n, LinkSpec::fast())
    }

    #[test]
    fn star_tree_has_one_switch_with_all_mappers() {
        // 5 hosts: mappers 0..4, reducer 4... hosts are 0..5, switch 5.
        let plan = star(5);
        let tree = AggregationTree::build(&plan, 1, 4, &[0, 1, 2, 3]).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.reducer_children, 1); // the switch
        assert_eq!(tree.switch_children.get(&5), Some(&4)); // four mappers
        assert_eq!(tree.switches().collect::<Vec<_>>(), vec![5]);
        // Every mapper's parent is the switch.
        for m in 0..4 {
            assert_eq!(tree.upstream(m).unwrap().peer, 5);
        }
    }

    #[test]
    fn leaf_spine_tree_counts_intermediate_switches() {
        // 2 leaves × 3 hosts, 1 spine. Hosts 0-2 under leaf 6, hosts 3-5
        // under leaf 7, spine 8. Reducer = host 5; mappers = 0,1,2,3.
        let plan = TopologyPlan::leaf_spine(3, 2, 1, LinkSpec::fast());
        let tree = AggregationTree::build(&plan, 2, 5, &[0, 1, 2, 3]).unwrap();
        tree.validate().unwrap();
        // Leaf 6 aggregates mappers 0,1,2 → spine. Spine aggregates leaf 6
        // → leaf 7. Leaf 7 aggregates spine + mapper 3 → reducer.
        assert_eq!(tree.switch_children.get(&6), Some(&3));
        assert_eq!(tree.switch_children.get(&8), Some(&1));
        assert_eq!(tree.switch_children.get(&7), Some(&2));
        assert_eq!(tree.reducer_children, 1);
    }

    #[test]
    fn fat_tree_tree_is_valid_and_spans() {
        let plan = TopologyPlan::fat_tree(4, LinkSpec::fast());
        let hosts = plan.hosts();
        let reducer = hosts[15];
        let mappers: Vec<usize> = hosts[..12].to_vec();
        let tree = AggregationTree::build(&plan, 3, reducer, &mappers).unwrap();
        tree.validate().unwrap();
        // All mappers present; at least the reducer's edge switch on tree.
        assert_eq!(tree.mappers.len(), 12);
        assert!(!tree.switch_children.is_empty());
        let total_children: u32 = tree.switch_children.values().sum::<u32>() + tree.reducer_children;
        // Every tree edge is counted exactly once as a child link.
        assert_eq!(total_children as usize, tree.parent.len());
    }

    #[test]
    fn shared_branches_are_not_double_counted() {
        // Two mappers under the same leaf share the leaf→spine branch.
        let plan = TopologyPlan::leaf_spine(2, 2, 1, LinkSpec::fast());
        // hosts 0,1 under leaf 4; hosts 2,3 under leaf 5; spine 6.
        let tree = AggregationTree::build(&plan, 1, 3, &[0, 1]).unwrap();
        tree.validate().unwrap();
        assert_eq!(tree.switch_children.get(&4), Some(&2)); // both mappers
        assert_eq!(tree.switch_children.get(&6), Some(&1)); // one branch up
        assert_eq!(tree.switch_children.get(&5), Some(&1));
    }

    #[test]
    fn mapper_on_reducer_host_is_rejected() {
        let plan = star(3);
        let err = AggregationTree::build(&plan, 1, 2, &[0, 2]).unwrap_err();
        assert_eq!(err, TreeError::MapperIsReducer);
    }

    #[test]
    fn unreachable_mapper_is_rejected() {
        let mut plan = TopologyPlan::new();
        let a = plan.add_host();
        let b = plan.add_host();
        let _orphan = plan.add_host();
        let sw = plan.add_switch();
        plan.link(a, sw, LinkSpec::fast());
        plan.link(b, sw, LinkSpec::fast());
        let err = AggregationTree::build(&plan, 1, a, &[b, 2]).unwrap_err();
        assert_eq!(err, TreeError::Unreachable { mapper: 2 });
    }

    #[test]
    fn avoiding_a_spine_reroutes_the_tree() {
        // 2 leaves × 2 hosts, 2 spines: hosts 0-3, leaves 4-5, spines 6-7.
        let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
        let base = AggregationTree::build(&plan, 1, 3, &[0, 1]).unwrap();
        let spine: Vec<usize> = base.switches().filter(|&s| s >= 6).collect();
        assert_eq!(spine.len(), 1, "one spine carries the cross-leaf branch");
        let alt = AggregationTree::build_avoiding(&plan, 1, 3, &[0, 1], &spine).unwrap();
        alt.validate().unwrap();
        assert!(
            !alt.switches().any(|s| s == spine[0]),
            "the dead spine must not appear in the re-planned tree"
        );
        let other: Vec<usize> = alt.switches().filter(|&s| s >= 6).collect();
        assert_eq!(other.len(), 1);
        assert_ne!(other[0], spine[0]);
        // Same leaves, same child structure — only the spine moved.
        assert_eq!(alt.reducer_children, base.reducer_children);
    }

    #[test]
    fn fully_partitioned_mapper_is_unreachable() {
        // One spine only: killing it cuts every cross-leaf path.
        let plan = TopologyPlan::leaf_spine(2, 2, 1, LinkSpec::fast());
        let err = AggregationTree::build_avoiding(&plan, 1, 3, &[0], &[6]).unwrap_err();
        assert_eq!(err, TreeError::Unreachable { mapper: 0 });
    }

    #[test]
    fn single_mapper_tree_is_a_path() {
        let plan = TopologyPlan::leaf_spine(2, 2, 2, LinkSpec::fast());
        let tree = AggregationTree::build(&plan, 9, 3, &[0]).unwrap();
        tree.validate().unwrap();
        // Path: host0 -> leaf -> spine -> leaf -> host3: every switch has
        // exactly one child.
        for &c in tree.switch_children.values() {
            assert_eq!(c, 1);
        }
        assert_eq!(tree.reducer_children, 1);
    }
}
