//! Unicast next-hop routing tables.
//!
//! The paper assumes every domain "also runs a unicast routing protocol"
//! (link-state, §II-D); SCMP and the baselines use it to carry JOIN
//! messages to the m-router/core and to tunnel data packets from off-tree
//! sources. This module materialises those tables.
//!
//! Implementation note: the next hop from `src` toward `dst` is derived
//! from the shortest-delay tree rooted at **`dst`** (links are symmetric,
//! so the reversed tree path is a shortest `src → dst` path). Hop-by-hop
//! forwarding then walks a single predecessor chain of one tree, which is
//! loop-free *by construction* even in the presence of zero-delay links
//! and equal-cost ties — unlike stitching together per-source trees.
//!
//! There is one representation: the topology plus one row per
//! destination, `rows[dst][src]` = next hop, each row the predecessor
//! column of the delay tree rooted at `dst`. A row is computed on its
//! first query and kept. [`RoutingTables::compute`] fills every row up
//! front at up to [`PREFILL_MAX_NODES`] nodes, so paper-scale lookups
//! never compute; [`RoutingTables::on_demand`] fills none, which is what
//! fault reconvergence uses — a table that a later flap replaces before
//! any route is asked of it costs no Dijkstra run at all.
//!
//! Because each row is a pure function of (topology, dst), every table
//! returns byte-identical routes regardless of fill policy or query
//! order.

use crate::dijkstra::{dijkstra_with, DijkstraScratch, Metric};
use crate::graph::{NodeId, Topology};
use std::sync::{Mutex, OnceLock};

const NONE: u32 = u32::MAX;

/// Node count at or below which [`RoutingTables::compute`] fills every
/// row up front (4 MB of `u32` at 1024 nodes; the paper's topologies are
/// far below it). Above it rows are computed on first query.
pub const PREFILL_MAX_NODES: usize = 1024;

/// Per-node unicast next-hop tables (`next_hop(src, dst)` semantics).
#[derive(Debug)]
pub struct RoutingTables {
    topo: Topology,
    /// `rows[dst][src]` is the next hop from `src` toward `dst`;
    /// `u32::MAX` encodes "none".
    rows: Box<[OnceLock<Box<[u32]>>]>,
    /// Dijkstra working memory, taken only when a row is missing.
    scratch: Mutex<DijkstraScratch>,
}

impl RoutingTables {
    /// Build next-hop tables for the whole topology (delay as the
    /// metric, matching a link-state IGP). Every row is filled up front
    /// at up to [`PREFILL_MAX_NODES`] nodes; above, none is.
    pub fn compute(topo: &Topology) -> Self {
        let rt = RoutingTables::on_demand(topo.clone());
        if topo.node_count() <= PREFILL_MAX_NODES {
            for dst in topo.nodes() {
                rt.row(dst);
            }
        }
        rt
    }

    /// Tables over `topo` with no row filled: each destination's row is
    /// computed on its first query.
    pub fn on_demand(topo: Topology) -> Self {
        let rows = (0..topo.node_count()).map(|_| OnceLock::new()).collect();
        RoutingTables {
            topo,
            rows,
            scratch: Mutex::new(DijkstraScratch::new()),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes of the resident rows.
    pub fn resident_bytes(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .map(|r| std::mem::size_of_val::<[u32]>(r))
            .sum()
    }

    /// The row toward `dst`, computed on first use.
    fn row(&self, dst: NodeId) -> &[u32] {
        self.rows[dst.index()].get_or_init(|| {
            let scratch = &mut *self.scratch.lock().expect("routing lock");
            let tree = dijkstra_with(&self.topo, dst, Metric::Delay, scratch);
            // First hop of src->dst = predecessor of src in the tree
            // rooted at dst (path reversal under symmetric links); the
            // root itself has none.
            let row = self
                .topo
                .nodes()
                .map(|src| tree.predecessor(src).map_or(NONE, |p| p.0))
                .collect();
            scratch.recycle(tree);
            row
        })
    }

    /// Next hop on the unicast route from `src` to `dst`.
    ///
    /// `None` when `src == dst` or `dst` is unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        hop(self.row(dst), src)
    }

    /// Materialise the full hop-by-hop route `src -> … -> dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let row = self.row(dst);
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = hop(row, cur)?;
            out.push(cur);
            if out.len() > row.len() {
                unreachable!("routing loop from {src:?} to {dst:?}");
            }
        }
        Some(out)
    }
}

/// The next hop of `src` in one destination's row.
#[inline]
fn hop(row: &[u32], src: NodeId) -> Option<NodeId> {
    let v = row[src.index()];
    (v != NONE).then_some(NodeId(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkWeight, TopologyBuilder};
    use crate::paths::AllPairsPaths;
    use crate::topology::examples::fig5;

    #[test]
    fn routes_are_shortest_delay_paths() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let route = rt.route(src, dst).expect("connected");
                let w = t.path_weight(&route).expect("valid path");
                assert_eq!(
                    Some(w.delay),
                    ap.unicast_delay(src, dst),
                    "{src:?}->{dst:?}"
                );
            }
        }
    }

    #[test]
    fn lazy_rows_materialise_on_demand() {
        let t = fig5();
        let lazy = RoutingTables::on_demand(t.clone());
        assert_eq!(lazy.resident_bytes(), 0);
        lazy.next_hop(NodeId(0), NodeId(4));
        assert_eq!(
            lazy.resident_bytes(),
            t.node_count() * std::mem::size_of::<u32>()
        );
        // A prefilled table holds every row.
        assert_eq!(
            RoutingTables::compute(&t).resident_bytes(),
            t.node_count() * t.node_count() * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn next_hop_walks_shortest_delay_path() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        // From g1 (node 4) toward the m-router (node 0): 4-1-0.
        assert_eq!(rt.next_hop(NodeId(4), NodeId(0)), Some(NodeId(1)));
        assert_eq!(rt.next_hop(NodeId(1), NodeId(0)), Some(NodeId(0)));
        assert_eq!(rt.next_hop(NodeId(0), NodeId(0)), None);
        assert_eq!(
            rt.route(NodeId(4), NodeId(0)),
            Some(vec![NodeId(4), NodeId(1), NodeId(0)])
        );
    }

    #[test]
    fn next_hop_chain_terminates_at_destination() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    cur = rt.next_hop(cur, dst).expect("connected");
                    hops += 1;
                    assert!(hops <= t.node_count(), "routing loop {src:?}->{dst:?}");
                }
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        assert_eq!(rt.next_hop(NodeId(2), NodeId(2)), None);
        assert_eq!(rt.route(NodeId(2), NodeId(2)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let rt = RoutingTables::compute(&b.build());
        assert_eq!(rt.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(rt.route(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn zero_delay_links_cannot_loop() {
        // A cycle of zero-delay links: hop-by-hop forwarding must still
        // terminate because all hops follow the destination-rooted tree.
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(0, 1));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(0, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(0, 1));
        b.add_link(NodeId(3), NodeId(0), LinkWeight::new(0, 1));
        let rt = RoutingTables::compute(&b.build());
        for src in 0..4u32 {
            for dst in 0..4u32 {
                assert!(rt.route(NodeId(src), NodeId(dst)).is_some());
            }
        }
    }

    #[test]
    fn next_hop_is_a_neighbor() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                if let Some(nh) = rt.next_hop(src, dst) {
                    assert!(t.has_link(src, nh), "{src:?}->{dst:?} via {nh:?}");
                }
            }
        }
    }
}
