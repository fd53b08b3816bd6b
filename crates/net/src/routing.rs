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
//! column of the delay tree rooted at `dst`. No row exists until a
//! route toward its destination is asked for, and a row miss pays only
//! for the asking router:
//!
//! * The first miss on a row runs the Dijkstra rooted at `dst` only
//!   until the querying `src` is settled, and records the next hop of
//!   every settled node (a *partial* build). A settled node's
//!   predecessor is final, and so is every node on its predecessor
//!   chain, so the answer — and the whole route from `src` — is what a
//!   full run gives. Unsettled entries stay unknown.
//! * A later miss from a source that is still unknown in the row runs
//!   the Dijkstra to completion (a *full* build), which leaves no entry
//!   unknown. A row is therefore built at most twice.
//!
//! [`RoutingTables::on_demand`] is what the engine builds, at
//! construction and after every fault — a table that a later flap
//! replaces before any route is asked of it costs no Dijkstra run at
//! all. [`RoutingTables::compute`] fills every row in full up front
//! (`O(n²)` memory): it is the eager reference the tests and the
//! benchmark's routing probe compare against.
//!
//! Because each entry is a pure function of (topology, dst, src), every
//! table returns byte-identical routes regardless of fill policy or
//! query order. [`RoutingTables::row_builds`] counts the builds.

use crate::dijkstra::{dijkstra_until, DijkstraScratch, Metric};
use crate::graph::{NodeId, Topology};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Row entry: no next hop (`src == dst` or unreachable).
const NONE: u32 = u32::MAX;
/// Row entry: not settled by the row's partial build yet.
const UNKNOWN: u32 = u32::MAX - 1;

/// How many rows a [`RoutingTables`] has built, by kind (a deterministic
/// work counter: identical on every host for the same query sequence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowBuilds {
    /// First builds of a row, stopped once the asking router settled.
    pub partial: u64,
    /// Builds that ran the Dijkstra to completion: a row's second build,
    /// or every row of [`RoutingTables::compute`].
    pub full: u64,
}

/// What a row miss works with, behind one lock.
#[derive(Debug, Default)]
struct Builder {
    scratch: DijkstraScratch,
    builds: RowBuilds,
}

/// Per-node unicast next-hop tables (`next_hop(src, dst)` semantics).
#[derive(Debug)]
pub struct RoutingTables {
    topo: Topology,
    /// `rows[dst][src]` is the next hop from `src` toward `dst`;
    /// [`NONE`] encodes "none", [`UNKNOWN`] "not built yet". Entries are
    /// written only under the `builder` lock, and a known entry never
    /// changes.
    rows: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// Dijkstra working memory and build counters, taken only on a miss.
    builder: Mutex<Builder>,
}

impl RoutingTables {
    /// Build next-hop tables for the whole topology (delay as the
    /// metric, matching a link-state IGP) with every row filled in full
    /// up front.
    pub fn compute(topo: &Topology) -> Self {
        let rt = RoutingTables::on_demand(topo.clone());
        {
            let b = &mut *rt.builder.lock().expect("routing lock");
            for dst in topo.nodes() {
                rt.build(dst, None, b);
            }
        }
        rt
    }

    /// Tables over `topo` with no row built: each destination's row is
    /// built when a route toward it is first asked for.
    pub fn on_demand(topo: Topology) -> Self {
        let rows = (0..topo.node_count()).map(|_| OnceLock::new()).collect();
        RoutingTables {
            topo,
            rows,
            builder: Mutex::new(Builder::default()),
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
            .map(|r| std::mem::size_of_val::<[AtomicU32]>(r))
            .sum()
    }

    /// Rows built so far, partial and full.
    pub fn row_builds(&self) -> RowBuilds {
        self.builder.lock().expect("routing lock").builds
    }

    /// `src`'s entry in the row toward `dst`, building the row far
    /// enough on a miss. Never [`UNKNOWN`].
    ///
    /// Relaxed loads suffice: a known entry never changes, and a reader
    /// that finds an entry unknown re-reads it under the builder lock,
    /// which orders it after every earlier build.
    fn entry(&self, src: NodeId, dst: NodeId) -> u32 {
        let cell = &self.rows[dst.index()];
        let known = |row: &[AtomicU32]| {
            let v = row[src.index()].load(Ordering::Relaxed);
            (v != UNKNOWN).then_some(v)
        };
        if let Some(v) = cell.get().and_then(|row| known(row)) {
            return v;
        }
        let b = &mut *self.builder.lock().expect("routing lock");
        let row = match cell.get() {
            None => self.build(dst, Some(src), b),
            Some(row) => match known(row) {
                // Another thread built the entry meanwhile.
                Some(v) => return v,
                None => self.build(dst, None, b),
            },
        };
        row[src.index()].load(Ordering::Relaxed)
    }

    /// Run the Dijkstra rooted at `dst` — stopping once `stop` is
    /// settled, when given — and record every final next hop in `dst`'s
    /// row. Caller holds the builder lock.
    fn build(&self, dst: NodeId, stop: Option<NodeId>, b: &mut Builder) -> &[AtomicU32] {
        let n = self.topo.node_count();
        let tree = dijkstra_until(&self.topo, dst, Metric::Delay, stop, &mut b.scratch);
        // An unreachable stop node exhausts the heap: then every entry
        // is final, as after a full run.
        let partial = stop.is_some_and(|s| b.scratch.settled(s));
        let row = self.rows[dst.index()]
            .get_or_init(|| (0..n).map(|_| AtomicU32::new(UNKNOWN)).collect());
        for src in self.topo.nodes() {
            // First hop of src->dst = predecessor of src in the tree
            // rooted at dst (path reversal under symmetric links); the
            // root itself has none.
            if !partial || b.scratch.settled(src) {
                let hop = tree.predecessor(src).map_or(NONE, |p| p.0);
                row[src.index()].store(hop, Ordering::Relaxed);
            }
        }
        b.scratch.recycle(tree);
        if stop.is_some() {
            b.builds.partial += 1;
        } else {
            b.builds.full += 1;
        }
        row
    }

    /// Next hop on the unicast route from `src` to `dst`.
    ///
    /// `None` when `src == dst` or `dst` is unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let v = self.entry(src, dst);
        (v != NONE).then_some(NodeId(v))
    }

    /// Materialise the full hop-by-hop route `src -> … -> dst`. Every
    /// hop after the first is settled whenever `src` is, so only the
    /// first can miss.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            out.push(cur);
            if out.len() > self.node_count() {
                unreachable!("routing loop from {src:?} to {dst:?}");
            }
        }
        Some(out)
    }
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
    fn one_source_builds_one_partial_row_per_destination() {
        let t = crate::topology::regular::grid(4, 4, LinkWeight::new(1, 1));
        let rt = RoutingTables::on_demand(t.clone());
        let src = NodeId(5);
        for _ in 0..2 {
            for dst in t.nodes() {
                rt.next_hop(src, dst);
                rt.route(src, dst).expect("connected");
            }
        }
        let n = t.node_count() as u64;
        assert_eq!(
            rt.row_builds(),
            RowBuilds {
                partial: n,
                full: 0
            }
        );
    }

    #[test]
    fn one_destination_from_every_source_builds_at_most_twice() {
        let t = crate::topology::regular::grid(4, 4, LinkWeight::new(1, 1));
        let dst = NodeId(0);
        // Nearest source first: its partial build stops early, and the
        // farthest corner then completes the row.
        let rt = RoutingTables::on_demand(t.clone());
        for src in [NodeId(1), NodeId(15)].into_iter().chain(t.nodes()) {
            rt.route(src, dst).expect("connected");
        }
        assert_eq!(
            rt.row_builds(),
            RowBuilds {
                partial: 1,
                full: 1
            }
        );
        // Farthest source first: the partial build settles everything
        // the other sources need.
        let rt = RoutingTables::on_demand(t.clone());
        for src in (0..t.node_count() as u32).rev().map(NodeId) {
            rt.next_hop(src, dst);
        }
        assert_eq!(
            rt.row_builds(),
            RowBuilds {
                partial: 1,
                full: 0
            }
        );
        assert_eq!(
            RoutingTables::compute(&t).row_builds(),
            RowBuilds {
                partial: 0,
                full: t.node_count() as u64
            }
        );
    }

    #[test]
    fn partial_rows_stop_at_zero_delay_ties() {
        // Every node of this graph is at delay 0 from every other, so
        // the asking router settles while nodes it ties with are still
        // unsettled; its answer must be the full run's anyway.
        let mut b = TopologyBuilder::new(6);
        for (a, c) in [(0, 4), (4, 3), (0, 1), (1, 3), (3, 2), (2, 5), (5, 0)] {
            b.add_link(NodeId(a), NodeId(c), LinkWeight::new(0, 1));
        }
        let t = b.build();
        let full = RoutingTables::compute(&t);
        let mut stopped_early = 0;
        for src in t.nodes() {
            for dst in t.nodes() {
                let rt = RoutingTables::on_demand(t.clone());
                assert_eq!(rt.next_hop(src, dst), full.next_hop(src, dst));
                assert_eq!(rt.route(src, dst), full.route(src, dst));
                assert_eq!(
                    rt.row_builds(),
                    RowBuilds {
                        partial: 1,
                        full: 0
                    }
                );
                let row = rt.rows[dst.index()].get().expect("row built");
                if row.iter().any(|e| e.load(Ordering::Relaxed) == UNKNOWN) {
                    stopped_early += 1;
                }
            }
        }
        assert!(stopped_early > 0, "no partial build stopped early");
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
