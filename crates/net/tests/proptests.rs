//! Property-based tests for the network substrate.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;
use scmp_net::rng::rng_for;
use scmp_net::topology::{gt_itm_flat, transit_stub, waxman, GtItmConfig, WaxmanConfig};
use scmp_net::{
    dijkstra, AllPairsPaths, LinkWeight, Metric, NodeId, OnDemandPaths, PathProvider,
    RoutingTables, Topology, TopologyBuilder,
};

fn small_waxman(seed: u64, n: usize) -> scmp_net::Topology {
    let cfg = WaxmanConfig {
        n,
        ..WaxmanConfig::default()
    };
    waxman(&cfg, &mut rng_for("prop-waxman", seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generators always produce connected graphs.
    #[test]
    fn generated_graphs_connected(seed in 0u64..1000, n in 2usize..40) {
        let t = small_waxman(seed, n);
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.node_count(), n);
    }

    /// Dijkstra distances satisfy the triangle inequality over links.
    #[test]
    fn dijkstra_triangle_inequality(seed in 0u64..500, n in 3usize..25) {
        let t = small_waxman(seed, n);
        for metric in [Metric::Delay, Metric::Cost] {
            let spt = dijkstra(&t, NodeId(0), metric);
            for &(a, b, w) in t.edges() {
                let da = spt.distance(a).unwrap();
                let db = spt.distance(b).unwrap();
                let w = metric.of(w);
                prop_assert!(da <= db + w);
                prop_assert!(db <= da + w);
            }
        }
    }

    /// Reconstructed shortest paths actually have the reported distance.
    #[test]
    fn path_weight_matches_distance(seed in 0u64..500, n in 2usize..25) {
        let t = small_waxman(seed, n);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                for metric in [Metric::Delay, Metric::Cost] {
                    let p = ap.path(src, dst, metric).unwrap();
                    let w = t.path_weight(&p).unwrap();
                    prop_assert_eq!(metric.of(w), ap.distance(src, dst, metric).unwrap());
                }
            }
        }
    }

    /// Distances are symmetric because links are.
    #[test]
    fn distances_symmetric(seed in 0u64..500, n in 2usize..25) {
        let t = small_waxman(seed, n);
        let ap = AllPairsPaths::compute(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                for m in [Metric::Delay, Metric::Cost] {
                    prop_assert_eq!(ap.distance(a, b, m), ap.distance(b, a, m));
                }
            }
        }
    }

    /// Hop-by-hop unicast routes terminate and realise the shortest delay.
    #[test]
    fn routing_tables_sound(seed in 0u64..500, n in 2usize..20) {
        let t = small_waxman(seed, n);
        let rt = RoutingTables::compute(&t);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let route = rt.route(src, dst).unwrap();
                prop_assert_eq!(route.first().copied(), Some(src));
                prop_assert_eq!(route.last().copied(), Some(dst));
                let w = t.path_weight(&route).unwrap();
                prop_assert_eq!(Some(w.delay), ap.unicast_delay(src, dst));
            }
        }
    }

    /// GT-ITM generator hits its size and stays connected for odd params.
    #[test]
    fn gt_itm_connected(seed in 0u64..200, n in 2usize..30, deg in 1u32..6) {
        let cfg = GtItmConfig { n, average_degree: deg as f64, grid: 1000 };
        let t = gt_itm_flat(&cfg, &mut rng_for("prop-gtitm", seed));
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.node_count(), n);
    }
}

/// A small transit–stub instance (node count is quantised by the
/// generator's `t·(1 + s·k)` shape).
fn small_transit_stub(seed: u64, stub_size: usize) -> scmp_net::Topology {
    transit_stub(3, 2, stub_size, 1000, &mut rng_for("prop-ts", seed))
}

/// The on-demand provider must be observationally identical to the
/// eager tables: same trees, distances and paths — with a
/// tiny cache so eviction-and-recompute is exercised, and again after
/// an explicit `invalidate`.
fn assert_provider_matches(topo: &scmp_net::Topology) -> Result<(), TestCaseError> {
    let ap = AllPairsPaths::compute(topo);
    let od = OnDemandPaths::with_capacity(std::sync::Arc::new(topo.clone()), 2);
    for round in 0..2 {
        if round == 1 {
            PathProvider::invalidate(&od);
        }
        for src in topo.nodes() {
            for m in [Metric::Delay, Metric::Cost] {
                let et = PathProvider::tree(&ap, src, m);
                let lt = od.tree(src, m);
                for v in topo.nodes() {
                    prop_assert_eq!(et.distance(v), lt.distance(v));
                    prop_assert_eq!(et.predecessor(v), lt.predecessor(v));
                }
            }
            for dst in topo.nodes() {
                for m in [Metric::Delay, Metric::Cost] {
                    prop_assert_eq!(ap.distance(src, dst, m), od.distance(src, dst, m));
                    prop_assert_eq!(ap.path(src, dst, m), od.path(src, dst, m));
                }
            }
        }
    }
    let stats = od.stats();
    prop_assert!(stats.evictions > 0 || topo.node_count() <= 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On-demand ≡ all-pairs on Waxman graphs, across evictions and an
    /// invalidate-and-requery cycle.
    #[test]
    fn on_demand_matches_all_pairs_waxman(seed in 0u64..500, n in 2usize..20) {
        let t = small_waxman(seed, n);
        assert_provider_matches(&t)?;
    }

    /// Same equivalence on hierarchical transit–stub graphs.
    #[test]
    fn on_demand_matches_all_pairs_transit_stub(seed in 0u64..500, stub in 1usize..4) {
        let t = small_transit_stub(seed, stub);
        assert_provider_matches(&t)?;
    }
}

/// `topo` with about a third of its link delays zeroed, so equal-delay
/// ties and zero-delay cycles are common.
fn with_zero_delays(topo: &Topology, seed: u64) -> Topology {
    let mut rng = rng_for("prop-zero-delay", seed);
    let mut b = TopologyBuilder::new(topo.node_count());
    for &(a, bb, w) in topo.edges() {
        let delay = if rng.gen_bool(1.0 / 3.0) { 0 } else { w.delay };
        b.add_link(a, bb, LinkWeight::new(delay, w.cost));
    }
    b.build()
}

/// A prefilled table and an on-demand one queried pair by pair in a
/// shuffled order give the same next hop and route for every pair, and
/// every route realises the shortest delay. The on-demand table builds
/// each row once partially and at most once more in full. Checked on
/// `topo` and again on a subtopology with about a quarter of the links
/// cut.
fn assert_fill_policy_invisible(topo: &Topology, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = rng_for("prop-route-cut", seed);
    let cut = topo.subtopology(|_| true, |_, _| !rng.gen_bool(0.25));
    for t in [topo, &cut] {
        let prefilled = RoutingTables::compute(t);
        let on_demand = RoutingTables::on_demand(t.clone());
        prop_assert_eq!(on_demand.resident_bytes(), 0);
        let ap = AllPairsPaths::compute(t);
        let mut pairs: Vec<(NodeId, NodeId)> = t
            .nodes()
            .flat_map(|src| t.nodes().map(move |dst| (src, dst)))
            .collect();
        pairs.shuffle(&mut rng_for("prop-route-order", seed));
        let mut builds_per_row = vec![0u64; t.node_count()];
        for (src, dst) in pairs {
            let before = on_demand.row_builds();
            prop_assert_eq!(on_demand.next_hop(src, dst), prefilled.next_hop(src, dst));
            let route = on_demand.route(src, dst);
            prop_assert_eq!(&route, &prefilled.route(src, dst));
            let delay = route.map(|r| t.path_weight(&r).expect("valid path").delay);
            prop_assert_eq!(delay, ap.unicast_delay(src, dst));
            let after = on_demand.row_builds();
            builds_per_row[dst.index()] +=
                after.partial + after.full - before.partial - before.full;
        }
        prop_assert_eq!(on_demand.resident_bytes(), prefilled.resident_bytes());
        // Each row: one partial build, then at most one completion.
        prop_assert!(builds_per_row.iter().all(|&b| (1..=2).contains(&b)));
        prop_assert_eq!(on_demand.row_builds().partial, t.node_count() as u64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefilled ≡ on-demand routing tables on Waxman graphs with
    /// zero-delay ties, whole and with links cut.
    #[test]
    fn prefilled_matches_on_demand_waxman(seed in 0u64..500, n in 2usize..25) {
        let t = with_zero_delays(&small_waxman(seed, n), seed);
        assert_fill_policy_invisible(&t, seed)?;
    }

    /// Same equivalence on GT-ITM flat random graphs.
    #[test]
    fn prefilled_matches_on_demand_gt_itm(seed in 0u64..500, n in 2usize..25, deg in 1u32..6) {
        let cfg = GtItmConfig { n, average_degree: deg as f64, grid: 1000 };
        let t = with_zero_delays(&gt_itm_flat(&cfg, &mut rng_for("prop-gtitm", seed)), seed);
        assert_fill_policy_invisible(&t, seed)?;
    }
}
