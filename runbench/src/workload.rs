//! The three workloads. Every input — topologies, member draws, the
//! application schedule, fault plans and the delivery expectations the
//! oracle checks — is built here from the workload seed, before any
//! timer starts.

use rand::seq::SliceRandom;
use rand::Rng;
use scmp_bench::netperf::{self, TopologyKind};
use scmp_bench::scale::Family;
use scmp_core::placement;
use scmp_core::router::{ReliabilityConfig, ScmpConfig};
use scmp_net::rng::rng_for;
use scmp_net::topology::{gt_itm_flat, GtItmConfig};
use scmp_net::{dijkstra, provider_for, Metric, NodeId, Topology};
use scmp_sim::{AppEvent, FaultKind, FaultPlan, GroupId, SimTime};
use std::collections::BTreeMap;

/// One simulated "second" in engine ticks (the netperf timescale).
const SECOND: SimTime = netperf::SECOND;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperFig89,
    Waxman1kChurn,
    FlapStorm,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperFig89, Kind::Waxman1kChurn, Kind::FlapStorm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperFig89 => "paper-fig89",
            Kind::Waxman1kChurn => "waxman1k-churn",
            Kind::FlapStorm => "flap-storm",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Uniform channel loss on every link from simulated time `from` on.
pub struct Loss {
    pub drop: f64,
    pub seed: u64,
    pub from: SimTime,
}

/// Everything one engine needs, prebuilt. A pass clones the topology
/// and config before its timers start.
pub struct Cell {
    pub topo: Topology,
    pub config: ScmpConfig,
    /// Application events in time order (stable on ties).
    pub apps: Vec<(SimTime, NodeId, AppEvent)>,
    pub faults: FaultPlan,
    pub loss: Option<Loss>,
    /// `run_until` deadline; `None` runs to quiescence.
    pub end: Option<SimTime>,
    /// Every `(group, payload, member)` pair that must arrive exactly
    /// once, derived from `apps` alone.
    pub expected: Vec<(GroupId, u64, NodeId)>,
    /// Distinct ticks at which expanded link events fire, ascending.
    pub link_ticks: Vec<SimTime>,
    /// Primitive link events after family expansion (each one makes the
    /// engine recompute its routing tables).
    pub link_events: u64,
}

impl Cell {
    fn new(
        topo: Topology,
        config: ScmpConfig,
        mut apps: Vec<(SimTime, NodeId, AppEvent)>,
        faults: FaultPlan,
        loss: Option<Loss>,
        end: Option<SimTime>,
    ) -> Cell {
        apps.sort_by_key(|a| a.0);
        let expected = expected_pairs(&apps);
        let specs = faults.expand(&topo).expect("workload fault plan is valid");
        let mut link_ticks: Vec<SimTime> = specs.iter().map(|s| s.time).collect();
        link_ticks.sort_unstable();
        link_ticks.dedup();
        Cell {
            link_events: specs.len() as u64,
            topo,
            config,
            apps,
            faults,
            loss,
            end,
            expected,
            link_ticks,
        }
    }
}

/// The delivery expectation implied by a schedule: each send is owed,
/// exactly once, to every node that joined the group (net of leaves)
/// strictly before it, and to nobody else.
pub fn expected_pairs(apps: &[(SimTime, NodeId, AppEvent)]) -> Vec<(GroupId, u64, NodeId)> {
    let mut members: BTreeMap<(u32, u32), (SimTime, bool)> = BTreeMap::new();
    let mut out = Vec::new();
    for (time, node, ev) in apps {
        match *ev {
            AppEvent::Join(g) => {
                members.insert((g.0, node.0), (*time, true));
            }
            AppEvent::Leave(g) => {
                members.insert((g.0, node.0), (*time, false));
            }
            AppEvent::Send { group, tag } => {
                for (&(g, m), &(since, joined)) in &members {
                    if g == group.0 && joined && since < *time {
                        out.push((group, tag, NodeId(m)));
                    }
                }
            }
        }
    }
    out
}

/// One workload instance: its cells and the topology the traced run
/// times a standalone `RoutingTables::compute` on.
pub struct Workload {
    pub cells: Vec<Cell>,
    pub probe: Topology,
}

pub fn build(kind: Kind, seed: u64) -> Workload {
    let cells = match kind {
        Kind::PaperFig89 => paper_fig89(seed),
        Kind::Waxman1kChurn => vec![waxman1k_churn(seed)],
        Kind::FlapStorm => vec![flap_storm(seed)],
    };
    let probe = cells
        .iter()
        .max_by_key(|c| (c.topo.node_count(), c.topo.edge_count()))
        .expect("a workload has cells")
        .topo
        .clone();
    Workload { cells, probe }
}

/// Netperf seeds per group size in one pass of `paper-fig89`.
pub const FIG89_SEEDS: u64 = 4;

/// The §IV-B matrix (every topology, every group size, [`FIG89_SEEDS`]
/// member draws), SCMP only, driven exactly like the netperf harness:
/// staggered joins, a settle gap, then 30 payloads one "second" apart.
fn paper_fig89(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in TopologyKind::ALL {
        for group_size in kind.group_sizes() {
            for k in 0..FIG89_SEEDS {
                let sc = netperf::scenario(kind, group_size, seed * FIG89_SEEDS + k);
                let group = GroupId(1);
                let mut apps = Vec::new();
                let mut t = 0;
                for &m in &sc.members {
                    apps.push((t, m, AppEvent::Join(group)));
                    t += 2_000;
                }
                let start = t + 4 * SECOND;
                for p in 0..netperf::PACKETS {
                    let tag = p + 1;
                    apps.push((start + p * SECOND, sc.source, AppEvent::Send { group, tag }));
                }
                let config = ScmpConfig::new(sc.center);
                cells.push(Cell::new(
                    sc.topo,
                    config,
                    apps,
                    FaultPlan::new(),
                    None,
                    None,
                ));
            }
        }
    }
    cells
}

/// Farthest shortest-delay distance from `root`.
fn delay_horizon(topo: &Topology, root: NodeId) -> SimTime {
    let spt = dijkstra(topo, root, Metric::Delay);
    topo.nodes()
        .filter_map(|v| spt.distance(v))
        .max()
        .unwrap_or(0)
}

/// `count` distinct nodes outside `exclude`, in draw order.
fn draw_nodes(n: usize, count: usize, exclude: &[NodeId], rng: &mut impl Rng) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|v| !exclude.contains(v))
        .collect();
    pool.shuffle(rng);
    pool.truncate(count);
    pool
}

/// Groups, joins per group and payloads per phase of `waxman1k-churn`.
const CHURN_GROUPS: u32 = 4;
const CHURN_JOINS: usize = 60;
const CHURN_SENDS: u64 = 5;

/// The 1 000-node Waxman domain of the `scale` curve: four groups of
/// sixty joins, five payloads per group, half of every group leaves,
/// five more payloads. Tree building grafts and prunes; the domain is
/// large enough that the m-router runs on the on-demand LRU provider.
fn waxman1k_churn(seed: u64) -> Cell {
    let topo = Family::Waxman.build(1000);
    let n = topo.node_count();
    let center = NodeId(0);
    let horizon = delay_horizon(&topo, center);
    let settle = 4 * SECOND + 4 * horizon;
    let mut rng = rng_for("runbench-waxman1k-churn", seed);
    let mut apps = Vec::new();
    let mut groups = Vec::new();
    for g in 1..=CHURN_GROUPS {
        let drawn = draw_nodes(n, CHURN_JOINS + 1, &[center], &mut rng);
        let (source, members) = drawn.split_last().expect("enough nodes");
        groups.push((GroupId(g), *source, members.to_vec()));
    }
    // Joins interleave across groups, 2 000 ticks apart.
    let mut t = 0;
    for i in 0..CHURN_JOINS {
        for (group, _, members) in &groups {
            apps.push((t, members[i], AppEvent::Join(*group)));
            t += 2_000;
        }
    }
    let sends = |apps: &mut Vec<_>, start: SimTime, first_tag: u64| {
        for k in 0..CHURN_SENDS {
            for (i, (group, source, _)) in groups.iter().enumerate() {
                let at = start + k * SECOND + i as u64 * 1_000;
                let tag = first_tag + k;
                apps.push((at, *source, AppEvent::Send { group: *group, tag }));
            }
        }
    };
    let first = t + settle;
    sends(&mut apps, first, 1);
    // Half of every group leaves (every other member, in join order).
    let mut t = first + CHURN_SENDS * SECOND;
    for (group, _, members) in &groups {
        for &m in members.iter().step_by(2) {
            apps.push((t, m, AppEvent::Leave(*group)));
            t += 2_000;
        }
    }
    sends(&mut apps, t + settle, CHURN_SENDS + 1);
    Cell::new(
        topo,
        ScmpConfig::new(center),
        apps,
        FaultPlan::new(),
        None,
        None,
    )
}

/// Shape of `flap-storm`.
const FLAP_NODES: usize = 200;
const FLAP_MEMBERS: usize = 24;
const FLAP_SENDS: u64 = 200;
const FLAP_LINKS: u32 = 8;
const FLAP_CYCLES: u32 = 20;
const FLAP_LOSS: f64 = 0.05;

/// A 200-node GT-ITM domain (average degree 4) under a flap storm: an
/// m-router with a hot standby, the repair scan, JOIN/LEAVE/TREE
/// retries, the reliability tier and 5% uniform loss, 24 members and
/// 200 payloads sent through 8 links flapping 20 times. The domain is
/// fixed; the seed draws the members, the source, the flapping region
/// and the loss pattern. All protocol timers scale with the domain's
/// delay horizon `h` (GT-ITM link delays are grid distances, so one hop
/// can take thousands of ticks).
fn flap_storm(seed: u64) -> Cell {
    let topo = gt_itm_flat(
        &GtItmConfig {
            n: FLAP_NODES,
            average_degree: 4.0,
            grid: 32_767,
        },
        &mut rng_for("runbench-flap-storm-domain", 0),
    );
    let mut rng = rng_for("runbench-flap-storm", seed);
    let center = placement::min_average_delay(&topo, provider_for(&topo).as_ref());
    let standby = topo
        .neighbors(center)
        .iter()
        .min_by_key(|e| (e.weight.delay, e.to))
        .expect("the m-router has a neighbour")
        .to;
    let h = delay_horizon(&topo, center).max(1);
    let drawn = draw_nodes(
        topo.node_count(),
        FLAP_MEMBERS + 1,
        &[center, standby],
        &mut rng,
    );
    let (&source, members) = drawn.split_last().expect("enough nodes");

    let mut config = ScmpConfig::new(center);
    config.standby = Some(standby);
    config.heartbeat_interval = h;
    config.heartbeat_loss_tolerance = 12;
    config.repair_interval = h;
    config.join_retry = 4 * h;
    config.leave_retry = 4 * h;
    config.tree_retry = 4 * h;
    config.takeover_rebuild_delay = h;
    // More NACK retries and announce rounds than the defaults (8 and 3):
    // a NACK round trip over this domain's long lossy paths fails often
    // enough that the default budget leaves pairs undelivered
    // (WORKLOADS.md has the numbers).
    config.reliability = Some(ReliabilityConfig {
        nack_delay: h / 2,
        nack_jitter: h / 4,
        nack_retries: 32,
        announce_interval: h,
        announce_rounds: 8,
        seed,
        ..ReliabilityConfig::default()
    });

    let group = GroupId(1);
    let mut apps = Vec::new();
    for (i, &m) in members.iter().enumerate() {
        apps.push((i as SimTime * h / 4, m, AppEvent::Join(group)));
    }
    // Members join on a clean channel; the loss starts once the tree has
    // converged (see WORKLOADS.md for why). The payloads then stream
    // through the whole storm: one every `h / 2`, with the links flapping
    // every `5 h` (down for the first half).
    let gap = h / 2;
    let loss_from = 16 * h;
    let first_send = 20 * h;
    let storm_at = first_send + gap / 2;
    let period = FLAP_SENDS * gap / FLAP_CYCLES as u64;
    for k in 0..FLAP_SENDS {
        let tag = k + 1;
        apps.push((first_send + k * gap, source, AppEvent::Send { group, tag }));
    }
    let faults = FaultPlan::new().at(
        storm_at,
        FaultKind::FlapStorm {
            seed,
            links: FLAP_LINKS,
            cycles: FLAP_CYCLES,
            period,
        },
    );
    // NACK retries back off up to 32 h apart, so recovery of the last
    // payloads can take a long simulated tail.
    let end = first_send + FLAP_SENDS * gap + 2000 * h;
    Cell::new(
        topo,
        config,
        apps,
        faults,
        Some(Loss {
            drop: FLAP_LOSS,
            seed,
            from: loss_from,
        }),
        Some(end),
    )
}
