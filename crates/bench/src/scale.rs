//! Path-layer scaling study: 1k–10k-node domains under the on-demand
//! provider.
//!
//! The paper stops at 50-node Waxman graphs; the ROADMAP's first open
//! item is that the eager `O(n²)` `P_sl`/`P_lc` tables are what dies
//! first beyond that. This bench drives the layers that replaced them —
//! CSR [`Topology`], [`OnDemandPaths`], on-demand [`scmp_net::RoutingTables`]
//! — at GT-ITM transit–stub and Waxman sizes the old code could not
//! reach, and *measures* the `O(n²) → O(n·cached)` claim instead of
//! asserting it:
//!
//! * a **curve** over n: resident topology/path/routing bytes, provider
//!   cache statistics, DCDM tree totals under a Zipf-popularity group
//!   workload, plus one SCMP engine run per size (events processed,
//!   delivery check);
//! * one **fig8/fig9-shaped** experiment at 5k nodes: SCMP vs CBT vs
//!   MOSPF overhead and end-to-end delay across group sizes (full runs
//!   only — DVMRP's domain-wide floods are exactly the non-scalable
//!   behaviour this study avoids);
//! * per-cell **timing** (tree-build latency, events/sec, peak RSS),
//!   kept in a separate report section that the serial-vs-parallel
//!   byte-identity guard does not compare — wall-clock is the one thing
//!   a worker pool may legitimately change.
//!
//! `run(smoke, jobs)` fans cells out on the [`SweepRunner`]; everything
//! deterministic folds in fixed cell order, so any `jobs` value yields
//! the same [`ScaleReport::deterministic_json`].

use crate::sweep::SweepRunner;
use rand::Rng;
use scmp_net::rng::rng_for;
use scmp_net::topology::{transit_stub, waxman, WaxmanConfig};
use scmp_net::{NodeId, OnDemandPaths, PathProvider, Topology};
use scmp_protocols::{build_engine, ProtocolKind, ProtocolParams};
use scmp_sim::{AppEvent, EngineRunner, GroupId, SimStats};
use scmp_tree::{Dcdm, DelayBound};
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Instant;

/// One simulated "second" in engine ticks (matches `netperf`).
const SECOND: u64 = 50_000;
/// Data packets per engine run.
const PACKETS: u64 = 5;
const GROUP: GroupId = GroupId(1);
/// Grid side for generated topologies (the paper's §IV value).
const GRID: i64 = 32_767;
/// The single seed of the study (scaling curves sweep n, not seeds).
const SEED: u64 = 1;

/// Topology family swept by the curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Family {
    /// GT-ITM two-level transit–stub hierarchy.
    TransitStub,
    /// Waxman random graph (the paper's §IV-A model).
    Waxman,
}

impl Family {
    /// Output label.
    pub fn label(self) -> &'static str {
        match self {
            Family::TransitStub => "transit-stub",
            Family::Waxman => "waxman",
        }
    }

    /// Build an instance with roughly `target` nodes (transit–stub
    /// quantises to its `t·(1 + s·k)` grid).
    pub fn build(self, target: usize) -> Topology {
        let mut rng = rng_for("scale-topo", SEED ^ ((target as u64) << 20));
        match self {
            Family::TransitStub => {
                let (t, s, k) = transit_stub_params(target);
                transit_stub(t, s, k, GRID, &mut rng)
            }
            Family::Waxman => {
                // Density parameters scaled down with n so the edge
                // count stays O(n) (the paper's β at n = 10k would give
                // a near-clique).
                let beta = (40.0 / target as f64).min(0.2);
                waxman(
                    &WaxmanConfig {
                        n: target,
                        alpha: 0.25,
                        beta,
                        grid: GRID,
                        min_delay_one: true,
                    },
                    &mut rng,
                )
            }
        }
    }
}

/// Transit–stub shape for a node-count target: 10 transit nodes, 9 stub
/// domains each, stub size chosen so `10·(1 + 9k) ≥ target`.
pub fn transit_stub_params(target: usize) -> (usize, usize, usize) {
    let (t, s) = (10usize, 9usize);
    let k = (target / t).saturating_sub(1).div_ceil(s);
    (t, s, k.max(1))
}

/// Zipf sampler over ranks `0..n` with exponent `s`, via a cumulative
/// table (the vendored `rand` has no Zipf distribution).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Table for `n` ranks, popularity `∝ 1/(rank+1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Deterministic measurements of one curve point. Everything here must
/// be identical across worker counts and repeated runs.
#[derive(Clone, Debug, Serialize)]
pub struct CurveRow {
    pub family: String,
    /// Actual node count (transit–stub quantises the target).
    pub n: usize,
    pub edges: usize,
    /// CSR topology bytes (offset + edge arrays + edge list + coords).
    pub topo_bytes: usize,
    /// Zipf workload shape.
    pub groups: usize,
    pub joins: usize,
    /// Provider cache counters after the workload.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub resident_trees: usize,
    /// Resident path-state bytes after the workload (the lazy number).
    pub path_bytes: usize,
    /// What the eager all-pairs tables would hold for this n (2n trees)
    /// — the counterfactual the sub-quadratic claim is judged against.
    pub all_pairs_bytes: usize,
    /// Σ tree cost / delay over the workload's final trees (regression
    /// canary: tree shapes must not drift with provider internals).
    pub sum_tree_cost: u64,
    pub sum_tree_delay: u64,
    /// SCMP engine run at this size: events processed and delivery.
    pub engine_events: u64,
    pub all_delivered: bool,
}

/// Deterministic measurements of one 5k fig-shaped cell.
#[derive(Clone, Debug, Serialize)]
pub struct FigRow {
    pub protocol: String,
    pub n: usize,
    pub group_size: usize,
    pub data_overhead: u64,
    pub protocol_overhead: u64,
    pub p50_e2e_delay: u64,
    pub max_e2e_delay: u64,
    pub all_delivered: bool,
    pub engine_events: u64,
}

/// Wall-clock / memory observations. Excluded from the determinism
/// guard: worker interleaving and allocator state may legitimately move
/// these.
#[derive(Clone, Debug, Serialize)]
pub struct TimingRow {
    pub label: String,
    pub n: usize,
    pub topo_build_ms: f64,
    /// Whole Zipf workload (curve cells) or engine drive (fig cells).
    pub workload_ms: f64,
    /// DCDM join latency over the workload (µs); 0 for fig cells.
    pub join_mean_us: f64,
    pub join_max_us: f64,
    pub engine_ms: f64,
    pub events_per_sec: f64,
    /// Process peak RSS after the cell (`VmHWM`; cumulative across
    /// cells by nature).
    pub peak_rss_bytes: Option<u64>,
    /// Process current RSS after the cell (`VmRSS`).
    pub current_rss_bytes: Option<u64>,
}

/// Full study output, written to `bench_results/scale.json`.
#[derive(Debug, Serialize)]
pub struct ScaleReport {
    pub smoke: bool,
    pub curve: Vec<CurveRow>,
    pub fig_5k: Vec<FigRow>,
    pub timing: Vec<TimingRow>,
}

impl ScaleReport {
    /// The portion the serial-vs-parallel guard byte-compares.
    pub fn deterministic_json(&self) -> String {
        format!(
            "{{\"curve\":{},\"fig_5k\":{}}}",
            serde_json::to_string(&self.curve).expect("serialise"),
            serde_json::to_string(&self.fig_5k).expect("serialise")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), bytes.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:")
}

fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line[field.len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[derive(Clone, Copy, Debug)]
enum Cell {
    Curve {
        family: Family,
        target: usize,
    },
    Fig {
        proto: ProtocolKind,
        group_size: usize,
    },
}

/// Node-count targets for the curve.
pub fn curve_targets(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![300, 600, 1000]
    } else {
        vec![1000, 2000, 5000, 10_000]
    }
}

fn cells(smoke: bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for family in [Family::TransitStub, Family::Waxman] {
        for target in curve_targets(smoke) {
            out.push(Cell::Curve { family, target });
        }
    }
    if !smoke {
        for group_size in [25usize, 50, 100] {
            for proto in [ProtocolKind::Scmp, ProtocolKind::Cbt, ProtocolKind::Mospf] {
                out.push(Cell::Fig { proto, group_size });
            }
        }
    }
    out
}

/// Run the study on `jobs` workers. Deterministic output is invariant
/// in `jobs`; timings are not.
pub fn run(smoke: bool, jobs: usize) -> ScaleReport {
    let runner = SweepRunner::new(jobs);
    let all = cells(smoke);
    let outcomes = runner.run(&all, |_, &cell| match cell {
        Cell::Curve { family, target } => {
            let (row, t) = run_curve_cell(family, target, smoke);
            (Some(row), None, t)
        }
        Cell::Fig { proto, group_size } => {
            let (row, t) = run_fig_cell(proto, group_size);
            (None, Some(row), t)
        }
    });
    let mut report = ScaleReport {
        smoke,
        curve: Vec::new(),
        fig_5k: Vec::new(),
        timing: Vec::new(),
    };
    for (curve, fig, timing) in outcomes {
        report.curve.extend(curve);
        report.fig_5k.extend(fig);
        report.timing.push(timing);
    }
    report
}

/// Zipf workload shape for one curve point.
fn workload_shape(n: usize, smoke: bool) -> (usize, usize) {
    let groups = if smoke { 16 } else { 32 };
    let joins = if smoke {
        (n / 4).min(200)
    } else {
        (n / 4).min(1000)
    };
    (groups, joins.max(groups))
}

fn run_curve_cell(family: Family, target: usize, smoke: bool) -> (CurveRow, TimingRow) {
    let t0 = Instant::now();
    let topo = family.build(target);
    let topo_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n = topo.node_count();
    let provider = OnDemandPaths::from_topology(&topo);

    // Zipf-popularity membership churn over G groups: each join event
    // picks its group by rank popularity and grafts a uniformly-drawn
    // member with DCDM, exactly what the m-router would run.
    let (groups, joins) = workload_shape(n, smoke);
    let zipf = Zipf::new(groups, 1.0);
    let mut rng = rng_for("scale-members", SEED ^ ((target as u64) << 8));
    let roots: Vec<NodeId> = (0..groups)
        .map(|_| NodeId(rng.gen_range(0..n as u32)))
        .collect();
    let mut dcdms: Vec<Dcdm> = roots
        .iter()
        .map(|&r| Dcdm::new(&topo, &provider, r, DelayBound::Dynamic))
        .collect();
    let mut members: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); groups];
    let mut done = 0usize;
    let mut lat_sum_us = 0.0f64;
    let mut lat_max_us = 0.0f64;
    let w0 = Instant::now();
    for _ in 0..joins {
        let g = zipf.sample(&mut rng);
        let mut m = NodeId(rng.gen_range(0..n as u32));
        let mut tries = 0;
        while (members[g].contains(&m) || m == roots[g]) && tries < 16 {
            m = NodeId(rng.gen_range(0..n as u32));
            tries += 1;
        }
        if members[g].contains(&m) || m == roots[g] {
            continue; // group saturated this draw; keep the rng stream
        }
        let j0 = Instant::now();
        dcdms[g].join(m);
        let us = j0.elapsed().as_secs_f64() * 1e6;
        lat_sum_us += us;
        lat_max_us = lat_max_us.max(us);
        members[g].insert(m);
        done += 1;
    }
    let workload_ms = w0.elapsed().as_secs_f64() * 1e3;
    let stats = provider.stats();
    let per_tree = provider
        .tree(roots[0], scmp_net::Metric::Delay)
        .resident_bytes();
    let sum_tree_cost: u64 = dcdms.iter().map(|d| d.tree().tree_cost(&topo)).sum();
    let sum_tree_delay: u64 = dcdms.iter().map(|d| d.tree().tree_delay(&topo)).sum();

    // One SCMP engine run at this size: does the full control plane
    // (JOIN → DCDM → TREE/BRANCH distribution → data delivery) hold up,
    // and at what event rate?
    let e0 = Instant::now();
    let (engine_events, all_delivered) = engine_run(&topo, smoke);
    let engine_ms = e0.elapsed().as_secs_f64() * 1e3;

    let row = CurveRow {
        family: family.label().to_string(),
        n,
        edges: topo.edges().len(),
        topo_bytes: topo.resident_bytes(),
        groups,
        joins: done,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        resident_trees: stats.resident,
        path_bytes: provider.resident_path_bytes(),
        all_pairs_bytes: 2 * n * per_tree,
        sum_tree_cost,
        sum_tree_delay,
        engine_events,
        all_delivered,
    };
    let timing = TimingRow {
        label: format!("curve/{}", family.label()),
        n,
        topo_build_ms,
        workload_ms,
        join_mean_us: if done > 0 {
            lat_sum_us / done as f64
        } else {
            0.0
        },
        join_max_us: lat_max_us,
        engine_ms,
        events_per_sec: if engine_ms > 0.0 {
            engine_events as f64 / (engine_ms / 1e3)
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
        current_rss_bytes: current_rss_bytes(),
    };
    (row, timing)
}

/// Draw `count` distinct non-`center` nodes.
fn draw_members(topo: &Topology, center: NodeId, count: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = topo.node_count() as u32;
    let mut picked = BTreeSet::new();
    while picked.len() < count.min(topo.node_count() - 1) {
        let v = NodeId(rng.gen_range(0..n));
        if v != center {
            picked.insert(v);
        }
    }
    picked.into_iter().collect()
}

/// An off-tree source: a neighbour of `center` outside the group, as in
/// the §IV-B setup.
fn pick_source(topo: &Topology, center: NodeId, members: &[NodeId]) -> NodeId {
    topo.neighbors(center)
        .iter()
        .map(|e| e.to)
        .find(|v| !members.contains(v))
        .unwrap_or(center)
}

/// Farthest shortest-delay distance from `center` — the propagation
/// horizon the send schedule must respect. The paper-scale benches get
/// away with a fixed 4-second settle; a 10k-node transit–stub's stub
/// rings push one-way delays past it, so here the settle window scales
/// with the topology (deterministic: a pure function of the graph).
fn delay_horizon(topo: &Topology, center: NodeId) -> u64 {
    let spt = scmp_net::dijkstra(topo, center, scmp_net::Metric::Delay);
    topo.nodes()
        .filter_map(|v| spt.distance(v))
        .max()
        .unwrap_or(0)
}

fn drive(e: &mut dyn EngineRunner, members: &[NodeId], source: NodeId, horizon: u64) -> u64 {
    let mut t = 0;
    for &m in members {
        e.schedule_app(t, m, AppEvent::Join(GROUP));
        t += 2_000;
    }
    // JOIN → graft → ack round trips are bounded by a few horizons;
    // settle well past that before the first send.
    let start = t + 4 * SECOND + 4 * horizon;
    for k in 0..PACKETS {
        e.schedule_app(
            start + k * SECOND,
            source,
            AppEvent::Send {
                group: GROUP,
                tag: k + 1,
            },
        );
    }
    e.run_to_quiescence()
}

fn check_delivery(stats: &SimStats, members: &[NodeId]) -> bool {
    members
        .iter()
        .all(|&m| (1..=PACKETS).all(|tag| stats.delivery_count(GROUP, tag, m) == 1))
}

fn engine_run(topo: &Topology, smoke: bool) -> (u64, bool) {
    let center = NodeId(0);
    let mut rng = rng_for("scale-engine", SEED ^ topo.node_count() as u64);
    let members = draw_members(topo, center, if smoke { 16 } else { 32 }, &mut rng);
    let source = pick_source(topo, center, &members);
    let horizon = delay_horizon(topo, center);
    let mut e = build_engine(ProtocolKind::Scmp, topo, &ProtocolParams::new(center));
    let events = drive(e.as_mut(), &members, source, horizon);
    let delivered = check_delivery(e.stats(), &members);
    (events, delivered)
}

fn run_fig_cell(proto: ProtocolKind, group_size: usize) -> (FigRow, TimingRow) {
    let t0 = Instant::now();
    let topo = Family::TransitStub.build(5000);
    let topo_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let center = NodeId(0);
    let mut rng = rng_for("scale-fig", SEED ^ ((group_size as u64) << 16));
    let members = draw_members(&topo, center, group_size, &mut rng);
    let source = pick_source(&topo, center, &members);
    let params = ProtocolParams {
        center,
        dvmrp_prune_timeout: 10 * SECOND,
    };
    let horizon = delay_horizon(&topo, center);
    let e0 = Instant::now();
    let mut e = build_engine(proto, &topo, &params);
    let engine_events = drive(e.as_mut(), &members, source, horizon);
    let engine_ms = e0.elapsed().as_secs_f64() * 1e3;
    let stats = e.stats();
    let row = FigRow {
        protocol: proto.label().to_string(),
        n: topo.node_count(),
        group_size: members.len(),
        data_overhead: stats.data_overhead,
        protocol_overhead: stats.protocol_overhead,
        p50_e2e_delay: stats.e2e_delay_hist.p50(),
        max_e2e_delay: stats.max_end_to_end_delay,
        all_delivered: check_delivery(stats, &members),
        engine_events,
    };
    let timing = TimingRow {
        label: format!("fig5k/{}", proto.label()),
        n: topo.node_count(),
        topo_build_ms,
        workload_ms: engine_ms,
        join_mean_us: 0.0,
        join_max_us: 0.0,
        engine_ms,
        events_per_sec: if engine_ms > 0.0 {
            engine_events as f64 / (engine_ms / 1e3)
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
        current_rss_bytes: current_rss_bytes(),
    };
    (row, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_rank_ordered_and_deterministic() {
        let z = Zipf::new(8, 1.0);
        let mut rng = rng_for("zipf-test", 7);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7]);
        let mut rng2 = rng_for("zipf-test", 7);
        let replay: Vec<usize> = (0..50).map(|_| z.sample(&mut rng2)).collect();
        let mut rng3 = rng_for("zipf-test", 7);
        let again: Vec<usize> = (0..50).map(|_| z.sample(&mut rng3)).collect();
        assert_eq!(replay, again);
    }

    #[test]
    fn transit_stub_params_hit_targets() {
        for target in [300, 1000, 2000, 5000, 10_000] {
            let (t, s, k) = transit_stub_params(target);
            let n = t * (1 + s * k);
            assert!(n >= target, "{target} -> {n}");
            assert!(n < target + target / 2, "{target} -> {n} overshoots");
        }
    }

    #[test]
    fn smoke_curve_cell_is_deterministic_and_subquadratic() {
        let (a, _) = run_curve_cell(Family::TransitStub, 300, true);
        let (b, _) = run_curve_cell(Family::TransitStub, 300, true);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert!(a.all_delivered);
        assert!(
            a.path_bytes < a.all_pairs_bytes / 4,
            "lazy path state ({}) must undercut all-pairs ({}) by 4x+",
            a.path_bytes,
            a.all_pairs_bytes
        );
    }

    #[test]
    fn rss_probe_reads_proc() {
        // Linux-only environment: both fields must parse.
        assert!(peak_rss_bytes().unwrap_or(0) > 0);
        assert!(current_rss_bytes().unwrap_or(0) > 0);
    }
}
