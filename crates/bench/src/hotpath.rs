//! Engine hot-path microbenchmark: raw event throughput of the
//! discrete-event core, independent of any protocol logic.
//!
//! A dedup-flood protocol (the cheapest state machine that still
//! exercises `send`/`deliver_local` fan-out) floods a 50-node
//! average-degree-5 GT-ITM topology with a burst of payloads. Every
//! flood packet crosses every live link once in each direction, so the
//! event count is dominated by queue push/pop — exactly the path the
//! arena-backed [`scmp_sim::Engine`] queue optimises. The binary writes
//! events/sec and peak queue depth to `bench_results/engine_hotpath.json`;
//! EXPERIMENTS.md tracks the numbers across engine changes.

use scmp_net::rng::rng_for;
use scmp_net::topology::{gt_itm_flat, GtItmConfig};
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, Engine, GroupId, JsonlSink, Packet, RingSink, Router};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// Dedup-flood: forward every unseen payload to all neighbours except
/// the one it came from. The neighbour list is captured once at
/// construction (link liveness lives in the engine's transport, not in
/// its topology, so the list never changes) and the hot path allocates
/// nothing per packet.
struct Flood {
    neighbors: Vec<NodeId>,
    seen: HashSet<u64>,
}

#[derive(Clone, Debug)]
struct Payload;

impl Router for Flood {
    type Msg = Payload;

    fn on_packet(&mut self, from: NodeId, pkt: Packet<Payload>, ctx: &mut Ctx<'_, Payload>) {
        if !self.seen.insert(pkt.tag) {
            ctx.drop_packet();
            return;
        }
        ctx.deliver_local(&pkt);
        for &n in &self.neighbors {
            if n != from {
                ctx.send(n, pkt.clone());
            }
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, Payload>) {
        if let AppEvent::Send { group, tag } = ev {
            self.seen.insert(tag);
            let pkt = Packet::data(group, tag, ctx.now(), Payload);
            ctx.deliver_local(&pkt);
            for &n in &self.neighbors {
                ctx.send(n, pkt.clone());
            }
        }
    }
}

/// Which telemetry sink the benchmark installs — the overhead
/// comparison of EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkMode {
    /// Default `NullSink`: the zero-cost-when-disabled baseline.
    Off,
    /// Bounded in-memory ring (64k events).
    Ring,
    /// JSONL encoding streamed to `io::sink()` — measures the encoding
    /// cost without filesystem noise.
    Jsonl,
}

impl SinkMode {
    /// All modes, in report order.
    pub const ALL: [SinkMode; 3] = [SinkMode::Off, SinkMode::Ring, SinkMode::Jsonl];

    /// Label used in tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SinkMode::Off => "off",
            SinkMode::Ring => "ring",
            SinkMode::Jsonl => "jsonl",
        }
    }
}

/// One timed repetition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HotpathRun {
    /// Events dispatched by the engine.
    pub events: u64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Throughput of this repetition.
    pub events_per_sec: f64,
}

/// The benchmark's JSON artefact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HotpathResult {
    /// Topology label.
    pub topology: String,
    /// Telemetry sink installed during the run.
    pub sink: String,
    /// Node count.
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Flood payloads injected.
    pub sends: u64,
    /// Events dispatched per repetition (identical across reps — the
    /// engine is deterministic).
    pub events: u64,
    /// Deepest the event queue got (same every rep).
    pub peak_queue_depth: usize,
    /// Best observed throughput (the least-noisy estimate).
    pub best_events_per_sec: f64,
    /// Every timed repetition.
    pub runs: Vec<HotpathRun>,
}

fn build_engine() -> Engine<Flood> {
    let topo = gt_itm_flat(&GtItmConfig::paper(5.0), &mut rng_for("engine-hotpath", 0));
    Engine::new(topo, |me, topo, _| Flood {
        neighbors: topo.neighbors(me).iter().map(|e| e.to).collect(),
        seen: HashSet::new(),
    })
}

/// Run the flood benchmark: `sends` payloads injected in bursts of 50
/// (one per node), repeated `reps` times on a fresh engine each rep.
/// Telemetry stays at the default `NullSink`.
pub fn run(sends: u64, reps: u64) -> HotpathResult {
    run_with_sink(sends, reps, SinkMode::Off)
}

/// Like [`run`], with an explicit telemetry sink installed — the
/// telemetry-overhead comparison.
pub fn run_with_sink(sends: u64, reps: u64, mode: SinkMode) -> HotpathResult {
    let mut runs = Vec::new();
    let mut events = 0;
    let mut peak = 0;
    for _ in 0..reps.max(1) {
        let run = one_rep(sends, mode);
        events = run.0.events;
        peak = run.1;
        runs.push(run.0);
    }
    assemble(mode, sends, events, peak, runs)
}

/// All three sink modes measured with their repetitions interleaved
/// round-robin (off, ring, jsonl, off, ring, …), so slow drift in
/// machine load hits every mode equally — sequential per-mode phases
/// were observed to fake double-digit overheads on a busy single-core
/// host. Returns results in [`SinkMode::ALL`] order.
pub fn run_overhead(sends: u64, reps: u64) -> Vec<HotpathResult> {
    let mut per_mode: Vec<Vec<HotpathRun>> = vec![Vec::new(); SinkMode::ALL.len()];
    let mut events = 0;
    let mut peak = 0;
    for _ in 0..reps.max(1) {
        for (i, mode) in SinkMode::ALL.into_iter().enumerate() {
            let run = one_rep(sends, mode);
            events = run.0.events;
            peak = run.1;
            per_mode[i].push(run.0);
        }
    }
    SinkMode::ALL
        .into_iter()
        .zip(per_mode)
        .map(|(mode, runs)| assemble(mode, sends, events, peak, runs))
        .collect()
}

/// Fractional slowdown of `sinked` relative to `off` (0.05 = 5%),
/// estimated from paired repetitions.
///
/// Both results must come from the same interleaved [`run_overhead`]
/// pass: rep `i` of each mode ran adjacent in time, so the ratio
/// within a pair is clean even when machine load drifts across the
/// pass. External noise only ever slows a rep down, so the pair whose
/// ratio is *highest* is the least contaminated — the same reasoning
/// that makes best-of-reps the throughput estimate. Falls back to the
/// ratio of bests when the rep counts differ (foreign baselines).
pub fn paired_overhead(off: &HotpathResult, sinked: &HotpathResult) -> f64 {
    let best_ratio = if off.runs.len() == sinked.runs.len() && !off.runs.is_empty() {
        off.runs
            .iter()
            .zip(&sinked.runs)
            .map(|(o, s)| s.events_per_sec / o.events_per_sec)
            .fold(f64::MIN, f64::max)
    } else {
        sinked.best_events_per_sec / off.best_events_per_sec
    };
    // A lucky pair can push the ratio past 1 (noise hit the off rep);
    // true overhead is never negative, so clamp.
    (1.0 - best_ratio).max(0.0)
}

/// One timed flood on a fresh engine; returns the run and the peak
/// queue depth.
fn one_rep(sends: u64, mode: SinkMode) -> (HotpathRun, usize) {
    let mut e = build_engine();
    let nodes = e.topo().node_count();
    match mode {
        SinkMode::Off => {}
        SinkMode::Ring => e.set_sink(Box::new(RingSink::new(1 << 16))),
        SinkMode::Jsonl => e.set_sink(Box::new(JsonlSink::new(std::io::sink()))),
    }
    // Inject in per-tick bursts (one send per node) so the queue
    // carries many concurrent floods — a deep, realistic heap.
    for tag in 0..sends {
        let node = NodeId((tag % nodes as u64) as u32);
        let time = (tag / nodes as u64) * 10;
        e.schedule_app(
            time,
            node,
            AppEvent::Send {
                group: GroupId(1),
                tag,
            },
        );
    }
    let t0 = Instant::now();
    let n = e.run_to_quiescence();
    let wall = t0.elapsed();
    (
        HotpathRun {
            events: n,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: n as f64 / wall.as_secs_f64().max(1e-9),
        },
        e.peak_queue_depth(),
    )
}

fn assemble(
    mode: SinkMode,
    sends: u64,
    events: u64,
    peak: usize,
    runs: Vec<HotpathRun>,
) -> HotpathResult {
    let probe = build_engine();
    let best = runs
        .iter()
        .map(|r| r.events_per_sec)
        .fold(0.0_f64, f64::max);
    HotpathResult {
        topology: "random50-deg5".to_string(),
        sink: mode.label().to_string(),
        nodes: probe.topo().node_count(),
        edges: probe.topo().edge_count(),
        sends,
        events,
        peak_queue_depth: peak,
        best_events_per_sec: best,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_benchmark_is_deterministic_and_busy() {
        let a = run(200, 1);
        let b = run(200, 1);
        assert_eq!(a.events, b.events, "event count must not vary across runs");
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
        // 200 floods over ~125 edges: well over 10k events.
        assert!(a.events > 10_000, "only {} events", a.events);
        assert!(
            a.peak_queue_depth > 50,
            "queue never got deep: {}",
            a.peak_queue_depth
        );
    }

    #[test]
    fn sink_modes_dispatch_identical_event_counts() {
        // Telemetry must observe, never steer: every sink mode processes
        // exactly the same event stream.
        let off = run_with_sink(100, 1, SinkMode::Off);
        let ring = run_with_sink(100, 1, SinkMode::Ring);
        let jsonl = run_with_sink(100, 1, SinkMode::Jsonl);
        assert_eq!(off.events, ring.events);
        assert_eq!(off.events, jsonl.events);
        assert_eq!(off.peak_queue_depth, ring.peak_queue_depth);
        assert_eq!(off.sink, "off");
        assert_eq!(ring.sink, "ring");
        assert_eq!(jsonl.sink, "jsonl");
    }
}
