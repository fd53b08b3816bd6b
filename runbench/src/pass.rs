//! One pass over a workload: build and run every cell's engine through
//! the public API, timing the calls from outside, then check the
//! outputs against the schedule-derived oracle.

use crate::alloc::AllocCount;
use crate::trace::Tracer;
use crate::workload::{Cell, Loss, Workload};
use scmp_core::router::{ScmpDomain, ScmpRouter};
use scmp_net::RoutingTables;
use scmp_sim::{ChannelModel, Engine, RingSink, SimStats, Sink, TelemetryEvent};
use scmp_telemetry::profile::{self, Profile, Span as ProfSpan, SpanStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events the traced run's ring keeps per engine (older ones are
/// overwritten; the count covers every event).
const RING_CAPACITY: usize = 1 << 16;

/// A `RingSink` that also counts what it records.
struct CountingRing {
    ring: RingSink,
    count: Arc<AtomicU64>,
}

impl Sink for CountingRing {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.ring.record(ev);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Vec<TelemetryEvent> {
        self.ring.snapshot()
    }
}

/// The simulated outcome of a pass, folded over its cells: summed
/// counters (maxima for `max_*`) plus an FNV-1a hash over every cell's
/// field list in cell order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub fields: Vec<(&'static str, u64)>,
    pub fnv: u64,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn cell_fields(s: &SimStats, events: u64, peak_queue: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("data_overhead", s.data_overhead),
        ("protocol_overhead", s.protocol_overhead),
        ("data_hops", s.data_hops),
        ("control_hops", s.control_hops),
        ("drops", s.drops),
        ("queue_drops", s.queue_drops),
        ("channel_dropped", s.channel_dropped),
        ("channel_duplicated", s.channel_duplicated),
        ("channel_reordered", s.channel_reordered),
        ("channel_corrupted", s.channel_corrupted),
        ("retransmissions", s.retransmissions),
        ("takeovers", s.takeovers),
        ("max_end_to_end_delay", s.max_end_to_end_delay),
        ("e2e_p50", s.e2e_delay_hist.p50()),
        ("e2e_p99", s.e2e_delay_hist.p99()),
        ("faults_injected", s.faults_injected),
        (
            "data_overhead_during_failure",
            s.data_overhead_during_failure,
        ),
        (
            "control_overhead_during_failure",
            s.control_overhead_during_failure,
        ),
        ("repairs", s.repairs),
        ("repair_latency_total", s.repair_latency_total),
        ("nacks_sent", s.nacks_sent),
        ("nacks_suppressed", s.nacks_suppressed),
        ("nacks_forwarded", s.nacks_forwarded),
        ("repair_cache_hits", s.repair_cache_hits),
        ("repair_cache_misses", s.repair_cache_misses),
        ("repair_cache_evictions", s.repair_cache_evictions),
        ("recoveries", s.recoveries),
        ("unknown_kind_drops", s.unknown_kind_drops),
        ("partition_degraded_ticks", s.partition_degraded_ticks),
        ("reconciliations", s.reconciliations),
        ("distinct_deliveries", s.distinct_deliveries() as u64),
        ("events", events),
        ("max_peak_queue_depth", peak_queue),
    ]
}

impl Digest {
    fn new() -> Self {
        Digest {
            fields: Vec::new(),
            fnv: FNV_OFFSET,
        }
    }

    fn fold(&mut self, cell: Vec<(&'static str, u64)>) {
        for &(k, v) in &cell {
            self.fnv = fnv1a(self.fnv, format!("{k}={v};").as_bytes());
        }
        self.fnv = fnv1a(self.fnv, b"|");
        if self.fields.is_empty() {
            self.fields = cell;
            return;
        }
        for ((k, acc), (k2, v)) in self.fields.iter_mut().zip(cell) {
            debug_assert_eq!(*k, k2);
            *acc = if k.starts_with("max_") {
                (*acc).max(v)
            } else {
                *acc + v
            };
        }
    }

    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|f| f.0 == name).map(|f| f.1)
    }
}

/// Delivery oracle tallies: every expected pair is one attempted
/// operation; a missing or duplicated pair, or a delivery nobody was
/// owed, is a failed one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    pub attempted: u64,
    pub delivered: u64,
    pub missing: u64,
    pub duplicated: u64,
    pub unexpected: u64,
}

impl Oracle {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicated + self.unexpected
    }

    fn check(&mut self, cell: &Cell, stats: &SimStats) {
        let mut delivered = 0;
        for &(g, tag, m) in &cell.expected {
            match stats.delivery_count(g, tag, m) {
                0 => self.missing += 1,
                1 => delivered += 1,
                _ => {
                    delivered += 1;
                    self.duplicated += 1;
                }
            }
        }
        self.attempted += cell.expected.len() as u64;
        self.delivered += delivered;
        self.unexpected += (stats.distinct_deliveries() as u64).saturating_sub(delivered);
    }
}

/// Work the layers did in one pass (deterministic counts and wall
/// times).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub domain_ns: u64,
    pub engine_ns: u64,
    pub events: u64,
    pub peak_queue: u64,
    /// The program's own profile spans, summed over the pass's engines
    /// (`max_ns` is the longest single scope).
    pub dispatch: SpanStats,
    pub dcdm: SpanStats,
    pub repair: SpanStats,
    pub resident_path_bytes: u64,
    pub link_events: u64,
    pub telemetry_events: u64,
    /// Wall time of the stepped windows holding each link-event tick.
    pub fault_window_ns: u64,
    /// DCDM + repair-scan time inside those windows (already counted in
    /// `dcdm`/`repair`, so self time subtracts it once).
    pub fault_window_nested_ns: u64,
    /// One bench-timed `RoutingTables::compute` on the probe topology.
    pub routing_compute_ns: u64,
}

/// Everything one pass measured.
#[derive(Clone, Debug)]
pub struct PassOut {
    pub setup_ns: u64,
    pub run_ns: u64,
    pub alloc_setup: AllocCount,
    pub alloc_run: AllocCount,
    pub digest: Digest,
    pub oracle: Oracle,
    /// Per-cell means of the Fig. 8/9 quantities.
    pub data_overhead: f64,
    pub protocol_overhead: f64,
    pub max_e2e_delay: f64,
    pub layers: Layers,
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

fn profile_counts(p: &Profile) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for (span, count, total) in [
        (ProfSpan::DcdmBuild, "dcdm_build.count", "dcdm_build.ns"),
        (ProfSpan::RepairScan, "repair_scan.count", "repair_scan.ns"),
        (
            ProfSpan::DispatchBatch,
            "dispatch_batch.count",
            "dispatch_batch.ns",
        ),
    ] {
        let s = p.get(span);
        out.push((count, s.count));
        out.push((total, s.total_ns));
    }
    out
}

fn nested_ns(p: &Profile) -> u64 {
    p.get(ProfSpan::DcdmBuild).total_ns + p.get(ProfSpan::RepairScan).total_ns
}

fn alloc_counts(a: AllocCount) -> Vec<(&'static str, u64)> {
    vec![("alloc.count", a.count), ("alloc.bytes", a.bytes)]
}

/// Start the cell's channel loss (between two `run_until` windows).
fn install(engine: &mut Engine<ScmpRouter>, loss: &Loss) {
    engine.set_channel(ChannelModel::uniform_loss(loss.drop, loss.seed));
}

/// The `SimStats` counters a run window reports as deltas.
fn sim_counts(s: &SimStats) -> [u64; 4] {
    [
        s.data_overhead,
        s.protocol_overhead,
        s.drops,
        s.distinct_deliveries() as u64,
    ]
}

/// One traced `run_until` window (to quiescence when `to` is `None`).
/// Returns the events processed, the window's wall time, and the
/// DCDM/repair time nested inside it.
fn step(
    t: &mut Tracer,
    engine: &mut Engine<ScmpRouter>,
    to: Option<u64>,
    fault: bool,
    parent: usize,
    cell: usize,
) -> (u64, u64, u64) {
    let before = sim_counts(engine.stats());
    let p0 = profile::snapshot();
    let a0 = AllocCount::now();
    let w0 = Instant::now();
    let n = match to {
        Some(d) => engine.run_until(d),
        None => engine.run_to_quiescence(),
    };
    let w1 = Instant::now();
    let mut counts = alloc_counts(AllocCount::since(a0));
    counts.push(("fault_tick", fault as u64));
    counts.push(("events", n));
    let after = sim_counts(engine.stats());
    for (k, (a, b)) in ["data_overhead", "protocol_overhead", "drops", "deliveries"]
        .into_iter()
        .zip(after.into_iter().zip(before))
    {
        counts.push((k, a - b));
    }
    t.record("run.window", Some(parent), Some(cell), (w0, w1), counts);
    let nested = nested_ns(&profile::snapshot()) - nested_ns(&p0);
    (n, ns(w0, w1), nested)
}

/// Run one pass. With a tracer the pass records spans, installs a
/// counting ring sink on every engine, and steps each faulted engine
/// with `run_until` to every link-event tick.
pub fn run_pass(w: &Workload, mut tracer: Option<&mut Tracer>) -> PassOut {
    let mut out = PassOut {
        setup_ns: 0,
        run_ns: 0,
        alloc_setup: AllocCount::default(),
        alloc_run: AllocCount::default(),
        digest: Digest::new(),
        oracle: Oracle::default(),
        data_overhead: 0.0,
        protocol_overhead: 0.0,
        max_e2e_delay: 0.0,
        layers: Layers::default(),
    };
    let pass_alloc = AllocCount::now();
    let pass_start = Instant::now();
    let pass_span = tracer
        .as_deref_mut()
        .map(|t| t.open("pass", None, None, pass_start));
    let telemetry = Arc::new(AtomicU64::new(0));

    for (i, cell) in w.cells.iter().enumerate() {
        // Inputs: copied before any timer starts.
        let topo = cell.topo.clone();
        let config = cell.config.clone();
        profile::reset();
        let cell_alloc = AllocCount::now();
        let cell_start = Instant::now();
        let cell_span = tracer
            .as_deref_mut()
            .map(|t| t.open("cell", pass_span, Some(i), cell_start));

        let a0 = AllocCount::now();
        let t0 = Instant::now();
        let domain = ScmpDomain::new(topo, config);
        let t1 = Instant::now();
        let a1 = AllocCount::now();
        let shared = Arc::clone(&domain);
        let mut engine = Engine::new(domain.topo.clone(), move |me, _, _| {
            ScmpRouter::new(me, Arc::clone(&shared))
        });
        let t2 = Instant::now();
        let a2 = AllocCount::now();
        for (time, node, ev) in &cell.apps {
            engine.schedule_app(*time, *node, ev.clone());
        }
        if !cell.faults.is_empty() {
            engine.schedule_fault_plan(&cell.faults);
        }
        if tracer.is_some() {
            engine.set_sink(Box::new(CountingRing {
                ring: RingSink::new(RING_CAPACITY),
                count: Arc::clone(&telemetry),
            }));
        }
        let t3 = Instant::now();
        let a3 = AllocCount::now();

        let mut events = 0;
        let run_start = Instant::now();
        let run_alloc = AllocCount::now();
        match tracer.as_deref_mut() {
            None => {
                if let Some(loss) = &cell.loss {
                    events += engine.run_until(loss.from);
                    install(&mut engine, loss);
                }
                events += match cell.end {
                    Some(end) => engine.run_until(end),
                    None => engine.run_to_quiescence(),
                };
            }
            Some(t) => {
                let run_span = t.open("run", cell_span, Some(i), run_start);
                let mut loss = cell.loss.as_ref();
                for &tick in &cell.link_ticks {
                    if let Some(l) = loss.filter(|l| l.from < tick) {
                        events += step(t, &mut engine, Some(l.from), false, run_span, i).0;
                        install(&mut engine, l);
                        loss = None;
                    }
                    if tick > 0 {
                        events += step(t, &mut engine, Some(tick - 1), false, run_span, i).0;
                    }
                    let (n, wall, nested) = step(t, &mut engine, Some(tick), true, run_span, i);
                    events += n;
                    out.layers.fault_window_ns += wall;
                    out.layers.fault_window_nested_ns += nested;
                }
                if let Some(l) = loss {
                    events += step(t, &mut engine, Some(l.from), false, run_span, i).0;
                    install(&mut engine, l);
                }
                events += step(t, &mut engine, cell.end, false, run_span, i).0;
                let counts = alloc_counts(AllocCount::since(run_alloc));
                t.close(run_span, Instant::now(), counts);
            }
        }
        let run_end = Instant::now();
        let run_alloc = AllocCount::since(run_alloc);

        out.setup_ns += ns(t0, t3);
        out.run_ns += ns(run_start, run_end);
        out.alloc_setup.add(AllocCount {
            count: a3.count - a0.count,
            bytes: a3.bytes - a0.bytes,
        });
        out.alloc_run.add(run_alloc);
        out.layers.domain_ns += ns(t0, t1);
        out.layers.engine_ns += ns(t1, t2);

        let prof = profile::snapshot();
        let stats = engine.stats();
        out.oracle.check(cell, stats);
        out.digest
            .fold(cell_fields(stats, events, engine.peak_queue_depth() as u64));
        out.data_overhead += stats.data_overhead as f64;
        out.protocol_overhead += stats.protocol_overhead as f64;
        out.max_e2e_delay += stats.max_end_to_end_delay as f64;
        let l = &mut out.layers;
        l.events += events;
        l.peak_queue = l.peak_queue.max(engine.peak_queue_depth() as u64);
        for (acc, span) in [
            (&mut l.dispatch, ProfSpan::DispatchBatch),
            (&mut l.dcdm, ProfSpan::DcdmBuild),
            (&mut l.repair, ProfSpan::RepairScan),
        ] {
            let s = prof.get(span);
            acc.count += s.count;
            acc.total_ns += s.total_ns;
            acc.max_ns = acc.max_ns.max(s.max_ns);
        }
        l.resident_path_bytes += domain.paths.resident_path_bytes() as u64;
        l.link_events += cell.link_events;

        if let Some(t) = tracer.as_deref_mut() {
            let cs = cell_span.expect("traced");
            t.record(
                "domain_new",
                Some(cs),
                Some(i),
                (t0, t1),
                vec![
                    ("alloc.count", a1.count - a0.count),
                    ("alloc.bytes", a1.bytes - a0.bytes),
                ],
            );
            t.record(
                "engine_new",
                Some(cs),
                Some(i),
                (t1, t2),
                vec![
                    ("alloc.count", a2.count - a1.count),
                    ("alloc.bytes", a2.bytes - a1.bytes),
                ],
            );
            t.record(
                "schedule",
                Some(cs),
                Some(i),
                (t2, t3),
                vec![
                    ("alloc.count", a3.count - a2.count),
                    ("alloc.bytes", a3.bytes - a2.bytes),
                ],
            );
            let mut counts = alloc_counts(AllocCount::since(cell_alloc));
            counts.extend(profile_counts(&prof));
            t.close(cs, Instant::now(), counts);
        }
    }

    let cells = w.cells.len() as f64;
    out.data_overhead /= cells;
    out.protocol_overhead /= cells;
    out.max_e2e_delay /= cells;
    out.layers.telemetry_events = telemetry.load(Ordering::Relaxed);

    if let Some(t) = tracer {
        let r0 = Instant::now();
        let routes = RoutingTables::compute(&w.probe);
        let r1 = Instant::now();
        drop(routes);
        out.layers.routing_compute_ns = ns(r0, r1);
        t.record("routing_compute", pass_span, None, (r0, r1), vec![]);
        let counts = alloc_counts(AllocCount::since(pass_alloc));
        t.close(pass_span.expect("traced"), Instant::now(), counts);
    }
    out
}
