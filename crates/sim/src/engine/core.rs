//! The simulation engine proper: the event loop, fault application,
//! IGP reconvergence and the telemetry events that record them.

use super::queue::{EventKind, EventQueue};
use super::telemetry::Telemetry;
use super::transport::{CapacityModel, Transport};
use super::{AppEvent, Ctx, Router, SimTime};
use crate::channel::ChannelModel;
use crate::fault::{FaultEvent, FaultPlan};
use crate::packet::PacketClass;
use crate::stats::SimStats;
use scmp_net::{NodeId, RoutingTables, Topology};
use scmp_telemetry::{
    DropReason, Event, EventKind as TeleKind, GaugeSample, Sink, Span, TimedScope, TrafficClass,
};

/// The router factory signature: constructs one node's protocol state.
/// `Send` so a whole engine can be handed to a sweep worker thread.
type RouterFactory<R> = Box<dyn FnMut(NodeId, &Topology, &RoutingTables) -> R + Send>;

/// The simulation engine: owns the topology, routing tables, per-node
/// protocol state, the transport condition and the event queue.
pub struct Engine<R: Router> {
    topo: Topology,
    routes: RoutingTables,
    routers: Vec<R>,
    /// The router factory, kept so a crashed router can be cold-restarted
    /// with factory-fresh state (see [`FaultEvent::RouterCrash`]).
    make: RouterFactory<R>,
    queue: EventQueue<R::Msg>,
    now: SimTime,
    stats: SimStats,
    transport: Transport,
    started: bool,
    event_limit: u64,
    events_processed: u64,
    peak_queue: usize,
    tele: Telemetry,
}

/// The structured form of a scheduled fault.
fn fault_event_kind(fault: &FaultEvent) -> TeleKind {
    match *fault {
        FaultEvent::LinkDown { a, b } => TeleKind::LinkDown { a: a.0, b: b.0 },
        FaultEvent::LinkUp { a, b } => TeleKind::LinkUp { a: a.0, b: b.0 },
        FaultEvent::RouterCrash { .. } => TeleKind::RouterCrash,
        FaultEvent::RouterRecover { .. } => TeleKind::RouterRecover,
    }
}

impl<R: Router> Engine<R> {
    /// Build an engine; `make` constructs the protocol state for each
    /// router (it receives the topology and unicast tables so protocols
    /// can precompute). No route is computed here: each unicast row is
    /// built when a route toward its destination is first asked for
    /// ([`RoutingTables::on_demand`]). The factory is retained: a
    /// [`FaultEvent::RouterCrash`] wipes the node's state and a later
    /// recovery rebuilds it through the same factory.
    pub fn new(
        topo: Topology,
        mut make: impl FnMut(NodeId, &Topology, &RoutingTables) -> R + Send + 'static,
    ) -> Self {
        let routes = RoutingTables::on_demand(topo.clone());
        let routers = topo.nodes().map(|v| make(v, &topo, &routes)).collect();
        let n = topo.node_count();
        Engine {
            topo,
            routes,
            routers,
            make: Box::new(make),
            queue: EventQueue::new(),
            now: 0,
            stats: SimStats::default(),
            transport: Transport::new(n),
            started: false,
            event_limit: 50_000_000,
            events_processed: 0,
            peak_queue: 0,
            tele: Telemetry::new(),
        }
    }

    /// Enable the finite link-capacity model (default: infinite
    /// bandwidth, zero queueing).
    pub fn set_capacity(&mut self, model: CapacityModel) {
        self.transport.set_capacity(model);
    }

    /// Install a channel impairment model (default: perfect channels).
    pub fn set_channel(&mut self, model: ChannelModel) {
        self.transport.set_channel(model);
    }

    /// Install a telemetry sink. The sink's enable flag is cached, so a
    /// [`scmp_telemetry::NullSink`] keeps the hot path at one branch per
    /// would-be event.
    pub fn set_sink(&mut self, sink: Box<dyn Sink + Send>) {
        self.tele.set_sink(sink);
    }

    /// Sample the engine gauges (queue depth, down links/nodes,
    /// cumulative deliveries) every `interval` ticks; `0` disables.
    pub fn set_gauge_interval(&mut self, interval: SimTime) {
        self.tele.set_gauge_interval(interval);
    }

    /// The gauge time series sampled so far.
    pub fn gauges(&self) -> &[GaugeSample] {
        self.tele.gauges()
    }

    /// The sink's in-memory event snapshot (empty for the default
    /// [`scmp_telemetry::NullSink`] and for streaming sinks, whose
    /// events already left the process).
    pub fn events(&self) -> Vec<Event> {
        self.tele.snapshot_events()
    }

    /// Flush the telemetry sink (streaming sinks buffer).
    pub fn flush_telemetry(&mut self) {
        self.tele.flush();
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Read a router's protocol state (for assertions and reporting).
    pub fn router(&self, node: NodeId) -> &R {
        &self.routers[node.index()]
    }

    /// True while `node` is in service (not crashed / marked down).
    /// [`Engine::router`] still answers for a down node — a crash wipes
    /// its state to factory-fresh, which for a configured m-router
    /// *claims the role* — so post-run probes (the stress oracle's
    /// split-brain check among them) must filter on liveness.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.transport.node_up(node)
    }

    /// Override the runaway-protection event limit (default 50M).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Deepest the event queue has been, sampled once per dispatched
    /// event (the hot-path benchmark's memory-pressure proxy).
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue
    }

    /// Inject an application event at absolute time `time`.
    pub fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.queue.push(time, node, EventKind::App(ev));
    }

    /// Mark a node up/down. Packets, timers and app events addressed to a
    /// down node are discarded when they fire. The unicast routing
    /// tables reconverge immediately (modelling the domain's link-state
    /// IGP reacting to the failure).
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.transport.set_node_down(node, down);
        self.reconverge_routes();
    }

    /// True while any node or link is out of service — the failure
    /// window for the during-failure overhead counters.
    pub fn degraded(&self) -> bool {
        self.transport.degraded()
    }

    /// Schedule a fault at absolute time `time`. Faults share the event
    /// queue with packets and timers, so a seeded scenario replays
    /// identically. Link faults must name an existing link.
    pub fn schedule_fault(&mut self, time: SimTime, fault: FaultEvent) {
        assert!(time >= self.now, "cannot schedule in the past");
        match fault {
            FaultEvent::LinkDown { a, b } | FaultEvent::LinkUp { a, b } => {
                assert!(self.topo.has_link(a, b), "no such link {a:?}-{b:?}");
            }
            FaultEvent::RouterCrash { node } | FaultEvent::RouterRecover { node } => {
                assert!(
                    node.index() < self.topo.node_count(),
                    "no such node {node:?}"
                );
            }
        }
        self.queue
            .push(time, fault.primary_node(), EventKind::Fault(fault));
    }

    /// Schedule every fault of a [`FaultPlan`], expanding correlated
    /// fault families (partition, regional outage, flap storm) into
    /// their primitive link events first.
    ///
    /// # Panics
    /// If the plan does not validate against the engine's topology; call
    /// [`FaultPlan::validate`] first for a `Result`.
    pub fn schedule_fault_plan(&mut self, plan: &FaultPlan) {
        let specs = plan
            .expand(&self.topo)
            .expect("fault plan invalid for this topology");
        for spec in &specs {
            self.schedule_fault(spec.time, spec.to_event());
        }
    }

    /// Apply a fault that fired: flip liveness, reconverge the IGP, and
    /// cold-restart crashed routers. Recovery re-runs `on_start` on the
    /// rebuilt state machine.
    fn apply_fault(&mut self, fault: FaultEvent) {
        if fault.is_failure() {
            self.stats.note_fault(self.now);
        }
        match fault {
            FaultEvent::LinkDown { a, b } => self.set_link_down(a, b, true),
            FaultEvent::LinkUp { a, b } => self.set_link_down(a, b, false),
            FaultEvent::RouterCrash { node } => {
                // Wipe the protocol state now; the node stays down (all
                // events addressed to it are discarded) until recovery.
                self.routers[node.index()] = (self.make)(node, &self.topo, &self.routes);
                self.set_node_down(node, true);
            }
            FaultEvent::RouterRecover { node } => {
                self.set_node_down(node, false);
                let degraded = self.transport.degraded();
                let mut ctx = Ctx {
                    now: self.now,
                    node,
                    topo: &self.topo,
                    routes: &self.routes,
                    queue: &mut self.queue,
                    stats: &mut self.stats,
                    transport: &mut self.transport,
                    tele: &mut self.tele,
                    degraded,
                };
                self.routers[node.index()].on_start(&mut ctx);
            }
        }
    }

    /// Mark a link up/down (both directions); the unicast routing tables
    /// reconverge immediately.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        assert!(self.topo.has_link(a, b), "no such link {a:?}-{b:?}");
        self.transport.set_link_down(a, b, down);
        self.reconverge_routes();
    }

    /// Reconverge the unicast next-hop tables over the surviving links.
    /// No row is computed here: each is recomputed when next queried, so
    /// a flap storm whose tables are replaced unread costs no Dijkstra.
    fn reconverge_routes(&mut self) {
        self.routes = RoutingTables::on_demand(self.transport.surviving(&self.topo));
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let degraded = self.transport.degraded();
        for i in 0..self.routers.len() {
            let node = NodeId(i as u32);
            let mut ctx = Ctx {
                now: self.now,
                node,
                topo: &self.topo,
                routes: &self.routes,
                queue: &mut self.queue,
                stats: &mut self.stats,
                transport: &mut self.transport,
                tele: &mut self.tele,
                degraded,
            };
            self.routers[i].on_start(&mut ctx);
        }
    }

    /// Run until the queue drains or the next event is later than
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let _batch = TimedScope::new(Span::DispatchBatch);
        let mut processed = 0;
        while let Some(top) = self.queue.peek_time() {
            if top > deadline {
                break;
            }
            self.peak_queue = self.peak_queue.max(self.queue.len());
            let (time, node, kind) = self.queue.pop().expect("peeked");
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.events_processed += 1;
            processed += 1;
            assert!(
                self.events_processed <= self.event_limit,
                "event limit exceeded: protocol livelock?"
            );
            self.tele.maybe_sample(
                self.now,
                self.queue.len(),
                &self.transport,
                self.stats.distinct_deliveries() as u64,
            );
            // Faults are infrastructure events: they fire regardless of
            // the target's liveness (a crashed node can still recover).
            if let EventKind::Fault(fault) = kind {
                if self.tele.on() {
                    self.tele.emit(self.now, node, fault_event_kind(&fault));
                }
                self.apply_fault(fault);
                continue;
            }
            if !self.transport.node_up(node) {
                if let EventKind::Deliver { pkt, .. } = &kind {
                    self.stats.drops += 1;
                    if self.tele.on() {
                        self.tele.emit(
                            self.now,
                            node,
                            TeleKind::Drop {
                                reason: DropReason::DeadNode,
                                to: None,
                                group: Some(pkt.group.0),
                                tag: Some(pkt.tag),
                            },
                        );
                    }
                }
                continue;
            }
            // A corrupted arrival fails the receiver's checksum: counted
            // and traced as a drop, never dispatched to the protocol.
            if let EventKind::Deliver {
                corrupted: true,
                ref pkt,
                ..
            } = kind
            {
                self.stats.drops += 1;
                self.stats.channel_corrupted += 1;
                if self.tele.on() {
                    self.tele.emit(
                        self.now,
                        node,
                        TeleKind::Drop {
                            reason: DropReason::Corrupt,
                            to: None,
                            group: Some(pkt.group.0),
                            tag: Some(pkt.tag),
                        },
                    );
                }
                continue;
            }
            if self.tele.on() {
                let tk = match &kind {
                    EventKind::Deliver { from, pkt, .. } => TeleKind::Deliver {
                        from: from.0,
                        class: match pkt.class {
                            PacketClass::Data => TrafficClass::Data,
                            PacketClass::Control => TrafficClass::Control,
                        },
                        group: pkt.group.0,
                        tag: pkt.tag,
                        ctl: R::classify(&pkt.body),
                    },
                    EventKind::Timer { token } => TeleKind::Timer { token: *token },
                    EventKind::App(AppEvent::Join(g)) => TeleKind::Join { group: g.0 },
                    EventKind::App(AppEvent::Leave(g)) => TeleKind::Leave { group: g.0 },
                    EventKind::App(AppEvent::Send { group, tag }) => TeleKind::Send {
                        group: group.0,
                        tag: *tag,
                    },
                    EventKind::Fault(_) => unreachable!("handled above"),
                };
                self.tele.emit(self.now, node, tk);
            }
            let degraded = self.transport.degraded();
            let mut ctx = Ctx {
                now: self.now,
                node,
                topo: &self.topo,
                routes: &self.routes,
                queue: &mut self.queue,
                stats: &mut self.stats,
                transport: &mut self.transport,
                tele: &mut self.tele,
                degraded,
            };
            match kind {
                EventKind::Deliver { from, pkt, .. } => {
                    self.routers[node.index()].on_packet(from, pkt, &mut ctx)
                }
                EventKind::Timer { token } => self.routers[node.index()].on_timer(token, &mut ctx),
                EventKind::App(app) => self.routers[node.index()].on_app(app, &mut ctx),
                EventKind::Fault(_) => unreachable!("handled above"),
            }
        }
        processed
    }

    /// Run until the event queue is completely drained.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}
