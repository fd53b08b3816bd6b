//! The per-dispatch context handed to [`Router`](super::Router)
//! callbacks: the only way protocols interact with the network.

use super::queue::{EventKind, EventQueue};
use super::telemetry::Telemetry;
use super::transport::Transport;
use super::SimTime;
use crate::packet::{GroupId, Packet, PacketClass, ORIGIN_UNSET};
use crate::stats::SimStats;
use scmp_net::{NodeId, RoutingTables, Topology};
use scmp_telemetry::{DropReason, EventKind as TeleKind, HealthTrigger};
use std::fmt;

/// The per-dispatch context handed to [`Router`](super::Router)
/// callbacks.
pub struct Ctx<'a, M> {
    pub(super) now: SimTime,
    pub(super) node: NodeId,
    pub(super) topo: &'a Topology,
    pub(super) routes: &'a RoutingTables,
    pub(super) queue: &'a mut EventQueue<M>,
    pub(super) stats: &'a mut SimStats,
    pub(super) transport: &'a mut Transport,
    pub(super) tele: &'a mut Telemetry,
    /// True while any link or node is down: overhead charged in this
    /// window also accumulates into the during-failure counters.
    pub(super) degraded: bool,
}

impl<'a, M: Clone + fmt::Debug> Ctx<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The router being executed.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// The topology (read-only).
    pub fn topo(&self) -> &Topology {
        self.topo
    }

    /// The domain's unicast routing tables (read-only).
    pub fn routes(&self) -> &RoutingTables {
        self.routes
    }

    fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind<M>) {
        self.queue.push(time, node, kind);
    }

    /// Is the link `a`–`b` (and both endpoints) currently in service?
    /// Models the domain's link-state IGP view, which every router —
    /// and in particular the m-router's repair scan — can consult.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.transport.link_alive(a, b)
    }

    /// Is router `v` currently in service (per the IGP view)?
    pub fn node_up(&self, v: NodeId) -> bool {
        self.transport.node_up(v)
    }

    /// The topology restricted to live nodes and links — what a repair
    /// algorithm should plan over. Node ids are preserved.
    pub fn surviving_topology(&self) -> Topology {
        self.transport.surviving(self.topo)
    }

    /// Record a completed tree repair: the elapsed time since the most
    /// recent fault becomes a repair-latency sample.
    pub fn record_repair(&mut self) {
        let now = self.now;
        let latency = self.stats.record_repair(now);
        if self.tele.on() {
            if let Some(latency) = latency {
                self.tele
                    .emit(self.now, self.node, TeleKind::Repair { latency });
            }
        }
    }

    /// Record a control-plane retransmission (JOIN/LEAVE/TREE/BRANCH
    /// retry): counted in the stats and, when telemetry is on, emitted
    /// with the destination, attempt number, and the transaction's
    /// causal trace key (`tag`).
    pub fn record_retransmit(&mut self, group: u32, to: NodeId, attempt: u32, tag: u64) {
        self.stats.retransmissions += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Retransmit {
                    group,
                    to: to.0,
                    attempt,
                    tag,
                },
            );
        }
    }

    /// Record a NACK originated by this router for `(group, origin,
    /// seq)`; `tag` is the payload's causal trace key.
    pub fn record_nack(&mut self, group: u32, origin: u32, seq: u64, tag: u64) {
        self.stats.nacks_sent += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Nack {
                    group,
                    origin,
                    seq,
                    tag,
                },
            );
        }
    }

    /// Record a NACK absorbed by this router's pending-request table
    /// (duplicate-NACK suppression).
    pub fn record_nack_suppressed(&mut self, group: u32, origin: u32, seq: u64, tag: u64) {
        self.stats.nacks_suppressed += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::NackSuppress {
                    group,
                    origin,
                    seq,
                    tag,
                },
            );
        }
    }

    /// Record a NACK forwarded upstream after a repair-cache miss
    /// (stats only — the miss event already carries the key).
    pub fn record_nack_forwarded(&mut self) {
        self.stats.nacks_forwarded += 1;
    }

    /// Record a NACK answered from this router's repair cache.
    pub fn record_repair_hit(&mut self, group: u32, origin: u32, seq: u64, tag: u64) {
        self.stats.repair_cache_hits += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::RepairHit {
                    group,
                    origin,
                    seq,
                    tag,
                },
            );
        }
    }

    /// Record a NACK that missed this router's repair cache.
    pub fn record_repair_miss(&mut self, group: u32, origin: u32, seq: u64, tag: u64) {
        self.stats.repair_cache_misses += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::RepairMiss {
                    group,
                    origin,
                    seq,
                    tag,
                },
            );
        }
    }

    /// Record repair-cache entries evicted by the byte cap (stats only).
    pub fn record_cache_evictions(&mut self, n: u64) {
        self.stats.repair_cache_evictions += n;
    }

    /// Record a data gap closing at this receiver, `latency` ticks
    /// after the gap was first observed.
    pub fn record_recovery(&mut self, group: u32, origin: u32, seq: u64, tag: u64, latency: u64) {
        self.stats.record_recovery(latency);
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Recovery {
                    group,
                    origin,
                    seq,
                    tag,
                    latency,
                },
            );
        }
    }

    /// Record a checksum-valid frame whose message kind this build does
    /// not implement: counted and telemetry-visible, never an error.
    pub fn drop_unknown_kind(&mut self) {
        self.stats.drops += 1;
        self.stats.unknown_kind_drops += 1;
        self.trace_drop(DropReason::UnknownKind, None, None);
    }

    /// Whether the installed telemetry sink is live — expensive
    /// observability probes (tree-health sampling) are gated on this so
    /// sink-off runs pay nothing.
    pub fn telemetry_on(&self) -> bool {
        self.tele.on()
    }

    /// Record a per-group tree-health sample (taken by the m-router
    /// after a tree build/repair): member count, max hop depth, total
    /// edge cost, mean delay stretch vs unicast (×1000), and
    /// inter-member delay variation (max − min, ticks). Emitted as a
    /// telemetry event.
    #[allow(clippy::too_many_arguments)]
    pub fn record_tree_health(
        &mut self,
        group: GroupId,
        trigger: HealthTrigger,
        members: u32,
        depth: u32,
        cost: u64,
        stretch_milli: u64,
        delay_var: u64,
    ) {
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::TreeHealth {
                    group: group.0,
                    trigger,
                    members,
                    depth,
                    cost,
                    stretch_milli,
                    delay_var,
                },
            );
        }
    }

    /// Record a standby promotion to m-router (real or spurious — the
    /// chaos invariants distinguish them by whether the primary was up).
    pub fn record_takeover(&mut self) {
        self.stats.takeovers += 1;
        if self.tele.on() {
            self.tele.emit(self.now, self.node, TeleKind::Takeover);
        }
    }

    /// Record the m-router's repair scan *entering* partition-degraded
    /// mode: `stranded` nodes just became unreachable, `members` of
    /// them are logged group members awaiting readoption.
    pub fn record_partition(&mut self, stranded: u32, members: u32) {
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Partition { stranded, members },
            );
        }
    }

    /// Record one repair-scan pass served while part of the domain was
    /// unreachable (the partition-degraded accounting of `SimStats`).
    pub fn record_partition_degraded_tick(&mut self) {
        self.stats.partition_degraded_ticks += 1;
    }

    /// Record previously unreachable nodes becoming reachable again
    /// (the partition healed from this router's vantage point).
    pub fn record_heal(&mut self, restored: u32) {
        if self.tele.on() {
            self.tele
                .emit(self.now, self.node, TeleKind::Heal { restored });
        }
    }

    /// Record a post-heal reconciliation for one group: `readopted`
    /// stranded members merged back under generation `epoch`.
    pub fn record_reconcile(&mut self, group: u32, readopted: u32, epoch: u64) {
        self.stats.reconciliations += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Reconcile {
                    group,
                    readopted,
                    epoch,
                },
            );
        }
    }

    /// Emit a drop event with its reason and — when the drop point still
    /// had the packet in hand — its (group, tag) correlation key, so
    /// journeys can show where a packet died (telemetry-enabled runs
    /// only).
    fn trace_drop(&mut self, reason: DropReason, to: Option<NodeId>, key: Option<(u32, u64)>) {
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::Drop {
                    reason,
                    to: to.map(|n| n.0),
                    group: key.map(|(g, _)| g),
                    tag: key.map(|(_, t)| t),
                },
            );
        }
    }

    /// Send `pkt` to the directly-connected neighbour `to`. Charges the
    /// link cost against the packet's overhead class and delivers after
    /// the link delay. Dead links/nodes drop the packet.
    ///
    /// Sending to a router that is not a neighbour is a protocol bug in
    /// a static topology, but a repair scan can legitimately race a
    /// topology change — so release builds count and trace the drop
    /// instead of tearing the simulation down (debug builds still
    /// assert).
    pub fn send(&mut self, to: NodeId, mut pkt: Packet<M>) {
        if pkt.origin == ORIGIN_UNSET {
            pkt.origin = self.node;
        }
        let key = (pkt.group.0, pkt.tag);
        let Some(w) = self.topo.link(self.node, to) else {
            debug_assert!(false, "{:?} is not a neighbour of {:?}", to, self.node);
            self.stats.drops += 1;
            self.trace_drop(DropReason::NonNeighbour, Some(to), Some(key));
            return;
        };
        if !self.transport.link_alive(self.node, to) {
            self.stats.drops += 1;
            self.trace_drop(DropReason::DeadLink, None, Some(key));
            return;
        }
        let Some(depart) = self.reserve_link(self.node, to, self.now) else {
            // Queue overflow: the congestion loss of §I.
            self.stats.drops += 1;
            self.stats.queue_drops += 1;
            self.trace_drop(DropReason::QueueFull, None, Some(key));
            return;
        };
        self.charge(pkt.class, w.cost);
        // The channel rolls after the sender has paid for the
        // transmission: bandwidth is spent whether or not the wire
        // delivers.
        let roll = self.transport.channel_roll(self.node, to);
        if roll.drop {
            self.stats.drops += 1;
            self.stats.channel_dropped += 1;
            self.trace_drop(DropReason::ChannelLoss, Some(to), Some(key));
            return;
        }
        let t = depart + w.delay + self.note_jitter(roll.jitter, to, key);
        let dup = roll.duplicate.then(|| pkt.clone());
        self.push(
            t,
            to,
            EventKind::Deliver {
                from: self.node,
                corrupted: roll.corrupt,
                pkt,
            },
        );
        if let Some(pkt) = dup {
            self.note_duplicate(to, key);
            self.push(
                t,
                to,
                EventKind::Deliver {
                    from: self.node,
                    corrupted: roll.corrupt,
                    pkt,
                },
            );
        }
    }

    /// Account a nonzero reorder jitter; returns it for the arrival-time
    /// sum.
    fn note_jitter(&mut self, jitter: SimTime, to: NodeId, key: (u32, u64)) -> SimTime {
        if jitter > 0 {
            self.stats.channel_reordered += 1;
            if self.tele.on() {
                self.tele.emit(
                    self.now,
                    self.node,
                    TeleKind::ChannelReorder {
                        to: to.0,
                        jitter,
                        group: key.0,
                        tag: key.1,
                    },
                );
            }
        }
        jitter
    }

    /// Account a channel duplication (the copy is pushed by the caller).
    fn note_duplicate(&mut self, to: NodeId, key: (u32, u64)) {
        self.stats.channel_duplicated += 1;
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::ChannelDuplicate {
                    to: to.0,
                    group: key.0,
                    tag: key.1,
                },
            );
        }
    }

    /// Reserve the directed link `a -> b` through the transport and
    /// charge any queueing wait to the statistics. Returns the
    /// serialisation-complete time, or `None` when the queue is full.
    fn reserve_link(&mut self, a: NodeId, b: NodeId, ready: SimTime) -> Option<SimTime> {
        let slot = self.transport.reserve_link(a, b, ready)?;
        self.stats.record_queue_wait(slot.waited);
        Some(slot.depart)
    }

    /// Send `pkt` to an arbitrary router via the domain's unicast routing
    /// (hop-by-hop along shortest-delay paths, every hop charged). This
    /// models IP tunnelling: intermediate routers forward without the
    /// multicast protocol seeing the packet. The receiver observes
    /// `from` = the last hop on the path.
    ///
    /// The packet is dropped (and partially charged, like a real packet
    /// making it partway) if the path crosses a dead link or node.
    pub fn unicast(&mut self, dst: NodeId, mut pkt: Packet<M>) {
        if pkt.origin == ORIGIN_UNSET {
            pkt.origin = self.node;
        }
        let key = (pkt.group.0, pkt.tag);
        if dst == self.node {
            let t = self.now;
            self.push(
                t,
                dst,
                EventKind::Deliver {
                    from: self.node,
                    corrupted: false,
                    pkt,
                },
            );
            return;
        }
        let Some(route) = self.routes.route(self.node, dst) else {
            self.stats.drops += 1;
            self.trace_drop(DropReason::NoRoute, None, Some(key));
            return;
        };
        let mut at = self.now;
        // Channel impairments accumulate across the tunnel's hops: a
        // drop anywhere loses the packet (partially charged); corruption
        // and duplication stick to the final delivery (a mid-path copy
        // would fork the tunnel, which hop-by-hop forwarding without
        // protocol visibility cannot model — the copy's later hops go
        // uncharged, a documented approximation); jitter adds up.
        let mut corrupted = false;
        let mut duplicate = false;
        for hop in route.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            if !self.transport.link_alive(a, b) {
                self.stats.drops += 1;
                self.trace_drop(DropReason::DeadLink, None, Some(key));
                return;
            }
            let Some(depart) = self.reserve_link(a, b, at) else {
                self.stats.drops += 1;
                self.stats.queue_drops += 1;
                self.trace_drop(DropReason::QueueFull, None, Some(key));
                return;
            };
            let w = self.topo.link(a, b).expect("route follows links");
            self.charge(pkt.class, w.cost);
            let roll = self.transport.channel_roll(a, b);
            if roll.drop {
                self.stats.drops += 1;
                self.stats.channel_dropped += 1;
                self.trace_drop(DropReason::ChannelLoss, Some(b), Some(key));
                return;
            }
            corrupted |= roll.corrupt;
            duplicate |= roll.duplicate;
            at = depart + w.delay + self.note_jitter(roll.jitter, b, key);
        }
        let from = route[route.len() - 2];
        let dup = duplicate.then(|| pkt.clone());
        self.push(
            at,
            dst,
            EventKind::Deliver {
                from,
                corrupted,
                pkt,
            },
        );
        if let Some(pkt) = dup {
            self.note_duplicate(dst, key);
            self.push(
                at,
                dst,
                EventKind::Deliver {
                    from,
                    corrupted,
                    pkt,
                },
            );
        }
    }

    /// Arm a timer that fires `delay` ticks from now with `token`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        let t = self.now + delay;
        let node = self.node;
        self.push(t, node, EventKind::Timer { token });
    }

    /// Record delivery of a data payload to the member hosts attached to
    /// this router (the end of the multicast path).
    pub fn deliver_local(&mut self, pkt: &Packet<M>) {
        debug_assert_eq!(
            pkt.class,
            PacketClass::Data,
            "only data is delivered to hosts"
        );
        let delay = self.now.saturating_sub(pkt.created_at);
        self.stats
            .record_delivery(pkt.group, pkt.tag, self.node, delay);
        if self.tele.on() {
            self.tele.emit(
                self.now,
                self.node,
                TeleKind::DeliverLocal {
                    group: pkt.group.0,
                    tag: pkt.tag,
                    delay,
                },
            );
        }
    }

    /// Record a protocol-decision drop (e.g. a packet arriving from a
    /// router outside the forwarding set, §III-F) with no correlation
    /// key. Prefer [`Ctx::drop_packet_keyed`] when the packet is still
    /// in hand.
    pub fn drop_packet(&mut self) {
        self.stats.drops += 1;
        self.trace_drop(DropReason::Protocol, None, None);
    }

    /// Record a protocol-decision drop of an identified packet, keeping
    /// its (group, tag) correlation key visible in journeys.
    pub fn drop_packet_keyed(&mut self, group: GroupId, tag: u64) {
        self.stats.drops += 1;
        self.trace_drop(DropReason::Protocol, None, Some((group.0, tag)));
    }

    fn charge(&mut self, class: PacketClass, cost: u64) {
        match class {
            PacketClass::Data => {
                self.stats.data_overhead += cost;
                self.stats.data_hops += 1;
                if self.degraded {
                    self.stats.data_overhead_during_failure += cost;
                }
            }
            PacketClass::Control => {
                self.stats.protocol_overhead += cost;
                self.stats.control_hops += 1;
                if self.degraded {
                    self.stats.control_overhead_during_failure += cost;
                }
            }
        }
    }
}
