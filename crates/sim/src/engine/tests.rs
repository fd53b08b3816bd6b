//! Engine-level behaviour tests: flooding, unicast, faults, capacity,
//! telemetry events and determinism, driven through the public API.

use super::*;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::packet::{GroupId, Packet};
use crate::{RingSink, TelemetryEventKind};
use scmp_net::graph::LinkWeight;
use scmp_net::topology::regular::line;
use scmp_net::{NodeId, RoutingTables, RowBuilds};
use scmp_telemetry::{encode_events, DropReason, JsonlSink, SharedBuf, TrafficClass};

/// A toy protocol: floods data to all neighbours except the one it
/// came from; delivers locally everywhere; answers a Join app event
/// by unicasting a control packet to node 0.
struct Flood {
    me: NodeId,
    seen: std::collections::HashSet<u64>,
}

#[derive(Clone, Debug)]
enum Msg {
    Payload,
    Hello,
}

impl Router for Flood {
    type Msg = Msg;

    fn on_packet(&mut self, from: NodeId, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        match pkt.body {
            Msg::Payload => {
                if !self.seen.insert(pkt.tag) {
                    ctx.drop_packet();
                    return;
                }
                ctx.deliver_local(&pkt);
                let neighbors: Vec<NodeId> =
                    ctx.topo().neighbors(self.me).iter().map(|e| e.to).collect();
                for n in neighbors {
                    if n != from {
                        ctx.send(n, pkt.clone());
                    }
                }
            }
            Msg::Hello => {}
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, Msg>) {
        match ev {
            AppEvent::Send { group, tag } => {
                self.seen.insert(tag);
                let pkt = Packet::data(group, tag, ctx.now(), Msg::Payload);
                ctx.deliver_local(&pkt);
                let neighbors: Vec<NodeId> =
                    ctx.topo().neighbors(self.me).iter().map(|e| e.to).collect();
                for n in neighbors {
                    ctx.send(n, pkt.clone());
                }
            }
            AppEvent::Join(g) => {
                ctx.unicast(NodeId(0), Packet::control(g, Msg::Hello));
            }
            AppEvent::Leave(_) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
        // Re-flood with a tag derived from the token.
        self.on_app(
            AppEvent::Send {
                group: GroupId(0),
                tag: token,
            },
            ctx,
        );
    }
}

fn engine(n: usize) -> Engine<Flood> {
    let topo = line(n, LinkWeight::new(2, 3));
    Engine::new(topo, |me, _, _| Flood {
        me,
        seen: Default::default(),
    })
}

#[test]
fn flood_reaches_everyone_once() {
    let mut e = engine(5);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 42,
        },
    );
    e.run_to_quiescence();
    for v in 0..5u32 {
        assert_eq!(e.stats().delivery_count(GroupId(1), 42, NodeId(v)), 1);
    }
    assert!(!e.stats().has_duplicate_deliveries());
    // Line of 4 links, delay 2 each: farthest delivery at delay 8.
    assert_eq!(e.stats().max_end_to_end_delay, 8);
    // 4 data hops each costing 3.
    assert_eq!(e.stats().data_overhead, 12);
    assert_eq!(e.stats().protocol_overhead, 0);
}

#[test]
fn unicast_charges_full_path() {
    let mut e = engine(4);
    e.schedule_app(5, NodeId(3), AppEvent::Join(GroupId(1)));
    e.run_to_quiescence();
    // 3 hops at cost 3 = 9 units of protocol overhead.
    assert_eq!(e.stats().protocol_overhead, 9);
    assert_eq!(e.stats().control_hops, 3);
    assert_eq!(e.stats().data_overhead, 0);
}

#[test]
fn dead_link_drops_flood() {
    let mut e = engine(5);
    e.set_link_down(NodeId(2), NodeId(3), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(3)), 0);
    assert!(e.stats().drops > 0);
}

#[test]
fn dead_node_swallows_deliveries() {
    let mut e = engine(5);
    e.set_node_down(NodeId(2), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(1)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(4)), 0);
}

#[test]
fn node_recovery_allows_later_traffic() {
    let mut e = engine(3);
    e.set_node_down(NodeId(1), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_until(100);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    e.set_node_down(NodeId(1), false);
    e.schedule_app(
        200,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
}

#[test]
fn timers_fire_in_order() {
    let mut e = engine(2);
    // Two app events at the same time keep injection order (seq).
    e.schedule_app(
        10,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.schedule_app(
        10,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 2,
        },
    );
    let processed = e.run_until(9);
    assert_eq!(processed, 0);
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(0), 1, NodeId(1)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(0), 2, NodeId(1)), 1);
}

#[test]
fn run_until_respects_deadline() {
    let mut e = engine(5);
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 9,
        },
    );
    e.run_until(99);
    assert_eq!(e.stats().distinct_deliveries(), 0);
    e.run_until(101);
    // Send processed at 100; first-hop deliveries at 102 still queued.
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(0)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(1)), 0);
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(4)), 1);
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "not a neighbour"))]
fn send_to_non_neighbor_asserts_in_debug() {
    struct Bad;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Bad {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            ctx.send(NodeId(3), Packet::control(GroupId(0), M));
        }
    }
    let topo = line(4, LinkWeight::new(1, 1));
    let mut e: Engine<Bad> = Engine::new(topo, |_, _, _| Bad);
    e.set_sink(Box::new(RingSink::new(1 << 20)));
    e.schedule_app(0, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
    // Release builds reach here: the bad send is a counted, traced drop.
    assert_eq!(e.stats().drops, 1);
    assert!(e.events().iter().any(|ev| matches!(
        ev.kind,
        TelemetryEventKind::Drop {
            reason: DropReason::NonNeighbour,
            to: Some(3),
            ..
        }
    )));
}

#[test]
fn capacity_serialises_back_to_back_sends() {
    // Two packets on the same link: the second waits for the first's
    // transmission (tx = 10), so its delivery is 10 ticks later.
    let mut e = engine(2);
    e.set_capacity(CapacityModel::uniform(10, 100));
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    // Link delay 2, tx 10: first arrives at 12, second at 22.
    assert_eq!(e.stats().delivery_delay(GroupId(0), 1, NodeId(1)), Some(12));
    assert_eq!(e.stats().delivery_delay(GroupId(0), 2, NodeId(1)), Some(22));
    assert_eq!(e.stats().max_queueing_delay, 10);
    assert_eq!(e.stats().queue_drops, 0);
}

#[test]
fn capacity_queue_overflow_drops() {
    let mut e = engine(2);
    e.set_capacity(CapacityModel::uniform(10, 2)); // 2 queue slots
    for tag in 0..10 {
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(0),
                tag,
            },
        );
    }
    e.run_to_quiescence();
    assert!(e.stats().queue_drops > 0, "overloaded link must drop");
    let delivered = (0..10)
        .filter(|&t| e.stats().delivery_count(GroupId(0), t, NodeId(1)) == 1)
        .count();
    assert!(delivered < 10);
    assert!(delivered >= 3, "head of queue still flows: {delivered}");
}

#[test]
fn node_tx_override_speeds_up_sender() {
    let mut slow = engine(2);
    slow.set_capacity(CapacityModel::uniform(50, 100));
    let mut fast = engine(2);
    fast.set_capacity(CapacityModel::uniform(50, 100).with_node_tx(NodeId(0), 1));
    for e in [&mut slow, &mut fast] {
        for tag in 0..5 {
            e.schedule_app(
                0,
                NodeId(0),
                AppEvent::Send {
                    group: GroupId(0),
                    tag,
                },
            );
        }
        e.run_to_quiescence();
    }
    assert!(
        fast.stats().max_end_to_end_delay < slow.stats().max_end_to_end_delay,
        "fast {} vs slow {}",
        fast.stats().max_end_to_end_delay,
        slow.stats().max_end_to_end_delay
    );
}

#[test]
fn no_capacity_means_no_queueing() {
    let mut e = engine(2);
    for tag in 0..50 {
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(0),
                tag,
            },
        );
    }
    e.run_to_quiescence();
    assert_eq!(e.stats().queueing_delay_total, 0);
    assert_eq!(e.stats().queue_drops, 0);
    assert_eq!(e.stats().max_end_to_end_delay, 2);
}

#[test]
fn trace_records_dispatches() {
    let mut e = engine(3);
    e.set_sink(Box::new(RingSink::new(1 << 20)));
    e.schedule_app(
        5,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(2),
            tag: 7,
        },
    );
    e.run_to_quiescence();
    let events = e.events();
    assert!(!events.is_empty());
    assert_eq!(events[0].time, 5);
    assert_eq!(events[0].node, 0);
    assert!(matches!(
        events[0].kind,
        TelemetryEventKind::Send { group: 2, tag: 7 }
    ));
    // Flood deliveries appear with class/group/tag metadata.
    assert!(events.iter().any(|ev| matches!(
        ev.kind,
        TelemetryEventKind::Deliver {
            class: TrafficClass::Data,
            group: 2,
            tag: 7,
            ..
        }
    )));
}

#[test]
fn trace_disabled_by_default() {
    let mut e = engine(2);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    // The default sink is a `NullSink`: nothing is recorded.
    assert!(e.events().is_empty());
}

#[test]
#[should_panic(expected = "event limit")]
fn event_limit_catches_livelock() {
    // A protocol that reschedules itself forever.
    struct Loopy;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Loopy {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, M>) {
            ctx.set_timer(1, token);
        }
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            ctx.set_timer(1, 0);
        }
    }
    let topo = line(2, LinkWeight::new(1, 1));
    let mut e: Engine<Loopy> = Engine::new(topo, |_, _, _| Loopy);
    e.set_event_limit(1000);
    e.schedule_app(0, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
}

#[test]
fn scheduled_link_faults_cut_and_restore() {
    let mut e = engine(5);
    e.schedule_fault(
        50,
        FaultEvent::LinkDown {
            a: NodeId(2),
            b: NodeId(3),
        },
    );
    e.schedule_fault(
        300,
        FaultEvent::LinkUp {
            a: NodeId(3),
            b: NodeId(2), // endpoint order must not matter
        },
    );
    // Before the cut: full line reachable.
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    // During the cut: flood stops at node 2.
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    // After restoration: full line reachable again.
    e.schedule_app(
        400,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 3,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(4)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(3)), 0);
    assert_eq!(e.stats().delivery_count(GroupId(1), 3, NodeId(4)), 1);
    // Only the LinkDown counts as a failure.
    assert_eq!(e.stats().faults_injected, 1);
    assert_eq!(e.stats().last_fault_at, Some(50));
    assert!(!e.degraded());
}

#[test]
fn router_crash_wipes_protocol_state() {
    // Flood dedups on `seen`; a crash must cold-restart that state,
    // so a post-recovery replay of the same tag is accepted again.
    let mut e = engine(3);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 7,
        },
    );
    e.schedule_fault(100, FaultEvent::RouterCrash { node: NodeId(1) });
    e.schedule_fault(200, FaultEvent::RouterRecover { node: NodeId(1) });
    e.schedule_app(
        300,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 7, // same tag — a survivor would dedup it
        },
    );
    e.run_to_quiescence();
    // Node 1 delivered tag 7 twice (fresh `seen` after the crash);
    // node 2 kept its state and deduped the replay.
    assert_eq!(e.stats().delivery_count(GroupId(1), 7, NodeId(1)), 2);
    assert_eq!(e.stats().delivery_count(GroupId(1), 7, NodeId(2)), 1);
    assert_eq!(e.stats().faults_injected, 1);
}

#[test]
fn crash_window_swallows_traffic() {
    let mut e = engine(3);
    e.schedule_fault(10, FaultEvent::RouterCrash { node: NodeId(1) });
    e.schedule_app(
        20,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.schedule_fault(100, FaultEvent::RouterRecover { node: NodeId(1) });
    e.schedule_app(
        200,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    // During the crash nothing passes node 1; afterwards it flows.
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
}

#[test]
fn degraded_window_charges_failure_overhead() {
    let mut e = engine(5);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    // Cut an edge-of-line link so most of the flood still flows.
    e.schedule_fault(
        50,
        FaultEvent::LinkDown {
            a: NodeId(3),
            b: NodeId(4),
        },
    );
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.schedule_fault(
        300,
        FaultEvent::LinkUp {
            a: NodeId(3),
            b: NodeId(4),
        },
    );
    e.schedule_app(
        400,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 3,
        },
    );
    e.run_to_quiescence();
    // Healthy sends cross 4 links at cost 3 each; the degraded send
    // crosses the surviving 3. Only the latter lands in the
    // during-failure bucket.
    assert_eq!(e.stats().data_overhead, 12 + 9 + 12);
    assert_eq!(e.stats().data_overhead_during_failure, 9);
    assert_eq!(e.stats().control_overhead_during_failure, 0);
}

#[test]
fn fault_plan_schedules_and_traces() {
    let plan = FaultPlan::new()
        .at(50, FaultKind::LinkDown { a: 1, b: 2 })
        .at(150, FaultKind::LinkUp { a: 1, b: 2 });
    let mut e = engine(3);
    e.set_sink(Box::new(RingSink::new(1 << 20)));
    e.schedule_fault_plan(&plan);
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    let faults: Vec<_> = e
        .events()
        .into_iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                TelemetryEventKind::LinkDown { .. } | TelemetryEventKind::LinkUp { .. }
            )
        })
        .collect();
    assert_eq!(faults.len(), 2);
    assert_eq!(faults[0].time, 50);
    assert!(matches!(
        faults[0].kind,
        TelemetryEventKind::LinkDown { a: 1, b: 2 }
    ));
    assert_eq!(faults[1].time, 150);
    assert!(matches!(
        faults[1].kind,
        TelemetryEventKind::LinkUp { a: 1, b: 2 }
    ));
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut e = engine(5);
        e.set_sink(Box::new(RingSink::new(1 << 20)));
        let plan = FaultPlan::new()
            .at(40, FaultKind::RouterCrash { node: 2 })
            .at(90, FaultKind::RouterRecover { node: 2 })
            .at(120, FaultKind::LinkDown { a: 0, b: 1 })
            .at(180, FaultKind::LinkUp { a: 0, b: 1 });
        e.schedule_fault_plan(&plan);
        for tag in 0..6 {
            e.schedule_app(
                tag * 35,
                NodeId(0),
                AppEvent::Send {
                    group: GroupId(1),
                    tag,
                },
            );
        }
        e.run_to_quiescence();
        (encode_events(&e.events()), e.stats().clone())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2, "same plan + same seed must replay bit-for-bit");
    assert_eq!(s1.data_overhead, s2.data_overhead);
    assert_eq!(s1.drops, s2.drops);
    assert_eq!(s1.faults_injected, s2.faults_injected);
    assert!(!t1.is_empty());
}

#[test]
#[should_panic(expected = "no such link")]
fn fault_on_missing_link_panics() {
    let mut e = engine(3);
    e.schedule_fault(
        10,
        FaultEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(2), // line(3) has no 0-2 link
        },
    );
}

#[test]
fn surviving_topology_reflects_faults() {
    struct Probe;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Probe {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            let surv = ctx.surviving_topology();
            // Node 2 crashed, link 0-1 cut: only 3-4 remains.
            assert_eq!(surv.edge_count(), 1);
            assert!(surv.has_link(NodeId(3), NodeId(4)));
            assert!(!ctx.node_up(NodeId(2)));
            assert!(!ctx.link_up(NodeId(0), NodeId(1)));
        }
    }
    let topo = line(5, LinkWeight::new(1, 1));
    let mut e: Engine<Probe> = Engine::new(topo, |_, _, _| Probe);
    e.schedule_fault(5, FaultEvent::RouterCrash { node: NodeId(2) });
    e.schedule_fault(
        5,
        FaultEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1),
        },
    );
    e.schedule_app(10, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
    assert!(e.degraded());
}

#[test]
fn erased_runner_drives_like_the_concrete_engine() {
    let mut concrete = engine(5);
    let mut erased: Box<dyn EngineRunner> = Box::new(engine(5));
    let bufs = [SharedBuf::new(), SharedBuf::new()];
    for (e, buf) in [&mut concrete as &mut dyn EngineRunner, erased.as_mut()]
        .into_iter()
        .zip(&bufs)
    {
        e.set_sink(Box::new(JsonlSink::new(buf.clone())));
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(1),
                tag: 1,
            },
        );
        e.run_to_quiescence();
        // The JSONL sink batches: nothing reaches the writer until the
        // flush goes through the vtable.
        assert!(buf.is_empty());
        e.flush_telemetry();
    }
    assert_eq!(concrete.stats().data_overhead, erased.stats().data_overhead);
    assert_eq!(concrete.stats().distinct_deliveries(), 5);
    assert_eq!(erased.stats().distinct_deliveries(), 5);
    let [a, b] = bufs.map(|b| b.take_string());
    assert!(a.lines().count() > 5, "the erased sink received the run");
    assert_eq!(a, b);
}

#[test]
fn link_flaps_leave_routes_unmaterialised_until_queried() {
    /// What the probe saw on its app event: the resident route bytes
    /// before and after one unicast, the route its tables gave, and the
    /// route a fresh full computation over the surviving graph gives.
    #[derive(Clone)]
    struct Seen {
        before: usize,
        after: usize,
        route: Option<Vec<NodeId>>,
        expect: Option<Vec<NodeId>>,
    }
    #[derive(Default)]
    struct Probe {
        seen: Option<Seen>,
    }
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Probe {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            let (me, dst) = (ctx.me(), NodeId(3));
            let before = ctx.routes().resident_bytes();
            ctx.unicast(dst, Packet::control(GroupId(0), M));
            self.seen = Some(Seen {
                before,
                after: ctx.routes().resident_bytes(),
                route: ctx.routes().route(me, dst),
                expect: RoutingTables::compute(&ctx.surviving_topology()).route(me, dst),
            });
        }
    }
    let n = 6;
    let topo = scmp_net::topology::regular::ring(n, LinkWeight::new(1, 1));
    let mut e: Engine<Probe> = Engine::new(topo, |_, _, _| Probe::default());
    // Three flaps of 0-1, then 2-3 goes down for good: 2 reaches 3 the
    // long way round.
    let (a, b) = (NodeId(0), NodeId(1));
    for k in 0..3 {
        e.schedule_fault(10 + 2 * k, FaultEvent::LinkDown { a, b });
        e.schedule_fault(11 + 2 * k, FaultEvent::LinkUp { a, b });
    }
    let (a, b) = (NodeId(2), NodeId(3));
    e.schedule_fault(20, FaultEvent::LinkDown { a, b });
    e.schedule_app(30, NodeId(2), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
    let seen = e.router(NodeId(2)).seen.clone().expect("probe ran");
    assert_eq!(seen.before, 0, "a flap must not recompute any route row");
    let row_bytes = n * std::mem::size_of::<u32>();
    assert_eq!(seen.after, row_bytes, "exactly one row resident");
    let long_way = [2, 1, 0, 5, 4, 3].map(NodeId).to_vec();
    assert_eq!(seen.expect, Some(long_way));
    assert_eq!(seen.route, seen.expect);
    assert_eq!(e.stats().control_hops, 5);
}

#[test]
fn construction_computes_no_route() {
    /// Resident route bytes and row builds, before and after one
    /// unicast.
    type Seen = (usize, RowBuilds);
    #[derive(Default)]
    struct Probe {
        seen: Vec<Seen>,
    }
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Probe {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            let probe =
                |ctx: &Ctx<'_, M>| (ctx.routes().resident_bytes(), ctx.routes().row_builds());
            self.seen.push(probe(ctx));
            ctx.unicast(NodeId(3), Packet::control(GroupId(0), M));
            self.seen.push(probe(ctx));
        }
    }
    let n = 6;
    let topo = scmp_net::topology::regular::ring(n, LinkWeight::new(1, 1));
    let mut e: Engine<Probe> = Engine::new(topo, |_, _, routes| {
        assert_eq!(routes.resident_bytes(), 0, "the factory sees no row");
        Probe::default()
    });
    e.schedule_app(0, NodeId(0), AppEvent::Join(GroupId(0)));
    e.run_to_quiescence();
    let row_bytes = n * std::mem::size_of::<u32>();
    // The unicast 0 -> 3 builds the row toward 3 only as far as node 0.
    let one_partial = RowBuilds {
        partial: 1,
        full: 0,
    };
    assert_eq!(
        e.router(NodeId(0)).seen,
        vec![(0, RowBuilds::default()), (row_bytes, one_partial)]
    );
    assert_eq!(e.stats().control_hops, 3);
}
