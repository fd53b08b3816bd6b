//! Object-safe erasure of [`Engine`]: drive any protocol's engine
//! through one vtable.
//!
//! `Engine<R>` is generic over the protocol, so heterogeneous scenario
//! drivers (the bench harness, the protocol registry) cannot hold a
//! collection of them directly. [`EngineRunner`] erases the protocol
//! type behind the surface those drivers use: schedule application
//! events, install and flush a telemetry sink, run, read statistics.
//! Everything else — faults, capacity, channels, gauges, protocol state
//! — stays on the concrete `Engine<R>`.

use super::core::Engine;
use super::{AppEvent, Router, SimTime};
use crate::stats::SimStats;
use scmp_net::NodeId;
use scmp_telemetry::Sink;

/// The protocol-agnostic driving surface of an [`Engine`].
pub trait EngineRunner {
    /// Inject an application event at absolute time `time`.
    fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent);
    /// Install a telemetry sink.
    fn set_sink(&mut self, sink: Box<dyn Sink + Send>);
    /// Flush the telemetry sink.
    fn flush_telemetry(&mut self);
    /// Collected statistics.
    fn stats(&self) -> &SimStats;
    /// Run until the event queue is completely drained.
    fn run_to_quiescence(&mut self) -> u64;
}

impl<R: Router> EngineRunner for Engine<R> {
    fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent) {
        Engine::schedule_app(self, time, node, ev);
    }
    fn set_sink(&mut self, sink: Box<dyn Sink + Send>) {
        Engine::set_sink(self, sink);
    }
    fn flush_telemetry(&mut self) {
        Engine::flush_telemetry(self);
    }
    fn stats(&self) -> &SimStats {
        Engine::stats(self)
    }
    fn run_to_quiescence(&mut self) -> u64 {
        Engine::run_to_quiescence(self)
    }
}
