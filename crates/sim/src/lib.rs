//! # scmp-sim — deterministic discrete-event network simulator
//!
//! The paper evaluates SCMP against DVMRP, MOSPF and CBT on NS-2
//! (§IV-B). This crate is the NS-2 stand-in: a packet-level,
//! deterministic discrete-event engine over a [`scmp_net::Topology`].
//!
//! * Every router runs a protocol state machine implementing [`Router`];
//!   the engine delivers packets after the link's propagation delay and
//!   fires protocol timers.
//! * The paper's §IV-B metrics are accounted natively: a packet crossing
//!   a link adds the link's *cost* to the data or protocol overhead
//!   depending on its [`PacketClass`]; data deliveries record end-to-end
//!   delay for the "maximum end-to-end delay" figure.
//! * Unicast tunnelling (JOIN messages to the m-router, encapsulated data
//!   from off-tree sources, …) is modelled by [`Ctx::unicast`], which
//!   forwards along the domain's unicast routing tables, charging every
//!   hop.
//! * Failure injection (node/link down) supports the hot-standby
//!   m-router experiments.
//!
//! Determinism: events are ordered by `(time, sequence-number)`, and no
//! wall-clock or unseeded randomness exists anywhere in the engine, so a
//! scenario replays identically across runs and machines.
//!
//! The engine is layered (see [`engine`]): an arena-backed event queue
//! (`engine::queue`) keeps heap entries small, the link-liveness and
//! capacity arithmetic lives in [`Transport`] (`engine::transport`,
//! unit-testable without an engine), protocols talk to the network
//! through [`Ctx`] (`engine::ctx`), and the event loop itself is
//! `engine::core`. [`EngineRunner`] erases `Engine<R>` so heterogeneous
//! scenario drivers can hold any protocol's engine behind one vtable.
//!
//! What happened during a run is recorded once, as the telemetry
//! [`TelemetryEvent`] stream handed to the installed [`Sink`]; install
//! a [`RingSink`] and read [`Engine::events`] to inspect it.

pub mod channel;
pub mod engine;
pub mod fault;
pub mod packet;
pub mod stats;

pub use channel::{ChannelLinkSpec, ChannelModel, ChannelOutcome, ChannelPlan, ChannelSpec};
pub use engine::{
    AppEvent, CapacityModel, Ctx, Engine, EngineRunner, LinkSlot, Router, SimTime, Transport,
};
pub use fault::{partition_cut, FaultEvent, FaultKind, FaultPlan, FaultSpec, PartitionCut};
pub use packet::{GroupId, Packet, PacketClass};
pub use stats::SimStats;

// Re-export the telemetry vocabulary protocols and drivers interact
// with, so downstream crates need no direct `scmp-telemetry` dependency
// just to install a sink or read events back.
pub use scmp_telemetry::{
    Event as TelemetryEvent, EventKind as TelemetryEventKind, GaugeSample, Histogram, JsonlSink,
    NullSink, RingSink, Sink,
};
