//! Per-layer attribution measured from outside the program.
//!
//! The driver hands the simulator wrapped objects: [`TimedAlgo`] around
//! every sender state machine and [`TimedAgent`] around every agent. Each
//! wrapper times the call it forwards and charges the allocations made
//! meanwhile. Nested calls fold into one accumulator per layer, so memory
//! stays flat however many callbacks a scenario makes; the accumulators are
//! cut per scenario with [`take_scenario`].
//!
//! Layers nest strictly on one thread, so a layer's self time is its total
//! minus the totals of its child layers (see [`LAYERS`]).

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

use experiments::Variant;
use netsim::agent::{Agent, AgentCtx};
use netsim::packet::Packet;
use netsim::time::SimTime;
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo};
use transport::telemetry::{CommonStats, SenderTelemetry};

use crate::alloc;

/// The whole scenario: set-up, the runs and the read-back.
pub const SCENARIO: usize = 0;
/// Set-up up to the first `run_until`.
pub const SETUP: usize = 1;
/// `experiments::topologies` builders and `workload::topo` generation.
pub const TOPOLOGY: usize = 2;
/// `SimBuilder::build` and simulator configuration (multipath routes,
/// impairment stages, admin schedules).
pub const SIM_BUILD: usize = 3;
/// Sender construction and `add_agent` of every agent.
pub const ATTACH: usize = 4;
/// `Simulator::run_until`; its self time is the `netsim` layer.
pub const RUN: usize = 5;
/// `SenderHost` callbacks (host glue and pacing around the algorithm).
pub const SENDER: usize = 6;
/// `ReceiverHost` callbacks.
pub const RECEIVER: usize = 7;
/// `ChurnSource`/`ChurnSink` callbacks.
pub const CHURN: usize = 8;
/// `netsim::traffic` cross-traffic agents.
pub const TRAFFIC: usize = 9;
/// Reading results back out of the simulator.
pub const READBACK: usize = 10;
/// First of the per-variant algorithm layers, in `Variant::ALL` order.
pub const ALGO: usize = 11;
/// Number of layers.
pub const N_LAYERS: usize = ALGO + Variant::ALL.len();

/// Name and parent of each fixed layer; algorithm layers follow.
pub const LAYERS: [(&str, Option<usize>); ALGO] = [
    ("scenario", None),
    ("setup", Some(SCENARIO)),
    ("setup.topology", Some(SETUP)),
    ("setup.sim_build", Some(SETUP)),
    ("setup.attach", Some(SETUP)),
    ("netsim.run_until", Some(SCENARIO)),
    ("transport.sender", Some(RUN)),
    ("transport.receiver", Some(RUN)),
    ("workload.churn", Some(RUN)),
    ("traffic.cross", Some(RUN)),
    ("readback", Some(SCENARIO)),
];

/// The layer slot of a variant's algorithm.
pub fn algo_slot(v: Variant) -> usize {
    ALGO + Variant::ALL.iter().position(|&x| x == v).expect("Variant::ALL lists every variant")
}

/// Name of a layer slot.
pub fn layer_name(slot: usize) -> String {
    if slot < ALGO {
        LAYERS[slot].0.to_owned()
    } else {
        format!("algo.{:?}", Variant::ALL[slot - ALGO])
    }
}

/// Parent of a layer slot.
pub fn layer_parent(slot: usize) -> Option<usize> {
    if slot < ALGO {
        LAYERS[slot].1
    } else {
        Some(SENDER)
    }
}

/// One layer's folded spans within one scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Calls timed.
    pub calls: u64,
    /// Wall nanoseconds inside those calls.
    pub ns: u64,
    /// Allocations made inside those calls.
    pub allocs: u64,
    /// `on_timer`/`on_aux_timer` callbacks among the calls.
    pub timer_calls: u64,
    /// `on_packet` callbacks among the calls.
    pub packets: u64,
}

thread_local! {
    static ACC: RefCell<[Acc; N_LAYERS]> = const { RefCell::new([Acc {
        calls: 0, ns: 0, allocs: 0, timer_calls: 0, packets: 0,
    }; N_LAYERS]) };
}

/// Which agent callback a span covers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Any call that is not an agent timer or packet callback.
    Other,
    /// `on_timer` or `on_aux_timer`.
    Timer,
    /// `on_packet`.
    Packet,
}

/// Runs `f` as one span of layer `slot`.
#[inline]
pub fn span<R>(slot: usize, call: Call, f: impl FnOnce() -> R) -> R {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::count() - a0;
    ACC.with(|acc| {
        let a = &mut acc.borrow_mut()[slot];
        a.calls += 1;
        a.ns += ns;
        a.allocs += allocs;
        a.timer_calls += u64::from(call == Call::Timer);
        a.packets += u64::from(call == Call::Packet);
    });
    r
}

/// Returns this thread's accumulators and zeroes them: one scenario's spans.
pub fn take_scenario() -> [Acc; N_LAYERS] {
    ACC.with(|acc| std::mem::take(&mut *acc.borrow_mut()))
}

/// A sender state machine whose callbacks are timed as its variant's layer.
#[derive(Debug)]
pub struct TimedAlgo<S> {
    inner: S,
    slot: usize,
}

impl<S> TimedAlgo<S> {
    /// Wraps `inner`, charging its callbacks to `variant`'s layer.
    pub fn new(inner: S, variant: Variant) -> Self {
        TimedAlgo { inner, slot: algo_slot(variant) }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SenderTelemetry> SenderTelemetry for TimedAlgo<S> {
    fn common_stats(&self) -> CommonStats {
        self.inner.common_stats()
    }
}

impl<S: TcpSenderAlgo> TcpSenderAlgo for TimedAlgo<S> {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        span(self.slot, Call::Other, || self.inner.on_start(now, out));
    }
    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        span(self.slot, Call::Other, || self.inner.on_ack(ack, now, out));
    }
    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        span(self.slot, Call::Other, || self.inner.on_timer(now, out));
    }
    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }
    fn ssthresh(&self) -> f64 {
        self.inner.ssthresh()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn pacing_rate(&self) -> Option<f64> {
        self.inner.pacing_rate()
    }
}

/// An agent whose callbacks are timed as one layer. `as_any` reaches the
/// wrapped agent, so results read back exactly as without the wrapper.
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    slot: usize,
}

impl TimedAgent {
    /// Wraps `inner`, charging its callbacks to layer `slot`.
    pub fn new(inner: Box<dyn Agent>, slot: usize) -> Self {
        TimedAgent { inner, slot }
    }
}

impl Agent for TimedAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        span(self.slot, Call::Other, || self.inner.on_start(ctx));
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        span(self.slot, Call::Packet, || self.inner.on_packet(packet, ctx));
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        span(self.slot, Call::Timer, || self.inner.on_timer(ctx));
    }
    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        span(self.slot, Call::Timer, || self.inner.on_aux_timer(ctx));
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
