//! Allocation regression tests for the per-event path. A counting global
//! allocator (per thread, so parallel tests do not see each other) shows
//! that a running simulation allocates nothing per event once its buffers
//! have reached their steady-state capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;

use netsim::agent::{Agent, AgentCtx};
use netsim::ids::{FlowId, NodeId};
use netsim::link::LinkConfig;
use netsim::packet::{DataHeader, Packet, PacketKind};
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use transport::fixed_window::FixedWindowSender;
use transport::host::{attach_flow, receiver_host, sender_host, FlowOptions};

/// Forwards to the system allocator, counting `alloc`/`realloc` calls.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of the thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn ms(millis: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(millis)
}

/// Runs `sim` in 10 ms steps until `done` holds.
fn run_until_true(sim: &mut Simulator, mut done: impl FnMut(&Simulator) -> bool) {
    while !done(sim) {
        sim.run_for(SimDuration::from_millis(10));
    }
}

#[test]
fn lossless_fixed_window_flow_allocates_nothing_in_steady_state() {
    let mut b = SimBuilder::new(7);
    let src = b.add_node();
    let dst = b.add_node();
    b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 500));
    let mut sim = b.build();
    let algo = FixedWindowSender::new(8, SimDuration::from_millis(500));
    let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, algo, FlowOptions::default());
    let sent =
        |sim: &Simulator| sender_host::<FixedWindowSender>(sim, h.sender).stats().segments_sent;

    // The host's per-segment transmission counter is a table indexed by
    // sequence number that doubles its capacity at powers of two. Warm up
    // past segment 1024 (past the retransmission timeout, too, so the heap
    // holds its steady share of superseded timers), then measure up to
    // segment 2000, short of the next doubling: any allocation left is one
    // the per-event path makes.
    run_until_true(&mut sim, |sim| sent(sim) > 1100);
    let events = sim.stats().events;
    let before = allocs();
    run_until_true(&mut sim, |sim| sent(sim) >= 2000);
    let made = allocs() - before;
    let events = sim.stats().events - events;

    assert!(events > 3000, "the window must cover a steady stretch, got {events} events");
    assert_eq!(made, 0, "{made} allocations over {events} events");
    let rx = receiver_host(&sim, h.receiver);
    assert_eq!(rx.receiver_stats().duplicates, 0, "the flow must be lossless");
    assert!(rx.delivered_segments() >= 1990);
}

/// Binary tree of local sends: on packet `n` the agent sends `2n + 1` and
/// `2n + 2` to its own node (while below `nodes`) and re-arms its timer.
/// Local delivery runs the nested callback, and applies all its actions,
/// before the outer callback's next action.
#[derive(Debug)]
struct SelfSender {
    nodes: u64,
    /// Expected arrival order: a pre-order walk of the tree.
    expected: Vec<u64>,
    /// Arrivals so far, in all rounds.
    arrivals: usize,
    /// Timer firings so far, with the instant of the last one.
    timer_fires: u64,
    last_fire: SimTime,
}

impl SelfSender {
    fn new(nodes: u64) -> Self {
        fn preorder(n: u64, nodes: u64, out: &mut Vec<u64>) {
            if n < nodes {
                out.push(n);
                preorder(2 * n + 1, nodes, out);
                preorder(2 * n + 2, nodes, out);
            }
        }
        let mut expected = Vec::new();
        preorder(0, nodes, &mut expected);
        SelfSender { nodes, expected, arrivals: 0, timer_fires: 0, last_fire: SimTime::ZERO }
    }

    fn send(ctx: &mut AgentCtx<'_>, seq: u64) {
        let header = DataHeader { seq, is_retransmit: false, tx_count: 1, timestamp: ctx.now };
        ctx.send(ctx.node, 100, PacketKind::Data(header));
    }

    /// Starts one round: the root packet, then a timer 1 ms out. The tree's
    /// nested callbacks arm later timers first, so the round's timer only
    /// survives if this outer `set_timer` is applied last.
    fn round(&mut self, ctx: &mut AgentCtx<'_>) {
        Self::send(ctx, 0);
        ctx.set_timer(ctx.now + SimDuration::from_millis(1));
    }
}

impl Agent for SelfSender {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.round(ctx);
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Data(h) = packet.kind else { panic!("data only") };
        let want = self.expected[self.arrivals % self.expected.len()];
        assert_eq!(h.seq, want, "arrival {} out of order", self.arrivals);
        self.arrivals += 1;
        for child in [2 * h.seq + 1, 2 * h.seq + 2] {
            if child < self.nodes {
                Self::send(ctx, child);
            }
        }
        ctx.set_timer(ctx.now + SimDuration::from_millis(2 + h.seq));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.timer_fires += 1;
        self.last_fire = ctx.now;
        self.round(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn nested_local_delivery_applies_every_action_in_order() {
    let mut b = SimBuilder::new(3);
    let node: NodeId = b.add_node();
    let mut sim = b.build();
    let id = sim.add_agent(node, FlowId::from_raw(0), Box::new(SelfSender::new(31)));
    let agent = |sim: &Simulator| -> (usize, u64, SimTime) {
        let a = sim.agent(id).as_any().downcast_ref::<SelfSender>().expect("SelfSender");
        (a.arrivals, a.timer_fires, a.last_fire)
    };

    // Warm-up rounds size the simulator's stack of action buffers to the
    // tree's depth, and the event queue to the superseded timers of the
    // last 33 ms of rounds; later rounds reuse both.
    sim.run_until(ms(50));
    let before = allocs();
    sim.run_until(ms(150));
    let made = allocs() - before;

    let (arrivals, fires, last) = agent(&sim);
    // One round per millisecond: every round's outer timer won.
    assert_eq!(fires, 150);
    assert_eq!(last, ms(150));
    assert_eq!(arrivals, 151 * 31, "every packet of every round arrived, in pre-order");
    assert_eq!(sim.stats().delivered, 151 * 31);
    assert_eq!(made, 0, "{made} allocations over 100 nested rounds");
}
