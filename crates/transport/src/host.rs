//! Host adapters binding sender algorithms and receivers into the simulator.
//!
//! [`SenderHost`] wraps any [`TcpSenderAlgo`] as a netsim [`Agent`];
//! [`ReceiverHost`] does the same for the shared [`TcpReceiver`]. The
//! [`attach_flow`] helper wires a sender/receiver pair onto a topology.

use std::any::Any;

use netsim::agent::{Agent, AgentCtx};
use netsim::ids::{AgentId, FlowId, NodeId};
use netsim::packet::{AckHeader, DataHeader, Packet, PacketKind, ACK_PACKET_BYTES};
use netsim::sim::Simulator;
use netsim::time::SimTime;

use crate::pacing::Pacer;
use crate::receiver::{ReceiverConfig, ReceiverStats, TcpReceiver};
use crate::sender::{AckEvent, SenderOutput, TcpSenderAlgo, TimerOp, Transmission};

/// Counters a sender host keeps.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct SenderStats {
    /// Data segments put on the wire (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Highest cumulative ACK seen.
    pub last_cum_ack: u64,
    /// ACK packets processed.
    pub acks_received: u64,
    /// Segments that went through the pacer (zero for unpaced algorithms).
    pub paced_segments: u64,
}

/// Per-flow configuration for [`attach_flow`].
#[derive(Debug, Clone, Copy)]
pub struct FlowOptions {
    /// Segment size in bytes (wire size of data packets).
    pub mss: u32,
    /// When the sender begins transmitting.
    pub start_at: SimTime,
    /// Receiver feature switches.
    pub receiver: ReceiverConfig,
    /// Record `(time, cwnd)` after every ACK (costs memory; default off).
    pub trace_cwnd: bool,
    /// Delayed acknowledgments (RFC 1122): hold an in-order ACK for up to
    /// this long or until a second segment arrives; out-of-order arrivals
    /// are acknowledged immediately. `None` (the default, and ns-2
    /// `TCPSink`'s behaviour) acknowledges every segment.
    pub delayed_ack: Option<netsim::time::SimDuration>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            mss: netsim::packet::DATA_PACKET_BYTES,
            start_at: SimTime::ZERO,
            receiver: ReceiverConfig::default(),
            trace_cwnd: false,
            delayed_ack: None,
        }
    }
}

/// A sender endpoint: hosts a [`TcpSenderAlgo`] on a node.
#[derive(Debug)]
pub struct SenderHost<S> {
    algo: S,
    dst: NodeId,
    mss: u32,
    start_at: SimTime,
    started: bool,
    /// Transmissions so far of each segment, indexed by sequence number.
    tx_counts: Vec<u32>,
    stats: SenderStats,
    trace_cwnd: bool,
    cwnd_trace: Vec<(SimTime, f64)>,
    out: SenderOutput,
    pacer: Pacer,
    /// Segments about to be sent by the current callback; kept across
    /// callbacks so that sending allocates nothing in steady state.
    batch: Vec<Transmission>,
}

impl<S: TcpSenderAlgo> SenderHost<S> {
    /// Creates a sender host that will transmit towards `dst`.
    pub fn new(algo: S, dst: NodeId, opts: &FlowOptions) -> Self {
        SenderHost {
            algo,
            dst,
            mss: opts.mss,
            start_at: opts.start_at,
            started: false,
            tx_counts: Vec::new(),
            stats: SenderStats::default(),
            trace_cwnd: opts.trace_cwnd,
            cwnd_trace: Vec::new(),
            out: SenderOutput::new(),
            pacer: Pacer::new(),
            batch: Vec::new(),
        }
    }

    /// The wrapped algorithm.
    pub fn algo(&self) -> &S {
        &self.algo
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Bytes acknowledged so far (cumulative ACK × MSS).
    pub fn acked_bytes(&self) -> u64 {
        self.stats.last_cum_ack * self.mss as u64
    }

    /// The recorded `(time, cwnd)` trace (empty unless enabled).
    pub fn cwnd_trace(&self) -> &[(SimTime, f64)] {
        &self.cwnd_trace
    }

    fn begin(&mut self, ctx: &mut AgentCtx<'_>) {
        self.started = true;
        self.algo.on_start(ctx.now, &mut self.out);
        self.apply_output(ctx);
    }

    fn apply_output(&mut self, ctx: &mut AgentCtx<'_>) {
        match self.algo.pacing_rate() {
            Some(rate) => {
                for &t in self.out.transmissions() {
                    self.pacer.enqueue(t);
                }
                self.release_paced(ctx, rate);
            }
            None => {
                // The algorithm stopped pacing (or never paced); flush any
                // residue the pacer still holds, then send directly.
                let mut batch = std::mem::take(&mut self.batch);
                self.pacer.drain(&mut batch);
                batch.extend_from_slice(self.out.transmissions());
                self.send_batch(ctx, batch);
            }
        }
        match self.out.timer() {
            TimerOp::Keep => {}
            TimerOp::Set(at) => ctx.set_timer(at),
            TimerOp::Cancel => ctx.cancel_timer(),
        }
        self.out.clear();
    }

    /// Releases every paced segment now due and re-arms the auxiliary timer
    /// for the next release instant, if any segment is still waiting.
    fn release_paced(&mut self, ctx: &mut AgentCtx<'_>, rate: f64) {
        let mut batch = std::mem::take(&mut self.batch);
        let released = self.pacer.release_due(ctx.now, rate, &mut batch);
        if released > 0 && obs::enabled() {
            obs::count("pacer.released", released as u64);
            obs::observe("pacer.batch", released as u64);
            obs::span(ctx.now.as_nanos(), "pacer.release", || {
                format!("batch={released} rate_sps={rate:.0}")
            });
        }
        self.stats.paced_segments += released as u64;
        self.send_batch(ctx, batch);
        if let Some(at) = self.pacer.next_deadline() {
            ctx.set_aux_timer(at);
        }
    }

    /// Sends every segment of `batch` in order, then keeps the emptied
    /// buffer for the next callback.
    fn send_batch(&mut self, ctx: &mut AgentCtx<'_>, mut batch: Vec<Transmission>) {
        for t in batch.drain(..) {
            self.send_segment(ctx, t);
        }
        self.batch = batch;
    }

    fn send_segment(&mut self, ctx: &mut AgentCtx<'_>, t: Transmission) {
        let seq = t.seq as usize;
        if seq >= self.tx_counts.len() {
            self.tx_counts.resize(seq + 1, 0);
        }
        let count = &mut self.tx_counts[seq];
        *count += 1;
        self.stats.segments_sent += 1;
        if t.is_retransmit {
            self.stats.retransmits += 1;
        }
        ctx.send(
            self.dst,
            self.mss,
            PacketKind::Data(DataHeader {
                seq: t.seq,
                is_retransmit: t.is_retransmit,
                tx_count: *count,
                timestamp: ctx.now,
            }),
        );
    }
}

impl<S: TcpSenderAlgo + 'static> Agent for SenderHost<S> {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.start_at > ctx.now {
            ctx.set_timer(self.start_at);
        } else {
            self.begin(ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Ack(h) = packet.kind else { return };
        if !self.started {
            return;
        }
        self.stats.acks_received += 1;
        self.stats.last_cum_ack = self.stats.last_cum_ack.max(h.cum_ack);
        let ack = AckEvent {
            cum_ack: h.cum_ack,
            sack: h.sack,
            dsack: h.dsack,
            echo_timestamp: h.echo_timestamp,
            echo_tx_count: h.echo_tx_count,
            dup: h.dup,
        };
        self.algo.on_ack(&ack, ctx.now, &mut self.out);
        self.apply_output(ctx);
        if self.trace_cwnd {
            self.cwnd_trace.push((ctx.now, self.algo.cwnd()));
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.started {
            self.begin(ctx);
        } else {
            self.algo.on_timer(ctx.now, &mut self.out);
            self.apply_output(ctx);
        }
    }

    fn on_aux_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        match self.algo.pacing_rate() {
            Some(rate) => self.release_paced(ctx, rate),
            None => {
                let mut batch = std::mem::take(&mut self.batch);
                self.pacer.drain(&mut batch);
                self.send_batch(ctx, batch);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A receiver endpoint: hosts the shared [`TcpReceiver`] on a node.
#[derive(Debug)]
pub struct ReceiverHost {
    rx: TcpReceiver,
    mss: u32,
    acks_sent: u64,
    delayed_ack: Option<netsim::time::SimDuration>,
    /// ACK held back by the delayed-ACK timer, with its destination.
    pending: Option<(NodeId, AckHeader)>,
    /// In-order segments received since the last ACK was sent.
    unacked: u32,
}

impl ReceiverHost {
    /// Creates a receiver host that acknowledges every segment.
    pub fn new(cfg: ReceiverConfig, mss: u32) -> Self {
        ReceiverHost {
            rx: TcpReceiver::new(cfg),
            mss,
            acks_sent: 0,
            delayed_ack: None,
            pending: None,
            unacked: 0,
        }
    }

    /// Creates a receiver host with delayed acknowledgments.
    pub fn with_delayed_ack(
        cfg: ReceiverConfig,
        mss: u32,
        delay: netsim::time::SimDuration,
    ) -> Self {
        ReceiverHost { delayed_ack: Some(delay), ..Self::new(cfg, mss) }
    }

    /// In-order bytes delivered to the application so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.rx.rcv_nxt() * self.mss as u64
    }

    /// Bytes of distinct segments received so far (first arrivals,
    /// regardless of order). This is the throughput measure used by the
    /// experiment harnesses: unlike [`ReceiverHost::delivered_bytes`] it is
    /// timed by *arrival*, so a reorder hole straddling a measurement
    /// boundary cannot smear delivery into the wrong window.
    pub fn received_unique_bytes(&self) -> u64 {
        let stats = self.rx.stats();
        (stats.segments_received - stats.duplicates) * self.mss as u64
    }

    /// In-order segments delivered so far.
    pub fn delivered_segments(&self) -> u64 {
        self.rx.rcv_nxt()
    }

    /// Arrival statistics (duplicates, reordering).
    pub fn receiver_stats(&self) -> ReceiverStats {
        self.rx.stats()
    }

    /// ACK packets emitted.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }
}

impl ReceiverHost {
    fn emit(&mut self, ctx: &mut AgentCtx<'_>, dst: NodeId, header: AckHeader) {
        self.acks_sent += 1;
        self.unacked = 0;
        self.pending = None;
        ctx.send(dst, ACK_PACKET_BYTES, PacketKind::Ack(header));
    }
}

impl Agent for ReceiverHost {
    fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Data(h) = &packet.kind else { return };
        let ack = self.rx.on_data(h.seq);
        let header = AckHeader {
            cum_ack: ack.cum_ack,
            sack: ack.sack,
            dsack: ack.dsack,
            echo_timestamp: h.timestamp,
            echo_tx_count: h.tx_count,
            dup: ack.dup,
        };
        match self.delayed_ack {
            None => self.emit(ctx, packet.src, header),
            Some(delay) => {
                // RFC 5681: out-of-order (or duplicate) arrivals are
                // acknowledged immediately; in-order data may be delayed for
                // up to `delay` or one extra segment.
                self.unacked += 1;
                if header.dup || header.dsack.is_some() || self.unacked >= 2 {
                    self.emit(ctx, packet.src, header);
                    ctx.cancel_timer();
                } else {
                    self.pending = Some((packet.src, header));
                    ctx.set_timer(ctx.now + delay);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some((dst, header)) = self.pending.take() {
            self.emit(ctx, dst, header);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Agent ids of an attached flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowHandle {
    /// The flow id shared by both endpoints.
    pub flow: FlowId,
    /// Sender agent.
    pub sender: AgentId,
    /// Receiver agent.
    pub receiver: AgentId,
}

/// Attaches a sender running `algo` at `src` and a matching receiver at
/// `dst`, both serving `flow`.
///
/// # Panics
///
/// Panics if `flow` already has an agent at either node.
pub fn attach_flow<S: TcpSenderAlgo + 'static>(
    sim: &mut Simulator,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    algo: S,
    opts: FlowOptions,
) -> FlowHandle {
    let sender = sim.add_agent(src, flow, Box::new(SenderHost::new(algo, dst, &opts)));
    let rx_host = match opts.delayed_ack {
        None => ReceiverHost::new(opts.receiver, opts.mss),
        Some(delay) => ReceiverHost::with_delayed_ack(opts.receiver, opts.mss, delay),
    };
    let receiver = sim.add_agent(dst, flow, Box::new(rx_host));
    FlowHandle { flow, sender, receiver }
}

/// Reads a flow's receiver host back out of the simulator.
///
/// # Panics
///
/// Panics if `id` is not a [`ReceiverHost`].
pub fn receiver_host(sim: &Simulator, id: AgentId) -> &ReceiverHost {
    sim.agent(id).as_any().downcast_ref::<ReceiverHost>().expect("agent is a ReceiverHost")
}

/// Reads a flow's sender host back out of the simulator.
///
/// # Panics
///
/// Panics if `id` is not a `SenderHost<S>` with the given `S`.
pub fn sender_host<S: TcpSenderAlgo + 'static>(sim: &Simulator, id: AgentId) -> &SenderHost<S> {
    sim.agent(id).as_any().downcast_ref::<SenderHost<S>>().expect("agent is a SenderHost<S>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_window::FixedWindowSender;
    use netsim::link::LinkConfig;
    use netsim::sim::SimBuilder;
    use netsim::time::SimDuration;

    fn two_node() -> (Simulator, NodeId, NodeId) {
        let mut b = SimBuilder::new(7);
        let src = b.add_node();
        let dst = b.add_node();
        b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 500));
        (b.build(), src, dst)
    }

    fn fixed(window: usize) -> FixedWindowSender {
        FixedWindowSender::new(window, SimDuration::from_secs(2))
    }

    #[test]
    fn ack_per_segment_by_default() {
        let (mut sim, src, dst) = two_node();
        let h =
            attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        assert_eq!(rx.acks_sent(), rx.delivered_segments(), "one ACK per segment");
        assert!(rx.delivered_segments() > 100);
    }

    #[test]
    fn delayed_ack_halves_ack_count_in_order() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions {
            delayed_ack: Some(SimDuration::from_millis(100)),
            ..FlowOptions::default()
        };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), opts);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        let delivered = rx.delivered_segments();
        assert!(delivered > 100);
        let acks = rx.acks_sent();
        // In steady in-order flow, roughly one ACK per two segments.
        assert!(
            acks as f64 <= delivered as f64 * 0.65,
            "delayed ACKs should batch: {acks} acks for {delivered} segments"
        );
    }

    #[test]
    fn delayed_ack_timer_flushes_a_lone_segment() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions {
            delayed_ack: Some(SimDuration::from_millis(100)),
            ..FlowOptions::default()
        };
        // Window 1: every segment arrives alone, so every ACK must come
        // from the delayed-ACK timer.
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(1), opts);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let rx = receiver_host(&sim, h.receiver);
        assert!(rx.delivered_segments() >= 5, "flow must make progress via the timer");
        // Every delivered segment is eventually acknowledged by the timer;
        // the last one may still be pending at the cutoff.
        assert!(rx.delivered_segments() - rx.acks_sent() <= 1);
    }

    #[test]
    fn sender_start_offset_is_honored() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions { start_at: SimTime::from_secs_f64(1.0), ..FlowOptions::default() };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(4), opts);
        sim.run_until(SimTime::from_secs_f64(0.9));
        assert_eq!(sender_host::<FixedWindowSender>(&sim, h.sender).stats().segments_sent, 0);
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert!(sender_host::<FixedWindowSender>(&sim, h.sender).stats().segments_sent > 0);
    }

    /// A fixed-window sender that asks the host to pace its segments.
    #[derive(Debug)]
    struct PacedFixed {
        inner: FixedWindowSender,
        rate: f64,
    }

    impl crate::telemetry::SenderTelemetry for PacedFixed {
        fn common_stats(&self) -> crate::telemetry::CommonStats {
            self.inner.common_stats()
        }
    }

    impl TcpSenderAlgo for PacedFixed {
        fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_start(now, out);
        }
        fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_ack(ack, now, out);
        }
        fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
            self.inner.on_timer(now, out);
        }
        fn cwnd(&self) -> f64 {
            self.inner.cwnd()
        }
        fn ssthresh(&self) -> f64 {
            self.inner.ssthresh()
        }
        fn name(&self) -> &'static str {
            "paced-fixed"
        }
        fn in_flight(&self) -> usize {
            self.inner.in_flight()
        }
        fn pacing_rate(&self) -> Option<f64> {
            Some(self.rate)
        }
    }

    #[test]
    fn paced_sender_spaces_segments_at_the_requested_rate() {
        let (mut sim, src, dst) = two_node();
        sim.enable_trace(&[], 100_000);
        // 50 segments/s → 20 ms spacing, far wider than the 0.8 ms
        // serialization time of the 10 Mbps link.
        let algo = PacedFixed { inner: fixed(8), rate: 50.0 };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, algo, FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let host = sender_host::<PacedFixed>(&sim, h.sender);
        let stats = host.stats();
        assert!(stats.segments_sent > 50, "paced flow must make progress");
        assert_eq!(stats.paced_segments, stats.segments_sent, "every segment goes via the pacer");
        // Injection instants must be spaced by exactly the pacing interval.
        let injections: Vec<SimTime> = sim
            .trace_records()
            .iter()
            .filter(|r| matches!(r.kind, netsim::trace::TraceEventKind::Injected) && !r.is_ack)
            .map(|r| r.at)
            .collect();
        for pair in injections.windows(2) {
            assert!(
                pair[1] - pair[0] >= SimDuration::from_millis(20),
                "injections {:?} closer than the pacing interval",
                pair
            );
        }
    }

    #[test]
    fn unpaced_sender_never_touches_the_pacer() {
        let (mut sim, src, dst) = two_node();
        let h =
            attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(8), FlowOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.0));
        let stats = sender_host::<FixedWindowSender>(&sim, h.sender).stats();
        assert!(stats.segments_sent > 100);
        assert_eq!(stats.paced_segments, 0);
    }

    #[test]
    fn cwnd_trace_records_when_enabled() {
        let (mut sim, src, dst) = two_node();
        let opts = FlowOptions { trace_cwnd: true, ..FlowOptions::default() };
        let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, fixed(4), opts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let host = sender_host::<FixedWindowSender>(&sim, h.sender);
        assert!(!host.cwnd_trace().is_empty());
        assert!(host.cwnd_trace().iter().all(|&(_, w)| w == 4.0));
        assert_eq!(host.acked_bytes(), host.stats().last_cum_ack * 1000);
    }
}
