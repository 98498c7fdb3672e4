//! The sender-algorithm abstraction shared by TCP-PR and all baselines.
//!
//! A TCP sender is modeled as a pure state machine: the host adapter feeds
//! it ACK and timer events and it responds with transmissions and a timer
//! deadline through a [`SenderOutput`] buffer. This keeps every congestion
//! control algorithm free of simulator types and unit-testable in isolation.

use netsim::time::SimTime;

/// A fully-parsed acknowledgment as seen by a sender algorithm.
#[derive(Debug, Clone)]
pub struct AckEvent {
    /// Cumulative ACK: the next segment the receiver expects.
    pub cum_ack: u64,
    /// SACK blocks `[start, end)`, most recently received first (empty if the
    /// receiver has no out-of-order data or SACK is disabled).
    pub sack: Vec<(u64, u64)>,
    /// DSACK report of a duplicate arrival, per RFC 2883.
    pub dsack: Option<(u64, u64)>,
    /// Echo of the timestamp the corresponding data segment carried.
    pub echo_timestamp: SimTime,
    /// Echo of that segment's transmission count (1 = first transmission).
    pub echo_tx_count: u32,
    /// True if the receiver marked this a duplicate ACK.
    pub dup: bool,
}

/// A request to put one segment on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Segment to transmit.
    pub seq: u64,
    /// True if `seq` has been transmitted before.
    pub is_retransmit: bool,
}

/// Timer disposition requested by a sender callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerOp {
    /// Leave any pending timer as is.
    #[default]
    Keep,
    /// (Re-)arm the timer for the given instant.
    Set(SimTime),
    /// Disarm the timer.
    Cancel,
}

/// Output buffer a sender algorithm fills during a callback.
#[derive(Debug, Default)]
pub struct SenderOutput {
    transmissions: Vec<Transmission>,
    timer: TimerOp,
}

impl SenderOutput {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests transmission of `seq`.
    pub fn transmit(&mut self, seq: u64, is_retransmit: bool) {
        self.transmissions.push(Transmission { seq, is_retransmit });
    }

    /// Requests the host re-arm the sender's timer for `at`.
    pub fn set_timer(&mut self, at: SimTime) {
        self.timer = TimerOp::Set(at);
    }

    /// Requests the host disarm the sender's timer.
    pub fn cancel_timer(&mut self) {
        self.timer = TimerOp::Cancel;
    }

    /// The transmissions requested so far.
    pub fn transmissions(&self) -> &[Transmission] {
        &self.transmissions
    }

    /// The timer disposition requested so far.
    pub fn timer(&self) -> TimerOp {
        self.timer
    }

    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.transmissions.clear();
        self.timer = TimerOp::Keep;
    }
}

/// A TCP sender congestion-control/loss-recovery state machine.
///
/// Implementations assume an infinitely backlogged application (the paper's
/// long-lived FTP flows): any segment number may be sent once the window
/// allows. Hosts deliver events in simulation-time order.
///
/// The [`SenderTelemetry`](crate::telemetry::SenderTelemetry) supertrait
/// obliges every variant to render its counters into a shared
/// [`CommonStats`](crate::telemetry::CommonStats) snapshot, so experiments
/// can report any mix of variants through one interface.
pub trait TcpSenderAlgo: std::fmt::Debug + crate::telemetry::SenderTelemetry {
    /// Called once when the flow starts; typically transmits the initial
    /// window and arms a timer.
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput);

    /// Called for every acknowledgment that arrives.
    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput);

    /// Called when the armed timer fires.
    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput);

    /// Current congestion window, in segments.
    fn cwnd(&self) -> f64;

    /// Current slow-start threshold, in segments (`f64::INFINITY` if unset).
    fn ssthresh(&self) -> f64;

    /// Short algorithm name used in reports (e.g. `"TCP-PR"`, `"TCP-SACK"`).
    fn name(&self) -> &'static str;

    /// Number of segments currently considered in flight (diagnostic).
    fn in_flight(&self) -> usize;

    /// Pacing rate in segments per second, if the algorithm wants its
    /// transmissions metered onto the wire instead of sent back-to-back
    /// (`None`, the default, sends immediately). Hosts re-read this after
    /// every callback, so rate changes take effect at once.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
}

impl TcpSenderAlgo for Box<dyn TcpSenderAlgo> {
    fn on_start(&mut self, now: SimTime, out: &mut SenderOutput) {
        (**self).on_start(now, out);
    }
    fn on_ack(&mut self, ack: &AckEvent, now: SimTime, out: &mut SenderOutput) {
        (**self).on_ack(ack, now, out);
    }
    fn on_timer(&mut self, now: SimTime, out: &mut SenderOutput) {
        (**self).on_timer(now, out);
    }
    fn cwnd(&self) -> f64 {
        (**self).cwnd()
    }
    fn ssthresh(&self) -> f64 {
        (**self).ssthresh()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn in_flight(&self) -> usize {
        (**self).in_flight()
    }
    fn pacing_rate(&self) -> Option<f64> {
        (**self).pacing_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_buffer_collects_and_clears() {
        let mut out = SenderOutput::new();
        out.transmit(3, false);
        out.transmit(3, true);
        out.set_timer(SimTime::from_nanos(5));
        assert_eq!(out.transmissions().len(), 2);
        assert_eq!(out.timer(), TimerOp::Set(SimTime::from_nanos(5)));
        out.clear();
        assert!(out.transmissions().is_empty());
        assert_eq!(out.timer(), TimerOp::Keep);
    }

    #[test]
    fn cancel_overrides_set() {
        let mut out = SenderOutput::new();
        out.set_timer(SimTime::from_nanos(5));
        out.cancel_timer();
        assert_eq!(out.timer(), TimerOp::Cancel);
    }
}
