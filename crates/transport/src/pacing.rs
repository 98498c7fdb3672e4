//! Paced segment release.
//!
//! Rate-based congestion controllers (BBR) do not want their window of
//! segments serialized back-to-back; they meter segments onto the wire at a
//! computed rate. The [`Pacer`] holds transmissions a sender algorithm has
//! requested and releases them on a deterministic schedule derived purely
//! from simulation time: the host releases due segments whenever it runs and
//! arms the agent's *auxiliary* timer (see
//! [`netsim::agent::AgentCtx::set_aux_timer`]) for the next release instant.
//! No wall-clock input is involved, so paced runs stay bit-reproducible.
//!
//! The discipline is the classic token-less pacer: each released segment
//! pushes the next release instant `1/rate` seconds past the later of "now"
//! and the previous release instant. A sender that falls idle restarts
//! immediately (no credit accumulates, no catch-up burst is granted).

use std::collections::VecDeque;

use netsim::time::{SimDuration, SimTime};

use crate::sender::Transmission;

/// Floor on the pacing rate, segments/second; guards the interval
/// computation against degenerate (zero or denormal) rates.
const MIN_RATE: f64 = 1e-3;

/// A FIFO of transmissions awaiting their paced release instants.
///
/// # Examples
///
/// ```
/// use netsim::time::SimTime;
/// use transport::pacing::Pacer;
/// use transport::sender::Transmission;
///
/// let mut p = Pacer::new();
/// p.enqueue(Transmission { seq: 0, is_retransmit: false });
/// p.enqueue(Transmission { seq: 1, is_retransmit: false });
/// // 100 segments/s → one segment now, the next due 10 ms later.
/// let now = SimTime::from_secs_f64(1.0);
/// let mut due = Vec::new();
/// assert_eq!(p.release_due(now, 100.0, &mut due), 1);
/// assert_eq!(due, [Transmission { seq: 0, is_retransmit: false }]);
/// assert_eq!(p.next_deadline(), Some(SimTime::from_secs_f64(1.010)));
/// ```
#[derive(Debug, Default)]
pub struct Pacer {
    queue: VecDeque<Transmission>,
    next_release: SimTime,
    released: u64,
}

impl Pacer {
    /// Creates an empty pacer whose first segment may go immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a transmission behind everything already waiting.
    pub fn enqueue(&mut self, t: Transmission) {
        self.queue.push_back(t);
        if obs::enabled() {
            obs::count("pacer.enqueued", 1);
            obs::observe("pacer.depth", self.queue.len() as u64);
        }
    }

    /// Number of transmissions waiting for release.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total segments released over the pacer's lifetime.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Releases every transmission due at `now` under `rate` (segments per
    /// second) onto the end of `out`, in FIFO order, and returns how many
    /// were released. Each release pushes the next release instant `1/rate`
    /// past `max(now, previous release instant)`, so at most one segment
    /// departs per distinct instant — a late timer never triggers a
    /// catch-up burst.
    pub fn release_due(&mut self, now: SimTime, rate: f64, out: &mut Vec<Transmission>) -> usize {
        let interval = SimDuration::from_secs_f64(1.0 / rate.max(MIN_RATE));
        let before = out.len();
        while self.next_release <= now {
            let Some(t) = self.queue.pop_front() else { break };
            out.push(t);
            self.released += 1;
            self.next_release = self.next_release.max(now) + interval;
        }
        out.len() - before
    }

    /// Releases everything onto the end of `out` immediately, ignoring the
    /// schedule (used when an algorithm stops requesting pacing mid-flow).
    pub fn drain(&mut self, out: &mut Vec<Transmission>) {
        obs::count("pacer.drained", self.queue.len() as u64);
        self.released += self.queue.len() as u64;
        out.extend(self.queue.drain(..));
    }

    /// The instant the queue head may depart, or `None` if nothing waits.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.queue.is_empty() {
            None
        } else {
            Some(self.next_release)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(seq: u64) -> Transmission {
        Transmission { seq, is_retransmit: false }
    }

    /// `release_due` into a fresh buffer.
    fn due(p: &mut Pacer, now: SimTime, rate: f64) -> Vec<Transmission> {
        let mut out = Vec::new();
        let n = p.release_due(now, rate, &mut out);
        assert_eq!(n, out.len());
        out
    }

    #[test]
    fn releases_one_segment_per_interval() {
        let mut p = Pacer::new();
        for seq in 0..3 {
            p.enqueue(tx(seq));
        }
        // 1000 segments/s → 1 ms spacing.
        let t0 = SimTime::from_secs_f64(0.5);
        assert_eq!(due(&mut p, t0, 1000.0), vec![tx(0)]);
        assert_eq!(p.next_deadline(), Some(t0 + SimDuration::from_millis(1)));
        // Nothing more is due before the deadline.
        assert!(due(&mut p, t0 + SimDuration::from_micros(500), 1000.0).is_empty());
        let t1 = t0 + SimDuration::from_millis(1);
        assert_eq!(due(&mut p, t1, 1000.0), vec![tx(1)]);
        let t2 = t1 + SimDuration::from_millis(1);
        assert_eq!(due(&mut p, t2, 1000.0), vec![tx(2)]);
        assert!(p.is_empty());
        assert_eq!(p.next_deadline(), None);
        assert_eq!(p.released(), 3);
    }

    #[test]
    fn idle_restart_does_not_grant_a_burst() {
        let mut p = Pacer::new();
        p.enqueue(tx(0));
        let _ = due(&mut p, SimTime::from_secs_f64(1.0), 100.0);
        // Long idle gap, then two segments arrive: only one may go now.
        p.enqueue(tx(1));
        p.enqueue(tx(2));
        let late = SimTime::from_secs_f64(5.0);
        assert_eq!(due(&mut p, late, 100.0), vec![tx(1)]);
        assert_eq!(p.next_deadline(), Some(late + SimDuration::from_millis(10)));
    }

    #[test]
    fn a_late_timer_never_bursts() {
        let mut p = Pacer::new();
        for seq in 0..4 {
            p.enqueue(tx(seq));
        }
        let t0 = SimTime::from_secs_f64(0.0);
        let _ = due(&mut p, t0, 1000.0);
        // The caller shows up 10 intervals late; still one segment only.
        let late = t0 + SimDuration::from_millis(10);
        assert_eq!(due(&mut p, late, 1000.0).len(), 1);
    }

    #[test]
    fn rate_changes_apply_to_subsequent_releases() {
        let mut p = Pacer::new();
        for seq in 0..2 {
            p.enqueue(tx(seq));
        }
        let t0 = SimTime::from_secs_f64(0.0);
        let _ = due(&mut p, t0, 1000.0); // 1 ms spacing
        assert_eq!(p.next_deadline(), Some(t0 + SimDuration::from_millis(1)));
        let t1 = t0 + SimDuration::from_millis(1);
        let _ = due(&mut p, t1, 100.0); // next gap would be 10 ms
        assert!(p.is_empty());
    }

    #[test]
    fn drain_flushes_everything() {
        let mut p = Pacer::new();
        for seq in 0..5 {
            p.enqueue(tx(seq));
        }
        let mut out = vec![tx(9)];
        p.drain(&mut out);
        assert_eq!(out, [9, 0, 1, 2, 3, 4].map(tx), "drain appends in FIFO order");
        assert!(p.is_empty());
        assert_eq!(p.released(), 5);
    }

    #[test]
    fn degenerate_rate_is_clamped() {
        let mut p = Pacer::new();
        p.enqueue(tx(0));
        // A zero rate must not panic or divide by zero; the clamp yields a
        // very long (but finite) interval.
        let out = due(&mut p, SimTime::from_secs_f64(1.0), 0.0);
        assert_eq!(out.len(), 1);
        assert!(p.is_empty());
    }
}
