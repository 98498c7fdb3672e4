//! The discrete-event core: a time-ordered queue with deterministic
//! tie-breaking.
//!
//! Events at the same instant are dispatched in insertion order (FIFO), which
//! makes simulations reproducible regardless of heap internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ids::{AgentId, LinkId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet arrives at a node (end of a link's propagation).
    Arrive {
        /// Node the packet arrives at.
        node: NodeId,
        /// The packet itself.
        packet: Packet,
    },
    /// A link finished serializing the previous packet and can start the next.
    LinkReady {
        /// The link that became free.
        link: LinkId,
    },
    /// An agent timer fires.
    Timer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// Timer generation; lets the simulator discard superseded timers.
        generation: u64,
    },
    /// An agent's auxiliary timer fires (second, independent timer slot —
    /// e.g. a pacing release clock beside the retransmission timer).
    AuxTimer {
        /// The agent whose auxiliary timer fires.
        agent: AgentId,
        /// Auxiliary-timer generation; superseded timers are discarded.
        generation: u64,
    },
    /// A scheduled routing change takes effect (models route flaps and
    /// routing-protocol reconvergence).
    InstallRoute {
        /// Source of the (src, dst) pair whose route changes.
        src: NodeId,
        /// Destination of the pair.
        dst: NodeId,
        /// The new path mixture.
        route: Box<crate::routing::MultipathRoute>,
    },
    /// A scheduled administrative link change takes effect (flapping,
    /// bandwidth/delay oscillation; see [`crate::impair::schedule`]).
    LinkAdmin {
        /// The link the action applies to.
        link: LinkId,
        /// What changes.
        action: crate::impair::LinkAdmin,
    },
    /// The simulation control loop should pause and return to the caller.
    Breakpoint,
}

impl EventKind {
    /// Stable profiler counter key for this event kind (one per variant),
    /// used by the dispatch loop's per-event-kind counters.
    pub fn profile_key(&self) -> &'static str {
        match self {
            EventKind::Arrive { .. } => "event.arrive",
            EventKind::LinkReady { .. } => "event.link_ready",
            EventKind::Timer { .. } => "event.timer",
            EventKind::AuxTimer { .. } => "event.aux_timer",
            EventKind::InstallRoute { .. } => "event.install_route",
            EventKind::LinkAdmin { .. } => "event.link_admin",
            EventKind::Breakpoint => "event.breakpoint",
        }
    }
}

/// Bits of a queue key that hold the slab slot: at most 2^24 events may be
/// pending at once.
const SLOT_BITS: u32 = 24;
/// Bits of a queue key that hold the insertion sequence number: at most
/// 2^40 events may be scheduled over one queue's lifetime.
const SEQ_BITS: u32 = 64 - SLOT_BITS;
/// Most events that may be pending at once.
pub const MAX_PENDING: usize = 1 << SLOT_BITS;
/// Most events one queue may schedule over its lifetime.
pub const MAX_SCHEDULED: u64 = 1 << SEQ_BITS;

/// Heap key of one pending event: `at_ns << 64 | seq << 24 | slot`. Sequence
/// numbers are unique, so one integer compare orders keys by
/// `(time, insertion seq)`; the slot bits never decide an order.
type Key = u128;

fn key_time(key: Key) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

fn key_slot(key: Key) -> usize {
    (key as usize) & (MAX_PENDING - 1)
}

/// Deterministic future-event list.
///
/// The heap holds only 16-byte keys; the events themselves sit still in a
/// slab whose freed slots are reused through a free list, so sifting moves
/// no [`Packet`].
///
/// # Examples
///
/// ```
/// use netsim::event::{EventQueue, EventKind};
/// use netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), EventKind::Breakpoint);
/// q.schedule(SimTime::from_nanos(10), EventKind::Breakpoint);
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_nanos(10));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Min-heap (through `Reverse`) of the pending events' keys.
    heap: BinaryHeap<Reverse<Key>>,
    /// Event storage; a free slot holds a `Breakpoint` placeholder.
    slab: Vec<EventKind>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
    peak_len: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if [`MAX_PENDING`] events are already pending or the queue
    /// has already scheduled [`MAX_SCHEDULED`] events.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        assert!(seq < MAX_SCHEDULED, "event queue scheduled 2^40 events");
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = kind;
                slot as usize
            }
            None => {
                assert!(self.slab.len() < MAX_PENDING, "event queue holds 2^24 pending events");
                self.slab.push(kind);
                self.slab.len() - 1
            }
        };
        let key = (at.as_nanos() as Key) << 64 | (seq as Key) << SLOT_BITS | slot as Key;
        self.heap.push(Reverse(key));
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = key_slot(key);
        let kind = std::mem::replace(&mut self.slab[slot], EventKind::Breakpoint);
        self.free.push(slot as u32);
        Some((key_time(key), kind))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| key_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of simultaneously pending events seen so far
    /// (run-health diagnostic; see [`crate::telemetry`]).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// In-memory footprint of one scheduled event: its heap key plus its
    /// slab slot, bytes. Lets harnesses convert [`EventQueue::peak_len`]
    /// (surfaced as `peak_event_heap` in run health) into a byte figure,
    /// e.g. for per-flow memory accounting at population scale.
    pub fn record_bytes() -> usize {
        std::mem::size_of::<Key>() + std::mem::size_of::<EventKind>()
    }

    /// Number of pending [`EventKind::Arrive`] events — packets currently
    /// in flight between a link's transmitter and its far end. Used by the
    /// conservation check in [`crate::oracle`]; O(pending events).
    pub fn pending_arrivals(&self) -> usize {
        self.heap
            .iter()
            .filter(|&&Reverse(key)| matches!(self.slab[key_slot(key)], EventKind::Arrive { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> EventKind {
        EventKind::Breakpoint
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), bp());
        q.schedule(SimTime::from_nanos(10), bp());
        q.schedule(SimTime::from_nanos(20), bp());
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_nanos())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(0) });
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(1) });
        q.schedule(t, EventKind::LinkReady { link: LinkId::from_raw(2) });
        let mut order = Vec::new();
        while let Some((_, EventKind::LinkReady { link })) = q.pop() {
            order.push(link.index());
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(42), bp());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn pending_arrivals_counts_only_arrive_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.pending_arrivals(), 0);
        q.schedule(SimTime::from_nanos(1), bp());
        q.schedule(SimTime::from_nanos(2), EventKind::LinkReady { link: LinkId::from_raw(0) });
        assert_eq!(q.pending_arrivals(), 0, "non-arrival events do not count");
        let packet = crate::packet::Packet {
            uid: 0,
            flow: crate::ids::FlowId::from_raw(0),
            src: NodeId::from_raw(0),
            dst: NodeId::from_raw(1),
            size_bytes: 1000,
            kind: crate::packet::PacketKind::Data(crate::packet::DataHeader {
                seq: 0,
                is_retransmit: false,
                tx_count: 1,
                timestamp: SimTime::ZERO,
            }),
            injected_at: SimTime::ZERO,
            hops: 0,
            route: None,
        };
        q.schedule(SimTime::from_nanos(3), EventKind::Arrive { node: NodeId::from_raw(1), packet });
        assert_eq!(q.pending_arrivals(), 1);
    }

    #[test]
    fn record_bytes_is_pinned() {
        // `scale`'s `bytes_per_flow` charges each flow its share of
        // `peak_len() * record_bytes()`, and that figure is part of the
        // benchmark's golden digests: a change here moves them.
        assert_eq!(EventQueue::record_bytes(), 152);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(SimTime::from_nanos(round), bp());
            q.schedule(SimTime::from_nanos(round), bp());
            q.pop();
            q.pop();
        }
        assert_eq!(q.slab.len(), 2, "the slab holds at most the peak number pending");
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::from_nanos(1), bp());
        q.schedule(SimTime::from_nanos(2), bp());
        q.schedule(SimTime::from_nanos(3), bp());
        q.pop();
        q.pop();
        q.schedule(SimTime::from_nanos(4), bp());
        assert_eq!(q.peak_len(), 3, "peak is the high-water mark, not current len");
        assert_eq!(q.len(), 2);
    }
}
