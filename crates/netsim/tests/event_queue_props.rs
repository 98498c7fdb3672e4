//! The event queue against a reference model: a `BTreeMap` keyed by
//! `(time, insertion seq)`, which is the order the queue promises. Random
//! schedule/pop interleavings with many same-instant ties and heavy slot
//! reuse must pop the same events in the same order, and every query must
//! agree after every step.

use std::collections::BTreeMap;

use netsim::event::{EventKind, EventQueue};
use netsim::ids::{FlowId, LinkId, NodeId};
use netsim::packet::{DataHeader, Packet, PacketKind};
use netsim::time::SimTime;
use proptest::prelude::*;

/// An event that carries `tag`, so a popped event can be told apart from
/// every other; every third one is an `Arrive`.
fn event(tag: u32) -> EventKind {
    if tag.is_multiple_of(3) {
        let packet = Packet {
            uid: u64::from(tag),
            flow: FlowId::from_raw(0),
            src: NodeId::from_raw(0),
            dst: NodeId::from_raw(1),
            size_bytes: 1000,
            kind: PacketKind::Data(DataHeader {
                seq: 0,
                is_retransmit: false,
                tx_count: 1,
                timestamp: SimTime::ZERO,
            }),
            injected_at: SimTime::ZERO,
            hops: 0,
            route: None,
        };
        EventKind::Arrive { node: NodeId::from_raw(1), packet }
    } else {
        EventKind::LinkReady { link: LinkId::from_raw(tag) }
    }
}

fn tag(kind: &EventKind) -> u32 {
    match kind {
        EventKind::Arrive { packet, .. } => packet.uid as u32,
        EventKind::LinkReady { link } => link.index() as u32,
        other => panic!("unexpected event {other:?}"),
    }
}

/// Reference queue: ordered by `(time, seq)`, with the same counters.
#[derive(Default)]
struct Model {
    events: BTreeMap<(SimTime, u64), u32>,
    next_seq: u64,
    peak_len: usize,
}

impl Model {
    fn schedule(&mut self, at: SimTime, tag: u32) {
        self.events.insert((at, self.next_seq), tag);
        self.next_seq += 1;
        self.peak_len = self.peak_len.max(self.events.len());
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.events.pop_first().map(|((at, _), tag)| (at, tag))
    }

    fn pending_arrivals(&self) -> usize {
        self.events.values().filter(|&&tag| tag.is_multiple_of(3)).count()
    }
}

/// Drives both queues through `ops` — `(op, value)` pairs where `op < push_weight`
/// schedules at an instant drawn from `value % spread`, anything else pops —
/// comparing them after every step.
fn run(ops: &[(u64, u64)], push_weight: u64, spread: u64) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    let mut next_tag = 0u32;
    for &(op, value) in ops {
        if op < push_weight {
            let at = SimTime::from_nanos(value % spread);
            queue.schedule(at, event(next_tag));
            model.schedule(at, next_tag);
            next_tag += 1;
        } else {
            let got = queue.pop().map(|(at, kind)| (at, tag(&kind)));
            prop_assert_eq!(got, model.pop());
        }
        prop_assert_eq!(queue.len(), model.events.len());
        prop_assert_eq!(queue.is_empty(), model.events.is_empty());
        prop_assert_eq!(queue.peak_len(), model.peak_len);
        prop_assert_eq!(queue.peek_time(), model.events.keys().next().map(|&(at, _)| at));
        prop_assert_eq!(queue.pending_arrivals(), model.pending_arrivals());
    }
    // Drain: the rest must come out in model order too.
    while let Some((at, kind)) = queue.pop() {
        prop_assert_eq!(Some((at, tag(&kind))), model.pop());
    }
    prop_assert!(model.events.is_empty());
    Ok(())
}

proptest! {
    /// Balanced interleavings over four instants: nearly every schedule
    /// ties with pending events and lands in a just-freed slot.
    #[test]
    fn ties_and_slot_reuse_match_the_model(
        ops in collection::vec((0u64..4, 0u64..1_000), 0..600),
    ) {
        run(&ops, 2, 4)?;
    }

    /// Schedule-heavy bursts over a wider time range, so the queue grows,
    /// drains and grows again with a fragmented free list.
    #[test]
    fn bursts_match_the_model(
        ops in collection::vec((0u64..5, 0u64..1_000_000), 0..800),
        spread in 1u64..10_000,
    ) {
        run(&ops, 3, spread)?;
    }
}
