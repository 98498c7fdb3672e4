//! The event queue on its own: `EventQueue::schedule`/`pop` replayed at a
//! workload's mean heap depth and event-kind mix (the classic hold model:
//! pop the earliest event, schedule one of the same kind later).

use std::hint::black_box;
use std::time::Instant;

use netsim::event::{EventKind, EventQueue};
use netsim::ids::{AgentId, FlowId, LinkId, NodeId};
use netsim::packet::{DataHeader, Packet, PacketKind};
use netsim::time::SimTime;

/// Event counts by kind: arrive, link-ready, timer, aux-timer.
pub type Mix = [u64; 4];

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn event(kind: usize, n: u64) -> EventKind {
    match kind {
        0 => EventKind::Arrive {
            node: NodeId::from_raw(1),
            packet: Packet {
                uid: n,
                flow: FlowId::from_raw(0),
                src: NodeId::from_raw(0),
                dst: NodeId::from_raw(1),
                size_bytes: 1000,
                kind: PacketKind::Data(DataHeader {
                    seq: n,
                    is_retransmit: false,
                    tx_count: 1,
                    timestamp: SimTime::ZERO,
                }),
                injected_at: SimTime::ZERO,
                hops: 0,
                route: None,
            },
        },
        1 => EventKind::LinkReady { link: LinkId::from_raw(0) },
        2 => EventKind::Timer { agent: AgentId::from_raw(0), generation: n },
        _ => EventKind::AuxTimer { agent: AgentId::from_raw(0), generation: n },
    }
}

fn kind_of(e: &EventKind) -> usize {
    match e {
        EventKind::Arrive { .. } => 0,
        EventKind::LinkReady { .. } => 1,
        EventKind::Timer { .. } => 2,
        _ => 3,
    }
}

/// Mean host nanoseconds per queue operation (a `schedule` or a `pop`)
/// over `holds` pop-then-schedule pairs at a constant `depth`, with new
/// events drawn from `mix`. The median of five repetitions.
pub fn ns_per_op(depth: usize, mix: Mix, seed: u64, holds: u64) -> f64 {
    let total: u64 = mix.iter().sum::<u64>().max(1);
    let depth = depth.max(1);
    // One microsecond mean spacing between pending events.
    let horizon = 2 * 1000 * depth as u64;
    let mut samples: Vec<f64> = (0..5)
        .map(|rep| {
            let mut rng = XorShift(seed ^ 0x9E37_79B9_7F4A_7C15 ^ rep);
            let pick = |rng: &mut XorShift| {
                let mut r = rng.next() % total;
                mix.iter()
                    .position(|&m| {
                        if r < m {
                            true
                        } else {
                            r -= m;
                            false
                        }
                    })
                    .unwrap_or(3)
            };
            let mut q = EventQueue::new();
            for n in 0..depth as u64 {
                let k = pick(&mut rng);
                q.schedule(SimTime::from_nanos(rng.next() % horizon), event(k, n));
            }
            let t0 = Instant::now();
            for n in 0..holds {
                let (at, e) = q.pop().expect("the queue never drains");
                let k = kind_of(black_box(&e));
                let later = at.as_nanos() + 1 + rng.next() % horizon;
                q.schedule(SimTime::from_nanos(later), event(k, n));
            }
            let ns = t0.elapsed().as_nanos() as f64;
            black_box(q.len());
            ns / (2 * holds) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_cost_is_positive_and_grows_with_work() {
        let mix = [46, 46, 8, 0];
        let small = ns_per_op(64, mix, 1, 20_000);
        assert!(small > 0.0);
        // The per-op cost is roughly flat in the number of holds; total time
        // must grow with it, or the loop was optimised away.
        let t0 = Instant::now();
        ns_per_op(64, mix, 1, 200_000);
        let long = t0.elapsed();
        let t1 = Instant::now();
        ns_per_op(64, mix, 1, 20_000);
        assert!(long > t1.elapsed(), "replay time must grow with the hold count");
    }
}
