//! The receiver against a reference model. The receiver keeps its
//! out-of-order data as maximal blocks; the model below is the plain
//! segment-set receiver it replaced, which rebuilds every SACK list by a
//! full scan, sort and truncate. Receive-buffer state is a function of the
//! arrival order alone, so on any arrival sequence — reordered, with
//! duplicates — both must emit the same ACKs and keep the same counters.

use std::collections::BTreeSet;

use proptest::prelude::*;
use transport::receiver::{AckDescriptor, ReceiverConfig, ReceiverStats, TcpReceiver};

/// The segment-set receiver.
struct Model {
    cfg: ReceiverConfig,
    rcv_nxt: u64,
    ooo: BTreeSet<u64>,
    stats: ReceiverStats,
    max_seen: Option<u64>,
}

impl Model {
    fn new(cfg: ReceiverConfig) -> Self {
        let stats = ReceiverStats::default();
        Model { cfg, rcv_nxt: 0, ooo: BTreeSet::new(), stats, max_seen: None }
    }

    fn on_data(&mut self, seq: u64) -> AckDescriptor {
        self.stats.segments_received += 1;
        let old_nxt = self.rcv_nxt;
        let mut dsack = None;
        if seq < self.rcv_nxt || self.ooo.contains(&seq) {
            self.stats.duplicates += 1;
            if self.cfg.dsack {
                dsack = Some((seq, seq + 1));
            }
        } else {
            match self.max_seen {
                Some(m) if seq < m => {
                    self.stats.late_arrivals += 1;
                    self.stats.total_displacement += m - seq;
                    self.stats.max_displacement = self.stats.max_displacement.max(m - seq);
                }
                Some(m) if seq > m => self.max_seen = Some(seq),
                None => self.max_seen = Some(seq),
                _ => {}
            }
            if seq == self.rcv_nxt {
                self.rcv_nxt += 1;
                while self.ooo.remove(&self.rcv_nxt) {
                    self.rcv_nxt += 1;
                }
            } else {
                self.ooo.insert(seq);
            }
        }
        let sack = if self.cfg.sack { self.sack_blocks(seq) } else { Vec::new() };
        AckDescriptor { cum_ack: self.rcv_nxt, sack, dsack, dup: self.rcv_nxt == old_nxt }
    }

    fn sack_blocks(&self, trigger: u64) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &s in &self.ooo {
            match ranges.last_mut() {
                Some(last) if last.1 == s => last.1 = s + 1,
                _ => ranges.push((s, s + 1)),
            }
        }
        ranges.sort_by_key(|r| std::cmp::Reverse(r.0));
        if let Some(pos) = ranges.iter().position(|r| r.0 <= trigger && trigger < r.1) {
            let hit = ranges.remove(pos);
            ranges.insert(0, hit);
        }
        ranges.truncate(self.cfg.max_sack_blocks);
        ranges
    }
}

/// SplitMix64 step, for building arrival orders from one sampled seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Segments `0..n` in an order where each one moves at most `reach`
/// places back (`reach >= n` gives any permutation), then `dups` repeats of
/// segments re-inserted somewhere after their first arrival.
fn arrivals(seed: u64, n: u64, reach: u64, dups: u64) -> Vec<u64> {
    let mut state = seed;
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let lo = i.saturating_sub(reach as usize);
        let j = lo + (next(&mut state) % (i - lo + 1) as u64) as usize;
        order.swap(i, j);
    }
    for _ in 0..dups {
        if order.is_empty() {
            break;
        }
        let from = (next(&mut state) % order.len() as u64) as usize;
        let to = from + 1 + (next(&mut state) % (order.len() - from) as u64) as usize;
        order.insert(to, order[from]);
    }
    order
}

/// Feeds `order` to the receiver and the model under every SACK/DSACK
/// setting and block limit 0–4, comparing after every arrival.
fn same(order: &[u64]) -> Result<(), TestCaseError> {
    for max_sack_blocks in 0..=4 {
        for (sack, dsack) in [(false, false), (false, true), (true, false), (true, true)] {
            let cfg = ReceiverConfig { sack, dsack, max_sack_blocks };
            let mut rx = TcpReceiver::new(cfg);
            let mut model = Model::new(cfg);
            for (i, &seq) in order.iter().enumerate() {
                prop_assert_eq!(rx.on_data(seq), model.on_data(seq), "arrival {} ({:?})", i, cfg);
                prop_assert_eq!(rx.buffered(), model.ooo.len());
                prop_assert_eq!(rx.rcv_nxt(), model.rcv_nxt);
                prop_assert_eq!(format!("{:?}", rx.stats()), format!("{:?}", model.stats));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Any permutation of a short flow, with duplicates.
    #[test]
    fn any_permutation_matches_the_model(
        seed in 0u64..u64::MAX,
        n in 0u64..40,
        dups in 0u64..10,
    ) {
        same(&arrivals(seed, n, n, dups))?;
    }

    /// Longer flows with bounded displacement, the shape persistent
    /// multipath reordering produces: many blocks open at once.
    #[test]
    fn bounded_displacement_matches_the_model(
        seed in 0u64..u64::MAX,
        n in 50u64..300,
        reach in 1u64..20,
        dups in 0u64..30,
    ) {
        same(&arrivals(seed, n, reach, dups))?;
    }
}
