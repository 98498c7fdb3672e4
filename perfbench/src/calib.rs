//! A fixed reference workload that uses none of the repository's code, so
//! no change to the program moves it: its host time tracks how fast the
//! machine runs right now. It imitates the simulator's hot loop (a hold
//! model on a heap of 152-byte event records, a hashed per-flow lookup and
//! a dynamic call per event) so that other load on the machine slows both
//! alike. It allocates only once, so the allocator's state cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Host time of one unit of reference work on the machine this benchmark
/// was tuned on (a 2-core cloud VM): the unit end-to-end times are
/// converted to.
pub const REFERENCE_S: f64 = 0.02;

/// Events pending in the hold model, about the mean heap depth of `sweep`.
const DEPTH: u64 = 850;
/// Events processed per unit of work.
const HOLDS: u64 = 100_000;

/// One pending event: the size of the simulator's heap record.
#[derive(PartialEq, Eq)]
struct Ev {
    at: u64,
    seq: u64,
    payload: [u64; 17],
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The reference workload's state, allocated once and reused.
pub struct Reference {
    heap: BinaryHeap<Ev>,
    flows: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    handlers: Vec<Box<dyn Fn(u64) -> u64>>,
}

impl Reference {
    /// Allocates the workload's state.
    pub fn new() -> Self {
        Reference {
            heap: BinaryHeap::with_capacity(DEPTH as usize + 1),
            flows: (0..4096).map(|k| (k, 0)).collect(),
            handlers: vec![
                Box::new(|v| v.rotate_left(7) ^ 0x55),
                Box::new(|v| v.wrapping_mul(31) + 1),
                Box::new(|v| v ^ (v >> 3)),
            ],
        }
    }

    /// Host seconds of one fixed unit of reference work.
    pub fn time_s(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        for seq in 0..DEPTH {
            self.heap.push(Ev { at: next() >> 44, seq, payload: [seq; 17] });
        }
        for seq in DEPTH..DEPTH + HOLDS {
            let ev = self.heap.pop().expect("the heap never drains");
            let flow = self.flows.get_mut(&(ev.payload[3] & 4095)).expect("every flow exists");
            *flow = self.handlers[(ev.seq % 3) as usize](*flow ^ ev.at);
            let at = ev.at + 1 + (next() >> 44);
            self.heap.push(Ev { at, seq, payload: [at ^ *flow; 17] });
        }
        black_box(self.heap.len());
        t0.elapsed().as_secs_f64()
    }
}
