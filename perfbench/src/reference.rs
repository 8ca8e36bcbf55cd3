//! A fixed reference kernel owned by the benchmark: the same mix of work
//! the replay engine does per event (ordered-map insert and remove, a
//! binary heap, a hash lookup, a short-lived frame-sized buffer), on the
//! standard library alone, so no change to the repository's crates moves
//! it. Timed by the front end after every iteration, it measures how fast
//! the host runs this kind of code at that moment.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;

/// Operations per kernel run.
pub const OPS: u64 = 60_000;

/// Runs the kernel once.
pub fn run() -> u64 {
    black_box(kernel(black_box(OPS)))
}

fn kernel(ops: u64) -> u64 {
    let mut live = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut links: HashMap<(u32, u32), u64> = (0..64u32).map(|i| ((i, i + 1), 0)).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        live.insert(i, x);
        heap.push(Reverse((x % 1_000_000, i)));
        let frame = vec![(x & 0xff) as u8; 64 + (x % 1400) as usize];
        acc = acc.wrapping_add(u64::from(frame[frame.len() / 2]));
        let node = ((x >> 8) % 64) as u32;
        if let Some(sent) = links.get_mut(&(node, node + 1)) {
            *sent += 1;
        }
        if i >= 64 {
            live.remove(&(i - 64));
            if let Some(Reverse((at, _))) = heap.pop() {
                acc = acc.wrapping_add(at);
            }
        }
    }
    acc
}
