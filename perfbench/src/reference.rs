//! A fixed reference loop that gauges how fast the shared host runs at
//! the moment, so the end-to-end timings can be put on one scale.
//!
//! The loop is the benchmark's own code, unchanged by any change to the
//! program: per-key state in a hash map of ~1,000 live keys, inserted,
//! updated by a small bytecode dispatch and evicted, much like an enclave
//! function over per-flow state. On the shared host its best time swings
//! with the workloads' best times, so dividing it out removes much of the
//! host's swing (see `README.md`, *Noise*).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Keys the loop draws from, and the most it keeps live.
const KEYS: u64 = 1_500;
const LIVE: usize = 1_024;
const STEPS: u64 = 20_000;

/// About the reference's best time on a 2.0 GHz x86-64 vCPU: timings
/// are reported as if the host ran the reference in this time.
pub const NOMINAL_NS: f64 = 1.5e6;

/// Run the reference loop once; returns its wall ns.
#[inline(never)]
pub fn time_ns() -> f64 {
    const CODE: [u8; 16] = [0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 2, 4, 1, 3, 0];
    let start = Instant::now();
    // A fixed hasher, so every run lays the map out alike.
    let mut state: HashMap<u64, [u64; 4], BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(2 * LIVE, BuildHasherDefault::default());
    let mut x: u64 = 0x1234_5678_9ABC_DEF1;
    let mut acc = 0u64;
    for n in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let e = state.entry(x % KEYS).or_insert([0; 4]);
        for op in std::hint::black_box(CODE) {
            match op {
                0 => e[0] = e[0].wrapping_add(x),
                1 => e[1] ^= e[0].rotate_left(5),
                2 if e[1] & 1 == 0 => e[2] += 1,
                2 => e[3] = e[3].wrapping_mul(3),
                3 => acc = acc.wrapping_add(e[2] ^ e[3]),
                _ => e[3] = e[3].wrapping_add(n),
            }
        }
        if state.len() > LIVE {
            state.remove(&(x.rotate_left(17) % KEYS));
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64
}
