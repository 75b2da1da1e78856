//! A fixed reference workload that measures how fast the machine is
//! running right now.
//!
//! On a shared host the same flow pass takes from 3.0 s to 4.6 s
//! depending on what else runs there, and the machine switches between
//! such speeds every 10–30 s, so run medians of raw wall clock spread
//! by up to 0.33 (IQR / median) across runs. This kernel, timed between
//! the cases of a pass and of a set-up, slows down with the flow
//! (15.5 ms vs 25 ms in the two states), so dividing each case's wall
//! clock by the reference time around it cancels most of the machine's
//! speed. The kernel is
//! the benchmark's own code: nothing a change to the program does can
//! alter it.

use std::collections::BTreeMap;
use std::hint::black_box;

use clk_obs::wall_now;

/// The reference kernel's wall clock that defines the reference speed,
/// ms: a time `t` measured while the kernel takes `r` ms is reported as
/// `t * NOMINAL_MS / r`. Scaled times are still seconds, at about the
/// speed of an idle core of the host the benchmark was tuned on (a
/// 2-core Xeon, where the kernel took 15–30 ms).
pub const NOMINAL_MS: f64 = 20.0;

/// Sorting, tree inserts and float math over a fixed pseudo-random
/// input: a mix of the branchy, allocating and arithmetic work the
/// flow does. Returns a checksum.
fn kernel() -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<f64> = (0..300_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1_000_000) as f64 * 1.000_001
        })
        .collect();
    v.sort_by(f64::total_cmp);
    let m: BTreeMap<u64, f64> = v
        .iter()
        .enumerate()
        .step_by(7)
        .map(|(i, &f)| ((f * 3.0) as u64 ^ i as u64, f.sqrt()))
        .collect();
    m.values().sum()
}

/// Wall clock of one reference kernel run, ms.
pub fn reference_ms() -> f64 {
    let t = wall_now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}
