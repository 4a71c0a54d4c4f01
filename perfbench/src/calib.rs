//! Host-speed calibration.
//!
//! The sandbox this benchmark was defined on (2 vCPUs of a shared Xeon
//! host) runs one binary at speeds up to about 2x apart, in phases that
//! last from seconds to many minutes: the simulator, the set-up path and
//! plain CPU loops all slow down together. A fixed sample of the
//! benchmark's own code, timed next to every run, measures that speed, and
//! the host-time end-to-end metrics are scaled to [`REFERENCE_SECS`]. The
//! sample calls nothing in the workspace, so no change to the measured
//! code moves it.

use std::hint::black_box;
use std::time::Instant;

/// Calibration time the normalised metrics are scaled to: a round value
/// at the fast end of the reference sandbox, whose per-run medians of
/// [`calibration_secs`] ranged from 5.4 to 9.9 ms in a slow phase.
pub const REFERENCE_SECS: f64 = 5e-3;

const N: usize = 512;
/// Gap between the two grids. Rows are 4 KiB apart, so without it every
/// store would alias the loads of the rows around it modulo 4 KiB.
const GAP: usize = 256;
const SWEEPS: usize = 8;
const TABLE: usize = 1 << 15;
const PROBES: usize = 1 << 20;

/// Host seconds of one calibration sample. It mixes the two kinds of work
/// the simulator does, which the sandbox's slow phases hit differently:
/// vectorisable floating point over a 4 MiB working set (eight naive
/// 9-point sweeps over a 512x512 grid) and scalar, branchy lookups into a
/// 256 KiB table.
pub fn calibration_secs() -> f64 {
    // Every element is written before the clock starts, so no page fault
    // is timed, and the two grids always sit the same distance apart.
    let mut buf: Vec<f64> = (0..2 * N * N + GAP)
        .map(|i| (i % 97) as f64 / 97.0)
        .collect();
    let mut table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let (first, rest) = buf.split_at_mut(N * N);
    let (mut a, mut b) = (first, &mut rest[GAP..]);
    let start = Instant::now();
    for _ in 0..SWEEPS {
        for i in 1..N - 1 {
            for j in 1..N - 1 {
                let mut s = 0.0;
                for di in 0..3 {
                    for dj in 0..3 {
                        let w = 0.1 + 0.01 * (di * 3 + dj) as f64;
                        s += a[(i + di - 1) * N + j + dj - 1] * w;
                    }
                }
                b[i * N + j] = s;
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (TABLE - 1);
        let v = table[i];
        table[i] = if v & 1 == 0 {
            v.wrapping_add(x >> 3)
        } else {
            v ^ (x << 1)
        };
    }
    black_box((&a, &table));
    start.elapsed().as_secs_f64()
}
