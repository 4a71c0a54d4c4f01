//! Naive reference executors — the numerical ground truth every simulated
//! algorithm is verified against.
//!
//! Two boundary semantics are provided:
//!
//! * **Frozen halo** (`step*` / `run*`): interior cells update, halo cells
//!   hold fixed Dirichlet data. This is the semantics of the public
//!   ConvStencil API and of all benchmark runs.
//! * **Valid mode** (`run*_valid`): each step updates every padded cell
//!   that has full stencil support from cells valid at the previous step,
//!   so after `t` steps the interior equals the infinite-grid result
//!   whenever `halo >= t * radius`. This is the semantic used to verify
//!   temporal kernel fusion (fused kernel ≡ `t` exact steps).
//!
//! Rows, planes and fixed-size 1D chunks go through rayon's parallel
//! iterators and run on every host core; results do not depend on the schedule because each output
//! cell is written once, from the previous step's buffer.

use crate::grid::{Grid1D, Grid2D, Grid3D};
use crate::kernel::{Kernel1D, Kernel2D, Kernel3D};
use rayon::prelude::*;

/// Cells per parallel work item of the 1D executors. Grids shorter than
/// this run on the calling thread alone.
pub(crate) const CHUNK_1D: usize = 1 << 12;

/// One frozen-halo step: `dst` interior = kernel applied to `src`.
pub fn step1d(src: &Grid1D, dst: &mut Grid1D, k: &Kernel1D) {
    assert_eq!(src.len(), dst.len());
    assert!(src.halo() >= k.radius(), "halo too small for kernel radius");
    let r = k.radius() as isize;
    let (n, halo) = (dst.len(), dst.halo());
    dst.padded_mut()[halo..halo + n]
        .par_chunks_mut(CHUNK_1D)
        .enumerate()
        .for_each(|(c, out)| {
            for (i, cell) in (c * CHUNK_1D..).zip(out) {
                let mut sum = 0.0;
                for di in -r..=r {
                    sum += src.get_rel(i, di) * k.weight(di);
                }
                *cell = sum;
            }
        });
}

/// Run `iters` frozen-halo steps, returning the final grid.
pub fn run1d(grid: &Grid1D, k: &Kernel1D, iters: usize) -> Grid1D {
    let mut a = grid.clone();
    let mut b = grid.clone();
    for _ in 0..iters {
        step1d(&a, &mut b, k);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// One frozen-halo 2D step.
pub fn step2d(src: &Grid2D, dst: &mut Grid2D, k: &Kernel2D) {
    assert_eq!((src.rows(), src.cols()), (dst.rows(), dst.cols()));
    assert_eq!(src.halo(), dst.halo());
    assert!(src.halo() >= k.radius(), "halo too small for kernel radius");
    let r = k.radius() as isize;
    let cols = src.cols();
    let pcols = src.padded_cols();
    let halo = src.halo();
    let src_data = src.padded();

    // Split destination interior by rows for parallelism.
    let dst_halo = dst.halo();
    let dst_pcols = dst.padded_cols();
    let rows = dst.rows();
    let data = dst.padded_mut();
    // Interior row x occupies padded row x + halo; skip top halo rows and
    // chunk the rest by padded row.
    data.par_chunks_mut(dst_pcols)
        .skip(dst_halo)
        .take(rows)
        .enumerate()
        .for_each(|(x, dst_row)| {
            for y in 0..cols {
                let mut sum = 0.0;
                for dx in -r..=r {
                    let px = (x + halo) as isize + dx;
                    let base = px as usize * pcols + (y + halo);
                    for dy in -r..=r {
                        sum += src_data[(base as isize + dy) as usize] * k.weight(dx, dy);
                    }
                }
                dst_row[y + dst_halo] = sum;
            }
        });
}

/// Run `iters` frozen-halo 2D steps.
pub fn run2d(grid: &Grid2D, k: &Kernel2D, iters: usize) -> Grid2D {
    let mut a = grid.clone();
    let mut b = grid.clone();
    for _ in 0..iters {
        step2d(&a, &mut b, k);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// One frozen-halo 3D step.
pub fn step3d(src: &Grid3D, dst: &mut Grid3D, k: &Kernel3D) {
    assert_eq!(
        (src.depth(), src.rows(), src.cols()),
        (dst.depth(), dst.rows(), dst.cols())
    );
    assert!(src.halo() >= k.radius(), "halo too small for kernel radius");
    let r = k.radius() as isize;
    let (d, m, n) = (src.depth(), src.rows(), src.cols());
    let halo = src.halo();
    let plane = src.padded_rows() * src.padded_cols();
    let pcols = src.padded_cols();
    let src_data = src.padded();

    let dst_pcols = pcols;
    let data = dst.padded_mut();
    data.par_chunks_mut(plane)
        .skip(halo)
        .take(d)
        .enumerate()
        .for_each(|(z, dst_plane)| {
            for x in 0..m {
                for y in 0..n {
                    let mut sum = 0.0;
                    for dz in -r..=r {
                        let pz = (z + halo) as isize + dz;
                        for dx in -r..=r {
                            let px = (x + halo) as isize + dx;
                            let base = pz as usize * plane + px as usize * pcols + (y + halo);
                            for dy in -r..=r {
                                sum +=
                                    src_data[(base as isize + dy) as usize] * k.weight(dz, dx, dy);
                            }
                        }
                    }
                    dst_plane[(x + halo) * dst_pcols + y + halo] = sum;
                }
            }
        });
}

/// Run `iters` frozen-halo 3D steps.
pub fn run3d(grid: &Grid3D, k: &Kernel3D, iters: usize) -> Grid3D {
    let mut a = grid.clone();
    let mut b = grid.clone();
    for _ in 0..iters {
        step3d(&a, &mut b, k);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Valid-mode 1D run: after `iters` steps the interior is exact
/// (infinite-grid) provided `halo >= iters * radius`.
pub fn run1d_valid(grid: &Grid1D, k: &Kernel1D, iters: usize) -> Grid1D {
    assert!(
        grid.halo() >= iters * k.radius(),
        "valid-mode needs halo >= iters * radius"
    );
    let r = k.radius();
    let mut a = grid.clone();
    let mut b = grid.clone();
    let plen = grid.padded_len();
    for s in 1..=iters {
        let lo = s * r;
        let hi = plen - s * r;
        for p in lo..hi {
            let mut sum = 0.0;
            for di in -(r as isize)..=(r as isize) {
                sum += a.padded()[(p as isize + di) as usize] * k.weight(di);
            }
            b.padded_mut()[p] = sum;
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Valid-mode 2D run (see [`run1d_valid`]).
pub fn run2d_valid(grid: &Grid2D, k: &Kernel2D, iters: usize) -> Grid2D {
    assert!(
        grid.halo() >= iters * k.radius(),
        "valid-mode needs halo >= iters * radius"
    );
    let r = k.radius();
    let ri = r as isize;
    let mut a = grid.clone();
    let mut b = grid.clone();
    let (prow, pcol) = (grid.padded_rows(), grid.padded_cols());
    for s in 1..=iters {
        let lo = s * r;
        for px in lo..prow - lo {
            for py in lo..pcol - lo {
                let mut sum = 0.0;
                for dx in -ri..=ri {
                    for dy in -ri..=ri {
                        let idx = (px as isize + dx) as usize * pcol + (py as isize + dy) as usize;
                        sum += a.padded()[idx] * k.weight(dx, dy);
                    }
                }
                b.padded_mut()[px * pcol + py] = sum;
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Valid-mode 3D run (see [`run1d_valid`]).
pub fn run3d_valid(grid: &Grid3D, k: &Kernel3D, iters: usize) -> Grid3D {
    assert!(
        grid.halo() >= iters * k.radius(),
        "valid-mode needs halo >= iters * radius"
    );
    let r = k.radius();
    let ri = r as isize;
    let mut a = grid.clone();
    let mut b = grid.clone();
    let (pd, pm, pn) = (grid.padded_depth(), grid.padded_rows(), grid.padded_cols());
    let plane = pm * pn;
    for s in 1..=iters {
        let lo = s * r;
        for pz in lo..pd - lo {
            for px in lo..pm - lo {
                for py in lo..pn - lo {
                    let mut sum = 0.0;
                    for dz in -ri..=ri {
                        for dx in -ri..=ri {
                            for dy in -ri..=ri {
                                let idx = (pz as isize + dz) as usize * plane
                                    + (px as isize + dx) as usize * pn
                                    + (py as isize + dy) as usize;
                                sum += a.padded()[idx] * k.weight(dz, dx, dy);
                            }
                        }
                    }
                    b.padded_mut()[pz * plane + px * pn + py] = sum;
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step1d_weighted_sum() {
        let mut g = Grid1D::new(3, 1);
        g.set(0, 1.0);
        g.set(1, 2.0);
        g.set(2, 3.0);
        let k = Kernel1D::new(vec![1.0, 10.0, 100.0]);
        let out = run1d(&g, &k, 1);
        // out[1] = 1*1 + 10*2 + 100*3.
        assert_eq!(out.get(1), 321.0);
        // out[0] reads left halo (0).
        assert_eq!(out.get(0), 0.0 + 10.0 * 1.0 + 100.0 * 2.0);
    }

    #[test]
    fn step1d_across_chunks_matches_per_cell_sum() {
        let n = 2 * CHUNK_1D + 3;
        let mut g = Grid1D::new(n, 2);
        g.fill_random(5);
        let k = Kernel1D::new(vec![0.1, 0.2, 0.4, 0.2, 0.1]);
        let out = run1d(&g, &k, 1);
        for i in 0..n {
            let mut sum = 0.0;
            for di in -2..=2 {
                sum += g.get_rel(i, di) * k.weight(di);
            }
            assert_eq!(out.get(i).to_bits(), sum.to_bits(), "cell {i}");
        }
    }

    #[test]
    fn par_chunks_mut_matches_sequential_chunking() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for len in [0, 1, 9, 10, 103, 1001] {
            for (skip, take) in [(0, usize::MAX), (2, 5), (0, workers + 1), (200, 1)] {
                let mut par = vec![0usize; len];
                par.par_chunks_mut(10)
                    .skip(skip)
                    .take(take)
                    .enumerate()
                    .for_each(|(i, c)| c.iter_mut().for_each(|v| *v += i + 1));
                let mut seq = vec![0usize; len];
                for (i, c) in seq.chunks_mut(10).skip(skip).take(take).enumerate() {
                    c.iter_mut().for_each(|v| *v += i + 1);
                }
                assert_eq!(par, seq, "len {len}, skip {skip}, take {take}");
            }
        }
    }

    #[test]
    fn constant_field_is_fixed_point_of_sum_one_kernel() {
        let g = Grid2D::from_fn(8, 8, 3, |_, _| 2.5);
        let mut g = g;
        // Make the halo constant too so the frozen boundary is consistent.
        for v in g.padded_mut().iter_mut() {
            *v = 2.5;
        }
        let k = Kernel2D::box_uniform(1);
        let out = run2d(&g, &k, 5);
        for x in 0..8 {
            for y in 0..8 {
                assert!((out.get(x, y) - 2.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn step2d_identity_kernel() {
        let mut g = Grid2D::new(4, 4, 1);
        g.fill_random(1);
        let k = Kernel2D::from_fn(1, |dx, dy| if dx == 0 && dy == 0 { 1.0 } else { 0.0 });
        let out = run2d(&g, &k, 3);
        assert_eq!(out.interior(), g.interior());
    }

    #[test]
    fn step2d_shift_kernel_moves_data() {
        let mut g = Grid2D::new(4, 4, 1);
        g.set(2, 2, 7.0);
        // Kernel that reads the cell to the left: out[x][y] = in[x][y-1].
        let k = Kernel2D::from_fn(1, |dx, dy| if dx == 0 && dy == -1 { 1.0 } else { 0.0 });
        let out = run2d(&g, &k, 1);
        assert_eq!(out.get(2, 3), 7.0);
        assert_eq!(out.get(2, 2), 0.0);
    }

    #[test]
    fn run2d_two_steps_matches_manual_composition() {
        let mut g = Grid2D::new(6, 6, 2);
        g.fill_random(3);
        let k = Kernel2D::star(0.5, &[0.125]);
        let once = run2d(&g, &k, 1);
        let twice = run2d(&g, &k, 2);
        let manual = run2d(&once, &k, 1);
        assert_eq!(twice.interior(), manual.interior());
    }

    #[test]
    fn valid_mode_matches_frozen_in_deep_interior() {
        let mut g = Grid2D::new(16, 16, 4);
        g.fill_random(9);
        let k = Kernel2D::box_uniform(1);
        let frozen = run2d(&g, &k, 3);
        let valid = run2d_valid(&g, &k, 3);
        // Points at distance >= 3 from the boundary agree.
        for x in 3..13 {
            for y in 3..13 {
                assert!(
                    (frozen.get(x, y) - valid.get(x, y)).abs() < 1e-12,
                    "mismatch at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn step3d_center_only() {
        let mut g = Grid3D::new(3, 3, 3, 1);
        g.set(1, 1, 1, 4.0);
        let k = Kernel3D::from_fn(1, |dz, dx, dy| {
            if dz == 0 && dx == 0 && dy == 0 {
                0.5
            } else {
                0.0
            }
        });
        let out = run3d(&g, &k, 2);
        assert_eq!(out.get(1, 1, 1), 1.0);
    }

    #[test]
    fn heat3d_star_diffuses_mass_inward() {
        let mut g = Grid3D::new(5, 5, 5, 1);
        g.set(2, 2, 2, 1.0);
        let k = Kernel3D::star(0.4, &[0.1]);
        let out = run3d(&g, &k, 1);
        assert!((out.get(2, 2, 2) - 0.4).abs() < 1e-12);
        assert!((out.get(1, 2, 2) - 0.1).abs() < 1e-12);
        assert!((out.get(2, 2, 3) - 0.1).abs() < 1e-12);
        assert_eq!(out.get(1, 1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "halo too small")]
    fn insufficient_halo_panics() {
        let g = Grid2D::new(4, 4, 1);
        let k = Kernel2D::box_uniform(2);
        let mut dst = g.clone();
        step2d(&g, &mut dst, &k);
    }
}
