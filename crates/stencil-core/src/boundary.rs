//! Boundary conditions.
//!
//! The executors in [`crate::reference`] and the ConvStencil pipelines use
//! halo (ghost-zone) grids. Two boundary semantics are supported:
//!
//! * **Dirichlet** (default): halo cells hold fixed values; the boundary
//!   never updates. With temporal kernel fusion this approximates a ring
//!   of width `(t−1)·r` per application.
//! * **Periodic**: the grid is a torus; before every step (or fused
//!   application) the halo is refreshed from the opposite edge. Fusion is
//!   *exact* under periodic boundaries — a fused application equals `t`
//!   plain steps everywhere, because the refreshed halo supplies the true
//!   wrapped neighbourhood.
//!
//! This module provides the halo-refresh operations and periodic
//! reference executors.

use crate::grid::{Grid1D, Grid2D, Grid3D};
use crate::kernel::{Kernel1D, Kernel2D, Kernel3D};
use crate::reference::CHUNK_1D;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Boundary handling for stencil runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Boundary {
    /// Fixed halo values (ghost zone).
    #[default]
    Dirichlet,
    /// Torus topology: halo refreshed from the opposite edge.
    Periodic,
}

/// Wrap a signed index into `[0, n)`.
#[inline]
pub fn wrap(i: isize, n: usize) -> usize {
    let n = n as isize;
    (((i % n) + n) % n) as usize
}

/// Refresh a 1D grid's halo from the opposite edges (torus).
pub fn refresh_halo_1d(grid: &mut Grid1D) {
    let n = grid.len();
    let h = grid.halo();
    assert!(h <= n, "halo wider than the interior cannot wrap");
    for i in 0..h {
        let left = grid.get(n - h + i);
        let right = grid.get(i);
        grid.padded_mut()[i] = left;
        grid.padded_mut()[h + n + i] = right;
    }
}

/// Refresh a 2D grid's halo from the opposite edges (torus), corners
/// included.
pub fn refresh_halo_2d(grid: &mut Grid2D) {
    let (m, n, h) = (grid.rows(), grid.cols(), grid.halo());
    assert!(h <= m && h <= n, "halo wider than the interior cannot wrap");
    let pcols = grid.padded_cols();
    // Left/right halo of interior rows.
    for x in 0..m {
        for i in 0..h {
            let left = grid.get(x, n - h + i);
            let right = grid.get(x, i);
            let row = (x + h) * pcols;
            grid.padded_mut()[row + i] = left;
            grid.padded_mut()[row + h + n + i] = right;
        }
    }
    // Top/bottom halo rows: copy the full padded row (corners come along).
    for i in 0..h {
        let src_top = (m + i) * pcols; // interior row m - h + i, padded index
        let dst_top = i * pcols;
        let src_bot = (h + i) * pcols; // interior row i
        let dst_bot = (h + m + i) * pcols;
        let data = grid.padded_mut();
        data.copy_within(src_top..src_top + pcols, dst_top);
        data.copy_within(src_bot..src_bot + pcols, dst_bot);
    }
}

/// Refresh a 3D grid's halo from the opposite faces (3-torus), edges and
/// corners included.
pub fn refresh_halo_3d(grid: &mut Grid3D) {
    let (d, m, n, h) = (grid.depth(), grid.rows(), grid.cols(), grid.halo());
    assert!(h <= d && h <= m && h <= n);
    let pcols = grid.padded_cols();
    let prows = grid.padded_rows();
    let plane = prows * pcols;
    // Columns within interior planes/rows.
    for z in 0..d {
        for x in 0..m {
            for i in 0..h {
                let left = grid.get(z, x, n - h + i);
                let right = grid.get(z, x, i);
                let base = (z + h) * plane + (x + h) * pcols;
                grid.padded_mut()[base + i] = left;
                grid.padded_mut()[base + h + n + i] = right;
            }
        }
        // Rows within interior planes (full padded rows).
        for i in 0..h {
            let zb = (z + h) * plane;
            let src_top = zb + (m + i) * pcols;
            let dst_top = zb + i * pcols;
            let src_bot = zb + (h + i) * pcols;
            let dst_bot = zb + (h + m + i) * pcols;
            let data = grid.padded_mut();
            data.copy_within(src_top..src_top + pcols, dst_top);
            data.copy_within(src_bot..src_bot + pcols, dst_bot);
        }
    }
    // Planes (full padded planes).
    for i in 0..h {
        let src_top = (d + i) * plane;
        let dst_top = i * plane;
        let src_bot = (h + i) * plane;
        let dst_bot = (h + d + i) * plane;
        let data = grid.padded_mut();
        data.copy_within(src_top..src_top + plane, dst_top);
        data.copy_within(src_bot..src_bot + plane, dst_bot);
    }
}

/// Periodic reference executor, 1D: ground truth by index wrapping.
pub fn run1d_periodic(grid: &Grid1D, k: &Kernel1D, steps: usize) -> Grid1D {
    let n = grid.len();
    let r = k.radius() as isize;
    let mut cur: Vec<f64> = grid.interior();
    let mut next = vec![0.0; n];
    for _ in 0..steps {
        next.par_chunks_mut(CHUNK_1D)
            .enumerate()
            .for_each(|(c, out)| {
                for (i, cell) in (c * CHUNK_1D..).zip(out) {
                    let mut sum = 0.0;
                    for di in -r..=r {
                        sum += cur[wrap(i as isize + di, n)] * k.weight(di);
                    }
                    *cell = sum;
                }
            });
        std::mem::swap(&mut cur, &mut next);
    }
    let mut out = grid.clone();
    for (i, v) in cur.iter().enumerate() {
        out.set(i, *v);
    }
    out
}

/// Periodic reference executor, 2D.
pub fn run2d_periodic(grid: &Grid2D, k: &Kernel2D, steps: usize) -> Grid2D {
    let (m, n) = (grid.rows(), grid.cols());
    let r = k.radius() as isize;
    let mut cur = grid.interior();
    let mut next = vec![0.0; m * n];
    for _ in 0..steps {
        next.par_chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(x, row)| {
                for (y, cell) in row.iter_mut().enumerate() {
                    let mut sum = 0.0;
                    for dx in -r..=r {
                        let px = wrap(x as isize + dx, m);
                        for dy in -r..=r {
                            let py = wrap(y as isize + dy, n);
                            sum += cur[px * n + py] * k.weight(dx, dy);
                        }
                    }
                    *cell = sum;
                }
            });
        std::mem::swap(&mut cur, &mut next);
    }
    let mut out = grid.clone();
    for x in 0..m {
        for y in 0..n {
            out.set(x, y, cur[x * n + y]);
        }
    }
    out
}

/// Periodic reference executor, 3D.
pub fn run3d_periodic(grid: &Grid3D, k: &Kernel3D, steps: usize) -> Grid3D {
    let (d, m, n) = (grid.depth(), grid.rows(), grid.cols());
    let r = k.radius() as isize;
    let mut cur = grid.interior();
    let mut next = vec![0.0; d * m * n];
    for _ in 0..steps {
        next.par_chunks_mut((m * n).max(1))
            .enumerate()
            .for_each(|(z, plane)| {
                for x in 0..m {
                    for y in 0..n {
                        let mut sum = 0.0;
                        for dz in -r..=r {
                            let pz = wrap(z as isize + dz, d);
                            for dx in -r..=r {
                                let px = wrap(x as isize + dx, m);
                                for dy in -r..=r {
                                    let py = wrap(y as isize + dy, n);
                                    sum += cur[(pz * m + px) * n + py] * k.weight(dz, dx, dy);
                                }
                            }
                        }
                        plane[x * n + y] = sum;
                    }
                }
            });
        std::mem::swap(&mut cur, &mut next);
    }
    let mut out = grid.clone();
    for z in 0..d {
        for x in 0..m {
            for y in 0..n {
                out.set(z, x, y, cur[(z * m + x) * n + y]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{run1d, run2d};

    #[test]
    fn wrap_behaves_like_modulo() {
        assert_eq!(wrap(-1, 10), 9);
        assert_eq!(wrap(10, 10), 0);
        assert_eq!(wrap(-11, 10), 9);
        assert_eq!(wrap(5, 10), 5);
    }

    #[test]
    fn refreshed_halo_plus_frozen_step_equals_periodic_step_1d() {
        let k = Kernel1D::new(vec![0.25, 0.5, 0.25]);
        // The second length spans several parallel chunks.
        for n in [40, 2 * CHUNK_1D + 3] {
            let mut g = Grid1D::new(n, 1);
            g.fill_random(3);
            let want = run1d_periodic(&g, &k, 1);
            let mut wrapped = g.clone();
            refresh_halo_1d(&mut wrapped);
            let got = run1d(&wrapped, &k, 1);
            crate::verify::assert_close_default(&got.interior(), &want.interior());
        }
    }

    #[test]
    fn refreshed_halo_plus_frozen_step_equals_periodic_step_2d() {
        let k = Kernel2D::box_uniform(2);
        let mut g = Grid2D::new(12, 17, 2);
        g.fill_random(9);
        let want = run2d_periodic(&g, &k, 1);
        let mut wrapped = g.clone();
        refresh_halo_2d(&mut wrapped);
        let got = run2d(&wrapped, &k, 1);
        crate::verify::assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn refreshed_halo_3d_supplies_wrapped_neighbours() {
        let k = Kernel3D::star(0.4, &[0.1]);
        let mut g = Grid3D::new(6, 7, 9, 1);
        g.fill_random(4);
        let want = run3d_periodic(&g, &k, 1);
        let mut wrapped = g.clone();
        refresh_halo_3d(&mut wrapped);
        let got = crate::reference::run3d(&wrapped, &k, 1);
        crate::verify::assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_preserves_total_mass_exactly() {
        // On a torus a sum-one kernel conserves the field total (no
        // absorbing boundary).
        let k = Kernel2D::star(0.5, &[0.125]);
        let mut g = Grid2D::new(16, 16, 1);
        g.fill_random(5);
        let before: f64 = g.interior().iter().sum();
        let after: f64 = run2d_periodic(&g, &k, 10).interior().iter().sum();
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn corners_wrap_diagonally() {
        let k = Kernel2D::from_fn(1, |dx, dy| if dx == -1 && dy == -1 { 1.0 } else { 0.0 });
        let mut g = Grid2D::new(4, 4, 1);
        g.set(3, 3, 7.0);
        // out[0][0] = in[-1][-1] = in[3][3] on the torus.
        let out = run2d_periodic(&g, &k, 1);
        assert_eq!(out.get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "cannot wrap")]
    fn halo_wider_than_interior_rejected() {
        let mut g = Grid1D::new(2, 3);
        refresh_halo_1d(&mut g);
    }
}
