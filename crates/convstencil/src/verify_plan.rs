//! Static plan verifier — the launch-time half of the stencil sanitizer.
//!
//! Where the dynamic sanitizer (`tcu_sim::sanitize`) watches a kernel
//! *run*, this module proves the §3.4 Conflicts-Removal properties of a
//! plan *before* it launches, symbolically and in milliseconds:
//!
//! * **LUT totality + injectivity** — every useful stencil2row cell of
//!   the A and B tiles is targeted by exactly one lane per tile row, and
//!   every lookup-table address agrees with the analytic Eq. 5/6 maps
//!   ([`map_a`]/[`map_b`]) composed with the shared-memory layout.
//! * **Dirty bits land in padding** — entries for dropped/out-of-span
//!   lanes resolve to the padding area of a tile row (column `>=
//!   raw_cols`), never to a useful column and never to the weight
//!   regions.
//! * **Weight structure** — the stacked kernel-weight matrices carry
//!   Fig. 3's triangular zero structure (A lower-banded, B strictly
//!   upper-banded, zero padding rows), mutually consistent with a single
//!   reconstructed tap vector.
//! * **Conflict-free banking** — with the padding optimization enabled,
//!   the padded row stride makes strided fragment-column loads replay
//!   free on the 32-bank model (Fig. 5's 266 -> 268 argument).
//!
//! Every check failure is reported as
//! [`ConvStencilError::PlanInvalid`] with a human-readable reason; the
//! runner refuses to launch a rejected plan. The checks recompute every
//! address from the analytic maps, so *any* single-entry mutation of a
//! lookup table or weight matrix is caught (see
//! `tests/property_based.rs`).

use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut, LUT_SKIP};
use crate::stencil2row::{map_a, map_b};
use crate::variants::VariantConfig;
use crate::weights::WeightMatrices;
use tcu_sim::stride_is_conflict_free;

/// Bail out with [`ConvStencilError::PlanInvalid`] if the condition is
/// false.
macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(ConvStencilError::PlanInvalid {
                reason: format!($($arg)+),
            });
        }
    };
}

/// Check the shared-memory layout arithmetic of a plan (1D, 2D or a 3D
/// plane) and, when the padding optimization is on, that the padded
/// stride is bank-conflict-free.
pub fn verify_layout_2d(plan: &Plan2D, variant: VariantConfig) -> Result<(), ConvStencilError> {
    let lay = &plan.layout;
    let nk = plan.nk;
    let rows = plan.kernel_rows;
    ensure!(
        rows == nk || (rows == 1 && plan.m == 1 && plan.block_rows == 1),
        "kernel rows {rows} is neither n_k = {nk} nor the one row of a 1D plan \
         (m {}, block_rows {})",
        plan.m,
        plan.block_rows
    );
    ensure!(
        lay.raw_cols == nk * (plan.block_rows + rows - 1),
        "raw_cols {} != nk*(block_rows+kernel_rows-1) = {}",
        lay.raw_cols,
        nk * (plan.block_rows + rows - 1)
    );
    ensure!(
        lay.stride == lay.raw_cols + lay.pad,
        "stride {} != raw_cols {} + pad {}",
        lay.stride,
        lay.raw_cols,
        lay.pad
    );
    ensure!(
        plan.block_groups.is_multiple_of(8),
        "groups per block {} is not a whole number of 8-group tessellation bands",
        plan.block_groups
    );
    ensure!(
        lay.tile_rows == plan.block_groups,
        "layout tile_rows {} != plan block_groups {}",
        lay.tile_rows,
        plan.block_groups
    );
    if variant.dirty_bits_lut {
        ensure!(
            lay.pad >= 1,
            "dirty-bits variant needs pad >= 1 (got {})",
            lay.pad
        );
    }
    if variant.padding {
        ensure!(
            stride_is_conflict_free(lay.stride, 32),
            "padded stride {} is not bank-conflict-free for strided FP64 \
             fragment loads on 32 banks",
            lay.stride
        );
    }
    // Region chain: [A tile][B tile][A weights][B weights].
    let tile_size = lay.b_off - lay.a_off;
    ensure!(lay.a_off == 0, "A tile must start at 0 (got {})", lay.a_off);
    ensure!(
        tile_size >= lay.tile_rows * lay.stride,
        "tile size {} smaller than tile_rows*stride = {}",
        tile_size,
        lay.tile_rows * lay.stride
    );
    ensure!(
        lay.wa_off == lay.b_off + tile_size,
        "wa_off {} != b_off {} + tile size {}",
        lay.wa_off,
        lay.b_off,
        tile_size
    );
    ensure!(
        lay.wb_off == lay.wa_off + plan.krows * 8 && lay.total == lay.wb_off + plan.krows * 8,
        "weight regions misplaced (wa_off {}, wb_off {}, total {}, krows {})",
        lay.wa_off,
        lay.wb_off,
        lay.total,
        plan.krows
    );
    Ok(())
}

/// The lookup-table entry the Eq. 5/6 maps predict for tile row `t`,
/// aligned lane `i` of a plan (a 1D plan has the one tile row `t = 0`).
/// Dirty addresses replicate the shipped dirty-slot assignment
/// (row-clamped first padding column).
fn expected_entry_2d(plan: &Plan2D, variant: VariantConfig, t: usize, i: usize) -> [u32; 2] {
    let nk = plan.nk;
    let lay = &plan.layout;
    let c = i as isize - plan.pre as isize;
    let in_span = c >= 0 && (c as usize) < plan.span;
    let dirty = variant.dirty_bits_lut;
    let a = match in_span.then(|| map_a(t, c as usize, nk)).flatten() {
        Some((g, col)) if g < plan.block_groups => (lay.a_off + g * lay.stride + col) as u32,
        _ if dirty => {
            let row = if in_span { c as usize / (nk + 1) } else { 0 };
            lay.dirty_a(row) as u32
        }
        _ => LUT_SKIP,
    };
    let b = match in_span.then(|| map_b(t, c as usize, nk)).flatten() {
        Some((g, col)) if g < plan.block_groups => (lay.b_off + g * lay.stride + col) as u32,
        _ if dirty => {
            let row = match in_span.then(|| (c as usize).checked_sub(nk)).flatten() {
                Some(cb) => cb / (nk + 1),
                None => 0,
            };
            lay.dirty_b(row) as u32
        }
        _ => LUT_SKIP,
    };
    [a, b]
}

/// Verify a 1D, 2D or 3D-plane scatter lookup table: analytic-map
/// agreement for every entry, totality + injectivity over the useful tile
/// cells, and dirty entries confined to padding columns.
pub fn verify_lut_2d(
    plan: &Plan2D,
    lut: &ScatterLut,
    variant: VariantConfig,
) -> Result<(), ConvStencilError> {
    let nk = plan.nk;
    let lay = &plan.layout;
    let tile_rows = plan.block_rows + plan.kernel_rows - 1;
    ensure!(
        lut.len() == tile_rows * plan.span_aligned,
        "LUT has {} entries, plan needs tile_rows {} x span_aligned {}",
        lut.len(),
        tile_rows,
        plan.span_aligned
    );
    for t in 0..tile_rows {
        // Per-tile-row injectivity/totality ledger: every useful column
        // of every group row must be hit exactly once by each matrix.
        let mut hit_a = vec![false; plan.block_groups * nk];
        let mut hit_b = vec![false; plan.block_groups * nk];
        for i in 0..plan.span_aligned {
            let got = lut.get(t, i);
            let want = expected_entry_2d(plan, variant, t, i);
            ensure!(
                got == want,
                "LUT entry (t={t}, i={i}) is [{}, {}], Eq. 5/6 predict [{}, {}]",
                got[0],
                got[1],
                want[0],
                want[1]
            );
            for (side, (addr, (off, hits))) in [
                (got[0], (lay.a_off, &mut hit_a)),
                (got[1], (lay.b_off, &mut hit_b)),
            ]
            .into_iter()
            .enumerate()
            {
                if addr == LUT_SKIP {
                    continue;
                }
                let addr = addr as usize;
                ensure!(
                    addr >= off && addr < off + plan.block_groups * lay.stride + lay.pad.max(1),
                    "LUT {} address {addr} escapes its tile region at {off} (t={t}, i={i})",
                    ["A", "B"][side]
                );
                let g = (addr - off) / lay.stride;
                let col = (addr - off) % lay.stride;
                if col >= lay.raw_cols {
                    continue; // dirty entry: padding column, checked above.
                }
                // Useful cell: must belong to this tile row and be fresh.
                ensure!(
                    col >= nk * t && col < nk * (t + 1),
                    "LUT {} useful column {col} outside tile row {t} band (t={t}, i={i})",
                    ["A", "B"][side]
                );
                let slot = g * nk + (col - nk * t);
                ensure!(
                    !hits[slot],
                    "LUT {} cell (group {g}, col {col}) written twice in tile row {t}",
                    ["A", "B"][side]
                );
                hits[slot] = true;
            }
        }
        ensure!(
            hit_a.iter().all(|&h| h) && hit_b.iter().all(|&h| h),
            "LUT not total in tile row {t}: {} A and {} B useful cells unwritten",
            hit_a.iter().filter(|&&h| !h).count(),
            hit_b.iter().filter(|&&h| !h).count()
        );
    }
    Ok(())
}

/// Verify the stacked kernel-weight matrices carry Fig. 3's triangular
/// structure.
///
/// The tap vector is reconstructed from A's column 0 (`a[row][0] =
/// w[block][c]` for every row), then every other A/B element is checked
/// against it: `a[row][j] = w[block][c - j]` for `j <= c` (zero above the
/// band), `b[row][j] = w[block][nk - j + c]` for `c < j <= nk` (zero on
/// and below the band), and padding rows past `logical_rows` are all
/// zero. A single mutated element breaks cross-consistency and is
/// caught; the check needs no kernel — it is purely structural.
pub fn verify_weights(w: &WeightMatrices) -> Result<(), ConvStencilError> {
    let nk = w.nk;
    ensure!(nk >= 1, "weight matrices with nk = 0");
    ensure!(
        w.logical_rows.is_multiple_of(nk),
        "weight logical_rows {} not a multiple of nk {}",
        w.logical_rows,
        nk
    );
    ensure!(
        w.krows == w.logical_rows.div_ceil(4) * 4,
        "weight krows {} != logical_rows {} rounded up to k-chunks",
        w.krows,
        w.logical_rows
    );
    ensure!(
        w.a.len() == w.krows * 8 && w.b.len() == w.krows * 8,
        "weight storage {}x{} != krows {} x 8",
        w.a.len(),
        w.b.len(),
        w.krows
    );
    let blocks = w.logical_rows / nk;
    // Reconstruct the tap vector from A's first fragment column.
    let w_hat: Vec<f64> = (0..w.logical_rows).map(|row| w.a_at(row, 0)).collect();
    for row in 0..w.krows {
        for j in 0..8 {
            let (want_a, want_b) = if row < w.logical_rows {
                let block = row / nk;
                let c = row % nk;
                let a = if j <= c {
                    w_hat[block * nk + (c - j)]
                } else {
                    0.0
                };
                let b = if j > c && j <= nk {
                    w_hat[block * nk + (nk - j + c)]
                } else {
                    0.0
                };
                (a, b)
            } else {
                (0.0, 0.0) // k-chunk padding rows contribute nothing.
            };
            ensure!(
                w.a_at(row, j).to_bits() == want_a.to_bits(),
                "weight A[{row}][{j}] = {} breaks the Fig. 3 band structure \
                 (expected {} from column-0 taps, {} blocks)",
                w.a_at(row, j),
                want_a,
                blocks
            );
            ensure!(
                w.b_at(row, j).to_bits() == want_b.to_bits(),
                "weight B[{row}][{j}] = {} breaks the Fig. 3 band structure \
                 (expected {} from column-0 taps, {} blocks)",
                w.b_at(row, j),
                want_b,
                blocks
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec1d::Exec1D;
    use crate::exec2d::Exec2D;
    use stencil_core::{Kernel1D, Kernel2D};

    #[test]
    fn shipped_plans_pass_every_check() {
        for (_, variant) in VariantConfig::breakdown() {
            let plan = Plan2D::try_new_2d(96, 128, 5, variant).unwrap();
            verify_layout_2d(&plan, variant).unwrap();
            let lut = plan.build_scatter_lut(variant);
            verify_lut_2d(&plan, &lut, variant).unwrap();
        }
        let k = Kernel2D::box_uniform(3);
        verify_weights(&WeightMatrices::from_kernel2d(&k)).unwrap();
        let k1 = Kernel1D::new(vec![0.2, 0.5, 0.2]);
        verify_weights(&WeightMatrices::from_kernel1d(&k1)).unwrap();
        for (_, variant) in VariantConfig::breakdown() {
            Exec1D::try_new(&k1, 512, variant)
                .unwrap()
                .verify()
                .unwrap();
        }
    }

    #[test]
    fn mutated_lut_entry_is_rejected_with_a_reason() {
        let variant = VariantConfig::conv_stencil();
        let k = Kernel2D::box_uniform(1);
        let mut exec = Exec2D::try_new(&k, 64, 64, variant).unwrap();
        exec.verify().unwrap();
        // Redirect one useful cell to the wrong column.
        let lane = exec.plan.pre + 1;
        let old = exec.lut().get(0, lane);
        exec.lut_mut().set(0, lane, [old[0] + 1, old[1]]);
        let err = exec.verify().unwrap_err();
        assert!(matches!(err, ConvStencilError::PlanInvalid { .. }));
        assert!(err.to_string().contains("Eq. 5/6"));
    }

    #[test]
    fn partial_tessellation_band_is_rejected() {
        // 10 groups: the band loop covers 8, leaving 2 unwritten.
        let variant = VariantConfig::conv_stencil();
        let plan = Plan2D::try_with_block(9, 70, 5, 8, 10, variant).unwrap();
        let err = verify_layout_2d(&plan, variant).unwrap_err();
        assert!(err.to_string().contains("8-group"), "{err}");
        let k = Kernel2D::box_uniform(2);
        assert!(matches!(
            Exec2D::try_with_plan(&k, plan, variant),
            Err(ConvStencilError::PlanInvariant { .. })
        ));
    }

    #[test]
    fn corrupted_weight_matrix_is_rejected() {
        let k = Kernel2D::box_uniform(2);
        let mut w = WeightMatrices::from_kernel2d(&k);
        // Flip one in-band element of B.
        let nk = w.nk;
        w.b[nk + 2] += 1.0; // row 1 (c = 1), j = 2: inside B's band.
        let err = verify_weights(&w).unwrap_err();
        assert!(err.to_string().contains("Fig. 3"));
    }

    #[test]
    fn zero_structure_violations_are_rejected() {
        let k = Kernel2D::box_uniform(1);
        let mut w = WeightMatrices::from_kernel2d(&k);
        // A's column past the band must be zero; poke one.
        w.a[7] = 0.25; // row 0, j = 7 (> c = 0): must be zero.
        assert!(verify_weights(&w).is_err());
    }
}
