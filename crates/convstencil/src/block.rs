//! The block pipeline the three executors share (paper §4.1–4.2).
//!
//! A 1D block, a 2D block and every input plane of a 3D block run the
//! same steps over a stencil2row A/B tile pair in shared memory:
//!
//! 1. **Scatter** — 32-lane coalesced reads of each input row, stored
//!    into the tiles through that row of the host-precomputed lookup
//!    table ([`scatter_row`]); variant I instead copies the block's part
//!    of the global stencil2row matrices ([`run_transform`] builds them).
//!    Padding columns and the layout tail are declared exempt from
//!    initcheck first ([`exempt_padding`]).
//! 2. **Weights** — the kernel-weight matrices are staged once per block
//!    and held as register-resident B-fragments ([`stage_weights`]).
//! 3. **Tessellation** — per output row and 8-group band, one dual
//!    tessellation: the A fragments, then the B fragments, into one
//!    accumulator ([`tessellate`]), unpacked into `8(n_k+1)` contiguous
//!    outputs ([`unpack_band`]). Variants I/II compute the same outputs
//!    with CUDA-core taps ([`tap_warp`]).
//! 4. **Write-back** — coalesced warp writes, lanes at or past column `n`
//!    inactive ([`write_back`]).
//!
//! Each function issues exactly the `BlockCtx` calls of its step, in
//! order, so an executor's outputs, counters, traces and sanitizer
//! reports are what the step would produce written inline. The executors
//! keep their geometry: plans, block-id decomposition, the 3D z-window and
//! hybrid planes, and the 1D transform and explicit staging, whose warps
//! differ from the 2D ones.

use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut, SharedLayout, LUT_SKIP};
use crate::stencil2row::{map_a, map_b};
use crate::variants::VariantConfig;
use crate::weights::WeightMatrices;
use tcu_sim::{BlockCtx, BufferId, Device, FragAcc, FragB, Phase, INACTIVE};

/// Stack-buffer capacity for one tessellation band's `8(n_k+1)` outputs
/// (shared-memory capacity keeps `n_k` far below 31 in any valid plan).
pub(crate) const MAX_BAND_F64: usize = 256;

/// Register-resident weight fragments of one kernel plane: the A-side
/// k-chunks, then the B-side ones.
pub(crate) type WeightFrags = (Vec<FragB>, Vec<FragB>);

/// CUDA-core column map entry: `(in A, group row, offset in tile row 0)`.
pub(crate) type ColEntry = (bool, usize, usize);

/// One stencil2row A/B tile pair in shared memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tiles {
    /// Offset of the A tile.
    pub a: usize,
    /// Offset of the B tile (the A tile and its tail margin end here).
    pub b: usize,
    /// Row stride: useful columns plus padding.
    pub stride: usize,
    /// Group rows per tile.
    pub groups: usize,
}

impl Tiles {
    /// The tile pair of a 2D layout placed at shared offset `base`.
    pub(crate) fn of(lay: &SharedLayout, base: usize) -> Self {
        Self {
            a: base + lay.a_off,
            b: base + lay.b_off,
            stride: lay.stride,
            groups: lay.tile_rows,
        }
    }
}

/// Where a block's outputs go. Block-relative output `(xr, yr)` is the
/// global output `(x0 + xr, y0 + yr)`, stored at element
/// `base + (x0 + xr)·row_stride + y0 + yr` of `buf` when `y0 + yr < n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Out {
    pub buf: BufferId,
    pub base: usize,
    pub row_stride: usize,
    pub n: usize,
    pub x0: usize,
    pub y0: usize,
}

/// One block of a 2D plan (or of one 3D plane).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block2D {
    /// Row block and column-group block.
    pub bx: usize,
    pub bg: usize,
    /// Output rows this block computes, and input rows it stages.
    pub rows: usize,
    pub tile_rows: usize,
}

impl Block2D {
    /// Block `id` of `plan`, row blocks outermost.
    pub(crate) fn new(plan: &Plan2D, id: usize) -> Self {
        let bx = id / plan.blocks_g;
        let rows = plan.block_rows.min(plan.m - bx * plan.block_rows);
        Self {
            bx,
            bg: id % plan.blocks_g,
            rows,
            tile_rows: rows + plan.kernel_rows - 1,
        }
    }

    /// This block's outputs in extended plane `plane` of `buf`.
    pub(crate) fn out(&self, plan: &Plan2D, buf: BufferId, plane: usize) -> Out {
        Out {
            buf,
            base: plane * plan.ext_rows * plan.ext_cols + plan.lr * plan.ext_cols + plan.lc,
            row_stride: plan.ext_cols,
            n: plan.n,
            x0: self.bx * plan.block_rows,
            y0: self.bg * plan.block_groups * (plan.nk + 1),
        }
    }
}

/// Variant I's global stencil2row matrices (A, B): one `rows x cols`
/// section per extended plane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Explicit {
    pub bufs: [BufferId; 2],
    pub rows: usize,
    pub cols: usize,
}

impl Explicit {
    /// `(rows, cols)` of one plane section for `plan`. Rows cover all
    /// block groups so the compute stage reads uniformly.
    pub(crate) fn dims(plan: &Plan2D) -> (usize, usize) {
        (plan.blocks_g * plan.block_groups, plan.nk * plan.ext_rows)
    }
}

/// Where a 2D block (or a 3D plane slot) stages its tiles from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source {
    /// Extended input plane `.1` of buffer `.0` (2D arrays are plane 0).
    Input(BufferId, usize),
    /// Plane section `.1` of variant I's global matrices.
    Explicit(Explicit, usize),
}

// ---- checks -----------------------------------------------------------

/// Dual tessellation consumes whole 8-group bands, so a block's column
/// group count must be a multiple of 8; any remainder would go unwritten.
pub(crate) fn check_block_groups(groups: usize) -> Result<(), ConvStencilError> {
    if groups.is_multiple_of(8) {
        return Ok(());
    }
    Err(ConvStencilError::PlanInvariant {
        reason: format!("groups per block must be a multiple of 8 (got {groups})"),
    })
}

/// Explicit scratch must be given iff the variant materialises the
/// stencil2row matrices in global memory (variant I).
pub(crate) fn check_scratch<S>(
    variant: VariantConfig,
    explicit: Option<S>,
) -> Result<Option<S>, ConvStencilError> {
    if variant.explicit_global != explicit.is_some() {
        return Err(ConvStencilError::ScratchMismatch {
            expected: variant.explicit_global,
        });
    }
    Ok(explicit)
}

// ---- host-side tables -------------------------------------------------

/// The CUDA-core column map of a block: input column `c` of its span, in
/// tile row 0. The offset grows by `n_k` per input row (Eq. 5/6's `n_k·x`
/// term).
///
/// Columns A drops (`c ≡ n_k mod n_k+1`) or that lie past its `groups`
/// rows come from B. Eq. 6 keeps every one of them: a block's span ends
/// `n_k - 1` columns past its last group, before B's next dropped column.
pub(crate) fn colmap(span: usize, nk: usize, groups: usize) -> Vec<ColEntry> {
    (0..span)
        .map(|c| {
            let (g, off) = (c / (nk + 1), c % (nk + 1));
            if off != nk && g < groups {
                (true, g, off)
            } else {
                let cb = c - nk;
                (false, cb / (nk + 1), cb % (nk + 1))
            }
        })
        .collect()
}

// ---- scatter and staging ----------------------------------------------

/// Declare the regions initcheck must not flag: each group row's columns
/// past the `used` ones this block stages (fragment k-chunk overreads
/// legitimately touch them, and dirty-bits slots absorb same-phase
/// duplicate stores there) plus the layout tail. No-op when the
/// sanitizer is off.
pub(crate) fn exempt_padding(ctx: &mut BlockCtx, tiles: &Tiles, used: usize) {
    for off in [tiles.a, tiles.b] {
        for g in 0..tiles.groups {
            ctx.sanitize_exempt(off + g * tiles.stride + used, tiles.stride - used);
        }
        let staged = tiles.groups * tiles.stride;
        ctx.sanitize_exempt(off + staged, tiles.b - tiles.a - staged);
    }
}

/// Scatter one input row: coalesced 32-lane reads of `lut.len()`
/// elements of `src` from `read0`, each stored to the shared A/B
/// addresses its LUT entry names (offset by `base`; [`LUT_SKIP`] sides
/// are dropped). Addressing cost (§3.4): with the LUT one indexed add per
/// side, otherwise flat->(t,c) div/mod plus validity branches.
pub(crate) fn scatter_row(
    ctx: &mut BlockCtx,
    src: BufferId,
    read0: usize,
    lut: &[[u32; 2]],
    base: usize,
    lut_mode: bool,
) {
    let mut gaddrs = [INACTIVE; 32];
    let mut vals = [0.0f64; 32];
    let mut a_addrs = [0usize; 32];
    let mut a_vals = [0.0f64; 32];
    let mut b_addrs = [0usize; 32];
    let mut b_vals = [0.0f64; 32];
    for (k, entries) in lut.chunks(32).enumerate() {
        let lanes = entries.len();
        for (l, a) in gaddrs[..lanes].iter_mut().enumerate() {
            *a = read0 + 32 * k + l;
        }
        ctx.gmem_read_warp(src, &gaddrs[..lanes], &mut vals[..lanes]);
        if lut_mode {
            ctx.count_int(2 * lanes as u64);
        } else {
            ctx.count_divmod(2 * lanes as u64);
            ctx.count_branch(2 * lanes as u64);
            ctx.count_int(4 * lanes as u64);
        }
        let (mut na, mut nb) = (0usize, 0usize);
        for (l, &[a, b]) in entries.iter().enumerate() {
            if a != LUT_SKIP {
                a_addrs[na] = base + a as usize;
                a_vals[na] = vals[l];
                na += 1;
            }
            if b != LUT_SKIP {
                b_addrs[nb] = base + b as usize;
                b_vals[nb] = vals[l];
                nb += 1;
            }
        }
        if na > 0 {
            ctx.smem_store(&a_addrs[..na], &a_vals[..na]);
        }
        if nb > 0 {
            ctx.smem_store(&b_addrs[..nb], &b_vals[..nb]);
        }
    }
}

/// Store `data` to contiguous shared addresses from `dst`, 32 lanes at a
/// time.
fn store_contiguous(ctx: &mut BlockCtx, dst: usize, data: &[f64]) {
    let mut addrs = [0usize; 32];
    for (k, chunk) in data.chunks(32).enumerate() {
        for (l, a) in addrs[..chunk.len()].iter_mut().enumerate() {
            *a = dst + 32 * k + l;
        }
        ctx.smem_store(&addrs[..chunk.len()], chunk);
    }
}

/// Stage block `blk`'s tile pair at shared offset `base` from `src`: the
/// initcheck exemptions, then the LUT-driven scatter of every input row,
/// or (variant I) a copy of the block's columns of the global stencil2row
/// matrices, one group row at a time (coalesced reads, contiguous
/// stores).
pub(crate) fn stage_tiles(
    ctx: &mut BlockCtx,
    plan: &Plan2D,
    lut: &ScatterLut,
    variant: VariantConfig,
    src: Source,
    base: usize,
    blk: Block2D,
) {
    let tiles = Tiles::of(&plan.layout, base);
    exempt_padding(ctx, &tiles, plan.nk * blk.tile_rows);
    match src {
        Source::Input(buf, plane) => {
            let read0 = plane * plan.ext_rows * plan.ext_cols + plan.read_col0(blk.bg);
            let lut_mode = variant.dirty_bits_lut;
            for t in 0..blk.tile_rows {
                let row = read0 + (blk.bx * plan.block_rows + t) * plan.ext_cols;
                scatter_row(ctx, buf, row, lut.row(t), base, lut_mode);
            }
        }
        Source::Explicit(ex, plane) => {
            let col0 = plan.nk * (blk.bx * plan.block_rows);
            let width = (plan.nk * blk.tile_rows).min(ex.cols - col0);
            let sec = plane * ex.rows * ex.cols;
            let mut vals = vec![0.0f64; width];
            for ga in 0..tiles.groups {
                let g = blk.bg * plan.block_groups + ga;
                if g >= ex.rows {
                    continue;
                }
                for (buf, off) in [(ex.bufs[0], tiles.a), (ex.bufs[1], tiles.b)] {
                    ctx.gmem_read_span_into(buf, sec + g * ex.cols + col0, &mut vals);
                    ctx.count_int(width as u64);
                    store_contiguous(ctx, off + ga * tiles.stride, &vals);
                }
            }
        }
    }
}

/// Variant-I transform kernel: materialise the stencil2row matrices of
/// `planes` extended planes in global memory. 32 extended rows per block,
/// div/mod addressing and scattered (uncoalesced) global writes — the
/// costs this variant exists to demonstrate.
pub(crate) fn run_transform(
    dev: &mut Device,
    ext_in: BufferId,
    p: &Plan2D,
    planes: usize,
    ex: Explicit,
) -> Result<(), ConvStencilError> {
    let nk = p.nk;
    let ps = p.ext_rows * p.ext_cols;
    let rows_per_block = 32usize;
    let blocks_per_plane = p.ext_rows.div_ceil(rows_per_block);
    let first = p.lc - p.radius; // ext column where the conv window starts
    dev.set_write_hint(rows_per_block * 2 * p.span);
    dev.try_launch(planes * blocks_per_plane, 64, |bid, ctx| {
        ctx.phase(Phase::LayoutTransform);
        let plane = bid / blocks_per_plane;
        let r0 = (bid % blocks_per_plane) * rows_per_block;
        let r1 = (r0 + rows_per_block).min(p.ext_rows);
        let sec = plane * ex.rows * ex.cols;
        let mut a_addrs = [INACTIVE; 32];
        let mut b_addrs = [INACTIVE; 32];
        let mut vals32 = [0.0f64; 32];
        let mut vals = vec![0.0f64; p.ext_cols];
        for r in r0..r1 {
            ctx.gmem_read_span_into(ext_in, plane * ps + r * p.ext_cols, &mut vals);
            let mut lane = 0usize;
            for (c, &v) in vals.iter().enumerate() {
                let Some(c_rel) = c.checked_sub(first) else {
                    continue;
                };
                // Address arithmetic: flat->(row,col) plus two group
                // div/mods, and two validity branches per element.
                ctx.count_divmod(2);
                ctx.count_branch(2);
                ctx.count_int(4);
                a_addrs[lane] = match map_a(r, c_rel, nk) {
                    Some((g, col)) if g < ex.rows => sec + g * ex.cols + col,
                    _ => INACTIVE,
                };
                b_addrs[lane] = match map_b(r, c_rel, nk) {
                    Some((g, col)) if g < ex.rows => sec + g * ex.cols + col,
                    _ => INACTIVE,
                };
                vals32[lane] = v;
                lane += 1;
                if lane == 32 {
                    ctx.gmem_write_warp(ex.bufs[0], &a_addrs, &vals32);
                    ctx.gmem_write_warp(ex.bufs[1], &b_addrs, &vals32);
                    lane = 0;
                }
            }
            if lane > 0 {
                ctx.gmem_write_warp(ex.bufs[0], &a_addrs[..lane], &vals32[..lane]);
                ctx.gmem_write_warp(ex.bufs[1], &b_addrs[..lane], &vals32[..lane]);
            }
        }
    })?;
    Ok(())
}

/// Stage the weight matrices of `w` into shared memory at `off` (A, then
/// B right after it) and pre-load their register-resident B-fragments.
pub(crate) fn stage_weights(ctx: &mut BlockCtx, w: &WeightMatrices, off: usize) -> WeightFrags {
    let wb_off = off + w.krows * 8;
    store_contiguous(ctx, off, &w.a);
    store_contiguous(ctx, wb_off, &w.b);
    let chunks = w.krows / 4;
    let wa = (0..chunks)
        .map(|k| ctx.load_frag_b(off + 4 * k * 8, 8))
        .collect();
    let wb = (0..chunks)
        .map(|k| ctx.load_frag_b(wb_off + 4 * k * 8, 8))
        .collect();
    (wa, wb)
}

// ---- compute and write-back -------------------------------------------

/// Accumulate one dual tessellation into `acc`: the A-tile fragments
/// against the A weights, then the B-tile fragments against the B
/// weights, both starting `row_off` into their tile (`band·8·stride +
/// n_k·xr` for output row `xr` of 8-group band `band`).
pub(crate) fn tessellate(
    ctx: &mut BlockCtx,
    tiles: &Tiles,
    row_off: usize,
    (wa, wb): &WeightFrags,
    acc: &mut FragAcc,
) {
    for (tile, frags) in [(tiles.a, wa), (tiles.b, wb)] {
        for (k, f) in frags.iter().enumerate() {
            let frag = ctx.load_frag_a(tile + row_off + 4 * k, tiles.stride);
            ctx.dmma(&frag, f, acc);
        }
    }
}

/// Tessellation result: `acc[ga][j]`, `j` in `0..=n_k`, is band output
/// `ga·(n_k+1) + j`.
pub(crate) fn unpack_band(acc: &FragAcc, nk: usize, out: &mut [f64]) {
    for ga in 0..8 {
        for j in 0..=nk {
            out[ga * (nk + 1) + j] = acc.get(ga, j);
        }
    }
}

/// One CUDA-core tap over `out.len()` (at most 32) lanes: lane `l` loads
/// input column `c0 + l` of input row `t` (`row_off = n_k·t`) through the
/// column map and adds `w` times it to `out[l]`.
pub(crate) fn tap_warp(
    ctx: &mut BlockCtx,
    tiles: &Tiles,
    colmap: &[ColEntry],
    row_off: usize,
    c0: usize,
    w: f64,
    out: &mut [f64],
) {
    let lanes = out.len();
    let mut addrs = [0usize; 32];
    let mut vals = [0.0f64; 32];
    for l in 0..lanes {
        let (in_a, g, off) = colmap[c0 + l];
        let tile = if in_a { tiles.a } else { tiles.b };
        addrs[l] = tile + g * tiles.stride + row_off + off;
    }
    ctx.smem_load(&addrs[..lanes], &mut vals[..lanes]);
    ctx.count_fma(lanes as u64);
    ctx.count_int(lanes as u64);
    for l in 0..lanes {
        out[l] += w * vals[l];
    }
}

/// Write `vals` to block output row `xr` from block column `yr0` with
/// coalesced warp writes, in the epilogue phase. Lanes at or past column
/// `n` are inactive; a warp with no active lane is not issued.
pub(crate) fn write_back(ctx: &mut BlockCtx, out: &Out, xr: usize, yr0: usize, vals: &[f64]) {
    let prev = ctx.phase(Phase::Epilogue);
    let row = out.base + (out.x0 + xr) * out.row_stride;
    let y0 = out.y0 + yr0;
    let mut addrs = [INACTIVE; 32];
    for (k, chunk) in vals.chunks(32).enumerate() {
        let mut any = false;
        for (l, a) in addrs[..chunk.len()].iter_mut().enumerate() {
            let y = y0 + 32 * k + l;
            *a = if y < out.n {
                any = true;
                row + y
            } else {
                INACTIVE
            };
        }
        if any {
            ctx.gmem_write_warp(out.buf, &addrs[..chunk.len()], chunk);
        }
    }
    ctx.phase(prev);
}

/// Tensor-core compute of a 1D or 2D block over `rows` output rows. The
/// weights are staged first (shared-memory traffic, so still in the
/// scatter phase); then each row and 8-group band is one dual
/// tessellation, unpacked and written back.
pub(crate) fn compute_tcu(
    ctx: &mut BlockCtx,
    tiles: &Tiles,
    w: &WeightMatrices,
    w_off: usize,
    rows: usize,
    out: &Out,
) {
    let nk = w.nk;
    let frags = stage_weights(ctx, w, w_off);
    ctx.phase(Phase::Tessellation);
    let mut band_buf = [0.0f64; MAX_BAND_F64];
    let band_vals = &mut band_buf[..8 * (nk + 1)];
    for xr in 0..rows {
        for band in 0..tiles.groups / 8 {
            let mut acc = FragAcc::zero();
            let row_off = band * 8 * tiles.stride + nk * xr;
            tessellate(ctx, tiles, row_off, &frags, &mut acc);
            unpack_band(&acc, nk, band_vals);
            write_back(ctx, out, xr, band * 8 * (nk + 1), band_vals);
        }
    }
}

/// CUDA-core compute (variants I/II) of a 1D or 2D block: per output row
/// and 32 output columns, one [`tap_warp`] per non-zero kernel point
/// `(kx, ky, w)`, then the write-back.
pub(crate) fn compute_cuda(
    ctx: &mut BlockCtx,
    tiles: &Tiles,
    colmap: &[ColEntry],
    points: &[(usize, usize, f64)],
    nk: usize,
    rows: usize,
    out: &Out,
) {
    ctx.phase(Phase::Tessellation);
    let out_width = tiles.groups * (nk + 1);
    let mut sums = [0.0f64; 32];
    for xr in 0..rows {
        for yr0 in (0..out_width).step_by(32) {
            let sums = &mut sums[..32.min(out_width - yr0)];
            sums.fill(0.0);
            for &(kx, ky, w) in points {
                tap_warp(ctx, tiles, colmap, nk * (xr + kx), yr0 + ky, w, sums);
            }
            write_back(ctx, out, xr, yr0, sums);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colmap_follows_eq5_eq6() {
        for nk in [3, 5, 7] {
            for groups in [8, 16, 128] {
                let span = groups * (nk + 1) + nk - 1;
                for (c, &entry) in colmap(span, nk, groups).iter().enumerate() {
                    let want = match map_a(0, c, nk) {
                        Some((g, col)) if g < groups => (true, g, col),
                        _ => {
                            let (g, col) = map_b(0, c, nk).expect("B keeps every column A drops");
                            (false, g, col)
                        }
                    };
                    assert_eq!(entry, want, "nk={nk} groups={groups} c={c}");
                }
            }
        }
    }
}
