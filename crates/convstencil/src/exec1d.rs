//! The simulated 1D ConvStencil pipeline (paper §4.1).
//!
//! The stencil2row matrices shrink to `⌈n/(n_k+1)⌉` rows of `n_k` columns;
//! the computation is otherwise identical to 2D: dual tessellations over
//! 8-group bands, `2⌈n_k/4⌉` MMAs each, producing `8(n_k+1)` contiguous
//! outputs. One thread block covers 1024 outputs (Table 4's 1D block
//! size) — 128 groups for `n_k = 7`.

use crate::error::ConvStencilError;
use crate::plan::LUT_SKIP;
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::{WeightMatrices, FRAG_K};
use stencil_core::Kernel1D;
use tcu_sim::{conflict_free_pad, BlockCtx, BufferId, Device, FragAcc, FragB, Phase, INACTIVE};

/// Geometry for the 1D pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan1D {
    pub nk: usize,
    pub radius: usize,
    /// Output length.
    pub n: usize,
    /// Column groups per block.
    pub block_groups: usize,
    pub blocks: usize,
    /// Extended array geometry (offset of interior cell 0 is `lc`).
    pub ext_len: usize,
    pub lc: usize,
    pub span: usize,
    pub pre: usize,
    pub span_aligned: usize,
    /// Shared row stride of the stencil2row tiles.
    pub stride: usize,
    pub raw_cols: usize,
    pub pad: usize,
    pub a_off: usize,
    pub b_off: usize,
    pub wa_off: usize,
    pub wb_off: usize,
    pub shared_total: usize,
    pub krows: usize,
}

impl Plan1D {
    pub fn new(n: usize, nk: usize, variant: VariantConfig) -> Self {
        Self::try_new(n, nk, variant).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Plan1D::new`].
    pub fn try_new(n: usize, nk: usize, variant: VariantConfig) -> Result<Self, ConvStencilError> {
        if !(nk % 2 == 1 && (3..=7).contains(&nk)) {
            return Err(ConvStencilError::UnsupportedNk { nk });
        }
        if n == 0 {
            return Err(ConvStencilError::ZeroSizedGrid { dims: vec![n] });
        }
        let radius = (nk - 1) / 2;
        let krows = nk.div_ceil(FRAG_K) * FRAG_K;
        // Cover ~1024 outputs per block (Table 4), in multiples of 8
        // groups.
        let block_groups = ((1024 / (nk + 1)) / 8 * 8).max(8);
        let groups_needed = n.div_ceil(nk + 1);
        let blocks = groups_needed.div_ceil(block_groups);
        let lc = 4;
        let covered = blocks * block_groups * (nk + 1);
        let ext_len = (lc + covered + nk).div_ceil(4) * 4;
        let span = block_groups * (nk + 1) + nk - 1;
        let first = lc - radius;
        let pre = first - (first & !3);
        let span_aligned = (pre + span).div_ceil(4) * 4;
        let raw_cols = nk;
        let pad = if variant.padding {
            let p = conflict_free_pad(raw_cols, 32);
            if variant.dirty_bits_lut && p == 0 {
                16
            } else {
                p
            }
        } else {
            0
        };
        let stride = raw_cols + pad;
        // Fragment chunks read up to krows elements from a row; anything
        // past the stride lands in the following row (zero weights), and
        // the final row needs a tail margin.
        let tail = krows.saturating_sub(stride);
        let tile_size = block_groups * stride + tail;
        let a_off = 0;
        let b_off = tile_size;
        let wa_off = 2 * tile_size;
        let wb_off = wa_off + krows * 8;
        let shared_total = wb_off + krows * 8;
        Ok(Self {
            nk,
            radius,
            n,
            block_groups,
            blocks,
            ext_len,
            lc,
            span,
            pre,
            span_aligned,
            stride,
            raw_cols,
            pad,
            a_off,
            b_off,
            wa_off,
            wb_off,
            shared_total,
            krows,
        })
    }

    pub fn read_col0(&self, b: usize) -> usize {
        ((self.lc - self.radius) & !3) + b * self.block_groups * (self.nk + 1)
    }

    /// Build the extended array from a 1D grid.
    pub fn build_ext(&self, grid: &stencil_core::Grid1D) -> Vec<f64> {
        self.try_build_ext(grid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Plan1D::build_ext`].
    pub fn try_build_ext(&self, grid: &stencil_core::Grid1D) -> Result<Vec<f64>, ConvStencilError> {
        if grid.len() != self.n {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.n],
                got: vec![grid.len()],
            });
        }
        let h = grid.halo();
        if h < self.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.radius,
            });
        }
        let mut ext = vec![0.0; self.ext_len];
        for (c, e) in ext.iter_mut().enumerate() {
            let py = (c + h).wrapping_sub(self.lc);
            if py < grid.padded_len() {
                *e = grid.padded()[py];
            }
        }
        Ok(ext)
    }

    /// Extract the interior from an extended array.
    pub fn extract_into(&self, ext: &[f64], grid: &mut stencil_core::Grid1D) {
        for i in 0..self.n {
            grid.set(i, ext[i + self.lc]);
        }
    }
}

/// Precompiled 1D executor.
#[derive(Debug, Clone)]
pub struct Exec1D {
    pub plan: Plan1D,
    pub variant: VariantConfig,
    pub weights: WeightMatrices,
    /// `(A shared address, B shared address)` per aligned read lane.
    lut: Vec<[u32; 2]>,
    /// Non-zero kernel taps for the CUDA-core path.
    taps: Vec<(usize, f64)>,
    /// Input column -> (in_a, group, offset).
    colmap: Vec<(bool, usize, usize)>,
}

impl Exec1D {
    pub fn new(kernel: &Kernel1D, n: usize, variant: VariantConfig) -> Self {
        Self::try_new(kernel, n, variant).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`Exec1D::new`].
    pub fn try_new(
        kernel: &Kernel1D,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let plan = Plan1D::try_new(n, kernel.nk(), variant)?;
        let weights = WeightMatrices::from_kernel1d(kernel);
        let nk = plan.nk;
        let mut lut = vec![[LUT_SKIP, LUT_SKIP]; plan.span_aligned];
        for (i, e) in lut.iter_mut().enumerate() {
            let c = i as isize - plan.pre as isize;
            if c < 0 || c as usize >= plan.span {
                if variant.dirty_bits_lut {
                    e[0] = (plan.a_off + plan.raw_cols) as u32;
                    e[1] = (plan.b_off + plan.raw_cols) as u32;
                }
                continue;
            }
            let c = c as usize;
            let g = c / (nk + 1);
            let off = c % (nk + 1);
            e[0] = if off != nk && g < plan.block_groups {
                (plan.a_off + g * plan.stride + off) as u32
            } else if variant.dirty_bits_lut {
                (plan.a_off + g.min(plan.block_groups - 1) * plan.stride + plan.raw_cols) as u32
            } else {
                LUT_SKIP
            };
            e[1] = match c.checked_sub(nk) {
                Some(cb) if cb < plan.span - nk => {
                    let gb = cb / (nk + 1);
                    let offb = cb % (nk + 1);
                    if offb != nk && gb < plan.block_groups {
                        (plan.b_off + gb * plan.stride + offb) as u32
                    } else if variant.dirty_bits_lut {
                        (plan.b_off + gb.min(plan.block_groups - 1) * plan.stride + plan.raw_cols)
                            as u32
                    } else {
                        LUT_SKIP
                    }
                }
                _ if variant.dirty_bits_lut => (plan.b_off + plan.raw_cols) as u32,
                _ => LUT_SKIP,
            };
        }
        let taps: Vec<(usize, f64)> = kernel
            .weights()
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0.0)
            .map(|(i, &w)| (i, w))
            .collect();
        let mut colmap = Vec::with_capacity(plan.span);
        for c in 0..plan.span {
            let g = c / (nk + 1);
            let off = c % (nk + 1);
            if off != nk && g < plan.block_groups {
                colmap.push((true, g, off));
            } else {
                let cb = c - nk;
                colmap.push((false, cb / (nk + 1), cb % (nk + 1)));
            }
        }
        Ok(Self {
            plan,
            variant,
            weights,
            lut,
            taps,
            colmap,
        })
    }

    pub fn shared_len(&self) -> usize {
        self.plan.shared_total
    }

    /// Read access to the scatter lookup table.
    pub fn lut(&self) -> &[[u32; 2]] {
        &self.lut
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut Vec<[u32; 2]> {
        &mut self.lut
    }

    /// Run the static plan verifier over this executor's plan, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_plan_1d(&self.plan, self.variant)?;
        verify_plan::verify_lut_1d(&self.plan, &self.lut, self.variant)?;
        verify_plan::verify_weights(&self.weights)
    }

    /// Declare the padding columns and layout tail exempt from initcheck
    /// (fragment k-chunk overreads and dirty-bits duplicate stores
    /// legitimately touch them). No-op when the sanitizer is off.
    fn declare_exempt(&self, ctx: &mut BlockCtx) {
        let p = &self.plan;
        for off in [p.a_off, p.b_off] {
            for g in 0..p.block_groups {
                ctx.sanitize_exempt(off + g * p.stride + p.raw_cols, p.pad);
            }
            let staged = p.block_groups * p.stride;
            ctx.sanitize_exempt(off + staged, p.b_off - p.a_off - staged);
        }
    }

    /// One application: read `ext_in`, write interior of `ext_out`.
    ///
    /// The explicit variant (I) materializes the stencil2row matrices in
    /// global scratch first; pass buffers from [`Exec1D::alloc_explicit`].
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<(BufferId, BufferId)>,
    ) -> Result<(), ConvStencilError> {
        if self.variant.explicit_global {
            let bufs = explicit.ok_or(ConvStencilError::ScratchMismatch { expected: true })?;
            self.run_transform(dev, ext_in, bufs)?;
            self.run_compute(dev, ext_in, ext_out, Some(bufs))
        } else {
            self.run_compute(dev, ext_in, ext_out, None)
        }
    }

    pub fn alloc_explicit(&self, dev: &mut Device) -> (BufferId, BufferId) {
        let rows = self.plan.blocks * self.plan.block_groups;
        (
            dev.alloc(rows * self.plan.nk),
            dev.alloc(rows * self.plan.nk),
        )
    }

    fn run_transform(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: (BufferId, BufferId),
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let nk = p.nk;
        let rows = p.blocks * p.block_groups;
        let chunk = 4096usize;
        let num_blocks = p.ext_len.div_ceil(chunk);
        let first = p.lc - p.radius;
        dev.set_write_hint(2 * chunk);
        dev.try_launch(num_blocks, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let c0 = bid * chunk;
            let c1 = (c0 + chunk).min(p.ext_len);
            let mut vals = vec![0.0f64; c1 - c0];
            ctx.gmem_read_span_into(ext_in, c0, &mut vals);
            let mut a_addrs = [INACTIVE; 32];
            let mut b_addrs = [INACTIVE; 32];
            let mut a_vals = [0.0f64; 32];
            let mut lane = 0;
            for (idx, &v) in vals.iter().enumerate() {
                let Some(c) = (c0 + idx).checked_sub(first) else {
                    continue;
                };
                ctx.count_divmod(2);
                ctx.count_branch(2);
                ctx.count_int(4);
                let g = c / (nk + 1);
                let off = c % (nk + 1);
                a_addrs[lane] = if off != nk && g < rows {
                    g * nk + off
                } else {
                    INACTIVE
                };
                b_addrs[lane] = match c.checked_sub(nk) {
                    Some(cb) if (cb + 1) % (nk + 1) != 0 && cb / (nk + 1) < rows => {
                        Some(cb / (nk + 1) * nk + cb % (nk + 1))
                    }
                    _ => None,
                }
                .unwrap_or(INACTIVE);
                a_vals[lane] = v;
                lane += 1;
                if lane == 32 {
                    ctx.gmem_write_warp(bufs.0, &a_addrs, &a_vals);
                    ctx.gmem_write_warp(bufs.1, &b_addrs, &a_vals);
                    lane = 0;
                }
            }
            if lane > 0 {
                ctx.gmem_write_warp(bufs.0, &a_addrs[..lane], &a_vals[..lane]);
                ctx.gmem_write_warp(bufs.1, &b_addrs[..lane], &a_vals[..lane]);
            }
        })?;
        Ok(())
    }

    fn run_compute(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<(BufferId, BufferId)>,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        dev.set_write_hint(p.block_groups * (p.nk + 1));
        dev.try_launch(p.blocks, self.shared_len(), |bid, ctx| {
            ctx.phase(Phase::SmemScatter);
            match explicit {
                Some(bufs) => self.stage_from_global(ctx, bufs, bid),
                None => self.scatter(ctx, ext_in, bid),
            }
            if self.variant.use_tcu {
                self.compute_tcu(ctx, ext_out, bid);
            } else {
                self.compute_cuda(ctx, ext_out, bid);
            }
        })?;
        Ok(())
    }

    fn scatter(&self, ctx: &mut BlockCtx, ext_in: BufferId, bid: usize) {
        self.declare_exempt(ctx);
        let p = &self.plan;
        let read0 = p.read_col0(bid);
        let mut gaddrs = [INACTIVE; 32];
        let mut vals = [0.0f64; 32];
        let mut a_addrs = [0usize; 32];
        let mut a_vals = [0.0f64; 32];
        let mut b_addrs = [0usize; 32];
        let mut b_vals = [0.0f64; 32];
        let mut i = 0usize;
        while i < p.span_aligned {
            let lanes = 32.min(p.span_aligned - i);
            for (l, a) in gaddrs.iter_mut().enumerate() {
                *a = if l < lanes { read0 + i + l } else { INACTIVE };
            }
            ctx.gmem_read_warp(ext_in, &gaddrs[..lanes], &mut vals[..lanes]);
            if self.variant.dirty_bits_lut {
                ctx.count_int(2 * lanes as u64);
            } else {
                ctx.count_divmod(2 * lanes as u64);
                ctx.count_branch(2 * lanes as u64);
                ctx.count_int(4 * lanes as u64);
            }
            let (mut na, mut nb) = (0usize, 0usize);
            for l in 0..lanes {
                let [a, b] = self.lut[i + l];
                if a != LUT_SKIP {
                    a_addrs[na] = a as usize;
                    a_vals[na] = vals[l];
                    na += 1;
                }
                if b != LUT_SKIP {
                    b_addrs[nb] = b as usize;
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
            i += lanes;
        }
    }

    fn stage_from_global(&self, ctx: &mut BlockCtx, bufs: (BufferId, BufferId), bid: usize) {
        self.declare_exempt(ctx);
        let p = &self.plan;
        let nk = p.nk;
        let g0 = bid * p.block_groups;
        // Read a contiguous span of both matrices and store rows into the
        // strided shared layout.
        let mut vals = vec![0.0f64; p.block_groups * nk];
        let mut addrs = [0usize; 32];
        let mut avals = [0.0f64; 32];
        for (buf, base_off) in [(bufs.0, p.a_off), (bufs.1, p.b_off)] {
            ctx.gmem_read_span_into(buf, g0 * nk, &mut vals);
            ctx.count_int(vals.len() as u64);
            let mut lane = 0usize;
            for g in 0..p.block_groups {
                for off in 0..nk {
                    addrs[lane] = base_off + g * p.stride + off;
                    avals[lane] = vals[g * nk + off];
                    lane += 1;
                    if lane == 32 {
                        ctx.smem_store(&addrs, &avals);
                        lane = 0;
                    }
                }
            }
            if lane > 0 {
                ctx.smem_store(&addrs[..lane], &avals[..lane]);
            }
        }
    }

    fn stage_weight_frags(&self, ctx: &mut BlockCtx) -> (Vec<FragB>, Vec<FragB>) {
        let p = &self.plan;
        let w = &self.weights;
        let mut addrs = [0usize; 32];
        for (off, data) in [(p.wa_off, &w.a), (p.wb_off, &w.b)] {
            let mut i = 0;
            while i < data.len() {
                let lanes = 32.min(data.len() - i);
                for (l, a) in addrs.iter_mut().enumerate().take(lanes) {
                    *a = off + i + l;
                }
                ctx.smem_store(&addrs[..lanes], &data[i..i + lanes]);
                i += lanes;
            }
        }
        let chunks = w.krows / 4;
        (
            (0..chunks)
                .map(|k| ctx.load_frag_b(p.wa_off + 4 * k * 8, 8))
                .collect(),
            (0..chunks)
                .map(|k| ctx.load_frag_b(p.wb_off + 4 * k * 8, 8))
                .collect(),
        )
    }

    fn compute_tcu(&self, ctx: &mut BlockCtx, ext_out: BufferId, bid: usize) {
        let p = &self.plan;
        let nk = p.nk;
        // Weight staging is shared-memory traffic: scatter phase.
        let (wa, wb) = self.stage_weight_frags(ctx);
        ctx.phase(Phase::Tessellation);
        let bands = p.block_groups / 8;
        // 1D plans cap n_k at 7, so a band's 8(nk+1) outputs fit 64 f64
        // of stack — no per-block heap buffer.
        let mut band_buf = [0.0f64; 64];
        let out_vals = &mut band_buf[..8 * (nk + 1)];
        for band in 0..bands {
            let mut acc = FragAcc::zero();
            let a_base = p.a_off + band * 8 * p.stride;
            for (k, f) in wa.iter().enumerate() {
                let frag = ctx.load_frag_a(a_base + 4 * k, p.stride);
                ctx.dmma(&frag, f, &mut acc);
            }
            let b_base = p.b_off + band * 8 * p.stride;
            for (k, f) in wb.iter().enumerate() {
                let frag = ctx.load_frag_a(b_base + 4 * k, p.stride);
                ctx.dmma(&frag, f, &mut acc);
            }
            for ga in 0..8 {
                for j in 0..=nk {
                    out_vals[ga * (nk + 1) + j] = acc.get(ga, j);
                }
            }
            let y0 = (bid * p.block_groups + band * 8) * (nk + 1);
            self.write_row(ctx, ext_out, y0, out_vals);
        }
    }

    fn compute_cuda(&self, ctx: &mut BlockCtx, ext_out: BufferId, bid: usize) {
        let p = &self.plan;
        ctx.phase(Phase::Tessellation);
        let out_width = p.block_groups * (p.nk + 1);
        let mut addrs = [0usize; 32];
        let mut vals = [0.0f64; 32];
        let mut sums = [0.0f64; 32];
        let mut yl0 = 0usize;
        while yl0 < out_width {
            let lanes = 32.min(out_width - yl0);
            sums[..lanes].fill(0.0);
            for &(ki, w) in &self.taps {
                for l in 0..lanes {
                    let (in_a, g, off) = self.colmap[yl0 + l + ki];
                    let base = if in_a { p.a_off } else { p.b_off };
                    addrs[l] = base + g * p.stride + off;
                }
                ctx.smem_load(&addrs[..lanes], &mut vals[..lanes]);
                ctx.count_fma(lanes as u64);
                ctx.count_int(lanes as u64);
                for l in 0..lanes {
                    sums[l] += w * vals[l];
                }
            }
            self.write_row(ctx, ext_out, bid * out_width + yl0, &sums[..lanes]);
            yl0 += lanes;
        }
    }

    fn write_row(&self, ctx: &mut BlockCtx, ext_out: BufferId, y0: usize, vals: &[f64]) {
        let prev = ctx.phase(Phase::Epilogue);
        let p = &self.plan;
        let mut addrs = [INACTIVE; 32];
        let mut i = 0usize;
        while i < vals.len() {
            let lanes = 32.min(vals.len() - i);
            let mut any = false;
            for l in 0..lanes {
                let y = y0 + i + l;
                addrs[l] = if y < p.n {
                    any = true;
                    p.lc + y
                } else {
                    INACTIVE
                };
            }
            if any {
                ctx.gmem_write_warp(ext_out, &addrs[..lanes], &vals[i..i + lanes]);
            }
            i += lanes;
        }
        ctx.phase(prev);
    }
}

/// Simulated periodic halo exchange on an extended 1D array.
pub fn try_halo_exchange_1d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan1D,
) -> Result<(), ConvStencilError> {
    let (n, r, lc) = (plan.n, plan.radius, plan.lc);
    if n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: n,
            radius: r,
        });
    }
    dev.set_write_hint(2 * r);
    dev.try_launch(1, 64, |_, ctx| {
        ctx.phase(Phase::HaloExchange);
        let mut vals = vec![0.0f64; r];
        ctx.gmem_read_span_into(ext, lc + n - r, &mut vals);
        ctx.gmem_write_span(ext, lc - r, &vals);
        ctx.gmem_read_span_into(ext, lc, &mut vals);
        ctx.gmem_write_span(ext, lc + n, &vals);
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{try_run_applications, D1};
    use stencil_core::reference::run1d;
    use stencil_core::{assert_close_default, fuse1d, Boundary, Grid1D};

    fn check(kernel: &Kernel1D, n: usize, apps: usize, variant: VariantConfig) {
        let mut grid = Grid1D::new(n, kernel.radius());
        grid.fill_random(8);
        let exec = Exec1D::new(kernel, n, variant);
        let mut dev = Device::a100();
        let ext0 = exec.plan.build_ext(&grid);
        let ext =
            try_run_applications::<D1>(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid1D::new(n, kernel.radius());
        exec.plan.extract_into(&ext, &mut got);
        let want = run1d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn heat1d_fused_matches_reference() {
        let fused = fuse1d(&Kernel1D::new(vec![0.25, 0.5, 0.25]), 3);
        check(&fused, 4096, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn oned5p_matches_reference() {
        let k = Kernel1D::new(vec![0.0625, 0.25, 0.375, 0.25, 0.0625]);
        check(&k, 3000, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn nk3_unfused_matches_reference() {
        check(
            &Kernel1D::new(vec![0.25, 0.5, 0.25]),
            1000,
            3,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn all_variants_agree_on_1d() {
        let kernel = fuse1d(&Kernel1D::new(vec![0.3, 0.4, 0.3]), 3);
        let n = 2048;
        let mut grid = Grid1D::new(n, kernel.radius());
        grid.fill_random(77);
        let want = run1d(&grid, &kernel, 1).interior();
        for (name, variant) in VariantConfig::breakdown() {
            let exec = Exec1D::new(&kernel, n, variant);
            let mut dev = Device::a100();
            let ext0 = exec.plan.build_ext(&grid);
            let ext =
                try_run_applications::<D1>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid1D::new(n, kernel.radius());
            exec.plan.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want);
            if variant.use_tcu {
                assert!(dev.counters.dmma_ops > 0, "{name}");
            }
        }
    }

    #[test]
    fn mma_count_is_2_ceil_nk_over_4_per_band() {
        let kernel = fuse1d(&Kernel1D::new(vec![0.25, 0.5, 0.25]), 3); // nk=7
        let n = 8192; // exactly 8 blocks of 128 groups
        let exec = Exec1D::new(&kernel, n, VariantConfig::conv_stencil());
        let mut dev = Device::a100();
        let grid = Grid1D::new(n, 3);
        let ext0 = exec.plan.build_ext(&grid);
        try_run_applications::<D1>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        // Bands = n / (8 * (nk+1)) = 128; each 2*ceil(7/4) = 4 MMAs.
        assert_eq!(dev.counters.dmma_ops, (8192 / 64) * 4);
    }

    #[test]
    fn block_covers_1024_outputs_at_nk7() {
        let plan = Plan1D::new(100_000, 7, VariantConfig::conv_stencil());
        assert_eq!(plan.block_groups * (plan.nk + 1), 1024);
    }
}
