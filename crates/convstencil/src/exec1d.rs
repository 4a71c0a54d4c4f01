//! The simulated 1D ConvStencil pipeline (paper §4.1).
//!
//! The stencil2row matrices shrink to `⌈n/(n_k+1)⌉` rows of `n_k` columns;
//! the computation is otherwise identical to 2D: dual tessellations over
//! 8-group bands, `2⌈n_k/4⌉` MMAs each, producing `8(n_k+1)` contiguous
//! outputs. One thread block covers 1024 outputs (Table 4's 1D block
//! size) — 128 groups for `n_k = 7`.
//!
//! A 1D block is a 2D block with one input row. Its plan is the one-row
//! [`Plan2D`], with the layout, scatter-LUT builder and static verifier
//! of 2D, and it runs the scatter, tessellation and write-back of
//! `block.rs`. Only the variant-I transform and explicit staging stay
//! here, because their warps differ.

use crate::block::{self, Block2D, Explicit, Tiles};
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::WeightMatrices;
use stencil_core::Kernel1D;
use tcu_sim::{BlockCtx, BufferId, Device, Phase, INACTIVE};

/// Precompiled 1D executor: the one-row plan, its scatter LUT and the
/// weights.
#[derive(Debug, Clone)]
pub struct Exec1D {
    /// The 1D plan: the [`Plan2D`] of one row (see
    /// [`Plan2D::try_new_1d`]).
    pub plan: Plan2D,
    pub variant: VariantConfig,
    pub weights: WeightMatrices,
    /// One tile row: `(A shared address, B shared address)` per aligned
    /// read lane.
    lut: ScatterLut,
    /// Non-zero kernel taps `(0, k, w)` for the CUDA-core path.
    taps: Vec<(usize, usize, f64)>,
    /// Input column -> (in_a, group, offset).
    colmap: Vec<block::ColEntry>,
}

impl Exec1D {
    /// Build an executor for `kernel` on `n` outputs. The kernel is used
    /// as-is (apply temporal fusion before constructing).
    pub fn try_new(
        kernel: &Kernel1D,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let plan = Plan2D::try_new_1d(n, kernel.nk(), variant)?;
        block::check_block_groups(plan.block_groups)?;
        let weights = WeightMatrices::from_kernel1d(kernel);
        let lut = plan.build_scatter_lut(variant);
        let taps = kernel
            .weights()
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0.0)
            .map(|(i, &w)| (0, i, w))
            .collect();
        let colmap = block::colmap(plan.span, plan.nk, plan.block_groups);
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
        self.plan.layout.total
    }

    /// Read access to the scatter lookup table.
    pub fn lut(&self) -> &ScatterLut {
        &self.lut
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut ScatterLut {
        &mut self.lut
    }

    /// Run the static plan verifier over this executor's plan, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(&self.plan, self.variant)?;
        verify_plan::verify_lut_2d(&self.plan, &self.lut, self.variant)?;
        verify_plan::verify_weights(&self.weights)
    }

    /// One application: read `ext_in`, write interior of `ext_out`.
    ///
    /// The explicit variant (I) materializes the stencil2row matrices in
    /// global scratch first; pass buffers from [`Exec1D::alloc_explicit`],
    /// and `None` for every other variant.
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<(BufferId, BufferId)>,
    ) -> Result<(), ConvStencilError> {
        let explicit = block::check_scratch(self.variant, explicit)?;
        if let Some(bufs) = explicit {
            self.run_transform(dev, ext_in, bufs)?;
        }
        let p = &self.plan;
        let tiles = Tiles::of(&p.layout, 0);
        dev.set_write_hint(p.block_groups * (p.nk + 1));
        dev.try_launch(p.num_blocks(), self.shared_len(), |bid, ctx| {
            ctx.phase(Phase::SmemScatter);
            block::exempt_padding(ctx, &tiles, p.layout.raw_cols);
            match explicit {
                Some(bufs) => self.stage_from_global(ctx, bufs, bid),
                None => {
                    let (lut, lut_mode) = (self.lut.row(0), self.variant.dirty_bits_lut);
                    block::scatter_row(ctx, ext_in, p.read_col0(bid), lut, 0, lut_mode);
                }
            }
            let out = Block2D::new(p, bid).out(p, ext_out, 0);
            if self.variant.use_tcu {
                block::compute_tcu(ctx, &tiles, &self.weights, p.layout.wa_off, 1, &out);
            } else {
                block::compute_cuda(ctx, &tiles, &self.colmap, &self.taps, p.nk, 1, &out);
            }
        })?;
        Ok(())
    }

    pub fn alloc_explicit(&self, dev: &mut Device) -> (BufferId, BufferId) {
        let (rows, cols) = Explicit::dims(&self.plan);
        (dev.alloc(rows * cols), dev.alloc(rows * cols))
    }

    /// Variant-I transform. It stays 1D-specific: a 1D stencil2row row is
    /// one group of `n_k` contiguous inputs, so the addressing and the
    /// 4096-element chunks differ from the 2D/3D transform.
    fn run_transform(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: (BufferId, BufferId),
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let nk = p.nk;
        let (rows, _) = Explicit::dims(p);
        let chunk = 4096usize;
        let num_blocks = p.ext_cols.div_ceil(chunk);
        let first = p.lc - p.radius;
        dev.set_write_hint(2 * chunk);
        dev.try_launch(num_blocks, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let c0 = bid * chunk;
            let c1 = (c0 + chunk).min(p.ext_cols);
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

    /// Variant-I staging. It stays 1D-specific: the block's group rows
    /// are one contiguous global span, so its 32-lane stores pack lanes
    /// across group-row boundaries, unlike the per-row 2D/3D copy.
    fn stage_from_global(&self, ctx: &mut BlockCtx, bufs: (BufferId, BufferId), bid: usize) {
        let p = &self.plan;
        let nk = p.nk;
        let g0 = bid * p.block_groups;
        let mut vals = vec![0.0f64; p.block_groups * nk];
        let mut addrs = [0usize; 32];
        let mut avals = [0.0f64; 32];
        let lay = &p.layout;
        for (buf, base_off) in [(bufs.0, lay.a_off), (bufs.1, lay.b_off)] {
            ctx.gmem_read_span_into(buf, g0 * nk, &mut vals);
            ctx.count_int(vals.len() as u64);
            let mut lane = 0usize;
            for g in 0..p.block_groups {
                for off in 0..nk {
                    addrs[lane] = base_off + g * lay.stride + off;
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
}

/// Simulated periodic halo exchange on an extended 1D array.
pub fn try_halo_exchange_1d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan2D,
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
    use crate::api::ConvStencil1D;
    use crate::dim::{try_run_applications, D1};
    use stencil_core::reference::run1d;
    use stencil_core::{assert_close_default, fuse1d, Boundary, Grid1D, Shape};

    fn check(kernel: &Kernel1D, n: usize, apps: usize, variant: VariantConfig) {
        let mut grid = Grid1D::new(n, kernel.radius());
        grid.fill_random(8);
        let exec = Exec1D::try_new(kernel, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
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
            let exec = Exec1D::try_new(&kernel, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
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
        let exec = Exec1D::try_new(&kernel, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid1D::new(n, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_applications::<D1>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        // Bands = n / (8 * (nk+1)) = 128; each 2*ceil(7/4) = 4 MMAs.
        assert_eq!(dev.counters.dmma_ops, (8192 / 64) * 4);
    }

    #[test]
    fn scratch_must_match_the_variant() {
        let kernel = Kernel1D::new(vec![0.25, 0.5, 0.25]);
        let mut dev = Device::a100();
        let ext = dev.alloc(4096);
        let implicit = Exec1D::try_new(&kernel, 1000, VariantConfig::conv_stencil()).unwrap();
        let scratch = implicit.alloc_explicit(&mut dev);
        assert_eq!(
            implicit.try_run_application(&mut dev, ext, ext, Some(scratch)),
            Err(ConvStencilError::ScratchMismatch { expected: false })
        );
        let explicit = Exec1D::try_new(&kernel, 1000, VariantConfig::explicit_cuda()).unwrap();
        assert_eq!(
            explicit.try_run_application(&mut dev, ext, ext, None),
            Err(ConvStencilError::ScratchMismatch { expected: true })
        );
        assert_eq!(dev.launch_stats.kernel_launches, 0);
    }

    #[test]
    fn block_covers_1024_outputs_at_nk7() {
        let plan = Plan2D::try_new_1d(100_000, 7, VariantConfig::conv_stencil()).unwrap();
        assert_eq!(plan.block_groups * (plan.nk + 1), 1024);
        assert_eq!((plan.m, plan.block_rows, plan.tile_rows()), (1, 1, 1));
        assert_eq!(
            (plan.ext_rows, plan.lr, plan.layout.raw_cols, plan.krows),
            (1, 0, 7, 8)
        );
    }

    #[test]
    fn dirty_bits_without_padding_is_rejected_before_launch() {
        // Without padding the dirty slots would alias the next group row:
        // the plan rejects the variant before any launch, as in 2D and 3D.
        let variant = VariantConfig {
            dirty_bits_lut: true,
            padding: false,
            explicit_global: false,
            use_tcu: true,
        };
        let heat = Shape::Heat1D.kernel1d().unwrap();
        assert!(matches!(
            Exec1D::try_new(&heat, 4096, variant),
            Err(ConvStencilError::PlanInvariant { .. })
        ));
        let runner = ConvStencil1D::new(heat).with_variant(variant);
        let mut grid = Grid1D::new(4096, runner.fused_kernel().radius());
        grid.fill_random(5);
        assert!(matches!(
            runner.try_run(&grid, 3),
            Err(ConvStencilError::PlanInvariant { .. })
        ));
        let mut dev = runner.pool_device(None);
        assert!(matches!(
            runner.try_run_on_device(&mut dev, &grid, 3),
            Err(ConvStencilError::PlanInvariant { .. })
        ));
        assert_eq!(dev.launch_stats.kernel_launches, 0);
    }
}
