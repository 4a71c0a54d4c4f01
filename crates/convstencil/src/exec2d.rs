//! The simulated 2D ConvStencil device pipeline.
//!
//! One *application* (one launch in the implicit variants, two in the
//! explicit variant I) advances the grid by one (possibly fused) kernel
//! step:
//!
//! 1. **Scatter** — each block reads its input tile from global memory
//!    with sector-aligned coalesced warp reads and builds the stencil2row
//!    A/B tiles in shared memory. Addressing goes through the
//!    host-precomputed LUT (variant V, branch-free, dirty elements dumped
//!    into the padding area) or through div/mod + conditional branches
//!    (variants I–IV).
//! 2. **Compute** — per output row, one dual tessellation per 8-group
//!    band: `2⌈n_k²/4⌉` `m8n8k4` MMAs against the register-resident weight
//!    fragments (loaded once per block). Variants I/II replace this with
//!    CUDA-core dot products over the same shared tiles.
//! 3. **Write-back** — each tessellation's `8(n_k+1)` contiguous outputs
//!    go to the extended output array with coalesced warp writes (lanes
//!    beyond column `n` masked).
//!
//! Variant I first materializes the full stencil2row matrices in global
//! memory with a separate transform kernel, then computes from them.
//!
//! The steps are written once in `block.rs` and shared with the 1D and
//! 3D pipelines; this file holds the 2D plan, the block decomposition and
//! the halo exchange.

use crate::block::{self, Block2D, Explicit, Source, Tiles};
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::WeightMatrices;
use stencil_core::Kernel2D;
use tcu_sim::{BufferId, Device, Phase};

/// Precompiled 2D executor: plan + LUT + weights for one kernel/problem.
#[derive(Debug, Clone)]
pub struct Exec2D {
    pub plan: Plan2D,
    pub variant: VariantConfig,
    pub weights: WeightMatrices,
    lut: ScatterLut,
    /// Non-zero kernel points `(kx, ky, w)` for the CUDA-core path.
    points: Vec<(usize, usize, f64)>,
    /// For the CUDA path: input column -> (in_a, group, offset) lookup.
    colmap: Vec<block::ColEntry>,
}

/// Scratch global buffers for the explicit variant.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitBuffers {
    pub s2r_a: BufferId,
    pub s2r_b: BufferId,
}

impl Exec2D {
    /// Build an executor for `kernel` on an `m x n` interior with the
    /// paper's 2D block shape. The kernel is used as-is (apply temporal
    /// fusion before constructing).
    pub fn try_new(
        kernel: &Kernel2D,
        m: usize,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let plan = Plan2D::try_new_2d(m, n, kernel.nk(), variant)?;
        Self::try_with_plan(kernel, plan, variant)
    }

    /// Build with an explicit plan (block-shape ablations).
    pub fn try_with_plan(
        kernel: &Kernel2D,
        plan: Plan2D,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        if plan.nk != kernel.nk() {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("plan n_k {} != kernel n_k {}", plan.nk, kernel.nk()),
            });
        }
        block::check_block_groups(plan.block_groups)?;
        let weights = WeightMatrices::from_kernel2d(kernel);
        let lut = plan.build_scatter_lut(variant);
        let nk = plan.nk;
        let mut points = Vec::new();
        for kx in 0..nk {
            for ky in 0..nk {
                let w = kernel.weight_tl(kx, ky);
                if w != 0.0 {
                    points.push((kx, ky, w));
                }
            }
        }
        let colmap = block::colmap(plan.span, nk, plan.block_groups);
        Ok(Self {
            plan,
            variant,
            weights,
            lut,
            points,
            colmap,
        })
    }

    /// Shared-memory f64 elements one block needs.
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

    /// Run the static plan verifier over this executor's layout, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(&self.plan, self.variant)?;
        verify_plan::verify_lut_2d(&self.plan, &self.lut, self.variant)?;
        verify_plan::verify_weights(&self.weights)
    }

    /// Allocate the explicit-variant scratch matrices (whole-problem
    /// stencil2row A/B in global memory).
    pub fn alloc_explicit(&self, dev: &mut Device) -> ExplicitBuffers {
        let (rows, cols) = Explicit::dims(&self.plan);
        ExplicitBuffers {
            s2r_a: dev.alloc(rows * cols),
            s2r_b: dev.alloc(rows * cols),
        }
    }

    /// Run one application: read `ext_in`, write interior rows of
    /// `ext_out`. `explicit` must be `Some` iff the variant is explicit;
    /// in variant I a transform kernel first builds the full stencil2row
    /// matrices in global memory. Scratch misuse and device launch faults
    /// surface as errors.
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let explicit = block::check_scratch(self.variant, explicit)?.map(|b| {
            let (rows, cols) = Explicit::dims(p);
            Explicit {
                bufs: [b.s2r_a, b.s2r_b],
                rows,
                cols,
            }
        });
        if let Some(ex) = explicit {
            block::run_transform(dev, ext_in, p, 1, ex)?;
        }
        let tiles = Tiles::of(&p.layout, 0);
        dev.set_write_hint(p.block_rows * p.block_groups * (p.nk + 1));
        dev.try_launch(p.num_blocks(), self.shared_len(), |bid, ctx| {
            let blk = Block2D::new(p, bid);
            ctx.phase(Phase::SmemScatter);
            let src = match explicit {
                Some(ex) => Source::Explicit(ex, 0),
                None => Source::Input(ext_in, 0),
            };
            block::stage_tiles(ctx, p, &self.lut, self.variant, src, 0, blk);
            let out = blk.out(p, ext_out, 0);
            if self.variant.use_tcu {
                let w_off = p.layout.wa_off;
                block::compute_tcu(ctx, &tiles, &self.weights, w_off, blk.rows, &out);
            } else {
                let (map, pts) = (&self.colmap, &self.points);
                block::compute_cuda(ctx, &tiles, map, pts, p.nk, blk.rows, &out);
            }
        })?;
        Ok(())
    }
}

/// Simulated periodic halo exchange on an extended 2D array: two device
/// kernels (column wrap within interior rows, then full-row wrap so the
/// corners inherit the wrapped columns). Counted like any other kernel —
/// periodic codes pay their exchange.
pub fn try_halo_exchange_2d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan2D,
) -> Result<(), ConvStencilError> {
    let (m, n, r) = (plan.m, plan.n, plan.radius);
    if m < r || n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: m.min(n),
            radius: r,
        });
    }
    let (lr, lc, cols) = (plan.lr, plan.lc, plan.ext_cols);
    // Kernel 1: column wrap for every interior row.
    let rows_per_block = 64usize;
    dev.set_write_hint(rows_per_block * 2 * r);
    dev.try_launch(m.div_ceil(rows_per_block), 64, |bid, ctx| {
        ctx.phase(Phase::HaloExchange);
        let x0 = bid * rows_per_block;
        let x1 = (x0 + rows_per_block).min(m);
        let mut left = vec![0.0f64; r];
        let mut right = vec![0.0f64; r];
        for x in x0..x1 {
            let row = (x + lr) * cols;
            ctx.gmem_read_span_into(ext, row + lc + n - r, &mut left);
            ctx.gmem_write_span(ext, row + lc - r, &left);
            ctx.gmem_read_span_into(ext, row + lc, &mut right);
            ctx.gmem_write_span(ext, row + lc + n, &right);
        }
    })?;
    // Kernel 2: full-row wrap for the r halo rows on each side (one block
    // per wrapped row pair).
    dev.set_write_hint(2 * cols);
    dev.try_launch(r, 64, |bid, ctx| {
        ctx.phase(Phase::HaloExchange);
        let i = bid;
        let mut vals = vec![0.0f64; cols];
        // Top halo ext row i <- ext row m + i.
        ctx.gmem_read_span_into(ext, (m + i) * cols, &mut vals);
        ctx.gmem_write_span(ext, i * cols, &vals);
        // Bottom halo ext row lr + m + i <- ext row lr + i.
        ctx.gmem_read_span_into(ext, (lr + i) * cols, &mut vals);
        ctx.gmem_write_span(ext, (lr + m + i) * cols, &vals);
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{try_run_applications, D2};
    use stencil_core::reference::run2d;
    use stencil_core::{assert_close_default, fuse2d, Boundary, Grid2D, Kernel2D};

    fn check_variant(kernel: &Kernel2D, m: usize, n: usize, apps: usize, variant: VariantConfig) {
        let mut grid = Grid2D::new(m, n, kernel.radius());
        grid.fill_random(42);
        let exec = Exec2D::try_new(kernel, m, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        let ext =
            try_run_applications::<D2>(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid2D::new(m, n, kernel.radius());
        exec.plan.extract_into(&ext, &mut got);
        let want = run2d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn full_variant_box49_matches_reference() {
        check_variant(
            &Kernel2D::box_uniform(3),
            64,
            130,
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn full_variant_heat2d_unfused_matches_reference() {
        check_variant(
            &Kernel2D::star(0.5, &[0.125]),
            70,
            96,
            3,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn full_variant_heat2d_fused_matches_fused_reference() {
        let fused = fuse2d(&Kernel2D::star(0.5, &[0.125]), 3);
        check_variant(&fused, 48, 80, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn full_variant_nk5_matches_reference() {
        check_variant(
            &Kernel2D::box_uniform(2),
            40,
            100,
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn all_breakdown_variants_agree_numerically() {
        let kernel = fuse2d(&Kernel2D::box_uniform(1), 3); // fused Box-2D9P
        let (m, n) = (40, 72);
        let mut grid = Grid2D::new(m, n, kernel.radius());
        grid.fill_random(7);
        let want = run2d(&grid, &kernel, 1).interior();
        for (name, variant) in VariantConfig::breakdown() {
            let exec = Exec2D::try_new(&kernel, m, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            let ext =
                try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid2D::new(m, n, kernel.radius());
            exec.plan.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want);
            // Sanity on the ledgers.
            if variant.use_tcu {
                assert!(dev.counters.dmma_ops > 0, "{name}: no MMAs issued");
            } else {
                assert!(dev.counters.cuda_fma_ops > 0, "{name}: no FMAs issued");
                assert_eq!(dev.counters.dmma_ops, 0, "{name}");
            }
            if variant.explicit_global {
                assert_eq!(dev.launch_stats.kernel_launches, 2, "{name}");
            } else {
                assert_eq!(dev.launch_stats.kernel_launches, 1, "{name}");
            }
        }
    }

    #[test]
    fn mma_count_matches_eq13() {
        // Divisible geometry: m multiple of 32, n multiple of 8(nk+1).
        let kernel = Kernel2D::box_uniform(3);
        let (m, n) = (64, 128);
        let exec = Exec2D::try_new(&kernel, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid2D::new(m, n, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        let expect = crate::model::convstencil_mma_count(m, n, 7);
        assert_eq!(dev.counters.dmma_ops, expect);
    }

    #[test]
    fn padding_removes_load_bank_conflicts() {
        let kernel = Kernel2D::box_uniform(3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let mut grid = Grid2D::new(64, 128, 3);
            grid.fill_random(3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let unpadded = run(VariantConfig::implicit_tcu());
        let padded = run(VariantConfig::implicit_tcu_padded());
        assert!(
            unpadded.load_bank_conflicts_per_request() > 0.2,
            "unpadded BC/R = {}",
            unpadded.load_bank_conflicts_per_request()
        );
        assert!(
            padded.load_bank_conflicts_per_request() < 0.05,
            "padded BC/R = {}",
            padded.load_bank_conflicts_per_request()
        );
    }

    #[test]
    fn lut_variant_eliminates_divmod_and_branches() {
        let kernel = Kernel2D::box_uniform(3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let grid = Grid2D::new(64, 128, 3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let iv = run(VariantConfig::implicit_tcu_padded());
        let v = run(VariantConfig::conv_stencil());
        assert!(iv.int_divmod_ops > 0 && iv.branch_ops > 0);
        assert_eq!(v.int_divmod_ops, 0);
        assert_eq!(v.branch_ops, 0);
    }

    #[test]
    fn global_reads_are_coalesced() {
        let kernel = Kernel2D::box_uniform(3);
        let exec = Exec2D::try_new(&kernel, 64, 128, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid2D::new(64, 128, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        let uga = dev.counters.uncoalesced_global_access_pct();
        assert!(uga < 5.0, "UGA = {uga}%");
    }

    #[test]
    fn explicit_variant_pays_global_traffic() {
        let kernel = fuse2d(&Kernel2D::box_uniform(1), 3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let grid = Grid2D::new(64, 128, 3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_applications::<D2>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let explicit = run(VariantConfig::explicit_cuda());
        let implicit = run(VariantConfig::implicit_cuda());
        let gbytes = |c: &tcu_sim::Counters| c.global_read_bytes + c.global_write_bytes;
        assert!(
            gbytes(&explicit) as f64 > 2.0 * gbytes(&implicit) as f64,
            "explicit {} vs implicit {}",
            gbytes(&explicit),
            gbytes(&implicit)
        );
    }
}
