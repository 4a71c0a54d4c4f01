//! The simulated 3D ConvStencil pipeline (paper §4.2).
//!
//! A 3D stencil decomposes into `n_k` 2D stencils — one per z-plane of the
//! kernel — whose results are summed. Each thread block covers one output
//! plane band (8 output rows x 64 output columns, Table 4's 8x64 block),
//! builds the stencil2row tiles of all `n_k` input planes in shared
//! memory, and accumulates the per-plane dual tessellations in the same
//! MMA accumulator (one fragment store per output, not one per plane).
//!
//! For star-shaped 3D kernels the off-center planes contain a single
//! non-zero weight; per §4.2 those "small planes" are computed on the
//! simulated CUDA cores and added to the Tensor-Core result, while the
//! dense center plane goes through dual tessellation.
//!
//! Staging, weight fragments, the tessellation band and the write-back are
//! the 2D steps of `block.rs`, applied per plane slot (3D only adds a
//! plane offset); this file holds the z-window and the hybrid planes.

use crate::block::{self, Block2D, Explicit, Source, Tiles, WeightFrags};
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::WeightMatrices;
use stencil_core::{Grid3D, Kernel3D};
use tcu_sim::{BlockCtx, BufferId, Device, FragAcc, Phase};

/// How one kernel plane is computed.
#[derive(Debug, Clone)]
enum PlaneKind {
    /// All-zero plane: skipped entirely.
    Empty,
    /// Small plane (§4.2): CUDA-core taps `(kx, ky, w)`.
    Scalar(Vec<(usize, usize, f64)>),
    /// Dense plane: dual tessellation with these weight matrices.
    Mma(WeightMatrices),
}

/// Planes with at most this many non-zero taps run on CUDA cores (§4.2's
/// small planes).
const SCALAR_PLANE_THRESHOLD: usize = 2;

/// Precompiled 3D executor.
#[derive(Debug, Clone)]
pub struct Exec3D {
    /// Per-plane 2D plan (block shape 8 x 64).
    pub plane_plan: Plan2D,
    pub variant: VariantConfig,
    pub d: usize,
    pub nk: usize,
    pub radius: usize,
    planes: Vec<PlaneKind>,
    lut: ScatterLut,
    /// Output planes per block (z-sliding window; each block stages
    /// `bz + n_k - 1` input-plane tile pairs and reuses them across its
    /// `bz` output planes, so global reads stay ~1x instead of n_k x).
    pub bz: usize,
    /// Offset of input-plane slot `s`'s tile pair in shared memory
    /// (`bz + n_k - 1` slots).
    slot_off: Vec<usize>,
    /// Offset of plane `dz`'s weight matrices (MMA planes only).
    weight_off: Vec<usize>,
    shared_total: usize,
    /// Input column -> (in_a, group, offset) for the scalar path.
    colmap: Vec<block::ColEntry>,
}

/// Global scratch for the explicit (variant I) 3D pipeline: the
/// stencil2row matrices of every extended input plane.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitBuffers3D {
    pub s2r_a: BufferId,
    pub s2r_b: BufferId,
    /// Rows per plane section.
    pub rows: usize,
    /// Columns of each matrix.
    pub cols: usize,
}

impl Exec3D {
    /// Build an executor for `kernel` on a `d x m x n` interior.
    pub fn try_new(
        kernel: &Kernel3D,
        d: usize,
        m: usize,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let nk = kernel.nk();
        let radius = kernel.radius();
        if d == 0 {
            return Err(ConvStencilError::ZeroSizedGrid {
                dims: vec![d, m, n],
            });
        }
        let plane_plan = Plan2D::try_new_3d_plane(m, n, nk, variant)?;
        block::check_block_groups(plane_plan.block_groups)?;
        let lut = plane_plan.build_scatter_lut(variant);
        let mut planes = Vec::with_capacity(nk);
        for dz in 0..nk {
            let pk = kernel.plane(dz as isize - radius as isize);
            let pts = pk.points();
            if pts == 0 {
                planes.push(PlaneKind::Empty);
            } else if pts <= SCALAR_PLANE_THRESHOLD || !variant.use_tcu {
                let mut taps = Vec::with_capacity(pts);
                for kx in 0..nk {
                    for ky in 0..nk {
                        let w = pk.weight_tl(kx, ky);
                        if w != 0.0 {
                            taps.push((kx, ky, w));
                        }
                    }
                }
                planes.push(PlaneKind::Scalar(taps));
            } else {
                planes.push(PlaneKind::Mma(WeightMatrices::from_kernel2d(&pk)));
            }
        }
        // Shared layout: one tile pair per input-plane slot of the
        // z-sliding window, then weight regions for the MMA planes.
        // Choose the largest bz <= 8 whose slots fit the 164 KiB budget.
        let tile_pair = 2 * plane_plan.layout.b_off; // a tile + b tile
        let weights_total: usize = planes
            .iter()
            .filter_map(|p| match p {
                PlaneKind::Mma(w) => Some(2 * w.krows * 8),
                _ => None,
            })
            .sum();
        let capacity = 164 * 1024 / 8;
        let bz = (1..=8usize)
            .rev()
            .find(|bz| (bz + nk - 1) * tile_pair + weights_total <= capacity)
            .ok_or_else(|| ConvStencilError::PlanInvariant {
                reason: "even a single-plane window exceeds shared memory".to_string(),
            })?;
        let slots = bz + nk - 1;
        let mut slot_off = Vec::with_capacity(slots);
        let mut cursor = 0usize;
        for _ in 0..slots {
            slot_off.push(cursor);
            cursor += tile_pair;
        }
        let mut weight_off = vec![usize::MAX; nk];
        for (dz, p) in planes.iter().enumerate() {
            if let PlaneKind::Mma(w) = p {
                weight_off[dz] = cursor;
                cursor += 2 * w.krows * 8;
            }
        }
        let shared_total = cursor.max(64);
        // Scalar-path column map (same for every plane).
        let colmap = block::colmap(plane_plan.span, nk, plane_plan.block_groups);
        Ok(Self {
            plane_plan,
            variant,
            d,
            nk,
            radius,
            planes,
            lut,
            bz,
            slot_off,
            weight_off,
            shared_total,
            colmap,
        })
    }

    pub fn shared_len(&self) -> usize {
        self.shared_total
    }

    /// Read access to the shared per-plane scatter lookup table.
    pub fn lut(&self) -> &ScatterLut {
        &self.lut
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut ScatterLut {
        &mut self.lut
    }

    /// Run the static plan verifier over the plane plan, the shared
    /// scatter lookup table, and every MMA plane's weight matrices (see
    /// [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(&self.plane_plan, self.variant)?;
        verify_plan::verify_lut_2d(&self.plane_plan, &self.lut, self.variant)?;
        for p in &self.planes {
            if let PlaneKind::Mma(w) = p {
                verify_plan::verify_weights(w)?;
            }
        }
        Ok(())
    }

    /// Allocate variant-I scratch: per-plane stencil2row matrices in
    /// global memory.
    pub fn alloc_explicit(&self, dev: &mut Device) -> ExplicitBuffers3D {
        let (rows, cols) = Explicit::dims(&self.plane_plan);
        let len = self.ext_planes() * rows * cols;
        ExplicitBuffers3D {
            s2r_a: dev.alloc(len),
            s2r_b: dev.alloc(len),
            rows,
            cols,
        }
    }

    /// Extended-array planes (input window depth).
    pub fn ext_planes(&self) -> usize {
        self.d + self.nk - 1
    }

    /// Size of one extended plane in f64.
    pub fn plane_size(&self) -> usize {
        self.plane_plan.ext_rows * self.plane_plan.ext_cols
    }

    /// Build the 3D extended array from a grid.
    pub fn try_build_ext(&self, grid: &Grid3D) -> Result<Vec<f64>, ConvStencilError> {
        if (grid.depth(), grid.rows(), grid.cols())
            != (self.d, self.plane_plan.m, self.plane_plan.n)
        {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.d, self.plane_plan.m, self.plane_plan.n],
                got: vec![grid.depth(), grid.rows(), grid.cols()],
            });
        }
        let h = grid.halo();
        if h < self.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.radius,
            });
        }
        let mut ext = vec![0.0; self.ext_planes() * self.plane_size()];
        for p in 0..self.ext_planes() {
            let pz = p + h - self.radius;
            if pz >= grid.padded_depth() {
                continue;
            }
            let plane2d = grid.padded_plane_as_grid2d(pz);
            let plane_ext = self.plane_plan.try_build_ext(&plane2d)?;
            ext[p * self.plane_size()..(p + 1) * self.plane_size()].copy_from_slice(&plane_ext);
        }
        Ok(ext)
    }

    /// Extract the interior into `grid`.
    pub fn extract_into(&self, ext: &[f64], grid: &mut Grid3D) {
        let ps = self.plane_size();
        for z in 0..self.d {
            let plane = &ext[(z + self.radius) * ps..(z + self.radius + 1) * ps];
            for x in 0..self.plane_plan.m {
                for y in 0..self.plane_plan.n {
                    grid.set(z, x, y, plane[self.plane_plan.ext_idx(x, y)]);
                }
            }
        }
    }

    /// One application: read `ext_in`, write interior planes of `ext_out`.
    /// `explicit` must be `Some` iff the variant is explicit (variant I).
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers3D>,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plane_plan;
        let explicit = block::check_scratch(self.variant, explicit)?.map(|b| Explicit {
            bufs: [b.s2r_a, b.s2r_b],
            rows: b.rows,
            cols: b.cols,
        });
        if let Some(ex) = explicit {
            block::run_transform(dev, ext_in, p, self.ext_planes(), ex)?;
        }
        let blocks_per_plane = p.num_blocks();
        let num_blocks = self.d.div_ceil(self.bz) * blocks_per_plane;
        dev.set_write_hint(self.bz * p.block_rows * p.block_groups * (p.nk + 1));
        dev.try_launch(num_blocks, self.shared_len(), |bid, ctx| {
            let blk = Block2D::new(p, bid % blocks_per_plane);
            let z0 = bid / blocks_per_plane * self.bz;
            let planes_here = self.bz.min(self.d - z0);
            ctx.phase(Phase::SmemScatter);
            // Stage the z-window's input planes once; every output plane
            // of the block reuses them.
            for slot in 0..planes_here + self.nk - 1 {
                let src = match explicit {
                    Some(ex) => Source::Explicit(ex, z0 + slot),
                    None => Source::Input(ext_in, z0 + slot),
                };
                let base = self.slot_off[slot];
                block::stage_tiles(ctx, p, &self.lut, self.variant, src, base, blk);
            }
            // Stage weight fragments for the MMA planes (once per block).
            let mut frags: Vec<(usize, WeightFrags)> = Vec::new();
            for dz in 0..self.nk {
                if let PlaneKind::Mma(w) = &self.planes[dz] {
                    frags.push((dz, block::stage_weights(ctx, w, self.weight_off[dz])));
                }
            }
            ctx.phase(Phase::Tessellation);
            for z_local in 0..planes_here {
                let out = blk.out(p, ext_out, z0 + z_local + self.radius);
                self.compute(ctx, &out, z_local, blk.rows, &frags);
            }
        })?;
        Ok(())
    }

    /// Tiles of input-plane slot `slot` of the z-window.
    fn slot(&self, slot: usize) -> Tiles {
        Tiles::of(&self.plane_plan.layout, self.slot_off[slot])
    }

    /// Compute one output plane of a block: per row and 8-group band, the
    /// MMA planes' dual tessellations accumulate in one fragment (one
    /// store per output, not one per plane), then the scalar planes'
    /// CUDA-core taps are added to the unpacked band (§4.2 hybrid) before
    /// it is written back. The scalar taps issue 32-lane warps over each
    /// band, not over the whole block row as the 2D CUDA-core path does.
    fn compute(
        &self,
        ctx: &mut BlockCtx,
        out: &block::Out,
        z_local: usize,
        rows: usize,
        frags: &[(usize, WeightFrags)],
    ) {
        let p = &self.plane_plan;
        let nk = self.nk;
        let stride = p.layout.stride;
        let mut band_buf = [0.0f64; block::MAX_BAND_F64];
        let band_vals = &mut band_buf[..8 * (nk + 1)];
        for xr in 0..rows {
            for band in 0..p.block_groups / 8 {
                let mut acc = FragAcc::zero();
                for (dz, f) in frags {
                    let tiles = self.slot(z_local + dz);
                    block::tessellate(ctx, &tiles, band * 8 * stride + nk * xr, f, &mut acc);
                }
                block::unpack_band(&acc, nk, band_vals);
                let yband = band * 8 * (nk + 1);
                for (dz, plane) in self.planes.iter().enumerate() {
                    let PlaneKind::Scalar(taps) = plane else {
                        continue;
                    };
                    let tiles = self.slot(z_local + dz);
                    for &(kx, ky, w) in taps {
                        for (k, chunk) in band_vals.chunks_mut(32).enumerate() {
                            let c0 = yband + 32 * k + ky;
                            block::tap_warp(
                                ctx,
                                &tiles,
                                &self.colmap,
                                nk * (xr + kx),
                                c0,
                                w,
                                chunk,
                            );
                        }
                    }
                }
                block::write_back(ctx, out, xr, yband, band_vals);
            }
        }
    }
}

/// Simulated periodic halo exchange on an extended 3D array: column wrap,
/// row wrap (per interior plane), then full-plane wrap so the halo planes
/// inherit fully wrapped contents.
pub fn try_halo_exchange_3d(
    dev: &mut Device,
    ext: BufferId,
    exec: &Exec3D,
) -> Result<(), ConvStencilError> {
    let p = &exec.plane_plan;
    let (d, m, n, r) = (exec.d, p.m, p.n, exec.radius);
    if d < r || m < r || n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: d.min(m).min(n),
            radius: r,
        });
    }
    let (lr, lc, cols) = (p.lr, p.lc, p.ext_cols);
    let ps = exec.plane_size();
    // Kernel 1: column wrap for every interior (plane, row). Writes are
    // buffered into the launch arena at push time, so one scratch vec can
    // carry both sides of each row.
    dev.set_write_hint(m * 2 * r);
    dev.try_launch(d, 64, |z, ctx| {
        ctx.phase(Phase::HaloExchange);
        let base = (z + r) * ps;
        let mut vals = vec![0.0f64; r];
        for x in 0..m {
            let row = base + (x + lr) * cols;
            ctx.gmem_read_span_into(ext, row + lc + n - r, &mut vals);
            ctx.gmem_write_span(ext, row + lc - r, &vals);
            ctx.gmem_read_span_into(ext, row + lc, &mut vals);
            ctx.gmem_write_span(ext, row + lc + n, &vals);
        }
    })?;
    // Kernel 2: row wrap within each interior plane.
    dev.set_write_hint(2 * r * cols);
    dev.try_launch(d, 64, |z, ctx| {
        ctx.phase(Phase::HaloExchange);
        let base = (z + r) * ps;
        let mut vals = vec![0.0f64; cols];
        for i in 0..r {
            ctx.gmem_read_span_into(ext, base + (m + i) * cols, &mut vals);
            ctx.gmem_write_span(ext, base + i * cols, &vals);
            ctx.gmem_read_span_into(ext, base + (lr + i) * cols, &mut vals);
            ctx.gmem_write_span(ext, base + (lr + m + i) * cols, &vals);
        }
    })?;
    // Kernel 3: full-plane wrap.
    dev.set_write_hint(2 * ps);
    dev.try_launch(r, 64, |i, ctx| {
        ctx.phase(Phase::HaloExchange);
        let mut vals = vec![0.0f64; ps];
        ctx.gmem_read_span_into(ext, (d + i) * ps, &mut vals);
        ctx.gmem_write_span(ext, i * ps, &vals);
        ctx.gmem_read_span_into(ext, (r + i) * ps, &mut vals);
        ctx.gmem_write_span(ext, (r + d + i) * ps, &vals);
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{try_run_applications, D3};
    use stencil_core::reference::run3d;
    use stencil_core::{assert_close_default, Boundary, Kernel3D};

    fn check(kernel: &Kernel3D, dims: (usize, usize, usize), apps: usize, variant: VariantConfig) {
        let (d, m, n) = dims;
        let mut grid = Grid3D::new(d, m, n, kernel.radius());
        grid.fill_random(5);
        let exec = Exec3D::try_new(kernel, d, m, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.try_build_ext(&grid).unwrap();
        let ext =
            try_run_applications::<D3>(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid3D::new(d, m, n, kernel.radius());
        exec.extract_into(&ext, &mut got);
        let want = run3d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn box3d27p_matches_reference() {
        check(
            &Kernel3D::box_uniform(1),
            (12, 20, 40),
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn heat3d_star_matches_reference_with_hybrid_planes() {
        let k = Kernel3D::star(0.4, &[0.1]);
        check(&k, (10, 16, 70), 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn heat3d_uses_both_tcu_and_cuda_paths() {
        // §4.2: small planes on CUDA cores, the center plane on TCUs.
        let k = Kernel3D::star(0.4, &[0.1]);
        let exec = Exec3D::try_new(&k, 8, 8, 64, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid3D::new(8, 8, 64, 1);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        try_run_applications::<D3>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        assert!(dev.counters.dmma_ops > 0, "center plane must use MMAs");
        assert!(
            dev.counters.cuda_fma_ops > 0,
            "small planes must use CUDA cores"
        );
    }

    #[test]
    fn box3d_mma_count_is_three_planes_of_2d() {
        let k = Kernel3D::box_uniform(1); // nk = 3
        let (d, m, n) = (8, 16, 64); // divisible by block 8 x 64
        let exec = Exec3D::try_new(&k, d, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid3D::new(d, m, n, 1);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        try_run_applications::<D3>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        // Per output plane: mn/(8*4) tessellations x 2*ceil(9/4)=6 MMAs,
        // once per input plane (3); times d output planes.
        let per_plane = (m as u64 * n as u64) / 32 * 6;
        assert_eq!(dev.counters.dmma_ops, 3 * per_plane * d as u64);
    }

    #[test]
    fn cuda_variant_runs_all_planes_scalar() {
        let k = Kernel3D::box_uniform(1);
        let exec = Exec3D::try_new(&k, 6, 8, 32, VariantConfig::implicit_cuda()).unwrap();
        let mut dev = Device::a100();
        let mut grid = Grid3D::new(6, 8, 32, 1);
        grid.fill_random(3);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        let ext =
            try_run_applications::<D3>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        assert_eq!(dev.counters.dmma_ops, 0);
        assert!(dev.counters.cuda_fma_ops > 0);
        let mut got = Grid3D::new(6, 8, 32, 1);
        exec.extract_into(&ext, &mut got);
        let want = run3d(&grid, &k, 1);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn all_breakdown_variants_agree_on_3d() {
        let k = Kernel3D::box_uniform(1);
        let (d, m, n) = (6, 10, 40);
        let mut grid = Grid3D::new(d, m, n, 1);
        grid.fill_random(21);
        let want = run3d(&grid, &k, 1);
        for (name, variant) in crate::variants::VariantConfig::breakdown() {
            let exec = Exec3D::try_new(&k, d, m, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.try_build_ext(&grid).unwrap();
            let ext =
                try_run_applications::<D3>(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid3D::new(d, m, n, 1);
            exec.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want.interior());
            if variant.explicit_global {
                assert_eq!(dev.launch_stats.kernel_launches, 2, "{name}");
                assert!(
                    dev.counters.uncoalesced_global_access_pct() > 5.0,
                    "{name}: explicit transform should scatter"
                );
            }
        }
    }

    #[test]
    fn awkward_dimensions_still_match() {
        let k = Kernel3D::star(0.5, &[1.0 / 12.0]);
        check(&k, (5, 11, 37), 2, VariantConfig::conv_stencil());
    }
}
