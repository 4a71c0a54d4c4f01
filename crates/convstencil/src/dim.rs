//! Dimension markers: the one place the 1D/2D/3D pipelines differ.
//!
//! The paper builds its 1D and 3D pipelines out of the 2D algorithm (§4.2:
//! 3D is planes of 2D; temporal fusion applies to 1D and 2D only), so the
//! runner ([`crate::ConvStencil`]), the application loop
//! ([`try_run_applications`]) and the multi-device runtime are written once
//! over a [`Dim`]. Each marker — [`D1`], [`D2`], [`D3`] — fixes the grid,
//! kernel, executor and explicit-scratch types and answers every
//! dimension-specific question: validation, the fusion policy, the CPU
//! reference, the plan and layout, and the periodic halo exchange.

use crate::api::MAX_NK;
use crate::error::ConvStencilError;
use crate::exec1d::{try_halo_exchange_1d, Exec1D};
use crate::exec2d::{try_halo_exchange_2d, Exec2D, ExplicitBuffers};
use crate::exec3d::{try_halo_exchange_3d, Exec3D, ExplicitBuffers3D};
use crate::variants::VariantConfig;
use std::fmt::Debug;
use stencil_core::reference::{run1d, run2d, run3d};
use stencil_core::{
    fuse1d, fuse2d, fuse3d, run1d_periodic, run2d_periodic, run3d_periodic, Boundary, Grid1D,
    Grid2D, Grid3D, Kernel1D, Kernel2D, Kernel3D, Shape,
};
use tcu_sim::{BufferId, Device};

/// A stencil dimensionality. Implemented only by the markers [`D1`],
/// [`D2`] and [`D3`].
pub trait Dim: Copy + Debug + 'static {
    /// Dimensionality, as checkpoints and messages record it.
    const N: u8;
    /// Whether temporal kernel fusion (§3.3) applies. The paper fuses 1D
    /// and 2D only: fusing a 3D kernel grows both the number of planes and
    /// the per-plane cost (§4.2), so 3D always runs one step per
    /// application.
    const FUSES: bool;

    type Grid: Clone + Debug;
    type Kernel: Clone + Debug;
    type Exec: Clone + Debug;
    /// Global scratch the explicit variant (I) materialises stencil2row
    /// matrices in.
    type Scratch: Copy;

    // ---- grids and kernels -------------------------------------------

    /// Interior extents, outermost first.
    fn extents(grid: &Self::Grid) -> Vec<usize>;
    fn halo(grid: &Self::Grid) -> usize;
    /// A zero grid with the given interior extents (one per dimension).
    fn new_grid(extents: &[usize], halo: usize) -> Self::Grid;
    /// Flat padded storage (interior and halo).
    fn padded(grid: &Self::Grid) -> &[f64];
    fn padded_mut(grid: &mut Self::Grid) -> &mut [f64];
    fn interior(grid: &Self::Grid) -> Vec<f64>;
    /// Kernel from its radius and row-major dense weights.
    fn new_kernel(radius: usize, weights: Vec<f64>) -> Self::Kernel;
    /// The benchmark kernel of `shape`, if it has this dimensionality.
    fn shape_kernel(shape: Shape) -> Option<Self::Kernel>;
    fn radius(kernel: &Self::Kernel) -> usize;
    fn weights(kernel: &Self::Kernel) -> &[f64];

    // ---- validation and fusion policy --------------------------------

    /// Reject a kernel / fusion degree the FP64 fragment cannot hold.
    fn validate(kernel: &Self::Kernel, fusion: usize) -> Result<(), ConvStencilError> {
        if fusion < 1 {
            return Err(ConvStencilError::PlanInvariant {
                reason: "fusion degree must be >= 1".to_string(),
            });
        }
        if 2 * Self::radius(kernel) * fusion >= MAX_NK {
            return Err(ConvStencilError::FusionTooDeep {
                radius: Self::radius(kernel),
                fusion,
                max_nk: MAX_NK,
            });
        }
        Ok(())
    }
    /// `t`-fold temporal fusion of `kernel`.
    fn fuse(kernel: &Self::Kernel, t: usize) -> Self::Kernel;

    // ---- CPU reference -----------------------------------------------

    /// `apps` frozen-halo applications of `kernel`; the result keeps
    /// `grid`'s halo.
    fn reference(grid: &Self::Grid, kernel: &Self::Kernel, apps: usize) -> Self::Grid;
    /// `steps` plain steps on the torus.
    fn reference_periodic(grid: &Self::Grid, kernel: &Self::Kernel, steps: usize) -> Self::Grid;

    // ---- plan, layout and device hooks -------------------------------

    /// Plan an executor for `kernel` on a grid with these interior extents.
    fn try_exec(
        kernel: &Self::Kernel,
        extents: &[usize],
        variant: VariantConfig,
    ) -> Result<Self::Exec, ConvStencilError>;
    fn variant(exec: &Self::Exec) -> VariantConfig;
    /// Run the static plan verifier (see [`crate::verify_plan`]).
    fn verify(exec: &Self::Exec) -> Result<(), ConvStencilError>;
    /// Negative-control hook: overwrite the first scatter-LUT entry so
    /// the static verifier must reject the plan.
    fn corrupt_lut(exec: &mut Self::Exec);
    /// The extended device array of `grid`. 1D and 2D widen a halo
    /// narrower than the kernel radius with zeros; 3D rejects it with
    /// [`ConvStencilError::HaloTooSmall`].
    fn try_build_ext(exec: &Self::Exec, grid: &Self::Grid) -> Result<Vec<f64>, ConvStencilError>;
    /// Copy the interior of an extended array into `grid`.
    fn extract_into(exec: &Self::Exec, ext: &[f64], grid: &mut Self::Grid);
    fn alloc_explicit(exec: &Self::Exec, dev: &mut Device) -> Self::Scratch;
    fn try_run_application(
        exec: &Self::Exec,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<Self::Scratch>,
    ) -> Result<(), ConvStencilError>;
    /// Wrap the halo of the extended array `ext` on-device (periodic
    /// boundaries).
    fn try_halo_exchange(
        exec: &Self::Exec,
        dev: &mut Device,
        ext: BufferId,
    ) -> Result<(), ConvStencilError>;
}

/// One-dimensional stencils.
#[derive(Debug, Clone, Copy)]
pub struct D1;
/// Two-dimensional stencils.
#[derive(Debug, Clone, Copy)]
pub struct D2;
/// Three-dimensional stencils.
#[derive(Debug, Clone, Copy)]
pub struct D3;

/// Run `apps` applications over a fresh device buffer pair, wrapping the
/// halo before each one under periodic boundaries; returns the final
/// extended array.
pub fn try_run_applications<D: Dim>(
    dev: &mut Device,
    exec: &D::Exec,
    ext0: &[f64],
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    let a = dev.alloc_from(ext0);
    let b = dev.alloc_from(ext0);
    let scratch = D::variant(exec)
        .explicit_global
        .then(|| D::alloc_explicit(exec, dev));
    let (mut cur, mut next) = (a, b);
    for _ in 0..apps {
        if boundary == Boundary::Periodic {
            D::try_halo_exchange(exec, dev, cur)?;
        }
        D::try_run_application(exec, dev, cur, next, scratch)?;
        std::mem::swap(&mut cur, &mut next);
    }
    // The device never touches the ping-pong buffers again: move the
    // final extended array out instead of copying the whole grid.
    Ok(dev.take_buffer(cur))
}

impl Dim for D1 {
    const N: u8 = 1;
    const FUSES: bool = true;
    type Grid = Grid1D;
    type Kernel = Kernel1D;
    type Exec = Exec1D;
    type Scratch = (BufferId, BufferId);

    fn extents(grid: &Grid1D) -> Vec<usize> {
        vec![grid.len()]
    }
    fn halo(grid: &Grid1D) -> usize {
        grid.halo()
    }
    fn new_grid(extents: &[usize], halo: usize) -> Grid1D {
        Grid1D::new(extents[0], halo)
    }
    fn padded(grid: &Grid1D) -> &[f64] {
        grid.padded()
    }
    fn padded_mut(grid: &mut Grid1D) -> &mut [f64] {
        grid.padded_mut()
    }
    fn interior(grid: &Grid1D) -> Vec<f64> {
        grid.interior()
    }
    fn new_kernel(_radius: usize, weights: Vec<f64>) -> Kernel1D {
        Kernel1D::new(weights)
    }
    fn shape_kernel(shape: Shape) -> Option<Kernel1D> {
        shape.kernel1d()
    }
    fn radius(kernel: &Kernel1D) -> usize {
        kernel.radius()
    }
    fn weights(kernel: &Kernel1D) -> &[f64] {
        kernel.weights()
    }
    fn fuse(kernel: &Kernel1D, t: usize) -> Kernel1D {
        fuse1d(kernel, t)
    }

    fn reference(grid: &Grid1D, kernel: &Kernel1D, apps: usize) -> Grid1D {
        if grid.halo() >= kernel.radius() {
            return run1d(grid, kernel, apps);
        }
        let res = run1d(&grid.with_halo(kernel.radius()), kernel, apps);
        let mut out = grid.clone();
        for i in 0..grid.len() {
            out.set(i, res.get(i));
        }
        out
    }
    fn reference_periodic(grid: &Grid1D, kernel: &Kernel1D, steps: usize) -> Grid1D {
        run1d_periodic(grid, kernel, steps)
    }

    fn try_exec(
        kernel: &Kernel1D,
        extents: &[usize],
        variant: VariantConfig,
    ) -> Result<Exec1D, ConvStencilError> {
        Exec1D::try_new(kernel, extents[0], variant)
    }
    fn variant(exec: &Exec1D) -> VariantConfig {
        exec.variant
    }
    fn verify(exec: &Exec1D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn corrupt_lut(exec: &mut Exec1D) {
        exec.lut_mut().set(0, 0, [1, 1]);
    }
    fn try_build_ext(exec: &Exec1D, grid: &Grid1D) -> Result<Vec<f64>, ConvStencilError> {
        if grid.halo() >= exec.plan.radius {
            exec.plan.try_build_ext(grid)
        } else {
            exec.plan.try_build_ext(&grid.with_halo(exec.plan.radius))
        }
    }
    fn extract_into(exec: &Exec1D, ext: &[f64], grid: &mut Grid1D) {
        exec.plan.extract_into(ext, grid)
    }
    fn alloc_explicit(exec: &Exec1D, dev: &mut Device) -> (BufferId, BufferId) {
        exec.alloc_explicit(dev)
    }
    fn try_run_application(
        exec: &Exec1D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<(BufferId, BufferId)>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, explicit)
    }
    fn try_halo_exchange(
        exec: &Exec1D,
        dev: &mut Device,
        ext: BufferId,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_1d(dev, ext, &exec.plan)
    }
}

impl Dim for D2 {
    const N: u8 = 2;
    const FUSES: bool = true;
    type Grid = Grid2D;
    type Kernel = Kernel2D;
    type Exec = Exec2D;
    type Scratch = ExplicitBuffers;

    fn extents(grid: &Grid2D) -> Vec<usize> {
        vec![grid.rows(), grid.cols()]
    }
    fn halo(grid: &Grid2D) -> usize {
        grid.halo()
    }
    fn new_grid(extents: &[usize], halo: usize) -> Grid2D {
        Grid2D::new(extents[0], extents[1], halo)
    }
    fn padded(grid: &Grid2D) -> &[f64] {
        grid.padded()
    }
    fn padded_mut(grid: &mut Grid2D) -> &mut [f64] {
        grid.padded_mut()
    }
    fn interior(grid: &Grid2D) -> Vec<f64> {
        grid.interior()
    }
    fn new_kernel(radius: usize, weights: Vec<f64>) -> Kernel2D {
        Kernel2D::new(radius, weights)
    }
    fn shape_kernel(shape: Shape) -> Option<Kernel2D> {
        shape.kernel2d()
    }
    fn radius(kernel: &Kernel2D) -> usize {
        kernel.radius()
    }
    fn weights(kernel: &Kernel2D) -> &[f64] {
        kernel.weights()
    }
    fn fuse(kernel: &Kernel2D, t: usize) -> Kernel2D {
        fuse2d(kernel, t)
    }

    fn reference(grid: &Grid2D, kernel: &Kernel2D, apps: usize) -> Grid2D {
        if grid.halo() >= kernel.radius() {
            return run2d(grid, kernel, apps);
        }
        let res = run2d(&grid.with_halo(kernel.radius()), kernel, apps);
        let mut out = grid.clone();
        for x in 0..grid.rows() {
            for y in 0..grid.cols() {
                out.set(x, y, res.get(x, y));
            }
        }
        out
    }
    fn reference_periodic(grid: &Grid2D, kernel: &Kernel2D, steps: usize) -> Grid2D {
        run2d_periodic(grid, kernel, steps)
    }

    fn try_exec(
        kernel: &Kernel2D,
        extents: &[usize],
        variant: VariantConfig,
    ) -> Result<Exec2D, ConvStencilError> {
        Exec2D::try_new(kernel, extents[0], extents[1], variant)
    }
    fn variant(exec: &Exec2D) -> VariantConfig {
        exec.variant
    }
    fn verify(exec: &Exec2D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn corrupt_lut(exec: &mut Exec2D) {
        exec.lut_mut().set(0, 0, [1, 1]);
    }
    fn try_build_ext(exec: &Exec2D, grid: &Grid2D) -> Result<Vec<f64>, ConvStencilError> {
        if grid.halo() >= exec.plan.radius {
            exec.plan.try_build_ext(grid)
        } else {
            exec.plan.try_build_ext(&grid.with_halo(exec.plan.radius))
        }
    }
    fn extract_into(exec: &Exec2D, ext: &[f64], grid: &mut Grid2D) {
        exec.plan.extract_into(ext, grid)
    }
    fn alloc_explicit(exec: &Exec2D, dev: &mut Device) -> ExplicitBuffers {
        exec.alloc_explicit(dev)
    }
    fn try_run_application(
        exec: &Exec2D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, explicit)
    }
    fn try_halo_exchange(
        exec: &Exec2D,
        dev: &mut Device,
        ext: BufferId,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_2d(dev, ext, &exec.plan)
    }
}

impl Dim for D3 {
    const N: u8 = 3;
    const FUSES: bool = false;
    type Grid = Grid3D;
    type Kernel = Kernel3D;
    type Exec = Exec3D;
    type Scratch = ExplicitBuffers3D;

    fn extents(grid: &Grid3D) -> Vec<usize> {
        vec![grid.depth(), grid.rows(), grid.cols()]
    }
    fn halo(grid: &Grid3D) -> usize {
        grid.halo()
    }
    fn new_grid(extents: &[usize], halo: usize) -> Grid3D {
        Grid3D::new(extents[0], extents[1], extents[2], halo)
    }
    fn padded(grid: &Grid3D) -> &[f64] {
        grid.padded()
    }
    fn padded_mut(grid: &mut Grid3D) -> &mut [f64] {
        grid.padded_mut()
    }
    fn interior(grid: &Grid3D) -> Vec<f64> {
        grid.interior()
    }
    fn new_kernel(radius: usize, weights: Vec<f64>) -> Kernel3D {
        Kernel3D::new(radius, weights)
    }
    fn shape_kernel(shape: Shape) -> Option<Kernel3D> {
        shape.kernel3d()
    }
    fn radius(kernel: &Kernel3D) -> usize {
        kernel.radius()
    }
    fn weights(kernel: &Kernel3D) -> &[f64] {
        kernel.weights()
    }

    /// 3D runs unfused: only degree 1 is accepted, and the kernel edge
    /// must fit the FP64 fragment.
    fn validate(kernel: &Kernel3D, fusion: usize) -> Result<(), ConvStencilError> {
        if kernel.nk() > MAX_NK {
            return Err(ConvStencilError::UnsupportedNk { nk: kernel.nk() });
        }
        if fusion != 1 {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("3D runs unfused (fusion degree 1), got {fusion}"),
            });
        }
        Ok(())
    }
    fn fuse(kernel: &Kernel3D, t: usize) -> Kernel3D {
        fuse3d(kernel, t)
    }

    fn reference(grid: &Grid3D, kernel: &Kernel3D, apps: usize) -> Grid3D {
        run3d(grid, kernel, apps)
    }
    fn reference_periodic(grid: &Grid3D, kernel: &Kernel3D, steps: usize) -> Grid3D {
        run3d_periodic(grid, kernel, steps)
    }

    fn try_exec(
        kernel: &Kernel3D,
        extents: &[usize],
        variant: VariantConfig,
    ) -> Result<Exec3D, ConvStencilError> {
        Exec3D::try_new(kernel, extents[0], extents[1], extents[2], variant)
    }
    fn variant(exec: &Exec3D) -> VariantConfig {
        exec.variant
    }
    fn verify(exec: &Exec3D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn corrupt_lut(exec: &mut Exec3D) {
        exec.lut_mut().set(0, 0, [1, 1]);
    }
    fn try_build_ext(exec: &Exec3D, grid: &Grid3D) -> Result<Vec<f64>, ConvStencilError> {
        exec.try_build_ext(grid)
    }
    fn extract_into(exec: &Exec3D, ext: &[f64], grid: &mut Grid3D) {
        exec.extract_into(ext, grid)
    }
    fn alloc_explicit(exec: &Exec3D, dev: &mut Device) -> ExplicitBuffers3D {
        exec.alloc_explicit(dev)
    }
    fn try_run_application(
        exec: &Exec3D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers3D>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, explicit)
    }
    fn try_halo_exchange(
        exec: &Exec3D,
        dev: &mut Device,
        ext: BufferId,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_3d(dev, ext, exec)
    }
}
