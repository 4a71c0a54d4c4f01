//! High-level ConvStencil front end: pick a kernel, run `t` time steps on
//! the simulated device, get the result grid plus a performance report.
//!
//! Temporal kernel fusion (§3.3) is applied automatically: radius-1
//! kernels fuse 3 steps into one n_k = 7 application (Fig. 4's
//! Box-2D9P → Box-2D49P), exactly the configuration the paper evaluates.
//! Fusion approximates a boundary ring of width `fusion·r − r` (the halo
//! is frozen per application rather than per step); deep-interior results
//! equal plain stepping, and every result equals the frozen-halo
//! application of the fused kernel exactly — see `stencil_core::fusion`.
//!
//! Steps not divisible by the fusion degree run their remainder through a
//! smaller fused kernel, so any step count is supported exactly.

use crate::dim::{try_run_applications, Dim, D1, D2, D3};
use crate::error::ConvStencilError;
use crate::variants::VariantConfig;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::time::Instant;
use stencil_core::{auto_fusion_degree, check_close, Boundary, VerifyError, DEFAULT_TOL};
use tcu_sim::{
    CostBreakdown, CostModel, Counters, Device, DeviceConfig, FaultPlan, LaunchStats, Phase,
    SanitizerReport, Span, Trace,
};

/// Largest kernel edge the FP64 fragment supports (n_k + 1 <= 8).
pub const MAX_NK: usize = 7;

/// Performance report of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Event ledger of everything the run executed.
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    /// Stencil points per time step.
    pub points: u64,
    /// Time steps advanced.
    pub steps: u64,
    /// Modelled cost (paper Eq. 2–4 over the ledger).
    pub cost: CostBreakdown,
    /// Modelled throughput (paper Eq. 16).
    pub gstencils_per_sec: f64,
    /// Extra factor already applied to `gstencils_per_sec` (1.0 for
    /// everything except the TCStencil analog's FP64 adjustment, 0.25);
    /// projections to other problem sizes must re-apply it.
    pub throughput_scale: f64,
    /// Faults the device's [`FaultPlan`] injected (all classes), summed
    /// over every attempt of this run.
    pub faults_injected: u64,
    /// Corruptions the verified mode detected (failed sample checks plus
    /// failed launches). Zero outside verified execution.
    pub faults_detected: u64,
    /// Full re-runs the verified mode performed after detections.
    pub retries: u64,
    /// True when verified execution exhausted its retries and fell back to
    /// the naive CPU reference result.
    pub degraded: bool,
    /// True when the result was checked against the naive reference
    /// (verified execution).
    pub verified: bool,
    /// Per-phase span timeline (device + host spans). Present only when
    /// the runner had tracing enabled (see `with_tracing`); the span
    /// counter deltas sum exactly to `counters`.
    pub trace: Option<Trace>,
    /// Dynamic sanitizer findings (initcheck/memcheck/racecheck plus the
    /// per-phase bank-conflict histogram), merged over every launch of
    /// the run. Present only when the runner had the sanitizer enabled
    /// (see `with_sanitizer`).
    pub sanitizer: Option<SanitizerReport>,
}

impl RunReport {
    fn from_device(dev: &mut Device, points: u64, steps: u64) -> Self {
        let model = CostModel::new(dev.config.clone());
        let cost = model.evaluate(&dev.counters, &dev.launch_stats);
        let gstencils_per_sec =
            model.gstencils_per_sec(&dev.counters, &dev.launch_stats, points, steps);
        Self {
            counters: dev.counters,
            launch_stats: dev.launch_stats,
            points,
            steps,
            cost,
            gstencils_per_sec,
            throughput_scale: 1.0,
            faults_injected: dev.counters.faults_injected(),
            faults_detected: 0,
            retries: 0,
            degraded: false,
            verified: false,
            trace: dev.tracing().then(|| dev.take_trace()),
            sanitizer: dev.sanitizing().then(|| dev.take_sanitizer_report()),
        }
    }
}

/// Record a host-side scope (reference verify, retry marker) in the
/// device's trace. Counters stay zero, so traced runs keep the
/// spans-sum-to-ledger invariant; a no-op when tracing is off.
fn push_host_span(dev: &mut Device, phase: Phase, wall_ns: u64) {
    let launch = dev.launch_attempts();
    dev.push_span(Span {
        phase,
        launch,
        counters: Counters::default(),
        modeled_sec: 0.0,
        wall_ns,
    });
}

/// Run the static plan verifier under a traced host `Verify` span (a
/// plain call when tracing is off). Rejections surface as
/// [`ConvStencilError::PlanInvalid`] before any launch.
fn verify_statically(
    dev: &mut Device,
    check: impl FnOnce() -> Result<(), ConvStencilError>,
) -> Result<(), ConvStencilError> {
    let start = Instant::now();
    let res = check();
    push_host_span(dev, Phase::Verify, start.elapsed().as_nanos() as u64);
    res
}

/// Configuration for verified execution: how the simulated result is
/// spot-checked against the naive CPU reference and how hard to retry.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Mixed absolute/relative tolerance for the residual checks.
    pub tol: f64,
    /// Full re-runs allowed after a detected corruption before the runner
    /// degrades to the reference result.
    pub max_retries: u64,
    /// Sampled tiles compared per attempt. `0` compares the entire grid
    /// (strongest, costs one full pass).
    pub sample_tiles: usize,
    /// Contiguous elements per sampled tile.
    pub tile: usize,
    /// Seed of the tile-placement hash (deterministic placement).
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            tol: DEFAULT_TOL,
            max_retries: 2,
            sample_tiles: 16,
            tile: 32,
            seed: 0x5EED,
        }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compare `got` against `want` on the configured sample tiles (or in
/// full), reporting the first offending flat interior index. Public so
/// the multi-device runtime can reuse the exact verification the
/// single-device verified path applies.
pub fn check_samples(got: &[f64], want: &[f64], cfg: &VerifyConfig) -> Result<(), VerifyError> {
    if got.len() != want.len() {
        return Err(VerifyError::LengthMismatch {
            left: got.len(),
            right: want.len(),
        });
    }
    if cfg.sample_tiles == 0 || cfg.sample_tiles * cfg.tile >= got.len() {
        return check_close(got, want, cfg.tol);
    }
    for t in 0..cfg.sample_tiles {
        let start = (mix64(cfg.seed ^ mix64(t as u64 + 1)) % got.len() as u64) as usize;
        let end = (start + cfg.tile).min(got.len());
        if let Err(VerifyError::Mismatch {
            index,
            left,
            right,
            mixed_err,
            tol,
        }) = check_close(&got[start..end], &want[start..end], cfg.tol)
        {
            return Err(VerifyError::Mismatch {
                index: start + index,
                left,
                right,
                mixed_err,
                tol,
            });
        }
    }
    Ok(())
}

/// ConvStencil runner for any dimensionality ([`D1`], [`D2`], [`D3`]);
/// usually named through [`ConvStencil1D`], [`ConvStencil2D`] and
/// [`ConvStencil3D`].
#[derive(Debug, Clone)]
pub struct ConvStencil<D: Dim> {
    kernel: D::Kernel,
    fused: D::Kernel,
    fusion: usize,
    variant: VariantConfig,
    device: DeviceConfig,
    boundary: Boundary,
    fault: Option<FaultPlan>,
    tracing: bool,
    sanitize: bool,
}

/// 1D ConvStencil runner.
pub type ConvStencil1D = ConvStencil<D1>;
/// 2D ConvStencil runner.
pub type ConvStencil2D = ConvStencil<D2>;
/// 3D ConvStencil runner (§4.2 — no temporal fusion, see [`Dim::FUSES`]).
pub type ConvStencil3D = ConvStencil<D3>;

impl<D: Dim> ConvStencil<D> {
    /// [`ConvStencil::try_new`] that panics on an unsupported kernel.
    pub fn new(kernel: D::Kernel) -> Self {
        Self::try_new(kernel).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build with automatic temporal fusion up to n_k = 7 (1D/2D; 3D runs
    /// unfused).
    #[must_use = "the runner is the only handle to the planned pipeline; check the Err for why planning failed"]
    pub fn try_new(kernel: D::Kernel) -> Result<Self, ConvStencilError> {
        let fusion = if D::FUSES {
            auto_fusion_degree(D::radius(&kernel), MAX_NK)
        } else {
            1
        };
        Self::try_with_fusion(kernel, fusion)
    }

    /// Build with an explicit fusion degree (1 = none; the only degree 3D
    /// accepts).
    #[must_use = "the runner is the only handle to the planned pipeline; check the Err for why planning failed"]
    pub fn try_with_fusion(kernel: D::Kernel, fusion: usize) -> Result<Self, ConvStencilError> {
        D::validate(&kernel, fusion)?;
        let fused = D::fuse(&kernel, fusion);
        Ok(Self {
            kernel,
            fused,
            fusion,
            variant: VariantConfig::conv_stencil(),
            device: DeviceConfig::a100(),
            boundary: Boundary::Dirichlet,
            fault: None,
            tracing: false,
            sanitize: false,
        })
    }

    /// Choose the boundary condition. Under [`Boundary::Periodic`] the
    /// halo is wrapped on-device before every application and temporal
    /// fusion is *exact* (a fused application equals `t` plain steps
    /// everywhere on the torus).
    pub fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }

    /// Use a specific optimization variant (Fig. 6 breakdown).
    pub fn with_variant(mut self, variant: VariantConfig) -> Self {
        self.variant = variant;
        self
    }

    /// Use a custom device configuration.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Inject deterministic faults (see [`FaultPlan`]) into every device
    /// this runner creates. Combine with [`ConvStencil::try_run_verified`]
    /// to detect and recover from them.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Enable per-phase span tracing: every run's `RunReport` carries a
    /// [`Trace`] whose span counter deltas sum to the run's ledger.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable the stencil sanitizer: every plan is proved correct by the
    /// static verifier before launch ([`ConvStencilError::PlanInvalid`]
    /// on rejection) and every run's `RunReport` carries a
    /// [`SanitizerReport`] with the dynamic shadow-memory findings. Off
    /// by default — the default path allocates no shadow state.
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// The automatic (or requested) fusion degree; always 1 in 3D.
    pub fn fusion(&self) -> usize {
        self.fusion
    }

    /// The kernel actually executed per application.
    pub fn fused_kernel(&self) -> &D::Kernel {
        &self.fused
    }

    /// The unfused kernel this runner was planned from.
    pub fn base_kernel(&self) -> &D::Kernel {
        &self.kernel
    }

    /// The optimization variant this runner executes.
    pub fn variant(&self) -> VariantConfig {
        self.variant
    }

    /// The configured boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Build a device configured exactly like this runner's own implicit
    /// device (device config, tracing, sanitizer), but with an explicit
    /// fault-plan override. The multi-device runtime uses this to give
    /// every pool slot an independent [`FaultPlan`] and health state.
    pub fn pool_device(&self, fault: Option<FaultPlan>) -> Device {
        let mut dev = self.make_device();
        dev.set_fault_plan(fault);
        dev
    }

    /// Advance `steps` on a caller-owned device; counters accumulate on
    /// that device's ledger. Grid-shape validation matches
    /// [`ConvStencil::try_run`]; the device pool's job loop drives pool
    /// slots through this entry point so one device can serve many chunks
    /// and jobs.
    #[must_use = "dropping the result discards the advanced grid and any error"]
    pub fn try_run_on_device(
        &self,
        dev: &mut Device,
        grid: &D::Grid,
        steps: usize,
    ) -> Result<D::Grid, ConvStencilError> {
        points::<D>(grid)?;
        self.try_run_on(dev, grid, steps)
    }

    /// CPU ground truth for `steps` time steps, mirroring the device
    /// decomposition exactly: the same fusion split and the same
    /// frozen-halo semantics per application (periodic boundaries wrap
    /// instead, where fusion is exact). Public as the runtime's
    /// degrade-to-reference backend.
    #[must_use = "the reference result is the whole point of calling this"]
    pub fn run_reference(&self, grid: &D::Grid, steps: usize) -> D::Grid {
        if self.boundary == Boundary::Periodic {
            return D::reference_periodic(grid, &self.kernel, steps);
        }
        let mut current = Cow::Borrowed(grid);
        for (kernel, apps) in self.applications(steps) {
            current = Cow::Owned(D::reference(&current, &kernel, apps));
        }
        current.into_owned()
    }

    /// [`ConvStencil::try_run`] that panics on error.
    #[must_use = "dropping the result discards the advanced grid and the run report"]
    pub fn run(&self, grid: &D::Grid, steps: usize) -> (D::Grid, RunReport) {
        self.try_run(grid, steps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Advance `steps` time steps; returns the result grid and the report.
    ///
    /// Kernel fusion is a Tensor-Core densification technique (§3.3,
    /// Fig. 4), so the CUDA-core breakdown variants (I/II) run unfused —
    /// fusing would only inflate their FLOP count.
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run(
        &self,
        grid: &D::Grid,
        steps: usize,
    ) -> Result<(D::Grid, RunReport), ConvStencilError> {
        let points = points::<D>(grid)?;
        let mut dev = self.make_device();
        let out = self.try_run_on(&mut dev, grid, steps)?;
        let report = RunReport::from_device(&mut dev, points, steps as u64);
        Ok((out, report))
    }

    /// Verified execution with the default [`VerifyConfig`]: the simulated
    /// result is checked against the naive CPU reference, corrupted runs
    /// are retried (under a fresh fault epoch), and if every retry is
    /// corrupted the reference result itself is returned with
    /// `report.degraded = true`.
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run_verified(
        &self,
        grid: &D::Grid,
        steps: usize,
    ) -> Result<(D::Grid, RunReport), ConvStencilError> {
        self.try_run_verified_with(grid, steps, VerifyConfig::default())
    }

    /// Verified execution with an explicit [`VerifyConfig`].
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run_verified_with(
        &self,
        grid: &D::Grid,
        steps: usize,
        cfg: VerifyConfig,
    ) -> Result<(D::Grid, RunReport), ConvStencilError> {
        let points = points::<D>(grid)?;
        let reference_start = Instant::now();
        let reference = self.run_reference(grid, steps);
        let want = D::interior(&reference);
        let reference_ns = reference_start.elapsed().as_nanos() as u64;
        let mut dev = self.make_device();
        push_host_span(&mut dev, Phase::Verify, reference_ns);
        let mut detected = 0u64;
        let mut retries = 0u64;
        for attempt in 0..=cfg.max_retries {
            if attempt > 0 {
                dev.advance_fault_epoch();
                retries += 1;
                push_host_span(&mut dev, Phase::Retry, 0);
            }
            match self.try_run_on(&mut dev, grid, steps) {
                Ok(out) => {
                    let check_start = Instant::now();
                    let check = check_samples(&D::interior(&out), &want, &cfg);
                    push_host_span(
                        &mut dev,
                        Phase::Verify,
                        check_start.elapsed().as_nanos() as u64,
                    );
                    match check {
                        Ok(()) => {
                            let mut report = RunReport::from_device(&mut dev, points, steps as u64);
                            report.verified = true;
                            report.faults_detected = detected;
                            report.retries = retries;
                            return Ok((out, report));
                        }
                        Err(_) => detected += 1,
                    }
                }
                Err(ConvStencilError::Device(_)) => detected += 1,
                Err(other) => return Err(other),
            }
        }
        let mut report = RunReport::from_device(&mut dev, points, steps as u64);
        report.verified = true;
        report.faults_detected = detected;
        report.retries = retries;
        report.degraded = true;
        Ok((reference, report))
    }

    fn make_device(&self) -> Device {
        let mut dev = Device::new(self.device.clone());
        dev.set_fault_plan(self.fault);
        dev.set_tracing(self.tracing);
        dev.set_sanitizer(self.sanitize);
        dev
    }

    /// The `(kernel, applications)` pairs `steps` decomposes into: full
    /// applications of the fused kernel, then one application of a
    /// smaller fused kernel for the remainder. CUDA-core variants run
    /// unfused. An unfused dimension (3D) plans its whole run as one
    /// pipeline, zero steps included.
    fn applications(&self, steps: usize) -> Vec<(Cow<'_, D::Kernel>, usize)> {
        let fusion = if self.variant.use_tcu { self.fusion } else { 1 };
        let fused = if fusion == self.fusion {
            &self.fused
        } else {
            &self.kernel
        };
        let (full_apps, remainder) = (steps / fusion, steps % fusion);
        let mut apps = Vec::with_capacity(2);
        if full_apps > 0 || !D::FUSES {
            apps.push((Cow::Borrowed(fused), full_apps));
        }
        if remainder > 0 {
            apps.push((Cow::Owned(D::fuse(&self.kernel, remainder)), 1));
        }
        apps
    }

    /// One full run on an existing device (counters accumulate).
    fn try_run_on(
        &self,
        dev: &mut Device,
        grid: &D::Grid,
        steps: usize,
    ) -> Result<D::Grid, ConvStencilError> {
        let mut current = Cow::Borrowed(grid);
        for (kernel, apps) in self.applications(steps) {
            current = Cow::Owned(self.try_run_apps(dev, &current, &kernel, apps)?);
        }
        Ok(current.into_owned())
    }

    fn try_run_apps(
        &self,
        dev: &mut Device,
        grid: &D::Grid,
        kernel: &D::Kernel,
        apps: usize,
    ) -> Result<D::Grid, ConvStencilError> {
        let exec = D::try_exec(kernel, &D::extents(grid), self.variant)?;
        if self.sanitize {
            verify_statically(dev, || D::verify(&exec))?;
        }
        let ext0 = D::try_build_ext(&exec, grid)?;
        let ext = try_run_applications::<D>(dev, &exec, &ext0, apps, self.boundary)?;
        let mut out = grid.clone();
        D::extract_into(&exec, &ext, &mut out);
        Ok(out)
    }
}

/// Stencil points of `grid`, rejecting zero-sized grids.
fn points<D: Dim>(grid: &D::Grid) -> Result<u64, ConvStencilError> {
    let dims = D::extents(grid);
    if dims.contains(&0) {
        return Err(ConvStencilError::ZeroSizedGrid { dims });
    }
    Ok(dims.iter().product::<usize>() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::reference::{run1d, run2d, run3d};
    use stencil_core::{assert_close_default, Grid1D, Grid2D, Grid3D, Shape};

    #[test]
    fn heat2d_auto_fuses_to_3() {
        let cs = ConvStencil2D::new(Shape::Heat2D.kernel2d().unwrap());
        assert_eq!(cs.fusion(), 3);
        assert_eq!(cs.fused_kernel().nk(), 7);
    }

    #[test]
    fn box2d49p_does_not_fuse() {
        let cs = ConvStencil2D::new(Shape::Box2D49P.kernel2d().unwrap());
        assert_eq!(cs.fusion(), 1);
    }

    #[test]
    fn fused_run_equals_fused_reference() {
        // ConvStencil with fusion 3 for 6 steps == two frozen-halo
        // applications of the fused kernel.
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel.clone());
        let mut grid = Grid2D::new(48, 80, cs.fused_kernel().radius());
        grid.fill_random(12);
        let (got, report) = cs.run(&grid, 6);
        let want = run2d(&grid, cs.fused_kernel(), 2);
        assert_close_default(&got.interior(), &want.interior());
        assert_eq!(report.steps, 6);
        assert!(report.gstencils_per_sec > 0.0);
    }

    #[test]
    fn fused_run_matches_plain_stepping_in_deep_interior() {
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel.clone());
        let mut grid = Grid2D::new(64, 64, 3);
        grid.fill_random(9);
        let (got, _) = cs.run(&grid, 3);
        let want = run2d(&grid, &kernel, 3);
        // Depth >= fusion·r = 3 from the boundary: exact agreement.
        for x in 3..61 {
            for y in 3..61 {
                let (a, b) = (got.get(x, y), want.get(x, y));
                assert!(
                    (a - b).abs() / a.abs().max(1.0) < 1e-10,
                    "({x},{y}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn remainder_steps_are_exact() {
        // 4 steps at fusion 3 = one fused app + one single-step app; must
        // equal naive stepping in the deep interior.
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel.clone());
        let mut grid = Grid2D::new(48, 48, 4);
        grid.fill_random(3);
        let (got, report) = cs.run(&grid, 4);
        assert_eq!(report.steps, 4);
        let want = run2d(&grid, &kernel, 4);
        for x in 4..44 {
            for y in 4..44 {
                let (a, b) = (got.get(x, y), want.get(x, y));
                assert!((a - b).abs() / a.abs().max(1.0) < 1e-10);
            }
        }
    }

    #[test]
    fn oned_api_runs_heat1d() {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let cs = ConvStencil1D::new(kernel.clone());
        assert_eq!(cs.fusion(), 3);
        let mut grid = Grid1D::new(5000, 3);
        grid.fill_random(2);
        let (got, report) = cs.run(&grid, 3);
        let want = run1d(&grid, cs.fused_kernel(), 1);
        assert_close_default(&got.interior(), &want.interior());
        assert!(report.counters.dmma_ops > 0);
    }

    #[test]
    fn threed_api_runs_heat3d() {
        let kernel = Shape::Heat3D.kernel3d().unwrap();
        let cs = ConvStencil3D::new(kernel.clone());
        let mut grid = Grid3D::new(8, 16, 32, 1);
        grid.fill_random(4);
        let (got, report) = cs.run(&grid, 2);
        let want = run3d(&grid, &kernel, 2);
        assert_close_default(&got.interior(), &want.interior());
        assert_eq!(report.points, 8 * 16 * 32);
    }

    #[test]
    fn periodic_2d_fused_equals_t_periodic_steps_exactly() {
        // On a torus, fusion is exact *everywhere* — no boundary ring.
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel.clone()).with_boundary(Boundary::Periodic);
        let mut grid = Grid2D::new(40, 72, 3);
        grid.fill_random(31);
        let (got, _) = cs.run(&grid, 6);
        let want = stencil_core::run2d_periodic(&grid, &kernel, 6);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_1d_matches_reference_everywhere() {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let cs = ConvStencil1D::new(kernel.clone()).with_boundary(Boundary::Periodic);
        let mut grid = Grid1D::new(3000, 3);
        grid.fill_random(7);
        let (got, _) = cs.run(&grid, 6);
        let want = stencil_core::run1d_periodic(&grid, &kernel, 6);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_3d_matches_reference_everywhere() {
        let kernel = Shape::Box3D27P.kernel3d().unwrap();
        let cs = ConvStencil3D::new(kernel.clone()).with_boundary(Boundary::Periodic);
        let mut grid = Grid3D::new(8, 12, 40, 1);
        grid.fill_random(9);
        let (got, _) = cs.run(&grid, 2);
        let want = stencil_core::run3d_periodic(&grid, &kernel, 2);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_conserves_mass() {
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel).with_boundary(Boundary::Periodic);
        let mut grid = Grid2D::new(48, 48, 3);
        grid.fill_random(2);
        let before: f64 = grid.interior().iter().sum();
        let (out, _) = cs.run(&grid, 9);
        let after: f64 = out.interior().iter().sum();
        assert!((before - after).abs() / before < 1e-12);
    }

    #[test]
    fn report_is_serializable_shape() {
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel);
        let mut grid = Grid2D::new(32, 32, 3);
        grid.fill_random(1);
        let (_, report) = cs.run(&grid, 3);
        assert!(report.cost.total > 0.0);
        assert!(report.cost.parallel_efficiency > 0.0 && report.cost.parallel_efficiency <= 1.0);
    }
}
