//! `heat1d-verified`: Heat-1D with periodic boundaries through
//! `ConvStencil1D::try_run_verified_with`, checking the full grid.

use super::{err, secs_of, timed, Checked, Replay, Timed, Workload};
use crate::ledger::{Call, Ledger};
use convstencil::exec1d::try_halo_exchange_1d;
use convstencil::{check_samples, ConvStencil1D, Exec1D, RunReport, VerifyConfig};
use std::time::Instant;
use stencil_core::{Boundary, Grid1D, Kernel1D, Shape};

pub struct Heat1d {
    kernel: Kernel1D,
    runner: ConvStencil1D,
    grid: Grid1D,
    steps: usize,
    cfg: VerifyConfig,
    reference: Vec<f64>,
}

impl Heat1d {
    pub fn new(seed: u64) -> Result<Self, String> {
        let (n, steps): (usize, usize) = (1 << 21, 24);
        let kernel = Shape::Heat1D.kernel1d().ok_or("Heat-1D has no 1D kernel")?;
        let runner = ConvStencil1D::try_new(kernel.clone())
            .map_err(err)?
            .with_boundary(Boundary::Periodic);
        if !steps.is_multiple_of(runner.fusion()) {
            return Err(format!(
                "{steps} steps is not a multiple of the fusion degree"
            ));
        }
        let mut grid = Grid1D::new(n, runner.fused_kernel().radius());
        grid.fill_random(seed);
        let reference = runner.run_reference(&grid, steps).interior();
        Ok(Self {
            kernel,
            runner,
            grid,
            steps,
            cfg: VerifyConfig {
                sample_tiles: 0,
                ..VerifyConfig::default()
            },
            reference,
        })
    }
}

impl Workload for Heat1d {
    type Out = (Grid1D, RunReport);

    fn point_updates(&self) -> u64 {
        (self.grid.len() * self.steps) as u64
    }

    fn reference(&self) -> &[f64] {
        &self.reference
    }

    fn setup_secs(&mut self) -> Result<f64, String> {
        let kernel = self.kernel.clone();
        let n = self.grid.len();
        secs_of(|| {
            let runner = ConvStencil1D::try_new(kernel)
                .map_err(err)?
                .with_boundary(Boundary::Periodic);
            Exec1D::try_new(runner.fused_kernel(), n, runner.variant()).map_err(err)?;
            Ok(())
        })
    }

    fn run(&mut self) -> Result<Timed<Self::Out>, String> {
        timed(|| {
            self.runner
                .try_run_verified_with(&self.grid, self.steps, self.cfg)
                .map_err(err)
        })
    }

    fn check(&mut self, (out, report): Self::Out) -> Result<Checked, String> {
        if !report.verified || report.degraded || report.retries != 0 {
            return Err(format!(
                "verified run: verified={} degraded={} retries={}",
                report.verified, report.degraded, report.retries
            ));
        }
        Ok(Checked {
            output: out.interior(),
            counters: report.counters,
            launches: report.launch_stats,
            model_gstencils_per_s: report.gstencils_per_sec,
        })
    }

    fn replay(&mut self) -> Result<Replay, String> {
        let mut l = Ledger::default();
        let runner = &self.runner;
        let n = self.grid.len();
        let start = Instant::now();
        let want = l.time(Call::Reference, || {
            runner.run_reference(&self.grid, self.steps).interior()
        });
        let mut dev = l.time(Call::Device, || runner.pool_device(None));
        let exec = l
            .time(Call::Plan, || {
                Exec1D::try_new(runner.fused_kernel(), n, runner.variant())
            })
            .map_err(err)?;
        let ext0 = l
            .time(Call::Layout, || exec.plan.try_build_ext(&self.grid))
            .map_err(err)?;
        let (mut cur, mut next) = l.time(Call::Device, || {
            (dev.alloc_from(&ext0), dev.alloc_from(&ext0))
        });
        for _ in 0..self.steps / runner.fusion() {
            l.time(Call::Halo, || {
                try_halo_exchange_1d(&mut dev, cur, &exec.plan)
            })
            .map_err(err)?;
            l.time(Call::App, || {
                exec.try_run_application(&mut dev, cur, next, None)
            })
            .map_err(err)?;
            std::mem::swap(&mut cur, &mut next);
        }
        let ext = l.time(Call::Device, || dev.take_buffer(cur));
        let mut out = self.grid.clone();
        l.time(Call::Layout, || exec.plan.extract_into(&ext, &mut out));
        let output = out.interior();
        l.time(Call::Check, || check_samples(&output, &want, &self.cfg))
            .map_err(err)?;
        let section_secs = start.elapsed().as_secs_f64();
        let section_calls_secs = l.secs_since(0);
        Ok(Replay {
            ledger: l,
            section_secs,
            section_calls_secs,
            output,
            counters: dev.counters,
            launches: dev.launch_stats,
            extra: Vec::new(),
        })
    }
}
