//! `box2d-run` and `box2d-checked`: Box-2D9P auto-fused to 7x7 through
//! `ConvStencil2D::try_run`, plain or with the sanitizer and tracing on.

use super::{err, secs_of, timed, Checked, Replay, Timed, Workload};
use crate::ledger::{Call, Ledger};
use convstencil::{ConvStencil2D, Exec2D, RunReport};
use std::time::Instant;
use stencil_core::{Grid2D, Kernel2D, Shape};
use tcu_sim::{Counters, Phase, Span};

pub struct Box2d {
    kernel: Kernel2D,
    runner: ConvStencil2D,
    /// Sanitizer-off twin of `runner`, for the sanitizer-overhead probe.
    plain: ConvStencil2D,
    checked: bool,
    grid: Grid2D,
    steps: usize,
    reference: Vec<f64>,
}

impl Box2d {
    /// The paper's headline path: fully optimised, Dirichlet, nothing else on.
    pub fn run_workload(seed: u64) -> Result<Self, String> {
        Self::new(1024, 1024, 6, false, seed)
    }

    /// The `--sanitize --profile --trace` path: sanitizer shadow, span
    /// folding and JSONL encoding on top of the same kernel.
    pub fn checked_workload(seed: u64) -> Result<Self, String> {
        Self::new(512, 512, 3, true, seed)
    }

    fn new(m: usize, n: usize, steps: usize, checked: bool, seed: u64) -> Result<Self, String> {
        let kernel = Shape::Box2D9P
            .kernel2d()
            .ok_or("Box-2D9P has no 2D kernel")?;
        let plain = ConvStencil2D::try_new(kernel.clone()).map_err(err)?;
        let runner = plain.clone().with_sanitizer(checked).with_tracing(checked);
        // The replay mirrors whole fused applications on a grid whose halo
        // already covers the fused radius, as `try_run` does then.
        if !steps.is_multiple_of(runner.fusion()) {
            return Err(format!(
                "{steps} steps is not a multiple of the fusion degree"
            ));
        }
        let mut grid = Grid2D::new(m, n, runner.fused_kernel().radius());
        grid.fill_random(seed);
        let reference = runner.run_reference(&grid, steps).interior();
        Ok(Self {
            kernel,
            runner,
            plain,
            checked,
            grid,
            steps,
            reference,
        })
    }

    fn make_runner(&self, kernel: Kernel2D) -> Result<ConvStencil2D, String> {
        let runner = ConvStencil2D::try_new(kernel).map_err(err)?;
        Ok(runner
            .with_sanitizer(self.checked)
            .with_tracing(self.checked))
    }

    /// Host seconds of the same applications with the sanitizer and
    /// tracing off, on the same plan.
    fn plain_app_secs(&self, exec: &Exec2D, ext0: &[f64]) -> Result<f64, String> {
        let mut dev = self.plain.pool_device(None);
        let (mut cur, mut next) = (dev.alloc_from(ext0), dev.alloc_from(ext0));
        let mut secs = 0.0;
        for _ in 0..self.steps / self.runner.fusion() {
            secs += secs_of(|| {
                exec.try_run_application(&mut dev, cur, next, None)
                    .map_err(err)
            })?;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(secs)
    }
}

impl Workload for Box2d {
    type Out = (Grid2D, RunReport, Option<String>);

    fn point_updates(&self) -> u64 {
        (self.grid.rows() * self.grid.cols() * self.steps) as u64
    }

    fn reference(&self) -> &[f64] {
        &self.reference
    }

    fn setup_secs(&mut self) -> Result<f64, String> {
        let kernel = self.kernel.clone();
        let (m, n) = (self.grid.rows(), self.grid.cols());
        secs_of(|| {
            let runner = self.make_runner(kernel)?;
            Exec2D::try_new(runner.fused_kernel(), m, n, runner.variant()).map_err(err)?;
            Ok(())
        })
    }

    fn run(&mut self) -> Result<Timed<Self::Out>, String> {
        timed(|| {
            let (out, report) = self.runner.try_run(&self.grid, self.steps).map_err(err)?;
            let jsonl = report.trace.as_ref().map(|t| t.to_jsonl());
            Ok((out, report, jsonl))
        })
    }

    fn check(&mut self, (out, report, jsonl): Self::Out) -> Result<Checked, String> {
        if self.checked {
            let trace = report.trace.as_ref().ok_or("traced run has no trace")?;
            if trace.total_counters() != report.counters {
                return Err("trace spans do not sum to the device ledger".into());
            }
            if jsonl.as_deref().map(|j| j.lines().count()) != Some(trace.len()) {
                return Err("JSONL trace does not hold one line per span".into());
            }
            let san = report.sanitizer.as_ref().ok_or("no sanitizer report")?;
            if !san.is_clean() {
                return Err(format!("sanitizer findings: {}", san.total_violations()));
            }
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
        let (m, n) = (self.grid.rows(), self.grid.cols());
        let start = Instant::now();
        let mut dev = l.time(Call::Device, || runner.pool_device(None));
        let exec = l
            .time(Call::Plan, || {
                Exec2D::try_new(runner.fused_kernel(), m, n, runner.variant())
            })
            .map_err(err)?;
        if self.checked {
            // `try_run` records the static verification as a host span.
            let verify_start = Instant::now();
            l.time(Call::VerifyPlan, || exec.verify()).map_err(err)?;
            let launch = dev.launch_attempts();
            dev.push_span(Span {
                phase: Phase::Verify,
                launch,
                counters: Counters::default(),
                modeled_sec: 0.0,
                wall_ns: verify_start.elapsed().as_nanos() as u64,
            });
        }
        let ext0 = l
            .time(Call::Layout, || exec.plan.try_build_ext(&self.grid))
            .map_err(err)?;
        let (mut cur, mut next) = l.time(Call::Device, || {
            (dev.alloc_from(&ext0), dev.alloc_from(&ext0))
        });
        for _ in 0..self.steps / runner.fusion() {
            l.time(Call::App, || {
                exec.try_run_application(&mut dev, cur, next, None)
            })
            .map_err(err)?;
            std::mem::swap(&mut cur, &mut next);
        }
        let ext = l.time(Call::Device, || dev.take_buffer(cur));
        let mut out = self.grid.clone();
        l.time(Call::Layout, || exec.plan.extract_into(&ext, &mut out));
        let mut extra = Vec::new();
        if self.checked {
            let trace = l.time(Call::Device, || dev.take_trace());
            l.time(Call::TraceEncode, || trace.to_jsonl());
            extra.push(("tcu_sim.trace_spans", trace.len() as f64));
        }
        let section_secs = start.elapsed().as_secs_f64();
        let section_calls_secs = l.secs_since(0);
        if self.checked {
            let ratio = l.total(Call::App) / self.plain_app_secs(&exec, &ext0)?;
            extra.push(("tcu_sim.sanitizer_overhead", ratio));
        }
        Ok(Replay {
            ledger: l,
            section_secs,
            section_calls_secs,
            output: out.interior(),
            counters: dev.counters,
            launches: dev.launch_stats,
            extra,
        })
    }
}
