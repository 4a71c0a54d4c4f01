//! `box3d-job`: Box-3D27P as a `Runtime` job on two devices. Device 0
//! dies at launch attempt 3, so the job migrates; it checkpoints every 2
//! steps, halts after 2 checkpoints and is then resumed to completion.

use super::{err, secs_of, timed, Checked, Replay, TempDir, Timed, Workload};
use crate::ledger::{Call, Ledger};
use convstencil::{ConvStencil3D, ConvStencilError, Exec3D};
use convstencil_runtime::{
    load_latest, Checkpoint, Job, JobEvent, JobOutcome, JobPayload, Runtime, RuntimeConfig,
};
use std::time::Instant;
use stencil_core::{Grid3D, Kernel3D, Shape};
use tcu_sim::{Counters, Device, FaultPlan, LaunchStats};

const NAME: &str = "box3d";
const STEPS: u64 = 8;
const EVERY: u64 = 2;
const HALT_AFTER: u64 = 2;
const DEATH_AT: u64 = 3;

pub struct Box3dJob {
    kernel: Kernel3D,
    runner: ConvStencil3D,
    fault: FaultPlan,
    grid: Grid3D,
    reference: Vec<f64>,
}

/// Both halves of one job plus the checkpoint directory they used.
pub struct JobRun {
    first: JobOutcome,
    resumed: JobOutcome,
    warnings: Vec<String>,
    dir: TempDir,
}

impl Box3dJob {
    pub fn new(seed: u64) -> Result<Self, String> {
        let kernel = Shape::Box3D27P
            .kernel3d()
            .ok_or("Box-3D27P has no 3D kernel")?;
        let runner = ConvStencil3D::try_new(kernel.clone()).map_err(err)?;
        let mut grid = Grid3D::new(16, 256, 256, kernel.radius());
        grid.fill_random(seed);
        let reference = runner.run_reference(&grid, STEPS as usize).interior();
        Ok(Self {
            kernel,
            runner,
            fault: FaultPlan::quiet(seed).with_device_death_at(DEATH_AT),
            grid,
            reference,
        })
    }

    fn config(&self, dir: &TempDir, halt: Option<u64>) -> RuntimeConfig {
        RuntimeConfig {
            devices: 2,
            device_faults: vec![Some(self.fault)],
            checkpoint_every: EVERY,
            checkpoint_dir: Some(dir.0.clone()),
            halt_after_checkpoints: halt,
            ..RuntimeConfig::default()
        }
    }

    fn job(&self, runner: ConvStencil3D, grid: Grid3D) -> Job {
        Job {
            name: NAME.to_string(),
            payload: JobPayload::D3 { runner, grid },
            steps: STEPS,
        }
    }

    /// A runtime holding the submitted job, checkpointing into a fresh
    /// directory and halting after [`HALT_AFTER`] checkpoints.
    fn submitted(&self) -> Result<(Runtime, TempDir), String> {
        let dir = TempDir::fresh();
        let mut rt = Runtime::new(self.config(&dir, Some(HALT_AFTER)));
        rt.submit(self.job(self.runner.clone(), self.grid.clone()))
            .map_err(err)?;
        Ok((rt, dir))
    }

    fn run_job(rt: &mut Runtime) -> Result<JobOutcome, String> {
        rt.run_next().ok_or("the job queue is empty")?.map_err(err)
    }

    fn resume(&self, dir: &TempDir) -> Result<(JobOutcome, Vec<String>), String> {
        Runtime::new(self.config(dir, None))
            .resume(Some(NAME))
            .map_err(err)
    }

    /// One chunk on `dev`, as the job's `ConvStencil3D::try_run_on_device`
    /// runs it, with every public call timed.
    fn chunk(
        &self,
        l: &mut Ledger,
        dev: &mut Device,
        grid: &Grid3D,
        steps: u64,
    ) -> Result<Grid3D, ConvStencilError> {
        let (d, m, n) = (grid.depth(), grid.rows(), grid.cols());
        let exec = l.time(Call::Plan, || {
            Exec3D::try_new(&self.kernel, d, m, n, self.runner.variant())
        })?;
        let ext0 = l.time(Call::Layout, || exec.try_build_ext(grid))?;
        let (mut cur, mut next) = l.time(Call::Device, || {
            (dev.alloc_from(&ext0), dev.alloc_from(&ext0))
        });
        for _ in 0..steps {
            l.time(Call::App, || exec.try_run_application(dev, cur, next, None))?;
            std::mem::swap(&mut cur, &mut next);
        }
        let ext = l.time(Call::Device, || dev.take_buffer(cur));
        let mut out = grid.clone();
        l.time(Call::Layout, || exec.extract_into(&ext, &mut out));
        Ok(out)
    }

    /// The job's device work chunk by chunk, migrating off a dead device
    /// the way the runtime's ladder does. Returns the final grid and the
    /// ledger summed over both devices.
    fn replay_chunks(&self, l: &mut Ledger) -> Result<(Grid3D, Counters, LaunchStats), String> {
        let mut devs = l.time(Call::Device, || {
            [
                self.runner.pool_device(Some(self.fault)),
                self.runner.pool_device(None),
            ]
        });
        let (mut active, mut done) = (0, 0);
        let mut grid = self.grid.clone();
        while done < STEPS {
            let steps = EVERY.min(STEPS - done);
            match self.chunk(l, &mut devs[active], &grid, steps) {
                Ok(out) => {
                    grid = out;
                    done += steps;
                }
                Err(ConvStencilError::Device(_)) if devs[active].is_dead() && active == 0 => {
                    active = 1;
                }
                Err(e) => return Err(err(e)),
            }
        }
        let mut launches = devs[0].launch_stats;
        launches.merge(&devs[1].launch_stats);
        Ok((grid, devs[0].counters + devs[1].counters, launches))
    }
}

/// Job steps divided by the steps the devices ran, failed chunks included.
fn useful_step_ratio(first: &JobOutcome, resumed: &JobOutcome) -> f64 {
    let (mut pos, mut ran) = (0, 0);
    let chunk_at = |step: u64| EVERY.min(STEPS - step);
    for event in first.report.events.iter().chain(&resumed.report.events) {
        match *event {
            JobEvent::ChunkCompleted { steps_done, .. } => {
                ran += steps_done - pos;
                pos = steps_done;
            }
            JobEvent::Resumed { step } => pos = step,
            JobEvent::Migrated { at_step, .. } => ran += chunk_at(at_step),
            JobEvent::RetriedSameDevice { .. } => ran += chunk_at(pos),
            _ => {}
        }
    }
    STEPS as f64 / ran.max(1) as f64
}

impl Workload for Box3dJob {
    type Out = JobRun;

    fn point_updates(&self) -> u64 {
        (self.grid.depth() * self.grid.rows() * self.grid.cols()) as u64 * STEPS
    }

    fn reference(&self) -> &[f64] {
        &self.reference
    }

    fn setup_secs(&mut self) -> Result<f64, String> {
        let (kernel, grid, dir) = (self.kernel.clone(), self.grid.clone(), TempDir::fresh());
        let config = self.config(&dir, Some(HALT_AFTER));
        let (d, m, n) = (grid.depth(), grid.rows(), grid.cols());
        let mut rt = None;
        let secs = secs_of(|| {
            let runner = ConvStencil3D::try_new(kernel).map_err(err)?;
            Exec3D::try_new(runner.base_kernel(), d, m, n, runner.variant()).map_err(err)?;
            let runtime = rt.insert(Runtime::new(config));
            runtime.submit(self.job(runner, grid)).map_err(err)
        })?;
        // The grid the job owns is freed outside the timed region.
        drop(rt);
        Ok(secs)
    }

    fn run(&mut self) -> Result<Timed<Self::Out>, String> {
        let (mut rt, dir) = self.submitted()?;
        timed(|| {
            let first = Self::run_job(&mut rt)?;
            let (resumed, warnings) = self.resume(&dir)?;
            Ok(JobRun {
                first,
                resumed,
                warnings,
                dir,
            })
        })
    }

    fn check(&mut self, run: Self::Out) -> Result<Checked, String> {
        let (first, resumed) = (&run.first.report, &run.resumed.report);
        let as_expected = run.first.halted
            && first.steps_done == EVERY * HALT_AFTER
            && !run.resumed.halted
            && resumed.steps_done == STEPS
            && resumed.resumed_from_step == Some(EVERY * HALT_AFTER)
            && resumed.migrations == 1
            && resumed.checkpoints_written == STEPS / EVERY
            && !resumed.degraded
            && run.warnings.is_empty()
            && run.dir.files()?.len() as u64 == STEPS / EVERY;
        if !as_expected {
            return Err(format!(
                "job did not halt, migrate, checkpoint and resume as planned: {resumed:?} warnings {:?}",
                run.warnings
            ));
        }
        let modeled_s = resumed.modeled_cost_ms / 1e3;
        Ok(Checked {
            output: run.resumed.payload.interior(),
            counters: resumed.counters,
            launches: resumed.launch_stats,
            model_gstencils_per_s: self.point_updates() as f64 / modeled_s / 1e9,
        })
    }

    fn replay(&mut self) -> Result<Replay, String> {
        let mut l = Ledger::default();
        let (mut rt, dir) = self.submitted()?;
        let start = Instant::now();
        let first = l.time(Call::Job, || Self::run_job(&mut rt))?;
        l.time(Call::CkptLoad, || load_latest(&dir.0, Some(NAME)))
            .map_err(err)?;
        let (resumed, _) = l.time(Call::Job, || self.resume(&dir))?;
        let section_secs = start.elapsed().as_secs_f64();
        let section_calls_secs = l.secs_since(0);

        // Probes outside the replayed path: the device chunks, then a
        // re-save of every checkpoint the job wrote.
        let chunks_from = l.mark();
        let (grid, counters, launches) = self.replay_chunks(&mut l)?;
        let chunk_secs = l.secs_since(chunks_from);
        let (resave, mut bytes) = (TempDir::fresh(), 0);
        for path in dir.files()? {
            bytes += std::fs::metadata(&path).map_err(err)?.len();
            let ck = Checkpoint::load(&path).map_err(err)?;
            l.time(Call::CkptSave, || ck.save(&resave.0)).map_err(err)?;
        }
        let (save, load) = (l.total(Call::CkptSave), l.total(Call::CkptLoad));
        let report = &resumed.report;
        let extra = vec![
            ("runtime.ckpt_save_s", save),
            ("runtime.ckpt_load_s", load),
            ("runtime.ckpt_mib", bytes as f64 / (1u64 << 20) as f64),
            (
                "runtime.self_s",
                l.total(Call::Job) - chunk_secs - save - load,
            ),
            ("runtime.checkpoints", report.checkpoints_written as f64),
            ("runtime.migrations", report.migrations as f64),
            (
                "runtime.useful_step_ratio",
                useful_step_ratio(&first, &resumed),
            ),
        ];
        Ok(Replay {
            ledger: l,
            section_secs,
            section_calls_secs,
            output: grid.interior(),
            counters,
            launches,
            extra,
        })
    }
}
