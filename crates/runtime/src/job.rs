//! The resilient job runtime.
//!
//! Turns the one-shot `ConvStencil{1,2,3}D::run` entry points into jobs
//! executed on a [`DevicePool`] with a per-chunk degradation ladder:
//!
//! 1. **retry on the same device** — advance its fault epoch and rerun
//!    the chunk (the PR 1 verified-retry move);
//! 2. **circuit-break and migrate** — record the failure on the slot's
//!    breaker and replay the chunk on another healthy device from the
//!    last committed grid (the in-memory equivalent of the newest
//!    checkpoint);
//! 3. **degrade to the CPU reference backend** — when no healthy device
//!    remains, the rest of the job completes on the bit-faithful
//!    reference decomposition.
//!
//! Work proceeds in *chunks* of `checkpoint_every` timesteps. A chunk
//! either commits whole (grid replaced, counters accumulated, checkpoint
//! written) or not at all, so deadline cancellation and crashes always
//! leave a consistent last checkpoint. Deadlines — host wall clock and
//! the deterministic cost-model budget — are only checked *between*
//! chunks, never mid-launch.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::checkpoint::{load_latest, Checkpoint, DeviceCursor};
use crate::pool::{DevicePool, DeviceSlot};
use convstencil::{
    check_samples, ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, ConvStencilError,
    DeadlineKind, Dim, VariantConfig, VerifyConfig, D1, D2, D3,
};
use stencil_core::{Boundary, Grid1D, Grid2D, Grid3D};
use tcu_sim::{CostModel, Counters, Device, FaultPlan, LaunchStats, SanitizerReport};

/// Runtime-wide configuration (shared by every job the runtime executes).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Pool size. Clamped to at least 1.
    pub devices: usize,
    /// Per-slot fault-plan overrides; slots beyond the vector get `None`
    /// (quiet device).
    pub device_faults: Vec<Option<FaultPlan>>,
    pub breaker: BreakerConfig,
    /// Bounded job queue capacity; submissions beyond it are rejected
    /// with [`ConvStencilError::QueueFull`].
    pub queue_capacity: usize,
    /// Chunk size in timesteps; also the checkpoint cadence when
    /// `checkpoint_dir` is set. `0` means "one chunk for the whole job".
    pub checkpoint_every: u64,
    /// Where checkpoints go; `None` disables checkpointing (chunking
    /// still applies for deadlines and migration granularity).
    pub checkpoint_dir: Option<PathBuf>,
    /// Host wall-clock budget, checked between chunks.
    pub wall_budget_ms: Option<u64>,
    /// Cost-model (modelled seconds, Eq. 2) budget in milliseconds,
    /// checked between chunks. Deterministic: simulated hangs charge
    /// stall cycles that land here.
    pub cost_budget_ms: Option<u64>,
    /// When set, every chunk is spot-checked against the CPU reference
    /// (silent corruption then joins launch failures in the ladder).
    pub verify: Option<VerifyConfig>,
    /// Same-device retries per chunk before the failure is recorded on
    /// the breaker and the job migrates.
    pub max_retries_per_device: u64,
    /// Test hook: stop cleanly (outcome `halted = true`) after this many
    /// checkpoints have been written, simulating a crash whose last act
    /// was a completed checkpoint.
    pub halt_after_checkpoints: Option<u64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            device_faults: Vec::new(),
            breaker: BreakerConfig::default(),
            queue_capacity: 8,
            checkpoint_every: 0,
            checkpoint_dir: None,
            wall_budget_ms: None,
            cost_budget_ms: None,
            verify: None,
            max_retries_per_device: 1,
            halt_after_checkpoints: None,
        }
    }
}

/// A job's stencil problem: a planned runner plus the grid it advances.
#[derive(Debug, Clone)]
pub enum JobPayload {
    D1 { runner: ConvStencil1D, grid: Grid1D },
    D2 { runner: ConvStencil2D, grid: Grid2D },
    D3 { runner: ConvStencil3D, grid: Grid3D },
}

/// A [`Dim`] a job can run in: maps a runner and grid onto the matching
/// [`JobPayload`] variant (the inverse of the payload's one dimension
/// dispatch).
pub trait JobDim: Dim {
    fn payload(runner: ConvStencil<Self>, grid: Self::Grid) -> JobPayload;
}

impl JobDim for D1 {
    fn payload(runner: ConvStencil1D, grid: Grid1D) -> JobPayload {
        JobPayload::D1 { runner, grid }
    }
}

impl JobDim for D2 {
    fn payload(runner: ConvStencil2D, grid: Grid2D) -> JobPayload {
        JobPayload::D2 { runner, grid }
    }
}

impl JobDim for D3 {
    fn payload(runner: ConvStencil3D, grid: Grid3D) -> JobPayload {
        JobPayload::D3 { runner, grid }
    }
}

/// Everything the job loop does to a payload, with the dimension erased.
/// Operations that advance the grid return the advanced payload, so the
/// caller commits it only on success.
trait Problem {
    fn dim(&self) -> u8;
    fn interior(&self) -> Vec<f64>;
    fn pool_device(&self, plan: Option<FaultPlan>) -> Device;
    /// Run one chunk on `dev`. With a verify config, the output is
    /// spot-checked against the reference decomposition of the same
    /// chunk.
    fn try_chunk_on(
        &self,
        dev: &mut Device,
        steps: usize,
        verify: Option<&VerifyConfig>,
    ) -> Result<JobPayload, ConvStencilError>;
    /// Run one chunk on the CPU reference backend (always succeeds).
    fn reference_chunk(&self, steps: usize) -> JobPayload;
    /// Base kernel radius and weights, fusion degree, boundary, variant.
    fn plan_fields(&self) -> (usize, Vec<f64>, usize, Boundary, VariantConfig);
    /// Interior extents, halo width, padded storage.
    fn grid_fields(&self) -> (Vec<usize>, usize, Vec<f64>);
}

struct View<'a, D: Dim> {
    runner: &'a ConvStencil<D>,
    grid: &'a D::Grid,
}

impl<D: JobDim> Problem for View<'_, D> {
    fn dim(&self) -> u8 {
        D::N
    }

    fn interior(&self) -> Vec<f64> {
        D::interior(self.grid)
    }

    fn pool_device(&self, plan: Option<FaultPlan>) -> Device {
        self.runner.pool_device(plan)
    }

    fn try_chunk_on(
        &self,
        dev: &mut Device,
        steps: usize,
        verify: Option<&VerifyConfig>,
    ) -> Result<JobPayload, ConvStencilError> {
        let out = self.runner.try_run_on_device(dev, self.grid, steps)?;
        if let Some(cfg) = verify {
            let want = self.runner.run_reference(self.grid, steps);
            check_samples(&D::interior(&out), &D::interior(&want), cfg)
                .map_err(|source| ConvStencilError::VerificationFailed { retries: 0, source })?;
        }
        Ok(D::payload(self.runner.clone(), out))
    }

    fn reference_chunk(&self, steps: usize) -> JobPayload {
        let out = self.runner.run_reference(self.grid, steps);
        D::payload(self.runner.clone(), out)
    }

    fn plan_fields(&self) -> (usize, Vec<f64>, usize, Boundary, VariantConfig) {
        let kernel = self.runner.base_kernel();
        (
            D::radius(kernel),
            D::weights(kernel).to_vec(),
            self.runner.fusion(),
            self.runner.boundary(),
            self.runner.variant(),
        )
    }

    fn grid_fields(&self) -> (Vec<usize>, usize, Vec<f64>) {
        (
            D::extents(self.grid),
            D::halo(self.grid),
            D::padded(self.grid).to_vec(),
        )
    }
}

/// Rebuild a `D`-dimensional payload from a checkpoint (see
/// [`JobPayload::from_checkpoint`]).
fn restore<D: JobDim>(
    ck: &Checkpoint,
    boundary: Boundary,
    variant: VariantConfig,
) -> Result<JobPayload, ConvStencilError> {
    let want = (2 * ck.radius + 1).pow(u32::from(D::N));
    if ck.weights.len() != want {
        return Err(bad_checkpoint(
            ck,
            format!(
                "{}D kernel wants {want} weights, checkpoint has {}",
                D::N,
                ck.weights.len()
            ),
        ));
    }
    let [tracing, sanitize, pooling] = ck.flags;
    let runner =
        ConvStencil::<D>::try_with_fusion(D::new_kernel(ck.radius, ck.weights.clone()), ck.fusion)?
            .with_variant(variant)
            .with_boundary(boundary)
            .with_tracing(tracing)
            .with_sanitizer(sanitize)
            .with_scratch_pooling(pooling);
    let mut grid = D::new_grid(&ck.grid_dims, ck.grid_halo);
    let padded = D::padded_mut(&mut grid);
    if padded.len() != ck.grid_data.len() {
        return Err(bad_checkpoint(
            ck,
            format!(
                "grid storage wants {} values, checkpoint has {}",
                padded.len(),
                ck.grid_data.len()
            ),
        ));
    }
    padded.copy_from_slice(&ck.grid_data);
    Ok(D::payload(runner, grid))
}

fn bad_checkpoint(ck: &Checkpoint, reason: String) -> ConvStencilError {
    ConvStencilError::ArtifactRead {
        path: Checkpoint::file_name(&ck.job, ck.steps_done),
        reason,
    }
}

impl JobPayload {
    /// The one dimension dispatch: hand the runner and grid to generic
    /// code through the dimension-erased [`Problem`] view.
    fn with_problem<R>(&self, f: impl FnOnce(&dyn Problem) -> R) -> R {
        match self {
            JobPayload::D1 { runner, grid } => f(&View { runner, grid }),
            JobPayload::D2 { runner, grid } => f(&View { runner, grid }),
            JobPayload::D3 { runner, grid } => f(&View { runner, grid }),
        }
    }

    pub fn dim(&self) -> u8 {
        self.with_problem(|p| p.dim())
    }

    /// Flat interior values of the current grid (test/inspection helper).
    pub fn interior(&self) -> Vec<f64> {
        self.with_problem(|p| p.interior())
    }

    /// Rebuild a payload (runner + grid) from a checkpoint. The runner
    /// keeps the default device config of the current build; everything
    /// that shapes the numerics — kernel, fusion, variant, boundary,
    /// grid bits — comes from the checkpoint.
    pub fn from_checkpoint(ck: &Checkpoint) -> Result<Self, ConvStencilError> {
        let boundary = match ck.boundary.as_str() {
            "dirichlet" => Boundary::Dirichlet,
            "periodic" => Boundary::Periodic,
            other => return Err(bad_checkpoint(ck, format!("unknown boundary {other:?}"))),
        };
        let variant = VariantConfig {
            explicit_global: ck.variant[0],
            use_tcu: ck.variant[1],
            padding: ck.variant[2],
            dirty_bits_lut: ck.variant[3],
        };
        match ck.dim {
            1 => restore::<D1>(ck, boundary, variant),
            2 => restore::<D2>(ck, boundary, variant),
            3 => restore::<D3>(ck, boundary, variant),
            other => Err(bad_checkpoint(ck, format!("unsupported dim {other}"))),
        }
    }
}

/// A queued unit of work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Checkpoint file prefix; restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    pub payload: JobPayload,
    pub steps: u64,
}

/// Everything that happened while executing one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    ChunkCompleted {
        device: usize,
        steps_done: u64,
    },
    RetriedSameDevice {
        device: usize,
        attempt: u64,
    },
    BreakerOpened {
        device: usize,
    },
    Migrated {
        from: usize,
        to: usize,
        at_step: u64,
    },
    CheckpointWritten {
        step: u64,
    },
    Resumed {
        step: u64,
    },
    DegradedToReference {
        at_step: u64,
    },
    Halted {
        step: u64,
    },
}

/// Aggregated report for one job (the runtime analog of `RunReport`).
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Event ledger summed over every chunk attempt on every device
    /// (including failed attempts — the work happened).
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    pub steps_total: u64,
    pub steps_done: u64,
    /// Chunk replays that moved to a different device.
    pub migrations: u64,
    /// True once any part of the job ran on the CPU reference backend.
    pub degraded: bool,
    pub checkpoints_written: u64,
    /// `Some(step)` when this execution continued from a checkpoint.
    pub resumed_from_step: Option<u64>,
    /// Failed chunk attempts (device faults + verification mismatches).
    pub faults_detected: u64,
    /// Same-device retries performed.
    pub retries: u64,
    /// Modelled cost of all accumulated work, in milliseconds (Eq. 2
    /// over the aggregated ledger — this is what the cost deadline
    /// compares against).
    pub modeled_cost_ms: f64,
    /// Aggregated sanitizer totals when the runner has the sanitizer on.
    pub sanitizer: Option<SanitizerReport>,
    /// Ordered ladder/lifecycle events, for observability and tests.
    pub events: Vec<JobEvent>,
}

/// A finished (or cleanly halted) job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub name: String,
    /// Final payload; its grid holds the advanced state.
    pub payload: JobPayload,
    pub report: JobReport,
    /// True when the run stopped at the `halt_after_checkpoints` hook
    /// rather than completing `steps_total`.
    pub halted: bool,
}

/// Ledger delta between two snapshots of the same device.
fn counters_delta(before: &Counters, after: &Counters) -> Counters {
    let mut delta = Counters::default();
    for ((name, a), (_, b)) in after.field_pairs().iter().zip(before.field_pairs().iter()) {
        delta.set_field(name, a.saturating_sub(*b));
    }
    delta
}

fn launch_delta(before: &LaunchStats, after: &LaunchStats) -> LaunchStats {
    LaunchStats {
        kernel_launches: after.kernel_launches.saturating_sub(before.kernel_launches),
        total_blocks: after.total_blocks.saturating_sub(before.total_blocks),
    }
}

/// Failures the degradation ladder absorbs; anything else propagates.
fn is_ladder_error(e: &ConvStencilError) -> bool {
    matches!(
        e,
        ConvStencilError::Device(_) | ConvStencilError::VerificationFailed { .. }
    )
}

fn validate_job_name(name: &str) -> Result<(), ConvStencilError> {
    if !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        Ok(())
    } else {
        Err(ConvStencilError::PlanInvariant {
            reason: format!(
                "job name {name:?} must be non-empty and use only [A-Za-z0-9._-] \
                 (it becomes a checkpoint file prefix)"
            ),
        })
    }
}

/// The runtime: a bounded job queue in front of a device pool.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    queue: VecDeque<Job>,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            config,
            queue: VecDeque::new(),
        }
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admission control: rejects beyond `queue_capacity` with
    /// [`ConvStencilError::QueueFull`] instead of growing unboundedly.
    pub fn submit(&mut self, job: Job) -> Result<(), ConvStencilError> {
        validate_job_name(&job.name)?;
        if self.queue.len() >= self.config.queue_capacity {
            return Err(ConvStencilError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        self.queue.push_back(job);
        Ok(())
    }

    /// Execute the oldest queued job; `None` when the queue is empty.
    pub fn run_next(&mut self) -> Option<Result<JobOutcome, ConvStencilError>> {
        let job = self.queue.pop_front()?;
        Some(self.execute(job.name, job.payload, job.steps, None))
    }

    /// Execute every queued job in FIFO order.
    pub fn drain(&mut self) -> Vec<Result<JobOutcome, ConvStencilError>> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(res) = self.run_next() {
            out.push(res);
        }
        out
    }

    /// Continue a job from the newest valid checkpoint in the configured
    /// checkpoint directory (skipping corrupt/truncated files with a
    /// warning). Returns the outcome plus the skip warnings.
    pub fn resume(&self, job: Option<&str>) -> Result<(JobOutcome, Vec<String>), ConvStencilError> {
        let dir =
            self.config
                .checkpoint_dir
                .as_ref()
                .ok_or_else(|| ConvStencilError::PlanInvariant {
                    reason: "resume needs a checkpoint_dir in the runtime config".to_string(),
                })?;
        let (ck, warnings) = load_latest(dir, job)?;
        let payload = JobPayload::from_checkpoint(&ck)?;
        let name = ck.job.clone();
        let steps = ck.steps_total;
        let outcome = self.execute(name, payload, steps, Some(ck))?;
        Ok((outcome, warnings))
    }

    /// Run one job to completion (or clean halt) through the ladder.
    fn execute(
        &self,
        name: String,
        mut payload: JobPayload,
        steps_total: u64,
        resume: Option<Checkpoint>,
    ) -> Result<JobOutcome, ConvStencilError> {
        validate_job_name(&name)?;
        let started = Instant::now();
        let n_dev = self.config.devices.max(1);

        // Build the pool. On resume, each slot gets the checkpointed fault
        // plan and its fault cursor (epoch, launch attempts, dead flag) is
        // restored, so the deterministic fault streams continue exactly
        // where the interrupted run stopped.
        let mut slots = Vec::with_capacity(n_dev);
        for id in 0..n_dev {
            let cursor = resume.as_ref().and_then(|ck| ck.devices.get(id));
            let plan = match cursor {
                Some(c) => c.plan,
                None => self.config.device_faults.get(id).copied().flatten(),
            };
            let mut device = payload.with_problem(|p| p.pool_device(plan));
            let mut breaker = CircuitBreaker::new(self.config.breaker);
            if let Some(c) = cursor {
                device.restore_fault_cursor(c.fault_epoch, c.launch_attempts, c.dead);
                breaker = CircuitBreaker::restore(self.config.breaker, c.breaker);
            }
            slots.push(DeviceSlot {
                id,
                device,
                plan,
                breaker,
            });
        }
        let mut pool = DevicePool::new(slots);

        let mut report = JobReport {
            steps_total,
            ..JobReport::default()
        };
        let mut steps_done = 0u64;
        let sanitizing = pool.slot(0).device.sanitizing();
        if sanitizing {
            report.sanitizer = Some(SanitizerReport::default());
        }
        if let Some(ck) = &resume {
            pool.restore_completed(ck.pool_completed);
            steps_done = ck.steps_done;
            report.steps_done = steps_done;
            report.counters = ck.counters;
            report.launch_stats = ck.launch_stats;
            report.migrations = ck.migrations;
            report.degraded = ck.degraded;
            report.checkpoints_written = ck.checkpoints_written;
            report.faults_detected = ck.faults_detected;
            report.retries = ck.retries;
            report.resumed_from_step = Some(ck.steps_done);
            if let (Some(agg), Some(saved)) = (&mut report.sanitizer, &ck.sanitizer) {
                agg.merge(saved.clone());
            }
            report.events.push(JobEvent::Resumed { step: steps_done });
        }

        let cost_model = CostModel::new(pool.slot(0).device.config.clone());
        // Resume continues on the checkpointed active device (an
        // uninterrupted run never re-consults the breaker of the device
        // it is already on, so neither does a resumed one); otherwise
        // pick the lowest-id healthy slot.
        let resumed_active = resume
            .as_ref()
            .and_then(|ck| ck.active_device)
            .filter(|&id| id < pool.len() && !pool.slot(id).device.is_dead());
        let mut active = if report.degraded {
            None
        } else if resumed_active.is_some() {
            resumed_active
        } else {
            pool.pick_healthy(None)
        };
        if active.is_none() && !report.degraded {
            report.degraded = true;
            report.events.push(JobEvent::DegradedToReference {
                at_step: steps_done,
            });
        }

        while steps_done < steps_total {
            // Deadlines: between chunks only, so the last checkpoint (and
            // the committed grid) is always a consistent cut.
            if let Some(budget) = self.config.wall_budget_ms {
                let observed = started.elapsed().as_millis() as u64;
                if observed > budget {
                    return Err(ConvStencilError::DeadlineExceeded {
                        kind: DeadlineKind::Wall,
                        budget_ms: budget,
                        observed_ms: observed,
                        completed_steps: steps_done,
                    });
                }
            }
            if let Some(budget) = self.config.cost_budget_ms {
                let cost = cost_model.evaluate(&report.counters, &report.launch_stats);
                let observed = (cost.total * 1000.0).round() as u64;
                if observed > budget {
                    return Err(ConvStencilError::DeadlineExceeded {
                        kind: DeadlineKind::CostModel,
                        budget_ms: budget,
                        observed_ms: observed,
                        completed_steps: steps_done,
                    });
                }
            }

            let remaining = steps_total - steps_done;
            let chunk = if self.config.checkpoint_every == 0 {
                remaining
            } else {
                self.config.checkpoint_every.min(remaining)
            };

            // The ladder for this chunk. `payload` only commits on
            // success, so every rung replays from the last committed
            // state.
            let mut retries_here = 0u64;
            loop {
                let Some(slot_id) = active else {
                    payload = payload.with_problem(|p| p.reference_chunk(chunk as usize));
                    if !report.degraded {
                        report.degraded = true;
                        report.events.push(JobEvent::DegradedToReference {
                            at_step: steps_done,
                        });
                    }
                    break;
                };
                let slot = pool.slot_mut(slot_id);
                let counters_before = slot.device.counters;
                let launches_before = slot.device.launch_stats;
                let res = payload
                    .with_problem(|p| {
                        p.try_chunk_on(
                            &mut slot.device,
                            chunk as usize,
                            self.config.verify.as_ref(),
                        )
                    })
                    .map(|advanced| payload = advanced);
                // Attempted work is real work: accumulate its ledger and
                // sanitizer findings whether or not the chunk committed.
                report.counters += counters_delta(&counters_before, &slot.device.counters);
                report.launch_stats = merged(
                    &report.launch_stats,
                    &launch_delta(&launches_before, &slot.device.launch_stats),
                );
                if sanitizing {
                    if let Some(agg) = &mut report.sanitizer {
                        agg.merge(slot.device.take_sanitizer_report());
                    }
                }
                match res {
                    Ok(()) => {
                        pool.record_success(slot_id);
                        report.events.push(JobEvent::ChunkCompleted {
                            device: slot_id,
                            steps_done: steps_done + chunk,
                        });
                        break;
                    }
                    Err(e) if is_ladder_error(&e) => {
                        report.faults_detected += 1;
                        let dead = pool.slot(slot_id).device.is_dead();
                        if !dead && retries_here < self.config.max_retries_per_device {
                            retries_here += 1;
                            report.retries += 1;
                            pool.slot_mut(slot_id).device.advance_fault_epoch();
                            report.events.push(JobEvent::RetriedSameDevice {
                                device: slot_id,
                                attempt: retries_here,
                            });
                            continue;
                        }
                        if pool.record_failure(slot_id) {
                            report
                                .events
                                .push(JobEvent::BreakerOpened { device: slot_id });
                        }
                        match pool.pick_healthy(Some(slot_id)) {
                            Some(next) => {
                                report.migrations += 1;
                                report.events.push(JobEvent::Migrated {
                                    from: slot_id,
                                    to: next,
                                    at_step: steps_done,
                                });
                                active = Some(next);
                                retries_here = 0;
                                continue;
                            }
                            None => {
                                active = None;
                                continue;
                            }
                        }
                    }
                    Err(other) => return Err(other),
                }
            }

            steps_done += chunk;
            report.steps_done = steps_done;

            if let Some(dir) = &self.config.checkpoint_dir {
                let ck = self.snapshot(
                    &name,
                    &payload,
                    steps_total,
                    steps_done,
                    &report,
                    &pool,
                    active,
                );
                ck.save(dir)?;
                report.checkpoints_written += 1;
                report
                    .events
                    .push(JobEvent::CheckpointWritten { step: steps_done });
                if let Some(halt_after) = self.config.halt_after_checkpoints {
                    // Count only checkpoints written by *this* execution,
                    // so a resumed run gets its own halt budget.
                    let written_here = report
                        .events
                        .iter()
                        .filter(|e| matches!(e, JobEvent::CheckpointWritten { .. }))
                        .count() as u64;
                    if written_here >= halt_after && steps_done < steps_total {
                        report.events.push(JobEvent::Halted { step: steps_done });
                        report.modeled_cost_ms = cost_model
                            .evaluate(&report.counters, &report.launch_stats)
                            .total
                            * 1000.0;
                        return Ok(JobOutcome {
                            name,
                            payload,
                            report,
                            halted: true,
                        });
                    }
                }
            }
        }

        report.modeled_cost_ms = cost_model
            .evaluate(&report.counters, &report.launch_stats)
            .total
            * 1000.0;
        Ok(JobOutcome {
            name,
            payload,
            report,
            halted: false,
        })
    }

    /// Snapshot the complete job state as a checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        name: &str,
        payload: &JobPayload,
        steps_total: u64,
        steps_done: u64,
        report: &JobReport,
        pool: &DevicePool,
        active: Option<usize>,
    ) -> Checkpoint {
        let (radius, weights, fusion, boundary, variant) =
            payload.with_problem(|p| p.plan_fields());
        let (grid_dims, grid_halo, grid_data) = payload.with_problem(|p| p.grid_fields());
        let slot0 = &pool.slot(0).device;
        Checkpoint {
            job: name.to_string(),
            dim: payload.dim(),
            radius,
            weights,
            fusion,
            boundary: match boundary {
                Boundary::Dirichlet => "dirichlet".to_string(),
                Boundary::Periodic => "periodic".to_string(),
            },
            variant: [
                variant.explicit_global,
                variant.use_tcu,
                variant.padding,
                variant.dirty_bits_lut,
            ],
            flags: [slot0.tracing(), slot0.sanitizing(), slot0.scratch_pooling()],
            steps_total,
            steps_done,
            checkpoint_every: self.config.checkpoint_every,
            grid_dims,
            grid_halo,
            grid_data,
            counters: report.counters,
            launch_stats: report.launch_stats,
            migrations: report.migrations,
            degraded: report.degraded,
            checkpoints_written: report.checkpoints_written + 1,
            faults_detected: report.faults_detected,
            retries: report.retries,
            pool_completed: pool.completed(),
            active_device: active,
            sanitizer: report.sanitizer.as_ref().map(|s| {
                let mut summary = SanitizerReport::default();
                summary.merge(s.clone());
                summary.violations.clear();
                summary.fault_sites.clear();
                summary
            }),
            devices: pool
                .slots()
                .iter()
                .map(|slot| DeviceCursor {
                    id: slot.id,
                    plan: slot.plan,
                    fault_epoch: slot.device.fault_epoch(),
                    launch_attempts: slot.device.launch_attempts(),
                    dead: slot.device.is_dead(),
                    breaker: slot.breaker.state(),
                })
                .collect(),
        }
    }
}

fn merged(a: &LaunchStats, b: &LaunchStats) -> LaunchStats {
    let mut out = *a;
    out.merge(b);
    out
}
