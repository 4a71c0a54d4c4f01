//! Device façade and kernel-launch machinery.
//!
//! A [`Device`] owns global memory, a cumulative event ledger, and launch
//! statistics. Kernels are Rust closures executed once per thread block via
//! [`Device::launch`]; each block gets a [`BlockCtx`] carrying its own
//! shared memory, its own counter ledger, and a buffered global write set.
//!
//! Semantics mirror a real GPU kernel with double buffering: global reads
//! observe the pre-launch state; writes retire when the launch completes
//! (applied in block order). Block bodies go through rayon's ordered
//! `map`, which runs contiguous runs of blocks on every host core and
//! returns the outcomes in block order. No block observes another's
//! writes, and retirement, the counter sum, the sanitizer merge and the
//! span fold all walk the outcomes in block order, so every output,
//! ledger, trace and report is bit-identical to a one-core run.

use crate::config::DeviceConfig;
use crate::cost::{CostBreakdown, CostModel, LaunchStats};
use crate::counters::Counters;
use crate::error::DeviceError;
use crate::fault::{self, FaultPlan, FaultState};
use crate::fragment::{dmma, hmma, FragA, FragAcc, FragB, Tile16};
use crate::global::{BufferId, GlobalMemory, INACTIVE};
use crate::sanitize::{SanitizerReport, ShadowState};
use crate::shared::SharedMemory;
use crate::trace::{Phase, Span, Trace};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

const PHASE_COUNT: usize = Phase::ALL.len();

/// A contiguous run of buffered global writes (compact representation of a
/// block's output). The values live in the block's [`WriteLog`] arena at
/// `[off, off + len)`.
#[derive(Debug, Clone, Copy)]
struct WriteRun {
    buf: BufferId,
    start: usize,
    off: usize,
    len: usize,
}

/// A block's buffered global writes: run metadata over one flat value
/// arena (one growable allocation per block instead of one `Vec` per
/// store), plus the single-element scatter list. Retirement replays
/// `runs` in push order, then `scatter` — the same order as the legacy
/// per-`Vec` representation, so results are unchanged.
#[derive(Debug, Default)]
struct WriteLog {
    runs: Vec<WriteRun>,
    data: Vec<f64>,
    scatter: Vec<(BufferId, usize, f64)>,
}

impl WriteLog {
    fn push_run(&mut self, buf: BufferId, start: usize, vals: &[f64]) {
        let off = self.data.len();
        self.data.extend_from_slice(vals);
        self.runs.push(WriteRun {
            buf,
            start,
            off,
            len: vals.len(),
        });
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.data.clear();
        self.scatter.clear();
    }
}

/// Recycled per-block working memory: shared-memory backing store,
/// sanitizer shadow vectors, and the tracing phase log. Returned to the
/// pool as soon as the block body finishes, so pooling holds no more live
/// shared memory at once than the unpooled path does.
#[derive(Debug, Default)]
struct BlockScratch {
    shared: Vec<f64>,
    written: Vec<bool>,
    exempt: Vec<bool>,
    marks: Vec<(Phase, Counters)>,
}

/// Free lists of per-block scratch reused across blocks and launches.
/// Mutexed for the parallel block loop; each block takes one lock on
/// entry and one on exit, so contention is negligible next to a block
/// body.
#[derive(Debug, Default)]
struct ScratchPool {
    blocks: Mutex<Vec<BlockScratch>>,
    logs: Mutex<Vec<WriteLog>>,
}

impl ScratchPool {
    fn take_block(&self) -> BlockScratch {
        self.blocks.lock().unwrap().pop().unwrap_or_default()
    }

    fn put_block(&self, scratch: BlockScratch) {
        self.blocks.lock().unwrap().push(scratch);
    }

    fn take_log(&self, data_hint: usize) -> WriteLog {
        self.logs.lock().unwrap().pop().unwrap_or_else(|| WriteLog {
            runs: Vec::new(),
            data: Vec::with_capacity(data_hint),
            scatter: Vec::new(),
        })
    }

    fn put_log(&self, mut log: WriteLog) {
        log.clear();
        self.logs.lock().unwrap().push(log);
    }
}

/// Per-block execution outcome.
struct BlockOutcome {
    counters: Counters,
    writes: WriteLog,
    /// Per-phase counter deltas (indexed by [`Phase::index`]); populated
    /// only when tracing is enabled.
    phases: Option<[Counters; PHASE_COUNT]>,
    /// Sanitizer findings; populated only when sanitizing is enabled.
    sanitizer: Option<SanitizerReport>,
}

/// The simulated device.
#[derive(Debug)]
pub struct Device {
    pub config: DeviceConfig,
    global: GlobalMemory,
    /// Cumulative event ledger across all launches.
    pub counters: Counters,
    /// Cumulative launch-shape statistics.
    pub launch_stats: LaunchStats,
    /// Active fault-injection plan, if any (see [`crate::fault`]).
    fault: Option<FaultPlan>,
    /// Retry generation: bumping this reshuffles every fault decision, so a
    /// retried launch sequence does not deterministically hit the same
    /// faults.
    fault_epoch: u64,
    /// Monotone count of `try_launch` calls, including ones that failed —
    /// the launch coordinate for fault decisions.
    launch_attempts: u64,
    /// Sticky device death: once set (by [`FaultPlan::die_at_launch`] or
    /// [`Device::kill`]), every launch returns
    /// [`DeviceError::DeviceLost`] until the device is replaced.
    dead: bool,
    /// Whether per-phase span tracing is active (see [`crate::trace`]).
    tracing: bool,
    /// Accumulated spans while tracing (drained with [`Device::take_trace`]).
    trace: Trace,
    /// Whether the dynamic sanitizer is active (see [`crate::sanitize`]).
    /// Off by default: no shadow memory is allocated and accesses pay one
    /// branch on a `None`.
    sanitize: bool,
    /// Accumulated sanitizer findings while sanitizing.
    sanitizer: SanitizerReport,
    /// Launch scratch pool (shared memory, shadow vectors, write logs)
    /// reused across blocks and launches while `pooling` is on.
    pool: ScratchPool,
    /// Whether launches draw per-block state from the scratch pool and
    /// retire write runs with bulk copies (on by default). Off = the
    /// legacy fresh-allocation, element-by-element reference path.
    pooling: bool,
    /// Capacity hint (f64 elements) for freshly pooled write arenas.
    write_hint: usize,
}

impl Device {
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            global: GlobalMemory::new(),
            counters: Counters::default(),
            launch_stats: LaunchStats::default(),
            fault: None,
            fault_epoch: 0,
            launch_attempts: 0,
            dead: false,
            tracing: false,
            trace: Trace::new(),
            sanitize: false,
            sanitizer: SanitizerReport::default(),
            pool: ScratchPool::default(),
            pooling: true,
            write_hint: 0,
        }
    }

    /// Device with the default A100 configuration.
    pub fn a100() -> Self {
        Self::new(DeviceConfig::a100())
    }

    /// Allocate a zeroed global buffer of `len` f64.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        self.global.alloc(len)
    }

    /// Allocate a global buffer initialised from host data.
    pub fn alloc_from(&mut self, data: &[f64]) -> BufferId {
        self.global.alloc_from(data)
    }

    /// Simulated device-to-host copy.
    pub fn download(&self, id: BufferId) -> &[f64] {
        self.global.download(id)
    }

    /// Simulated host-to-device copy.
    pub fn upload(&mut self, id: BufferId, data: &[f64]) {
        self.global.upload(id, data)
    }

    pub fn buffer_len(&self, id: BufferId) -> usize {
        self.global.buffer_len(id)
    }

    /// Move a buffer's contents out of device memory without copying —
    /// the zero-copy alternative to `download(id).to_vec()` for a final
    /// result the device will not touch again. The handle stays valid but
    /// the buffer is left empty.
    pub fn take_buffer(&mut self, id: BufferId) -> Vec<f64> {
        self.global.take(id)
    }

    /// Reset the ledgers (buffers are kept).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
        self.launch_stats = LaunchStats::default();
    }

    // ---- Scratch pooling ----------------------------------------------

    /// Enable or disable the launch scratch pool (on by default). While
    /// on, per-block shared memory, sanitizer shadows, phase logs, and
    /// write logs are recycled across blocks and launches, and buffered
    /// write runs retire via bulk slice copies. While off, every block
    /// allocates fresh state and writes retire element-by-element — the
    /// legacy reference path the equivalence tests compare against.
    /// Outputs, counters, traces, and sanitizer reports are bit-identical
    /// either way.
    pub fn set_scratch_pooling(&mut self, on: bool) {
        self.pooling = on;
    }

    pub fn scratch_pooling(&self) -> bool {
        self.pooling
    }

    /// Pre-size freshly pooled write arenas for about `elems` buffered
    /// f64 per block. Callers that know their per-block output volume
    /// (e.g. from a stencil plan's tile counts) set this once per kernel;
    /// it is purely a capacity hint and never changes results.
    pub fn set_write_hint(&mut self, elems: usize) {
        self.write_hint = elems;
    }

    // ---- Tracing ------------------------------------------------------

    /// Enable or disable per-phase span tracing. While enabled, every
    /// launch appends one [`Span`] per phase it passed through, with exact
    /// counter attribution (see [`crate::trace`]).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Drain the accumulated trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Read-only view of the accumulated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Append a host-side span (verify/retry scopes measured by runner
    /// code). Ignored when tracing is off, so callers need not guard.
    pub fn push_span(&mut self, span: Span) {
        if self.tracing {
            self.trace.push(span);
        }
    }

    /// Number of `try_launch` calls so far (failed ones included) — the
    /// launch coordinate host spans should reference.
    pub fn launch_attempts(&self) -> u64 {
        self.launch_attempts
    }

    // ---- Sanitizer ----------------------------------------------------

    /// Enable or disable the dynamic memory sanitizer. While enabled,
    /// every block of every launch shadows its shared memory and reports
    /// initcheck/memcheck/racecheck/bankcheck findings (see
    /// [`crate::sanitize`]). Disabled by default with zero overhead: no
    /// shadow allocation happens on the default path.
    pub fn set_sanitizer(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// Builder-style [`Device::set_sanitizer`].
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    pub fn sanitizing(&self) -> bool {
        self.sanitize
    }

    /// Read-only view of the accumulated sanitizer findings.
    pub fn sanitizer_report(&self) -> &SanitizerReport {
        &self.sanitizer
    }

    /// Drain the accumulated sanitizer findings, leaving an empty report.
    pub fn take_sanitizer_report(&mut self) -> SanitizerReport {
        std::mem::take(&mut self.sanitizer)
    }

    // ---- Fault injection ----------------------------------------------

    /// Install (or clear) a fault-injection plan. Subsequent launches fault
    /// deterministically according to the plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Builder-style [`Device::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Move to the next fault epoch. Retry logic calls this so a repeated
    /// launch sequence sees a fresh (but still deterministic) fault stream.
    pub fn advance_fault_epoch(&mut self) {
        self.fault_epoch += 1;
    }

    pub fn fault_epoch(&self) -> u64 {
        self.fault_epoch
    }

    /// Whether the device has suffered a sticky death (every launch now
    /// fails with [`DeviceError::DeviceLost`]).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Kill the device unconditionally (tests and chaos harnesses).
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Restore the fault cursor after a checkpoint resume: fault epoch,
    /// launch-attempt counter, and death flag. With the same plan
    /// installed, the device's fault stream continues exactly where the
    /// checkpointed run left off — the crash-consistency contract the
    /// runtime's resume path relies on.
    pub fn restore_fault_cursor(&mut self, epoch: u64, attempts: u64, dead: bool) {
        self.fault_epoch = epoch;
        self.launch_attempts = attempts;
        self.dead = dead;
    }

    /// Launch a kernel of `num_blocks` blocks, each with `shared_len` f64
    /// of shared memory. The closure runs once per block index.
    ///
    /// Panics where [`Device::try_launch`] would return an error — kept for
    /// call sites that treat launch failure as a bug.
    pub fn launch<F>(&mut self, num_blocks: usize, shared_len: usize, kernel: F)
    where
        F: Fn(usize, &mut BlockCtx) + Sync,
    {
        if let Err(e) = self.try_launch(num_blocks, shared_len, kernel) {
            panic!("{e} (shared memory / launch fault)");
        }
    }

    /// Fallible launch: rejects oversized shared-memory requests and honours
    /// the active fault plan's launch-failure rate. On `Err` no block has
    /// run and no global write has retired.
    pub fn try_launch<F>(
        &mut self,
        num_blocks: usize,
        shared_len: usize,
        kernel: F,
    ) -> Result<(), DeviceError>
    where
        F: Fn(usize, &mut BlockCtx) + Sync,
    {
        if self.dead {
            // A dead device rejects everything without consuming a launch
            // attempt: the device is gone, not advancing through time.
            return Err(DeviceError::DeviceLost {
                launch_attempt: self.launch_attempts,
            });
        }
        if shared_len * 8 > self.config.shared_capacity_bytes as usize {
            return Err(DeviceError::SharedMemoryExceeded {
                requested_bytes: shared_len * 8,
                capacity_bytes: self.config.shared_capacity_bytes,
            });
        }
        let attempt = self.launch_attempts;
        self.launch_attempts += 1;
        let wall_start = self.tracing.then(Instant::now);
        if let Some(plan) = self.fault {
            // Device-level modes are positional in launch attempts (device
            // time), independent of the fault epoch: a retry cannot dodge a
            // sticky death and rides out an ECC burst by advancing past it.
            if plan.die_at_launch.is_some_and(|d| attempt >= d) {
                self.dead = true;
                self.counters.device_lost_events += 1;
                if let Some(t0) = wall_start {
                    self.trace.push(Span {
                        phase: Phase::LaunchFault,
                        launch: attempt,
                        counters: Counters {
                            device_lost_events: 1,
                            ..Counters::default()
                        },
                        modeled_sec: 0.0,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                    });
                }
                return Err(DeviceError::DeviceLost {
                    launch_attempt: attempt,
                });
            }
            if plan.ecc_burst.is_some_and(|b| b.contains(attempt)) {
                self.counters.launch_faults_injected += 1;
                if let Some(t0) = wall_start {
                    self.trace.push(Span {
                        phase: Phase::LaunchFault,
                        launch: attempt,
                        counters: Counters {
                            launch_faults_injected: 1,
                            ..Counters::default()
                        },
                        modeled_sec: 0.0,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                    });
                }
                return Err(DeviceError::InjectedLaunchFailure {
                    launch_attempt: attempt,
                });
            }
            if fault::launch_fails(&plan, self.fault_epoch, attempt) {
                self.counters.launch_faults_injected += 1;
                // With tracing on, the aborted launch still gets a span so
                // the trace's counter sum matches the device ledger.
                if let Some(t0) = wall_start {
                    self.trace.push(Span {
                        phase: Phase::LaunchFault,
                        launch: attempt,
                        counters: Counters {
                            launch_faults_injected: 1,
                            ..Counters::default()
                        },
                        modeled_sec: 0.0,
                        wall_ns: t0.elapsed().as_nanos() as u64,
                    });
                }
                return Err(DeviceError::InjectedLaunchFailure {
                    launch_attempt: attempt,
                });
            }
            if let Some(hang) = plan.hang.filter(|h| h.at_launch == attempt) {
                // The hang stalls the device but the launch still completes;
                // the stall is charged to the cost model, where it trips
                // cost-budget deadlines.
                self.counters.hang_stall_cycles += hang.stall_cycles;
                if self.tracing {
                    let stall = Counters {
                        hang_stall_cycles: hang.stall_cycles,
                        ..Counters::default()
                    };
                    self.trace.push(Span {
                        phase: Phase::DeviceStall,
                        launch: attempt,
                        modeled_sec: CostModel::new(self.config.clone()).stall_time(&stall),
                        counters: stall,
                        wall_ns: 0,
                    });
                }
            }
        }
        let cfg = &self.config;
        let global = &self.global;
        let fault_plan = self.fault;
        let fault_epoch = self.fault_epoch;
        let tracing = self.tracing;
        let sanitize = self.sanitize;
        let pooling = self.pooling;
        let write_hint = self.write_hint;
        let pool = &self.pool;
        let mut outcomes: Vec<BlockOutcome> = (0..num_blocks)
            .into_par_iter()
            .map(|block_id| {
                let mut scratch = if pooling {
                    pool.take_block()
                } else {
                    BlockScratch::default()
                };
                let writes = if pooling {
                    pool.take_log(write_hint)
                } else {
                    WriteLog::default()
                };
                let mut ctx = BlockCtx {
                    config: cfg,
                    global,
                    shared: SharedMemory::recycle(
                        std::mem::take(&mut scratch.shared),
                        shared_len,
                        cfg.shared_banks as usize,
                    ),
                    counters: Counters::default(),
                    writes,
                    fault: fault_plan
                        .map(|p| FaultState::new(p, fault_epoch, attempt, block_id as u64)),
                    phase_marks: tracing.then(|| {
                        let mut marks = std::mem::take(&mut scratch.marks);
                        marks.clear();
                        marks
                    }),
                    shadow: sanitize.then(|| {
                        ShadowState::recycle(
                            std::mem::take(&mut scratch.written),
                            std::mem::take(&mut scratch.exempt),
                            shared_len,
                            attempt,
                            block_id,
                        )
                    }),
                    frag_degrees: FragDegreeCache::default(),
                };
                kernel(block_id, &mut ctx);
                let BlockCtx {
                    shared,
                    counters,
                    writes,
                    phase_marks,
                    shadow,
                    ..
                } = ctx;
                let phases = phase_marks.map(|marks| {
                    // Fold the switch log into per-phase deltas. Work
                    // before the first explicit switch is Uncategorized;
                    // counters are monotone, so the deltas sum exactly to
                    // the block's final ledger.
                    let mut per = [Counters::default(); PHASE_COUNT];
                    let mut prev_phase = Phase::Uncategorized;
                    let mut prev_snap = Counters::default();
                    for &(phase, snap) in &marks {
                        per[prev_phase.index()] += snap.saturating_sub(&prev_snap);
                        prev_phase = phase;
                        prev_snap = snap;
                    }
                    per[prev_phase.index()] += counters.saturating_sub(&prev_snap);
                    if pooling {
                        scratch.marks = marks;
                    }
                    per
                });
                let sanitizer = shadow.map(|shadow| {
                    let (report, written, exempt) = shadow.into_parts();
                    if pooling {
                        scratch.written = written;
                        scratch.exempt = exempt;
                    }
                    report
                });
                if pooling {
                    scratch.shared = shared.into_data();
                    pool.put_block(scratch);
                }
                BlockOutcome {
                    counters,
                    writes,
                    phases,
                    sanitizer,
                }
            })
            .collect();

        for outcome in &mut outcomes {
            self.counters += outcome.counters;
            let log = &outcome.writes;
            if self.pooling {
                // Bulk retirement: each run is a strictly consecutive
                // address range, so one slice copy is observably identical
                // to the per-element replay below.
                for run in &log.runs {
                    self.global.apply_run(
                        run.buf,
                        run.start,
                        &log.data[run.off..run.off + run.len],
                    );
                }
            } else {
                // Reference retirement: element-by-element, exactly the
                // legacy path the equivalence tests pin against.
                for run in &log.runs {
                    self.global.apply_writes(
                        &log.data[run.off..run.off + run.len]
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| (run.buf, run.start + i, v))
                            .collect::<Vec<_>>(),
                    );
                }
            }
            self.global.apply_writes(&log.scatter);
            if let Some(report) = outcome.sanitizer.take() {
                self.sanitizer.merge(report);
            }
        }
        self.launch_stats.kernel_launches += 1;
        self.launch_stats.total_blocks += num_blocks as u64;

        if let Some(t0) = wall_start {
            let mut per = [Counters::default(); PHASE_COUNT];
            for outcome in &outcomes {
                if let Some(phases) = &outcome.phases {
                    for (acc, delta) in per.iter_mut().zip(phases) {
                        *acc += *delta;
                    }
                }
            }
            let model = CostModel::new(self.config.clone());
            let modeled: Vec<f64> = per.iter().map(|c| model.span_time(c)).collect();
            let active: Vec<usize> = (0..PHASE_COUNT)
                .filter(|&i| per[i] != Counters::default())
                .collect();
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let modeled_total: f64 = active.iter().map(|&i| modeled[i]).sum();
            for &i in &active {
                // Launch wall time split proportionally to modelled time
                // (equal split when the model charges nothing).
                let share = if modeled_total > 0.0 {
                    (wall_ns as f64 * modeled[i] / modeled_total) as u64
                } else {
                    wall_ns / active.len() as u64
                };
                self.trace.push(Span {
                    phase: Phase::ALL[i],
                    launch: attempt,
                    counters: per[i],
                    modeled_sec: modeled[i],
                    wall_ns: share,
                });
            }
        }
        if self.pooling {
            for outcome in outcomes {
                self.pool.put_log(outcome.writes);
            }
        }
        Ok(())
    }

    /// Evaluate the performance model over everything run so far.
    pub fn modelled_cost(&self) -> CostBreakdown {
        CostModel::new(self.config.clone()).evaluate(&self.counters, &self.launch_stats)
    }

    /// Modelled throughput for `points` stencil points over `iters` steps.
    pub fn gstencils_per_sec(&self, points: u64, iters: u64) -> f64 {
        CostModel::new(self.config.clone()).gstencils_per_sec(
            &self.counters,
            &self.launch_stats,
            points,
            iters,
        )
    }
}

/// Execution context handed to a kernel closure for one thread block.
pub struct BlockCtx<'a> {
    config: &'a DeviceConfig,
    global: &'a GlobalMemory,
    /// This block's shared memory.
    pub shared: SharedMemory,
    /// This block's event ledger (merged into the device after the launch).
    pub counters: Counters,
    /// Buffered global writes: contiguous runs over one flat arena plus a
    /// scatter list for lone elements (see [`WriteLog`]).
    writes: WriteLog,
    /// Per-block fault stream (None when no plan is installed).
    fault: Option<FaultState>,
    /// Phase-switch log `(new phase, ledger snapshot at switch)`; `None`
    /// when tracing is off, so untraced runs pay no per-switch cost.
    phase_marks: Option<Vec<(Phase, Counters)>>,
    /// Sanitizer shadow of this block's shared memory; `None` when
    /// sanitizing is off, so the default path allocates nothing.
    shadow: Option<ShadowState>,
    /// Memoized fragment bank-conflict degrees (see [`FragDegreeCache`]).
    frag_degrees: FragDegreeCache,
}

/// Per-block memo of fragment-load conflict degrees, keyed by fragment
/// shape and row stride. A fragment's addresses form an affine pattern
/// `base + r * stride + c`; shifting `base` shifts every address equally,
/// which only *rotates* the per-bank histogram, so the conflict degree of
/// each 16-lane phase depends on `(shape, stride)` alone. A kernel uses a
/// handful of strides, so a tiny fixed table makes repeat fragment loads
/// skip the histogram entirely; on (unlikely) overflow the degree is just
/// recomputed, producing identical counters either way.
#[derive(Debug, Default, Clone, Copy)]
struct FragDegreeCache {
    /// `(is_b, stride, phase0 degree, phase1 degree)`.
    entries: [(bool, usize, u32, u32); 8],
    len: usize,
}

impl FragDegreeCache {
    fn get(&self, is_b: bool, stride: usize) -> Option<(u32, u32)> {
        self.entries[..self.len]
            .iter()
            .find(|&&(b, s, _, _)| b == is_b && s == stride)
            .map(|&(_, _, d0, d1)| (d0, d1))
    }

    fn put(&mut self, is_b: bool, stride: usize, d0: u32, d1: u32) {
        if self.len < self.entries.len() {
            self.entries[self.len] = (is_b, stride, d0, d1);
            self.len += 1;
        }
    }
}

impl BlockCtx<'_> {
    pub fn config(&self) -> &DeviceConfig {
        self.config
    }

    /// Mark the start of an execution phase: everything this block charges
    /// from here until the next switch is attributed to `phase`. Returns
    /// the previously active phase so nested scopes (e.g. an epilogue
    /// helper called from the compute loop) can restore it. A no-op
    /// returning [`Phase::Uncategorized`] when tracing is off.
    pub fn phase(&mut self, phase: Phase) -> Phase {
        let mut prev = Phase::Uncategorized;
        if let Some(marks) = &mut self.phase_marks {
            prev = marks
                .last()
                .map(|(p, _)| *p)
                .unwrap_or(Phase::Uncategorized);
            marks.push((phase, self.counters));
        }
        // The sanitizer tracks the active phase too (it localizes findings
        // even when tracing is off).
        if let Some(shadow) = &mut self.shadow {
            if self.phase_marks.is_none() {
                prev = shadow.phase();
            }
            shadow.set_phase(phase);
        }
        prev
    }

    /// Declare a shared-memory range as legitimately read-before-write for
    /// the sanitizer's initcheck/racecheck (ConvStencil's dirty-bits
    /// padding slots and fragment over-read tails). A no-op when
    /// sanitizing is off.
    pub fn sanitize_exempt(&mut self, start: usize, len: usize) {
        if let Some(shadow) = &mut self.shadow {
            shadow.exempt_range(start, len);
        }
    }

    // ---- Global memory ------------------------------------------------

    /// Warp-level global read: up to 32 addresses ([`INACTIVE`] masks a
    /// lane). Fills `out` (0.0 for inactive lanes) and accounts
    /// coalescing.
    pub fn gmem_read_warp(&mut self, buf: BufferId, addrs: &[usize], out: &mut [f64]) {
        let clean = match &mut self.shadow {
            Some(shadow) => shadow.check_global(self.global.buffer_len(buf), addrs, true),
            None => true,
        };
        if clean {
            self.global.read_warp(
                &mut self.counters,
                buf,
                addrs,
                self.config.f64_per_sector(),
                out,
            );
        } else {
            // Mask the offending lanes (reported above) so the simulation
            // can continue past the defect; they read as 0.0.
            let len = self.global.buffer_len(buf);
            let fixed: Vec<usize> = addrs
                .iter()
                .map(|&a| if a < len { a } else { INACTIVE })
                .collect();
            self.global.read_warp(
                &mut self.counters,
                buf,
                &fixed,
                self.config.f64_per_sector(),
                out,
            );
        }
    }

    /// Read a contiguous span `[start, start+len)` with fully-coalesced
    /// warp requests of 32 lanes. Returns the values.
    pub fn gmem_read_span(&mut self, buf: BufferId, start: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.gmem_read_span_into(buf, start, &mut out);
        out
    }

    /// Allocation-free [`BlockCtx::gmem_read_span`]: fills `out` from the
    /// span `[start, start + out.len())`. Lanes past a sanitizer-clamped
    /// overrun read as 0.0, exactly like the allocating variant.
    pub fn gmem_read_span_into(&mut self, buf: BufferId, start: usize, out: &mut [f64]) {
        let want = out.len();
        let safe_len = match &mut self.shadow {
            Some(shadow) => {
                shadow.check_global_span(self.global.buffer_len(buf), start, want, true)
            }
            None => want,
        };
        if safe_len < want {
            out[safe_len..].fill(0.0);
        }
        let len = safe_len;
        let mut addrs = [INACTIVE; 32];
        let mut lane_out = [0.0f64; 32];
        let mut i = 0;
        while i < len {
            let n = (len - i).min(32);
            for l in 0..32 {
                addrs[l] = if l < n { start + i + l } else { INACTIVE };
            }
            self.global.read_warp(
                &mut self.counters,
                buf,
                &addrs,
                self.config.f64_per_sector(),
                &mut lane_out,
            );
            out[i..i + n].copy_from_slice(&lane_out[..n]);
            i += n;
        }
    }

    /// Warp-level global write of `vals` to `addrs` (same lane count).
    /// Values retire when the launch completes.
    pub fn gmem_write_warp(&mut self, buf: BufferId, addrs: &[usize], vals: &[f64]) {
        assert_eq!(addrs.len(), vals.len());
        let clean = match &mut self.shadow {
            Some(shadow) => shadow.check_global(self.global.buffer_len(buf), addrs, false),
            None => true,
        };
        let masked;
        let addrs = if clean {
            addrs
        } else {
            // Drop the offending lanes (reported above); the write would
            // otherwise corrupt memory when it retires.
            let len = self.global.buffer_len(buf);
            masked = addrs
                .iter()
                .map(|&a| if a < len { a } else { INACTIVE })
                .collect::<Vec<usize>>();
            &masked
        };
        self.global
            .account_write(&mut self.counters, addrs, self.config.f64_per_sector());
        // Compact consecutive addresses into runs; lone elements go to the
        // scatter list to avoid a vector allocation per lane.
        let mut i = 0;
        while i < addrs.len() {
            if addrs[i] == INACTIVE {
                i += 1;
                continue;
            }
            let start = addrs[i];
            let mut j = i + 1;
            while j < addrs.len() && addrs[j] != INACTIVE && addrs[j] == addrs[j - 1] + 1 {
                j += 1;
            }
            if j == i + 1 {
                self.writes.scatter.push((buf, start, vals[i]));
            } else {
                self.writes.push_run(buf, start, &vals[i..j]);
            }
            i = j;
        }
    }

    /// Write a contiguous span with fully-coalesced warp requests.
    pub fn gmem_write_span(&mut self, buf: BufferId, start: usize, vals: &[f64]) {
        let safe_len = match &mut self.shadow {
            Some(shadow) => {
                shadow.check_global_span(self.global.buffer_len(buf), start, vals.len(), false)
            }
            None => vals.len(),
        };
        let vals = &vals[..safe_len];
        let mut addrs = [INACTIVE; 32];
        let mut i = 0;
        while i < vals.len() {
            let n = (vals.len() - i).min(32);
            for l in 0..32 {
                addrs[l] = if l < n { start + i + l } else { INACTIVE };
            }
            self.global.account_write(
                &mut self.counters,
                &addrs[..n],
                self.config.f64_per_sector(),
            );
            i += n;
        }
        self.writes.push_run(buf, start, vals);
    }

    // ---- Shared memory -------------------------------------------------

    /// Warp-level shared load with bank-conflict accounting, issued by
    /// *scalar* code (a dependent consumer follows): also charged as
    /// latency-exposed requests. MMA operand loads should use
    /// [`BlockCtx::smem_load_frag`] or the fragment loaders instead.
    pub fn smem_load(&mut self, addrs: &[usize], out: &mut [f64]) {
        self.counters.shared_scalar_requests +=
            (addrs.len() as u64).div_ceil(crate::shared::F64_PHASE_LANES as u64);
        self.checked_smem_load(addrs, out);
    }

    /// Warp-level shared load for software-pipelined (fragment/operand)
    /// consumers: bank conflicts are accounted, latency exposure is not.
    pub fn smem_load_frag(&mut self, addrs: &[usize], out: &mut [f64]) {
        self.checked_smem_load(addrs, out);
    }

    /// Shared load with sanitizer checks; out-of-bounds lanes (already
    /// reported as memcheck findings) are clamped to address 0 so the
    /// simulation survives the defect.
    fn checked_smem_load(&mut self, addrs: &[usize], out: &mut [f64]) {
        let clean = match &mut self.shadow {
            Some(shadow) => shadow.check_load(&self.shared, addrs),
            None => true,
        };
        if clean {
            self.shared.load(&mut self.counters, addrs, out);
        } else {
            if self.shared.is_empty() {
                out.fill(0.0);
                return;
            }
            let len = self.shared.len();
            let fixed: Vec<usize> = addrs.iter().map(|&a| if a < len { a } else { 0 }).collect();
            self.shared.load(&mut self.counters, &fixed, out);
        }
    }

    /// Warp-level shared store with bank-conflict accounting. An active
    /// fault plan may silently corrupt one stored value.
    pub fn smem_store(&mut self, addrs: &[usize], vals: &[f64]) {
        let clean = match &mut self.shadow {
            Some(shadow) => shadow.check_store(&self.shared, addrs, vals),
            None => true,
        };
        let (filtered_addrs, filtered_vals);
        let (addrs, vals): (&[usize], &[f64]) = if clean {
            (addrs, vals)
        } else {
            // Drop out-of-bounds lanes (already reported as memcheck).
            let len = self.shared.len();
            let mut fa = Vec::with_capacity(addrs.len());
            let mut fv = Vec::with_capacity(vals.len());
            for (&a, &v) in addrs.iter().zip(vals) {
                if a < len {
                    fa.push(a);
                    fv.push(v);
                }
            }
            filtered_addrs = fa;
            filtered_vals = fv;
            (&filtered_addrs, &filtered_vals)
        };
        if addrs.is_empty() {
            return;
        }
        if let Some(fault) = &mut self.fault {
            if let Some(h) = fault.smem_corrupt() {
                let lane = (h >> 8) as usize % vals.len();
                let mut corrupted = vals.to_vec();
                corrupted[lane] = crate::fault::corrupt_value(vals[lane], h);
                self.counters.smem_faults_injected += 1;
                // The sanitizer records where the corruption landed — a
                // value change leaves coverage intact, so initcheck alone
                // cannot localize it.
                if let Some(shadow) = &mut self.shadow {
                    shadow.record_fault(addrs[lane]);
                }
                self.shared.store(&mut self.counters, addrs, &corrupted);
                return;
            }
        }
        self.shared.store(&mut self.counters, addrs, vals);
    }

    /// Load an 8x4 `A` fragment from shared memory at `base` with row
    /// stride `row_stride`, accounting the two 16-lane phases the hardware
    /// issues.
    pub fn load_frag_a(&mut self, base: usize, row_stride: usize) -> FragA {
        let addrs = FragA::load_addresses(base, row_stride);
        let mut vals = [0.0; 32];
        if self.shadow.is_none() {
            self.fast_frag_load(false, row_stride, &addrs, &mut vals);
        } else {
            self.checked_smem_load(&addrs, &mut vals);
        }
        FragA { data: vals }
    }

    /// Load a 4x8 `B` fragment from shared memory.
    pub fn load_frag_b(&mut self, base: usize, row_stride: usize) -> FragB {
        let addrs = FragB::load_addresses(base, row_stride);
        let mut vals = [0.0; 32];
        if self.shadow.is_none() {
            self.fast_frag_load(true, row_stride, &addrs, &mut vals);
        } else {
            self.checked_smem_load(&addrs, &mut vals);
        }
        FragB { data: vals }
    }

    /// Fragment load with the conflict degrees served from
    /// [`FragDegreeCache`]: charges exactly what [`SharedMemory::load`]
    /// would (two 16-lane phases per 32-lane fragment) without rerunning
    /// the per-bank histogram. Only used when the sanitizer is off — the
    /// shadow-checked path needs the full per-address walk anyway.
    fn fast_frag_load(
        &mut self,
        is_b: bool,
        stride: usize,
        addrs: &[usize; 32],
        out: &mut [f64; 32],
    ) {
        let (d0, d1) = match self.frag_degrees.get(is_b, stride) {
            Some(d) => d,
            None => {
                let d0 = self
                    .shared
                    .phase_conflict_degree(&addrs[..crate::shared::F64_PHASE_LANES]);
                let d1 = self
                    .shared
                    .phase_conflict_degree(&addrs[crate::shared::F64_PHASE_LANES..]);
                self.frag_degrees.put(is_b, stride, d0, d1);
                (d0, d1)
            }
        };
        self.counters.shared_read_requests += 2;
        self.counters.shared_read_conflicts += (d0 - 1) as u64 + (d1 - 1) as u64;
        self.counters.shared_read_bytes += 8 * addrs.len() as u64;
        let data = self.shared.raw();
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = data[a];
        }
    }

    // ---- Compute -------------------------------------------------------

    /// Issue one FP64 `m8n8k4` MMA: `acc += a * b`. An active fault plan
    /// may flip a high-order bit in one accumulator lane after the MMA
    /// retires (models an uncorrected datapath upset).
    pub fn dmma(&mut self, a: &FragA, b: &FragB, acc: &mut FragAcc) {
        dmma(a, b, acc);
        self.counters.dmma_ops += 1;
        if let Some(fault) = &mut self.fault {
            if let Some(h) = fault.dmma_flip() {
                let lane = (h >> 8) as usize % acc.data.len();
                acc.data[lane] = crate::fault::corrupt_value(acc.data[lane], h);
                self.counters.frag_faults_injected += 1;
            }
        }
    }

    /// Issue one FP16-class `m16n16k16` MMA (TCStencil analog).
    pub fn hmma(&mut self, a: &Tile16, b: &Tile16, acc: &mut Tile16) {
        hmma(a, b, acc);
        self.counters.hmma_ops += 1;
    }

    /// Account `n` FP64 fused-multiply-adds on the CUDA cores. The caller
    /// performs the arithmetic; this charges the instructions.
    pub fn count_fma(&mut self, n: u64) {
        self.counters.cuda_fma_ops += n;
    }

    /// Account `n` plain INT32 ALU operations (address arithmetic).
    pub fn count_int(&mut self, n: u64) {
        self.counters.int_ops += n;
    }

    /// Account `n` integer division/modulus operations.
    pub fn count_divmod(&mut self, n: u64) {
        self.counters.int_divmod_ops += n;
    }

    /// Account `n` potentially-divergent conditional branches.
    pub fn count_branch(&mut self, n: u64) {
        self.counters.branch_ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_reads_prelaunch_state_and_retires_writes() {
        let mut dev = Device::a100();
        let src = dev.alloc_from(&[1.0, 2.0, 3.0, 4.0]);
        let dst = dev.alloc(4);
        dev.launch(2, 64, |block, ctx| {
            let vals = ctx.gmem_read_span(src, block * 2, 2);
            ctx.gmem_write_span(dst, block * 2, &[vals[0] * 10.0, vals[1] * 10.0]);
        });
        assert_eq!(dev.download(dst), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(dev.launch_stats.kernel_launches, 1);
        assert_eq!(dev.launch_stats.total_blocks, 2);
        assert!(dev.counters.global_read_bytes >= 32);
    }

    #[test]
    fn writes_do_not_affect_reads_within_same_launch() {
        let mut dev = Device::a100();
        let buf = dev.alloc_from(&[5.0, 0.0]);
        dev.launch(1, 16, |_, ctx| {
            ctx.gmem_write_span(buf, 0, &[99.0]);
            let v = ctx.gmem_read_span(buf, 0, 1);
            // Read still sees pre-launch state.
            ctx.gmem_write_span(buf, 1, &[v[0]]);
        });
        assert_eq!(dev.download(buf), &[99.0, 5.0]);
    }

    #[test]
    fn dmma_counts_and_computes() {
        let mut dev = Device::a100();
        dev.launch(1, 16, |_, ctx| {
            let mut a = FragA::zero();
            a.set(1, 2, 3.0);
            let mut b = FragB::zero();
            b.set(2, 5, 4.0);
            let mut acc = FragAcc::zero();
            ctx.dmma(&a, &b, &mut acc);
            assert_eq!(acc.get(1, 5), 12.0);
        });
        assert_eq!(dev.counters.dmma_ops, 1);
    }

    #[test]
    fn frag_loads_from_shared_are_accounted() {
        let mut dev = Device::a100();
        dev.launch(1, 512, |_, ctx| {
            let addrs: Vec<usize> = (0..64).collect();
            let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
            ctx.smem_store(&addrs, &vals);
            let a = ctx.load_frag_a(0, 8);
            assert_eq!(a.get(1, 3), 11.0);
        });
        // 64-lane store = 4 phases; frag load = 2 phases.
        assert_eq!(dev.counters.shared_write_requests, 4);
        assert_eq!(dev.counters.shared_read_requests, 2);
        assert_eq!(dev.counters.shared_read_bytes, 256);
    }

    #[test]
    #[should_panic(expected = "shared memory")]
    fn oversized_shared_request_panics() {
        let mut dev = Device::a100();
        dev.launch(1, 1 << 20, |_, _| {});
    }

    #[test]
    fn parallel_blocks_merge_deterministically() {
        let run = || {
            let mut dev = Device::a100();
            let dst = dev.alloc(1024);
            dev.launch(64, 64, |block, ctx| {
                ctx.count_fma(block as u64);
                let vals: Vec<f64> = (0..16).map(|i| (block * 16 + i) as f64).collect();
                ctx.gmem_write_span(dst, block * 16, &vals);
            });
            (dev.counters, dev.download(dst).to_vec())
        };
        let (c1, d1) = run();
        let (c2, d2) = run();
        assert_eq!(c1, c2);
        assert_eq!(d1, d2);
        assert_eq!(c1.cuda_fma_ops, (0..64).sum::<u64>());
    }

    #[test]
    fn traced_launch_spans_sum_to_device_ledger() {
        let mut dev = Device::a100();
        dev.set_tracing(true);
        let dst = dev.alloc(64);
        dev.launch(2, 512, |block, ctx| {
            // Work before the first phase switch lands in Uncategorized.
            ctx.count_int(3);
            ctx.phase(Phase::SmemScatter);
            let addrs: Vec<usize> = (0..32).collect();
            let vals = vec![1.0; 32];
            ctx.smem_store(&addrs, &vals);
            ctx.phase(Phase::Tessellation);
            let a = FragA::zero();
            let b = FragB::zero();
            let mut acc = FragAcc::zero();
            ctx.dmma(&a, &b, &mut acc);
            let prev = ctx.phase(Phase::Epilogue);
            assert_eq!(prev, Phase::Tessellation);
            ctx.gmem_write_span(dst, block * 4, &[0.0; 4]);
        });
        let trace = dev.take_trace();
        assert_eq!(trace.total_counters(), dev.counters);
        // Each exercised phase shows up with the right attribution.
        let by_phase = |p: Phase| -> Counters {
            trace
                .spans
                .iter()
                .filter(|s| s.phase == p)
                .map(|s| s.counters)
                .sum()
        };
        assert_eq!(by_phase(Phase::Uncategorized).int_ops, 6);
        assert_eq!(by_phase(Phase::Tessellation).dmma_ops, 2);
        assert!(by_phase(Phase::SmemScatter).shared_write_bytes > 0);
        assert!(by_phase(Phase::Epilogue).global_write_bytes > 0);
        // Spans carry a positive modelled time where the model charges one.
        assert!(
            trace
                .spans
                .iter()
                .find(|s| s.phase == Phase::Tessellation)
                .unwrap()
                .modeled_sec
                > 0.0
        );
    }

    #[test]
    fn untraced_launch_records_no_spans_and_phase_is_noop() {
        let mut dev = Device::a100();
        dev.launch(1, 16, |_, ctx| {
            assert_eq!(ctx.phase(Phase::Tessellation), Phase::Uncategorized);
            ctx.count_fma(1);
        });
        assert!(dev.trace().is_empty());
    }

    #[test]
    fn injected_launch_failure_is_traced() {
        let mut dev = Device::a100();
        dev.set_tracing(true);
        dev.set_fault_plan(Some(FaultPlan::quiet(1).with_launch_fail_rate(1.0)));
        let err = dev.try_launch(1, 16, |_, _| {});
        assert!(err.is_err());
        let trace = dev.take_trace();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.spans[0].phase, Phase::LaunchFault);
        assert_eq!(trace.total_counters(), dev.counters);
    }

    #[test]
    fn sticky_device_death_is_permanent_and_counted() {
        let mut dev = Device::a100();
        dev.set_fault_plan(Some(FaultPlan::quiet(1).with_device_death_at(2)));
        assert!(dev.try_launch(1, 16, |_, _| {}).is_ok());
        assert!(dev.try_launch(1, 16, |_, _| {}).is_ok());
        assert!(!dev.is_dead());
        let err = dev.try_launch(1, 16, |_, _| {});
        assert_eq!(err, Err(DeviceError::DeviceLost { launch_attempt: 2 }));
        assert!(dev.is_dead());
        assert_eq!(dev.counters.device_lost_events, 1);
        // Death is sticky: retries and epoch bumps do not revive it, and
        // no further launch attempts are consumed.
        dev.advance_fault_epoch();
        assert!(matches!(
            dev.try_launch(1, 16, |_, _| {}),
            Err(DeviceError::DeviceLost { .. })
        ));
        assert_eq!(dev.launch_attempts(), 3);
        assert_eq!(dev.counters.device_lost_events, 1);
    }

    #[test]
    fn ecc_burst_fails_only_inside_its_window() {
        let mut dev = Device::a100();
        dev.set_fault_plan(Some(FaultPlan::quiet(1).with_ecc_burst(1, 2)));
        let results: Vec<bool> = (0..5)
            .map(|_| dev.try_launch(1, 16, |_, _| {}).is_ok())
            .collect();
        assert_eq!(results, [true, false, false, true, true]);
        assert_eq!(dev.counters.launch_faults_injected, 2);
        assert!(!dev.is_dead());
    }

    #[test]
    fn injected_hang_charges_stall_cycles_and_completes() {
        let mut dev = Device::a100();
        dev.set_tracing(true);
        dev.set_fault_plan(Some(FaultPlan::quiet(1).with_hang_at(1, 1_000_000)));
        let dst = dev.alloc(4);
        for _ in 0..3 {
            dev.try_launch(1, 16, |_, ctx| ctx.gmem_write_span(dst, 0, &[7.0]))
                .unwrap();
        }
        // The hung launch still retired its writes.
        assert_eq!(dev.download(dst)[0], 7.0);
        assert_eq!(dev.counters.hang_stall_cycles, 1_000_000);
        let trace = dev.take_trace();
        let stall: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.phase == Phase::DeviceStall)
            .collect();
        assert_eq!(stall.len(), 1);
        assert_eq!(stall[0].launch, 1);
        assert!(stall[0].modeled_sec > 0.0);
        assert_eq!(trace.total_counters(), dev.counters);
        // The stall shows up in the modelled cost as an additive term.
        assert!(dev.modelled_cost().t_stall > 0.0);
    }

    #[test]
    fn restore_fault_cursor_realigns_the_fault_stream() {
        let plan = FaultPlan::quiet(5).with_launch_fail_rate(0.4);
        let run = |dev: &mut Device, n: usize| -> Vec<bool> {
            (0..n)
                .map(|_| dev.try_launch(1, 16, |_, _| {}).is_ok())
                .collect()
        };
        let mut full = Device::a100();
        full.set_fault_plan(Some(plan));
        let expected = run(&mut full, 16);
        // Interrupt after 6 launches, "resume" on a fresh device.
        let mut first = Device::a100();
        first.set_fault_plan(Some(plan));
        let head = run(&mut first, 6);
        let mut resumed = Device::a100();
        resumed.set_fault_plan(Some(plan));
        resumed.restore_fault_cursor(first.fault_epoch(), first.launch_attempts(), false);
        let tail = run(&mut resumed, 10);
        let stitched: Vec<bool> = head.into_iter().chain(tail).collect();
        assert_eq!(stitched, expected);
    }

    #[test]
    fn pooled_and_unpooled_launches_match_bitwise() {
        // One kernel exercising span writes, gappy warp writes (runs +
        // scatters), shared memory, phases, and faults — run on the pooled
        // fast path and the legacy reference path. Everything observable
        // must be bit-identical.
        let run = |pooling: bool| {
            let mut dev = Device::a100();
            dev.set_scratch_pooling(pooling);
            dev.set_tracing(true);
            dev.set_sanitizer(true);
            dev.set_fault_plan(Some(FaultPlan::quiet(3).with_smem_corrupt_rate(0.2)));
            let src = dev.alloc_from(&(0..256).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
            let dst = dev.alloc(512);
            for _ in 0..3 {
                dev.launch(8, 128, |block, ctx| {
                    ctx.phase(Phase::SmemScatter);
                    let vals = ctx.gmem_read_span(src, block * 32, 32);
                    let addrs: Vec<usize> = (0..32).collect();
                    ctx.smem_store(&addrs, &vals);
                    ctx.phase(Phase::Epilogue);
                    let mut out = [0.0; 32];
                    ctx.smem_load(&addrs, &mut out);
                    ctx.gmem_write_span(dst, block * 64, &out);
                    // Gappy warp write: runs of 2 + lone scatters.
                    let waddrs = [
                        block * 64 + 40,
                        block * 64 + 41,
                        INACTIVE,
                        block * 64 + 50,
                        INACTIVE,
                        block * 64 + 52,
                    ];
                    let wvals = [1.0, 2.0, 0.0, 3.0, 0.0, 4.0];
                    ctx.gmem_write_warp(dst, &waddrs, &wvals);
                });
            }
            let out: Vec<u64> = dev.download(dst).iter().map(|v| v.to_bits()).collect();
            let mut trace = dev.take_trace();
            for span in &mut trace.spans {
                // Wall time is host clock noise, not part of the
                // bit-exactness contract (counters/modeled time are).
                span.wall_ns = 0;
            }
            (out, dev.counters, trace, dev.take_sanitizer_report())
        };
        let pooled = run(true);
        let reference = run(false);
        assert_eq!(pooled.0, reference.0, "outputs differ");
        assert_eq!(pooled.1, reference.1, "counters differ");
        assert_eq!(pooled.2, reference.2, "traces differ");
        assert_eq!(pooled.3, reference.3, "sanitizer reports differ");
    }

    #[test]
    fn overlapping_writes_retire_in_block_order_when_pooled() {
        for pooling in [true, false] {
            let mut dev = Device::a100();
            dev.set_scratch_pooling(pooling);
            let dst = dev.alloc(8);
            dev.launch(4, 16, |block, ctx| {
                ctx.gmem_write_span(dst, 0, &[block as f64; 4]);
            });
            // Later blocks retire later: block 3 wins.
            assert_eq!(dev.download(dst)[..4], [3.0; 4]);
        }
    }

    #[test]
    fn take_buffer_moves_contents_out() {
        let mut dev = Device::a100();
        let buf = dev.alloc_from(&[4.0, 5.0]);
        assert_eq!(dev.take_buffer(buf), vec![4.0, 5.0]);
        assert_eq!(dev.buffer_len(buf), 0);
    }

    #[test]
    fn read_span_into_matches_allocating_span() {
        let mut dev = Device::a100();
        let src = dev.alloc_from(&(0..64).map(|i| i as f64).collect::<Vec<_>>());
        dev.launch(1, 16, |_, ctx| {
            let owned = ctx.gmem_read_span(src, 3, 40);
            let mut reused = vec![9.9; 40];
            ctx.gmem_read_span_into(src, 3, &mut reused);
            assert_eq!(owned, reused);
        });
    }

    #[test]
    fn scalar_span_write_is_coalesced() {
        let mut dev = Device::a100();
        let dst = dev.alloc(64);
        dev.launch(1, 16, |_, ctx| {
            let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
            ctx.gmem_write_span(dst, 0, &vals);
        });
        assert_eq!(dev.counters.uncoalesced_requests, 0);
        assert_eq!(dev.counters.global_write_bytes, 512);
        assert_eq!(dev.download(dst)[63], 63.0);
    }

    /// Enough blocks that every host core gets a run of them.
    const MANY_BLOCKS: usize = 1001;

    #[test]
    fn many_block_launch_retires_and_folds_in_block_order() {
        use crate::sanitize::MAX_RECORDED_VIOLATIONS;
        for pooling in [true, false] {
            let mut dev = Device::a100();
            dev.set_scratch_pooling(pooling);
            dev.set_sanitizer(true);
            let disjoint = dev.alloc(MANY_BLOCKS);
            let pairs = dev.alloc(MANY_BLOCKS.div_ceil(2));
            let all = dev.alloc(4);
            dev.launch(MANY_BLOCKS, 16, |block, ctx| {
                let id = block as f64;
                ctx.gmem_write_span(disjoint, block, &[id]);
                ctx.gmem_write_span(pairs, block / 2, &[id]);
                ctx.gmem_write_span(all, 0, &[id; 4]);
                ctx.count_fma(block as u64);
                if block % 3 == 0 {
                    // A load of a never-written word: one initcheck each.
                    let mut out = [0.0];
                    ctx.smem_load(&[block % 16], &mut out);
                }
            });
            let want_disjoint: Vec<f64> = (0..MANY_BLOCKS).map(|b| b as f64).collect();
            assert_eq!(dev.download(disjoint), &want_disjoint[..]);
            // The later block of each overlapping pair retires last.
            let want_pairs: Vec<f64> = (0..MANY_BLOCKS.div_ceil(2))
                .map(|i| (2 * i + 1).min(MANY_BLOCKS - 1) as f64)
                .collect();
            assert_eq!(dev.download(pairs), &want_pairs[..]);
            assert_eq!(dev.download(all), &[(MANY_BLOCKS - 1) as f64; 4]);

            assert_eq!(dev.counters.cuda_fma_ops, 500_500);
            assert_eq!(dev.launch_stats.total_blocks, MANY_BLOCKS as u64);
            let report = dev.take_sanitizer_report();
            assert_eq!(report.init_total, 334);
            // Recorded findings are the first blocks' findings, in order.
            let blocks: Vec<usize> = report.violations.iter().map(|v| v.block).collect();
            let want_blocks: Vec<usize> = (0..MANY_BLOCKS)
                .step_by(3)
                .take(MAX_RECORDED_VIOLATIONS)
                .collect();
            assert_eq!(blocks, want_blocks);
        }
    }

    #[test]
    fn collect_keeps_index_order_for_any_item_count() {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n in [0, 1, workers - 1, workers + 1, 7, MANY_BLOCKS] {
            let got: Vec<usize> = (3..3 + n).into_par_iter().map(|i| i * i).collect();
            let want: Vec<usize> = (3..3 + n).map(|i| i * i).collect();
            assert_eq!(got, want, "{n} items");
        }
    }

    #[test]
    #[should_panic(expected = "kernel gave up in block 517")]
    fn block_panic_surfaces_its_own_message() {
        let mut dev = Device::a100();
        dev.launch(MANY_BLOCKS, 16, |block, _| {
            if block == 517 {
                panic!("kernel gave up in block {block}");
            }
        });
    }
}
