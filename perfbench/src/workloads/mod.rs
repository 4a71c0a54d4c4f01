//! The four workloads. Each one times its end-to-end path with tracing
//! off ([`Workload::run`]) and replays the same path as a sequence of
//! public layer calls through a [`Ledger`] ([`Workload::replay`]).

mod box2d;
mod box3d_job;
mod heat1d;

pub use box2d::Box2d;
pub use box3d_job::Box3dJob;
pub use heat1d::Heat1d;

use crate::alloc;
use crate::ledger::Ledger;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcu_sim::{Counters, LaunchStats};

/// An end-to-end result with its host time and the peak live heap seen
/// while it ran.
pub struct Timed<T> {
    pub secs: f64,
    pub peak_bytes: u64,
    pub out: T,
}

/// Time `f` and track its peak heap.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<Timed<T>, String> {
    alloc::reset_peak();
    let start = Instant::now();
    let out = black_box(f()?);
    let secs = start.elapsed().as_secs_f64();
    Ok(Timed {
        secs,
        peak_bytes: alloc::peak_bytes(),
        out,
    })
}

/// Host seconds of one call of `f`.
pub fn secs_of(f: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let start = Instant::now();
    f()?;
    Ok(start.elapsed().as_secs_f64())
}

/// What one checked run leaves: the output interior, the full device
/// ledger and the modelled throughput (paper Eq. 16).
pub struct Checked {
    pub output: Vec<f64>,
    pub counters: Counters,
    pub launches: LaunchStats,
    pub model_gstencils_per_s: f64,
}

/// One traced replay.
pub struct Replay {
    pub ledger: Ledger,
    /// Host seconds of the replayed workload path: the same work as one
    /// end-to-end run, with every layer call timed.
    pub section_secs: f64,
    /// Sum of the timed calls inside that path.
    pub section_calls_secs: f64,
    pub output: Vec<f64>,
    pub counters: Counters,
    pub launches: LaunchStats,
    /// Workload-specific per-layer metrics.
    pub extra: Vec<(&'static str, f64)>,
}

pub trait Workload {
    type Out;

    /// Interior point-updates (points x steps) one run performs.
    fn point_updates(&self) -> u64;

    /// CPU reference interior the output must match.
    fn reference(&self) -> &[f64];

    /// Host seconds of one set-up: the runner with fusion and the plan,
    /// plus the runtime and the submit for the job.
    fn setup_secs(&mut self) -> Result<f64, String>;

    /// One end-to-end run with tracing off.
    fn run(&mut self) -> Result<Timed<Self::Out>, String>;

    /// Workload-specific checks of a run, outside the timed region.
    fn check(&mut self, out: Self::Out) -> Result<Checked, String>;

    /// The same path replayed as timed public layer calls.
    fn replay(&mut self) -> Result<Replay, String>;
}

/// Stringify a library error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Directory this process writes scratch files under, inside the working
/// directory. Removed when the process ends.
pub fn scratch_root() -> PathBuf {
    Path::new(".perfbench_tmp").join(std::process::id().to_string())
}

/// A fresh scratch directory path, removed with everything in it when
/// dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        TempDir(scratch_root().join(NEXT.fetch_add(1, Relaxed).to_string()))
    }

    /// The files directly inside the directory, sorted by path.
    pub fn files(&self) -> Result<Vec<PathBuf>, String> {
        let mut paths = std::fs::read_dir(&self.0)
            .map_err(err)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        paths.sort();
        Ok(paths)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a directory that never got created is fine.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
