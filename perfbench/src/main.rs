//! Repository benchmark for the ConvStencil reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <box2d-run|heat1d-verified|box3d-job|box2d-checked> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times end-to-end runs with tracing off and reports
//! the end-to-end metrics; with `--trace 1` it alternates those runs with
//! traced replays of the same path as public layer calls and reports the
//! per-layer metrics. Every run's output is checked against the CPU
//! reference outside the timed region, and every run must reproduce the
//! first run's output bits and counter ledger. The last line of standard
//! output is one JSON object; the exit code is 1 when any check failed.
//! See `README.md` beside this crate for the workloads and metrics.

mod alloc;
mod calib;
mod ledger;
mod stats;
mod workloads;

use ledger::{Call, Layer};
use stats::{digest, digest_bytes, median, quantile};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stencil_core::{check_close, DEFAULT_TOL};
use workloads::{Box2d, Box3dJob, Checked, Heat1d, Replay, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups timed before every timed run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 10;
/// Timed end-to-end runs made even when `--seconds` has run out.
const MIN_RUNS: usize = 3;
const MIB: f64 = (1u64 << 20) as f64;

/// Workload-specific per-layer metrics, reported as 0 where the workload
/// does not exercise the layer.
const EXTRA_METRICS: [(&str, &str); 9] = [
    ("tcu_sim.sanitizer_overhead", "ratio"),
    ("tcu_sim.trace_spans", "count"),
    ("runtime.ckpt_save_s", "s"),
    ("runtime.ckpt_load_s", "s"),
    ("runtime.ckpt_mib", "MiB"),
    ("runtime.self_s", "s"),
    ("runtime.checkpoints", "count"),
    ("runtime.migrations", "count"),
    ("runtime.useful_step_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <box2d-run|heat1d-verified|box3d-job|box2d-checked> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Digests a later run must reproduce exactly.
#[derive(Clone, Copy, Default, PartialEq)]
struct Fingerprint {
    output: u64,
    ledger: u64,
    model_bits: u64,
}

fn fingerprint(
    output: &[f64],
    c: &tcu_sim::Counters,
    l: &tcu_sim::LaunchStats,
    model: f64,
) -> Fingerprint {
    let counts = c.field_pairs().map(|(_, v)| v);
    Fingerprint {
        output: digest(output.iter().map(|v| v.to_bits())),
        ledger: digest(
            counts
                .into_iter()
                .chain([l.kernel_launches, l.total_blocks]),
        ),
        model_bits: model.to_bits(),
    }
}

#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    setup: Vec<f64>,
    cals: Vec<f64>,
    walls: Vec<f64>,
    peaks: Vec<f64>,
    points_per_s: Vec<f64>,
    max_abs_err: f64,
    rms_err: f64,
    model: f64,
    base: Option<(Fingerprint, tcu_sim::Counters, tcu_sim::LaunchStats)>,
    replays: Vec<Replay>,
}

impl Measured {
    /// How much slower this run's host was than the reference host
    /// (`src/calib.rs`): a rate is normalised by multiplying by it, a
    /// time by dividing by it.
    fn slowdown(&self) -> f64 {
        ratio(median(&self.cals), calib::REFERENCE_SECS)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Hold a run's fingerprint against the first one seen.
    fn same_as_base(&mut self, fp: Fingerprint, c: &Checked) -> Result<(), String> {
        match &self.base {
            None => {
                self.base = Some((fp, c.counters, c.launches));
                Ok(())
            }
            Some((base, ..)) if *base == fp => Ok(()),
            Some(_) => Err(
                "output bits, counter ledger or modelled throughput changed between runs".into(),
            ),
        }
    }

    /// One end-to-end run plus its checks; `timed` runs join the samples.
    fn end_to_end<W: Workload>(&mut self, w: &mut W, timed: bool) -> Result<(), String> {
        let run = w.run()?;
        let checked = w.check(run.out)?;
        let reference = w.reference();
        check_close(&checked.output, reference, DEFAULT_TOL)
            .map_err(|e| format!("output does not match the CPU reference: {e}"))?;
        let (mut max_err, mut sum_sq) = (0.0f64, 0.0);
        for (a, b) in checked.output.iter().zip(reference) {
            max_err = max_err.max((a - b).abs());
            sum_sq += (a - b) * (a - b);
        }
        let fp = fingerprint(
            &checked.output,
            &checked.counters,
            &checked.launches,
            checked.model_gstencils_per_s,
        );
        self.same_as_base(fp, &checked)?;
        self.max_abs_err = self.max_abs_err.max(max_err);
        self.rms_err = (sum_sq / reference.len() as f64).sqrt();
        self.model = checked.model_gstencils_per_s;
        if timed {
            self.walls.push(run.secs);
            self.peaks.push(run.peak_bytes as f64 / MIB);
            self.points_per_s.push(w.point_updates() as f64 / run.secs);
        }
        Ok(())
    }

    /// One traced replay; it must reproduce the end-to-end output and ledger.
    fn replay<W: Workload>(&mut self, w: &mut W) -> Result<(), String> {
        let r = w.replay()?;
        let (base, ..) = self
            .base
            .ok_or("no checked end-to-end run to compare the replay with")?;
        let fp = fingerprint(
            &r.output,
            &r.counters,
            &r.launches,
            f64::from_bits(base.model_bits),
        );
        if fp != base {
            return Err("the layer replay diverged from the end-to-end output or ledger".into());
        }
        self.replays.push(r);
        Ok(())
    }
}

fn measure<W: Workload>(w: &mut W, args: &Args) -> Measured {
    let mut m = Measured::default();
    // Warm-up: fills caches and the scratch pools' first allocations, and
    // fixes the fingerprint every later run must reproduce.
    m.attempted += 1;
    if let Err(e) = m.end_to_end(w, false) {
        m.fail(format!("warm-up run: {e}"));
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline || m.walls.len() < MIN_RUNS {
        m.cals.push(calib::calibration_secs());
        for _ in 0..SETUPS_PER_RUN {
            match w.setup_secs() {
                Ok(s) => m.setup.push(s),
                Err(e) => m.fail(format!("set-up: {e}")),
            }
        }
        m.attempted += 1;
        let run = m.end_to_end(w, true);
        // A second sample after the run brackets it.
        m.cals.push(calib::calibration_secs());
        if let Err(e) = run {
            m.fail(format!("run: {e}"));
            if m.failed as usize > 2 * MIN_RUNS {
                break;
            }
        }
        if args.trace {
            m.attempted += 1;
            if let Err(e) = m.replay(w) {
                m.fail(format!("replay: {e}"));
            }
        }
    }
    m
}

fn end_to_end_metrics(m: &Measured) -> Vec<Metric> {
    let slowdown = m.slowdown();
    vec![
        metric("points_per_s", "1/s", median(&m.points_per_s) * slowdown),
        metric("setup_s", "s", median(&m.setup) / slowdown),
        metric("peak_heap_mib", "MiB", median(&m.peaks)),
        metric("model_gstencils_per_s", "GStencil/s", m.model),
        metric("rms_err", "abs", m.rms_err),
    ]
}

fn per_layer_metrics(m: &Measured) -> Vec<Metric> {
    let rs = &m.replays;
    let per = |f: &dyn Fn(&Replay) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let ms = |call| -> Vec<f64> {
        rs.iter()
            .flat_map(|r| r.ledger.samples(call))
            .map(|s| s * 1e3)
            .collect()
    };
    let (app_ms, halo_ms) = (ms(Call::App), ms(Call::Halo));
    let (c, l) = m.base.map(|(_, c, l)| (c, l)).unwrap_or_default();
    let mut out = vec![
        metric("convstencil.app_ms_p50", "ms", quantile(&app_ms, 0.5)),
        metric("convstencil.app_ms_p90", "ms", quantile(&app_ms, 0.9)),
        metric("convstencil.app_count", "count", app_ms.len() as f64),
        metric("convstencil.halo_ms_p50", "ms", quantile(&halo_ms, 0.5)),
        metric("convstencil.halo_count", "count", halo_ms.len() as f64),
        metric(
            "convstencil.layout_s",
            "s",
            per(&|r| r.ledger.total(Call::Layout)),
        ),
        metric(
            "convstencil.plan_s",
            "s",
            per(&|r| r.ledger.total(Call::Plan)),
        ),
        metric(
            "convstencil.verify_plan_s",
            "s",
            per(&|r| r.ledger.total(Call::VerifyPlan)),
        ),
        metric(
            "convstencil.check_s",
            "s",
            per(&|r| r.ledger.total(Call::Check)),
        ),
        metric(
            "stencil_core.reference_s",
            "s",
            per(&|r| r.ledger.total(Call::Reference)),
        ),
        metric(
            "tcu_sim.ns_per_dmma",
            "ns",
            per(&|r| ratio(r.ledger.total(Call::App) * 1e9, r.counters.dmma_ops as f64)),
        ),
        metric("tcu_sim.dmma_ops", "count", c.dmma_ops as f64),
        metric(
            "tcu_sim.gmem_sectors",
            "count",
            (c.global_read_sectors + c.global_write_sectors) as f64,
        ),
        metric(
            "tcu_sim.smem_requests",
            "count",
            (c.shared_read_requests + c.shared_write_requests) as f64,
        ),
        metric(
            "tcu_sim.bank_conflicts",
            "count",
            (c.shared_read_conflicts + c.shared_write_conflicts) as f64,
        ),
        metric("tcu_sim.launches", "count", l.kernel_launches as f64),
        metric("tcu_sim.blocks", "count", l.total_blocks as f64),
        metric(
            "tcu_sim.computed_gmem_bytes",
            "bytes",
            (c.global_read_bytes + c.global_write_bytes) as f64,
        ),
        metric(
            "tcu_sim.trace_encode_s",
            "s",
            per(&|r| r.ledger.total(Call::TraceEncode)),
        ),
    ];
    for (name, unit) in EXTRA_METRICS {
        let value = per(&|r| {
            r.extra
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        });
        out.push(metric(name, unit, value));
    }
    for layer in Layer::ALL {
        out.push(metric(
            format!("{}.allocs", layer.name()),
            "count",
            per(&|r| r.ledger.allocs(layer) as f64),
        ));
    }
    let section = median(&rs.iter().map(|r| r.section_secs).collect::<Vec<_>>());
    out.push(metric("trace.overhead_s", "s", section - median(&m.walls)));
    out.push(metric(
        "trace.unattributed_s",
        "s",
        per(&|r| r.section_secs - r.section_calls_secs),
    ));
    out
}

/// Git revision when run from a git checkout; the benchmark's checkout
/// usually is not one, so every result also carries a source digest.
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of every file under `crates/` and `perfbench/src/`: identifies
/// the measured source where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let bytes = files.iter().flat_map(|p| {
        let mut bytes = p.to_string_lossy().into_owned().into_bytes();
        bytes.extend(std::fs::read(p).unwrap_or_default());
        bytes
    });
    format!("{:016x}", digest_bytes(bytes))
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let measured = match args.workload.as_str() {
        "box2d-run" => Box2d::run_workload(seed).map(|mut w| measure(&mut w, &args)),
        "heat1d-verified" => Heat1d::new(seed).map(|mut w| measure(&mut w, &args)),
        "box3d-job" => Box3dJob::new(seed).map(|mut w| measure(&mut w, &args)),
        "box2d-checked" => Box2d::checked_workload(seed).map(|mut w| measure(&mut w, &args)),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(workloads::scratch_root());
    let _ = std::fs::remove_dir(".perfbench_tmp");
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &m.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let metrics = if args.trace {
        per_layer_metrics(&m)
    } else {
        end_to_end_metrics(&m)
    };
    for x in &metrics {
        println!("{:<28} {:>16.6e} {}", x.name, x.value, x.unit);
    }
    let fp = m.base.map(|(fp, ..)| fp).unwrap_or_default();
    println!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\"git_revision\":{},\
         \"source_digest\":{},\"rustc\":{},\"setup_samples\":{},\"timed_runs\":{},\"replays\":{},\
         \"fail_ratio\":{:?},\"max_abs_err\":{:?},\"calibration_s\":{:?},\"raw_points_per_s\":{:?},\"raw_setup_s\":{:?},\
         \"output_digest\":\"{:016x}\",\"ledger_digest\":\"{:016x}\"}}}}",
        json_str(&args.workload),
        seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&git_revision()),
        json_str(&source_digest()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        m.setup.len(),
        m.walls.len(),
        m.replays.len(),
        ratio(m.failed as f64, m.attempted as f64),
        m.max_abs_err,
        median(&m.cals),
        median(&m.points_per_s),
        median(&m.setup),
        fp.output,
        fp.ledger,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    let correct = m.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.attempted,
        m.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
