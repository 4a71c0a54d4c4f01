//! Shared implementation of the Appendix-A command-line interface:
//! `convstencil_1d`, `convstencil_2d`, `convstencil_3d`.
//!
//! Invocation grammar (paper Appendix A.4):
//!
//! ```text
//! convstencil_{x}d shape input_size... time_iteration_size [options]
//! ```
//!
//! * `shape`: `1d1r`/`1d2r` (1D), `star2d1r`/`box2d1r`/`star2d3r`/`box2d3r`
//!   (2D), `star3d1r`/`box3d1r` (3D).
//! * `input_size`: one value per dimension.
//! * `time_iteration_size`: number of time steps.
//! * `--help`: print usage; `--custom w1 w2 ...`: custom kernel weights
//!   (row-major over the shape's dense support); `--breakdown`: print the
//!   per-variant breakdown; `--quick`: cap the simulated size.
//!
//! Output format matches the artifact (A.5): computation time and
//! GStencil/s. Time is the *modelled* device time of the full problem
//! (this is a simulator; see DESIGN.md).

use convstencil::{
    ConvStencil, ConvStencilError, Dim, Profile, RunReport, VariantConfig, D1, D2, D3,
};
pub mod runtime_cmd;
use convstencil_runtime::JobDim;
pub use runtime_cmd::{main_resume, main_run, EXIT_ARTIFACT_READ};
use std::path::PathBuf;
use stencil_core::{fill_pseudorandom, Shape};
use tcu_sim::{CostModel, DeviceConfig, LaunchStats, Trace};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct CliArgs {
    pub shape: Shape,
    pub sizes: Vec<usize>,
    pub steps: usize,
    pub custom_weights: Option<Vec<f64>>,
    pub breakdown: bool,
    pub quick: bool,
    /// Print the per-phase profile table of each measured run.
    pub profile: bool,
    /// Export the span trace of the measured run(s) as JSONL.
    pub trace: Option<PathBuf>,
    /// Run under the stencil sanitizer: static plan verification before
    /// launch plus the dynamic shadow-memory report after.
    pub sanitize: bool,
    /// `check` subcommand: verify the plan statically and exit without
    /// running (nonzero exit on rejection).
    pub check: bool,
    /// Hidden: corrupt one LUT entry before `check` — negative control
    /// proving the verifier rejects a mutated plan.
    pub mutate_lut: bool,
}

/// Parse argv for a given dimensionality; returns `Err(usage)` on any
/// problem.
pub fn parse_args(dim: usize, argv: &[String]) -> Result<CliArgs, String> {
    if argv.iter().any(|a| a == "--help") {
        return Err(usage(dim));
    }
    let (argv, check) = match argv.first().map(String::as_str) {
        Some("check") => (&argv[1..], true),
        _ => (argv, false),
    };
    // `check` verifies a plan without running it, so the step count is
    // optional there.
    if argv.len() < dim + 1 + usize::from(!check) {
        return Err(usage(dim));
    }
    let shape = Shape::from_cli_name(&argv[0])
        .ok_or_else(|| format!("unknown shape '{}'\n{}", argv[0], usage(dim)))?;
    if shape.dim() != dim {
        return Err(format!(
            "shape {} is {}-dimensional; this binary is convstencil_{}d\n{}",
            argv[0],
            shape.dim(),
            dim,
            usage(dim)
        ));
    }
    let mut sizes = Vec::with_capacity(dim);
    for a in &argv[1..1 + dim] {
        sizes.push(a.parse::<usize>().map_err(|_| usage(dim))?);
    }
    let (steps, opts_start) = if argv.len() > dim + 1 && !argv[dim + 1].starts_with("--") {
        (
            argv[dim + 1].parse::<usize>().map_err(|_| usage(dim))?,
            dim + 2,
        )
    } else if check {
        (1, dim + 1)
    } else {
        return Err(usage(dim));
    };
    let mut custom_weights = None;
    let mut breakdown = false;
    let mut quick = false;
    let mut profile = false;
    let mut trace = None;
    let mut sanitize = false;
    let mut mutate_lut = false;
    let mut i = opts_start;
    while i < argv.len() {
        match argv[i].as_str() {
            "--breakdown" => breakdown = true,
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--sanitize" => sanitize = true,
            "--mutate-lut" => mutate_lut = true,
            "--trace" => {
                let path = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("--trace needs an output path\n{}", usage(dim)))?;
                trace = Some(PathBuf::from(path));
                i += 1;
            }
            "--custom" => {
                let need = shape.nk().pow(dim as u32);
                let vals: Result<Vec<f64>, _> = argv[i + 1..]
                    .iter()
                    .take(need)
                    .map(|a| a.parse::<f64>())
                    .collect();
                let vals = vals.map_err(|_| "invalid --custom weights".to_string())?;
                if vals.len() != need {
                    return Err(format!(
                        "--custom needs {need} weights for {}",
                        shape.name()
                    ));
                }
                i += need;
                custom_weights = Some(vals);
            }
            other => return Err(format!("unknown option '{other}'\n{}", usage(dim))),
        }
        i += 1;
    }
    Ok(CliArgs {
        shape,
        sizes,
        steps,
        custom_weights,
        breakdown,
        quick,
        profile,
        trace,
        sanitize,
        check,
        mutate_lut,
    })
}

/// Usage text per dimensionality.
pub fn usage(dim: usize) -> String {
    let (shapes, sizes) = match dim {
        1 => ("1d1r | 1d2r", "n"),
        2 => (
            "star2d1r | box2d1r | star2d2r | box2d2r | star2d3r | box2d3r",
            "m n",
        ),
        _ => ("star3d1r | box3d1r", "d m n"),
    };
    format!(
        "usage: convstencil_{dim}d <shape> <{sizes}> <time_iteration_size> [options]\n\
         \x20      convstencil_{dim}d check <shape> <{sizes}> [time_iteration_size] [options]\n\
         shapes: {shapes}\n\
         options:\n  --help       print this help\n  --custom w.. custom stencil kernel weights\n  --breakdown  per-optimization breakdown (Fig. 6 variants)\n  --quick      cap the simulated grid (results projected to the full size)\n  --profile    print the per-phase profile of each measured run\n  --trace FILE export the measured run's span trace as JSONL\n  --sanitize   run under the stencil sanitizer (static plan verification\n\x20              + dynamic shadow-memory checks; nonzero exit on findings)\n\
         the check subcommand verifies the plan statically (Conflicts-Removal\n\
         properties: LUT totality/injectivity, dirty bits in padding, weight\n\
         band structure, conflict-free banking) and exits without running.\n\
         the run / resume subcommands execute on the resilient multi-device\n\
         runtime (checkpoint/restart, circuit breakers, deadlines); see\n\
         `convstencil_{dim}d run --help`."
    )
}

/// Work that is generic over the dimension. [`on_dim`] is the one place
/// the CLI turns a dimensionality into a [`Dim`] marker.
pub(crate) trait DimOp {
    type Out;
    fn call<D: JobDim>(self) -> Self::Out;
}

pub(crate) fn on_dim<O: DimOp>(dim: usize, op: O) -> O::Out {
    match dim {
        1 => op.call::<D1>(),
        2 => op.call::<D2>(),
        _ => op.call::<D3>(),
    }
}

/// The benchmark kernel of `shape`, or `custom` weights over its support.
pub(crate) fn cli_kernel<D: Dim>(
    shape: Shape,
    custom: &Option<Vec<f64>>,
) -> Result<D::Kernel, ConvStencilError> {
    match custom {
        Some(w) => Ok(D::new_kernel(shape.radius(), w.clone())),
        None => D::shape_kernel(shape).ok_or_else(|| ConvStencilError::InvalidKernel {
            reason: format!("shape {} has no {}D kernel", shape.name(), D::N),
        }),
    }
}

/// A pseudo-random grid (seed 42) whose halo is the kernel radius.
pub(crate) fn random_grid<D: Dim>(extents: &[usize], kernel: &D::Kernel) -> D::Grid {
    let mut grid = D::new_grid(extents, D::radius(kernel));
    fill_pseudorandom(D::padded_mut(&mut grid), 42);
    grid
}

/// The variants a run or check covers: all of Fig. 6 under
/// `--breakdown`, else ConvStencil alone.
fn variants(args: &CliArgs) -> Vec<(&'static str, VariantConfig)> {
    if args.breakdown {
        VariantConfig::breakdown().to_vec()
    } else {
        vec![("ConvStencil", VariantConfig::conv_stencil())]
    }
}

/// One measured run of one variant.
struct RunVariant<'a> {
    args: &'a CliArgs,
    sizes: &'a [usize],
    variant: VariantConfig,
    tracing: bool,
    steps: usize,
}

impl DimOp for RunVariant<'_> {
    type Out = Result<RunReport, ConvStencilError>;

    fn call<D: JobDim>(self) -> Self::Out {
        let kernel = cli_kernel::<D>(self.args.shape, &self.args.custom_weights)?;
        let grid = random_grid::<D>(self.sizes, &kernel);
        let (_, report) = ConvStencil::<D>::try_new(kernel)?
            .with_variant(self.variant)
            .with_tracing(self.tracing)
            .with_sanitizer(self.args.sanitize)
            .try_run(&grid, self.steps)?;
        Ok(report)
    }
}

/// Static verification of one variant's plan; the inner result is the
/// verifier's verdict.
struct CheckVariant<'a> {
    args: &'a CliArgs,
    variant: VariantConfig,
}

impl DimOp for CheckVariant<'_> {
    type Out = Result<Result<(), ConvStencilError>, ConvStencilError>;

    fn call<D: JobDim>(self) -> Self::Out {
        let kernel = cli_kernel::<D>(self.args.shape, &self.args.custom_weights)?;
        let mut exec = D::try_exec(&kernel, &self.args.sizes, self.variant)?;
        if self.args.mutate_lut {
            D::corrupt_lut(&mut exec);
        }
        Ok(D::verify(&exec))
    }
}

/// The paper-format time line. Modelled times of small runs are well
/// under a millisecond, so the value keeps six decimals.
fn time_line(seconds: f64) -> String {
    format!("Time = {:.6}[ms]", seconds * 1e3)
}

fn project_gstencils(
    report: &RunReport,
    cfg: &DeviceConfig,
    points: u64,
    steps: u64,
) -> (f64, f64) {
    let scale = points as f64 / report.points as f64 * steps as f64 / report.steps as f64;
    let counters = report.counters.scaled(scale);
    let launches = ((report.launch_stats.kernel_launches as f64 * steps as f64
        / report.steps as f64)
        .round() as u64)
        .max(1);
    let blocks = ((report.launch_stats.total_blocks as f64 * scale).round() as u64).max(launches);
    let stats = LaunchStats {
        kernel_launches: launches,
        total_blocks: blocks,
    };
    let model = CostModel::new(cfg.clone());
    let total = model.evaluate(&counters, &stats).total;
    let g = model.gstencils_per_sec(&counters, &stats, points, steps) * report.throughput_scale;
    (total, g)
}

/// Run one configuration and print the artifact-format output. Returns
/// the modelled GStencils/s, or a typed error for any pipeline failure
/// (bad kernel, zero-sized grid, device fault, ...).
pub fn try_run_and_print(args: &CliArgs) -> Result<f64, ConvStencilError> {
    try_run_and_print_checked(args).map(|(g, _)| g)
}

/// [`try_run_and_print`] that also reports whether the sanitizer (when
/// requested with `--sanitize`) came back clean, so binaries can exit
/// nonzero on findings. Always `true` when the sanitizer is off.
pub fn try_run_and_print_checked(args: &CliArgs) -> Result<(f64, bool), ConvStencilError> {
    let cfg = DeviceConfig::a100();
    let dim = args.shape.dim();
    // Oversized grids are capped for simulation; the report is projected
    // back to the requested problem (same per-point event rates, exact
    // step count).
    let caps: &[usize] = match (dim, args.quick) {
        (1, true) => &[1 << 26],
        (1, false) => &[1 << 29],
        (2, true) => &[512, 512],
        (2, false) => &[2048, 2048],
        (_, true) => &[32, 128, 128],
        (_, false) => &[64, 256, 256],
    };
    let sizes: Vec<usize> = args
        .sizes
        .iter()
        .zip(caps)
        .map(|(&s, &c)| s.min(c))
        .collect();
    let steps_sim = args.steps.clamp(1, 6);
    println!(
        "INFO: shape = {}, {}, times = {}",
        args.shape.cli_name(),
        match dim {
            1 => format!("n = {}", args.sizes[0]),
            2 => format!("m = {}, n = {}", args.sizes[0], args.sizes[1]),
            _ => format!(
                "d = {}, m = {}, n = {}",
                args.sizes[0], args.sizes[1], args.sizes[2]
            ),
        },
        args.steps
    );
    let points: u64 = args.sizes.iter().map(|&s| s as u64).product();
    let tracing = args.profile || args.trace.is_some();
    let mut merged_trace = Trace::new();
    let mut last = 0.0;
    let mut sanitize_clean = true;
    for (name, variant) in variants(args) {
        let run = RunVariant {
            args,
            sizes: &sizes,
            variant,
            tracing,
            steps: steps_sim,
        };
        let report = on_dim(dim, run)?;
        let (time, gstencils) = project_gstencils(&report, &cfg, points, args.steps as u64);
        if args.breakdown {
            println!("{name}:");
        } else {
            println!("ConvStencil({dim}D):");
        }
        println!("{}", time_line(time));
        println!("GStencil/s = {gstencils:.6}");
        if let Some(san) = &report.sanitizer {
            let load_replays: u64 = san.load_conflicts.iter().sum();
            if san.is_clean() {
                println!(
                    "[sanitize] clean: 0 violations, {load_replays} load-phase bank \
                     conflict replays, {} fault sites",
                    san.fault_sites.len()
                );
            } else {
                sanitize_clean = false;
                println!(
                    "[sanitize] {} violation(s) (init {}, mem {}, race {}, bank {}):",
                    san.total_violations(),
                    san.init_total,
                    san.mem_total,
                    san.race_total,
                    san.bank_total
                );
                print!("{}", san.render());
            }
        }
        if let Some(trace) = &report.trace {
            if args.profile {
                println!("\nPer-phase profile of the measured run ({name}):");
                print!("{}", Profile::from_trace(trace).render_table());
            }
            merged_trace.merge(trace.clone());
        }
        last = gstencils;
    }
    if let Some(path) = &args.trace {
        convstencil_bench::atomic_write(path, &merged_trace.to_jsonl()).map_err(|e| {
            ConvStencilError::ArtifactWrite {
                path: path.display().to_string(),
                reason: e.to_string(),
            }
        })?;
        println!(
            "[trace] wrote {} spans to {}",
            merged_trace.len(),
            path.display()
        );
    }
    Ok((last, sanitize_clean))
}

/// `check` subcommand: build the plan(s) for the requested shape/size,
/// run the static verifier, and report. Returns `Ok(true)` when every
/// checked plan verifies, `Ok(false)` when any is rejected (binaries
/// exit nonzero). With `--mutate-lut` one lookup-table entry is
/// corrupted first — the negative control demonstrating rejection.
pub fn try_run_check(args: &CliArgs) -> Result<bool, ConvStencilError> {
    let mut all_ok = true;
    for (name, variant) in variants(args) {
        let result = on_dim(args.shape.dim(), CheckVariant { args, variant })?;
        match result {
            Ok(()) => println!(
                "[check] {name}: plan verified (LUT total + injective, dirty bits \
                 in padding, weights banded, banking conflict-free)"
            ),
            Err(e) => {
                all_ok = false;
                println!("[check] {name}: REJECTED: {e}");
            }
        }
    }
    Ok(all_ok)
}

/// Shared binary entry point: parse argv, dispatch the `check`, `run`,
/// and `resume` subcommands vs. a one-shot run, and return the process
/// exit code — `0` on success, `1` on a pipeline error, a rejected
/// plan, or sanitizer findings, `2` on a usage error, `3` on corrupt or
/// unreadable checkpoint state (see [`runtime_cmd`]).
pub fn main_for(dim: usize, argv: &[String]) -> i32 {
    match argv.first().map(String::as_str) {
        Some("run") => return main_run(dim, &argv[1..]),
        Some("resume") => return main_resume(dim, &argv[1..]),
        _ => {}
    }
    let args = match parse_args(dim, argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if args.check {
        return match try_run_check(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!(
                    "convstencil_{dim}d: error checking {}: {e}",
                    args.shape.name()
                );
                1
            }
        };
    }
    match try_run_and_print_checked(&args) {
        Ok((_, clean)) if clean => 0,
        Ok(_) => {
            eprintln!("convstencil_{dim}d: sanitizer reported violations");
            1
        }
        Err(e) => {
            eprintln!(
                "convstencil_{dim}d: error running {}: {e}",
                args.shape.name()
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_appendix_example() {
        // ./convstencil_2d box2d1r 10240 10240 10240
        let a = parse_args(2, &sv(&["box2d1r", "10240", "10240", "10240"])).unwrap();
        assert_eq!(a.shape, Shape::Box2D9P);
        assert_eq!(a.sizes, vec![10240, 10240]);
        assert_eq!(a.steps, 10240);
        assert!(!a.breakdown);
    }

    #[test]
    fn help_and_bad_input_yield_usage() {
        assert!(parse_args(2, &sv(&["--help"])).is_err());
        assert!(parse_args(2, &sv(&["box9d1r", "4", "4", "4"])).is_err());
        assert!(parse_args(2, &sv(&["box2d1r", "4", "4"])).is_err());
        // Dimension mismatch.
        assert!(parse_args(1, &sv(&["box2d1r", "4", "4", "4"])).is_err());
    }

    #[test]
    fn custom_weights_parse() {
        let mut args = vec![
            "1d1r".to_string(),
            "1000".into(),
            "4".into(),
            "--custom".into(),
        ];
        args.extend(["0.3", "0.4", "0.3"].iter().map(|s| s.to_string()));
        let a = parse_args(1, &args).unwrap();
        assert_eq!(a.custom_weights, Some(vec![0.3, 0.4, 0.3]));
    }

    #[test]
    fn check_subcommand_and_sanitize_flag_parse() {
        // Steps are optional under `check`.
        let a = parse_args(2, &sv(&["check", "box2d1r", "64", "64"])).unwrap();
        assert!(a.check);
        assert_eq!(a.steps, 1);
        let a = parse_args(2, &sv(&["check", "box2d3r", "64", "64", "--breakdown"])).unwrap();
        assert!(a.check && a.breakdown);
        let a = parse_args(2, &sv(&["check", "box2d1r", "64", "64", "--mutate-lut"])).unwrap();
        assert!(a.mutate_lut);
        let a = parse_args(2, &sv(&["box2d1r", "64", "64", "2", "--sanitize"])).unwrap();
        assert!(a.sanitize && !a.check);
        // A run (no `check`) still requires the step count.
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "--sanitize"])).is_err());
    }

    #[test]
    fn check_accepts_and_rejects_plans() {
        let good = parse_args(2, &sv(&["check", "box2d1r", "128", "128"])).unwrap();
        assert!(try_run_check(&good).unwrap());
        let bad = parse_args(2, &sv(&["check", "box2d1r", "128", "128", "--mutate-lut"])).unwrap();
        assert!(!try_run_check(&bad).unwrap());
    }

    fn small_2d_args() -> CliArgs {
        CliArgs {
            shape: Shape::Box2D9P,
            sizes: vec![128, 128],
            steps: 3,
            custom_weights: None,
            breakdown: false,
            quick: true,
            profile: false,
            trace: None,
            sanitize: false,
            check: false,
            mutate_lut: false,
        }
    }

    #[test]
    fn run_small_2d() {
        let g = try_run_and_print(&small_2d_args()).unwrap();
        assert!(g > 0.0);
    }

    #[test]
    fn small_2d_run_prints_a_nonzero_time() {
        let a = small_2d_args();
        let run = RunVariant {
            args: &a,
            sizes: &a.sizes,
            variant: VariantConfig::conv_stencil(),
            tracing: false,
            steps: a.steps,
        };
        let report = on_dim(2, run).unwrap();
        let (time, _) = project_gstencils(&report, &DeviceConfig::a100(), 128 * 128, 3);
        assert!(
            time > 0.0 && time < 1e-3,
            "expected a sub-millisecond run: {time} s"
        );
        let line = time_line(time);
        let ms: f64 = line
            .strip_prefix("Time = ")
            .and_then(|v| v.strip_suffix("[ms]"))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("malformed time line {line:?}"));
        assert!(ms > 0.0, "{line}");
    }

    #[test]
    fn profile_and_trace_flags_parse() {
        let a = parse_args(
            2,
            &sv(&[
                "box2d1r",
                "64",
                "64",
                "3",
                "--quick",
                "--profile",
                "--trace",
                "out.jsonl",
            ]),
        )
        .unwrap();
        assert!(a.profile);
        assert_eq!(a.trace, Some(PathBuf::from("out.jsonl")));
        // --trace without a path is a usage error.
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "3", "--trace"])).is_err());
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "3", "--trace", "--quick"])).is_err());
    }

    #[test]
    fn run_small_2d_with_trace_writes_valid_jsonl() {
        let dir = std::env::temp_dir().join("convstencil_cli_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let a = CliArgs {
            profile: true,
            trace: Some(path.clone()),
            ..small_2d_args()
        };
        let g = try_run_and_print(&a).unwrap();
        assert!(g > 0.0);
        let content = std::fs::read_to_string(&path).unwrap();
        let trace = Trace::from_jsonl(&content).unwrap();
        assert!(!trace.is_empty());
        assert!(trace.spans.iter().any(|s| s.counters.dmma_ops > 0));
    }
}
