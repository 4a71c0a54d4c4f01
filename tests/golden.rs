//! Golden digests: the recorded behaviour of every runner path, checked
//! against `tests/golden/digests.txt`.
//!
//! Each line pins one run: the CRC-64 of the output grid's f64 bits, the
//! full counter ledger and launch stats, the sanitizer totals, a digest
//! of the span trace (wall times excluded) and, for runtime jobs, the
//! report fields, the event log and the CRC of every checkpoint file.
//! Refactors must reproduce every line exactly. On a mismatch the test
//! prints the actual lines and fails; there is no regeneration switch —
//! a deliberate behaviour change edits the file by hand.

use std::path::PathBuf;

use convstencil_repro::convstencil::{
    ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, Dim, RunReport, VariantConfig,
    VerifyConfig, D1, D2, D3,
};
use convstencil_repro::runtime::{crc64, Job, JobOutcome, JobPayload, Runtime, RuntimeConfig};
use convstencil_repro::stencil_core::{max_abs_diff, Boundary, Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::{Counters, FaultPlan, LaunchStats, SanitizerReport, Trace};

fn crc_f64(vals: &[f64]) -> String {
    let bytes: Vec<u8> = vals
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", crc64(&bytes))
}

fn ledger(counters: &Counters, launches: &LaunchStats) -> String {
    let mut s: Vec<String> = counters
        .field_pairs()
        .iter()
        .map(|(name, v)| format!("{name}={v}"))
        .collect();
    s.push(format!("launches={}", launches.kernel_launches));
    s.push(format!("blocks={}", launches.total_blocks));
    s.join(" ")
}

fn sanitizer(san: &Option<SanitizerReport>) -> String {
    match san {
        None => "san=off".to_string(),
        Some(s) => format!(
            "san=init:{},mem:{},race:{},bank:{},load:{:?},store:{:?},sites:{}",
            s.init_total,
            s.mem_total,
            s.race_total,
            s.bank_total,
            s.load_conflicts,
            s.store_conflicts,
            s.fault_sites.len()
        ),
    }
}

/// Digest of a trace without its host wall times (which vary run to run).
fn trace(t: &Option<Trace>) -> String {
    let Some(t) = t else {
        return "trace=off".to_string();
    };
    let mut bytes = Vec::new();
    for span in &t.spans {
        bytes.extend_from_slice(span.phase.name().as_bytes());
        bytes.extend_from_slice(&span.launch.to_le_bytes());
        bytes.extend_from_slice(&span.modeled_sec.to_bits().to_le_bytes());
        for (_, v) in span.counters.field_pairs() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    format!("trace={}:{:016x}", t.len(), crc64(&bytes))
}

fn report_line(case: &str, out: &[f64], r: &RunReport) -> String {
    format!(
        "{case} out={} points={} steps={} faults={}/{}/{} degraded={} verified={} {} {} {}",
        crc_f64(out),
        r.points,
        r.steps,
        r.faults_injected,
        r.faults_detected,
        r.retries,
        r.degraded,
        r.verified,
        sanitizer(&r.sanitizer),
        trace(&r.trace),
        ledger(&r.counters, &r.launch_stats)
    )
}

fn grid1d(halo: usize) -> Grid1D {
    let mut g = Grid1D::new(4096, halo);
    g.fill_random(11);
    g
}

fn grid2d(halo: usize) -> Grid2D {
    let mut g = Grid2D::new(64, 96, halo);
    g.fill_random(12);
    g
}

fn grid3d(halo: usize) -> Grid3D {
    let mut g = Grid3D::new(8, 24, 40, halo);
    g.fill_random(13);
    g
}

fn runner1d() -> ConvStencil1D {
    ConvStencil1D::try_new(Shape::Heat1D.kernel1d().unwrap()).unwrap()
}

fn runner2d() -> ConvStencil2D {
    ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap()).unwrap()
}

fn runner3d() -> ConvStencil3D {
    ConvStencil3D::try_new(Shape::Box3D27P.kernel3d().unwrap()).unwrap()
}

/// One Fig. 6 variant of `shape`, Dirichlet boundary, with the sanitizer
/// and tracing on, plus the CPU reference of the same run. The run must
/// be free of init/mem/race findings and match the reference.
fn variant_case<D: Dim>(
    lines: &mut Vec<String>,
    shape: Shape,
    (tag, variant): (&str, VariantConfig),
    grid: &D::Grid,
    steps: usize,
) {
    let runner = ConvStencil::<D>::try_new(D::shape_kernel(shape).unwrap())
        .unwrap()
        .with_variant(variant)
        .with_sanitizer(true)
        .with_tracing(true);
    let (out, rep) = runner.try_run(grid, steps).unwrap();
    let case = format!("{}/{tag}", shape.name().to_lowercase().replace('-', ""));
    let out = D::interior(&out);
    let reference = D::interior(&runner.run_reference(grid, steps));
    let san = rep.sanitizer.as_ref().unwrap();
    assert_eq!(san.init_total + san.mem_total + san.race_total, 0, "{case}");
    let err = max_abs_diff(&out, &reference);
    assert!(err <= 1e-12, "{case}: max |out - reference| = {err:e}");
    lines.push(report_line(&case, &out, &rep));
    lines.push(format!("{case}/reference out={}", crc_f64(&reference)));
}

/// Every Fig. 6 variant on one 1D, one 2D and one 3D shape.
fn variant_lines(lines: &mut Vec<String>, [s1, s2, s3]: [Shape; 3]) {
    for (name, variant) in VariantConfig::breakdown() {
        let v = (name.split(':').next().unwrap(), variant);
        variant_case::<D1>(lines, s1, v, &grid1d(1), 7);
        variant_case::<D2>(lines, s2, v, &grid2d(1), 7);
        variant_case::<D3>(lines, s3, v, &grid3d(1), 2);
    }
}

/// Default variant, untraced: periodic runs (halo wide enough to be used
/// as-is in 1D/2D) and verified runs under injected DMMA faults.
fn periodic_and_verified_lines(lines: &mut Vec<String>) {
    let periodic = Boundary::Periodic;
    let (out, rep) = runner1d()
        .with_boundary(periodic)
        .try_run(&grid1d(3), 7)
        .unwrap();
    lines.push(report_line("heat1d/periodic", &out.interior(), &rep));
    let (out, rep) = runner2d()
        .with_boundary(periodic)
        .try_run(&grid2d(3), 7)
        .unwrap();
    lines.push(report_line("box2d9p/periodic", &out.interior(), &rep));
    let (out, rep) = runner3d()
        .with_boundary(periodic)
        .try_run(&grid3d(1), 2)
        .unwrap();
    lines.push(report_line("box3d27p/periodic", &out.interior(), &rep));

    let cfg = VerifyConfig {
        sample_tiles: 0,
        ..VerifyConfig::default()
    };
    let faults = FaultPlan::quiet(5).with_dmma_flip_rate(0.0003);
    let (out, rep) = runner1d()
        .with_fault_plan(faults)
        .try_run_verified_with(&grid1d(1), 7, cfg)
        .unwrap();
    lines.push(report_line("heat1d/verified", &out.interior(), &rep));
    let (out, rep) = runner2d()
        .with_fault_plan(faults)
        .try_run_verified_with(&grid2d(1), 7, cfg)
        .unwrap();
    lines.push(report_line("box2d9p/verified", &out.interior(), &rep));
    let (out, rep) = runner3d()
        .with_fault_plan(faults)
        .try_run_verified_with(&grid3d(1), 2, cfg)
        .unwrap();
    lines.push(report_line("box3d27p/verified", &out.interior(), &rep));
}

fn job_line(case: &str, outcome: &JobOutcome) -> String {
    let r = &outcome.report;
    let events = format!("{:?}", r.events);
    format!(
        "{case} out={} halted={} steps={}/{} migrations={} degraded={} checkpoints={} \
         faults={}/{} resumed={:?} events={:016x} {} {}",
        crc_f64(&outcome.payload.interior()),
        outcome.halted,
        r.steps_done,
        r.steps_total,
        r.migrations,
        r.degraded,
        r.checkpoints_written,
        r.faults_detected,
        r.retries,
        r.resumed_from_step,
        crc64(events.as_bytes()),
        sanitizer(&r.sanitizer),
        ledger(&r.counters, &r.launch_stats)
    )
}

/// A sanitized job on two devices whose first device dies mid-run: it
/// migrates, checkpoints every 2 steps, halts after the first checkpoint
/// and resumes from it.
fn job_lines(lines: &mut Vec<String>) {
    let jobs = [
        (
            "heat1d",
            JobPayload::D1 {
                runner: runner1d().with_sanitizer(true),
                grid: grid1d(1),
            },
            7,
        ),
        (
            "box2d9p",
            JobPayload::D2 {
                runner: runner2d().with_sanitizer(true),
                grid: grid2d(1),
            },
            7,
        ),
        (
            "box3d27p",
            JobPayload::D3 {
                runner: runner3d().with_sanitizer(true),
                grid: grid3d(1),
            },
            4,
        ),
    ];
    for (tag, payload, steps) in jobs {
        let dir: PathBuf =
            std::env::temp_dir().join(format!("cs_golden_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RuntimeConfig {
            devices: 2,
            device_faults: vec![Some(FaultPlan::quiet(3).with_device_death_at(3))],
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(RuntimeConfig {
            halt_after_checkpoints: Some(1),
            ..config.clone()
        });
        rt.submit(Job {
            name: tag.to_string(),
            payload,
            steps,
        })
        .unwrap();
        let halted = rt.run_next().unwrap().unwrap();
        lines.push(job_line(&format!("{tag}/job/halted"), &halted));
        let (resumed, warnings) = Runtime::new(config).resume(Some(tag)).unwrap();
        assert!(warnings.is_empty(), "{tag}: {warnings:?}");
        lines.push(job_line(&format!("{tag}/job/resumed"), &resumed));
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        for f in files {
            let bytes = std::fs::read(&f).unwrap();
            lines.push(format!(
                "{tag}/job/checkpoint {} crc={:016x} bytes={}",
                f.file_name().unwrap().to_string_lossy(),
                crc64(&bytes),
                bytes.len()
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_runner_path_matches_the_recorded_digests() {
    let mut actual = Vec::new();
    variant_lines(
        &mut actual,
        [Shape::Heat1D, Shape::Box2D9P, Shape::Box3D27P],
    );
    periodic_and_verified_lines(&mut actual);
    job_lines(&mut actual);
    // Recorded after the lines above so the file only ever grows: n_k = 5
    // in 1D and 2D (Box-2D25P's 48-output bands are not a multiple of the
    // 32-lane warp) and Heat-3D's hybrid scalar/MMA planes (§4.2).
    variant_lines(&mut actual, [Shape::OneD5P, Shape::Box2D25P, Shape::Heat3D]);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt");
    let recorded = std::fs::read_to_string(&path).unwrap_or_default();
    let expected: Vec<&str> = recorded.lines().collect();
    if expected != actual {
        println!("---- actual digests ----");
        for line in &actual {
            println!("{line}");
        }
        println!("---- end ----");
        let first = expected
            .iter()
            .zip(&actual)
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        panic!(
            "golden digests differ from {} (expected {} lines, got {}); first difference at \
             line {}:\n  expected: {}\n  actual:   {}",
            path.display(),
            expected.len(),
            actual.len(),
            first + 1,
            expected.get(first).unwrap_or(&"<none>"),
            actual.get(first).map(String::as_str).unwrap_or("<none>")
        );
    }
}
