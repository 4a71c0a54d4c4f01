//! Host-performance gate over the Fig. 6 workloads.
//!
//! Times Heat-1D, Box-2D9P and Box-3D27P end-to-end (fully-optimized
//! variant) and records wall-clock, stencil throughput, and the heap
//! allocation ledger per run. Without flags it measures the quick
//! workloads and enforces the committed `results/BENCH_perf.json`
//! baseline; `--full` also measures the full Table-4 reduced sizes;
//! `--update-baseline` rewrites the baseline instead of gating.
//!
//! Thresholds (`MIN_POINTS_RATIO` and `MAX_ALLOC_RATIO` in `convstencil_bench::perf`):
//! a tight, deterministic allocation-count gate (1.5x) and a loose
//! wall-clock gate (0.35x) that only catches catastrophic slowdowns on
//! shared CI machines.

use convstencil::{ConvStencil1D, ConvStencil2D, ConvStencil3D};
use convstencil_baselines::ProblemSize;
use convstencil_bench::alloc_counter::{self, CountingAlloc};
use convstencil_bench::perf::{
    gate_violations, parse_perf_json, perf_baseline_path, write_perf_json, PerfRecord,
    MAX_ALLOC_RATIO, MIN_POINTS_RATIO,
};
use convstencil_bench::report::{banner, render_table};
use convstencil_bench::{workload_for, Workload};
use std::time::Instant;
use stencil_core::{Grid1D, Grid2D, Grid3D, Shape};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn run_workload(shape: Shape, size: ProblemSize, steps: usize) {
    match size {
        ProblemSize::D1(n) => {
            let k = shape.kernel1d().unwrap();
            let mut g = Grid1D::new(n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil1D::new(k).run(&g, steps);
        }
        ProblemSize::D2(m, n) => {
            let k = shape.kernel2d().unwrap();
            let mut g = Grid2D::new(m, n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil2D::new(k).run(&g, steps);
        }
        ProblemSize::D3(d, m, n) => {
            let k = shape.kernel3d().unwrap();
            let mut g = Grid3D::new(d, m, n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil3D::new(k).run(&g, steps);
        }
    }
}

fn measure(shape: Shape, mode: &str, w: &Workload) -> PerfRecord {
    alloc_counter::reset();
    let start = Instant::now();
    run_workload(shape, w.measure_size, w.measure_steps);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = alloc_counter::snapshot();
    let points = w.measure_size.points() as f64 * w.measure_steps as f64;
    PerfRecord {
        workload: shape.name().to_string(),
        mode: mode.to_string(),
        wall_ms: wall_s * 1e3,
        points_per_sec: points / wall_s,
        allocs: stats.calls,
        alloc_bytes: stats.bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let update = args.iter().any(|a| a == "--update-baseline");
    print!("{}", banner("Perf gate: Fig. 6 workload wall-clock"));
    let mut records = Vec::new();
    for shape in [Shape::Heat1D, Shape::Box2D9P, Shape::Box3D27P] {
        let w = workload_for(shape);
        records.push(measure(shape, "quick", &w.quick()));
        if full {
            records.push(measure(shape, "full", &w));
        }
    }
    let mut rows = vec![vec![
        "Workload".to_string(),
        "Mode".to_string(),
        "Wall (ms)".to_string(),
        "Points/s".to_string(),
        "Allocs".to_string(),
        "Alloc MiB".to_string(),
    ]];
    for r in &records {
        rows.push(vec![
            r.workload.clone(),
            r.mode.clone(),
            format!("{:.2}", r.wall_ms),
            format!("{:.3e}", r.points_per_sec),
            r.allocs.to_string(),
            format!("{:.1}", r.alloc_bytes as f64 / (1 << 20) as f64),
        ]);
    }
    print!("{}", render_table(&rows));
    if update {
        let path = write_perf_json(&records).expect("write BENCH_perf.json");
        println!("[perf-gate] baseline updated: {}", path.display());
        return;
    }
    let path = perf_baseline_path();
    let body = match std::fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!(
                "[perf-gate] no baseline at {} ({e}); run with --update-baseline to record one",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let baseline = match parse_perf_json(&body) {
        Ok(records) => records,
        Err(e) => {
            eprintln!(
                "[perf-gate] FAIL: unreadable baseline {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let violations = gate_violations(&baseline, &records);
    if violations.is_empty() {
        println!(
            "[perf-gate] PASS: {} record(s) within thresholds (min throughput ratio {}, max alloc ratio {})",
            records.len(),
            MIN_POINTS_RATIO,
            MAX_ALLOC_RATIO
        );
    } else {
        for v in &violations {
            eprintln!("[perf-gate] FAIL: {v}");
        }
        std::process::exit(1);
    }
}
