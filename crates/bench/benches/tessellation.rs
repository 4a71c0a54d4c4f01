//! Criterion: dual tessellation — host algebra and the full simulated
//! device pipeline (one fused application), plus the naive reference for
//! scale.

use convstencil::stencil2row::build_2d;
use convstencil::tessellation::host_convstencil_2d;
use convstencil::{try_run_applications, Exec2D, VariantConfig, WeightMatrices, D2};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use stencil_core::{fill_pseudorandom, reference, Boundary, Grid2D, Kernel2D};
use tcu_sim::Device;

fn bench_host_tessellation(c: &mut Criterion) {
    let kernel = Kernel2D::box_uniform(3);
    let (prows, pcols) = (70, 134);
    let mut padded = vec![0.0; prows * pcols];
    fill_pseudorandom(&mut padded, 2);
    let (a, b2) = build_2d(&padded, prows, pcols, 7);
    let w = WeightMatrices::from_kernel2d(&kernel);
    c.bench_function("host_dual_tessellation_64x128", |b| {
        b.iter(|| host_convstencil_2d(black_box(&a), black_box(&b2), &w, prows, pcols))
    });
}

fn bench_simulated_pipeline(c: &mut Criterion) {
    let kernel = Kernel2D::box_uniform(3);
    let (m, n) = (128, 256);
    let mut grid = Grid2D::new(m, n, 3);
    grid.fill_random(3);
    let exec = Exec2D::try_new(&kernel, m, n, VariantConfig::conv_stencil()).expect("valid plan");
    let ext0 = exec.plan.try_build_ext(&grid).expect("grid matches plan");
    c.bench_function("simulated_convstencil_app_128x256", |b| {
        b.iter(|| {
            let mut dev = Device::a100();
            try_run_applications::<D2>(&mut dev, black_box(&exec), &ext0, 1, Boundary::Dirichlet)
                .expect("quiet device")
        })
    });
    c.bench_function("naive_reference_step_128x256", |b| {
        b.iter(|| reference::run2d(black_box(&grid), &kernel, 1))
    });
}

criterion_group!(benches, bench_host_tessellation, bench_simulated_pipeline);
criterion_main!(benches);
