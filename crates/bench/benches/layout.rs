//! Criterion: the layout-transformation machinery itself (host-side
//! library performance, not simulated GPU time) — stencil2row vs im2row
//! construction, LUT building, weight-matrix building.

use convstencil::im2row::im2row_2d;
use convstencil::plan::Plan2D;
use convstencil::stencil2row::build_2d;
use convstencil::{VariantConfig, WeightMatrices};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stencil_core::{fill_pseudorandom, Kernel2D};

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_transforms");
    for nk in [3usize, 7] {
        let (prows, pcols) = (256, 256);
        let mut padded = vec![0.0; prows * pcols];
        fill_pseudorandom(&mut padded, 1);
        group.bench_with_input(BenchmarkId::new("stencil2row", nk), &nk, |b, &nk| {
            b.iter(|| build_2d(black_box(&padded), prows, pcols, nk))
        });
        group.bench_with_input(BenchmarkId::new("im2row", nk), &nk, |b, &nk| {
            b.iter(|| im2row_2d(black_box(&padded), prows, pcols, nk))
        });
    }
    group.finish();
}

fn bench_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    group.bench_function("scatter_lut_nk7", |b| {
        let plan =
            Plan2D::try_new_2d(1024, 1024, 7, VariantConfig::conv_stencil()).expect("valid plan");
        b.iter(|| plan.build_scatter_lut(black_box(VariantConfig::conv_stencil())))
    });
    group.bench_function("weight_matrices_nk7", |b| {
        let k = Kernel2D::box_uniform(3);
        b.iter(|| WeightMatrices::from_kernel2d(black_box(&k)))
    });
    group.finish();
}

criterion_group!(benches, bench_transforms, bench_planning);
criterion_main!(benches);
