//! Integration: ConvStencil (every dimension, every Table 4 shape, every
//! optimization variant) against the naive CPU reference.

use convstencil_repro::convstencil::{ConvStencil1D, ConvStencil2D, ConvStencil3D, VariantConfig};
use convstencil_repro::stencil_core::{
    max_abs_diff, reference, Grid1D, Grid2D, Grid3D, Kernel3D, Shape,
};

/// Deep-interior comparison (fusion approximates a boundary ring; see
/// DESIGN.md §4).
fn assert_core_2d(got: &Grid2D, want: &Grid2D, margin: usize) {
    for x in margin..got.rows() - margin {
        for y in margin..got.cols() - margin {
            let (a, b) = (got.get(x, y), want.get(x, y));
            assert!(
                (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-10,
                "({x},{y}): {a} vs {b}"
            );
        }
    }
}

#[test]
fn every_2d_benchmark_shape_matches_reference() {
    for shape in [
        Shape::Heat2D,
        Shape::Box2D9P,
        Shape::Star2D13P,
        Shape::Box2D49P,
    ] {
        let kernel = shape.kernel2d().unwrap();
        let cs = ConvStencil2D::new(kernel.clone());
        let mut grid = Grid2D::new(96, 160, cs.fused_kernel().radius());
        grid.fill_random(shape.points() as u64);
        let steps = 2 * cs.fusion();
        let (got, report) = cs.run(&grid, steps);
        let want = reference::run2d(&grid, &kernel, steps);
        assert_core_2d(&got, &want, steps * kernel.radius() + 1);
        assert!(report.counters.dmma_ops > 0, "{shape}");
        assert_eq!(
            report.counters.int_divmod_ops, 0,
            "{shape}: variant V has a LUT"
        );
    }
}

#[test]
fn every_variant_matches_on_2d() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let mut grid = Grid2D::new(64, 96, 3);
    grid.fill_random(5);
    let want = reference::run2d(&grid, &kernel, 3);
    for (name, variant) in VariantConfig::breakdown() {
        let cs = ConvStencil2D::new(kernel.clone()).with_variant(variant);
        let (got, _) = cs.run(&grid, 3);
        // CUDA variants run unfused (exact); TCU variants fuse (ring
        // approximation) — compare the deep interior for all.
        assert_core_2d(&got, &want, 10);
        let _ = name;
    }
}

#[test]
fn one_dimensional_shapes_match_reference() {
    for shape in [Shape::Heat1D, Shape::OneD5P] {
        let kernel = shape.kernel1d().unwrap();
        let cs = ConvStencil1D::new(kernel.clone());
        let mut grid = Grid1D::new(10_000, cs.fused_kernel().radius());
        grid.fill_random(3);
        let steps = 2 * cs.fusion();
        let (got, _) = cs.run(&grid, steps);
        let want = reference::run1d(&grid, &kernel, steps);
        let margin = steps * kernel.radius() + 1;
        for i in margin..10_000 - margin {
            let (a, b) = (got.get(i), want.get(i));
            assert!(
                (a - b).abs() / a.abs().max(1.0) < 1e-10,
                "{shape} [{i}]: {a} vs {b}"
            );
        }
    }
}

#[test]
fn three_dimensional_shapes_match_reference() {
    for shape in [Shape::Heat3D, Shape::Box3D27P] {
        let kernel = shape.kernel3d().unwrap();
        let cs = ConvStencil3D::new(kernel.clone());
        let mut grid = Grid3D::new(12, 24, 72, 1);
        grid.fill_random(8);
        let (got, report) = cs.run(&grid, 3);
        let want = reference::run3d(&grid, &kernel, 3);
        convstencil_repro::stencil_core::assert_close_default(&got.interior(), &want.interior());
        assert!(report.counters.dmma_ops > 0, "{shape}");
    }
}

#[test]
fn radius_two_3d_writes_every_column_on_every_variant() {
    // n_k = 5: a plane block of 64 / 6 = 10 column groups would leave 2
    // of every 10 groups outside the 8-group tessellation bands.
    let kernel = Kernel3D::box_uniform(2);
    let mut grid = Grid3D::new(4, 9, 70, 2);
    grid.fill_random(25);
    for (name, variant) in VariantConfig::breakdown() {
        let cs = ConvStencil3D::try_new(kernel.clone())
            .unwrap()
            .with_variant(variant);
        let (got, _) = cs.try_run(&grid, 1).unwrap();
        let want = cs.run_reference(&grid, 1);
        let err = max_abs_diff(&got.interior(), &want.interior());
        assert!(err <= 1e-12, "{name}: max |got - reference| = {err:e}");
    }
}

#[test]
fn arbitrary_grid_shapes_are_handled() {
    // Non-divisible, skinny and tiny grids through the full pipeline.
    let kernel = Shape::Heat2D.kernel2d().unwrap();
    for (m, n) in [(33, 257), (8, 8), (100, 17), (65, 1000)] {
        let cs = ConvStencil2D::new(kernel.clone());
        let mut grid = Grid2D::new(m, n, 3);
        grid.fill_random((m * n) as u64);
        let (got, _) = cs.run(&grid, 3);
        let want = reference::run2d(&grid, cs.fused_kernel(), 1);
        convstencil_repro::stencil_core::assert_close_default(&got.interior(), &want.interior());
    }
}

#[test]
fn long_runs_stay_stable() {
    // 30 steps of a sum-one kernel on a bounded field stays bounded.
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let cs = ConvStencil2D::new(kernel);
    let mut grid = Grid2D::new(64, 64, 3);
    grid.fill_random(1);
    let (out, report) = cs.run(&grid, 30);
    assert!(out
        .interior()
        .iter()
        .all(|v| v.is_finite() && v.abs() < 2.0));
    assert_eq!(report.steps, 30);
    assert_eq!(report.launch_stats.kernel_launches, 10); // 30 steps / fusion 3
}
