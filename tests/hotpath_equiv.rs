//! Pooled vs unpooled hot-path equivalence.
//!
//! The device's launch loop reuses per-thread scratch (shared memory,
//! shadow state, write logs) and retires writes as bulk contiguous runs;
//! the original allocate-per-block / element-by-element path is kept
//! behind `with_scratch_pooling(false)` as the reference implementation.
//! This suite pins the contract the optimization must uphold: across
//! every Fig. 6 variant, in every dimensionality, with tracing, the
//! sanitizer, and fault injection all enabled, the two paths produce
//! bit-identical outputs, identical counter ledgers, identical per-phase
//! traces, and identical sanitizer reports.
//!
//! Span `wall_ns` is host-clock time and inherently differs run to run;
//! it is normalized to zero before comparing traces. Everything else —
//! per-span counters, modeled time, launch indices — must match exactly.

use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport, VariantConfig,
};
use convstencil_repro::stencil_core::{Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::FaultPlan;

fn fault_plan() -> FaultPlan {
    FaultPlan::quiet(0x9001).with_smem_corrupt_rate(0.05)
}

fn assert_reports_match(pooled: &RunReport, unpooled: &RunReport, label: &str) {
    assert_eq!(
        pooled.counters, unpooled.counters,
        "{label}: counter ledgers differ"
    );
    assert_eq!(
        pooled.faults_injected, unpooled.faults_injected,
        "{label}: fault injection diverged"
    );
    let mut tp = pooled.trace.clone().expect("tracing on");
    let mut tu = unpooled.trace.clone().expect("tracing on");
    for span in tp.spans.iter_mut().chain(tu.spans.iter_mut()) {
        span.wall_ns = 0;
    }
    assert_eq!(tp, tu, "{label}: traces differ beyond wall_ns");
    assert_eq!(
        pooled.sanitizer, unpooled.sanitizer,
        "{label}: sanitizer reports differ"
    );
}

fn assert_bits_equal(pooled: &[f64], unpooled: &[f64], label: &str) {
    assert_eq!(pooled.len(), unpooled.len(), "{label}: length");
    for (i, (a, b)) in pooled.iter().zip(unpooled).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: output bit mismatch at flat index {i} ({a:?} vs {b:?})"
        );
    }
}

#[test]
fn pooled_matches_unpooled_1d_across_all_variants() {
    let k = Shape::Heat1D.kernel1d().unwrap();
    let mut g = Grid1D::new(3000, k.radius());
    g.fill_random(17);
    for (name, variant) in VariantConfig::breakdown() {
        let base = ConvStencil1D::new(k.clone())
            .with_variant(variant)
            .with_tracing(true)
            .with_sanitizer(true)
            .with_fault_plan(fault_plan());
        let (out_p, rep_p) = base.clone().run(&g, 3);
        let (out_u, rep_u) = base.with_scratch_pooling(false).run(&g, 3);
        assert_bits_equal(&out_p.interior(), &out_u.interior(), name);
        assert_reports_match(&rep_p, &rep_u, name);
    }
}

#[test]
fn pooled_matches_unpooled_2d_across_all_variants() {
    let k = Shape::Box2D9P.kernel2d().unwrap();
    let mut g = Grid2D::new(40, 72, k.radius());
    g.fill_random(23);
    for (name, variant) in VariantConfig::breakdown() {
        let base = ConvStencil2D::new(k.clone())
            .with_variant(variant)
            .with_tracing(true)
            .with_sanitizer(true)
            .with_fault_plan(fault_plan());
        let (out_p, rep_p) = base.clone().run(&g, 4);
        let (out_u, rep_u) = base.with_scratch_pooling(false).run(&g, 4);
        assert_bits_equal(&out_p.interior(), &out_u.interior(), name);
        assert_reports_match(&rep_p, &rep_u, name);
    }
}

#[test]
fn pooled_matches_unpooled_3d_across_all_variants() {
    let k = Shape::Box3D27P.kernel3d().unwrap();
    let mut g = Grid3D::new(6, 10, 40, k.radius());
    g.fill_random(31);
    for (name, variant) in VariantConfig::breakdown() {
        let base = ConvStencil3D::new(k.clone())
            .with_variant(variant)
            .with_tracing(true)
            .with_sanitizer(true)
            .with_fault_plan(fault_plan());
        let (out_p, rep_p) = base.clone().run(&g, 3);
        let (out_u, rep_u) = base.with_scratch_pooling(false).run(&g, 3);
        assert_bits_equal(&out_p.interior(), &out_u.interior(), name);
        assert_reports_match(&rep_p, &rep_u, name);
    }
}

#[test]
fn pooled_matches_unpooled_through_verified_retry() {
    // Verified execution re-runs after detected corruption; the pooled
    // path must replay the identical fault epochs and land on the same
    // verified result and retry count.
    let k = Shape::Heat2D.kernel2d().unwrap();
    let mut g = Grid2D::new(32, 64, k.radius());
    g.fill_random(41);
    let plan = FaultPlan::quiet(0x9002).with_smem_corrupt_rate(0.02);
    let base = ConvStencil2D::new(k)
        .with_tracing(true)
        .with_fault_plan(plan);
    let (out_p, rep_p) = base.clone().try_run_verified(&g, 3).unwrap();
    let (out_u, rep_u) = base
        .with_scratch_pooling(false)
        .try_run_verified(&g, 3)
        .unwrap();
    assert_bits_equal(&out_p.interior(), &out_u.interior(), "verified");
    assert_eq!(rep_p.retries, rep_u.retries, "retry counts differ");
    assert_eq!(rep_p.faults_detected, rep_u.faults_detected);
    assert_eq!(rep_p.counters, rep_u.counters);
}
