//! # convstencil-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §5 evaluation. Each
//! artifact has a dedicated binary (see DESIGN.md §3 for the index):
//!
//! | artifact | binary |
//! |---|---|
//! | Table 2 (latencies) | `table2_latencies` |
//! | Table 3 (memory expansion) | `table3_memory` |
//! | Table 4 (configurations) | `table4_config` |
//! | Table 5 (UGA / BC-per-request) | `table5_conflicts` |
//! | Fig. 6 (optimization breakdown) | `fig6_breakdown` |
//! | Fig. 7 (state-of-the-art comparison) | `fig7_sota` |
//! | Fig. 8 (vs DRStencil-T3 size sweep) | `fig8_drstencil` |
//! | §3.1/3.3 model (Eq. 13–15) | `model_validation` |
//!
//! Every binary accepts `--quick` to shrink the measured sizes. Modelled
//! throughput is measured at reduced scale and projected to the paper's
//! Table 4 sizes ([`projection`]); EXPERIMENTS.md records paper-vs-measured.

pub mod alloc_counter;
pub mod bench_json;
pub mod csv;
pub mod perf;
pub mod projection;
pub mod report;
pub mod workloads;

pub use bench_json::{maybe_write_bench_json, write_bench_json, BenchRecord};
pub use csv::{atomic_write, csv_mode, maybe_write_csv, write_csv};
pub use perf::{gate_violations, parse_perf_json, PerfRecord};
pub use projection::{project_report, Projection};
pub use workloads::{fig8_sizes_2d, fig8_sizes_3d, table4, workload_for, Workload};

/// Parse the common `--quick` flag.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
