//! # convstencil — the paper's primary contribution
//!
//! Transforms stencil computation into Tensor Core matrix multiplication:
//!
//! * [`stencil2row`] — the memory-efficient layout transformation (Eq. 5–8).
//! * [`im2row`] — the GEMM-based-convolution layout it replaces (§2.2).
//! * [`weights`] — dual-tessellation weight matrices A & B (§3.3, Fig. 3).
//! * [`tessellation`] — dual tessellation, host-side executable spec.
//! * [`model`] — the closed-form analysis (Eq. 7–15, Table 3).
//! * [`numerics`] — FP64 accumulation-order / FP16-precision study (an
//!   extension quantifying the paper's FP64 motivation).
//! * [`verify_plan`] — static plan verifier proving the §3.4
//!   Conflicts-Removal properties (LUT totality/injectivity, dirty bits
//!   in padding, weight zero structure, conflict-free banking) before a
//!   plan is allowed to launch.

// Simulated warp code addresses lanes by index across several parallel
// arrays (addrs/vals/sums); iterator zips would obscure the lane model.
#![allow(clippy::needless_range_loop)]

pub mod api;
mod block;
pub mod dim;
pub mod error;
pub mod exec1d;
pub mod exec2d;
pub mod exec3d;
pub mod im2row;
pub mod model;
pub mod numerics;
pub mod plan;
pub mod profile;
pub mod stencil2row;
pub mod tessellation;
pub mod variants;
pub mod verify_plan;
pub mod weights;

pub use api::{
    check_samples, ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport,
    VerifyConfig, MAX_NK,
};
pub use dim::{try_run_applications, Dim, D1, D2, D3};
pub use error::{ConvStencilError, DeadlineKind};
pub use exec1d::Exec1D;
pub use exec2d::Exec2D;
pub use exec3d::Exec3D;
pub use plan::{Plan2D, ScatterLut};
pub use profile::{PhaseSummary, Profile};
pub use variants::VariantConfig;
pub use verify_plan::{verify_layout_2d, verify_lut_2d, verify_weights};
pub use weights::WeightMatrices;
