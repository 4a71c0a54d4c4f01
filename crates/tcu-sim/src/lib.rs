//! # tcu-sim — a functional Tensor-Core GPU simulator
//!
//! This crate is the hardware substrate for the ConvStencil reproduction
//! (see the workspace `DESIGN.md`). It models an NVIDIA A100-class device:
//!
//! * **Fragments & MMA** ([`fragment`]): real FP64 arithmetic for the
//!   `m8n8k4` DMMA shape the paper builds on, plus a 16x16x16 FP16-class
//!   shape for the TCStencil analog.
//! * **Global memory** ([`global`]): 32-byte-sector coalescing model;
//!   uncoalesced-access accounting (paper Table 5, "UGA").
//! * **Shared memory** ([`shared`]): 32 x 4-byte banks; bank conflicts
//!   accounted per 16-lane FP64 phase exactly as the paper describes in
//!   §3.4/Fig. 5 ("BC/R" in Table 5), plus the padding calculus that makes
//!   strided fragment loads conflict-free.
//! * **Event ledger** ([`counters`]): every simulated instruction and
//!   memory transaction.
//! * **Performance model** ([`cost`]): the paper's Eq. 2–4 evaluated over
//!   the ledger, extended with CUDA-core instruction classes and a
//!   wave-quantization occupancy term (DESIGN.md §5).
//! * **Sanitizer** ([`sanitize`]): optional compute-sanitizer analog —
//!   per-block shadow memory reporting initcheck/memcheck/racecheck
//!   findings and a per-phase bank-conflict histogram; zero overhead when
//!   disabled.
//! * **Span tracing** ([`trace`]): optional per-phase observability —
//!   each launch decomposed into spans with exact counter attribution,
//!   modelled span time, and host wall-clock; JSONL export.
//! * **Device & launch** ([`device`]): kernels as closures over a
//!   [`device::BlockCtx`]; a launch's blocks run in parallel on every
//!   host core with GPU-faithful semantics that do not depend on block
//!   order (reads see pre-launch state, writes retire at launch end, in
//!   block order).
//!
//! The simulator is *functional + event-counting*: algorithm outputs are
//! numerically real (verified against CPU references) and performance is
//! modelled, never measured from host wall clock.

// Simulated warp code addresses lanes by index across parallel arrays
// (addrs/vals); iterator zips would obscure the lane model.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod cost;
pub mod counters;
pub mod device;
pub mod error;
pub mod fault;
pub mod fragment;
pub mod global;
pub mod sanitize;
pub mod shared;
pub mod trace;

pub use config::{DeviceConfig, LatencyTable};
pub use cost::{CostBreakdown, CostModel, LaunchStats};
pub use counters::Counters;
pub use device::{BlockCtx, Device};
pub use error::DeviceError;
pub use fault::{EccBurst, FaultPlan, HangSpec};
pub use fragment::{dmma, hmma, FragA, FragAcc, FragB, Tile16};
pub use global::{BufferId, GlobalMemory, INACTIVE};
pub use sanitize::{FaultSite, SanitizerReport, ShadowState, Violation, ViolationKind};
pub use shared::{conflict_free_pad, stride_is_conflict_free, SharedMemory};
pub use trace::{Phase, Span, Trace};
