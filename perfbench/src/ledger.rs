//! Per-layer ledger of the traced run.
//!
//! Every public call the traced replay makes into the workspace goes
//! through [`Ledger::time`], which records its host time and the
//! allocation calls made inside it under a [`Call`] kind. Each kind
//! belongs to one workspace module ([`Layer`]), so per-layer sums come
//! straight out of the ledger.

use crate::alloc;
use std::hint::black_box;
use std::time::Instant;

/// The workspace modules on the measured paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    StencilCore,
    ConvStencil,
    TcuSim,
    Runtime,
}

impl Layer {
    pub const ALL: [Layer; 4] = [
        Layer::StencilCore,
        Layer::ConvStencil,
        Layer::TcuSim,
        Layer::Runtime,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::StencilCore => "stencil_core",
            Layer::ConvStencil => "convstencil",
            Layer::TcuSim => "tcu_sim",
            Layer::Runtime => "runtime",
        }
    }
}

/// Kinds of timed public calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Exec*D::try_new`.
    Plan,
    /// `Exec*D::verify`.
    VerifyPlan,
    /// `try_build_ext` and `extract_into`.
    Layout,
    /// `Exec*D::try_run_application`.
    App,
    /// `try_halo_exchange_1d`.
    Halo,
    /// `check_samples`.
    Check,
    /// `ConvStencil*D::run_reference` (the `stencil_core` executors).
    Reference,
    /// Device creation, buffer upload and download, trace hand-off.
    Device,
    /// `Trace::to_jsonl`.
    TraceEncode,
    /// `Runtime::run_next` and `Runtime::resume`.
    Job,
    /// `Checkpoint::save`.
    CkptSave,
    /// `load_latest`.
    CkptLoad,
}

impl Call {
    pub fn layer(self) -> Layer {
        match self {
            Call::Reference => Layer::StencilCore,
            Call::Plan | Call::VerifyPlan | Call::Layout | Call::App | Call::Halo | Call::Check => {
                Layer::ConvStencil
            }
            Call::Device | Call::TraceEncode => Layer::TcuSim,
            Call::Job | Call::CkptSave | Call::CkptLoad => Layer::Runtime,
        }
    }
}

struct Entry {
    call: Call,
    secs: f64,
    allocs: u64,
}

/// Timed calls of one replay, in call order.
#[derive(Default)]
pub struct Ledger {
    entries: Vec<Entry>,
}

impl Ledger {
    /// Run `f` as one timed call of kind `call`.
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let allocs = alloc::calls();
        let start = Instant::now();
        let out = black_box(f());
        let secs = start.elapsed().as_secs_f64();
        self.entries.push(Entry {
            call,
            secs,
            allocs: alloc::calls() - allocs,
        });
        out
    }

    /// Position to pass to [`Ledger::secs_since`].
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Host seconds of every call recorded after `mark`.
    pub fn secs_since(&self, mark: usize) -> f64 {
        self.entries[mark..].iter().map(|e| e.secs).sum()
    }

    /// Host seconds of `call`, one sample per call.
    pub fn samples(&self, call: Call) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| e.call == call)
            .map(|e| e.secs)
            .collect()
    }

    /// Total host seconds of `call`.
    pub fn total(&self, call: Call) -> f64 {
        self.samples(call).iter().fold(0.0, |a, b| a + b)
    }

    /// Allocation calls made inside the calls of `layer`.
    pub fn allocs(&self, layer: Layer) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.call.layer() == layer)
            .map(|e| e.allocs)
            .sum()
    }
}
