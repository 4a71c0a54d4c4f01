//! Dynamic memory sanitizer: a `compute-sanitizer` analog for tcu-sim.
//!
//! When sanitizing is enabled on a [`crate::Device`], every block shadows
//! its shared memory (and, through the fragment loaders, every DMMA
//! operand it builds from shared memory) and reports typed [`Violation`]s:
//!
//! * **initcheck** — a shared-memory word is read that was never written
//!   during this launch. ConvStencil's dirty-bits padding slots are
//!   legitimately read-before-useful-write (fragment loads over-read into
//!   the padding), so kernels declare them via
//!   [`crate::BlockCtx::sanitize_exempt`]; reads of exempted words are not
//!   violations.
//! * **memcheck** — an out-of-bounds shared or global element index. The
//!   offending lanes are reported and then masked/clamped so the
//!   simulation can continue past the first defect.
//! * **racecheck** — two active lanes of one 16-lane store phase write
//!   *different* values to the same non-exempt shared word. (Identical
//!   values coalesce on hardware — and the dirty-bits trick deliberately
//!   dumps many lanes into one exempted padding slot — so neither is a
//!   race.)
//! * **bankcheck** — a per-phase bank-conflict histogram. Violations are
//!   raised for conflicted *load* phases only: §3.4's Conflicts Removal
//!   proves fragment/operand loads conflict-free (Table 5 "BC/R"), which
//!   is the property the padding calculus guarantees. Store-phase
//!   conflicts (the scatter's residue-class collisions, unavoidable for
//!   any layout) are binned in the histogram as diagnostics but are not
//!   violations.
//!
//! The shadow state is allocated per block *only when sanitizing is on* —
//! the default path carries a `None` and pays one branch per access.

use crate::shared::{SharedMemory, F64_PHASE_LANES};
use crate::trace::Phase;
use serde::{Deserialize, Serialize};

/// Number of phases a histogram is binned over.
pub const PHASE_COUNT: usize = Phase::ALL.len();

/// Cap on verbatim [`Violation`] records kept per report; totals keep
/// counting past the cap.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// The class of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Read of a shared word never written this launch (and not exempted).
    InitCheck,
    /// Out-of-bounds shared or global element index.
    MemCheck,
    /// Two lanes of one store phase wrote different values to one word.
    RaceCheck,
    /// A conflicted shared-memory *load* phase (replays > 0).
    BankCheck,
}

impl ViolationKind {
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::InitCheck => "initcheck",
            ViolationKind::MemCheck => "memcheck",
            ViolationKind::RaceCheck => "racecheck",
            ViolationKind::BankCheck => "bankcheck",
        }
    }
}

/// One sanitizer finding, localized to launch/block/phase/address.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Launch attempt index ([`crate::Device::launch_attempts`] coordinate).
    pub launch: u64,
    /// Block index within the launch.
    pub block: usize,
    /// Execution phase active when the access happened.
    pub phase: Phase,
    /// Representative element address (shared or global, per `detail`).
    pub addr: usize,
    /// Human-readable description of the finding.
    pub detail: String,
}

/// Where an injected shared-memory fault landed (see [`crate::fault`]).
/// A value corruption does not change *coverage*, so initcheck alone
/// cannot see it; the sanitizer instead records the exact site the fault
/// hook fired at, which the fault-injection tests cross-validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSite {
    pub launch: u64,
    pub block: usize,
    pub phase: Phase,
    pub addr: usize,
}

/// Aggregated sanitizer findings for one or more launches.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SanitizerReport {
    /// First [`MAX_RECORDED_VIOLATIONS`] findings, verbatim.
    pub violations: Vec<Violation>,
    /// Total initcheck findings (not capped).
    pub init_total: u64,
    /// Total memcheck findings (not capped).
    pub mem_total: u64,
    /// Total racecheck findings (not capped).
    pub race_total: u64,
    /// Total bankcheck findings: extra *load* replays, summed. Matches the
    /// device ledger's `shared_read_conflicts` for the sanitized launches.
    pub bank_total: u64,
    /// Extra load replays per phase (indexed by [`Phase::index`]).
    pub load_conflicts: [u64; PHASE_COUNT],
    /// Extra store replays per phase — diagnostics, not violations (see
    /// module docs).
    pub store_conflicts: [u64; PHASE_COUNT],
    /// Injected shared-memory faults observed while shadowing.
    pub fault_sites: Vec<FaultSite>,
}

impl SanitizerReport {
    /// Total violation count across all kinds (not capped).
    pub fn total_violations(&self) -> u64 {
        self.init_total + self.mem_total + self.race_total + self.bank_total
    }

    /// True when no violation of any kind was found. Injected-fault sites
    /// are deliberate and do not make a report unclean.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Total extra store replays binned in the diagnostic histogram.
    pub fn store_conflict_total(&self) -> u64 {
        self.store_conflicts.iter().sum()
    }

    /// Fold another report into this one (violation records stay capped).
    pub fn merge(&mut self, other: SanitizerReport) {
        let room = MAX_RECORDED_VIOLATIONS.saturating_sub(self.violations.len());
        self.violations
            .extend(other.violations.into_iter().take(room));
        self.init_total += other.init_total;
        self.mem_total += other.mem_total;
        self.race_total += other.race_total;
        self.bank_total += other.bank_total;
        for (a, b) in self.load_conflicts.iter_mut().zip(other.load_conflicts) {
            *a += b;
        }
        for (a, b) in self.store_conflicts.iter_mut().zip(other.store_conflicts) {
            *a += b;
        }
        self.fault_sites.extend(other.fault_sites);
    }

    /// Multi-line human-readable summary (CLI `--sanitize` output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "sanitizer: {} violation(s) [initcheck {}, memcheck {}, racecheck {}, bankcheck {}]\n",
            self.total_violations(),
            self.init_total,
            self.mem_total,
            self.race_total,
            self.bank_total,
        ));
        for (i, p) in Phase::ALL.iter().enumerate() {
            if self.load_conflicts[i] > 0 || self.store_conflicts[i] > 0 {
                s.push_str(&format!(
                    "  bank conflicts in {}: {} load replay(s), {} store replay(s)\n",
                    p.name(),
                    self.load_conflicts[i],
                    self.store_conflicts[i],
                ));
            }
        }
        if !self.fault_sites.is_empty() {
            s.push_str(&format!(
                "  injected smem fault site(s): {}\n",
                self.fault_sites.len()
            ));
        }
        for v in &self.violations {
            s.push_str(&format!(
                "  [{}] launch {} block {} phase {} addr {}: {}\n",
                v.kind.name(),
                v.launch,
                v.block,
                v.phase.name(),
                v.addr,
                v.detail,
            ));
        }
        s
    }

    fn record(&mut self, v: Violation) {
        match v.kind {
            ViolationKind::InitCheck => self.init_total += 1,
            ViolationKind::MemCheck => self.mem_total += 1,
            ViolationKind::RaceCheck => self.race_total += 1,
            // bank_total is bumped by the replay count at the call site.
            ViolationKind::BankCheck => {}
        }
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(v);
        }
    }
}

/// Per-block shadow of shared memory, owned by the block context while a
/// sanitized launch runs and folded into the device report afterwards.
#[derive(Debug)]
pub struct ShadowState {
    /// Word was stored to at least once this launch.
    written: Vec<bool>,
    /// Word is declared legitimately read-before-write (dirty-bits padding
    /// and fragment over-read tails).
    exempt: Vec<bool>,
    phase: Phase,
    launch: u64,
    block: usize,
    report: SanitizerReport,
}

impl ShadowState {
    pub fn new(shared_len: usize, launch: u64, block: usize) -> Self {
        Self {
            written: vec![false; shared_len],
            exempt: vec![false; shared_len],
            phase: Phase::Uncategorized,
            launch,
            block,
            report: SanitizerReport::default(),
        }
    }

    /// [`ShadowState::new`] over recycled shadow vectors (the launch
    /// scratch pool). The vectors are cleared and re-sized to all
    /// `false`, so a recycled shadow behaves bit-identically to a fresh
    /// one — only the two allocations are saved.
    pub fn recycle(
        mut written: Vec<bool>,
        mut exempt: Vec<bool>,
        shared_len: usize,
        launch: u64,
        block: usize,
    ) -> Self {
        written.clear();
        written.resize(shared_len, false);
        exempt.clear();
        exempt.resize(shared_len, false);
        Self {
            written,
            exempt,
            phase: Phase::Uncategorized,
            launch,
            block,
            report: SanitizerReport::default(),
        }
    }

    /// Currently active execution phase (mirrors [`crate::BlockCtx::phase`]).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Declare `[start, start + len)` exempt from initcheck/racecheck.
    /// Out-of-range parts are ignored (the range itself is not an access).
    pub fn exempt_range(&mut self, start: usize, len: usize) {
        let cap = self.exempt.len();
        let end = start.saturating_add(len).min(cap);
        for e in &mut self.exempt[start.min(cap)..end] {
            *e = true;
        }
    }

    /// Record the site of an injected shared-memory fault.
    pub fn record_fault(&mut self, addr: usize) {
        self.report.fault_sites.push(FaultSite {
            launch: self.launch,
            block: self.block,
            phase: self.phase,
            addr,
        });
    }

    fn violation(&mut self, kind: ViolationKind, addr: usize, detail: String) {
        let v = Violation {
            kind,
            launch: self.launch,
            block: self.block,
            phase: self.phase,
            addr,
            detail,
        };
        self.report.record(v);
    }

    /// Check a shared-memory load. Returns `true` when every address is in
    /// bounds (the caller may then issue the access unmodified).
    pub fn check_load(&mut self, shared: &SharedMemory, addrs: &[usize]) -> bool {
        let len = shared.len();
        let mut in_bounds = true;
        for chunk in addrs.chunks(F64_PHASE_LANES) {
            let degree = shared.phase_conflict_degree(chunk);
            if degree > 1 {
                let replays = (degree - 1) as u64;
                self.report.load_conflicts[self.phase.index()] += replays;
                self.report.bank_total += replays;
                self.violation(
                    ViolationKind::BankCheck,
                    chunk[0],
                    format!("load phase with {degree}-way bank conflict ({replays} replays)"),
                );
            }
            for &a in chunk {
                if a >= len {
                    in_bounds = false;
                    self.violation(
                        ViolationKind::MemCheck,
                        a,
                        format!("shared load out of bounds (capacity {len} f64)"),
                    );
                } else if !self.written[a] && !self.exempt[a] {
                    self.violation(
                        ViolationKind::InitCheck,
                        a,
                        "shared load of a word never written this launch".to_string(),
                    );
                }
            }
        }
        in_bounds
    }

    /// Check a shared-memory store. Returns `true` when every address is
    /// in bounds.
    pub fn check_store(&mut self, shared: &SharedMemory, addrs: &[usize], vals: &[f64]) -> bool {
        let len = shared.len();
        let mut in_bounds = true;
        for (chunk_idx, chunk) in addrs.chunks(F64_PHASE_LANES).enumerate() {
            let degree = shared.phase_conflict_degree(chunk);
            if degree > 1 {
                self.report.store_conflicts[self.phase.index()] += (degree - 1) as u64;
            }
            let base = chunk_idx * F64_PHASE_LANES;
            for (i, &a) in chunk.iter().enumerate() {
                if a >= len {
                    in_bounds = false;
                    self.violation(
                        ViolationKind::MemCheck,
                        a,
                        format!("shared store out of bounds (capacity {len} f64)"),
                    );
                    continue;
                }
                if !self.exempt[a] {
                    // Same word written twice in one phase with different
                    // values: on hardware one lane wins arbitrarily.
                    for (j, &b) in chunk[..i].iter().enumerate() {
                        if b == a && vals[base + i].to_bits() != vals[base + j].to_bits() {
                            self.violation(
                                ViolationKind::RaceCheck,
                                a,
                                format!(
                                    "lanes {} and {} store different values to one word \
                                     in one phase",
                                    base + j,
                                    base + i
                                ),
                            );
                            break;
                        }
                    }
                }
                self.written[a] = true;
            }
        }
        in_bounds
    }

    /// Check a warp of global element addresses against a buffer length
    /// (`INACTIVE` lanes skipped). Returns `true` when all are in bounds.
    pub fn check_global(&mut self, buffer_len: usize, addrs: &[usize], is_read: bool) -> bool {
        let mut in_bounds = true;
        for &a in addrs {
            if a != crate::global::INACTIVE && a >= buffer_len {
                in_bounds = false;
                let dir = if is_read { "read" } else { "write" };
                self.violation(
                    ViolationKind::MemCheck,
                    a,
                    format!("global {dir} out of bounds (buffer holds {buffer_len} f64)"),
                );
            }
        }
        in_bounds
    }

    /// Check a contiguous global span; returns the length that is safe to
    /// access (clamped at the buffer end), recording a violation if the
    /// span overruns.
    pub fn check_global_span(
        &mut self,
        buffer_len: usize,
        start: usize,
        len: usize,
        is_read: bool,
    ) -> usize {
        if start.saturating_add(len) <= buffer_len {
            return len;
        }
        let dir = if is_read { "read" } else { "write" };
        self.violation(
            ViolationKind::MemCheck,
            start.saturating_add(len).saturating_sub(1),
            format!(
                "global span {dir} [{start}, {}) overruns buffer of {buffer_len} f64",
                start + len
            ),
        );
        buffer_len.saturating_sub(start).min(len)
    }

    /// Consume the shadow, yielding this block's report.
    pub fn into_report(self) -> SanitizerReport {
        self.report
    }

    /// Consume the shadow, yielding the report plus the shadow vectors so
    /// the launch scratch pool can recycle them.
    pub fn into_parts(self) -> (SanitizerReport, Vec<bool>, Vec<bool>) {
        (self.report, self.written, self.exempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow(len: usize) -> (ShadowState, SharedMemory) {
        (ShadowState::new(len, 7, 3), SharedMemory::new(len, 32))
    }

    #[test]
    fn initcheck_flags_unwritten_reads_only() {
        let (mut s, m) = shadow(64);
        s.check_store(&m, &[0, 1, 2, 3], &[1.0; 4]);
        assert!(s.check_load(&m, &[0, 1, 2, 3]));
        assert_eq!(s.report.init_total, 0);
        assert!(s.check_load(&m, &[4]));
        assert_eq!(s.report.init_total, 1);
        let v = &s.report.violations[0];
        assert_eq!(v.kind, ViolationKind::InitCheck);
        assert_eq!((v.launch, v.block, v.addr), (7, 3, 4));
    }

    #[test]
    fn exempt_range_suppresses_initcheck() {
        let (mut s, m) = shadow(64);
        s.exempt_range(8, 4);
        assert!(s.check_load(&m, &[8, 9, 10, 11]));
        assert_eq!(s.report.init_total, 0);
        assert!(s.report.is_clean());
    }

    #[test]
    fn memcheck_flags_oob_and_reports_not_in_bounds() {
        let (mut s, m) = shadow(16);
        assert!(!s.check_load(&m, &[15, 16]));
        assert_eq!(s.report.mem_total, 1);
        assert!(!s.check_store(&m, &[99], &[0.0]));
        assert_eq!(s.report.mem_total, 2);
    }

    #[test]
    fn racecheck_ignores_coalesced_and_exempt_duplicates() {
        let (mut s, m) = shadow(64);
        // Same value to one word: legal coalescing.
        assert!(s.check_store(&m, &[5, 5], &[2.0, 2.0]));
        assert_eq!(s.report.race_total, 0);
        // Different values to an exempt (dirty padding) word: legal.
        s.exempt_range(10, 1);
        s.check_store(&m, &[10, 10], &[1.0, 2.0]);
        assert_eq!(s.report.race_total, 0);
        // Different values to a live word: a race.
        s.check_store(&m, &[6, 6], &[1.0, 2.0]);
        assert_eq!(s.report.race_total, 1);
        assert_eq!(
            s.report.violations.last().unwrap().kind,
            ViolationKind::RaceCheck
        );
    }

    #[test]
    fn racecheck_is_per_phase_not_per_call() {
        let (mut s, m) = shadow(128);
        // Lanes 0 and 16 land in different 16-lane phases: no race even
        // with different values.
        let mut addrs = vec![0usize; 32];
        addrs[16] = 0;
        for (i, a) in addrs.iter_mut().enumerate().take(16).skip(1) {
            *a = i;
        }
        for (i, a) in addrs.iter_mut().enumerate().skip(17) {
            *a = i;
        }
        let mut vals = vec![0.0; 32];
        vals[0] = 1.0;
        vals[16] = 2.0;
        s.check_store(&m, &addrs, &vals);
        assert_eq!(s.report.race_total, 0);
    }

    #[test]
    fn bankcheck_flags_conflicted_loads_and_bins_store_conflicts() {
        let (mut s, m) = shadow(1024);
        s.set_phase(Phase::Tessellation);
        // Stride-16 f64: all 16 lanes in one bank pair => degree 16.
        let addrs: Vec<usize> = (0..16).map(|i| i * 16).collect();
        s.check_store(&m, &addrs, &[1.0; 16]);
        assert_eq!(s.report.store_conflicts[Phase::Tessellation.index()], 15);
        assert_eq!(s.report.bank_total, 0, "store conflicts are not violations");
        s.check_load(&m, &addrs);
        assert_eq!(s.report.load_conflicts[Phase::Tessellation.index()], 15);
        assert_eq!(s.report.bank_total, 15);
        assert!(s
            .report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::BankCheck && v.phase == Phase::Tessellation));
    }

    #[test]
    fn global_span_check_clamps_and_reports() {
        let (mut s, _) = shadow(4);
        assert_eq!(s.check_global_span(100, 10, 20, true), 20);
        assert!(s.report.is_clean());
        assert_eq!(s.check_global_span(100, 90, 20, false), 10);
        assert_eq!(s.report.mem_total, 1);
        assert_eq!(s.check_global_span(100, 200, 5, true), 0);
        assert_eq!(s.report.mem_total, 2);
    }

    #[test]
    fn report_merge_caps_records_but_not_totals() {
        let mut total = SanitizerReport::default();
        for block in 0..40 {
            let mut s = ShadowState::new(8, 0, block);
            let m = SharedMemory::new(8, 32);
            s.check_load(&m, &[0, 1]); // 2 initcheck findings each
            total.merge(s.into_report());
        }
        assert_eq!(total.init_total, 80);
        assert_eq!(total.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert!(!total.is_clean());
        assert!(total.render().contains("initcheck 80"));
    }

    #[test]
    fn recycled_shadow_matches_fresh() {
        // Dirty a shadow thoroughly, then recycle its vectors into a new
        // (larger) shadow and re-run an access sequence next to a fresh
        // shadow: the reports must match exactly.
        let (mut dirty, m) = shadow(16);
        dirty.exempt_range(0, 16);
        dirty.check_store(&m, &[0, 1, 2, 3], &[1.0; 4]);
        let (_, written, exempt) = dirty.into_parts();
        let mut recycled = ShadowState::recycle(written, exempt, 32, 7, 3);
        let (mut fresh, m32) = (ShadowState::new(32, 7, 3), SharedMemory::new(32, 32));
        for s in [&mut recycled, &mut fresh] {
            s.check_store(&m32, &[4, 5], &[1.0, 2.0]);
            s.check_load(&m32, &[4, 5, 6]); // one initcheck at 6
        }
        assert_eq!(recycled.report, fresh.report);
        assert_eq!(recycled.report.init_total, 1);
    }

    #[test]
    fn fault_sites_localize_launch_block_phase() {
        let mut s = ShadowState::new(32, 11, 2);
        s.set_phase(Phase::SmemScatter);
        s.record_fault(17);
        let r = s.into_report();
        assert!(r.is_clean(), "fault sites alone leave a report clean");
        assert_eq!(
            r.fault_sites,
            vec![FaultSite {
                launch: 11,
                block: 2,
                phase: Phase::SmemScatter,
                addr: 17
            }]
        );
    }
}
