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
//! The shadow is one state byte per shared word (written / exempt), so
//! initcheck is one lookup per lane. It is allocated per block *only when
//! sanitizing is on*; the default path carries a `None` and pays one
//! branch per access. The shadow computes no bank-conflict degree of its
//! own for an in-bounds request: it consumes the per-phase degrees the
//! shared-memory ledger is charged from (fragment loads take theirs from
//! the per-block degree cache), and the same pass counts each phase's
//! distinct addresses, so racecheck's lane-pair scan runs only on phases
//! that repeat an address. Only a request with an out-of-bounds lane is
//! judged on its own pass over the addresses as issued, because the
//! ledger then charges the clamped or filtered request.

use crate::shared::{PhaseStats, SharedMemory, F64_PHASE_LANES};
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
    /// device ledger's `shared_read_conflicts` for the sanitized launches,
    /// except for loads with out-of-bounds lanes: those are judged on the
    /// addresses as issued, while the ledger charges them clamped.
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

    /// Count one finding of `kind`; `v` is its verbatim record, built by
    /// the caller only while the list has room.
    fn record(&mut self, kind: ViolationKind, v: Option<Violation>) {
        match kind {
            ViolationKind::InitCheck => self.init_total += 1,
            ViolationKind::MemCheck => self.mem_total += 1,
            ViolationKind::RaceCheck => self.race_total += 1,
            // bank_total is bumped by the replay count at the call site.
            ViolationKind::BankCheck => {}
        }
        self.violations.extend(v);
    }
}

/// Shadow state bit: the word was stored to at least once this launch.
const WRITTEN: u8 = 1;
/// Shadow state bit: the word is declared legitimately read-before-write
/// (dirty-bits padding and fragment over-read tails).
const EXEMPT: u8 = 2;

/// Per-block shadow of shared memory, owned by the block context while a
/// sanitized launch runs and folded into the device report afterwards.
#[derive(Debug)]
pub struct ShadowState {
    /// One state byte per shared word ([`WRITTEN`] | [`EXEMPT`]); a word
    /// is readable iff its byte is nonzero.
    state: Vec<u8>,
    phase: Phase,
    launch: u64,
    block: usize,
    report: SanitizerReport,
}

impl ShadowState {
    /// A fresh shadow of `shared_len` words over a recycled state vector
    /// (the launch scratch pool). The vector is cleared and re-sized to
    /// all zero, so whatever it held before, the shadow starts with no
    /// word written or exempt; only the allocation is reused.
    pub fn recycle(mut state: Vec<u8>, shared_len: usize, launch: u64, block: usize) -> Self {
        state.clear();
        state.resize(shared_len, 0);
        Self {
            state,
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
        let cap = self.state.len();
        let end = start.saturating_add(len).min(cap);
        for e in &mut self.state[start.min(cap)..end] {
            *e |= EXEMPT;
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

    /// Count a finding, and keep it verbatim while the record has room
    /// (the detail is only formatted then).
    fn violation(&mut self, kind: ViolationKind, addr: usize, detail: impl FnOnce() -> String) {
        let v = (self.report.violations.len() < MAX_RECORDED_VIOLATIONS).then(|| Violation {
            kind,
            launch: self.launch,
            block: self.block,
            phase: self.phase,
            addr,
            detail: detail(),
        });
        self.report.record(kind, v);
    }

    /// Check a shared-memory load. Returns `true` when every address is in
    /// bounds (the caller may then issue the access unmodified).
    pub fn check_load(&mut self, shared: &SharedMemory, addrs: &[usize]) -> bool {
        let mut in_bounds = true;
        for phase in addrs.chunks(F64_PHASE_LANES) {
            in_bounds &= self.load_phase(phase, shared.phase_stats(phase).degree);
        }
        in_bounds
    }

    /// Check one 16-lane load phase whose conflict degree the caller has
    /// already found: bankcheck first, then memcheck/initcheck per lane.
    /// Returns `true` when every address is in bounds.
    pub(crate) fn load_phase(&mut self, phase: &[usize], degree: u32) -> bool {
        if degree > 1 {
            let replays = (degree - 1) as u64;
            self.report.load_conflicts[self.phase.index()] += replays;
            self.report.bank_total += replays;
            self.violation(ViolationKind::BankCheck, phase[0], || {
                format!("load phase with {degree}-way bank conflict ({replays} replays)")
            });
        }
        let mut in_bounds = true;
        for &a in phase {
            match self.state.get(a) {
                Some(0) => self.violation(ViolationKind::InitCheck, a, || {
                    "shared load of a word never written this launch".to_string()
                }),
                Some(_) => {}
                None => {
                    in_bounds = false;
                    let len = self.state.len();
                    self.violation(ViolationKind::MemCheck, a, || {
                        format!("shared load out of bounds (capacity {len} f64)")
                    });
                }
            }
        }
        in_bounds
    }

    /// Check a shared-memory store. Returns `true` when every address is
    /// in bounds.
    pub fn check_store(&mut self, shared: &SharedMemory, addrs: &[usize], vals: &[f64]) -> bool {
        let mut in_bounds = true;
        for (i, phase) in addrs.chunks(F64_PHASE_LANES).enumerate() {
            let first = i * F64_PHASE_LANES;
            in_bounds &= self.store_phase(first, phase, vals, shared.phase_stats(phase));
        }
        in_bounds
    }

    /// Check one 16-lane store phase (lanes `first..`, values indexed by
    /// lane in `vals`) whose [`PhaseStats`] the caller has already found:
    /// its conflicts are binned, then memcheck and racecheck run per lane.
    /// Returns `true` when every address is in bounds.
    pub(crate) fn store_phase(
        &mut self,
        first: usize,
        phase: &[usize],
        vals: &[f64],
        stats: PhaseStats,
    ) -> bool {
        if stats.degree > 1 {
            self.report.store_conflicts[self.phase.index()] += (stats.degree - 1) as u64;
        }
        // Only a phase that repeats an address can race.
        let repeats = stats.distinct < phase.len();
        let mut in_bounds = true;
        for (i, &a) in phase.iter().enumerate() {
            let Some(&state) = self.state.get(a) else {
                in_bounds = false;
                let len = self.state.len();
                self.violation(ViolationKind::MemCheck, a, || {
                    format!("shared store out of bounds (capacity {len} f64)")
                });
                continue;
            };
            if repeats && state & EXEMPT == 0 {
                // Same word written twice in one phase with different
                // values: on hardware one lane wins arbitrarily.
                let bits = vals[first + i].to_bits();
                if let Some(j) =
                    (0..i).find(|&j| phase[j] == a && vals[first + j].to_bits() != bits)
                {
                    self.violation(ViolationKind::RaceCheck, a, || {
                        format!(
                            "lanes {} and {} store different values to one word in one phase",
                            first + j,
                            first + i
                        )
                    });
                }
            }
            self.state[a] = state | WRITTEN;
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
                self.violation(ViolationKind::MemCheck, a, || {
                    format!("global {dir} out of bounds (buffer holds {buffer_len} f64)")
                });
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
            || {
                format!(
                    "global span {dir} [{start}, {}) overruns buffer of {buffer_len} f64",
                    start + len
                )
            },
        );
        buffer_len.saturating_sub(start).min(len)
    }

    /// Consume the shadow, yielding the report plus the state vector so
    /// the launch scratch pool can recycle it.
    pub fn into_parts(self) -> (SanitizerReport, Vec<u8>) {
        (self.report, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow_at(len: usize, launch: u64, block: usize) -> (ShadowState, SharedMemory) {
        (
            ShadowState::recycle(Vec::new(), len, launch, block),
            SharedMemory::recycle(Vec::new(), len, 32),
        )
    }

    fn shadow(len: usize) -> (ShadowState, SharedMemory) {
        shadow_at(len, 7, 3)
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
            let (mut s, m) = shadow_at(8, 0, block);
            s.check_load(&m, &[0, 1]); // 2 initcheck findings each
            total.merge(s.into_parts().0);
        }
        assert_eq!(total.init_total, 80);
        assert_eq!(total.violations.len(), MAX_RECORDED_VIOLATIONS);
        assert!(!total.is_clean());
        assert!(total.render().contains("initcheck 80"));
    }

    #[test]
    fn recycled_shadow_matches_fresh() {
        // Dirty a shadow thoroughly, then recycle its state vector into a
        // new (larger) shadow and re-run an access sequence next to a
        // fresh shadow: the reports must match exactly.
        let (mut dirty, m) = shadow(16);
        dirty.exempt_range(0, 16);
        dirty.check_store(&m, &[0, 1, 2, 3], &[1.0; 4]);
        let (_, state) = dirty.into_parts();
        let mut recycled = ShadowState::recycle(state, 32, 7, 3);
        let (mut fresh, m32) = shadow(32);
        for s in [&mut recycled, &mut fresh] {
            s.check_store(&m32, &[4, 5], &[1.0, 2.0]);
            s.check_load(&m32, &[4, 5, 6, 0]); // initcheck at 6 and 0
        }
        assert_eq!(recycled.report, fresh.report);
        assert_eq!(recycled.report.init_total, 2);
    }

    #[test]
    fn records_stop_at_the_cap_but_totals_do_not() {
        let (mut s, m) = shadow(4);
        let addrs = [0, 1, 2, 3];
        for _ in 0..20 {
            s.check_load(&m, &addrs);
        }
        assert_eq!(s.report.init_total, 80);
        assert_eq!(s.report.violations.len(), MAX_RECORDED_VIOLATIONS);
        let last = s.report.violations.last().unwrap();
        assert_eq!(last.addr, (MAX_RECORDED_VIOLATIONS - 1) % 4);
    }

    #[test]
    fn racecheck_reports_the_first_differing_earlier_lane() {
        let (mut s, m) = shadow(64);
        // Each lane is paired with the first earlier lane that stores a
        // different value to its word: lane 2 repeats lane 0's value, so
        // it is paired with lane 1.
        s.check_store(&m, &[9, 9, 9, 9], &[1.0, 2.0, 1.0, 3.0]);
        let details: Vec<&str> = s
            .report
            .violations
            .iter()
            .map(|v| v.detail.as_str())
            .collect();
        assert_eq!(
            details,
            [
                "lanes 0 and 1 store different values to one word in one phase",
                "lanes 1 and 2 store different values to one word in one phase",
                "lanes 0 and 3 store different values to one word in one phase",
            ]
        );
    }

    #[test]
    fn fault_sites_localize_launch_block_phase() {
        let (mut s, _) = shadow_at(32, 11, 2);
        s.set_phase(Phase::SmemScatter);
        s.record_fault(17);
        let (r, _) = s.into_parts();
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
