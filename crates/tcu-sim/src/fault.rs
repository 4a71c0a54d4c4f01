//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] describes *where* and *how often* the simulated device
//! silently corrupts state: bit flips in DMMA accumulator lanes, corrupted
//! shared-memory stores, and whole-launch failures. Every decision is a
//! pure function of `(seed, epoch, site coordinates)` — a splitmix64 hash,
//! no mutable RNG state — so a given plan reproduces the exact same faults
//! run after run, whatever order blocks execute in.
//!
//! The `epoch` is bumped by retry logic (see `convstencil::api` verified
//! execution): a retry of the same launch sequence sees a different fault
//! stream, so a transient fault does not deterministically recur, while
//! re-running the whole program from scratch still reproduces everything.

use serde::{Deserialize, Serialize};

/// A contiguous window of launch attempts during which every launch fails
/// with an ECC-style transient error. Positional (not probabilistic): the
/// burst models a thermal/ECC event in *device time*, so retries ride it
/// out by advancing the attempt counter past the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccBurst {
    /// First launch attempt inside the burst.
    pub start: u64,
    /// Number of consecutive attempts that fail (`[start, start + len)`).
    pub len: u64,
}

impl EccBurst {
    /// Does `attempt` fall inside the burst window?
    pub fn contains(&self, attempt: u64) -> bool {
        attempt >= self.start && attempt - self.start < self.len
    }
}

/// A simulated device hang: one launch stalls the device for a fixed number
/// of clock cycles before completing. The stall is charged to the cost
/// model (`Counters::hang_stall_cycles` → `CostBreakdown::t_stall_sec`), so
/// a hang trips cost-model deadlines without blocking the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HangSpec {
    /// Launch attempt that hangs.
    pub at_launch: u64,
    /// Modeled stall duration in device clock cycles.
    pub stall_cycles: u64,
}

/// Fault-injection configuration. All rates are probabilities in `[0, 1]`
/// evaluated independently per site. The device-level modes
/// ([`die_at_launch`](Self::die_at_launch), [`ecc_burst`](Self::ecc_burst),
/// [`hang`](Self::hang)) are positional in launch attempts rather than
/// probabilistic: they model events in *device time*, so retrying does not
/// dodge a sticky death and a burst passes once enough attempts elapse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; two plans with different seeds fault at different sites.
    pub seed: u64,
    /// Per-DMMA-instruction probability of flipping a high-order bit in one
    /// accumulator lane after the MMA retires.
    pub dmma_flip_rate: f64,
    /// Per-shared-store-request probability of corrupting one stored value.
    pub smem_corrupt_rate: f64,
    /// Per-launch probability that the launch aborts before any block runs
    /// ([`crate::DeviceError::InjectedLaunchFailure`]).
    pub launch_fail_rate: f64,
    /// Sticky device death: the device dies permanently at this launch
    /// attempt and every launch from then on returns
    /// [`crate::DeviceError::DeviceLost`].
    pub die_at_launch: Option<u64>,
    /// Transient ECC-style fault burst over a window of launch attempts.
    pub ecc_burst: Option<EccBurst>,
    /// Simulated hang charged to the cost model.
    pub hang: Option<HangSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for builder-style
    /// overrides).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            dmma_flip_rate: 0.0,
            smem_corrupt_rate: 0.0,
            launch_fail_rate: 0.0,
            die_at_launch: None,
            ecc_burst: None,
            hang: None,
        }
    }

    pub fn with_dmma_flip_rate(mut self, rate: f64) -> Self {
        self.dmma_flip_rate = rate;
        self
    }

    pub fn with_smem_corrupt_rate(mut self, rate: f64) -> Self {
        self.smem_corrupt_rate = rate;
        self
    }

    pub fn with_launch_fail_rate(mut self, rate: f64) -> Self {
        self.launch_fail_rate = rate;
        self
    }

    /// Sticky device death at launch attempt `attempt` (and forever after).
    pub fn with_device_death_at(mut self, attempt: u64) -> Self {
        self.die_at_launch = Some(attempt);
        self
    }

    /// Transient ECC burst: attempts `[start, start + len)` fail.
    pub fn with_ecc_burst(mut self, start: u64, len: u64) -> Self {
        self.ecc_burst = Some(EccBurst { start, len });
        self
    }

    /// Hang launch attempt `at_launch` for `stall_cycles` device cycles.
    pub fn with_hang_at(mut self, at_launch: u64, stall_cycles: u64) -> Self {
        self.hang = Some(HangSpec {
            at_launch,
            stall_cycles,
        });
        self
    }

    /// True if no fault class can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.dmma_flip_rate <= 0.0
            && self.smem_corrupt_rate <= 0.0
            && self.launch_fail_rate <= 0.0
            && self.die_at_launch.is_none()
            && self.ecc_burst.is_none()
            && self.hang.is_none()
    }
}

/// Distinguishes the independent fault streams so a DMMA decision at event
/// `n` is uncorrelated with a shared-store decision at the same `n`.
#[derive(Debug, Clone, Copy)]
pub enum FaultSite {
    DmmaFlip,
    SmemCorrupt,
    LaunchFail,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::DmmaFlip => 0x01,
            FaultSite::SmemCorrupt => 0x02,
            FaultSite::LaunchFail => 0x03,
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless decision hash over the full site coordinates.
fn site_hash(
    plan: &FaultPlan,
    epoch: u64,
    site: FaultSite,
    launch: u64,
    block: u64,
    event: u64,
) -> u64 {
    let mut h = splitmix64(plan.seed ^ 0xC0DE_FA17_0000_0000);
    h = splitmix64(h ^ epoch);
    h = splitmix64(h ^ site.tag());
    h = splitmix64(h ^ launch);
    h = splitmix64(h ^ block);
    splitmix64(h ^ event)
}

/// Map a hash to a uniform f64 in [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-block fault context threaded through `BlockCtx` during a launch.
/// Carries the plan by value plus the site coordinates and per-stream event
/// counters, so decisions need no shared mutable state.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    epoch: u64,
    launch: u64,
    block: u64,
    dmma_events: u64,
    smem_events: u64,
}

impl FaultState {
    pub fn new(plan: FaultPlan, epoch: u64, launch: u64, block: u64) -> Self {
        Self {
            plan,
            epoch,
            launch,
            block,
            dmma_events: 0,
            smem_events: 0,
        }
    }

    /// Should this DMMA instruction be corrupted? Returns a hash to derive
    /// the lane/bit choice from when it fires.
    pub fn dmma_flip(&mut self) -> Option<u64> {
        let e = self.dmma_events;
        self.dmma_events += 1;
        let h = site_hash(
            &self.plan,
            self.epoch,
            FaultSite::DmmaFlip,
            self.launch,
            self.block,
            e,
        );
        (unit(h) < self.plan.dmma_flip_rate).then(|| splitmix64(h))
    }

    /// Should this shared-memory store request be corrupted?
    pub fn smem_corrupt(&mut self) -> Option<u64> {
        let e = self.smem_events;
        self.smem_events += 1;
        let h = site_hash(
            &self.plan,
            self.epoch,
            FaultSite::SmemCorrupt,
            self.launch,
            self.block,
            e,
        );
        (unit(h) < self.plan.smem_corrupt_rate).then(|| splitmix64(h))
    }
}

/// Launch-level decision (block/event coordinates unused).
pub fn launch_fails(plan: &FaultPlan, epoch: u64, launch_attempt: u64) -> bool {
    let h = site_hash(plan, epoch, FaultSite::LaunchFail, launch_attempt, 0, 0);
    unit(h) < plan.launch_fail_rate
}

/// Corrupt one f64 so the damage is *detectable* (well above any verify
/// tolerance, in the mixed absolute/relative metric `stencil_core::verify`
/// uses) but *finite*: flip one of the high mantissa / low exponent bits
/// (48..=52). Values too small for a bit flip to clear the tolerance are
/// shifted by +1.0 instead.
pub fn corrupt_value(v: f64, h: u64) -> f64 {
    if v.abs() < 1e-6 {
        return v + 1.0;
    }
    let bit = 48 + (h % 5) as u32; // bits 48..=52
    let flipped = f64::from_bits(v.to_bits() ^ (1u64 << bit));
    if flipped.is_finite() {
        flipped
    } else {
        v * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::quiet(42).with_dmma_flip_rate(0.3);
        let mut a = FaultState::new(plan, 0, 1, 7);
        let mut b = FaultState::new(plan, 0, 1, 7);
        for _ in 0..100 {
            assert_eq!(a.dmma_flip().is_some(), b.dmma_flip().is_some());
        }
    }

    #[test]
    fn epoch_changes_the_stream() {
        let plan = FaultPlan::quiet(42).with_dmma_flip_rate(0.5);
        let stream = |epoch: u64| -> Vec<bool> {
            let mut s = FaultState::new(plan, epoch, 0, 0);
            (0..64).map(|_| s.dmma_flip().is_some()).collect()
        };
        assert_ne!(stream(0), stream(1));
    }

    #[test]
    fn rate_zero_never_fires_rate_one_always_fires() {
        let quiet = FaultPlan::quiet(7);
        let mut s = FaultState::new(quiet, 0, 0, 0);
        assert!((0..1000).all(|_| s.dmma_flip().is_none()));
        let loud = FaultPlan::quiet(7).with_smem_corrupt_rate(1.0);
        let mut s = FaultState::new(loud, 0, 0, 0);
        assert!((0..1000).all(|_| s.smem_corrupt().is_some()));
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::quiet(123).with_dmma_flip_rate(0.25);
        let mut s = FaultState::new(plan, 0, 0, 0);
        let fired = (0..10_000).filter(|_| s.dmma_flip().is_some()).count();
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn corruption_is_finite_and_detectable() {
        for (i, &v) in [0.0, 1.0, -3.5, 1e300, 1e-300, 7.25].iter().enumerate() {
            let c = corrupt_value(v, splitmix64(i as u64));
            assert!(c.is_finite());
            assert!(
                (c - v).abs() > 1e-10 * v.abs().max(1.0),
                "corruption of {v} -> {c} not detectable"
            );
        }
    }

    #[test]
    fn ecc_burst_window_is_half_open() {
        let burst = EccBurst { start: 4, len: 3 };
        assert!(!burst.contains(3));
        assert!(burst.contains(4));
        assert!(burst.contains(6));
        assert!(!burst.contains(7));
        assert!(!EccBurst { start: 4, len: 0 }.contains(4));
    }

    #[test]
    fn device_level_modes_break_quietness() {
        assert!(FaultPlan::quiet(1).is_quiet());
        assert!(!FaultPlan::quiet(1).with_device_death_at(10).is_quiet());
        assert!(!FaultPlan::quiet(1).with_ecc_burst(0, 2).is_quiet());
        assert!(!FaultPlan::quiet(1).with_hang_at(3, 1_000).is_quiet());
    }

    #[test]
    fn launch_failure_depends_on_attempt_and_epoch() {
        let plan = FaultPlan::quiet(99).with_launch_fail_rate(0.5);
        let by_attempt: Vec<bool> = (0..64).map(|a| launch_fails(&plan, 0, a)).collect();
        let by_epoch: Vec<bool> = (0..64).map(|a| launch_fails(&plan, 1, a)).collect();
        assert!(by_attempt.iter().any(|&f| f));
        assert!(by_attempt.iter().any(|&f| !f));
        assert_ne!(by_attempt, by_epoch);
    }
}
