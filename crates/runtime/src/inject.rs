//! Deterministic, seeded fault injection for robustness campaigns.
//!
//! A [`FaultPlan`] attached to a [`crate::Session`] (via
//! [`crate::gpu::Gpu::set_fault_plan`]) makes specific host-API calls fail
//! on purpose: the Nth `malloc`, the Nth `h2d`, the Nth launch — or it
//! silently corrupts a transfer, or starves a launch's instruction budget
//! so the simulator's watchdog fires a genuine sticky device fault.
//!
//! Everything is a pure function of the seed: two sessions given the same
//! plan fail at exactly the same call, so fault-injection campaigns are as
//! reproducible as fault-free ones. There is no wall clock or host RNG
//! anywhere — a [`splitmix64`] stream is the only randomness, and it is
//! seeded explicitly.

use gpucmp_ptx::{splitmix64, Fnv};

/// What the plan wants done to the current `h2d` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferAction {
    /// Let the transfer through untouched.
    Pass,
    /// Fail the call with [`crate::RtError::Injected`] (the `nth` payload).
    Fail(u64),
    /// Let the transfer through but flip one byte of the payload
    /// (silent corruption; downstream verification should catch it).
    Corrupt,
}

/// What the plan wants done to the current launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchAction {
    /// Launch normally.
    Pass,
    /// Fail the call with [`crate::RtError::Injected`] — an API-level
    /// rejection, *not* sticky.
    Fail(u64),
    /// Launch with the instruction budget clamped to this value, so the
    /// watchdog raises a genuine (sticky) device fault mid-kernel.
    Starve(u64),
}

/// A deterministic schedule of injected failures.
///
/// At most one trigger of each class; counters advance as the session
/// makes calls, so "the 2nd malloc" means the 2nd malloc *after the plan
/// was attached*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth (0-based) device allocation.
    pub fail_malloc: Option<u64>,
    /// Fail the Nth host-to-device transfer.
    pub fail_h2d: Option<u64>,
    /// Flip one byte of the Nth host-to-device transfer.
    pub corrupt_h2d: Option<u64>,
    /// Fail the Nth kernel launch at the API level.
    pub fail_launch: Option<u64>,
    /// Clamp the Nth launch's instruction budget to `.1`, forcing a
    /// watchdog device fault.
    pub starve_launch: Option<(u64, u64)>,
    mallocs: u64,
    h2ds: u64,
    launches: u64,
}

/// Instruction budget used by [`FaultPlan::starve_launch`] triggers built
/// from a seed: small enough that every real kernel trips the watchdog.
pub const STARVED_BUDGET: u64 = 64;

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether this plan has no triggers at all.
    pub fn is_none(&self) -> bool {
        self.fail_malloc.is_none()
            && self.fail_h2d.is_none()
            && self.corrupt_h2d.is_none()
            && self.fail_launch.is_none()
            && self.starve_launch.is_none()
    }

    /// Fail the Nth (0-based) device allocation.
    pub fn with_fail_malloc(mut self, nth: u64) -> Self {
        self.fail_malloc = Some(nth);
        self
    }

    /// Fail the Nth host-to-device transfer.
    pub fn with_fail_h2d(mut self, nth: u64) -> Self {
        self.fail_h2d = Some(nth);
        self
    }

    /// Flip one byte of the Nth host-to-device transfer.
    pub fn with_corrupt_h2d(mut self, nth: u64) -> Self {
        self.corrupt_h2d = Some(nth);
        self
    }

    /// Fail the Nth kernel launch at the API level.
    pub fn with_fail_launch(mut self, nth: u64) -> Self {
        self.fail_launch = Some(nth);
        self
    }

    /// Clamp the Nth launch's instruction budget to `budget`.
    pub fn with_starve_launch(mut self, nth: u64, budget: u64) -> Self {
        self.starve_launch = Some((nth, budget));
        self
    }

    /// One injection chosen deterministically from `seed`: which call
    /// class fails and at which early index is a pure function of the
    /// seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let kind = splitmix64(&mut s) % 5;
        let nth = splitmix64(&mut s) % 3;
        let mut plan = FaultPlan::none();
        match kind {
            0 => plan.fail_malloc = Some(nth),
            1 => plan.fail_h2d = Some(nth),
            2 => plan.corrupt_h2d = Some(nth),
            3 => plan.fail_launch = Some(nth),
            _ => plan.starve_launch = Some((nth, STARVED_BUDGET)),
        }
        plan
    }

    /// The plan for one campaign case: roughly a third of cases inject a
    /// failure on their first attempt; retries (`attempt > 0`) are clean,
    /// modelling transient faults that a bounded-retry policy recovers
    /// from. Fully determined by `(seed, case, attempt)`.
    pub fn for_case(seed: u64, case: &str, attempt: u32) -> Self {
        if attempt > 0 {
            return FaultPlan::none();
        }
        let mut h = Fnv::seeded(seed);
        h.bytes(case.as_bytes());
        let mut s = h.finish();
        if splitmix64(&mut s) % 3 != 0 {
            return FaultPlan::none();
        }
        FaultPlan::from_seed(s)
    }

    /// Advance the malloc counter; `Some(nth)` means this call must fail.
    pub(crate) fn on_malloc(&mut self) -> Option<u64> {
        let n = self.mallocs;
        self.mallocs += 1;
        (self.fail_malloc == Some(n)).then_some(n)
    }

    /// Advance the h2d counter and decide this transfer's fate.
    pub(crate) fn on_h2d(&mut self) -> TransferAction {
        let n = self.h2ds;
        self.h2ds += 1;
        if self.fail_h2d == Some(n) {
            TransferAction::Fail(n)
        } else if self.corrupt_h2d == Some(n) {
            TransferAction::Corrupt
        } else {
            TransferAction::Pass
        }
    }

    /// Advance the launch counter and decide this launch's fate.
    pub(crate) fn on_launch(&mut self) -> LaunchAction {
        let n = self.launches;
        self.launches += 1;
        if self.fail_launch == Some(n) {
            LaunchAction::Fail(n)
        } else if let Some((nth, budget)) = self.starve_launch {
            if nth == n {
                return LaunchAction::Starve(budget);
            }
            LaunchAction::Pass
        } else {
            LaunchAction::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..64u64 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            assert!(!FaultPlan::from_seed(seed).is_none(), "seed {seed}");
        }
        // Different seeds do produce different plans.
        let distinct: std::collections::HashSet<_> = (0..64u64)
            .map(|s| format!("{:?}", FaultPlan::from_seed(s)))
            .collect();
        assert!(distinct.len() > 4);
    }

    #[test]
    fn case_plans_are_pinned() {
        // A campaign's fault schedule must replay across versions: these
        // plans are what `GPUCMP_FAULT_SEED=42` has always injected.
        let plan = |case| FaultPlan::for_case(42, case, 0);
        assert_eq!(
            plan("BFS/GTX480/CUDA"),
            FaultPlan::none().with_corrupt_h2d(2)
        );
        assert_eq!(
            plan("BFS/GTX480/OpenCL"),
            FaultPlan::none().with_starve_launch(2, STARVED_BUDGET)
        );
        assert_eq!(
            plan("Scan/GTX480/CUDA"),
            FaultPlan::none().with_fail_launch(0)
        );
        assert_eq!(plan("Sobel/HD5870/OpenCL"), FaultPlan::none());
    }

    #[test]
    fn case_plans_inject_a_minority_and_retries_are_clean() {
        let cases: Vec<String> = (0..60).map(|i| format!("bench-{i}")).collect();
        let injected = cases
            .iter()
            .filter(|c| !FaultPlan::for_case(42, c, 0).is_none())
            .count();
        assert!(
            injected > 5 && injected < 40,
            "about a third should inject, got {injected}/60"
        );
        for c in &cases {
            assert!(FaultPlan::for_case(42, c, 1).is_none());
            assert_eq!(FaultPlan::for_case(42, c, 0), FaultPlan::for_case(42, c, 0));
        }
    }

    #[test]
    fn counters_trigger_exactly_once() {
        let mut p = FaultPlan {
            fail_malloc: Some(1),
            ..FaultPlan::none()
        };
        assert_eq!(p.on_malloc(), None);
        assert_eq!(p.on_malloc(), Some(1));
        assert_eq!(p.on_malloc(), None);

        let mut p = FaultPlan {
            corrupt_h2d: Some(0),
            ..FaultPlan::none()
        };
        assert_eq!(p.on_h2d(), TransferAction::Corrupt);
        assert_eq!(p.on_h2d(), TransferAction::Pass);

        let mut p = FaultPlan {
            starve_launch: Some((1, 99)),
            ..FaultPlan::none()
        };
        assert_eq!(p.on_launch(), LaunchAction::Pass);
        assert_eq!(p.on_launch(), LaunchAction::Starve(99));
        assert_eq!(p.on_launch(), LaunchAction::Pass);
    }
}
