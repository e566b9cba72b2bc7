//! Robustness guard shared by every engine in the workspace.
//!
//! The crate is dependency-free (like `mfu-obs`) and provides four small,
//! orthogonal building blocks:
//!
//! - [`RunBudget`]: the two caps a user can set, wall-clock time and
//!   simulated events. Both default to unset: no deadline, and the
//!   simulators' engine default for events. Every other limit is a named
//!   constant of the engine it bounds.
//! - [`BudgetTracker`]: an amortised deadline checker. Wall-clock reads are
//!   expensive relative to a propensity update, so the tracker only consults
//!   the clock every `stride` calls; every other call is a counter decrement.
//! - [`Outcome`] / [`TruncationReason`]: the graceful-degradation contract.
//!   Engines that can return a meaningful prefix report
//!   `Outcome::Truncated { reason, reached_t }` alongside the partial result
//!   instead of discarding the work behind an error.
//! - [`FaultPlan`]: deterministic fault injection keyed on event counts (never
//!   wall-clock), used by the fault-injection harness to prove that every
//!   engine fails typed and bounded — never with a panic or a hang.
//!
//! Guard checks never touch the random-number stream or any floating-point
//! state on the numeric path, so a run with a budget that does not trip is
//! bit-identical to a run without one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::fmt;
use std::time::{Duration, Instant};

/// Magnitude above which an ODE sweep is considered divergent.
///
/// Mean-field occupancy measures live in `[0, 1]^d` and scaled population
/// counts stay within a few orders of magnitude of the population size, so a
/// coordinate beyond this cap can only be produced by a numerically exploding
/// integration. The cap is deliberately far below `f64::MAX` so divergence is
/// diagnosed before the state degenerates into infinities.
pub const DIVERGENCE_CAP: f64 = 1e100;

/// Default number of budget checks between genuine wall-clock reads.
pub const DEFAULT_CHECK_STRIDE: u32 = 1024;

/// Declarative resource caps for a single engine run.
///
/// Both fields default to `None`. Budgets are `Copy` so they can ride along
/// inside engine option structs without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Wall-clock deadline for the run, checked amortised via [`BudgetTracker`].
    pub wall_clock: Option<Duration>,
    /// Maximum number of simulated events: exact SSA steps, accepted τ-leap
    /// steps and τ-leap fallback-burst steps alike. Unset means the
    /// simulators' default cap (`mfu_sim::gillespie::DEFAULT_MAX_EVENTS`);
    /// a set value replaces it, larger or smaller.
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// A budget with no deadline and the engines' default event cap.
    #[must_use]
    pub const fn unlimited() -> Self {
        RunBudget {
            wall_clock: None,
            max_events: None,
        }
    }

    /// Caps the wall-clock time of the run.
    #[must_use]
    pub const fn wall_clock(mut self, limit: Duration) -> Self {
        self.wall_clock = Some(limit);
        self
    }

    /// Caps the number of simulated events.
    #[must_use]
    pub const fn max_events(mut self, limit: u64) -> Self {
        self.max_events = Some(limit);
        self
    }
}

/// Why a run stopped before reaching its nominal end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The wall-clock deadline in [`RunBudget::wall_clock`] expired.
    WallClock,
    /// The event cap ([`RunBudget::max_events`] or the engine default) was hit.
    MaxEvents,
}

impl TruncationReason {
    /// Stable snake_case identifier used in traces and machine-readable output.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            TruncationReason::WallClock => "wall_clock",
            TruncationReason::MaxEvents => "max_events",
        }
    }
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            TruncationReason::WallClock => "wall-clock budget exhausted",
            TruncationReason::MaxEvents => "event budget exhausted",
        };
        f.write_str(text)
    }
}

/// How a run ended: to completion, or truncated by a budget with a usable
/// prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The run reached its nominal end (`t_end`, absorption, or convergence).
    Completed,
    /// The run stopped early; the result holds everything computed up to
    /// `reached_t` and is internally consistent over `[0, reached_t]`.
    Truncated {
        /// Which budget tripped.
        reason: TruncationReason,
        /// Simulated (not wall-clock) time reached when the budget tripped.
        reached_t: f64,
    },
}

impl Outcome {
    /// True when the run stopped before its nominal end.
    #[must_use]
    pub const fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated { .. })
    }

    /// The truncation reason, if the run was truncated.
    #[must_use]
    pub const fn truncation(&self) -> Option<TruncationReason> {
        match self {
            Outcome::Completed => None,
            Outcome::Truncated { reason, .. } => Some(*reason),
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Completed => f.write_str("completed"),
            Outcome::Truncated { reason, reached_t } => {
                write!(f, "truncated ({reason}) at t = {reached_t}")
            }
        }
    }
}

/// Amortised wall-clock deadline checker.
///
/// `expired()` is designed to sit inside a hot loop: with no deadline it is a
/// single branch on an `Option`; with a deadline it decrements a counter and
/// only reads the clock every `stride` calls. The number of genuine clock
/// reads is available via [`BudgetTracker::checks`] so callers can surface it
/// as an observability counter.
#[derive(Debug)]
pub struct BudgetTracker {
    deadline: Option<Instant>,
    stride: u32,
    until_check: u32,
    checks: u64,
    tripped: bool,
}

impl BudgetTracker {
    /// Starts tracking `budget` from now with the default check stride.
    #[must_use]
    pub fn start(budget: &RunBudget) -> Self {
        Self::with_stride(budget, DEFAULT_CHECK_STRIDE)
    }

    /// Starts tracking `budget` from now, reading the clock every `stride`
    /// calls to [`BudgetTracker::expired`]. A deadline past the clock's
    /// range (e.g. [`Duration::MAX`]) can never be reached, so the tracker
    /// treats it as no deadline at all.
    #[must_use]
    pub fn with_stride(budget: &RunBudget, stride: u32) -> Self {
        let stride = stride.max(1);
        BudgetTracker {
            deadline: budget
                .wall_clock
                .and_then(|limit| Instant::now().checked_add(limit)),
            stride,
            until_check: 1,
            checks: 0,
            tripped: false,
        }
    }

    /// Returns true once the wall-clock deadline has expired.
    ///
    /// Amortised: at most one clock read per `stride` calls. Once the deadline
    /// has tripped the tracker latches and keeps returning true.
    #[inline]
    pub fn expired(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.tripped {
            return true;
        }
        self.until_check -= 1;
        if self.until_check > 0 {
            return false;
        }
        self.until_check = self.stride;
        self.checks += 1;
        if Instant::now() >= deadline {
            self.tripped = true;
        }
        self.tripped
    }

    /// Forces an immediate clock read, bypassing the amortisation stride.
    ///
    /// Useful at coarse natural boundaries (per sweep, per report interval)
    /// where a check is cheap relative to the work between calls.
    #[inline]
    pub fn expired_now(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if !self.tripped {
            self.checks += 1;
            self.tripped = Instant::now() >= deadline;
        }
        self.tripped
    }

    /// Number of genuine clock reads performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }
}

/// True when `rate` is a valid propensity: finite and non-negative.
#[inline]
#[must_use]
pub fn rate_is_healthy(rate: f64) -> bool {
    rate.is_finite() && rate >= 0.0
}

/// True when any coordinate is non-finite or exceeds `cap` in magnitude.
///
/// Used by ODE sweeps (hull, Pontryagin) to detect divergence before the
/// state degenerates into infinities. Pass [`DIVERGENCE_CAP`] unless the
/// caller has a tighter domain-specific bound.
#[inline]
#[must_use]
pub fn state_diverged(values: &[f64], cap: f64) -> bool {
    values.iter().any(|v| !v.is_finite() || v.abs() > cap)
}

/// One fault to inject into a simulation at a chosen event count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Event count (number of fired events) from which the fault is active.
    pub at_event: u64,
    /// What the fault does.
    pub kind: FaultKind,
}

/// The effect of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transition `rule` starts returning NaN, exercising the numeric-health
    /// sentinel at the rate-evaluation boundary.
    NanRate {
        /// Index of the transition class whose rate is poisoned.
        rule: usize,
    },
    /// Transition `rule`'s rate is multiplied by `factor`, exercising stiff
    /// regimes (τ thrashing, budget exhaustion) or — with a non-finite or
    /// negative factor — the sentinel.
    RateSpike {
        /// Index of the transition class whose rate is scaled.
        rule: usize,
        /// Multiplicative factor applied to the rate.
        factor: f64,
    },
    /// Policy parameter `param` is overwritten with `value` before range
    /// containment is checked, exercising policy-discontinuity handling.
    PolicyJump {
        /// Index of the policy parameter to overwrite.
        param: usize,
        /// The value the parameter jumps to.
        value: f64,
    },
}

/// A deterministic schedule of faults keyed on event counts.
///
/// Faults are keyed on the number of events fired so far — never wall-clock —
/// so an injected failure reproduces bit-identically under the same seed.
/// Each fault stays active from its `at_event` onward.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault active from `at_event` onward.
    #[must_use]
    pub fn inject(mut self, at_event: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault { at_event, kind });
        self
    }

    /// Generates a deterministic pseudo-random plan from `seed`.
    ///
    /// Draws `count` faults over transition indices `< rules`, parameter
    /// indices `< params`, and event counts `< horizon_events` using a
    /// splitmix64 stream, so property tests can sweep fault space without a
    /// hand-written schedule.
    #[must_use]
    pub fn seeded(
        seed: u64,
        rules: usize,
        params: usize,
        count: usize,
        horizon_events: u64,
    ) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at_event = if horizon_events == 0 {
                0
            } else {
                next() % horizon_events
            };
            let kind = match next() % 3 {
                0 if rules > 0 => FaultKind::NanRate {
                    rule: (next() as usize) % rules,
                },
                1 if rules > 0 => FaultKind::RateSpike {
                    rule: (next() as usize) % rules,
                    factor: 1e6,
                },
                _ if params > 0 => FaultKind::PolicyJump {
                    param: (next() as usize) % params,
                    value: f64::INFINITY,
                },
                _ => continue,
            };
            plan = plan.inject(at_event, kind);
        }
        plan
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan contains a policy fault.
    ///
    /// Engines that short-circuit constant policies must disable that
    /// short-circuit when this returns true, otherwise the injected jump
    /// would be skipped.
    #[must_use]
    pub fn has_policy_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::PolicyJump { .. }))
    }

    /// Applies active rate faults for transition `rule` at `events` fired.
    #[inline]
    #[must_use]
    pub fn perturb_rate(&self, rule: usize, events: u64, rate: f64) -> f64 {
        let mut out = rate;
        for fault in &self.faults {
            if events < fault.at_event {
                continue;
            }
            match fault.kind {
                FaultKind::NanRate { rule: r } if r == rule => out = f64::NAN,
                FaultKind::RateSpike { rule: r, factor } if r == rule => out *= factor,
                _ => {}
            }
        }
        out
    }

    /// Applies active policy faults to `theta` at `events` fired.
    #[inline]
    pub fn perturb_params(&self, events: u64, theta: &mut [f64]) {
        for fault in &self.faults {
            if events < fault.at_event {
                continue;
            }
            if let FaultKind::PolicyJump { param, value } = fault.kind {
                if let Some(slot) = theta.get_mut(param) {
                    *slot = value;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_has_no_caps() {
        let budget = RunBudget::default();
        assert_eq!(budget, RunBudget::unlimited());
        assert_eq!(budget.wall_clock, None);
        assert_eq!(budget.max_events, None);
        let capped = budget.max_events(10);
        assert_eq!(capped.max_events, Some(10));
    }

    #[test]
    fn tracker_without_deadline_never_expires_or_reads_clock() {
        let mut tracker = BudgetTracker::start(&RunBudget::unlimited());
        for _ in 0..10_000 {
            assert!(!tracker.expired());
        }
        assert_eq!(tracker.checks(), 0);
    }

    #[test]
    fn deadline_past_the_clock_range_never_expires() {
        let budget = RunBudget::unlimited().wall_clock(Duration::MAX);
        let mut tracker = BudgetTracker::start(&budget);
        for _ in 0..10_000 {
            assert!(!tracker.expired());
        }
        assert!(!tracker.expired_now());
    }

    #[test]
    fn tracker_amortises_clock_reads() {
        let budget = RunBudget::unlimited().wall_clock(Duration::from_secs(3600));
        let mut tracker = BudgetTracker::with_stride(&budget, 100);
        for _ in 0..1000 {
            assert!(!tracker.expired());
        }
        assert_eq!(tracker.checks(), 10);
    }

    #[test]
    fn expired_deadline_latches() {
        let budget = RunBudget::unlimited().wall_clock(Duration::ZERO);
        let mut tracker = BudgetTracker::with_stride(&budget, 1);
        assert!(tracker.expired());
        assert!(tracker.expired());
        let reads = tracker.checks();
        assert!(tracker.expired_now());
        assert_eq!(
            tracker.checks(),
            reads,
            "latched tracker stops reading the clock"
        );
    }

    #[test]
    fn outcome_reports_truncation() {
        assert!(!Outcome::Completed.is_truncated());
        let truncated = Outcome::Truncated {
            reason: TruncationReason::WallClock,
            reached_t: 1.5,
        };
        assert!(truncated.is_truncated());
        assert_eq!(truncated.truncation(), Some(TruncationReason::WallClock));
        assert_eq!(
            truncated.to_string(),
            "truncated (wall-clock budget exhausted) at t = 1.5"
        );
        assert_eq!(TruncationReason::MaxEvents.name(), "max_events");
    }

    #[test]
    fn health_helpers_classify_rates_and_states() {
        assert!(rate_is_healthy(0.0));
        assert!(rate_is_healthy(3.5));
        assert!(!rate_is_healthy(f64::NAN));
        assert!(!rate_is_healthy(f64::INFINITY));
        assert!(!rate_is_healthy(-1e-9));
        assert!(!state_diverged(&[0.0, 1.0, -0.5], DIVERGENCE_CAP));
        assert!(state_diverged(&[0.0, f64::NAN], DIVERGENCE_CAP));
        assert!(state_diverged(&[1e120], DIVERGENCE_CAP));
    }

    #[test]
    fn fault_plan_activates_at_event_counts() {
        let plan = FaultPlan::new()
            .inject(10, FaultKind::NanRate { rule: 1 })
            .inject(
                5,
                FaultKind::RateSpike {
                    rule: 0,
                    factor: 100.0,
                },
            )
            .inject(
                3,
                FaultKind::PolicyJump {
                    param: 0,
                    value: 9.0,
                },
            );
        assert!(plan.has_policy_faults());

        assert_eq!(plan.perturb_rate(0, 4, 2.0), 2.0);
        assert_eq!(plan.perturb_rate(0, 5, 2.0), 200.0);
        assert!(plan.perturb_rate(1, 9, 2.0) == 2.0);
        assert!(plan.perturb_rate(1, 10, 2.0).is_nan());

        let mut theta = [0.5, 0.5];
        plan.perturb_params(2, &mut theta);
        assert_eq!(theta, [0.5, 0.5]);
        plan.perturb_params(3, &mut theta);
        assert_eq!(theta, [9.0, 0.5]);

        let mut short = [0.25];
        FaultPlan::new()
            .inject(
                0,
                FaultKind::PolicyJump {
                    param: 7,
                    value: 1.0,
                },
            )
            .perturb_params(0, &mut short);
        assert_eq!(short, [0.25], "out-of-range parameter index is ignored");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 3, 2, 8, 1000);
        let b = FaultPlan::seeded(42, 3, 2, 8, 1000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for fault in a.faults() {
            assert!(fault.at_event < 1000);
            match fault.kind {
                FaultKind::NanRate { rule } | FaultKind::RateSpike { rule, .. } => {
                    assert!(rule < 3);
                }
                FaultKind::PolicyJump { param, .. } => assert!(param < 2),
            }
        }
        let c = FaultPlan::seeded(43, 3, 2, 8, 1000);
        assert_ne!(a, c, "different seeds give different plans");
    }
}
