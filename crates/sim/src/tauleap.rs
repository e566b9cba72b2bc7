//! Explicit τ-leaping: approximate stochastic simulation for large `N` —
//! the algorithm's options and its step-size selection.
//!
//! The exact Gillespie SSA pays one event per CTMC jump, so the cost of a
//! run grows linearly with the population scale `N` — exactly wrong for
//! validating the paper's mean-field bounds, which are statements about
//! `N → ∞` and only get tight around `N ≈ 10⁵–10⁶`. τ-leaping (Gillespie
//! 2001) freezes the propensities over a step of length `τ` and fires
//! every transition class a Poisson-distributed number of times at once:
//!
//! > `K_k ~ Poisson(a_k(x) · τ)`, `x ← x + Σ_k ν_k · K_k / N`
//!
//! turning millions of per-event updates into a few hundred per-leap
//! updates whose cost is independent of `N`.
//!
//! # Step-size selection
//!
//! `τ` is chosen per leap with the Cao–Gillespie bound (*Efficient step
//! size selection for the tau-leaping simulation method*, J. Chem. Phys.
//! 124, 2006): for each species `i`, the net drift `μ_i = Σ_k ν_ik a_k`
//! and spread `σ²_i = Σ_k ν²_ik a_k` of its count must not move it by more
//! than `max(ε·c_i/g_i, 1)` within one leap, where `c_i` is the current
//! count, `ε` the accuracy knob ([`TauLeapOptions::epsilon`]) and `g_i`
//! the highest order of any reaction consuming species `i` — this bounds
//! the *relative change of every propensity* by roughly `ε`. Reaction
//! orders are taken from the rates' species supports (the support size,
//! clamped to `[1, 3]`, bounds the polynomial order of the mass-action
//! and affine-product rates the DSL lowers; rates with unknown support
//! get the conservative order 3).
//!
//! # Exactness guards
//!
//! Three mechanisms keep the approximation honest near boundaries. Their
//! settings are fixed constants, not options: the fallback threshold and
//! burst length are the operating point Cao, Gillespie & Petzold give for
//! τ-leaping (J. Chem. Phys. 124, 2006).
//!
//! * **negative-population guard** — a leap whose aggregated firing
//!   counts would drive any count negative is rejected wholesale and
//!   retried with `τ/2` (fresh Poisson draws, so the retry is unbiased);
//! * **exact fallback** — whenever `τ` falls below [`SSA_THRESHOLD`]
//!   multiples of the mean waiting time `1/Σa_k` (because the system is
//!   small, stiff, or parked on a boundary), leaping is not worth its bias
//!   and the engine executes a burst of [`SSA_BURST`] exact SSA steps
//!   instead, then resumes leaping. A model that never leaves the guarded
//!   regime therefore degrades to the exact algorithm rather than
//!   mis-simulating;
//! * **demotion** — once a run has halved τ [`DEMOTE_AFTER_HALVINGS`] times
//!   in total, it runs exact SSA for the rest of its horizon instead of
//!   thrashing.
//!
//! # Engine
//!
//! The engine that runs these leaps is the lockstep engine of
//! [`crate::lockstep`]: [`Simulator::simulate`] runs a τ-leap replication
//! as a group of one, and ensembles run wider groups that share their
//! propensity rescans. Runs are deterministic in the seed (one RNG stream
//! drives policy queries, Poisson draws and fallback steps alike), but the
//! stream consumption differs from the exact engine's, so a τ-leap run is
//! *not* event-comparable to an exact run at the same seed — only
//! distributionally close (`O(ε)` bias on the means). Select the algorithm
//! via [`SimulationOptions::algorithm`](crate::gillespie::SimulationOptions::algorithm) /
//! [`SimulationAlgorithm::TauLeap`](crate::gillespie::SimulationAlgorithm);
//! `ensemble`, `steady` and the `mfu run --algorithm tau-leap` CLI all
//! thread it through.

use crate::gillespie::Simulator;

/// Exact-fallback threshold, in multiples of the mean waiting time
/// `1/Σa_k`: when the selected (or guard-halved) `τ` drops below
/// `SSA_THRESHOLD / Σa_k`, the engine runs exact SSA steps instead of
/// leaping. The literature suggests a small multiple of 1; 10 is
/// conservative.
pub const SSA_THRESHOLD: f64 = 10.0;

/// Number of exact SSA steps executed per fallback burst before
/// τ-selection is retried.
pub const SSA_BURST: usize = 100;

/// Escalation ladder: once a run has accumulated this many τ halvings in
/// total, the engine *demotes itself to exact SSA* for the remainder of the
/// run instead of thrashing (every subsequent step goes through the
/// fallback path). Halvings this frequent mean the leap approximation is
/// not paying for itself on this model/regime.
pub const DEMOTE_AFTER_HALVINGS: u64 = 256;

/// The accuracy knob of the explicit τ-leap engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLeapOptions {
    /// Relative propensity-change budget per leap (the `ε` of the
    /// Cao–Gillespie step-size bound). Smaller is more accurate and
    /// slower; `0.03` is the literature's default operating point.
    pub epsilon: f64,
}

impl TauLeapOptions {
    /// Creates options with the given `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "tau-leap epsilon must lie in (0, 1)"
        );
        TauLeapOptions { epsilon }
    }
}

impl Default for TauLeapOptions {
    /// The literature's default operating point: `ε = 0.03`.
    fn default() -> Self {
        TauLeapOptions::new(0.03)
    }
}

/// Highest order of any reaction *consuming* each species, bounded via
/// the rates' species supports (see the module docs); species nothing
/// consumes keep the neutral order 1.
pub(crate) fn reactant_orders(simulator: &Simulator) -> Vec<f64> {
    let mut orders = vec![1.0_f64; simulator.model().dim()];
    for (k, class) in simulator.model().transitions().iter().enumerate() {
        let order = class
            .species_support()
            .map_or(3.0, |support| support.len().clamp(1, 3) as f64);
        for &(i, j) in &simulator.sparse_jumps()[k] {
            if j < 0 {
                orders[i] = orders[i].max(order);
            }
        }
    }
    orders
}

/// The Cao–Gillespie step size: the largest `τ` keeping every species'
/// expected move and spread within `max(ε·c_i/g_i, 1)` counts. Returns
/// `f64::INFINITY` when no propensity can change the state (the caller's
/// horizon then caps the step).
pub(crate) fn select_tau(
    epsilon: f64,
    counts: &[i64],
    rates: &[f64],
    sparse_jumps: &[Vec<(usize, i64)>],
    orders: &[f64],
    mu: &mut [f64],
    sigma2: &mut [f64],
) -> f64 {
    mu.fill(0.0);
    sigma2.fill(0.0);
    for (jump, &rate) in sparse_jumps.iter().zip(rates) {
        if rate > 0.0 {
            for &(i, j) in jump {
                let j = j as f64;
                mu[i] += j * rate;
                sigma2[i] += j * j * rate;
            }
        }
    }
    let mut tau = f64::INFINITY;
    for (i, (&s2, &m)) in sigma2.iter().zip(mu.iter()).enumerate() {
        if s2 <= 0.0 {
            continue;
        }
        let bound = (epsilon * counts[i] as f64 / orders[i]).max(1.0);
        let by_mean = if m == 0.0 {
            f64::INFINITY
        } else {
            bound / m.abs()
        };
        tau = tau.min(by_mean.min(bound * bound / s2));
    }
    tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gillespie::{SimulationAlgorithm, SimulationOptions};
    use crate::policy::ConstantPolicy;
    use crate::SimError;
    use mfu_ctmc::params::{Interval, ParamSpace};
    use mfu_ctmc::population::PopulationModel;
    use mfu_ctmc::transition::TransitionClass;
    use mfu_num::StateVec;

    /// SIR with annotated supports so the reactant orders are sharp.
    fn sir_model() -> PopulationModel {
        let params = ParamSpace::new(vec![("contact", Interval::new(1.0, 10.0).unwrap())]).unwrap();
        PopulationModel::builder(3, params)
            .variable_names(vec!["S", "I", "R"])
            .transition(
                TransitionClass::new("infect", [-1.0, 1.0, 0.0], |x: &StateVec, th: &[f64]| {
                    (0.1 + th[0] * x[1]) * x[0]
                })
                .with_species_support(vec![0, 1]),
            )
            .transition(
                TransitionClass::new("recover", [0.0, -1.0, 1.0], |x: &StateVec, _: &[f64]| {
                    5.0 * x[1]
                })
                .with_species_support(vec![1]),
            )
            .transition(
                TransitionClass::new("wane", [1.0, 0.0, -1.0], |x: &StateVec, _: &[f64]| {
                    1.0 * x[2]
                })
                .with_species_support(vec![2]),
            )
            .build()
            .unwrap()
    }

    fn death_model() -> PopulationModel {
        let params = ParamSpace::single("rate", 1.0, 1.0).unwrap();
        PopulationModel::builder(1, params)
            .transition(
                TransitionClass::new("die", [-1.0], |x: &StateVec, th: &[f64]| th[0] * x[0])
                    .with_species_support(vec![0]),
            )
            .build()
            .unwrap()
    }

    fn leap_options(t_end: f64, epsilon: f64) -> SimulationOptions {
        SimulationOptions::new(t_end).tau_leap(TauLeapOptions::new(epsilon))
    }

    #[test]
    fn options_validate_and_default() {
        assert_eq!(TauLeapOptions::default().epsilon, 0.03);
        assert!(std::panic::catch_unwind(|| TauLeapOptions::new(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| TauLeapOptions::new(1.0)).is_err());
    }

    #[test]
    fn algorithm_knob_displays_and_defaults_to_exact() {
        let options = SimulationOptions::new(1.0);
        assert_eq!(options.algorithm, SimulationAlgorithm::Exact);
        assert_eq!(SimulationAlgorithm::Exact.to_string(), "exact");
        assert_eq!(
            SimulationAlgorithm::TauLeap(TauLeapOptions::new(0.03)).to_string(),
            "tau-leap:0.03"
        );
    }

    #[test]
    fn reactant_orders_follow_supports() {
        let simulator = Simulator::new(sir_model(), 100).unwrap();
        // S is consumed by the order-2 infection, I by the order-1
        // recovery, R by the order-1 waning
        assert_eq!(reactant_orders(&simulator), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn tau_shrinks_with_epsilon_and_grows_with_population() {
        let tau_at = |scale: usize, counts: &[i64], epsilon: f64| {
            let simulator = Simulator::new(sir_model(), scale).unwrap();
            let theta = [5.0];
            let x: StateVec = counts.iter().map(|&c| c as f64 / scale as f64).collect();
            let rates: Vec<f64> = (0..3)
                .map(|k| simulator.eval_rate(k, &x, &theta, 0.0, 0).unwrap())
                .collect();
            let mut mu = vec![0.0; 3];
            let mut sigma2 = vec![0.0; 3];
            select_tau(
                epsilon,
                counts,
                &rates,
                simulator.sparse_jumps(),
                &reactant_orders(&simulator),
                &mut mu,
                &mut sigma2,
            )
        };
        // all compartments populated, so no species sits on the ±1-count
        // floor of the bound and ε actually steers the step
        let coarse = tau_at(1000, &[600, 300, 100], 0.1);
        let fine = tau_at(1000, &[600, 300, 100], 0.01);
        assert!(fine < coarse, "eps 0.01 gave {fine}, eps 0.1 gave {coarse}");
        // same densities at 10× the scale: the relative bound is scale
        // free, so τ must not degrade as the population grows (that is the
        // whole point of leaping)
        let large = tau_at(10_000, &[6000, 3000, 1000], 0.1);
        assert!(
            large >= coarse * 0.5,
            "τ degraded at scale: {large} vs {coarse}"
        );
    }

    #[test]
    fn deterministic_given_seed_and_horizon_reached() {
        let simulator = Simulator::new(sir_model(), 50_000).unwrap();
        let options = leap_options(2.0, 0.05);
        let run = |seed: u64| {
            let mut policy = ConstantPolicy::new(vec![5.0]);
            simulator
                .simulate(&[35_000, 15_000, 0], &mut policy, &options, seed)
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.final_counts(), b.final_counts());
        for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
        assert!((a.trajectory().last_time() - 2.0).abs() < 1e-12);
        // a leap run is far cheaper than one event per jump: the exact
        // run at this scale would take hundreds of thousands of events
        assert!(a.events() < 20_000, "{} steps", a.events());
        let c = run(10);
        assert_ne!(a.final_counts(), c.final_counts());
    }

    #[test]
    fn counts_stay_non_negative_and_absorb_at_extinction() {
        // pure death from a small population with a coarse epsilon: the
        // Poisson draws overshoot constantly, so this exercises both the
        // halving guard and the exact fallback at the boundary
        let simulator = Simulator::new(death_model(), 50).unwrap();
        let options = SimulationOptions::new(1_000.0).tau_leap(TauLeapOptions::new(0.5));
        for seed in 0..10 {
            let mut policy = ConstantPolicy::new(vec![1.0]);
            let run = simulator
                .simulate(&[50], &mut policy, &options, seed)
                .unwrap();
            assert_eq!(run.final_counts(), &[0], "seed {seed}");
            for (_, state) in run.trajectory().iter() {
                assert!(state[0] >= 0.0, "seed {seed}: negative population");
            }
            assert!((run.trajectory().last_time() - 1_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn conservation_holds_across_leaps() {
        let simulator = Simulator::new(sir_model(), 100_000).unwrap();
        let options = leap_options(3.0, 0.03);
        let mut policy = ConstantPolicy::new(vec![5.0]);
        let run = simulator
            .simulate(&[70_000, 30_000, 0], &mut policy, &options, 4)
            .unwrap();
        assert_eq!(run.final_counts().iter().sum::<i64>(), 100_000);
        assert!(run.final_counts().iter().all(|&c| c >= 0));
    }

    #[test]
    fn run_counters_track_leap_internals() {
        // Well-conditioned SIR at large scale: every step is a clean leap.
        let simulator = Simulator::new(sir_model(), 100_000).unwrap();
        let mut policy = ConstantPolicy::new(vec![5.0]);
        let run = simulator
            .simulate(
                &[70_000, 30_000, 0],
                &mut policy,
                &leap_options(3.0, 0.03),
                4,
            )
            .unwrap();
        let c = run.counters();
        assert_eq!(c.events_fired, run.events() as u64);
        assert_eq!(c.tau_leap_steps + c.tau_fallback_steps, c.events_fired);
        assert!(
            c.poisson_draws >= c.tau_leap_steps,
            "draws per accepted leap"
        );
        assert_eq!(c.tau_halvings, 0, "well-conditioned SIR halved tau");
        assert_eq!(c.propensity_skips, 0);
        assert_eq!(run.selector(), crate::selection::SelectorKind::Linear);

        // Boundary-parked pure death: the exact fallback must engage.
        let death = Simulator::new(death_model(), 50).unwrap();
        let options = SimulationOptions::new(1_000.0).tau_leap(TauLeapOptions::new(0.5));
        let mut policy = ConstantPolicy::new(vec![1.0]);
        let run = death.simulate(&[50], &mut policy, &options, 0).unwrap();
        let c = run.counters();
        assert!(
            c.tau_fallback_bursts > 0,
            "no fallback burst at the boundary"
        );
        assert!(c.tau_fallback_steps > 0);
    }

    #[test]
    fn policy_and_budget_contracts_match_the_exact_engine() {
        let simulator = Simulator::new(sir_model(), 1000).unwrap();
        let mut policy = ConstantPolicy::new(vec![99.0]); // outside [1, 10]
        let err = simulator
            .simulate(&[700, 300, 0], &mut policy, &leap_options(1.0, 0.03), 1)
            .unwrap_err();
        assert!(matches!(err, SimError::PolicyOutOfRange { .. }));
        let mut policy = ConstantPolicy::new(vec![5.0]);
        let run = simulator
            .simulate(
                &[700, 300, 0],
                &mut policy,
                &leap_options(1.0, 0.03).budget(mfu_guard::RunBudget::unlimited().max_events(3)),
                1,
            )
            .unwrap();
        assert_eq!(run.events(), 3, "the partial run keeps the prefix");
        assert!(matches!(
            run.outcome(),
            mfu_guard::Outcome::Truncated {
                reason: mfu_guard::TruncationReason::MaxEvents,
                ..
            }
        ));
        assert!(run.trajectory().last_time() < 1.0);
    }

    #[test]
    fn record_interval_bounds_trajectory_growth() {
        let simulator = Simulator::new(sir_model(), 100_000).unwrap();
        let options = leap_options(3.0, 0.01).record_interval(0.5);
        let mut policy = ConstantPolicy::new(vec![5.0]);
        let run = simulator
            .simulate(&[70_000, 30_000, 0], &mut policy, &options, 8)
            .unwrap();
        assert!(
            run.trajectory().len() <= 10,
            "{} points recorded",
            run.trajectory().len()
        );
    }
}
