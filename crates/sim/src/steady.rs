//! Sampling the stationary regime of a simulated population process.
//!
//! Theorem 3 of the paper states that, as `N` grows, the stationary measure
//! of the stochastic system concentrates on the Birkhoff centre of the
//! mean-field differential inclusion. Figure 6 illustrates this by plotting
//! long-run sample paths against the Birkhoff centre for `N = 100`, `1000`
//! and `10000`. This module produces exactly those long-run samples: a single
//! long trajectory with a burn-in period discarded and the remainder thinned
//! onto a uniform grid.

use mfu_guard::RunBudget;
use mfu_num::geometry::Point2;
use mfu_num::StateVec;

use crate::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use crate::policy::ParameterPolicy;
use crate::{Result, SimError};

/// Options for stationary-regime sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateOptions {
    /// Time discarded at the beginning of the run.
    pub burn_in: f64,
    /// Spacing between retained samples.
    pub sample_interval: f64,
    /// Number of retained samples.
    pub samples: usize,
    /// Simulation algorithm forwarded to the simulator (τ-leaping makes
    /// long stationary runs at large `N` affordable; defaults to the
    /// exact SSA).
    pub algorithm: SimulationAlgorithm,
    /// Resource budget forwarded to the simulator; its event cap defaults
    /// to [`DEFAULT_MAX_EVENTS`](crate::gillespie::DEFAULT_MAX_EVENTS).
    /// Stationary sampling needs the full horizon, so a truncated run is
    /// reported as a typed error rather than a partial sample.
    pub budget: RunBudget,
}

impl SteadyStateOptions {
    /// Creates options with the given burn-in, sample spacing and sample count.
    ///
    /// # Panics
    ///
    /// Panics if `burn_in` is negative, `sample_interval` is not positive, or
    /// `samples == 0` — see [`SteadyStateOptions::try_new`] for the typed
    /// non-panicking variant.
    pub fn new(burn_in: f64, sample_interval: f64, samples: usize) -> Self {
        assert!(
            burn_in >= 0.0 && burn_in.is_finite(),
            "burn-in must be non-negative"
        );
        assert!(
            sample_interval > 0.0 && sample_interval.is_finite(),
            "sample interval must be positive"
        );
        assert!(samples > 0, "at least one sample is required");
        SteadyStateOptions {
            burn_in,
            sample_interval,
            samples,
            algorithm: SimulationAlgorithm::Exact,
            budget: RunBudget::unlimited(),
        }
    }

    /// Creates options, reporting invalid values as typed errors instead of
    /// panicking (the contract server-facing callers need).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidInput`] if `burn_in` is negative or
    /// non-finite, `sample_interval` is not positive and finite, or
    /// `samples == 0`.
    pub fn try_new(burn_in: f64, sample_interval: f64, samples: usize) -> Result<Self> {
        if !(burn_in >= 0.0 && burn_in.is_finite()) {
            return Err(SimError::invalid_input(
                "steady-state burn-in must be non-negative and finite",
            ));
        }
        if !(sample_interval > 0.0 && sample_interval.is_finite()) {
            return Err(SimError::invalid_input(
                "steady-state sample interval must be positive and finite",
            ));
        }
        if samples == 0 {
            return Err(SimError::invalid_input(
                "steady-state sampling requires at least one sample",
            ));
        }
        Ok(SteadyStateOptions::new(burn_in, sample_interval, samples))
    }

    /// Selects the simulation algorithm for the underlying long run.
    #[must_use]
    pub fn algorithm(mut self, algorithm: SimulationAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the resource budget forwarded to the simulator.
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Total simulated time implied by these options.
    pub fn horizon(&self) -> f64 {
        self.burn_in + self.sample_interval * self.samples as f64
    }
}

/// Samples of the stationary regime of one long run.
#[derive(Debug, Clone)]
pub struct SteadyStateSample {
    states: Vec<StateVec>,
    events: usize,
}

impl SteadyStateSample {
    /// The retained (post burn-in) state samples.
    pub fn states(&self) -> &[StateVec] {
        &self.states
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` when no sample was retained.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of CTMC events in the underlying run.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Projects every sample onto the plane spanned by two coordinates,
    /// ready for containment tests against a 2-D Birkhoff centre.
    ///
    /// # Errors
    ///
    /// Returns an error if either coordinate index is out of range.
    pub fn project(&self, coord_x: usize, coord_y: usize) -> Result<Vec<Point2>> {
        if let Some(first) = self.states.first() {
            if coord_x >= first.dim() || coord_y >= first.dim() {
                return Err(SimError::invalid_input(
                    "projection coordinate out of range",
                ));
            }
        }
        Ok(self
            .states
            .iter()
            .map(|s| Point2::new(s[coord_x], s[coord_y]))
            .collect())
    }
}

/// Runs one long simulation and retains thinned post-burn-in samples.
///
/// # Errors
///
/// Propagates simulation errors; also fails if the run terminates (absorbs)
/// before the burn-in period ends.
pub fn sample_steady_state(
    simulator: &Simulator,
    initial_counts: &[i64],
    policy: &mut dyn ParameterPolicy,
    options: &SteadyStateOptions,
    seed: u64,
) -> Result<SteadyStateSample> {
    let horizon = options.horizon();
    let sim_options = SimulationOptions::new(horizon)
        .algorithm(options.algorithm)
        .budget(options.budget)
        .record_interval(
            options
                .sample_interval
                .min(options.burn_in.max(options.sample_interval))
                / 2.0,
        );
    let run = simulator.simulate(initial_counts, policy, &sim_options, seed)?;
    // Stationary statistics over a truncated run would silently repeat the
    // last reached state across the missing tail — surface the truncation
    // as a typed error instead (the same mapping the ensemble applies).
    run.require_completed()?;
    let trajectory = run.trajectory();
    if trajectory.last_time() < options.burn_in {
        return Err(SimError::invalid_input(
            "simulation ended before the burn-in period (absorbing state reached?)",
        ));
    }
    let mut states = Vec::with_capacity(options.samples);
    for k in 1..=options.samples {
        let t = options.burn_in + options.sample_interval * k as f64;
        states.push(trajectory.at(t.min(trajectory.last_time()))?);
    }
    Ok(SteadyStateSample {
        states,
        events: run.events(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ConstantPolicy;
    use mfu_ctmc::params::{Interval, ParamSpace};
    use mfu_ctmc::population::PopulationModel;
    use mfu_ctmc::transition::TransitionClass;

    fn bike_model() -> PopulationModel {
        let params = ParamSpace::new(vec![
            ("arrival", Interval::new(0.5, 2.0).unwrap()),
            ("return", Interval::new(0.5, 2.0).unwrap()),
        ])
        .unwrap();
        PopulationModel::builder(1, params)
            .variable_names(vec!["bikes"])
            .transition(TransitionClass::new(
                "pickup",
                [-1.0],
                |x: &StateVec, th: &[f64]| {
                    if x[0] > 0.0 {
                        th[0]
                    } else {
                        0.0
                    }
                },
            ))
            .transition(TransitionClass::new(
                "return",
                [1.0],
                |x: &StateVec, th: &[f64]| {
                    if x[0] < 1.0 {
                        th[1]
                    } else {
                        0.0
                    }
                },
            ))
            .build()
            .unwrap()
    }

    /// A mean-reverting occupancy model: pickups proportional to occupancy,
    /// returns proportional to free racks. The stationary distribution is
    /// tightly concentrated around the mean-field fixed point 1/2.
    fn mean_reverting_model() -> PopulationModel {
        let params = ParamSpace::new(vec![
            ("arrival", Interval::new(0.5, 2.0).unwrap()),
            ("return", Interval::new(0.5, 2.0).unwrap()),
        ])
        .unwrap();
        PopulationModel::builder(1, params)
            .variable_names(vec!["occupancy"])
            .transition(TransitionClass::new(
                "pickup",
                [-1.0],
                |x: &StateVec, th: &[f64]| th[0] * x[0],
            ))
            .transition(TransitionClass::new(
                "return",
                [1.0],
                |x: &StateVec, th: &[f64]| th[1] * (1.0 - x[0]).max(0.0),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn steady_samples_concentrate_near_mean_field_fixed_point() {
        let sim = Simulator::new(mean_reverting_model(), 200).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let options = SteadyStateOptions::new(20.0, 0.5, 60);
        let sample = sample_steady_state(&sim, &[20], &mut policy, &options, 13).unwrap();
        assert_eq!(sample.len(), 60);
        assert!(sample.events() > 0);
        let mean: f64 = sample.states().iter().map(|s| s[0]).sum::<f64>() / sample.len() as f64;
        // strong mean reversion: occupancy fluctuates tightly around 1/2
        assert!(
            (mean - 0.5).abs() < 0.1,
            "stationary mean {mean} far from 0.5"
        );
    }

    #[test]
    fn projection_produces_plane_points() {
        let sim = Simulator::new(bike_model(), 50).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let options = SteadyStateOptions::new(1.0, 0.5, 10);
        let sample = sample_steady_state(&sim, &[25], &mut policy, &options, 2).unwrap();
        let points = sample.project(0, 0).unwrap();
        assert_eq!(points.len(), 10);
        assert!(points.iter().all(|p| p.x >= 0.0 && p.x <= 1.0));
        assert!(sample.project(0, 5).is_err());
    }

    #[test]
    fn options_accessors() {
        let options = SteadyStateOptions::new(10.0, 0.5, 20);
        assert!((options.horizon() - 20.0).abs() < 1e-12);
        assert_eq!(options.algorithm, SimulationAlgorithm::Exact);
    }

    #[test]
    fn tau_leap_steady_samples_concentrate_like_the_exact_ones() {
        use crate::tauleap::TauLeapOptions;
        let sim = Simulator::new(mean_reverting_model(), 2000).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let options = SteadyStateOptions::new(20.0, 0.5, 60)
            .algorithm(SimulationAlgorithm::TauLeap(TauLeapOptions::default()));
        let sample = sample_steady_state(&sim, &[200], &mut policy, &options, 13).unwrap();
        assert_eq!(sample.len(), 60);
        let mean: f64 = sample.states().iter().map(|s| s[0]).sum::<f64>() / sample.len() as f64;
        assert!(
            (mean - 0.5).abs() < 0.1,
            "tau-leap stationary mean {mean} far from 0.5"
        );
        // leaping makes the long run cheap: far fewer steps than the
        // ~2000-events-per-unit-time exact run would need
        assert!(sample.events() < 20_000, "{} steps", sample.events());
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn options_validate_interval() {
        let _ = SteadyStateOptions::new(1.0, 0.0, 5);
    }

    #[test]
    fn try_new_reports_typed_errors_instead_of_panicking() {
        assert!(SteadyStateOptions::try_new(1.0, 0.5, 5).is_ok());
        for (burn_in, interval, samples) in [
            (-1.0, 0.5, 5),
            (f64::NAN, 0.5, 5),
            (1.0, 0.0, 5),
            (1.0, f64::INFINITY, 5),
            (1.0, 0.5, 0),
        ] {
            let err = SteadyStateOptions::try_new(burn_in, interval, samples).unwrap_err();
            assert!(matches!(err, SimError::InvalidInput { .. }));
        }
    }

    #[test]
    fn truncated_long_run_is_a_typed_error_not_a_partial_sample() {
        let sim = Simulator::new(mean_reverting_model(), 200).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let options =
            SteadyStateOptions::new(20.0, 0.5, 60).budget(RunBudget::unlimited().max_events(100));
        let err = sample_steady_state(&sim, &[20], &mut policy, &options, 13).unwrap_err();
        assert!(matches!(
            err,
            SimError::Truncated {
                reason: mfu_guard::TruncationReason::MaxEvents,
                events: 100,
                ..
            }
        ));
    }
}
