//! Parameter policies: the time-varying signals `ϑ(t)` of the imprecise scenario.
//!
//! An *imprecise* population process leaves the parameter free to vary
//! arbitrarily inside `Θ`, adapted to the history of the process. In
//! simulation we must pick concrete realisations of that freedom; this module
//! provides the policies used in the paper's experiments plus a few generic
//! ones:
//!
//! * [`ConstantPolicy`] — the uncertain scenario (a fixed, possibly unknown, value);
//! * [`PiecewiseConstantPolicy`] — deterministic switching schedules;
//! * [`TimeFunctionPolicy`] — an arbitrary deterministic function of time;
//! * [`HysteresisPolicy`] — the feedback policy `θ1` of Section V-E: switch
//!   between the extreme parameter values when an observed coordinate crosses
//!   thresholds;
//! * [`RandomJumpPolicy`] — the policy `θ2` of Section V-E: resample the
//!   parameter uniformly in `Θ` at a state-dependent rate.
//!
//! Policies are queried by the simulator at every jump of the CTMC, receiving
//! the current time and normalised state. They may keep internal state (the
//! hysteresis mode, the last jump time, …), which is reset via
//! [`ParameterPolicy::reset`] before each replication.

use mfu_ctmc::params::ParamSpace;
use mfu_num::StateVec;
use rand::Rng;
use rand::RngCore;

/// A realisation of the imprecise parameter signal `ϑ(t)`.
///
/// Implementors return the parameter vector to use from the current instant
/// until the next query. The simulator queries the policy at every CTMC
/// event, so feedback policies observe the state with event-level resolution.
pub trait ParameterPolicy {
    /// Resets the policy's internal state before a new replication.
    fn reset(&mut self) {}

    /// Returns the parameter vector in effect at time `t` and state `x`.
    fn value(&mut self, t: f64, x: &StateVec, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Change-detection contract: `true` promises that
    /// [`ParameterPolicy::value`] returns the same vector at every query of
    /// a replication, independent of `(t, x)`, *and* never consumes
    /// randomness from `rng`.
    ///
    /// The simulator uses the promise to query the policy once per run
    /// instead of once per event, skipping both the per-event allocation
    /// and the ϑ-changed comparison on the hot path. A policy that answers
    /// `true` while varying its value silently simulates the *first*
    /// returned value — the default is therefore `false`, and only
    /// genuinely constant policies (such as [`ConstantPolicy`]) opt in.
    fn is_constant(&self) -> bool {
        false
    }

    /// Human-readable name used in reports and figures.
    fn name(&self) -> &str {
        "policy"
    }
}

/// A borrowed policy is a policy: [`Simulator::simulate`] hands its
/// `&mut dyn ParameterPolicy` to the lockstep engine as a group of one.
///
/// [`Simulator::simulate`]: crate::gillespie::Simulator::simulate
impl<P: ParameterPolicy + ?Sized> ParameterPolicy for &mut P {
    fn reset(&mut self) {
        (**self).reset();
    }

    fn value(&mut self, t: f64, x: &StateVec, rng: &mut dyn RngCore) -> Vec<f64> {
        (**self).value(t, x, rng)
    }

    fn is_constant(&self) -> bool {
        (**self).is_constant()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The uncertain scenario: a constant (but possibly unknown) parameter value.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantPolicy {
    theta: Vec<f64>,
}

impl ConstantPolicy {
    /// Creates a policy that always returns `theta`.
    pub fn new(theta: Vec<f64>) -> Self {
        ConstantPolicy { theta }
    }
}

impl ParameterPolicy for ConstantPolicy {
    fn value(&mut self, _t: f64, _x: &StateVec, _rng: &mut dyn RngCore) -> Vec<f64> {
        self.theta.clone()
    }

    fn is_constant(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "constant"
    }
}

/// A deterministic piecewise-constant schedule.
///
/// The value on `[t_k, t_{k+1})` is `values[k]`; before the first breakpoint
/// the first value applies, after the last breakpoint the last value applies.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseConstantPolicy {
    breakpoints: Vec<f64>,
    values: Vec<Vec<f64>>,
}

impl PiecewiseConstantPolicy {
    /// Creates a schedule from breakpoints `t_1 < … < t_m` and `m + 1` values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != breakpoints.len() + 1` or the breakpoints
    /// are not strictly increasing.
    pub fn new(breakpoints: Vec<f64>, values: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            values.len(),
            breakpoints.len() + 1,
            "need one more value than breakpoints"
        );
        assert!(
            breakpoints.windows(2).all(|w| w[0] < w[1]),
            "breakpoints must be strictly increasing"
        );
        PiecewiseConstantPolicy {
            breakpoints,
            values,
        }
    }
}

impl ParameterPolicy for PiecewiseConstantPolicy {
    fn value(&mut self, t: f64, _x: &StateVec, _rng: &mut dyn RngCore) -> Vec<f64> {
        let idx = self.breakpoints.iter().take_while(|&&b| t >= b).count();
        self.values[idx].clone()
    }

    /// A schedule with no breakpoints is a constant.
    fn is_constant(&self) -> bool {
        self.breakpoints.is_empty()
    }

    fn name(&self) -> &str {
        "piecewise-constant"
    }
}

/// An arbitrary deterministic function of time.
pub struct TimeFunctionPolicy<F> {
    f: F,
    label: String,
}

impl<F> TimeFunctionPolicy<F>
where
    F: FnMut(f64) -> Vec<f64>,
{
    /// Creates a policy from a function of time.
    pub fn new(label: impl Into<String>, f: F) -> Self {
        TimeFunctionPolicy {
            f,
            label: label.into(),
        }
    }
}

impl<F> ParameterPolicy for TimeFunctionPolicy<F>
where
    F: FnMut(f64) -> Vec<f64>,
{
    fn value(&mut self, t: f64, _x: &StateVec, _rng: &mut dyn RngCore) -> Vec<f64> {
        (self.f)(t)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// The feedback policy `θ1` of Section V-E of the paper.
///
/// The policy switches one parameter coordinate between the two extreme
/// values of its interval based on an observed state coordinate: when the
/// parameter is at its *high* value and the observed coordinate drops below
/// `low_threshold`, it switches to the *low* value; when the parameter is at
/// its low value and the observed coordinate rises above `high_threshold`, it
/// switches back to the high value. All other parameter coordinates stay at
/// the supplied base value.
///
/// With the SIR parameters of the paper (`observe = X_S`, thresholds 0.5 and
/// 0.85), this produces the near-periodic oscillations of Figure 6(a).
#[derive(Debug, Clone, PartialEq)]
pub struct HysteresisPolicy {
    base: Vec<f64>,
    param_index: usize,
    low_value: f64,
    high_value: f64,
    observe: usize,
    low_threshold: f64,
    high_threshold: f64,
    currently_high: bool,
    initially_high: bool,
}

impl HysteresisPolicy {
    /// Creates a hysteresis policy.
    ///
    /// * `base` — parameter vector used for all coordinates except `param_index`;
    /// * `param_index` — which parameter coordinate is switched;
    /// * `(low_value, high_value)` — the two extreme values it switches between;
    /// * `observe` — which *state* coordinate is monitored;
    /// * `low_threshold` / `high_threshold` — switch to low when the observed
    ///   coordinate falls below `low_threshold` while high, switch to high when
    ///   it rises above `high_threshold` while low;
    /// * `start_high` — whether the policy starts at the high value.
    ///
    /// # Panics
    ///
    /// Panics if `param_index` is out of range of `base` or
    /// `low_threshold > high_threshold`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        base: Vec<f64>,
        param_index: usize,
        low_value: f64,
        high_value: f64,
        observe: usize,
        low_threshold: f64,
        high_threshold: f64,
        start_high: bool,
    ) -> Self {
        assert!(param_index < base.len(), "param_index out of range");
        assert!(
            low_threshold <= high_threshold,
            "thresholds must be ordered"
        );
        HysteresisPolicy {
            base,
            param_index,
            low_value,
            high_value,
            observe,
            low_threshold,
            high_threshold,
            currently_high: start_high,
            initially_high: start_high,
        }
    }

    /// Whether the switched coordinate is currently at its high value.
    pub fn is_high(&self) -> bool {
        self.currently_high
    }
}

impl ParameterPolicy for HysteresisPolicy {
    fn reset(&mut self) {
        self.currently_high = self.initially_high;
    }

    fn value(&mut self, _t: f64, x: &StateVec, _rng: &mut dyn RngCore) -> Vec<f64> {
        let observed = x[self.observe];
        if self.currently_high && observed < self.low_threshold {
            self.currently_high = false;
        } else if !self.currently_high && observed > self.high_threshold {
            self.currently_high = true;
        }
        let mut theta = self.base.clone();
        theta[self.param_index] = if self.currently_high {
            self.high_value
        } else {
            self.low_value
        };
        theta
    }

    fn name(&self) -> &str {
        "hysteresis"
    }
}

/// The random-jump policy `θ2` of Section V-E of the paper.
///
/// The switched parameter coordinate jumps to a fresh value, drawn uniformly
/// from its interval in `Θ`, at a rate `rate_scale · x[observe]`. Between
/// jumps the value is held constant. The jump process is simulated by
/// thinning against the simulator's event clock: at each query the policy
/// draws whether a jump occurred during the elapsed interval, using the
/// currently observed state as the rate modulator.
pub struct RandomJumpPolicy {
    space: ParamSpace,
    base: Vec<f64>,
    param_index: usize,
    observe: usize,
    rate_scale: f64,
    current: f64,
    initial: f64,
    last_time: f64,
}

impl RandomJumpPolicy {
    /// Creates a random-jump policy.
    ///
    /// * `space` — the parameter space from which fresh values are drawn;
    /// * `base` — parameter vector used for the non-switched coordinates;
    /// * `param_index` — which parameter coordinate jumps;
    /// * `observe` — which state coordinate modulates the jump rate;
    /// * `rate_scale` — the jump rate is `rate_scale · x[observe]`;
    /// * `initial` — the value held before the first jump.
    ///
    /// # Panics
    ///
    /// Panics if `param_index` is out of range of `base` or of the space.
    pub fn new(
        space: ParamSpace,
        base: Vec<f64>,
        param_index: usize,
        observe: usize,
        rate_scale: f64,
        initial: f64,
    ) -> Self {
        assert!(param_index < base.len(), "param_index out of range of base");
        assert!(
            param_index < space.dim(),
            "param_index out of range of the parameter space"
        );
        RandomJumpPolicy {
            space,
            base,
            param_index,
            observe,
            rate_scale,
            current: initial,
            initial,
            last_time: 0.0,
        }
    }

    /// The value currently held by the switched coordinate.
    pub fn current(&self) -> f64 {
        self.current
    }
}

impl ParameterPolicy for RandomJumpPolicy {
    fn reset(&mut self) {
        self.current = self.initial;
        self.last_time = 0.0;
    }

    fn value(&mut self, t: f64, x: &StateVec, rng: &mut dyn RngCore) -> Vec<f64> {
        let dt = (t - self.last_time).max(0.0);
        self.last_time = t;
        let rate = self.rate_scale * x[self.observe].max(0.0);
        if rate > 0.0 && dt > 0.0 {
            let jump_probability = 1.0 - (-rate * dt).exp();
            if rng.gen::<f64>() < jump_probability {
                let interval = self.space.intervals()[self.param_index];
                self.current = interval.lo() + interval.width() * rng.gen::<f64>();
            }
        }
        let mut theta = self.base.clone();
        theta[self.param_index] = self.current;
        theta
    }

    fn name(&self) -> &str {
        "random-jump"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfu_ctmc::params::Interval;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_policy_returns_fixed_value() {
        let mut p = ConstantPolicy::new(vec![1.0, 2.0]);
        let x = StateVec::from([0.5]);
        assert_eq!(p.value(0.0, &x, &mut rng()), vec![1.0, 2.0]);
        assert_eq!(p.value(10.0, &x, &mut rng()), vec![1.0, 2.0]);
        assert_eq!(p.name(), "constant");
    }

    #[test]
    fn piecewise_constant_switches_at_breakpoints() {
        let mut p =
            PiecewiseConstantPolicy::new(vec![1.0, 2.0], vec![vec![0.0], vec![1.0], vec![2.0]]);
        let x = StateVec::from([0.0]);
        assert_eq!(p.value(0.5, &x, &mut rng()), vec![0.0]);
        assert_eq!(p.value(1.0, &x, &mut rng()), vec![1.0]);
        assert_eq!(p.value(1.5, &x, &mut rng()), vec![1.0]);
        assert_eq!(p.value(5.0, &x, &mut rng()), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "one more value")]
    fn piecewise_constant_validates_lengths() {
        let _ = PiecewiseConstantPolicy::new(vec![1.0], vec![vec![0.0]]);
    }

    #[test]
    fn time_function_policy_evaluates_closure() {
        let mut p = TimeFunctionPolicy::new("ramp", |t: f64| vec![t * 2.0]);
        let x = StateVec::from([0.0]);
        assert_eq!(p.value(1.5, &x, &mut rng()), vec![3.0]);
        assert_eq!(p.name(), "ramp");
    }

    #[test]
    fn hysteresis_switches_and_resets() {
        // observe coordinate 0, switch param 0 between 1 (low) and 10 (high)
        let mut p = HysteresisPolicy::new(vec![0.0], 0, 1.0, 10.0, 0, 0.5, 0.85, true);
        let mut r = rng();
        // state above low threshold: stays high
        assert_eq!(p.value(0.0, &StateVec::from([0.7]), &mut r)[0], 10.0);
        assert!(p.is_high());
        // drops below 0.5: switches to low
        assert_eq!(p.value(1.0, &StateVec::from([0.4]), &mut r)[0], 1.0);
        assert!(!p.is_high());
        // stays low until observed rises above 0.85
        assert_eq!(p.value(2.0, &StateVec::from([0.7]), &mut r)[0], 1.0);
        assert_eq!(p.value(3.0, &StateVec::from([0.9]), &mut r)[0], 10.0);
        // reset restores the initial mode
        p.reset();
        assert!(p.is_high());
    }

    #[test]
    fn random_jump_policy_stays_in_interval_and_jumps() {
        let space = ParamSpace::new(vec![("theta", Interval::new(1.0, 10.0).unwrap())]).unwrap();
        let mut p = RandomJumpPolicy::new(space, vec![5.0], 0, 0, 50.0, 5.0);
        let mut r = rng();
        let mut distinct = std::collections::BTreeSet::new();
        for k in 1..200 {
            let t = k as f64 * 0.1;
            let theta = p.value(t, &StateVec::from([0.5]), &mut r);
            assert!(theta[0] >= 1.0 && theta[0] <= 10.0);
            distinct.insert((theta[0] * 1e9) as i64);
        }
        assert!(
            distinct.len() > 3,
            "expected several jumps, got {}",
            distinct.len()
        );
        p.reset();
        assert_eq!(p.current(), 5.0);
    }

    #[test]
    fn random_jump_policy_never_jumps_when_rate_is_zero() {
        let space = ParamSpace::new(vec![("theta", Interval::new(1.0, 10.0).unwrap())]).unwrap();
        let mut p = RandomJumpPolicy::new(space, vec![5.0], 0, 0, 5.0, 2.0);
        let mut r = rng();
        for k in 1..50 {
            let theta = p.value(k as f64, &StateVec::from([0.0]), &mut r);
            assert_eq!(theta[0], 2.0);
        }
    }

    #[test]
    fn borrowed_policies_forward_every_method() {
        let mut owned = HysteresisPolicy::new(vec![0.0], 0, 1.0, 10.0, 0, 0.5, 0.85, true);
        let mut borrowed: &mut dyn ParameterPolicy = &mut owned;
        assert!(!ParameterPolicy::is_constant(&borrowed));
        assert_eq!(ParameterPolicy::name(&borrowed), "hysteresis");
        let mut r = rng();
        assert_eq!(borrowed.value(0.0, &StateVec::from([0.4]), &mut r)[0], 1.0);
        ParameterPolicy::reset(&mut borrowed);
        assert!(owned.is_high(), "reset reached the borrowed policy");
        let mut constant = ConstantPolicy::new(vec![3.0]);
        assert!(ParameterPolicy::is_constant(&&mut constant));
    }
}
