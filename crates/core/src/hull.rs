//! The differential-hull over-approximation (Section IV-B, Theorem 4).
//!
//! The hull replaces the `d`-dimensional differential inclusion by a
//! `2d`-dimensional ODE on a pair of vectors `(x̲, x̄)` such that every
//! solution of the inclusion stays coordinate-wise between them. Its
//! right-hand side pins coordinate `i` to the corresponding bound and
//! optimises the drift coordinate over the remaining rectangle
//! `[x̲, x̄]` *and* over `Θ`:
//!
//! ```text
//!  ẋ̲_i = min { f_i(x, ϑ) : x ∈ [x̲, x̄], x_i = x̲_i, ϑ ∈ Θ }
//!  ẋ̄_i = max { f_i(x, ϑ) : x ∈ [x̲, x̄], x_i = x̄_i, ϑ ∈ Θ }
//! ```
//!
//! The optimisation over the rectangle is performed by enumerating its
//! corners and edge midpoints; the optimisation over `Θ` scans
//! [`theta_candidates`] like [`extremal_theta`](crate::drift::extremal_theta).
//! Every rectangle point × Θ-candidate drift of one bound evaluation goes
//! through a single [`ImpreciseDrift::drift_batch_into`] call. The paper (Figures 4 and 5) shows
//! that this method is cheap and accurate for small parameter ranges but
//! becomes very loose — eventually trivial — as the range grows, which is
//! exactly the behaviour reproduced by the benchmarks.

use std::cell::{Cell, RefCell};

use mfu_guard::{BudgetTracker, RunBudget, DIVERGENCE_CAP};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::ode::{Integrator, OdeSystem, Rk4};
use mfu_num::StateVec;
use mfu_obs::{Counter, Field, Obs};

use crate::drift::{theta_candidates, ImpreciseDrift};
use crate::{CoreError, Result};

/// Coordinate-wise lower/upper bounds on a time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct HullBounds {
    times: Vec<f64>,
    lower: Vec<StateVec>,
    upper: Vec<StateVec>,
    truncated_at: Option<f64>,
}

impl HullBounds {
    /// The time grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// When the wall-clock budget tripped mid-integration, the time up to
    /// which the bounds are valid; `None` for a completed integration.
    ///
    /// Truncated bounds still over-approximate the inclusion on the grid
    /// they cover — they just stop short of the requested horizon.
    pub fn truncated_at(&self) -> Option<f64> {
        self.truncated_at
    }

    /// Lower bounds aligned with [`HullBounds::times`].
    pub fn lower(&self) -> &[StateVec] {
        &self.lower
    }

    /// Upper bounds aligned with [`HullBounds::times`].
    pub fn upper(&self) -> &[StateVec] {
        &self.upper
    }

    /// Lower bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lower_series(&self, i: usize) -> Vec<f64> {
        self.lower.iter().map(|s| s[i]).collect()
    }

    /// Upper bound of coordinate `i` as a time series.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn upper_series(&self, i: usize) -> Vec<f64> {
        self.upper.iter().map(|s| s[i]).collect()
    }

    /// Bounds at the final time, as `(lower, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are empty (cannot happen for constructed values).
    pub fn final_bounds(&self) -> (&StateVec, &StateVec) {
        (
            self.lower.last().expect("non-empty"),
            self.upper.last().expect("non-empty"),
        )
    }

    /// Returns `true` when `state` lies between the bounds at grid index `k`
    /// (up to `tolerance`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or dimensions disagree.
    pub fn contains_at(&self, k: usize, state: &StateVec, tolerance: f64) -> bool {
        (0..state.dim()).all(|i| {
            state[i] >= self.lower[k][i] - tolerance && state[i] <= self.upper[k][i] + tolerance
        })
    }
}

/// Options for the differential-hull integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HullOptions {
    /// Fixed RK4 step used to integrate the `2d`-dimensional hull ODE.
    pub step: f64,
    /// Number of time intervals of the reported bound grid.
    pub time_intervals: usize,
    /// Optional clamp applied to both bounds after every report interval
    /// (e.g. `[0, 1]` for densities); `None` leaves the bounds unclamped.
    pub clamp: Option<(f64, f64)>,
    /// Run budget; only the wall-clock cap applies to the hull integration,
    /// checked once per report interval. A tripped deadline returns the
    /// bounds accumulated so far with
    /// [`HullBounds::truncated_at`] set instead of discarding them.
    pub budget: RunBudget,
}

impl Default for HullOptions {
    fn default() -> Self {
        HullOptions {
            step: 1e-3,
            time_intervals: 100,
            clamp: None,
            budget: RunBudget::unlimited(),
        }
    }
}

/// The differential-hull analysis of an imprecise drift.
pub struct DifferentialHull<D> {
    drift: D,
    options: HullOptions,
    obs: Obs,
}

impl<D: ImpreciseDrift> DifferentialHull<D> {
    /// Creates the analysis with the given options.
    pub fn new(drift: D, options: HullOptions) -> Self {
        DifferentialHull {
            drift,
            options,
            obs: Obs::none(),
        }
    }

    /// Attaches an observability bundle; [`DifferentialHull::bounds`] then
    /// reports how many rectangle-vertex drift evaluations it performed.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &HullOptions {
        &self.options
    }

    /// Integrates the hull ODE from the degenerate box `[x0, x0]` over
    /// `[0, t_end]` and reports the bounds on a uniform grid.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension mismatches, invalid horizons, or
    /// integration failure.
    pub fn bounds(&self, x0: &StateVec, t_end: f64) -> Result<HullBounds> {
        if x0.dim() != self.drift.dim() {
            return Err(CoreError::invalid_input(
                "initial condition dimension mismatch",
            ));
        }
        if t_end <= 0.0 || !t_end.is_finite() {
            return Err(CoreError::invalid_input(
                "time horizon must be positive and finite",
            ));
        }
        let dim = self.drift.dim();
        let system = HullOde {
            drift: &self.drift,
            dim,
            theta_candidates: theta_candidates(&self.drift),
            vertex_evals: Cell::new(0),
            scratch: RefCell::new(HullScratch::default()),
        };

        // combined state: [lower | upper]
        let mut combined = StateVec::zeros(2 * dim);
        for i in 0..dim {
            combined[i] = x0[i];
            combined[dim + i] = x0[i];
        }

        let intervals = self.options.time_intervals.max(1);
        let dt = t_end / intervals as f64;
        let solver = Rk4::with_step(self.options.step.min(dt));

        let mut times = Vec::with_capacity(intervals + 1);
        let mut lower = Vec::with_capacity(intervals + 1);
        let mut upper = Vec::with_capacity(intervals + 1);
        let split = |c: &StateVec| {
            let lo: StateVec = (0..dim).map(|i| c[i]).collect();
            let hi: StateVec = (0..dim).map(|i| c[dim + i]).collect();
            (lo, hi)
        };
        let (lo0, hi0) = split(&combined);
        times.push(0.0);
        lower.push(lo0);
        upper.push(hi0);

        let mut tracker = BudgetTracker::start(&self.options.budget);
        let mut truncated_at = None;
        for k in 1..=intervals {
            if tracker.expired_now() {
                truncated_at = times.last().copied();
                break;
            }
            combined = solver.final_state(&system, 0.0, combined, dt)?;
            if mfu_guard::state_diverged(combined.as_slice(), DIVERGENCE_CAP) {
                return Err(CoreError::Diverged {
                    analysis: "differential hull",
                    time: dt * k as f64,
                });
            }
            if let Some((clamp_lo, clamp_hi)) = self.options.clamp {
                combined = combined.clamp_scalar(clamp_lo, clamp_hi);
            }
            // Keep the box well-formed: floating-point noise can make a lower
            // bound overtake its upper bound when the box collapses.
            for i in 0..dim {
                if combined[i] > combined[dim + i] {
                    let mid = 0.5 * (combined[i] + combined[dim + i]);
                    combined[i] = mid;
                    combined[dim + i] = mid;
                }
            }
            let (lo, hi) = split(&combined);
            times.push(dt * k as f64);
            lower.push(lo);
            upper.push(hi);
        }
        let vertex_evals = system.vertex_evals.get();
        self.obs
            .metrics
            .add(Counter::CoreHullVertexEvals, vertex_evals);
        if self.obs.tracer.is_enabled() {
            self.obs.tracer.event(
                "hull_bounds",
                &[
                    ("dim", Field::U64(dim as u64)),
                    ("t_end", Field::F64(t_end)),
                    ("intervals", Field::U64(intervals as u64)),
                    ("vertex_evals", Field::U64(vertex_evals)),
                ],
            );
        }
        Ok(HullBounds {
            times,
            lower,
            upper,
            truncated_at,
        })
    }
}

/// The `2d`-dimensional hull ODE.
struct HullOde<'a, D> {
    drift: &'a D,
    dim: usize,
    /// The Θ scan list, precomputed once (it does not depend on the state).
    theta_candidates: Vec<Vec<f64>>,
    // `OdeSystem::rhs` takes `&self`, so the eval tally lives in a `Cell`;
    // the hull ODE is integrated on one thread, making this sound and free.
    vertex_evals: Cell<u64>,
    scratch: RefCell<HullScratch>,
}

/// Reusable batch buffers for [`HullOde::extreme_over_box`].
#[derive(Default)]
struct HullScratch {
    /// Rectangle points in visit order, point-major (`point · dim + i`).
    points: Vec<f64>,
    x: SoaBatch,
    thetas: SoaBatch,
    drifts: SoaBatch,
}

impl<D: ImpreciseDrift> HullOde<'_, D> {
    /// Visits the corner and edge-midpoint points of the rectangle
    /// `[lower, upper]` with coordinate `pin` fixed to `pin_value`, in a
    /// fixed deterministic order. The midpoints help for drifts that are
    /// not monotone in the state.
    fn for_each_rect_point<F: FnMut(&StateVec)>(
        &self,
        lower: &StateVec,
        upper: &StateVec,
        pin: usize,
        pin_value: f64,
        mut visit: F,
    ) {
        let free: Vec<usize> = (0..self.dim).filter(|&i| i != pin).collect();
        // per free coordinate: candidate values
        let candidates: Vec<Vec<f64>> = free
            .iter()
            .map(|&i| {
                let mut v = vec![lower[i], upper[i]];
                if upper[i] > lower[i] {
                    v.push(0.5 * (lower[i] + upper[i]));
                }
                v.dedup();
                v
            })
            .collect();

        let mut point = lower.clone();
        point[pin] = pin_value;

        // iterate over the Cartesian product of candidate values
        let mut indices = vec![0usize; free.len()];
        loop {
            for (slot, &coord) in free.iter().enumerate() {
                point[coord] = candidates[slot][indices[slot]];
            }
            visit(&point);
            // advance the multi-index
            let mut slot = 0;
            loop {
                if slot == free.len() {
                    return;
                }
                indices[slot] += 1;
                if indices[slot] < candidates[slot].len() {
                    break;
                }
                indices[slot] = 0;
                slot += 1;
            }
        }
    }

    /// Enumerates the corner (and optionally midpoint) values of the other
    /// coordinates, with coordinate `pin` fixed to `pin_value`, and returns
    /// the extreme of drift coordinate `pin` over those points and over `Θ`.
    ///
    /// One [`ImpreciseDrift::drift_batch_into`] pass evaluates every
    /// rectangle point × Θ-candidate pair. Per point, the reduction then
    /// runs the [`extremal_theta`](crate::drift::extremal_theta) scan with
    /// direction `+e_pin` for an upper bound or `−e_pin` for a lower one —
    /// same candidate order, same strict comparisons, same left-to-right
    /// dot-product fold — so the result is bit for bit what the scalar scan
    /// gives on each point.
    fn extreme_over_box(
        &self,
        lower: &StateVec,
        upper: &StateVec,
        pin: usize,
        pin_value: f64,
        want_max: bool,
    ) -> f64 {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.points.clear();
        let points = &mut scratch.points;
        self.for_each_rect_point(lower, upper, pin, pin_value, |point| {
            points.extend_from_slice(point.as_slice());
        });
        let n_points = points.len() / self.dim;
        let n_cands = self.theta_candidates.len();
        let width = n_points * n_cands;

        // lane p·C + c holds rectangle point p paired with Θ candidate c, so
        // the reduction walks lanes in exactly the scalar visit order
        scratch.x.reset(self.dim, width);
        scratch.thetas.reset(self.drift.params().dim(), width);
        for p in 0..n_points {
            let point = &scratch.points[p * self.dim..(p + 1) * self.dim];
            for (c, candidate) in self.theta_candidates.iter().enumerate() {
                scratch.x.set_lane(p * n_cands + c, point);
                scratch.thetas.set_lane(p * n_cands + c, candidate);
            }
        }
        self.drift.drift_batch_into(
            &scratch.x,
            &BatchTheta::PerLane(&scratch.thetas),
            &mut scratch.drifts,
        );

        // the extremal scan's direction is `sign · e_pin`: `+e_pin` finds the
        // maximum, `−e_pin` minus the minimum. The dot product with it is
        // `extremal_theta`'s left fold from +0.0 over every coordinate, zero
        // terms included, so even the sign of a zero result matches.
        let sign = if want_max { 1.0 } else { -1.0 };
        let dot_pin = |lane: usize| -> f64 {
            let mut acc = 0.0;
            for i in 0..self.dim {
                let dir = if i == pin { sign } else { 0.0 };
                acc += scratch.drifts.get(i, lane) * dir;
            }
            acc
        };

        let mut best = if want_max {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        for p in 0..n_points {
            self.vertex_evals.set(self.vertex_evals.get() + 1);
            let mut extreme = f64::NEG_INFINITY;
            for c in 0..n_cands {
                let value = dot_pin(p * n_cands + c);
                if value > extreme {
                    extreme = value;
                }
            }
            let value = if want_max { extreme } else { -extreme };
            if (want_max && value > best) || (!want_max && value < best) {
                best = value;
            }
        }
        best
    }
}

impl<D: ImpreciseDrift> OdeSystem for HullOde<'_, D> {
    fn dim(&self) -> usize {
        2 * self.dim
    }

    fn rhs(&self, _t: f64, combined: &StateVec, out: &mut StateVec) {
        let lower: StateVec = (0..self.dim).map(|i| combined[i]).collect();
        let upper_raw: StateVec = (0..self.dim).map(|i| combined[self.dim + i]).collect();
        // ensure a well-formed box even at intermediate RK stages
        let upper = lower.component_max(&upper_raw);
        for i in 0..self.dim {
            out[i] = self.extreme_over_box(&lower, &upper, i, lower[i], false);
            out[self.dim + i] = self.extreme_over_box(&lower, &upper, i, upper[i], true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::inclusion::DifferentialInclusion;
    use crate::signal::PiecewiseSignal;
    use mfu_ctmc::params::ParamSpace;

    fn decay_drift(lo: f64, hi: f64) -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("rate", lo, hi).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0]
        })
    }

    #[test]
    fn hull_of_scalar_decay_matches_extreme_exponentials() {
        // For ẋ = -ϑx with x ≥ 0, the hull ODE is exact:
        // lower bound decays at rate ϑmax, upper bound at rate ϑmin.
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let k = bounds.times().len() - 1;
        assert!((bounds.lower()[k][0] - (-2.0f64).exp()).abs() < 1e-4);
        assert!((bounds.upper()[k][0] - (-1.0f64).exp()).abs() < 1e-4);
        let (lo, hi) = bounds.final_bounds();
        assert!(lo[0] <= hi[0]);
    }

    #[test]
    fn hull_contains_arbitrary_switching_solutions() {
        let drift = decay_drift(1.0, 3.0);
        let hull = DifferentialHull::new(&drift, HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 2.0).unwrap();

        let inclusion = DifferentialInclusion::new(&drift);
        let signal = PiecewiseSignal::new(vec![0.5, 1.2], vec![vec![3.0], vec![1.0], vec![2.0]]);
        let traj = inclusion
            .solve_fixed_step(&signal, StateVec::from([1.0]), 2.0, 1e-3)
            .unwrap();
        for (k, &t) in bounds.times().iter().enumerate() {
            let state = traj.at(t).unwrap();
            assert!(bounds.contains_at(k, &state, 1e-6), "violated at t = {t}");
        }
    }

    #[test]
    fn hull_widens_with_parameter_range() {
        let narrow = DifferentialHull::new(decay_drift(1.0, 1.5), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        let wide = DifferentialHull::new(decay_drift(0.5, 3.0), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        let last = narrow.times().len() - 1;
        let narrow_width = narrow.upper()[last][0] - narrow.lower()[last][0];
        let wide_width = wide.upper()[last][0] - wide.lower()[last][0];
        assert!(wide_width > narrow_width);
    }

    #[test]
    fn coupled_system_hull_is_conservative() {
        // ẋ0 = ϑ(x1 - x0), ẋ1 = x0 - x1 : bounded coupling, hull must contain
        // both constant-parameter solutions.
        let theta = ParamSpace::single("coupling", 0.5, 2.0).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]);
            dx[1] = x[0] - x[1];
        });
        let hull = DifferentialHull::new(&drift, HullOptions::default());
        let x0 = StateVec::from([1.0, 0.0]);
        let bounds = hull.bounds(&x0, 2.0).unwrap();
        let inclusion = DifferentialInclusion::new(&drift);
        for rate in [0.5, 1.0, 2.0] {
            let traj = inclusion.solve_constant(&[rate], x0.clone(), 2.0).unwrap();
            for (k, &t) in bounds.times().iter().enumerate() {
                let state = traj.at(t).unwrap();
                // tolerance covers the linear-interpolation error of the
                // reference trajectory between its adaptive nodes
                assert!(
                    bounds.contains_at(k, &state, 1e-3),
                    "rate {rate}, t {t}: state {state} vs [{}, {}]",
                    bounds.lower()[k],
                    bounds.upper()[k]
                );
            }
        }
    }

    #[test]
    fn clamping_keeps_bounds_in_the_simplex() {
        let drift = decay_drift(1.0, 10.0);
        let options = HullOptions {
            clamp: Some((0.0, 1.0)),
            ..HullOptions::default()
        };
        let bounds = DifferentialHull::new(&drift, options)
            .bounds(&StateVec::from([1.0]), 5.0)
            .unwrap();
        for (lo, hi) in bounds.lower().iter().zip(bounds.upper().iter()) {
            assert!(lo[0] >= 0.0 && hi[0] <= 1.0);
        }
    }

    #[test]
    fn input_validation() {
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        assert!(hull.bounds(&StateVec::from([1.0, 2.0]), 1.0).is_err());
        assert!(hull.bounds(&StateVec::from([1.0]), 0.0).is_err());
        assert_eq!(hull.options().time_intervals, 100);
    }

    #[test]
    fn vertex_evaluations_are_counted_and_deterministic() {
        let obs = Obs::with_metrics();
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default())
            .with_obs(obs.clone());
        hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let first = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert!(first > 0);
        // the enumeration is deterministic: a second identical integration
        // performs exactly the same number of vertex evaluations
        hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let second = obs
            .metrics
            .snapshot()
            .unwrap()
            .counter(Counter::CoreHullVertexEvals);
        assert_eq!(second, 2 * first);
    }

    #[test]
    fn box_extremes_match_the_scalar_extremal_scan() {
        // the coupled 2-d drift exercises midpoint refinement and a
        // non-trivial rectangle enumeration; a refined Θ adds grid candidates
        let theta = ParamSpace::single("coupling", 0.5, 2.0).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]);
            dx[1] = x[0] * x[1] - th[0] * th[0] * x[1];
        })
        .with_theta_refinement(2);
        let ode = HullOde {
            drift: &drift,
            dim: 2,
            theta_candidates: theta_candidates(&drift),
            vertex_evals: Cell::new(0),
            scratch: RefCell::new(HullScratch::default()),
        };
        // the definition: per rectangle point, the scalar extremal scan with
        // ±e_pin; then the extreme over the points
        let reference = |lower: &StateVec, upper: &StateVec, pin, pin_value, want_max: bool| {
            let mut best = if want_max {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
            ode.for_each_rect_point(lower, upper, pin, pin_value, |point| {
                let mut direction = StateVec::zeros(2);
                direction[pin] = if want_max { 1.0 } else { -1.0 };
                let (_, extreme) = crate::drift::extremal_theta(&drift, point, &direction);
                let value = if want_max { extreme } else { -extreme };
                if (want_max && value > best) || (!want_max && value < best) {
                    best = value;
                }
            });
            best
        };
        let boxes = [
            ([1.0, 0.0], [1.0, 0.0]),
            ([0.2, -0.5], [0.9, 0.4]),
            ([-1.0, 0.25], [0.0, 0.25]),
        ];
        for (lo, hi) in boxes {
            let (lower, upper) = (StateVec::from(lo), StateVec::from(hi));
            for pin in 0..2 {
                for (pin_value, want_max) in [(lower[pin], false), (upper[pin], true)] {
                    let batched = ode.extreme_over_box(&lower, &upper, pin, pin_value, want_max);
                    let scalar = reference(&lower, &upper, pin, pin_value, want_max);
                    assert_eq!(
                        batched.to_bits(),
                        scalar.to_bits(),
                        "box {lo:?}..{hi:?}, pin {pin}, max {want_max}"
                    );
                }
            }
        }
    }

    #[test]
    fn expired_deadline_returns_partial_bounds_instead_of_discarding_them() {
        let options = HullOptions {
            budget: RunBudget::unlimited().wall_clock(std::time::Duration::ZERO),
            ..HullOptions::default()
        };
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), options);
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        // the deadline was already expired, so only the initial node survives
        assert_eq!(bounds.truncated_at(), Some(0.0));
        assert_eq!(bounds.times(), &[0.0]);
        assert_eq!(bounds.lower().len(), 1);

        let unbudgeted = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default())
            .bounds(&StateVec::from([1.0]), 1.0)
            .unwrap();
        assert_eq!(unbudgeted.truncated_at(), None);
    }

    #[test]
    fn divergent_integration_is_diagnosed_with_a_time() {
        // ẋ = ϑx with ϑ ∈ [200, 300] blows past the divergence cap well
        // before the horizon while every intermediate value is still finite.
        let theta = ParamSpace::single("rate", 200.0, 300.0).unwrap();
        let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0]
        });
        let options = HullOptions {
            step: 0.02,
            ..HullOptions::default()
        };
        let err = DifferentialHull::new(drift, options)
            .bounds(&StateVec::from([1.0]), 2.0)
            .unwrap_err();
        match err {
            CoreError::Diverged { analysis, time } => {
                assert_eq!(analysis, "differential hull");
                assert!(time > 0.0 && time <= 2.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn series_accessors_are_consistent() {
        let hull = DifferentialHull::new(decay_drift(1.0, 2.0), HullOptions::default());
        let bounds = hull.bounds(&StateVec::from([1.0]), 1.0).unwrap();
        let lo = bounds.lower_series(0);
        let hi = bounds.upper_series(0);
        assert_eq!(lo.len(), bounds.times().len());
        for k in 0..lo.len() {
            assert_eq!(lo[k], bounds.lower()[k][0]);
            assert_eq!(hi[k], bounds.upper()[k][0]);
            assert!(lo[k] <= hi[k] + 1e-12);
        }
    }
}
