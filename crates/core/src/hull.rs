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
//! The `2d` faces are slices of one grid — per coordinate the lower bound,
//! the upper bound and their midpoint — so each right-hand side evaluates
//! every grid point on a face, times every Θ candidate, in a single
//! [`ImpreciseDrift::drift_batch_into`] call: `3^d − 1` points (the
//! all-midpoint centre lies on no face), where a face-by-face enumeration
//! would take `2d · 3^(d−1)`. Each face then reduces over its own lanes,
//! reading only the drift row of the coordinate it pins. Which points lie
//! on a face, and in which order each face visits them, depends only on
//! whether each coordinate is collapsed and whether its midpoint rounds
//! onto an endpoint; the right-hand side keeps that structure, and the Θ
//! lanes with it, until one of those changes, and otherwise only writes
//! the box's new values into the batch.
//! The grid grows as `3^d`, so [`DifferentialHull::bounds`] refuses a
//! drift whose batch could exceed [`MAX_HULL_LANES`]. The paper (Figures
//! 4 and 5) shows that this method is cheap and accurate for small
//! parameter ranges but becomes very loose — eventually trivial — as the
//! range grows, which is exactly the behaviour reproduced by the
//! benchmarks.

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

/// Largest drift batch one hull right-hand side may need, in lanes (grid
/// points × Θ candidates). [`DifferentialHull::bounds`] checks the
/// worst-case grid `3^d · |Θ candidates|` against it before integrating;
/// the 8-dimensional `bike_city_4` drift needs `3^8 · 4 = 26,244`.
pub const MAX_HULL_LANES: usize = 65_536;

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
    /// reports how many rectangle-grid points it evaluated the drift at
    /// (each point once per right-hand side, times every Θ candidate).
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
    /// Returns an error on dimension mismatches, invalid horizons or steps,
    /// or integration failure, and [`CoreError::HullTooLarge`] before any
    /// work when the drift's rectangle grid could need more than
    /// [`MAX_HULL_LANES`] drift lanes per right-hand side.
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
        CoreError::check_step(self.options.step)?;
        let dim = self.drift.dim();
        let theta_candidates = theta_candidates(&self.drift);
        let lanes = u32::try_from(dim)
            .ok()
            .and_then(|d| 3usize.checked_pow(d))
            .and_then(|grid| grid.checked_mul(theta_candidates.len()));
        if lanes.is_none_or(|lanes| lanes > MAX_HULL_LANES) {
            return Err(CoreError::HullTooLarge { dim, lanes });
        }
        let system = HullOde {
            drift: &self.drift,
            dim,
            theta_candidates,
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

/// Reusable buffers of [`HullOde`]'s right-hand side, so that a call
/// allocates nothing unless the grid's structure changes.
#[derive(Default)]
struct HullScratch {
    /// Per coordinate: the values its grid axis takes.
    axes: Vec<Axis>,
    /// The structure of the last box's grid.
    grid: Grid,
    /// The evaluated states: lane `p·C + c` holds point `p` of the grid.
    x: SoaBatch,
    /// Lane `p·C + c` holds Θ candidate `c`; set up with `grid`.
    thetas: SoaBatch,
    drifts: SoaBatch,
    /// Per lane: how many drift coordinates are ±∞ or NaN (at most the
    /// dimension, which [`MAX_HULL_LANES`] keeps below 11).
    non_finite: Vec<u8>,
}

/// One coordinate's grid axis, built from the box bounds `lo ≤ hi`.
#[derive(Clone, Copy)]
struct Axis {
    /// `[lo, hi, mid]`.
    values: [f64; 3],
    /// How many leading `values` a coordinate takes while another one is
    /// pinned: `[lo, hi]`, plus `mid` when `hi > lo`, deduplicated like
    /// `Vec::dedup`. A collapsed coordinate keeps `lo` alone, `mid == hi`
    /// drops the midpoint and `mid == lo` keeps it.
    free: usize,
    /// Grid length: `free`, or 2 when `lo == hi` differ in bits (−0.0 and
    /// +0.0) and `values[1]` is kept only for the upper face to pin.
    len: usize,
    /// Index of the upper face's pin value, which holds `hi`'s bits.
    upper_pin: usize,
}

impl Axis {
    fn new(lo: f64, hi: f64) -> Axis {
        let values = [lo, hi, 0.5 * (lo + hi)];
        let free = if hi == lo {
            1
        } else if hi > lo && values[2] != hi {
            3
        } else {
            2
        };
        let (len, upper_pin) = if free == 1 && hi.to_bits() == lo.to_bits() {
            (1, 0)
        } else {
            (free.max(2), 1)
        };
        Axis {
            values,
            free,
            len,
            upper_pin,
        }
    }

    /// What the grid's structure depends on: all of the axis but its
    /// values.
    fn shape(&self) -> [usize; 3] {
        [self.free, self.len, self.upper_pin]
    }
}

/// Which points of a box's grid lie on a face, and the order each face
/// visits them in. It depends only on each axis' [`Axis::shape`], which
/// changes only when a coordinate collapses or a midpoint rounds onto an
/// endpoint (or stops doing so), so a right-hand side rebuilds it then and
/// otherwise only writes the new coordinate values.
#[derive(Default)]
struct Grid {
    /// The axis shapes the structure was built for.
    shapes: Vec<[usize; 3]>,
    /// Number of points on a face.
    points: usize,
    /// Per coordinate `i`, per point: the index of the value coordinate
    /// `i` takes there in its axis' `values`.
    value_index: Vec<Vec<u8>>,
    /// Entry `2i` lists the points of coordinate `i`'s lower face and
    /// entry `2i + 1` those of its upper face, lowest free coordinate
    /// varying fastest: the order of a face-by-face enumeration.
    faces: Vec<Vec<usize>>,
}

impl Grid {
    /// Whether the structure was built for axes of these shapes.
    fn fits(&self, axes: &[Axis]) -> bool {
        self.shapes.iter().copied().eq(axes.iter().map(Axis::shape))
    }

    /// Walks the grid, coordinate 0 varying fastest, and keeps the points
    /// that lie on a face: those taking at most one pin-only value and, if
    /// none, with at least one coordinate at its lower or upper pin. That
    /// leaves out only the all-midpoint centre. A face pinning coordinate
    /// `i` visits, in walk order, the points with `i` at its pin and every
    /// other coordinate at one of its free values.
    fn build(axes: &[Axis]) -> Grid {
        let dim = axes.len();
        let mut faces = vec![Vec::new(); 2 * dim];
        let (mut points, mut value_index) = (0, vec![Vec::new(); dim]);
        let mut digits = vec![0; dim];
        for _ in 0..axes.iter().map(|axis| axis.len).product::<usize>() {
            let steps = axes.iter().zip(&digits);
            let pin_only = steps.clone().filter(|(axis, &k)| k >= axis.free).count();
            let on_pin = steps
                .clone()
                .any(|(axis, &k)| k < axis.free && (k == 0 || k == axis.upper_pin));
            if pin_only == 1 || (pin_only == 0 && on_pin) {
                for (i, (axis, &k)) in steps.enumerate() {
                    if pin_only == usize::from(k >= axis.free) {
                        if k == 0 {
                            faces[2 * i].push(points);
                        }
                        if k == axis.upper_pin {
                            faces[2 * i + 1].push(points);
                        }
                    }
                }
                points += 1;
                for (indices, &k) in value_index.iter_mut().zip(&digits) {
                    indices.push(k as u8);
                }
            }
            for (axis, k) in axes.iter().zip(digits.iter_mut()) {
                *k += 1;
                if *k < axis.len {
                    break;
                }
                *k = 0;
            }
        }
        Grid {
            shapes: axes.iter().map(Axis::shape).collect(),
            points,
            value_index,
            faces,
        }
    }
}

impl<D: ImpreciseDrift> HullOde<'_, D> {
    /// The hull right-hand side on the box whose coordinate `i` spans
    /// `bounds[i] = (lo, hi)`, `hi ≥ lo` unless one is NaN: `out[i]` is the
    /// lower face's minimum of `f_i` and `out[dim + i]` the upper face's
    /// maximum.
    fn box_rhs(&self, bounds: impl Iterator<Item = (f64, f64)>, out: &mut [f64]) {
        let scratch = &mut *self.scratch.borrow_mut();
        self.evaluate_grid(bounds, scratch);
        for i in 0..self.dim {
            out[i] = self.face_extreme(scratch, i, false);
            out[self.dim + i] = self.face_extreme(scratch, i, true);
        }
    }

    /// Evaluates the drift at every grid point of the box that lies on a
    /// face × every Θ candidate in one
    /// [`ImpreciseDrift::drift_batch_into`] call, and counts each lane's
    /// non-finite drift coordinates.
    fn evaluate_grid(&self, bounds: impl Iterator<Item = (f64, f64)>, scratch: &mut HullScratch) {
        let n_cands = self.theta_candidates.len();
        scratch.axes.clear();
        scratch
            .axes
            .extend(bounds.map(|(lo, hi)| Axis::new(lo, hi)));
        if !scratch.grid.fits(&scratch.axes) {
            scratch.grid = Grid::build(&scratch.axes);
            let width = scratch.grid.points * n_cands;
            scratch.x.reset(self.dim, width);
            scratch.thetas.reset(self.drift.params().dim(), width);
            for p in 0..scratch.grid.points {
                for (c, candidate) in self.theta_candidates.iter().enumerate() {
                    scratch.thetas.set_lane(p * n_cands + c, candidate);
                }
            }
        }
        for (i, axis) in scratch.axes.iter().enumerate() {
            let lanes = scratch.x.row_mut(i).chunks_exact_mut(n_cands);
            for (point_lanes, &k) in lanes.zip(&scratch.grid.value_index[i]) {
                point_lanes.fill(axis.values[usize::from(k)]);
            }
        }
        self.vertex_evals
            .set(self.vertex_evals.get() + scratch.grid.points as u64);

        self.drift.drift_batch_into(
            &scratch.x,
            &BatchTheta::PerLane(&scratch.thetas),
            &mut scratch.drifts,
        );
        scratch.non_finite.clear();
        scratch.non_finite.resize(scratch.drifts.width(), 0);
        for i in 0..self.dim {
            let row = scratch.drifts.row(i);
            for (count, f) in scratch.non_finite.iter_mut().zip(row) {
                *count += u8::from(!f.is_finite());
            }
        }
    }

    /// The extreme of drift coordinate `pin` over its lower face
    /// (`want_max == false`) or upper face of the grid
    /// [`HullOde::evaluate_grid`] evaluated.
    ///
    /// Per point, the reduction runs the
    /// [`extremal_theta`](crate::drift::extremal_theta) scan with direction
    /// `+e_pin` for an upper bound or `−e_pin` for a lower one — same
    /// candidate order, same strict comparisons — so the result is bit for
    /// bit what the scalar scan gives on each point. That scan scores a
    /// candidate by a left fold from +0.0 over every drift coordinate, zero
    /// terms included. When every other coordinate is finite their terms
    /// are ±0.0 and the fold is `0.0 + f_pin · sign`; when one is ±∞ or
    /// NaN its term is NaN, and so is the fold, which no strict comparison
    /// takes. The reduction therefore reads the pinned row alone and skips
    /// the lanes with a non-finite coordinate other than `pin`.
    fn face_extreme(&self, scratch: &HullScratch, pin: usize, want_max: bool) -> f64 {
        let n_cands = self.theta_candidates.len();
        let row = scratch.drifts.row(pin);
        let sign = if want_max { 1.0 } else { -1.0 };
        let mut best = if want_max {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        for &p in &scratch.grid.faces[2 * pin + usize::from(want_max)] {
            let lanes = p * n_cands..(p + 1) * n_cands;
            let mut extreme = f64::NEG_INFINITY;
            for (&f, &count) in row[lanes.clone()].iter().zip(&scratch.non_finite[lanes]) {
                let value = 0.0 + f * sign;
                if count == u8::from(!f.is_finite()) && value > extreme {
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
        let (lower, upper) = combined.as_slice().split_at(self.dim);
        // a well-formed box even at intermediate RK stages
        let bounds = lower.iter().zip(upper).map(|(&lo, &hi)| (lo, lo.max(hi)));
        self.box_rhs(bounds, out.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::inclusion::DifferentialInclusion;
    use crate::signal::PiecewiseSignal;
    use mfu_ctmc::params::{Interval, ParamSpace};

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
        // 1,000 RK4 steps × 4 stages, two grid points each (lower and
        // upper bound; the midpoint lies on no face), except the first
        // stage, whose box is the single point x0
        assert_eq!(first, 7_999);
    }

    /// Visits the corner and edge-midpoint points of the rectangle
    /// `[lower, upper]` with coordinate `pin` fixed to `pin_value`, the
    /// lowest free coordinate varying fastest: the face-by-face definition
    /// the shared grid of [`HullOde::rhs`] must reproduce.
    fn for_each_rect_point<F: FnMut(&StateVec)>(
        lower: &StateVec,
        upper: &StateVec,
        pin: usize,
        pin_value: f64,
        mut visit: F,
    ) {
        let free: Vec<usize> = (0..lower.dim()).filter(|&i| i != pin).collect();
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

    /// Runs one right-hand side per box `[lower | upper]` and checks every
    /// face bit for bit against the scalar extremal scan over the
    /// face-by-face enumeration.
    fn assert_faces_match_the_scalar_scan<D: ImpreciseDrift>(drift: &D, boxes: &[Vec<f64>]) {
        let dim = drift.dim();
        let ode = HullOde {
            drift,
            dim,
            theta_candidates: theta_candidates(drift),
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
            for_each_rect_point(lower, upper, pin, pin_value, |point| {
                let mut direction = StateVec::zeros(dim);
                direction[pin] = if want_max { 1.0 } else { -1.0 };
                let (_, extreme) = crate::drift::extremal_theta(drift, point, &direction);
                let value = if want_max { extreme } else { -extreme };
                if (want_max && value > best) || (!want_max && value < best) {
                    best = value;
                }
            });
            best
        };
        for bounds in boxes {
            let (lower, upper) = bounds.split_at(dim);
            let mut out = vec![0.0; 2 * dim];
            ode.box_rhs(lower.iter().copied().zip(upper.iter().copied()), &mut out);
            let (lower, upper) = (
                StateVec::from(lower.to_vec()),
                StateVec::from(upper.to_vec()),
            );
            for pin in 0..dim {
                for (slot, pin_value, want_max) in
                    [(pin, lower[pin], false), (dim + pin, upper[pin], true)]
                {
                    let scalar = reference(&lower, &upper, pin, pin_value, want_max);
                    assert_eq!(
                        out[slot].to_bits(),
                        scalar.to_bits(),
                        "box {lower}..{upper}, pin {pin}, max {want_max}: {} vs {scalar}",
                        out[slot]
                    );
                }
            }
        }
    }

    #[test]
    fn box_extremes_match_the_scalar_extremal_scan() {
        let above_one = 1.0f64.next_up();
        let below_one = 1.0f64.next_down();

        // the coupled 2-d drift exercises midpoint refinement and a
        // non-trivial rectangle enumeration; two parameters give four Θ
        // candidates per scan
        let theta = ParamSpace::new(vec![
            ("coupling", Interval::new(0.5, 2.0).unwrap()),
            ("decay", Interval::new(0.75, 1.25).unwrap()),
        ])
        .unwrap();
        let coupled = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * (x[1] - x[0]);
            dx[1] = x[0] * x[1] - th[0] * th[1] * x[1];
        });
        assert_faces_match_the_scalar_scan(
            &coupled,
            &[
                // the degenerate start box, and a proper box
                vec![1.0, 0.0, 1.0, 0.0],
                vec![0.2, -0.5, 0.9, 0.4],
                // a collapsed coordinate
                vec![-1.0, 0.25, 0.0, 0.25],
                // the midpoint rounds onto lo (`[lo, hi, lo]`) and onto hi
                vec![1.0, below_one, above_one, 1.0],
                // NaN bounds keep two candidates
                vec![f64::NAN, 0.1, 0.2, f64::NAN],
            ],
        );
        // one right-hand side after another on one cached grid structure:
        // new values on the same axis shapes, then coordinate 1 collapses
        // (identical bits, then +0.0 below −0.0, which keeps a pin-only
        // value), its midpoint rounds onto its upper bound — the same grid
        // length as the signed-zero collapse, but another free set — and the
        // box turns proper again
        assert_faces_match_the_scalar_scan(
            &coupled,
            &[
                vec![0.2, -0.5, 0.9, 0.4],
                vec![0.1, -0.4, 0.8, 0.6],
                vec![0.1, 0.25, 0.8, 0.25],
                vec![0.1, 0.0, 0.8, -0.0],
                vec![0.1, below_one, 0.8, 1.0],
                vec![0.3, -0.2, 0.7, 0.5],
            ],
        );

        // a drift whose other coordinates are ±∞ or NaN on part of the
        // grid: `f_1` at `x_1 = ±0`, `f_2` at `x_2 = ±0`. The scalar scan's
        // fold is NaN there and skips the point, and those are the points
        // where `f_0` peaks
        let params = ParamSpace::new(vec![
            ("a", Interval::new(1.0, 2.0).unwrap()),
            ("b", Interval::new(0.5, 1.5).unwrap()),
        ])
        .unwrap();
        let singular = FnDrift::new(3, params, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] - x[1] * x[1] - x[2] * x[2];
            dx[1] = 1.0 / x[1];
            dx[2] = th[1] * x[2] / x[2];
        });
        assert_faces_match_the_scalar_scan(
            &singular,
            &[
                // 0 is the midpoint of the `x_1` and `x_2` axes
                vec![0.0, -1.0, -2.0, 1.0, 1.0, 2.0],
                // 0 is the lower bound of the `x_1` axis
                vec![0.0, 0.0, 0.5, 1.0, 2.0, 1.5],
                // `x_1` collapsed onto −0.0 and +0.0: −∞ and +∞
                vec![0.5, -0.0, -1.0, 1.0, 0.0, 1.0],
            ],
        );

        // a 1-dim drift: two points per face-pair, the midpoint unused
        let decay = decay_drift(1.0, 2.0);
        assert_faces_match_the_scalar_scan(
            &decay,
            &[vec![1.0, 1.0], vec![0.25, 0.75], vec![1.0, above_one]],
        );

        // a 4-dim drift with three parameters (eight Θ candidates); `signum` tells
        // −0.0 from +0.0, so the zero-signed boxes check which bits each
        // face pins (`f_1` and `f_3` read their own coordinate's sign) and
        // which a free coordinate takes (`f_0` and `f_2` read `x_3`'s)
        let params = ParamSpace::new(vec![
            ("a", Interval::new(0.5, 1.5).unwrap()),
            ("b", Interval::new(-1.0, 1.0).unwrap()),
            ("c", Interval::new(0.05, 0.15).unwrap()),
        ])
        .unwrap();
        let mixed = FnDrift::new(4, params, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[1] * x[2] - x[0] * x[3].signum();
            dx[1] = th[1] * th[1] * x[0] - th[2] * x[1].signum();
            dx[2] = x[3].signum() * th[0] - x[2] / (1.0 + x[0] * x[0]);
            dx[3] = th[1] * x[0] * x[1] * x[2] - th[0] * x[3].signum();
        });
        assert_faces_match_the_scalar_scan(
            &mixed,
            &[
                vec![0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.4],
                vec![0.0, 0.1, -0.3, -0.2, 0.5, 0.4, 0.3, 0.2],
                // collapsed coordinates whose bounds differ only in sign
                vec![0.1, 0.0, 0.2, -0.0, 0.6, -0.0, 0.9, 0.0],
                vec![0.1, -0.0, 0.2, 0.0, 0.6, -0.0, 0.2, 0.0],
                // a midpoint on an endpoint beside a collapsed coordinate
                vec![1.0, 0.5, 0.0, -1.0, above_one, 0.5, 0.25, -0.5],
            ],
        );
    }

    #[test]
    fn oversized_grids_are_refused_before_any_work() {
        let wide = |dim: usize| {
            let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
            FnDrift::new(dim, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
                for i in 0..x.dim() {
                    dx[i] = -th[0] * x[i];
                }
            })
        };
        // 3^41 overflows a 64-bit `usize`
        let err = DifferentialHull::new(wide(41), HullOptions::default())
            .bounds(&StateVec::zeros(41), 1.0)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::HullTooLarge {
                dim: 41,
                lanes: None
            }
        );
        // 3^10 · 2 Θ vertices = 118,098 lanes, over the cap
        let err = DifferentialHull::new(wide(10), HullOptions::default())
            .bounds(&StateVec::zeros(10), 1.0)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::HullTooLarge {
                dim: 10,
                lanes: Some(118_098)
            }
        );
        // 3^9 · 2 = 39,366 lanes fit
        let options = HullOptions {
            time_intervals: 1,
            step: 0.5,
            ..HullOptions::default()
        };
        assert!(DifferentialHull::new(wide(9), options)
            .bounds(&StateVec::zeros(9), 0.5)
            .is_ok());
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
