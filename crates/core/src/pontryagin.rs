//! Transient bounds via Pontryagin's maximum principle (Section IV-C).
//!
//! The extremal value `x_i^max(T) = sup { x_i(T) : x ∈ S_{F,x_0} }` of a
//! differential inclusion is an optimal-control problem: choose the
//! measurable signal `ϑ(t) ∈ Θ` that maximises the terminal value. Pontryagin's
//! principle gives necessary conditions — a costate `p` satisfying
//! `-ṗ = (∂f/∂x)ᵀ p` with a terminal condition aligned with the objective,
//! and `ϑ(t) ∈ argmax_ϑ  p(t)·f(x(t), ϑ)` — which this module solves with a
//! monotone forward–backward sweep:
//!
//! 1. integrate the state forward under the start's constant control (the
//!    start's one first pass);
//! 2. integrate the costate backward along the current state;
//! 3. rank the intervals where switching the control to the Hamiltonian
//!    maximiser `θ*` gains (exact vertex selection for drifts affine in
//!    `ϑ`, which yields the bang-bang controls of Figure 2), largest gain
//!    first;
//! 4. switch them all, and halve that switch set (keeping the best-ranked)
//!    until the forward objective strictly improves; adopt that control and
//!    its state and go back to 2.
//!
//! The sweep has converged when no interval gains (the maximum principle
//! holds on the grid) or when switching even the single best interval does
//! not pay. No sweep can lower the objective, and a switched interval holds
//! a `Θ` candidate, so the controls stay bang-bang: this is Krylov and
//! Chernous'ko's method of successive approximations with the monotone step
//! of McAsey, Mou and Han (*Convergence of the forward–backward sweep method
//! in optimal control*, 2012).
//!
//! Steps 2 and 3 depend only on the adopted state, control and costate, so
//! they run in wide drift batches. The backward pass evaluates the
//! central-difference Jacobian stencils of 16 intervals at a time in one
//! [`ImpreciseDrift::drift_batch_into`] call ([`JacobianStencils`]), then
//! runs the costate recursion over those intervals. The switch scan scores
//! every interval at once: one batch per `Θ` vertex and one for the current
//! controls, each lane folding its Hamiltonian like
//! [`extremal_theta`](crate::drift::extremal_theta). Both are bit for bit
//! the per-interval scalar computations. The forward passes stay sequential
//! and scalar, and integrate only states not computed yet:
//!
//! * the state at node `k` depends only on the controls before `k`, so a
//!   trial pass of step 4 copies the adopted states up to its first
//!   switched interval and integrates from there;
//! * a start's first pass depends only on its constant control, so the
//!   objectives of one [`PontryaginSolver::solve_all`] call share them: the
//!   midpoint's and each vertex's is integrated at most once per call.
//!
//! Arbitrary linear functionals `α·x(T)` are supported, which is what the
//! paper calls *template* refinement of the reachable set.
//!
//! The sweep's numerical settings are fixed constants, not options: at most
//! 200 sweeps per start and a `1e-6` finite-difference Jacobian step. A
//! single-start solve always runs the Θ-vertex escalation ladder, whose
//! vertex probes are the vertex starts' first passes (see
//! [`PontryaginSolver::solve_all`]). State and costate share one time grid
//! and step with the workspace's one scalar RK4 step, [`Rk4::step_into`]; a
//! wall-clock budget, one per objective, is checked before every interval
//! of every pass but the midpoint start's first, and before each stencil
//! chunk of a backward pass (see [`PontryaginOptions::budget`]).

use std::ops::Range;
use std::time::Instant;

use mfu_guard::{RunBudget, DIVERGENCE_CAP};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::grid::{GridSignal, TimeGrid};
use mfu_num::jacobian::Jacobian;
use mfu_num::ode::{Rk4, Rk4Scratch, Trajectory};
use mfu_num::StateVec;
use mfu_obs::{Counter, Field, Gauge, Metrics, Obs, Timer};

use crate::drift::{theta_candidates, ImpreciseDrift};
use crate::signal::GridParamSignal;
use crate::{CoreError, Result};

/// Acceptance cap on `‖J‖∞ · h` for the frozen-midpoint costate Jacobian.
///
/// The backward sweep freezes the Jacobian per interval, so one costate RK4
/// step amplifies `p` by up to `e^{‖J‖∞·h}`. Past the RK4 stability scale
/// (|λh| ≈ 2.8 on the real axis) the frozen-matrix step resolves nothing —
/// either the interval is genuinely too stiff for the grid, or (the common
/// case for guarded rates) the finite-difference stencil straddled a drift
/// discontinuity and the quotient is a jump artefact of order
/// `Δf / (2·JACOBIAN_STEP)`, not a derivative. Such matrices are zeroed like
/// a failed evaluation (no costate motion on that interval) instead of being
/// integrated into an overflow. Smooth population drifts sit orders of
/// magnitude below this cap, so the gate is exercised only by discontinuous
/// models. Every zeroed interval is counted in
/// [`Counter::CoreCostateGateTrips`].
const MAX_COSTATE_STEP_GROWTH: f64 = 2.5;

/// Maximum number of sweep iterations per start.
const MAX_ITERATIONS: usize = 200;

/// Margin by which a constant-control vertex probe must beat the sweep's
/// extremal before a single-start solve escalates to the vertex starts.
const ESCALATION_MARGIN: f64 = 1e-6;

/// Finite-difference step of the costate Jacobian.
const JACOBIAN_STEP: f64 = 1e-6;

/// Backward intervals whose Jacobian stencils share one drift batch of
/// `STENCIL_CHUNK · 2·dim` lanes. The deadline is checked before each
/// chunk's batch and before each interval, so a tripped deadline is noticed
/// at most one chunk's batch late.
const STENCIL_CHUNK: usize = 16;

/// A linear terminal objective `weights · x(T)`, maximised or minimised.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearObjective {
    weights: StateVec,
    maximize: bool,
}

impl LinearObjective {
    /// Maximises `weights · x(T)`.
    pub fn maximize(weights: StateVec) -> Self {
        LinearObjective {
            weights,
            maximize: true,
        }
    }

    /// Minimises `weights · x(T)`.
    pub fn minimize(weights: StateVec) -> Self {
        LinearObjective {
            weights,
            maximize: false,
        }
    }

    /// Maximises coordinate `i` of `x(T)` in a `dim`-dimensional system.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn maximize_coordinate(dim: usize, i: usize) -> Self {
        let mut weights = StateVec::zeros(dim);
        weights[i] = 1.0;
        LinearObjective::maximize(weights)
    }

    /// Minimises coordinate `i` of `x(T)` in a `dim`-dimensional system.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn minimize_coordinate(dim: usize, i: usize) -> Self {
        let mut weights = StateVec::zeros(dim);
        weights[i] = 1.0;
        LinearObjective::minimize(weights)
    }

    /// The weight vector.
    pub fn weights(&self) -> &StateVec {
        &self.weights
    }

    /// Whether the objective is maximised.
    pub fn is_maximization(&self) -> bool {
        self.maximize
    }

    /// The weights of the equivalent maximisation problem (negated for
    /// minimisation).
    fn ascent_weights(&self) -> StateVec {
        if self.maximize {
            self.weights.clone()
        } else {
            -&self.weights
        }
    }
}

/// Options of the forward–backward sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PontryaginOptions {
    /// Number of intervals of the shared time grid.
    pub grid_intervals: usize,
    /// When `true`, the sweep is restarted from every vertex of `Θ` in
    /// addition to the midpoint, and the best result is kept. Pontryagin's
    /// principle is only a necessary condition; multi-start protects against
    /// local extremals on higher-dimensional models (e.g. the 4-D GPS MAP
    /// drift) at a cost proportional to the number of vertices. When
    /// `false`, the escalation ladder of [`PontryaginSolver::solve`] runs
    /// the vertex starts only when one's first pass, probed in vertex
    /// order, beats the sweep.
    pub multi_start: bool,
    /// Run budget for each objective's solve. Only `wall_clock` applies:
    /// one deadline starts with each objective of
    /// [`PontryaginSolver::solve_all`] and every pass of its solve checks it
    /// before each interval — each backward and trial pass of every start,
    /// each vertex probe and each vertex start's first pass. Only the
    /// midpoint start's first pass ignores it: without that pass there is
    /// no bound. A backward pass also checks it before each chunk of 16
    /// intervals, whose Jacobian stencils it evaluates in one drift batch,
    /// so a solve overruns its deadline by at most one such batch (or one
    /// interval of a forward pass). A tripped deadline discards the pass it
    /// cuts, so an expired solve starts nothing new, while a vertex probe it
    /// finished still starts its escalated vertex start; a first pass it cut
    /// is never shared with a later objective, which integrates it again
    /// under its own deadline. The solve then returns the best start so far
    /// with `converged() == false` and `truncated() == true` instead of
    /// erroring — every adopted control is a feasible selection of the
    /// inclusion, so the bound so far is valid, merely not extremal.
    pub budget: RunBudget,
}

impl Default for PontryaginOptions {
    fn default() -> Self {
        PontryaginOptions {
            grid_intervals: 400,
            multi_start: false,
            budget: RunBudget::unlimited(),
        }
    }
}

/// The extremal solution produced by a sweep: state, costate and control on a
/// shared grid, plus the attained objective value.
#[derive(Debug, Clone)]
pub struct ExtremalSolution {
    objective: LinearObjective,
    objective_value: f64,
    state: GridSignal,
    costate: GridSignal,
    control: GridSignal,
    converged: bool,
    iterations: usize,
    truncated: bool,
}

impl ExtremalSolution {
    /// The attained value of `weights · x(T)`.
    pub fn objective_value(&self) -> f64 {
        self.objective_value
    }

    /// The objective this solution extremises.
    pub fn objective(&self) -> &LinearObjective {
        &self.objective
    }

    /// The extremal state on the sweep grid.
    pub fn state(&self) -> &GridSignal {
        &self.state
    }

    /// The costate on the sweep grid.
    pub fn costate(&self) -> &GridSignal {
        &self.costate
    }

    /// The extremal control on the sweep grid (piecewise constant per interval).
    pub fn control(&self) -> &GridSignal {
        &self.control
    }

    /// Whether the sweep converged: after its last backward pass no
    /// interval gained by switching to the Hamiltonian maximiser, or
    /// switching even the best-ranked one alone did not raise the
    /// objective. `false` when the sweep cap or the deadline stopped it.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of sweep iterations (backward passes) performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the wall-clock budget cut any pass of the solve — of the
    /// reported start, another restart, a vertex probe or an escalated
    /// vertex start.
    /// The value is then a feasible bound, but possibly not the extremal
    /// one the untimed solve would find.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The extremal control as a parameter signal, ready to be replayed
    /// through [`DifferentialInclusion`](crate::inclusion::DifferentialInclusion).
    pub fn control_signal(&self) -> GridParamSignal {
        GridParamSignal::new(self.control.clone())
    }

    /// The extremal state as a dense trajectory.
    ///
    /// # Errors
    ///
    /// Returns an error if the grid is degenerate (cannot happen for
    /// solutions produced by the solver).
    pub fn state_trajectory(&self) -> Result<Trajectory> {
        let grid = self.state.grid();
        let mut traj = Trajectory::with_capacity(self.state.dim(), grid.nodes());
        for (k, value) in self.state.values().iter().enumerate() {
            traj.push(grid.node(k), value.clone())?;
        }
        Ok(traj)
    }

    /// Times at which the extremal control switches (changes by more than
    /// `tolerance` in sup norm between consecutive grid intervals). For
    /// drifts affine in `ϑ` these are the bang-bang switching instants.
    pub fn switching_times(&self, tolerance: f64) -> Vec<f64> {
        let grid = self.control.grid();
        let values = self.control.values();
        let mut out = Vec::new();
        for k in 1..values.len() {
            if values[k].distance_inf(&values[k - 1]) > tolerance {
                out.push(grid.node(k));
            }
        }
        out
    }
}

/// Forward–backward sweep solver for extremal values of the mean-field
/// differential inclusion.
#[derive(Debug, Clone)]
pub struct PontryaginSolver {
    options: PontryaginOptions,
    obs: Obs,
}

impl PontryaginSolver {
    /// Creates a solver with the given options.
    pub fn new(options: PontryaginOptions) -> Self {
        PontryaginSolver {
            options,
            obs: Obs::none(),
        }
    }

    /// Attaches an observability bundle: every objective's solve flushes
    /// its RK4-step, reused-step, Jacobian-evaluation, costate-gate-trip,
    /// sweep-iteration, rejected-step and restart counts into `obs.metrics`
    /// (multi-start restarts run on scoped threads and share the handle's
    /// atomics), adds the wall-clock time of its forward passes, backward
    /// passes and switch scans to the `core_pontryagin_{forward,backward,switch}`
    /// timers (read only while metrics are enabled), records which restart
    /// won as a gauge, and emits a `pontryagin_solve` trace event per
    /// objective. Results are unaffected — counters and timers are flushed
    /// after the numerics finish.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &PontryaginOptions {
        &self.options
    }

    /// Maximises coordinate `i` of `x(T)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PontryaginSolver::solve_all`], and
    /// [`CoreError::InvalidInput`] when `coordinate` is not below the
    /// drift's dimension.
    pub fn maximize_coordinate<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        coordinate: usize,
    ) -> Result<ExtremalSolution> {
        check_coordinate(drift.dim(), coordinate)?;
        self.solve(
            drift,
            x0,
            horizon,
            LinearObjective::maximize_coordinate(drift.dim(), coordinate),
        )
    }

    /// Minimises coordinate `i` of `x(T)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PontryaginSolver::maximize_coordinate`].
    pub fn minimize_coordinate<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        coordinate: usize,
    ) -> Result<ExtremalSolution> {
        check_coordinate(drift.dim(), coordinate)?;
        self.solve(
            drift,
            x0,
            horizon,
            LinearObjective::minimize_coordinate(drift.dim(), coordinate),
        )
    }

    /// Returns `(min, max)` of coordinate `i` of `x(T)` over the solution
    /// set, both from one [`PontryaginSolver::solve_all`] call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PontryaginSolver::maximize_coordinate`].
    pub fn coordinate_extremes<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        coordinate: usize,
    ) -> Result<(f64, f64)> {
        let (lo, hi) = self
            .coordinate_bounds(drift, x0, horizon, coordinate..coordinate + 1)?
            .swap_remove(0);
        Ok((lo.objective_value(), hi.objective_value()))
    }

    /// The minimum and the maximum of every coordinate in `coordinates`, as
    /// `(min, max)` pairs in coordinate order, from one
    /// [`PontryaginSolver::solve_all`] call: all the extremes share their
    /// constant-control first passes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PontryaginSolver::solve_all`], and
    /// [`CoreError::InvalidInput`] when a coordinate is not below the
    /// drift's dimension.
    pub fn coordinate_bounds<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        coordinates: Range<usize>,
    ) -> Result<Vec<(ExtremalSolution, ExtremalSolution)>> {
        let dim = drift.dim();
        if !coordinates.is_empty() {
            check_coordinate(dim, coordinates.end - 1)?;
        }
        let objectives: Vec<LinearObjective> = coordinates
            .flat_map(|i| {
                [
                    LinearObjective::minimize_coordinate(dim, i),
                    LinearObjective::maximize_coordinate(dim, i),
                ]
            })
            .collect();
        let mut solutions = self.solve_all(drift, x0, horizon, &objectives)?.into_iter();
        Ok(std::iter::from_fn(|| Some((solutions.next()?, solutions.next()?))).collect())
    }

    /// Runs the forward–backward sweep for an arbitrary linear objective:
    /// [`PontryaginSolver::solve_all`] of that one objective.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PontryaginSolver::solve_all`].
    pub fn solve<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        objective: LinearObjective,
    ) -> Result<ExtremalSolution> {
        let mut solutions = self.solve_all(drift, x0, horizon, std::slice::from_ref(&objective))?;
        Ok(solutions.swap_remove(0))
    }

    /// Runs the forward–backward sweep for each objective, in order, and
    /// returns their extremal solutions in that order.
    ///
    /// Every start of a sweep is one forward pass under a constant control
    /// — the midpoint of `Θ` first — followed by its sweeps. With
    /// [`PontryaginOptions::multi_start`] enabled every vertex of `Θ` is a
    /// start too and the best extremal is returned. The starts are
    /// independent, so they run in parallel across threads (reusing the
    /// scoped-thread pattern of `mfu-sim`'s ensembles); the result is
    /// selected in start order with strict improvement, so the outcome is
    /// deterministic regardless of thread scheduling.
    ///
    /// A single-start solve runs the escalation ladder afterwards: it probes
    /// the vertices of `Θ` in order, each probe being that vertex start's
    /// first forward pass, and stops at the first probe that beats the
    /// midpoint sweep's extremal by more than `1e-6` — a sure sign the sweep
    /// settled on a local extremal. It then sweeps from every vertex, each
    /// probed vertex from its probe rather than from a second pass, and
    /// keeps the best result exactly as `multi_start` would have. A sweep
    /// never lowers the objective of its start, so an escalated vertex start
    /// ends at least at the probe that beat the midpoint sweep.
    ///
    /// A first pass does not depend on the objective, so the call
    /// integrates each at most once, when an objective first asks for it,
    /// and every later objective takes it from there: its steps still count
    /// as RK4 steps ([`Counter::CoreRk4Steps`] counts every step a solve
    /// used) and also as reused ([`Counter::CorePontryaginReusedSteps`]).
    /// Unless a deadline trips, every solution and every counter but the
    /// reused steps is bit for bit what a call of its own objective gives.
    ///
    /// Each objective starts its own wall-clock budget, and every pass of
    /// its solve but the midpoint start's first checks it before each
    /// interval: an expired solve starts nothing new, and a probe it
    /// finished still starts its vertex sweep. A first pass the deadline cut
    /// is never shared: the next objective that needs it integrates it
    /// again under its own deadline.
    ///
    /// # Errors
    ///
    /// Returns an error on inconsistent inputs, and otherwise the first
    /// objective's error in order: when an integration step produces
    /// non-finite values, or when a forward pass diverges. A sweep that
    /// merely does not converge within the sweep cap is *not* an error; the
    /// returned solution reports `converged() == false`.
    pub fn solve_all<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        x0: &StateVec,
        horizon: f64,
        objectives: &[LinearObjective],
    ) -> Result<Vec<ExtremalSolution>> {
        let dim = drift.dim();
        if x0.dim() != dim {
            return Err(CoreError::invalid_input(
                "initial condition dimension mismatch",
            ));
        }
        if objectives
            .iter()
            .any(|objective| objective.weights().dim() != dim)
        {
            return Err(CoreError::invalid_input(
                "objective weight dimension mismatch",
            ));
        }
        if horizon <= 0.0 || !horizon.is_finite() {
            return Err(CoreError::invalid_input(
                "horizon must be positive and finite",
            ));
        }
        let grid = TimeGrid::new(0.0, horizon, self.options.grid_intervals.max(1))?;
        let clock = self.obs.metrics.is_enabled();
        let mut first_passes = FirstPasses::new(drift, x0, &grid, clock);
        objectives
            .iter()
            .map(|objective| self.solve_one(&mut first_passes, objective))
            .collect()
    }

    /// One objective of [`PontryaginSolver::solve_all`], under its own
    /// deadline, taking its starts' first passes from `first_passes`.
    fn solve_one<D: ImpreciseDrift + Sync>(
        &self,
        first_passes: &mut FirstPasses<'_, D>,
        objective: &LinearObjective,
    ) -> Result<ExtremalSolution> {
        let deadline = self
            .options
            .budget
            .wall_clock
            .and_then(|limit| Instant::now().checked_add(limit));
        let (drift, grid) = (first_passes.drift, first_passes.grid);
        let sign = if objective.is_maximization() {
            1.0
        } else {
            -1.0
        };

        // Only the midpoint start's first pass ignores the deadline: without
        // it there is no bound.
        let mut tally = SweepTally::default();
        first_passes.ensure(0, None, &mut tally);
        let mut starts = 1;
        if self.options.multi_start {
            starts = first_passes.len();
            for start in 1..starts {
                first_passes.ensure(start, deadline, &mut tally);
            }
        }
        let mut outcomes = self.sweep_all(
            drift,
            grid,
            objective,
            &first_passes.get(0..starts),
            deadline,
        );

        // ---- escalation ladder ---------------------------------------------
        // Pontryagin's principle is only necessary: a single-start sweep can
        // settle on a local extremal. Every constant control is a feasible
        // selection of the inclusion, so a vertex probe beating the sweep's
        // extremal proves the sweep is not globally extremal: escalate to
        // the vertex starts and keep the best result. A probe that failed
        // never beats; a finite one is compared even past the divergence
        // cap, and its vertex start then reports the divergence.
        let mut escalated = false;
        let mut truncated = false;
        let midpoint_value = match &outcomes[0] {
            Ok(Some(midpoint)) if !self.options.multi_start => Some(midpoint.objective_value()),
            _ => None,
        };
        if let Some(midpoint_value) = midpoint_value {
            let ascent = objective.ascent_weights();
            let threshold = sign * midpoint_value + ESCALATION_MARGIN;
            let vertex_starts = 1..first_passes.len();
            let mut probed = 1;
            // probe in vertex order until one beats or the deadline cuts one
            for start in vertex_starts.clone() {
                let probe = first_passes.ensure(start, deadline, &mut tally);
                probed = start + 1;
                truncated = matches!(probe.outcome, Ok(false));
                escalated = matches!(probe.outcome, Ok(true))
                    && ascent.dot(&probe.state[grid.intervals()]) > threshold;
                if truncated || escalated {
                    break;
                }
            }
            if escalated {
                for start in probed..vertex_starts.end {
                    first_passes.ensure(start, deadline, &mut tally);
                }
                self.obs.metrics.add(Counter::CorePontryaginEscalations, 1);
                outcomes.extend(self.sweep_all(
                    drift,
                    grid,
                    objective,
                    &first_passes.get(vertex_starts),
                    deadline,
                ));
            }
        }
        tally.flush(&self.obs.metrics);

        // Deterministic selection: walk the starts in order, keeping the
        // strictly better one.
        let mut restarts = 0u64;
        let mut best: Option<(usize, ExtremalSolution)> = None;
        for (index, outcome) in outcomes.into_iter().enumerate() {
            restarts += 1;
            let Some(candidate) = outcome? else {
                // the deadline cut this start's first pass: it has no bound
                truncated = true;
                continue;
            };
            truncated |= candidate.truncated;
            let better = best.as_ref().is_none_or(|(_, current)| {
                sign * candidate.objective_value() > sign * current.objective_value()
            });
            if better {
                best = Some((index, candidate));
            }
        }
        let (best_index, mut best) = best.expect("the midpoint start always has a bound");
        best.truncated = truncated;

        self.obs
            .metrics
            .add(Counter::CorePontryaginRestarts, restarts);
        self.obs
            .metrics
            .set_gauge(Gauge::CorePontryaginWinningRestart, best_index as u64);
        if self.obs.tracer.is_enabled() {
            self.obs.tracer.event(
                "pontryagin_solve",
                &[
                    ("restarts", Field::U64(restarts)),
                    ("winner", Field::U64(best_index as u64)),
                    ("escalated", Field::Bool(escalated)),
                    ("objective_value", Field::F64(best.objective_value())),
                    ("converged", Field::Bool(best.converged())),
                    ("iterations", Field::U64(best.iterations() as u64)),
                    ("maximize", Field::Bool(objective.is_maximization())),
                ],
            );
        }
        Ok(best)
    }

    /// Runs one sweep per start (in parallel when possible) and returns the
    /// outcomes in start order. Every sweep stops at the solve's shared
    /// `deadline`.
    fn sweep_all<D: ImpreciseDrift + Sync>(
        &self,
        drift: &D,
        grid: &TimeGrid,
        objective: &LinearObjective,
        starts: &[&FirstPass],
        deadline: Option<Instant>,
    ) -> Vec<Result<Option<ExtremalSolution>>> {
        let sweep = |start: &&FirstPass| self.solve_from(drift, grid, objective, start, deadline);
        let n = starts.len();
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(n);
        if threads <= 1 {
            return starts.iter().map(sweep).collect();
        }
        let sweep = &sweep;
        let mut outcomes: Vec<(usize, Result<Option<ExtremalSolution>>)> =
            std::thread::scope(|scope| {
                // worker `w` sweeps starts `w`, `w + threads`, … in order
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        scope.spawn(move || {
                            (worker..n)
                                .step_by(threads)
                                .map(|index| (index, sweep(&starts[index])))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|handle| {
                        // re-raise worker panics with their original payload
                        handle
                            .join()
                            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                    })
                    .collect()
            });
        outcomes.sort_by_key(|(index, _)| *index);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// One monotone forward–backward sweep from the first pass `start`,
    /// stopping at `deadline`. `Ok(None)` when the deadline cut that pass:
    /// the start then has no bound.
    fn solve_from<D: ImpreciseDrift>(
        &self,
        drift: &D,
        grid: &TimeGrid,
        objective: &LinearObjective,
        start: &FirstPass,
        deadline: Option<Instant>,
    ) -> Result<Option<ExtremalSolution>> {
        if !start.outcome.clone()? {
            return Ok(None);
        }
        let dim = drift.dim();
        let n = grid.intervals();
        let h = grid.step();
        let ascent = objective.ascent_weights();
        // control per interval (value at node k applies on [t_k, t_{k+1}))
        let mut control = start.control.clone();
        let mut state = start.state.clone();
        check_diverged(&state[n], grid)?;
        let mut value = ascent.dot(&state[n]);

        let clock = self.obs.metrics.is_enabled();
        let mut tally = SweepTally::default();

        let mut costate: Vec<StateVec> = vec![StateVec::zeros(dim); n + 1];
        // The step search's trial control and state; an accepted trial swaps
        // places with the adopted pair.
        let mut trial_control = control.clone();
        let mut trial_state = state.clone();
        // Intervals whose switch to the Hamiltonian maximiser gains, as
        // (gain, interval, index of the maximiser in `candidates`).
        let mut switches: Vec<(f64, usize, usize)> = Vec::new();

        // Per-start scratch, reused by every sweep: the inner loops below
        // run thousands of times per solve and allocate nothing.
        let candidates = theta_candidates(drift);
        let mut rk4 = Rk4Scratch::new(dim);
        let mut backward = BackwardPass::new(dim);
        let mut scan = SwitchScan::default();

        let mut converged = false;
        let mut truncated = false;
        let mut iterations = 0;

        // A tripped deadline ends the sweep gracefully, between two
        // intervals of a pass: the adopted control is a feasible selection,
        // so its value is still a valid (if not extremal) bound, reported
        // with `converged() == false` and `truncated() == true`.
        'sweeps: for iteration in 0..MAX_ITERATIONS {
            costate[n].copy_from(&ascent);
            let started = clock.then(Instant::now);
            let finished = backward.run(
                drift,
                h,
                &state,
                &control,
                &mut costate,
                &mut rk4,
                deadline,
                &mut tally,
            );
            tally.backward_ns += elapsed_ns(started);
            if !finished? {
                truncated = true;
                break;
            }
            iterations = iteration + 1;

            let started = clock.then(Instant::now);
            scan.collect(
                drift,
                &candidates,
                &state,
                &control,
                &costate,
                &mut switches,
            );
            tally.switch_ns += elapsed_ns(started);
            if switches.is_empty() {
                // the maximum principle holds on the grid
                converged = true;
                break;
            }
            switches.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

            // ---- step search ---------------------------------------------------
            // Switch the best-ranked `size` intervals, halving the set until
            // the objective strictly improves.
            let mut size = switches.len();
            loop {
                trial_control.clone_from(&control);
                let mut first = n;
                for &(_, k, vertex) in &switches[..size] {
                    trial_control[k].clone_from(&candidates[vertex]);
                    first = first.min(k);
                }
                let (intervals, last) = trial_control.split_at_mut(n);
                last[0].clone_from(&intervals[n - 1]);
                // Node k's state depends only on the controls before k, so
                // up to the first switched interval the trial's states are
                // the adopted ones. `trial_state` holds a rejected trial's
                // or the previously adopted states: copy them over.
                for (trial, adopted) in trial_state[..=first].iter_mut().zip(&state) {
                    trial.copy_from(adopted);
                }
                tally.reuse(first as u64);
                let started = clock.then(Instant::now);
                let finished = forward_pass(
                    drift,
                    grid.step(),
                    &trial_control[first..],
                    &mut trial_state[first..],
                    &mut rk4,
                    deadline,
                    &mut tally.rk4_steps,
                );
                tally.forward_ns += elapsed_ns(started);
                if !finished? {
                    // the deadline cut the trial short: discard it
                    truncated = true;
                    break 'sweeps;
                }
                check_diverged(&trial_state[n], grid)?;
                let trial_value = ascent.dot(&trial_state[n]);
                if trial_value > value {
                    std::mem::swap(&mut control, &mut trial_control);
                    std::mem::swap(&mut state, &mut trial_state);
                    value = trial_value;
                    break;
                }
                tally.rejected_steps += 1;
                if size == 1 {
                    // not even the best-ranked switch alone pays
                    converged = true;
                    break 'sweeps;
                }
                size = size.div_ceil(2);
            }
        }
        let objective_value = objective.weights().dot(&state[n]);

        let metrics = &self.obs.metrics;
        tally.flush(metrics);
        metrics.add(Counter::CorePontryaginSweeps, iterations as u64);

        let control_values: Vec<StateVec> = control.into_iter().map(StateVec::from).collect();
        Ok(Some(ExtremalSolution {
            objective: objective.clone(),
            objective_value,
            state: GridSignal::new(grid.clone(), state)?,
            costate: GridSignal::new(grid.clone(), costate)?,
            control: GridSignal::new(grid.clone(), control_values)?,
            converged,
            iterations,
            truncated,
        }))
    }
}

/// A solve's or a start's work counters and layer clocks, kept in plain
/// locals and flushed once (multi-start sweeps run on scoped threads; the
/// metrics handle's atomics make the flush thread-safe).
#[derive(Debug, Default)]
struct SweepTally {
    /// Every RK4 step a pass used, integrated or reused.
    rk4_steps: u64,
    /// The steps of `rk4_steps` taken from an earlier pass.
    reused_steps: u64,
    jacobian_evals: u64,
    gate_trips: u64,
    rejected_steps: u64,
    forward_ns: u64,
    backward_ns: u64,
    switch_ns: u64,
}

impl SweepTally {
    /// Counts `steps` forward steps a pass took from an earlier pass.
    fn reuse(&mut self, steps: u64) {
        self.rk4_steps += steps;
        self.reused_steps += steps;
    }

    fn flush(&self, metrics: &Metrics) {
        metrics.add(Counter::CoreRk4Steps, self.rk4_steps);
        metrics.add(Counter::CorePontryaginReusedSteps, self.reused_steps);
        metrics.add(Counter::CoreJacobianEvals, self.jacobian_evals);
        metrics.add(Counter::CoreCostateGateTrips, self.gate_trips);
        metrics.add(Counter::CorePontryaginRejectedSteps, self.rejected_steps);
        metrics.add_timer_ns(Timer::CorePontryaginForward, self.forward_ns);
        metrics.add_timer_ns(Timer::CorePontryaginBackward, self.backward_ns);
        metrics.add_timer_ns(Timer::CorePontryaginSwitch, self.switch_ns);
    }
}

/// Nanoseconds since `started`, a layer clock read only while metrics are
/// enabled (`None`, and so 0, otherwise).
fn elapsed_ns(started: Option<Instant>) -> u64 {
    started.map_or(0, |started| {
        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// A start's first forward pass: the state under a constant control.
struct FirstPass {
    /// The constant control, one copy per grid node.
    control: Vec<Vec<f64>>,
    state: Vec<StateVec>,
    /// Whether the pass reached the horizon (`Ok(false)`: the deadline cut
    /// it), or the error of a step that left the finite numbers. The
    /// divergence cap is not checked yet.
    outcome: Result<bool>,
    /// The RK4 steps the pass took.
    steps: u64,
}

/// The first passes of one [`PontryaginSolver::solve_all`] call, by start:
/// the midpoint of `Θ` (start 0), then each vertex in order. A pass is
/// integrated when an objective first asks for it, and every later
/// objective takes it from here, except a pass the deadline cut: the next
/// objective asking for it integrates it again under its own deadline.
struct FirstPasses<'a, D> {
    drift: &'a D,
    x0: &'a StateVec,
    grid: &'a TimeGrid,
    /// Each start's constant control.
    controls: Vec<Vec<f64>>,
    passes: Vec<Option<FirstPass>>,
    rk4: Rk4Scratch,
    /// Whether the forward clock is read (metrics are enabled).
    clock: bool,
}

impl<'a, D: ImpreciseDrift> FirstPasses<'a, D> {
    fn new(drift: &'a D, x0: &'a StateVec, grid: &'a TimeGrid, clock: bool) -> Self {
        let mut controls = vec![drift.params().midpoint()];
        controls.extend(drift.params().vertices());
        FirstPasses {
            drift,
            x0,
            grid,
            passes: controls.iter().map(|_| None).collect(),
            controls,
            rk4: Rk4Scratch::new(drift.dim()),
            clock,
        }
    }

    /// The number of starts: the midpoint and every vertex.
    fn len(&self) -> usize {
        self.controls.len()
    }

    /// Start `start`'s first pass. Integrates it under `deadline`, adding
    /// its steps and forward time to `tally`, unless an earlier objective
    /// took it to the horizon or to an error: its steps then count in
    /// `tally` as reused.
    fn ensure(
        &mut self,
        start: usize,
        deadline: Option<Instant>,
        tally: &mut SweepTally,
    ) -> &FirstPass {
        match &mut self.passes[start] {
            Some(pass) if !matches!(pass.outcome, Ok(false)) => tally.reuse(pass.steps),
            slot => {
                let control = vec![self.controls[start].clone(); self.grid.intervals() + 1];
                let mut state = vec![self.x0.clone(); control.len()];
                let mut steps = 0;
                let started = self.clock.then(Instant::now);
                let outcome = forward_pass(
                    self.drift,
                    self.grid.step(),
                    &control,
                    &mut state,
                    &mut self.rk4,
                    deadline,
                    &mut steps,
                );
                tally.forward_ns += elapsed_ns(started);
                tally.rk4_steps += steps;
                *slot = Some(FirstPass {
                    control,
                    state,
                    outcome,
                    steps,
                });
            }
        }
        self.passes[start].as_ref().expect("the pass is in place")
    }

    /// The first passes of `starts`, each already
    /// [`ensure`](FirstPasses::ensure)d by the objective asking.
    fn get(&self, starts: Range<usize>) -> Vec<&FirstPass> {
        self.passes[starts]
            .iter()
            .map(|pass| pass.as_ref().expect("an ensured first pass"))
            .collect()
    }
}

/// The error for a coordinate objective on a coordinate the drift lacks,
/// checked before [`LinearObjective::maximize_coordinate`] would panic.
fn check_coordinate(dim: usize, coordinate: usize) -> Result<()> {
    if coordinate < dim {
        Ok(())
    } else {
        Err(CoreError::invalid_input(format!(
            "coordinate {coordinate} is out of range for a {dim}-dimensional drift"
        )))
    }
}

/// Whether the solve's shared deadline has passed (never, without one).
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|deadline| Instant::now() >= deadline)
}

/// Integrates the state forward in steps of `h` under a piecewise-constant
/// control: `state[k + 1]` from `state[k]` under `control[k]`, with
/// `state[0]` already in place, over the `state.len() - 1` intervals the
/// slices hold (the drift is autonomous, so a pass over the tail of a grid
/// is a pass over the tails of its slices). Checks `deadline` before every
/// interval, counts every RK4 step into `rk4_steps` and returns whether the
/// pass reached the horizon: `false` only when the deadline cut it short.
/// Fails on a non-finite RK4 step.
fn forward_pass<D: ImpreciseDrift>(
    drift: &D,
    h: f64,
    control: &[Vec<f64>],
    state: &mut [StateVec],
    rk4: &mut Rk4Scratch,
    deadline: Option<Instant>,
    rk4_steps: &mut u64,
) -> Result<bool> {
    for k in 0..state.len() - 1 {
        if expired(deadline) {
            return Ok(false);
        }
        let theta = &control[k];
        let (head, tail) = state.split_at_mut(k + 1);
        Rk4::step_into(
            &mut |_t: f64, x: &StateVec, dx: &mut StateVec| drift.drift_into(x, theta, dx),
            0.0,
            &head[k],
            h,
            &mut tail[0],
            rk4,
        );
        *rk4_steps += 1;
        check_finite(&tail[0])?;
    }
    Ok(true)
}

/// The sweep's error for a forward pass whose terminal state is past the
/// divergence cap.
fn check_diverged(terminal: &StateVec, grid: &TimeGrid) -> Result<()> {
    if mfu_guard::state_diverged(terminal.as_slice(), DIVERGENCE_CAP) {
        return Err(CoreError::Diverged {
            analysis: "pontryagin sweep",
            time: grid.end(),
        });
    }
    Ok(())
}

/// The sweep's error for an RK4 step that left the finite numbers.
fn check_finite(x: &StateVec) -> Result<()> {
    if x.is_finite() {
        Ok(())
    } else {
        Err(CoreError::Numerical(mfu_num::NumError::non_finite(
            "pontryagin RK4 step",
        )))
    }
}

/// The backward pass's per-start scratch, reused by every sweep.
struct BackwardPass {
    stencils: JacobianStencils,
    jac: Jacobian,
    midpoint: StateVec,
}

impl BackwardPass {
    fn new(dim: usize) -> Self {
        BackwardPass {
            stencils: JacobianStencils::default(),
            jac: Jacobian::zeros(dim, dim),
            midpoint: StateVec::zeros(dim),
        }
    }

    /// Integrates the costate backward from `costate[n]` along `state`
    /// under `control`, over chunks of [`STENCIL_CHUNK`] intervals: one drift
    /// batch evaluates the chunk's Jacobian stencils, then the recursion
    /// steps through its intervals, last first. Checks `deadline` before
    /// each chunk's batch and before each interval, and returns whether the
    /// pass reached `t = 0`: `false` only when the deadline cut it. Fails on
    /// a non-finite RK4 step.
    #[allow(clippy::too_many_arguments)]
    fn run<D: ImpreciseDrift>(
        &mut self,
        drift: &D,
        h: f64,
        state: &[StateVec],
        control: &[Vec<f64>],
        costate: &mut [StateVec],
        rk4: &mut Rk4Scratch,
        deadline: Option<Instant>,
        tally: &mut SweepTally,
    ) -> Result<bool> {
        let (dim, params) = (drift.dim(), drift.params().dim());
        let mut end = costate.len() - 1;
        while end > 0 {
            let begin = end.saturating_sub(STENCIL_CHUNK);
            if expired(deadline) {
                return Ok(false);
            }
            self.stencils.reset(dim, params, end - begin);
            for k in begin..end {
                half_sum_into(&state[k], &state[k + 1], &mut self.midpoint);
                self.stencils
                    .set(k - begin, self.midpoint.as_slice(), &control[k]);
            }
            self.stencils.evaluate(drift);
            for k in (begin..end).rev() {
                if expired(deadline) {
                    return Ok(false);
                }
                // Costate dynamics: -ṗ = Jᵀ p. Integrating backwards in time
                // with step -h is equivalent to integrating ṗ = Jᵀ p forward
                // in the reversed time variable. The Jacobian is frozen at
                // the interval midpoint, so it is evaluated once per
                // interval and shared by all four RK4 stages. A failed
                // evaluation, or a matrix the costate step cannot resolve
                // (see `MAX_COSTATE_STEP_GROWTH`), is zeroed: no costate
                // motion on that interval.
                let jac = &mut self.jac;
                if !self.stencils.jacobian_into(k - begin, jac)
                    || jac.inf_norm() * h > MAX_COSTATE_STEP_GROWTH
                {
                    jac.fill_zero();
                    tally.gate_trips += 1;
                }
                let jac = &self.jac;
                let (head, tail) = costate.split_at_mut(k + 1);
                Rk4::step_into(
                    &mut |_t: f64, p: &StateVec, dp: &mut StateVec| {
                        if jac.transpose_mul_into(p, dp).is_err() {
                            dp.fill_zero();
                        }
                    },
                    0.0,
                    &tail[0],
                    h,
                    &mut head[k],
                    rk4,
                );
                check_finite(&head[k])?;
                tally.rk4_steps += 1;
                tally.jacobian_evals += 1;
            }
            end = begin;
        }
        Ok(true)
    }
}

/// Central-difference Jacobian stencils `∂f/∂x (x_s, ϑ_s)` of several
/// points, evaluated in one [`ImpreciseDrift::drift_batch_into`] call: the
/// backward pass's batch of up to 16 intervals.
///
/// Stencil `s` of a `dim`-dimensional drift occupies lanes `2·dim·s + 2j`,
/// holding `x_s + h·e_j`, and `2·dim·s + 2j + 1`, holding `x_s − h·e_j`,
/// where `h = 1e-6` is the sweep's Jacobian step; each lane carries its
/// stencil's `ϑ_s` through [`BatchTheta::PerLane`].
/// [`JacobianStencils::jacobian_into`] forms the entries with the
/// `(f⁺ − f⁻) / (2h)` arithmetic of
/// [`finite_difference_jacobian_into`](mfu_num::jacobian::finite_difference_jacobian_into),
/// so every matrix is bit for bit that scalar reference's at step `h`.
#[derive(Debug, Default)]
pub struct JacobianStencils {
    points: SoaBatch,
    controls: SoaBatch,
    drifts: SoaBatch,
}

impl JacobianStencils {
    /// Reshapes the batch for `count` stencils of a `dim`-dimensional drift
    /// over `params` parameters; every stencil must then be
    /// [`set`](JacobianStencils::set) before the batch is evaluated.
    pub fn reset(&mut self, dim: usize, params: usize, count: usize) {
        self.points.reset(dim, 2 * dim * count);
        self.controls.reset(params, 2 * dim * count);
    }

    /// Centres stencil `s` at `x` under the control `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is past the count of the last
    /// [`reset`](JacobianStencils::reset), or if `x` or `theta` have the
    /// wrong length.
    pub fn set(&mut self, s: usize, x: &[f64], theta: &[f64]) {
        let lanes = 2 * self.points.rows();
        assert_eq!(x.len(), self.points.rows(), "stencil dimension mismatch");
        assert_eq!(
            theta.len(),
            self.controls.rows(),
            "stencil control mismatch"
        );
        let base = s * lanes;
        for (j, &xj) in x.iter().enumerate() {
            let row = &mut self.points.row_mut(j)[base..base + lanes];
            row.fill(xj);
            row[2 * j] = xj + JACOBIAN_STEP;
            row[2 * j + 1] = xj - JACOBIAN_STEP;
        }
        for (p, &tp) in theta.iter().enumerate() {
            self.controls.row_mut(p)[base..base + lanes].fill(tp);
        }
    }

    /// Evaluates every stencil in one drift batch.
    pub fn evaluate<D: ImpreciseDrift + ?Sized>(&mut self, drift: &D) {
        drift.drift_batch_into(
            &self.points,
            &BatchTheta::PerLane(&self.controls),
            &mut self.drifts,
        );
    }

    /// Writes the Jacobian of stencil `s` into `jac`. Returns `false` — the
    /// sweep then zeroes the matrix — exactly when the reference returns an
    /// error at the same step: on a non-finite entry.
    ///
    /// # Panics
    ///
    /// Panics if the batch was not evaluated for stencil `s`, or if `jac`
    /// is not `dim × dim`.
    pub fn jacobian_into(&self, s: usize, jac: &mut Jacobian) -> bool {
        let dim = self.points.rows();
        let base = 2 * dim * s;
        for i in 0..dim {
            let lanes = &self.drifts.row(i)[base..base + 2 * dim];
            for j in 0..dim {
                let d = (lanes[2 * j] - lanes[2 * j + 1]) / (2.0 * JACOBIAN_STEP);
                if !d.is_finite() {
                    return false;
                }
                jac.set_entry(i, j, d);
            }
        }
        true
    }
}

/// The switch scan's per-start scratch, reused by every sweep: the interval
/// states, controls and midpoint costates as batches, and the scores.
#[derive(Debug, Default)]
struct SwitchScan {
    states: SoaBatch,
    controls: SoaBatch,
    costates: SoaBatch,
    drifts: SoaBatch,
    /// One batch's Hamiltonian per interval.
    values: Vec<f64>,
    /// Per interval, the best Hamiltonian over the candidates and its
    /// candidate index, `None` while none scored above −∞.
    best: Vec<(f64, Option<usize>)>,
}

impl SwitchScan {
    /// Fills `switches` with every interval `k` whose switch to the
    /// Hamiltonian maximiser gains, as `(gain, k, maximiser's index in
    /// candidates)`, in interval order.
    ///
    /// Interval `k` is scored at its start state and midpoint costate,
    /// every interval at once: one drift batch per candidate, in
    /// `candidates` order, and one for the current controls. Each lane folds
    /// its Hamiltonian from +0.0 over the coordinates, keeps the first
    /// strict maximum and switches only where the maximiser differs from
    /// its control and `gain > 0` — bit for bit
    /// [`extremal_theta`](crate::drift::extremal_theta) and the
    /// `hamiltonian` of the current control per interval. Where no
    /// candidate scores above −∞ the scalar scan's maximiser is `Θ`'s
    /// midpoint with gain −∞ or NaN, which never switches.
    fn collect<D: ImpreciseDrift>(
        &mut self,
        drift: &D,
        candidates: &[Vec<f64>],
        state: &[StateVec],
        control: &[Vec<f64>],
        costate: &[StateVec],
        switches: &mut Vec<(f64, usize, usize)>,
    ) {
        let n = control.len() - 1;
        let (dim, params) = (drift.dim(), drift.params().dim());
        self.states.reset(dim, n);
        self.controls.reset(params, n);
        self.costates.reset(dim, n);
        for k in 0..n {
            self.states.set_lane(k, state[k].as_slice());
            self.controls.set_lane(k, &control[k]);
        }
        for (k, ends) in costate.windows(2).enumerate() {
            for (i, (&a, &b)) in ends[0].iter().zip(ends[1].iter()).enumerate() {
                self.costates.row_mut(i)[k] = 0.5 * (a + b);
            }
        }

        self.best.clear();
        self.best.resize(n, (f64::NEG_INFINITY, None));
        for (index, theta) in candidates.iter().enumerate() {
            drift.drift_batch_into(&self.states, &BatchTheta::Shared(theta), &mut self.drifts);
            hamiltonians_into(&self.drifts, &self.costates, &mut self.values);
            for (best, &value) in self.best.iter_mut().zip(&self.values) {
                if value > best.0 {
                    *best = (value, Some(index));
                }
            }
        }
        drift.drift_batch_into(
            &self.states,
            &BatchTheta::PerLane(&self.controls),
            &mut self.drifts,
        );
        hamiltonians_into(&self.drifts, &self.costates, &mut self.values);

        switches.clear();
        for (k, (&(best, maximiser), &current)) in self.best.iter().zip(&self.values).enumerate() {
            let Some(index) = maximiser else { continue };
            if candidates[index] != control[k] {
                let gain = best - current;
                if gain > 0.0 {
                    switches.push((gain, k, index));
                }
            }
        }
    }
}

/// Lane `l` of `out` receives `directions[l] · drifts[l]`, folded from +0.0
/// over the coordinates in order like the scalar `hamiltonian`.
fn hamiltonians_into(drifts: &SoaBatch, directions: &SoaBatch, out: &mut Vec<f64>) {
    out.clear();
    out.resize(drifts.width(), 0.0);
    for i in 0..drifts.rows() {
        for ((h, &f), &d) in out.iter_mut().zip(drifts.row(i)).zip(directions.row(i)) {
            *h += f * d;
        }
    }
}

/// `out[i] = 0.5 * (a[i] + b[i])`, the midpoint used by the costate sweep
/// (same operation order as the former `0.5 * (&a + &b)` expression).
fn half_sum_into(a: &StateVec, b: &StateVec, out: &mut StateVec) {
    for ((o, &ai), &bi) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = 0.5 * (ai + bi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use mfu_ctmc::params::{Interval, ParamSpace};

    fn decay_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0]
        })
    }

    fn solver() -> PontryaginSolver {
        PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 200,
            ..Default::default()
        })
    }

    #[test]
    fn scalar_decay_extremes_match_constant_controls() {
        // Monotone problem: the max of x(T) is attained by ϑ ≡ 1, the min by ϑ ≡ 2.
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let (lo, hi) = solver().coordinate_extremes(&drift, &x0, 1.0, 0).unwrap();
        assert!((hi - (-1.0f64).exp()).abs() < 1e-4, "max {hi}");
        assert!((lo - (-2.0f64).exp()).abs() < 1e-4, "min {lo}");
        assert!(lo < hi);
    }

    #[test]
    fn extremal_control_is_constant_for_monotone_problems() {
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let solution = solver().maximize_coordinate(&drift, &x0, 1.0, 0).unwrap();
        assert!(solution.converged());
        assert!(solution.iterations() >= 2);
        // the extremal control sits at ϑ = 1 everywhere (no switching)
        assert!(solution.switching_times(1e-9).is_empty());
        for value in solution.control().values() {
            assert!((value[0] - 1.0).abs() < 1e-9);
        }
        // terminal costate equals the objective weights
        let last = solution.costate().values().last().unwrap();
        assert!((last[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn objective_metadata_is_preserved() {
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let solution = solver().minimize_coordinate(&drift, &x0, 0.5, 0).unwrap();
        assert!(!solution.objective().is_maximization());
        assert_eq!(solution.objective().weights().as_slice(), &[1.0]);
        assert!(solution.objective_value() > 0.0);
        let traj = solution.state_trajectory().unwrap();
        assert!((traj.last_time() - 0.5).abs() < 1e-12);
        assert!((traj.last_state()[0] - solution.objective_value()).abs() < 1e-12);
    }

    #[test]
    fn template_objectives_bound_linear_functionals() {
        // Two independent decays with different rate intervals; the maximum of
        // x0 + x1 at T uses the slowest rate for each.
        let theta = ParamSpace::new(vec![
            ("a", Interval::new(1.0, 2.0).unwrap()),
            ("b", Interval::new(0.5, 1.5).unwrap()),
        ])
        .unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0];
            dx[1] = -th[1] * x[1];
        });
        let x0 = StateVec::from([1.0, 1.0]);
        let solution = solver()
            .solve(
                &drift,
                &x0,
                1.0,
                LinearObjective::maximize(StateVec::from([1.0, 1.0])),
            )
            .unwrap();
        let expected = (-1.0f64).exp() + (-0.5f64).exp();
        assert!((solution.objective_value() - expected).abs() < 1e-4);
    }

    #[test]
    fn bang_bang_switching_for_non_monotone_objective() {
        // ẋ0 = ϑ, ẋ1 = -x0 with ϑ ∈ [-1, 1]; maximise x1(2).
        // Optimal control: push x0 as negative as possible late, i.e. a
        // bang-bang control; for this classic double-integrator-like problem
        // the optimum of x1(2) = -∫ x0 dt is attained with ϑ ≡ -1 (x0 becomes
        // negative immediately), so the control is constant at the vertex -1;
        // starting the sweep from the midpoint 0 must discover it.
        let theta = ParamSpace::single("u", -1.0, 1.0).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0];
            dx[1] = -x[0];
        });
        let x0 = StateVec::from([0.0, 0.0]);
        let solution = solver().maximize_coordinate(&drift, &x0, 2.0, 1).unwrap();
        // value = -∫_0^2 x0(t) dt with x0(t) = -t  → value = ∫ t dt = 2
        assert!((solution.objective_value() - 2.0).abs() < 1e-3);
        for value in solution
            .control()
            .values()
            .iter()
            .take(solution.control().values().len() - 1)
        {
            assert!((value[0] + 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn genuinely_switching_problem_beats_constant_controls() {
        // ẋ0 = ϑ·(1 - x0), ẋ1 = ϑ·x0 - x1, maximise x1(T): early high ϑ builds
        // x0, but x1 also decays, so the best constant control is not optimal
        // in general. The sweep must do at least as well as every constant ϑ.
        let theta = ParamSpace::single("rate", 0.5, 3.0).unwrap();
        let drift = FnDrift::new(
            2,
            theta.clone(),
            |x: &StateVec, th: &[f64], dx: &mut StateVec| {
                dx[0] = th[0] * (1.0 - x[0]);
                dx[1] = th[0] * x[0] - x[1];
            },
        );
        let x0 = StateVec::from([0.0, 0.0]);
        let horizon = 2.0;
        let solution = solver()
            .maximize_coordinate(&drift, &x0, horizon, 1)
            .unwrap();

        let inclusion = crate::inclusion::DifferentialInclusion::new(&drift);
        for candidate in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0] {
            let traj = inclusion
                .solve_constant(&[candidate], x0.clone(), horizon)
                .unwrap();
            assert!(
                solution.objective_value() >= traj.last_state()[1] - 1e-4,
                "constant ϑ = {candidate} beats the sweep"
            );
        }
    }

    #[test]
    fn input_validation() {
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let s = solver();
        assert!(s
            .solve(
                &drift,
                &StateVec::from([1.0, 2.0]),
                1.0,
                LinearObjective::maximize_coordinate(1, 0)
            )
            .is_err());
        assert!(s
            .solve(
                &drift,
                &x0,
                -1.0,
                LinearObjective::maximize_coordinate(1, 0)
            )
            .is_err());
        assert!(s
            .solve(
                &drift,
                &x0,
                1.0,
                LinearObjective::maximize(StateVec::from([1.0, 0.0]))
            )
            .is_err());
        assert_eq!(s.options().grid_intervals, 200);
    }

    #[test]
    fn jacobian_stencils_match_the_finite_difference_reference() {
        use mfu_num::jacobian::{finite_difference_jacobian_into, JacobianScratch};

        let theta = ParamSpace::new(vec![
            ("a", Interval::new(0.5, 3.0).unwrap()),
            ("b", Interval::new(0.5, 1.5).unwrap()),
        ])
        .unwrap();
        let drift = FnDrift::new(3, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -th[0] * x[0] * x[1] + th[1] * x[2];
            dx[1] = th[0] * x[0] * x[1] - x[1] / (1.0 + x[2] * x[2]);
            dx[2] = x[1].max(0.25) - th[1] * x[2] + 1e-300 / x[0].abs();
        });
        // the last point's `1e-300 / |x₀|` overflows the quotient
        let points = [
            ([0.7, 0.2, 0.1], [0.5, 1.5]),
            ([0.1, 0.25, 0.65], [3.0, 0.5]),
            ([0.3, 1.0, 0.0], [1.75, 1.0]),
            ([0.0, 0.5, 0.5], [0.5, 0.5]),
        ];
        let mut stencils = JacobianStencils::default();
        let mut batched = Jacobian::zeros(3, 3);
        let mut reference = Jacobian::zeros(3, 3);
        let mut scratch = JacobianScratch::new(3, 3);
        // one batch of all four stencils, then the same scratch reused for
        // a batch of the last two
        for first in [0, 2] {
            stencils.reset(3, 2, points.len() - first);
            for (s, (x, th)) in points[first..].iter().enumerate() {
                stencils.set(s, x, th);
            }
            stencils.evaluate(&drift);
            for (s, (x, th)) in points[first..].iter().enumerate() {
                let x = StateVec::from(*x);
                let ok = stencils.jacobian_into(s, &mut batched);
                let reference_ok = finite_difference_jacobian_into(
                    &mut |x: &StateVec, dx: &mut StateVec| drift.drift_into(x, th, dx),
                    &x,
                    JACOBIAN_STEP,
                    &mut reference,
                    &mut scratch,
                )
                .is_ok();
                assert_eq!(ok, reference_ok, "verdict at x = {x}");
                assert_eq!(ok, x[0] != 0.0, "verdict at x = {x}");
                if !ok {
                    continue;
                }
                for i in 0..3 {
                    for j in 0..3 {
                        assert_eq!(
                            batched.entry(i, j).to_bits(),
                            reference.entry(i, j).to_bits(),
                            "entry ({i}, {j}) at x = {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_batched_switch_scan_replays_the_scalar_extremal_scan() {
        use crate::drift::{extremal_theta, hamiltonian};

        // Four vertices; `b` enters squared, so `b = ±1` tie and the scan
        // must keep the first strict maximum in candidate order.
        let theta = ParamSpace::new(vec![
            ("a", Interval::new(1.0, 2.0).unwrap()),
            ("b", Interval::new(-1.0, 1.0).unwrap()),
        ])
        .unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0] - th[1] * th[1] * x[1];
            dx[1] = -x[1] / x[0] + th[1];
        });
        let candidates = theta_candidates(&drift);
        let n = 9;
        let state: Vec<StateVec> = (0..=n)
            .map(|k| StateVec::from([0.1 * k as f64, 0.5 - 0.05 * k as f64]))
            .collect();
        let mut costate: Vec<StateVec> = (0..=n)
            .map(|k| StateVec::from([1.0 - 0.3 * k as f64, 0.2 * k as f64 - 0.9]))
            .collect();
        // a NaN costate scores every candidate NaN: no maximiser
        costate[5][1] = f64::NAN;
        // a zero costate scores every candidate ±0: only the first is kept
        costate[7] = StateVec::zeros(2);
        costate[8] = StateVec::zeros(2);
        let control: Vec<Vec<f64>> = (0..=n)
            .map(|k| match k % 3 {
                0 => drift.params().midpoint(),
                1 => candidates[k % candidates.len()].clone(),
                _ => candidates[0].clone(),
            })
            .collect();

        let mut expected = Vec::new();
        let mut midpoint = StateVec::zeros(2);
        let mut buffer = StateVec::zeros(2);
        for k in 0..n {
            half_sum_into(&costate[k], &costate[k + 1], &mut midpoint);
            let (theta_star, best) = extremal_theta(&drift, &state[k], &midpoint);
            if theta_star != control[k] {
                let gain =
                    best - hamiltonian(&drift, &state[k], &midpoint, &control[k], &mut buffer);
                if gain > 0.0 {
                    expected.push((gain.to_bits(), k, theta_star));
                }
            }
        }
        assert!(expected.len() >= 3, "only {} switches", expected.len());

        let mut scan = SwitchScan::default();
        let mut switches = Vec::new();
        // twice through the same scratch
        for _ in 0..2 {
            scan.collect(
                &drift,
                &candidates,
                &state,
                &control,
                &costate,
                &mut switches,
            );
            let batched: Vec<_> = switches
                .iter()
                .map(|&(gain, k, index)| (gain.to_bits(), k, candidates[index].clone()))
                .collect();
            assert_eq!(batched, expected);
        }
    }

    #[test]
    fn solve_counters_satisfy_the_sweep_accounting() {
        // Per solve_from call over a grid of n intervals: one forward pass
        // under the start control (n steps), then every sweep does a
        // backward RK4 pass (n steps) with n Jacobian evaluations, and one
        // forward trial pass (n steps) per tried switch set. Every step
        // counts in rk4_steps, whether integrated or reused (a trial's
        // prefix before its first switched interval, a first pass an
        // earlier objective integrated). A converged start accepted a trial
        // in every sweep but its last, so its accepted trials plus its
        // start pass number its sweeps. Hence jacobian_evals == sweeps·n
        // and rk4_steps == 2·jacobian_evals + rejected_steps·n.
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let obs = Obs::with_metrics();
        let solver = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 200,
            multi_start: true,
            ..Default::default()
        })
        .with_obs(obs.clone());
        let objectives = [
            LinearObjective::maximize_coordinate(1, 0),
            LinearObjective::minimize_coordinate(1, 0),
        ];
        solver.solve_all(&drift, &x0, 1.0, &objectives).unwrap();

        let snapshot = obs.metrics.snapshot().unwrap();
        let restarts = snapshot.counter(Counter::CorePontryaginRestarts);
        let sweeps = snapshot.counter(Counter::CorePontryaginSweeps);
        let jacobians = snapshot.counter(Counter::CoreJacobianEvals);
        let rk4 = snapshot.counter(Counter::CoreRk4Steps);
        let reused = snapshot.counter(Counter::CorePontryaginReusedSteps);
        let rejected = snapshot.counter(Counter::CorePontryaginRejectedSteps);
        // midpoint + both vertices of the single interval, per objective
        assert_eq!(restarts, 6);
        assert!(sweeps >= restarts, "each restart sweeps at least once");
        assert_eq!(jacobians, sweeps * 200);
        assert_eq!(rk4, 2 * jacobians + rejected * 200);
        // the minimum takes its three first passes from the maximum
        assert!(reused >= 3 * 200, "{reused} reused steps");
        assert!(reused < rk4, "{reused} of {rk4} steps reused");
        let winner = snapshot
            .gauge(Gauge::CorePontryaginWinningRestart)
            .expect("winner gauge set");
        assert!(winner < 3);
    }

    /// ẋ = (ϑ, ϑ·x₀) from the origin with ϑ ∈ [−1, 1], maximising x₁(1):
    /// a local extremal at ϑ ≡ 0, where every Hamiltonian gain is 0, while
    /// either vertex reaches x₁(1) = 1/2.
    fn local_extremal_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("u", -1.0, 1.0).unwrap();
        FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0];
            dx[1] = th[0] * x[0];
        })
    }

    #[test]
    fn single_start_escalates_to_multi_start_on_suspicious_convergence() {
        // The midpoint sweep stops at x₁(1) = 0 after one backward pass; the
        // first vertex probe ϑ ≡ −1 reaches 1/2, exposing the local
        // extremal and forcing the ladder to escalate to the vertex starts.
        let obs = Obs::with_metrics();
        let solution = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 50,
            ..Default::default()
        })
        .with_obs(obs.clone())
        .maximize_coordinate(&local_extremal_drift(), &StateVec::zeros(2), 1.0, 1)
        .unwrap();
        assert!((solution.objective_value() - 0.5).abs() < 1e-9);
        assert!(solution.converged());
        let snapshot = obs.metrics.snapshot().unwrap();
        assert_eq!(snapshot.counter(Counter::CorePontryaginEscalations), 1);
        // midpoint start plus the two escalated vertex restarts
        assert_eq!(snapshot.counter(Counter::CorePontryaginRestarts), 3);
    }

    #[test]
    fn healthy_single_start_does_not_escalate() {
        let drift = decay_drift();
        let obs = Obs::with_metrics();
        let solution = solver()
            .with_obs(obs.clone())
            .maximize_coordinate(&drift, &StateVec::from([1.0]), 1.0, 0)
            .unwrap();
        assert!((solution.objective_value() - (-1.0f64).exp()).abs() < 1e-4);
        let snapshot = obs.metrics.snapshot().unwrap();
        assert_eq!(snapshot.counter(Counter::CorePontryaginEscalations), 0);
        assert_eq!(snapshot.counter(Counter::CorePontryaginRestarts), 1);
    }

    #[test]
    fn expired_deadline_still_returns_a_feasible_bound() {
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let s = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 50,
            budget: RunBudget::unlimited().wall_clock(std::time::Duration::ZERO),
            ..Default::default()
        });
        let obs = Obs::with_metrics();
        let solution = s
            .with_obs(obs.clone())
            .maximize_coordinate(&drift, &x0, 1.0, 0)
            .unwrap();
        // Only the midpoint start's forward pass ϑ ≡ 1.5 ran: no sweep, and
        // no vertex probe, so the ladder cannot escalate.
        assert_eq!(solution.iterations(), 0);
        assert!(!solution.converged());
        assert!(solution.truncated());
        assert!((solution.objective_value() - (-1.5f64).exp()).abs() < 1e-4);
        let snapshot = obs.metrics.snapshot().unwrap();
        assert_eq!(snapshot.counter(Counter::CoreRk4Steps), 50);
        assert_eq!(snapshot.counter(Counter::CorePontryaginEscalations), 0);

        // a deadline that never trips leaves the solve untruncated
        let s = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 50,
            budget: RunBudget::unlimited().wall_clock(std::time::Duration::from_secs(3600)),
            ..Default::default()
        });
        let solution = s.maximize_coordinate(&drift, &x0, 1.0, 0).unwrap();
        assert!(solution.converged());
        assert!(!solution.truncated());
    }

    #[test]
    fn forward_passes_stop_between_intervals_at_the_deadline() {
        // Every drift evaluation sleeps 1 ms, so each interval takes at
        // least 4 ms and at most 5 intervals start within a 20 ms budget.
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        let slow = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            dx[0] = -th[0] * x[0]
        });
        let grid = TimeGrid::new(0.0, 1.0, 200).unwrap();
        let control = vec![vec![1.5]; 201];
        let mut state = vec![StateVec::from([1.0]); 201];
        let mut rk4 = Rk4Scratch::new(1);
        let deadline = Instant::now() + std::time::Duration::from_millis(20);
        let mut steps = 0;
        let finished = forward_pass(
            &slow,
            grid.step(),
            &control,
            &mut state,
            &mut rk4,
            Some(deadline),
            &mut steps,
        );
        assert!(!finished.unwrap());
        assert!(steps <= 5, "{steps} of 200 intervals ran on a 20 ms budget");
        // without a deadline the pass runs to its end
        let mut steps = 0;
        let finished = forward_pass(
            &decay_drift(),
            grid.step(),
            &control,
            &mut state,
            &mut rk4,
            None,
            &mut steps,
        );
        assert!(finished.unwrap());
        assert_eq!(steps, 200);
        // a pass over the slices' tails from node 150 on is the full pass's
        // tail, bit for bit
        let full = state.clone();
        state[151..].fill(StateVec::from([f64::NAN]));
        let mut steps = 0;
        let finished = forward_pass(
            &decay_drift(),
            grid.step(),
            &control[150..],
            &mut state[150..],
            &mut rk4,
            None,
            &mut steps,
        );
        assert!(finished.unwrap());
        assert_eq!(steps, 50);
        assert!(state
            .iter()
            .zip(&full)
            .all(|(a, b)| a[0].to_bits() == b[0].to_bits()));
    }

    #[test]
    fn a_later_objective_integrates_again_a_first_pass_the_deadline_cut() {
        // On the local extremal drift the midpoint sweep never leaves ϑ ≡ 0,
        // where x₀ stays 0 (its Jacobian stencils reach x₀ = −1e-6), so
        // only a vertex probe evaluates the drift at x₀ < −1e-3: the RK4
        // stages of ϑ ≡ −1's first interval, at x₀ = −h/2 and −h. The
        // first three such evaluations sleep 150 ms: the first objective's
        // probe of ϑ ≡ −1 overruns its 300 ms budget within its first
        // interval and is cut, while the second objective's clock starts
        // afresh and its own probe of that vertex runs fast.
        let slow_evals = std::sync::atomic::AtomicUsize::new(0);
        let theta = ParamSpace::single("u", -1.0, 1.0).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            use std::sync::atomic::Ordering;
            if x[0] < -1e-3 && slow_evals.fetch_add(1, Ordering::Relaxed) < 3 {
                std::thread::sleep(std::time::Duration::from_millis(150));
            }
            dx[0] = th[0];
            dx[1] = th[0] * x[0];
        });
        let obs = Obs::with_metrics();
        let solver = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 50,
            budget: RunBudget::unlimited().wall_clock(std::time::Duration::from_millis(300)),
            ..Default::default()
        })
        .with_obs(obs.clone());
        let objective = LinearObjective::maximize_coordinate(2, 1);
        let solutions = solver
            .solve_all(
                &drift,
                &StateVec::zeros(2),
                1.0,
                &[objective.clone(), objective],
            )
            .unwrap();
        // the cut probe leaves the first objective at the midpoint sweep
        assert!(solutions[0].truncated());
        assert_eq!(solutions[0].objective_value(), 0.0);
        // the second probes ϑ ≡ −1 to the horizon and escalates
        assert!(!solutions[1].truncated());
        assert!((solutions[1].objective_value() - 0.5).abs() < 1e-9);
        let snapshot = obs.metrics.snapshot().unwrap();
        assert_eq!(snapshot.counter(Counter::CorePontryaginEscalations), 1);
        // the second objective reused only the midpoint's first pass
        assert_eq!(snapshot.counter(Counter::CorePontryaginReusedSteps), 50);
    }

    #[test]
    fn divergent_forward_sweep_reports_a_typed_diagnosis() {
        let theta = ParamSpace::single("rate", 200.0, 300.0).unwrap();
        let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0]
        });
        let s = PontryaginSolver::new(PontryaginOptions {
            grid_intervals: 50,
            ..Default::default()
        });
        let err = s
            .maximize_coordinate(&drift, &StateVec::from([1.0]), 3.0, 0)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Diverged {
                analysis: "pontryagin sweep",
                ..
            }
        ));
    }

    #[test]
    fn replaying_the_extremal_control_reproduces_the_objective() {
        let drift = decay_drift();
        let x0 = StateVec::from([1.0]);
        let solution = solver().maximize_coordinate(&drift, &x0, 1.0, 0).unwrap();
        let inclusion = crate::inclusion::DifferentialInclusion::new(&drift);
        let replay = inclusion
            .solve_fixed_step(&solution.control_signal(), x0, 1.0, 1e-3)
            .unwrap();
        assert!((replay.last_state()[0] - solution.objective_value()).abs() < 1e-4);
    }
}
