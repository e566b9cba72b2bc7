//! Exact stochastic simulation (Gillespie / SSA) of population models.
//!
//! The simulator interprets a [`PopulationModel`] at a finite scale `N`: the
//! state is the vector of integer counts, transition `k` fires at rate
//! `N·β_k(x, ϑ)` where `x` is the normalised state, and the parameter signal
//! `ϑ(t)` is produced by a [`ParameterPolicy`]
//! queried at every event. This is exactly the finite-`N` imprecise
//! population process whose `N → ∞` behaviour the paper characterises.
//!
//! # Propensity maintenance
//!
//! The naive SSA loop re-evaluates all `K` transition rates after every
//! event — `O(K)` rate evaluations where `O(affected)` suffice. The
//! simulator therefore precomputes a *dependency graph* from the
//! stoichiometry and the per-transition species supports (known for rates
//! compiled by `mfu-lang`, or declared via
//! [`TransitionClass::with_species_support`](mfu_ctmc::transition::TransitionClass::with_species_support)):
//! after transition `k` fires, only the transitions whose rate reads a
//! species changed by `k` are re-evaluated, and the propensity total is
//! re-summed over the rate array in index order. The total therefore
//! depends only on the current rates, so a run is *bit-identical* to the
//! naive loop: a transition of unknown support depends on everything, and a
//! model whose supports are all unknown re-evaluates every rate after every
//! event (`tests/ssa_dependency.rs` compares every registry scenario with
//! such a dense twin).
//!
//! # Event selection
//!
//! The transition count fixes the per-event selector
//! ([`SelectorKind::for_transitions`]): the `O(K)` roulette scan up to 64
//! transitions, an `O(log K)` partial-sum tree above — see the
//! [`selection`](crate::selection) module for the data structures and the
//! ulp policy. Constant parameter policies additionally declare themselves
//! via [`ParameterPolicy::is_constant`], letting the simulator query ϑ once
//! per run instead of once per event.
//!
//! # τ-leaping
//!
//! [`Simulator::simulate`] is also the entry point of a single τ-leap run
//! ([`SimulationAlgorithm::TauLeap`]). That run does not use the machinery
//! above: it goes to the lockstep engine of [`crate::lockstep`] as a group
//! of one, the same engine `run_ensemble` feeds wider groups, so a lone run
//! and lane `k` of an ensemble group are one computation.

use mfu_ctmc::population::PopulationModel;
use mfu_ctmc::transition::apply_firings;
use mfu_guard::{BudgetTracker, FaultPlan, Outcome, RunBudget, TruncationReason};
use mfu_num::ode::Trajectory;
use mfu_num::StateVec;
use mfu_obs::{Counter, Field, Metrics, Obs};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::lockstep::simulate_tau_leap_lockstep;
use crate::policy::ParameterPolicy;
use crate::selection::{Selector, SelectorKind};
use crate::tauleap::TauLeapOptions;
use crate::{Result, SimError};

/// Which stochastic simulation algorithm a run uses.
///
/// [`SimulationAlgorithm::Exact`] is the event-by-event Gillespie SSA —
/// statistically exact at any scale, but `O(N)` events per unit time.
/// [`SimulationAlgorithm::TauLeap`] is the explicit τ-leaping
/// approximation of the [`tauleap`](crate::tauleap) module, run by the
/// [`lockstep`](crate::lockstep) engine: many firings per step under the
/// Cao–Gillespie step-size bound, making the large-`N` regime (where the
/// paper's mean-field guarantees bite) affordable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimulationAlgorithm {
    /// Event-by-event exact SSA (the default).
    Exact,
    /// Explicit τ-leaping with adaptive step selection.
    TauLeap(TauLeapOptions),
}

impl std::fmt::Display for SimulationAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationAlgorithm::Exact => f.write_str("exact"),
            SimulationAlgorithm::TauLeap(options) => {
                write!(f, "tau-leap:{}", options.epsilon)
            }
        }
    }
}

/// The event cap of a run whose [`RunBudget::max_events`] is unset.
pub const DEFAULT_MAX_EVENTS: usize = 50_000_000;

/// Options controlling a single stochastic simulation run.
///
/// A policy value outside the model's parameter space is always an error
/// ([`SimError::PolicyOutOfRange`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationOptions {
    /// Time horizon of the simulation.
    pub t_end: f64,
    /// Record one trajectory point every `record_stride` events (the initial
    /// and final states are always recorded).
    pub record_stride: usize,
    /// When set, record at most one trajectory point per `record_interval`
    /// time units (combined with `record_stride`, both conditions must hold).
    /// This bounds memory usage for long runs at large `N`.
    pub record_interval: Option<f64>,
    /// Which simulation algorithm the run uses (defaults to the exact
    /// event-by-event SSA; see [`SimulationAlgorithm::TauLeap`] for the
    /// approximate large-`N` engine).
    pub algorithm: SimulationAlgorithm,
    /// Resource budget for the run: an optional wall-clock deadline and the
    /// event cap ([`DEFAULT_MAX_EVENTS`] when unset). A tripped budget
    /// truncates the run gracefully: the engine returns `Ok` with the
    /// trajectory-so-far and [`SimulationRun::outcome`] reporting the reason.
    /// An untripped budget never perturbs the run — budget checks touch
    /// neither the RNG nor any float, so trajectories stay bit-identical.
    pub budget: RunBudget,
}

impl SimulationOptions {
    /// Creates options for a run over `[0, t_end]` with default budgets.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is not positive and finite.
    pub fn new(t_end: f64) -> Self {
        assert!(
            t_end > 0.0 && t_end.is_finite(),
            "t_end must be positive and finite"
        );
        SimulationOptions {
            t_end,
            record_stride: 1,
            record_interval: None,
            algorithm: SimulationAlgorithm::Exact,
            budget: RunBudget::unlimited(),
        }
    }

    /// Selects the simulation algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: SimulationAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Shorthand for selecting τ-leaping with the given options.
    #[must_use]
    pub fn tau_leap(self, options: TauLeapOptions) -> Self {
        self.algorithm(SimulationAlgorithm::TauLeap(options))
    }

    /// Sets the recording stride.
    #[must_use]
    pub fn record_stride(mut self, stride: usize) -> Self {
        self.record_stride = stride.max(1);
        self
    }

    /// Records at most one trajectory point per `interval` time units.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    #[must_use]
    pub fn record_interval(mut self, interval: f64) -> Self {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "record interval must be positive"
        );
        self.record_interval = Some(interval);
        self
    }

    /// Sets the resource budget (wall clock and events).
    ///
    /// Tripped budgets truncate gracefully — see
    /// [`SimulationOptions::budget`].
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The run's event cap: the budget's, or [`DEFAULT_MAX_EVENTS`] when
    /// the budget leaves it unset.
    pub(crate) fn max_events(&self) -> usize {
        self.budget.max_events.map_or(DEFAULT_MAX_EVENTS, |cap| {
            usize::try_from(cap).unwrap_or(usize::MAX)
        })
    }
}

/// Recording policy shared by the exact and τ-leap engines: a trajectory
/// point is pushed after a step when both the stride and the (optional)
/// minimum-interval condition hold. Keeping the logic in one place is
/// what makes the two engines' recording behaviour identical by
/// construction.
pub(crate) struct Recorder {
    stride: usize,
    interval: Option<f64>,
    next_time: f64,
}

impl Recorder {
    pub(crate) fn new(options: &SimulationOptions) -> Self {
        Recorder {
            stride: options.record_stride,
            interval: options.record_interval,
            next_time: options.record_interval.map_or(0.0, |dt| dt),
        }
    }

    pub(crate) fn should_record(&mut self, steps: usize, t: f64) -> bool {
        let stride_ok = steps.is_multiple_of(self.stride);
        let interval_ok = match self.interval {
            None => true,
            Some(dt) => {
                if t >= self.next_time {
                    self.next_time += dt * ((t - self.next_time) / dt).floor().max(0.0) + dt;
                    true
                } else {
                    false
                }
            }
        };
        stride_ok && interval_ok
    }
}

/// Per-run internals counted by the engines.
///
/// Both engines accumulate these in plain run-local `u64`s
/// *unconditionally* — register increments cost nothing measurable next
/// to a rate evaluation — and flush them into an enabled
/// [`Metrics`] handle once per run. The counters are
/// therefore (a) deterministic in the seed, (b) available on every
/// [`SimulationRun`] even with observability off, and (c) incapable of
/// perturbing the simulation: nothing here touches the RNG or any float.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Transition firings (exact jumps, or τ-leap steps plus fallback SSA
    /// steps) — equals [`SimulationRun::events`].
    pub events_fired: u64,
    /// Individual rate evaluations (exact-engine maintenance, τ-leap
    /// rescans and fallback-burst rescans alike).
    pub propensity_evals: u64,
    /// Rate evaluations avoided by the dependency graph (transitions left
    /// untouched after a firing).
    pub propensity_skips: u64,
    /// Accepted τ-leap steps.
    pub tau_leap_steps: u64,
    /// τ-halvings forced by the negative-population guard.
    pub tau_halvings: u64,
    /// Exact-SSA fallback bursts entered by the τ-leap engine.
    pub tau_fallback_bursts: u64,
    /// Individual exact-SSA steps taken inside fallback bursts.
    pub tau_fallback_steps: u64,
    /// Poisson firing-count draws made by the τ-leap engine.
    pub poisson_draws: u64,
    /// Genuine (non-amortised) wall-clock reads performed by the run's
    /// budget tracker; zero when no wall-clock budget is set.
    pub budget_checks: u64,
    /// 1 when the τ-leap run demoted itself to exact SSA after repeated
    /// halvings, 0 otherwise.
    pub tau_demotions: u64,
}

impl SimCounters {
    /// Adds every counter into an enabled metrics handle (no-op when the
    /// handle is disabled) and bumps the run count.
    pub fn flush_to(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        metrics.add(Counter::SimEventsFired, self.events_fired);
        metrics.add(Counter::SimPropensityEvals, self.propensity_evals);
        metrics.add(Counter::SimPropensitySkips, self.propensity_skips);
        metrics.add(Counter::SimTauLeapSteps, self.tau_leap_steps);
        metrics.add(Counter::SimTauHalvings, self.tau_halvings);
        metrics.add(Counter::SimTauFallbackBursts, self.tau_fallback_bursts);
        metrics.add(Counter::SimTauFallbackSteps, self.tau_fallback_steps);
        metrics.add(Counter::SimPoissonDraws, self.poisson_draws);
        metrics.add(Counter::SimBudgetChecks, self.budget_checks);
        metrics.add(Counter::SimTauDemotions, self.tau_demotions);
        metrics.add(Counter::SimRuns, 1);
    }
}

/// The result of one stochastic simulation run.
#[derive(Debug, Clone)]
pub struct SimulationRun {
    trajectory: Trajectory,
    events: usize,
    final_counts: Vec<i64>,
    counters: SimCounters,
    selector: SelectorKind,
    outcome: Outcome,
}

impl SimulationRun {
    /// Assembles a run from its parts (used by the exact engine here and
    /// the τ-leap engine in [`lockstep`](crate::lockstep)).
    pub(crate) fn from_parts(
        trajectory: Trajectory,
        events: usize,
        final_counts: Vec<i64>,
        counters: SimCounters,
        selector: SelectorKind,
        outcome: Outcome,
    ) -> Self {
        SimulationRun {
            trajectory,
            events,
            final_counts,
            counters,
            selector,
            outcome,
        }
    }

    /// The recorded trajectory of *normalised* states.
    pub fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Number of CTMC events simulated.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Final integer counts.
    pub fn final_counts(&self) -> &[i64] {
        &self.final_counts
    }

    /// The run's internal counters (always populated, observability on or
    /// off — see [`SimCounters`]).
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// The transition selector the run used: fixed by the transition count
    /// for the exact engine ([`SelectorKind::for_transitions`]), always
    /// [`SelectorKind::Linear`] for τ-leap fallback bursts.
    pub fn selector(&self) -> SelectorKind {
        self.selector
    }

    /// How the run ended: [`Outcome::Completed`], or
    /// [`Outcome::Truncated`] when a [`RunBudget`] cap tripped. A truncated
    /// run still holds the full trajectory, counts, and counters up to
    /// `reached_t` — work is never discarded.
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// True when the run stopped early because a budget cap tripped.
    pub fn is_truncated(&self) -> bool {
        self.outcome.is_truncated()
    }

    /// The run as a full-horizon result: a truncated run becomes
    /// [`SimError::Truncated`]. Aggregating engines (ensemble grids,
    /// steady-state sampling) need the whole horizon, where a prefix is not
    /// a meaningful result.
    pub(crate) fn require_completed(&self) -> Result<()> {
        match self.outcome {
            Outcome::Completed => Ok(()),
            Outcome::Truncated { reason, reached_t } => Err(SimError::Truncated {
                reason,
                events: self.events,
                reached: reached_t,
            }),
        }
    }

    /// Consumes the run and returns its trajectory.
    pub fn into_trajectory(self) -> Trajectory {
        self.trajectory
    }
}

/// Exact stochastic simulator for a population model at a fixed scale.
#[derive(Debug, Clone)]
pub struct Simulator {
    model: PopulationModel,
    scale: usize,
    /// `sparse_jumps[k]` — the nonzero entries of transition `k`'s integer
    /// jump vector as `(species, change)` pairs, so applying an event costs
    /// `O(species changed)` instead of `O(dim)` (a real cost on generated
    /// models with hundreds of species).
    sparse_jumps: Vec<Vec<(usize, i64)>>,
    /// `dependencies[k]` — sorted indices of the transitions whose rate may
    /// change when transition `k` fires (those whose species support meets
    /// the species listed in `sparse_jumps[k]`; transitions with unknown support
    /// are conservatively included everywhere).
    dependencies: Vec<Vec<usize>>,
    /// Observability handle; defaults to disabled ([`Obs::none`]). Runs
    /// flush their [`SimCounters`] into it and emit run-summary trace
    /// events — never per-event records.
    obs: Obs,
    /// Deterministic fault-injection schedule; `None` (the default) costs a
    /// single branch per rate evaluation and leaves the run untouched.
    fault_plan: Option<FaultPlan>,
}

impl Simulator {
    /// Creates a simulator for `model` at population scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns an error if `scale == 0`.
    pub fn new(model: PopulationModel, scale: usize) -> Result<Self> {
        if scale == 0 {
            return Err(SimError::invalid_input("population scale must be positive"));
        }
        let jumps: Vec<Vec<i64>> = model
            .transitions()
            .iter()
            .map(|t| t.change().iter().map(|&v| v.round() as i64).collect())
            .collect();
        let sparse_jumps: Vec<Vec<(usize, i64)>> = model
            .transitions()
            .iter()
            .map(mfu_ctmc::transition::TransitionClass::sparse_integer_changes)
            .collect();
        let dependencies = build_dependency_graph(&model, &jumps);
        Ok(Simulator {
            model,
            scale,
            sparse_jumps,
            dependencies,
            obs: Obs::none(),
            fault_plan: None,
        })
    }

    /// Attaches an observability bundle: run counters flush into
    /// `obs.metrics` and run summaries (plus τ-leap guard events) go to
    /// `obs.tracer`. Simulation results are bit-identical with any `obs`,
    /// enabled or not — the engines count into plain locals and only
    /// flush after the trajectory is complete.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability bundle (shared with the τ-leap engine).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Arms a deterministic fault-injection schedule (testing facility).
    ///
    /// Faults are applied at the rate-evaluation and policy boundaries,
    /// keyed on the number of events fired — see [`FaultPlan`]. An injected
    /// NaN or negative rate surfaces as the same span-attributed
    /// [`SimError::InvalidRate`] a genuinely broken model would produce,
    /// which is exactly what the fault-injection harness asserts on.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The armed fault plan, if any (shared with the τ-leap engine).
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The underlying population model.
    pub fn model(&self) -> &PopulationModel {
        &self.model
    }

    /// The population scale `N`.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The transition dependency graph: entry `k` lists the transitions
    /// re-evaluated after transition `k` fires.
    pub fn dependency_graph(&self) -> &[Vec<usize>] {
        &self.dependencies
    }

    /// The precomputed sparse `(species, change)` jump lists, one per
    /// transition (shared with the τ-leap engine, which scales them by
    /// Poisson firing counts).
    pub(crate) fn sparse_jumps(&self) -> &[Vec<(usize, i64)>] {
        &self.sparse_jumps
    }

    /// `true` when the dependency graph actually prunes work, i.e. at least
    /// one transition affects a strict subset of the others. Models whose
    /// rates all have unknown support re-evaluate every rate after every
    /// event.
    pub fn has_sparse_dependencies(&self) -> bool {
        let n = self.model.transitions().len();
        self.dependencies.iter().any(|d| d.len() < n)
    }

    /// Runs one replication with a fresh RNG seeded by `seed`.
    ///
    /// The exact algorithm runs here. A τ-leap replication runs on the
    /// lockstep engine as a group of one ([`simulate_tau_leap_lockstep`]),
    /// so a single run and lane `k` of an ensemble group are the same
    /// computation.
    ///
    /// # Errors
    ///
    /// Returns an error if the initial counts have the wrong dimension or are
    /// negative, if a rate is invalid, or if the policy leaves the parameter
    /// space. An exhausted budget (events or wall-clock) is *not* an error:
    /// the run returns `Ok` with [`SimulationRun::outcome`] set to
    /// [`Outcome::Truncated`] and the trajectory-so-far intact.
    pub fn simulate(
        &self,
        initial_counts: &[i64],
        policy: &mut dyn ParameterPolicy,
        options: &SimulationOptions,
        seed: u64,
    ) -> Result<SimulationRun> {
        if let SimulationAlgorithm::TauLeap(_) = options.algorithm {
            let mut runs =
                simulate_tau_leap_lockstep(self, initial_counts, vec![policy], options, &[seed])?;
            return runs.pop().expect("a group of one yields one run");
        }
        self.check_counts(initial_counts)?;
        let rng = &mut StdRng::seed_from_u64(seed);
        policy.reset();

        let dim = self.model.dim();
        let n_transitions = self.model.transitions().len();
        let scale = self.scale as f64;

        let mut counts = initial_counts.to_vec();
        let mut x: StateVec = counts.iter().map(|&c| c as f64 / scale).collect();
        let mut t = 0.0_f64;
        let mut events = 0usize;
        let mut rates = vec![0.0_f64; n_transitions];
        // Run-local observability counters, maintained unconditionally
        // (see `SimCounters`): nothing here reads the obs handle, so the
        // numerical path is byte-for-byte the same with metrics on or off.
        let mut tally = SimCounters::default();
        // Budget enforcement: an exhausted cap breaks out of the loop with a
        // truncated outcome instead of erroring, so the prefix survives.
        // Neither check touches the RNG or any float.
        let max_events = options.max_events();
        let mut tracker = BudgetTracker::start(&options.budget);
        let mut outcome = Outcome::Completed;

        let mut trajectory = Trajectory::new(dim);
        trajectory.push(0.0, x.clone())?;
        let mut recorder = Recorder::new(options);

        // Propensity bookkeeping: `pending` is the fired transition whose
        // dependents may hold stale rates, `last_theta` detects parameter
        // moves, which rescan every rate (NaN never compares equal, so the
        // first iteration always rescans).
        let mut pending: Option<usize> = None;
        let mut last_theta: Vec<f64> = vec![f64::NAN; self.model.params().dim()];

        // Transition selection: the transition count fixes the selector,
        // whose structures are kept in lockstep with `rates`.
        let mut selector = Selector::new(n_transitions);

        // Constant policies are queried once (first iteration); everything
        // else is queried at every event, as before. A fault plan with
        // policy faults disables the short-circuit — the injected jump must
        // be observed at its scheduled event count.
        let policy_constant = policy.is_constant()
            && !self
                .fault_plan
                .as_ref()
                .is_some_and(FaultPlan::has_policy_faults);
        let mut theta: Vec<f64> = Vec::new();
        let mut theta_known = false;

        loop {
            // Query the policy and validate its output.
            let theta_changed = if theta_known && policy_constant {
                false
            } else {
                let mut theta_raw = policy.value(t, &x, rng);
                if let Some(plan) = &self.fault_plan {
                    plan.perturb_params(events as u64, &mut theta_raw);
                }
                if !self.model.params().contains(&theta_raw) {
                    return Err(SimError::PolicyOutOfRange { time: t });
                }
                theta = theta_raw;
                theta_known = true;
                theta != last_theta
            };

            // Maintain the propensities: a parameter move rescans every
            // rate, an event re-evaluates the fired transition's dependents.
            if theta_changed {
                for (k, rate) in rates.iter_mut().enumerate() {
                    *rate = self.eval_rate(k, &x, &theta, t, events as u64)?;
                }
                tally.propensity_evals += n_transitions as u64;
                selector.rebuild(&rates);
                last_theta.clone_from(&theta);
            } else if let Some(fired) = pending {
                let touched = &self.dependencies[fired];
                for &m in touched {
                    rates[m] = self.eval_rate(m, &x, &theta, t, events as u64)?;
                    selector.update(m, rates[m]);
                }
                tally.propensity_evals += touched.len() as u64;
                tally.propensity_skips += (n_transitions - touched.len()) as u64;
            }
            pending = None;
            // Re-summed in index order, the total depends only on the
            // current rates, however they were maintained.
            let total: f64 = rates.iter().sum();

            if total <= 0.0 {
                // Absorbing state: nothing will ever fire again.
                break;
            }

            // Exponential waiting time.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let dt = -u.ln() / total;
            if t + dt >= options.t_end {
                break;
            }
            t += dt;

            // Choose which transition fires. A positive total has a
            // positive rate to select, so `None` only guards the absorbing
            // case; the selectors never fire a rate-0.0 transition.
            let Some(chosen) = selector.choose(&rates, total, rng) else {
                break;
            };

            // Apply the jump; a jump that would drive a count negative is
            // dropped (it can only happen when a rate does not vanish exactly
            // at the boundary due to floating-point noise). A dropped jump
            // leaves the state — and therefore every propensity — unchanged.
            // Only the touched coordinates are visited, so an event costs
            // `O(species changed)` rather than `O(dim)`; the untouched
            // normalised coordinates keep their bit-identical values.
            let jump = &self.sparse_jumps[chosen];
            if apply_firings(&mut counts, jump, 1) {
                for &(i, _) in jump {
                    x[i] = counts[i] as f64 / scale;
                }
                pending = Some(chosen);
            }

            events += 1;
            // The `t > last` guard covers pathological rate explosions where
            // `dt` underflows below the ulp of `t` and the clock stalls: the
            // sample still fires, but recording it would duplicate a time.
            if recorder.should_record(events, t) && t > trajectory.last_time() {
                trajectory.push(t, x.clone())?;
            }
            if events >= max_events {
                outcome = Outcome::Truncated {
                    reason: TruncationReason::MaxEvents,
                    reached_t: t,
                };
                break;
            }
            if tracker.expired() {
                outcome = Outcome::Truncated {
                    reason: TruncationReason::WallClock,
                    reached_t: t,
                };
                break;
            }
        }

        // A completed run pins the horizon point; a truncated run pins the
        // state actually reached so the prefix stays internally consistent.
        let pin_time = match outcome {
            Outcome::Completed => options.t_end,
            Outcome::Truncated { reached_t, .. } => reached_t,
        };
        if pin_time > trajectory.last_time() {
            trajectory.push(pin_time, x.clone())?;
        }

        tally.budget_checks = tracker.checks();
        tally.events_fired = events as u64;
        tally.flush_to(&self.obs.metrics);
        if self.obs.tracer.is_enabled() {
            self.obs.tracer.event(
                "sim_run",
                &[
                    ("algorithm", Field::Str("exact")),
                    ("t_end", Field::F64(options.t_end)),
                    ("events", Field::U64(tally.events_fired)),
                    ("propensity_evals", Field::U64(tally.propensity_evals)),
                    ("propensity_skips", Field::U64(tally.propensity_skips)),
                    ("selection", Field::Str(&selector.kind().to_string())),
                    ("outcome", Field::Str(&outcome.to_string())),
                ],
            );
        }

        Ok(SimulationRun::from_parts(
            trajectory,
            events,
            counts,
            tally,
            selector.kind(),
            outcome,
        ))
    }

    /// Checks that `counts` is a valid initial state: one non-negative count
    /// per species.
    pub(crate) fn check_counts(&self, counts: &[i64]) -> Result<()> {
        if counts.len() != self.model.dim() {
            return Err(SimError::invalid_input(format!(
                "expected {} initial counts, got {}",
                self.model.dim(),
                counts.len()
            )));
        }
        if counts.iter().any(|&c| c < 0) {
            return Err(SimError::invalid_input(
                "initial counts must be non-negative",
            ));
        }
        Ok(())
    }

    /// Evaluates the scaled propensity of transition `k`, validating the
    /// density at the rate-program boundary.
    ///
    /// A NaN, infinite, or negative density — whether produced by the model
    /// or injected by the armed [`FaultPlan`] — is reported as a
    /// span-attributed [`SimError::InvalidRate`] naming the transition and
    /// the simulated time, instead of poisoning downstream arithmetic.
    #[inline]
    pub(crate) fn eval_rate(
        &self,
        k: usize,
        x: &StateVec,
        theta: &[f64],
        t: f64,
        events: u64,
    ) -> Result<f64> {
        let class = &self.model.transitions()[k];
        let mut density = class.rate(x, theta);
        if let Some(plan) = &self.fault_plan {
            density = plan.perturb_rate(k, events, density);
        }
        if !mfu_guard::rate_is_healthy(density) {
            return Err(SimError::InvalidRate {
                rule: class.name().to_string(),
                time: t,
                value: density,
            });
        }
        Ok(density * self.scale as f64)
    }
}

/// Builds the transition dependency graph: `result[k]` lists (sorted) the
/// transitions whose rate reads at least one species with a nonzero entry in
/// `jumps[k]`. Transitions with unknown species support (unannotated native
/// closures) are included in every list, so the graph is always safe — just
/// not sparse.
fn build_dependency_graph(model: &PopulationModel, jumps: &[Vec<i64>]) -> Vec<Vec<usize>> {
    let transitions = model.transitions();
    let supports: Vec<Option<&[usize]>> = transitions.iter().map(|t| t.species_support()).collect();
    jumps
        .iter()
        .map(|jump| {
            (0..transitions.len())
                .filter(|&m| match supports[m] {
                    None => true,
                    Some(support) => support
                        .iter()
                        .any(|&i| jump.get(i).is_some_and(|&j| j != 0)),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConstantPolicy, HysteresisPolicy};
    use mfu_ctmc::params::{Interval, ParamSpace};
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

    /// A pure-death model that reaches an absorbing state.
    fn death_model() -> PopulationModel {
        let params = ParamSpace::single("rate", 1.0, 1.0).unwrap();
        PopulationModel::builder(1, params)
            .transition(TransitionClass::new(
                "die",
                [-1.0],
                |x: &StateVec, th: &[f64]| th[0] * x[0],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn simulation_respects_bounds_and_horizon() {
        let sim = Simulator::new(bike_model(), 50).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let run = sim
            .simulate(&[25], &mut policy, &SimulationOptions::new(20.0), 1)
            .unwrap();
        assert!(run.events() > 0);
        assert!((run.trajectory().last_time() - 20.0).abs() < 1e-12);
        for (_, state) in run.trajectory().iter() {
            assert!(state[0] >= 0.0 && state[0] <= 1.0);
        }
        assert!(*run.final_counts().iter().max().unwrap() <= 50);
    }

    #[test]
    fn absorbing_state_ends_simulation_early() {
        let sim = Simulator::new(death_model(), 20).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0]);
        let run = sim
            .simulate(&[20], &mut policy, &SimulationOptions::new(1_000.0), 3)
            .unwrap();
        assert_eq!(run.final_counts(), &[0]);
        assert!(run.events() == 20);
        assert!((run.trajectory().last_state()[0]).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let sim = Simulator::new(bike_model(), 30).unwrap();
        let options = SimulationOptions::new(5.0);
        let mut p1 = ConstantPolicy::new(vec![1.5, 0.8]);
        let mut p2 = ConstantPolicy::new(vec![1.5, 0.8]);
        let a = sim.simulate(&[10], &mut p1, &options, 99).unwrap();
        let b = sim.simulate(&[10], &mut p2, &options, 99).unwrap();
        assert_eq!(a.final_counts(), b.final_counts());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn out_of_box_policy_values_are_rejected() {
        let sim = Simulator::new(bike_model(), 10).unwrap();
        let mut policy = ConstantPolicy::new(vec![10.0, 1.0]); // outside [0.5, 2]
        let err = sim
            .simulate(&[5], &mut policy, &SimulationOptions::new(1.0), 1)
            .unwrap_err();
        assert!(matches!(err, SimError::PolicyOutOfRange { .. }));
    }

    #[test]
    fn input_validation() {
        let sim = Simulator::new(bike_model(), 10).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        assert!(sim
            .simulate(&[1, 2], &mut policy, &SimulationOptions::new(1.0), 1)
            .is_err());
        assert!(sim
            .simulate(&[-1], &mut policy, &SimulationOptions::new(1.0), 1)
            .is_err());
        assert!(Simulator::new(bike_model(), 0).is_err());
    }

    #[test]
    fn event_budget_truncates_gracefully_with_the_prefix_intact() {
        let sim = Simulator::new(bike_model(), 1000).unwrap();
        let mut policy = ConstantPolicy::new(vec![2.0, 2.0]);
        let options = SimulationOptions::new(100.0).budget(RunBudget::unlimited().max_events(50));
        let run = sim.simulate(&[500], &mut policy, &options, 5).unwrap();
        assert_eq!(run.events(), 50);
        let Outcome::Truncated { reason, reached_t } = run.outcome() else {
            panic!("budget-capped run completed");
        };
        assert_eq!(reason, TruncationReason::MaxEvents);
        assert!(reached_t > 0.0 && reached_t < 100.0);
        assert_eq!(run.trajectory().last_time(), reached_t);
        // The prefix is bit-identical to the uncapped run over [0, reached_t].
        let mut policy = ConstantPolicy::new(vec![2.0, 2.0]);
        let full = sim
            .simulate(&[500], &mut policy, &SimulationOptions::new(100.0), 5)
            .unwrap();
        assert!(!full.is_truncated());
        for ((ta, sa), (tb, sb)) in run.trajectory().iter().zip(full.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
    }

    #[test]
    fn the_budget_is_the_only_event_cap() {
        let cap = |budget: RunBudget| SimulationOptions::new(1.0).budget(budget).max_events();
        assert_eq!(cap(RunBudget::unlimited()), 50_000_000);
        assert_eq!(cap(RunBudget::unlimited().max_events(7)), 7);
        // a budget above the default raises the cap instead of being
        // silently clipped to it
        assert_eq!(
            cap(RunBudget::unlimited().max_events(60_000_000)),
            60_000_000
        );
    }

    #[test]
    fn wall_clock_budget_truncates_instead_of_hanging() {
        let sim = Simulator::new(bike_model(), 1000).unwrap();
        let mut policy = ConstantPolicy::new(vec![2.0, 2.0]);
        let options = SimulationOptions::new(1e9)
            .budget(mfu_guard::RunBudget::unlimited().wall_clock(std::time::Duration::ZERO));
        let run = sim.simulate(&[500], &mut policy, &options, 5).unwrap();
        assert_eq!(
            run.outcome().truncation(),
            Some(TruncationReason::WallClock)
        );
        assert!(run.counters().budget_checks > 0);
    }

    #[test]
    fn untripped_budget_is_bit_identical_to_no_budget() {
        let sim = Simulator::new(cycle_model(), 500).unwrap();
        let options = SimulationOptions::new(3.0);
        let guarded_options = options.budget(
            mfu_guard::RunBudget::unlimited()
                .wall_clock(std::time::Duration::from_secs(3600))
                .max_events(u64::MAX),
        );
        let mut policy = ConstantPolicy::new(vec![1.0]);
        let plain = sim
            .simulate(&[300, 100, 100], &mut policy, &options, 17)
            .unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0]);
        let guarded = sim
            .simulate(&[300, 100, 100], &mut policy, &guarded_options, 17)
            .unwrap();
        assert_eq!(plain.events(), guarded.events());
        assert_eq!(plain.final_counts(), guarded.final_counts());
        for ((ta, sa), (tb, sb)) in plain.trajectory().iter().zip(guarded.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
        assert!(guarded.counters().budget_checks > 0);
        assert_eq!(plain.counters().budget_checks, 0);
    }

    #[test]
    fn injected_nan_rate_surfaces_as_a_span_attributed_error() {
        let sim = Simulator::new(bike_model(), 1000).unwrap().with_fault_plan(
            mfu_guard::FaultPlan::new().inject(10, mfu_guard::FaultKind::NanRate { rule: 0 }),
        );
        let mut policy = ConstantPolicy::new(vec![2.0, 2.0]);
        let err = sim
            .simulate(&[500], &mut policy, &SimulationOptions::new(100.0), 5)
            .unwrap_err();
        let SimError::InvalidRate { rule, time, value } = err else {
            panic!("expected InvalidRate, got {err:?}");
        };
        assert_eq!(rule, "pickup");
        assert!(time > 0.0);
        assert!(value.is_nan());
    }

    #[test]
    fn record_stride_reduces_trajectory_size() {
        let sim = Simulator::new(bike_model(), 200).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let dense = sim
            .simulate(&[100], &mut policy, &SimulationOptions::new(5.0), 11)
            .unwrap();
        let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
        let sparse = sim
            .simulate(
                &[100],
                &mut policy,
                &SimulationOptions::new(5.0).record_stride(10),
                11,
            )
            .unwrap();
        assert!(sparse.trajectory().len() < dense.trajectory().len());
        assert_eq!(sparse.final_counts(), dense.final_counts());
    }

    #[test]
    fn feedback_policy_observes_the_simulated_state() {
        // A hysteresis policy on the bike model: pickups are fast while the
        // station is full, slow while it is empty — occupancy should hover
        // between the thresholds rather than drifting to a boundary.
        let sim = Simulator::new(bike_model(), 200).unwrap();
        let mut policy = HysteresisPolicy::new(vec![0.5, 1.0], 0, 0.5, 2.0, 0, 0.3, 0.7, true);
        let run = sim
            .simulate(&[100], &mut policy, &SimulationOptions::new(50.0), 17)
            .unwrap();
        let occupancy = run.trajectory().last_state()[0];
        assert!(
            occupancy > 0.05 && occupancy < 0.95,
            "occupancy {occupancy} drifted to a boundary"
        );
    }

    /// A cyclic 3-species migration model with annotated species supports,
    /// so the dependency graph is genuinely sparse.
    fn cycle_model() -> PopulationModel {
        cycle_model_annotated(true)
    }

    /// The cycle model, built with or without its species supports. Without
    /// them every rate depends on every species, so each event re-evaluates
    /// all three rates: the naive SSA loop the sparse graph must reproduce.
    fn cycle_model_annotated(annotated: bool) -> PopulationModel {
        let params = ParamSpace::new(vec![("rate", Interval::new(0.5, 2.0).unwrap())]).unwrap();
        let support = |class: TransitionClass, species: usize| {
            if annotated {
                class.with_species_support(vec![species])
            } else {
                class
            }
        };
        PopulationModel::builder(3, params)
            .variable_names(vec!["A", "B", "C"])
            .transition(support(
                TransitionClass::new("ab", [-1.0, 1.0, 0.0], |x: &StateVec, th: &[f64]| {
                    th[0] * x[0]
                }),
                0,
            ))
            .transition(support(
                TransitionClass::new("bc", [0.0, -1.0, 1.0], |x: &StateVec, _: &[f64]| 1.5 * x[1]),
                1,
            ))
            .transition(support(
                TransitionClass::new("ca", [1.0, 0.0, -1.0], |x: &StateVec, _: &[f64]| {
                    0.75 * x[2]
                }),
                2,
            ))
            .build()
            .unwrap()
    }

    /// Asserts two runs are the same computation: events, final counts and
    /// every trajectory point, bit for bit.
    fn assert_same_run(a: &SimulationRun, b: &SimulationRun, what: &str) {
        assert_eq!(a.events(), b.events(), "{what}: event counts diverged");
        assert_eq!(
            a.final_counts(),
            b.final_counts(),
            "{what}: counts diverged"
        );
        assert_eq!(a.trajectory().len(), b.trajectory().len(), "{what}");
        for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "{what}: time diverged");
            assert_eq!(sa.as_slice(), sb.as_slice(), "{what}: state diverged");
        }
    }

    #[test]
    fn dependency_graph_reflects_stoichiometry_and_support() {
        let sim = Simulator::new(cycle_model(), 100).unwrap();
        assert!(sim.has_sparse_dependencies());
        // firing `ab` changes A and B → re-evaluate `ab` (reads A) and `bc`
        // (reads B) but not `ca` (reads C only)
        assert_eq!(sim.dependency_graph()[0], vec![0, 1]);
        assert_eq!(sim.dependency_graph()[1], vec![1, 2]);
        assert_eq!(sim.dependency_graph()[2], vec![0, 2]);

        // unannotated closures degrade to conservative full lists
        let bike = Simulator::new(bike_model(), 100).unwrap();
        assert!(!bike.has_sparse_dependencies());
        assert_eq!(bike.dependency_graph()[0], vec![0, 1]);
    }

    #[test]
    fn sparse_dependencies_match_the_dense_reference_bit_for_bit() {
        let sparse = Simulator::new(cycle_model(), 300).unwrap();
        let dense = Simulator::new(cycle_model_annotated(false), 300).unwrap();
        assert!(!dense.has_sparse_dependencies());
        let options = SimulationOptions::new(25.0);
        for seed in [1, 7, 42] {
            let run = |sim: &Simulator| {
                let mut policy = ConstantPolicy::new(vec![1.25]);
                sim.simulate(&[150, 100, 50], &mut policy, &options, seed)
                    .unwrap()
            };
            let (s, d) = (run(&sparse), run(&dense));
            assert_same_run(&s, &d, &format!("seed {seed}"));

            // The dense reference evaluates all three rates in every round
            // (the events plus the final horizon check); the cycle model's
            // rates vanish exactly on the boundary, so no jump is dropped
            // and the sparse graph splits the same rounds into evaluations
            // and skips.
            let (sc, dc) = (s.counters(), d.counters());
            assert_eq!(dc.events_fired, d.events() as u64);
            assert_eq!(dc.propensity_evals, (d.events() as u64 + 1) * 3);
            assert_eq!(dc.propensity_skips, 0);
            assert_eq!(dc.tau_leap_steps, 0, "exact run took tau-leap steps");
            assert!(sc.propensity_skips > 0, "graph never skipped");
            assert_eq!(
                sc.propensity_evals + sc.propensity_skips,
                dc.propensity_evals
            );
        }
    }

    #[test]
    fn sparse_and_dense_agree_under_state_feedback_policies() {
        // A hysteresis policy moves ϑ mid-run, exercising the full rescan
        // that follows a parameter move on the sparse graph.
        let run = |annotated: bool| {
            let sim = Simulator::new(cycle_model_annotated(annotated), 300).unwrap();
            let mut policy = HysteresisPolicy::new(vec![2.0], 0, 0.5, 2.0, 0, 0.3, 0.45, true);
            sim.simulate(
                &[150, 100, 50],
                &mut policy,
                &SimulationOptions::new(25.0),
                23,
            )
            .unwrap()
        };
        let (sparse, dense) = (run(true), run(false));
        assert_same_run(&sparse, &dense, "hysteresis");
        // the policy switched, so the sparse run rescanned more than once
        assert!(sparse.counters().propensity_evals > 3 + sparse.events() as u64);
    }

    #[test]
    fn constant_policy_short_circuit_matches_per_event_queries() {
        // `is_constant` lets the simulator query the policy once; the run
        // must be bit-identical to a policy returning the same constant
        // without the promise (queried every event, consuming no RNG).
        let sim = Simulator::new(cycle_model(), 200).unwrap();
        let options = SimulationOptions::new(15.0);
        let mut constant = ConstantPolicy::new(vec![1.5]);
        assert!(constant.is_constant());
        let mut queried = crate::policy::TimeFunctionPolicy::new("const", |_| vec![1.5]);
        assert!(!queried.is_constant());
        let a = sim
            .simulate(&[100, 60, 40], &mut constant, &options, 31)
            .unwrap();
        let b = sim
            .simulate(&[100, 60, 40], &mut queried, &options, 31)
            .unwrap();
        assert_eq!(a.events(), b.events());
        assert_eq!(a.final_counts(), b.final_counts());
        for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
    }

    #[test]
    fn runs_report_their_selector() {
        let sim = Simulator::new(cycle_model(), 300).unwrap();
        let mut policy = ConstantPolicy::new(vec![1.25]);
        let run = sim
            .simulate(
                &[150, 100, 50],
                &mut policy,
                &SimulationOptions::new(5.0),
                1,
            )
            .unwrap();
        // 3 transitions: the linear scan
        assert_eq!(run.selector(), SelectorKind::Linear);
    }

    #[test]
    fn metrics_flush_matches_run_counters_and_leaves_run_bit_identical() {
        use mfu_obs::Counter;

        let plain = Simulator::new(cycle_model(), 300).unwrap();
        let observed = plain.clone().with_obs(Obs::with_metrics());
        let options = SimulationOptions::new(15.0);
        let run_with = |sim: &Simulator| {
            let mut policy = ConstantPolicy::new(vec![1.25]);
            sim.simulate(&[150, 100, 50], &mut policy, &options, 13)
                .unwrap()
        };
        let a = run_with(&plain);
        let b = run_with(&observed);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.final_counts(), b.final_counts());
        for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice(), sb.as_slice());
        }
        assert_eq!(a.counters(), b.counters());
        let snap = observed.obs().metrics.snapshot().unwrap();
        assert_eq!(
            snap.counter(Counter::SimEventsFired),
            b.counters().events_fired
        );
        assert_eq!(
            snap.counter(Counter::SimPropensityEvals),
            b.counters().propensity_evals
        );
        assert_eq!(snap.counter(Counter::SimRuns), 1);
    }

    #[test]
    fn mean_of_many_runs_tracks_mean_field() {
        // For the symmetric bike model the mean-field fixed point is 0.5; the
        // empirical mean over replications at moderate N should be close.
        let sim = Simulator::new(bike_model(), 100).unwrap();
        let options = SimulationOptions::new(30.0).record_stride(64);
        let mut sum = 0.0;
        let replications = 20;
        for seed in 0..replications {
            let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
            let run = sim.simulate(&[100], &mut policy, &options, seed).unwrap();
            sum += run.trajectory().last_state()[0];
        }
        let mean = sum / replications as f64;
        assert!(
            (mean - 0.5).abs() < 0.15,
            "empirical mean {mean} far from mean field 0.5"
        );
    }
}
