//! The τ-leap engine: replications advance in lockstep and share their
//! propensity rescans.
//!
//! A τ-leap run spends essentially all of its time in full propensity
//! rescans — `K` rate-program evaluations per leap and per fallback SSA
//! step. An ensemble runs many such trajectories with the *same* rate
//! programs, so the rescans of different replications are the same
//! instruction stream applied to different states: exactly the shape the
//! `mfu-lang` VM's batched SoA mode (`RateProgram::eval_batch_into`)
//! accelerates.
//!
//! [`simulate_tau_leap_lockstep`] advances a group of replications
//! ("lanes") as independent state machines that pause whenever they need
//! a propensity rescan. Each round, the driver gathers the paused lanes'
//! states and per-lane parameter vectors into one [`SoaBatch`], performs
//! a single batched evaluation per transition class, and hands each lane
//! its row of results to resume on. Everything *between* rescans — policy
//! queries, Poisson draws, τ selection ([`crate::tauleap`]), guards,
//! recording — runs per lane with that lane's own RNG stream.
//!
//! This is the only τ-leap engine. [`Simulator::simulate`] runs a τ-leap
//! replication as a group of one, and [`crate::ensemble::run_ensemble`]
//! runs groups of up to 64 per worker. The rescan shape follows the width
//! a round observes: a round with a single paused lane — a group of one,
//! or the last lane still running in a wider group — calls each class's
//! scalar `rate` directly and skips the SoA gather, which has nothing to
//! share at width 1.
//!
//! # Bit-identity contract
//!
//! Lane `i` of a lockstep group produces a [`SimulationRun`] (trajectory,
//! final counts, outcome, and every [`SimCounters`] field) bit-identical
//! to `simulator.simulate(...)` — a group of one — with the same seed,
//! policy, and options. This holds because (a) the batched VM guarantees
//! each lane of `eval_batch_into` equals the scalar `eval` bit-for-bit,
//! and (b) no other lane state feeds into a lane's arithmetic — lanes only
//! *pause together*. The only observable differences are scheduling-level:
//! trace events of different replications interleave, and wall-clock
//! budgets (if armed) see different real-time profiles, exactly as they do
//! across machines.

use mfu_ctmc::transition::{accumulate_firings, apply_firings};
use mfu_guard::{BudgetTracker, Outcome, TruncationReason};
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::ode::Trajectory;
use mfu_num::StateVec;
use rand::poisson;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mfu_obs::Field;

use crate::gillespie::{
    Recorder, SimCounters, SimulationAlgorithm, SimulationOptions, SimulationRun, Simulator,
};
use crate::policy::ParameterPolicy;
use crate::selection::{linear_select, SelectorKind};
use crate::tauleap::{
    reactant_orders, select_tau, TauLeapOptions, DEMOTE_AFTER_HALVINGS, SSA_BURST, SSA_THRESHOLD,
};
use crate::{Result, SimError};

/// Shared per-group context threaded through the lane state machines.
struct Ctx<'a> {
    simulator: &'a Simulator,
    options: &'a SimulationOptions,
    leap: &'a TauLeapOptions,
    sparse_jumps: &'a [Vec<(usize, i64)>],
    orders: &'a [f64],
    scale: f64,
    max_events: usize,
    n_transitions: usize,
}

/// Which rescan a paused lane is waiting for; determines the pre-rescan
/// policy query and the post-rescan continuation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Leap start: rescan, then select τ.
    Outer,
    /// Inside an exact-SSA fallback burst: rescan, then one exact step.
    Burst,
}

/// One replication advancing in lockstep with its group.
struct Lane<P> {
    phase: Phase,
    rng: StdRng,
    policy: P,
    policy_constant: bool,
    theta: Vec<f64>,
    theta_known: bool,
    counts: Vec<i64>,
    x: StateVec,
    t: f64,
    steps: usize,
    tally: SimCounters,
    rates: Vec<f64>,
    mu: Vec<f64>,
    sigma2: Vec<f64>,
    firings: Vec<i64>,
    delta: Vec<i64>,
    trajectory: Trajectory,
    recorder: Recorder,
    tracker: BudgetTracker,
    outcome: Outcome,
    demoted: bool,
    tau: f64,
    threshold: f64,
    burst_step: usize,
    result: Option<Result<SimulationRun>>,
}

impl<P: ParameterPolicy> Lane<P> {
    fn new(ctx: &Ctx<'_>, initial_counts: &[i64], mut policy: P, seed: u64) -> Result<Self> {
        policy.reset();
        let dim = ctx.simulator.model().dim();
        let counts = initial_counts.to_vec();
        let x: StateVec = counts.iter().map(|&c| c as f64 / ctx.scale).collect();
        let mut trajectory = Trajectory::new(dim);
        trajectory.push(0.0, x.clone())?;
        let policy_constant = policy.is_constant()
            && !ctx
                .simulator
                .fault_plan()
                .is_some_and(mfu_guard::FaultPlan::has_policy_faults);
        Ok(Lane {
            phase: Phase::Outer,
            rng: StdRng::seed_from_u64(seed),
            policy,
            policy_constant,
            theta: Vec::new(),
            theta_known: false,
            counts,
            x,
            t: 0.0,
            steps: 0,
            tally: SimCounters::default(),
            rates: vec![0.0; ctx.n_transitions],
            mu: vec![0.0; dim],
            sigma2: vec![0.0; dim],
            firings: vec![0; ctx.n_transitions],
            delta: vec![0; dim],
            trajectory,
            recorder: Recorder::new(ctx.options),
            tracker: BudgetTracker::start(&ctx.options.budget),
            outcome: Outcome::Completed,
            demoted: false,
            tau: 0.0,
            threshold: 0.0,
            burst_step: 0,
            result: None,
        })
    }

    fn finished(&self) -> bool {
        self.result.is_some()
    }

    /// Pre-rescan policy handling: re-queries the policy when the rescan
    /// needs a fresh ϑ. Constant policies are queried once per run.
    fn prepare(&mut self, ctx: &Ctx<'_>) -> Result<()> {
        let requery = match self.phase {
            Phase::Outer => !(self.theta_known && self.policy_constant),
            // Non-constant policies are re-queried per exact step (the exact
            // engine's event-level resolution); the leap start already
            // queried for burst step 0.
            Phase::Burst => self.burst_step > 0 && !self.policy_constant,
        };
        if requery {
            self.theta = self.query_policy(ctx)?;
            self.theta_known = true;
        }
        Ok(())
    }

    /// Queries the policy at `(t, x)` and validates its output against the
    /// model's parameter space — the contract the exact engine applies at
    /// every event.
    fn query_policy(&mut self, ctx: &Ctx<'_>) -> Result<Vec<f64>> {
        let mut theta = self.policy.value(self.t, &self.x, &mut self.rng);
        if let Some(plan) = ctx.simulator.fault_plan() {
            plan.perturb_params(self.steps as u64, &mut theta);
        }
        if !ctx.simulator.model().params().contains(&theta) {
            return Err(SimError::PolicyOutOfRange { time: self.t });
        }
        Ok(theta)
    }

    /// Validates and scales this lane's row of raw densities in transition
    /// order, like `Simulator::eval_rate`: an armed fault plan perturbs
    /// each density, and the first unhealthy one fails the lane.
    fn validate_rates(
        &mut self,
        ctx: &Ctx<'_>,
        raw: &[f64],
        lane: usize,
        width: usize,
    ) -> Result<f64> {
        let mut total = 0.0_f64;
        for k in 0..ctx.n_transitions {
            let class = &ctx.simulator.model().transitions()[k];
            let mut density = raw[k * width + lane];
            if let Some(plan) = ctx.simulator.fault_plan() {
                density = plan.perturb_rate(k, self.steps as u64, density);
            }
            if !mfu_guard::rate_is_healthy(density) {
                return Err(SimError::InvalidRate {
                    rule: class.name().to_string(),
                    time: self.t,
                    value: density,
                });
            }
            let rate = density * ctx.scale;
            self.rates[k] = rate;
            total += rate;
        }
        Ok(total)
    }

    /// Resumes the lane on a fresh rescan: τ selection and leap attempts
    /// for [`Phase::Outer`], one exact fallback step for [`Phase::Burst`].
    fn on_rates(&mut self, ctx: &Ctx<'_>, raw: &[f64], lane: usize, width: usize) -> Result<()> {
        let total = self.validate_rates(ctx, raw, lane, width)?;
        self.tally.propensity_evals += ctx.n_transitions as u64;
        match self.phase {
            Phase::Outer => self.on_outer_rates(ctx, total),
            Phase::Burst => self.on_burst_rates(ctx, total),
        }
    }

    fn on_outer_rates(&mut self, ctx: &Ctx<'_>, total: f64) -> Result<()> {
        if total <= 0.0 {
            return self.finish(ctx);
        }
        self.tau = select_tau(
            ctx.leap.epsilon,
            &self.counts,
            &self.rates,
            ctx.sparse_jumps,
            ctx.orders,
            &mut self.mu,
            &mut self.sigma2,
        )
        .min(ctx.options.t_end - self.t);
        self.threshold = SSA_THRESHOLD / total;
        self.inner_loop(ctx)
    }

    /// The guarded leap loop between two rescans: runs leap attempts —
    /// rejecting and halving τ on negative populations, demoting the run to
    /// exact SSA once halvings pile up — until the lane finishes or pauses
    /// for its next rescan.
    fn inner_loop(&mut self, ctx: &Ctx<'_>) -> Result<()> {
        let tracer = &ctx.simulator.obs().tracer;
        loop {
            if self.tracker.expired() {
                self.outcome = Outcome::Truncated {
                    reason: TruncationReason::WallClock,
                    reached_t: self.t,
                };
                return self.finish(ctx);
            }
            if self.demoted || self.tau < self.threshold.min(ctx.options.t_end - self.t) {
                // exact fallback burst: τ is no longer worth its bias (or
                // the halving ladder demoted the run for good)
                self.tally.tau_fallback_bursts += 1;
                if tracer.is_enabled() {
                    tracer.event(
                        "tau_fallback_burst",
                        &[
                            ("t", Field::F64(self.t)),
                            ("tau", Field::F64(self.tau)),
                            ("threshold", Field::F64(self.threshold)),
                            ("burst", Field::U64(SSA_BURST as u64)),
                        ],
                    );
                }
                self.burst_step = 0;
                self.phase = Phase::Burst;
                return Ok(());
            }

            // ---- attempt one leap of length τ ---------------------------
            for (k, firing) in self.firings.iter_mut().enumerate() {
                *firing = if self.rates[k] > 0.0 {
                    self.tally.poisson_draws += 1;
                    poisson::sample(&mut self.rng, self.rates[k] * self.tau) as i64
                } else {
                    0
                };
            }
            self.delta.fill(0);
            for (jump, &firing) in ctx.sparse_jumps.iter().zip(self.firings.iter()) {
                if firing > 0 {
                    accumulate_firings(&mut self.delta, jump, firing);
                }
            }
            if self
                .counts
                .iter()
                .zip(self.delta.iter())
                .any(|(&c, &d)| c + d < 0)
            {
                // negative-population guard: reject wholesale, halve τ
                self.tally.tau_halvings += 1;
                if tracer.is_enabled() {
                    tracer.event(
                        "tau_halved",
                        &[
                            ("t", Field::F64(self.t)),
                            ("tau", Field::F64(self.tau / 2.0)),
                        ],
                    );
                }
                if self.tally.tau_halvings >= DEMOTE_AFTER_HALVINGS {
                    self.demoted = true;
                    self.tally.tau_demotions = 1;
                    if tracer.is_enabled() {
                        tracer.event(
                            "tau_demoted",
                            &[
                                ("t", Field::F64(self.t)),
                                ("halvings", Field::U64(self.tally.tau_halvings)),
                            ],
                        );
                    }
                    continue;
                }
                self.tau /= 2.0;
                continue;
            }
            for (i, &d) in self.delta.iter().enumerate() {
                if d != 0 {
                    self.counts[i] += d;
                    self.x[i] = self.counts[i] as f64 / ctx.scale;
                }
            }
            self.t += self.tau;
            self.steps += 1;
            self.tally.tau_leap_steps += 1;
            if self.recorder.should_record(self.steps, self.t)
                && self.t > self.trajectory.last_time()
            {
                self.trajectory.push(self.t, self.x.clone())?;
            }
            if self.steps >= ctx.max_events {
                self.outcome = Outcome::Truncated {
                    reason: TruncationReason::MaxEvents,
                    reached_t: self.t,
                };
                return self.finish(ctx);
            }
            if self.t >= ctx.options.t_end {
                return self.finish(ctx);
            }
            // leap accepted: back to τ selection via a fresh rescan
            self.phase = Phase::Outer;
            return Ok(());
        }
    }

    /// One exact SSA step of a fallback burst, resumed on the burst's
    /// rescan result.
    fn on_burst_rates(&mut self, ctx: &Ctx<'_>, burst_total: f64) -> Result<()> {
        if burst_total <= 0.0 {
            return self.finish(ctx);
        }
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let dt = -u.ln() / burst_total;
        if self.t + dt >= ctx.options.t_end {
            return self.finish(ctx);
        }
        self.t += dt;
        let Some(chosen) = linear_select(&self.rates, self.rng.gen::<f64>() * burst_total) else {
            return self.finish(ctx);
        };
        if apply_firings(&mut self.counts, &ctx.sparse_jumps[chosen], 1) {
            for &(i, _) in &ctx.sparse_jumps[chosen] {
                self.x[i] = self.counts[i] as f64 / ctx.scale;
            }
        }
        self.steps += 1;
        self.tally.tau_fallback_steps += 1;
        // `t > last` guards against a stalled clock when a rate explosion
        // drives `dt` below the ulp of `t`.
        if self.recorder.should_record(self.steps, self.t) && self.t > self.trajectory.last_time() {
            self.trajectory.push(self.t, self.x.clone())?;
        }
        if self.steps >= ctx.max_events {
            self.outcome = Outcome::Truncated {
                reason: TruncationReason::MaxEvents,
                reached_t: self.t,
            };
            return self.finish(ctx);
        }
        if self.tracker.expired() {
            self.outcome = Outcome::Truncated {
                reason: TruncationReason::WallClock,
                reached_t: self.t,
            };
            return self.finish(ctx);
        }
        self.burst_step += 1;
        if self.burst_step >= SSA_BURST {
            // burst done: reselect τ from the new state
            self.phase = Phase::Outer;
        }
        Ok(())
    }

    /// Ends the lane: pins the horizon (or, for a truncated run, the state
    /// actually reached), flushes counters, emits the run summary.
    fn finish(&mut self, ctx: &Ctx<'_>) -> Result<()> {
        let pin_time = match self.outcome {
            Outcome::Completed => ctx.options.t_end,
            Outcome::Truncated { reached_t, .. } => reached_t,
        };
        if pin_time > self.trajectory.last_time() {
            self.trajectory.push(pin_time, self.x.clone())?;
        }
        self.tally.budget_checks = self.tracker.checks();
        self.tally.events_fired = self.steps as u64;
        self.tally.flush_to(&ctx.simulator.obs().metrics);
        let tracer = &ctx.simulator.obs().tracer;
        if tracer.is_enabled() {
            tracer.event(
                "sim_run",
                &[
                    ("algorithm", Field::Str("tau-leap")),
                    ("epsilon", Field::F64(ctx.leap.epsilon)),
                    ("t_end", Field::F64(ctx.options.t_end)),
                    ("events", Field::U64(self.tally.events_fired)),
                    ("tau_leap_steps", Field::U64(self.tally.tau_leap_steps)),
                    ("tau_halvings", Field::U64(self.tally.tau_halvings)),
                    (
                        "tau_fallback_bursts",
                        Field::U64(self.tally.tau_fallback_bursts),
                    ),
                    (
                        "tau_fallback_steps",
                        Field::U64(self.tally.tau_fallback_steps),
                    ),
                    ("poisson_draws", Field::U64(self.tally.poisson_draws)),
                    ("tau_demotions", Field::U64(self.tally.tau_demotions)),
                    ("outcome", Field::Str(&self.outcome.to_string())),
                ],
            );
        }
        let dim = self.x.dim();
        let trajectory = std::mem::replace(&mut self.trajectory, Trajectory::new(dim));
        self.result = Some(Ok(SimulationRun::from_parts(
            trajectory,
            self.steps,
            std::mem::take(&mut self.counts),
            self.tally,
            SelectorKind::Linear,
            self.outcome,
        )));
        Ok(())
    }
}

/// Runs one τ-leap replication per `(policy, seed)` pair, batching the
/// propensity rescans of all still-running replications into shared
/// [`SoaBatch`] evaluations.
///
/// `options.algorithm` must select
/// [`SimulationAlgorithm::TauLeap`]; each returned entry is exactly what
/// [`Simulator::simulate`] — a group of one — returns for the same
/// replication (see the module docs for the bit-identity contract). A
/// failed replication does not stop the others — errors are returned per
/// lane. Policies may be borrowed (`&mut P` is a policy too).
///
/// # Errors
///
/// Returns a top-level error when the inputs themselves are invalid: a
/// non-τ-leap algorithm, `policies`/`seeds` length mismatch, or initial
/// counts that are negative or of the wrong dimension.
pub fn simulate_tau_leap_lockstep<P: ParameterPolicy>(
    simulator: &Simulator,
    initial_counts: &[i64],
    policies: Vec<P>,
    options: &SimulationOptions,
    seeds: &[u64],
) -> Result<Vec<Result<SimulationRun>>> {
    let SimulationAlgorithm::TauLeap(leap) = options.algorithm else {
        return Err(SimError::invalid_input(
            "lockstep batching requires the tau-leap algorithm",
        ));
    };
    if policies.len() != seeds.len() {
        return Err(SimError::invalid_input(
            "one policy per seed is required for a lockstep group",
        ));
    }
    simulator.check_counts(initial_counts)?;

    let model = simulator.model();
    let orders = reactant_orders(simulator);
    let ctx = Ctx {
        simulator,
        options,
        leap: &leap,
        sparse_jumps: simulator.sparse_jumps(),
        orders: &orders,
        scale: simulator.scale() as f64,
        max_events: options.max_events(),
        n_transitions: model.transitions().len(),
    };

    let mut lanes: Vec<Lane<P>> = Vec::with_capacity(seeds.len());
    for (policy, &seed) in policies.into_iter().zip(seeds) {
        lanes.push(Lane::new(&ctx, initial_counts, policy, seed)?);
    }

    let dim = model.dim();
    let n_params = model.params().dim();
    let mut x_batch = SoaBatch::zeros(dim.max(1), 1);
    let mut theta_batch = SoaBatch::zeros(n_params.max(1), 1);
    let mut raw = Vec::new();
    let mut active: Vec<usize> = Vec::with_capacity(lanes.len());

    loop {
        // 1. Pre-rescan work: policy queries per paused lane. A query
        // error fails that lane alone.
        active.clear();
        for (li, lane) in lanes.iter_mut().enumerate() {
            if lane.finished() {
                continue;
            }
            match lane.prepare(&ctx) {
                Ok(()) => active.push(li),
                Err(err) => lane.result = Some(Err(err)),
            }
        }
        if active.is_empty() {
            break;
        }

        // 2. One rescan for every paused lane: row `k` of `raw` holds
        // transition `k`'s density for each lane `l`, replication
        // `active[l]` at its current state and parameter vector. A single
        // paused lane has nothing to share, so it takes the scalar rates
        // and skips the gather.
        let width = active.len();
        raw.clear();
        if let [li] = active[..] {
            let lane = &lanes[li];
            raw.extend(
                model
                    .transitions()
                    .iter()
                    .map(|class| class.rate(&lane.x, &lane.theta)),
            );
        } else {
            x_batch.reset(dim, width);
            theta_batch.reset(n_params, width);
            for (l, &li) in active.iter().enumerate() {
                x_batch.set_lane(l, lanes[li].x.as_slice());
                theta_batch.set_lane(l, &lanes[li].theta);
            }
            raw.resize(ctx.n_transitions * width, 0.0);
            for (k, class) in model.transitions().iter().enumerate() {
                class.rate_fn().eval_batch_into(
                    &x_batch,
                    BatchTheta::PerLane(&theta_batch),
                    &mut raw[k * width..(k + 1) * width],
                );
            }
        }

        // 3. Resume each lane on its row of results.
        for (l, &li) in active.iter().enumerate() {
            let lane = &mut lanes[li];
            if let Err(err) = lane.on_rates(&ctx, &raw, l, width) {
                lane.result = Some(Err(err));
            }
        }
    }

    Ok(lanes
        .into_iter()
        .map(|lane| {
            lane.result
                .unwrap_or_else(|| Err(SimError::invalid_input("lane never finished")))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gillespie::{SimulationOptions, Simulator};
    use crate::policy::{ConstantPolicy, HysteresisPolicy, RandomJumpPolicy};
    use mfu_ctmc::params::{Interval, ParamSpace};
    use mfu_ctmc::population::PopulationModel;
    use mfu_ctmc::transition::TransitionClass;

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

    fn assert_runs_bit_identical(a: &SimulationRun, b: &SimulationRun) {
        assert_eq!(a.events(), b.events());
        assert_eq!(a.final_counts(), b.final_counts());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.outcome(), b.outcome());
        assert_eq!(a.trajectory().len(), b.trajectory().len());
        for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(sa.as_slice().len(), sb.as_slice().len());
            for (va, vb) in sa.as_slice().iter().zip(sb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }

    #[test]
    fn wide_lanes_are_bit_identical_to_groups_of_one() {
        let simulator = Simulator::new(sir_model(), 20_000).unwrap();
        let options = SimulationOptions::new(2.0).tau_leap(TauLeapOptions::new(0.05));
        let seeds: Vec<u64> = (0..6).collect();
        let policies: Vec<_> = seeds
            .iter()
            .map(|_| ConstantPolicy::new(vec![5.0]))
            .collect();
        let batched =
            simulate_tau_leap_lockstep(&simulator, &[14_000, 6_000, 0], policies, &options, &seeds)
                .unwrap();
        for (lane, &seed) in batched.iter().zip(&seeds) {
            let mut policy = ConstantPolicy::new(vec![5.0]);
            let solo = simulator
                .simulate(&[14_000, 6_000, 0], &mut policy, &options, seed)
                .unwrap();
            assert_runs_bit_identical(lane.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn wide_lanes_match_groups_of_one_through_fallback_bursts_and_truncation() {
        // Boundary-parked pure death engages the exact fallback burst on
        // every lane; a tight event cap exercises the truncated epilogue.
        let simulator = Simulator::new(death_model(), 50).unwrap();
        let options = SimulationOptions::new(1_000.0).tau_leap(TauLeapOptions::new(0.5));
        let seeds: Vec<u64> = (0..4).collect();
        let policies: Vec<_> = seeds
            .iter()
            .map(|_| ConstantPolicy::new(vec![1.0]))
            .collect();
        let batched =
            simulate_tau_leap_lockstep(&simulator, &[50], policies, &options, &seeds).unwrap();
        for (lane, &seed) in batched.iter().zip(&seeds) {
            let run = lane.as_ref().unwrap();
            assert!(run.counters().tau_fallback_bursts > 0);
            let mut policy = ConstantPolicy::new(vec![1.0]);
            let solo = simulator
                .simulate(&[50], &mut policy, &options, seed)
                .unwrap();
            assert_runs_bit_identical(run, &solo);
        }

        let capped = options.budget(mfu_guard::RunBudget::unlimited().max_events(3));
        let policies: Vec<_> = seeds
            .iter()
            .map(|_| ConstantPolicy::new(vec![1.0]))
            .collect();
        let batched =
            simulate_tau_leap_lockstep(&simulator, &[50], policies, &capped, &seeds).unwrap();
        for (lane, &seed) in batched.iter().zip(&seeds) {
            let run = lane.as_ref().unwrap();
            assert!(run.is_truncated());
            let mut policy = ConstantPolicy::new(vec![1.0]);
            let solo = simulator
                .simulate(&[50], &mut policy, &capped, seed)
                .unwrap();
            assert_runs_bit_identical(run, &solo);
        }
    }

    #[test]
    fn wide_lanes_match_groups_of_one_under_stateful_and_random_policies() {
        // Non-constant policies re-query per burst step with the lane's own
        // RNG stream; both a state-feedback and an RNG-consuming policy
        // must replay a group of one's draw order exactly.
        let simulator = Simulator::new(sir_model(), 5_000).unwrap();
        let options = SimulationOptions::new(1.5).tau_leap(TauLeapOptions::new(0.05));
        let seeds: Vec<u64> = (10..14).collect();

        let make_hysteresis = || HysteresisPolicy::new(vec![5.0], 0, 2.0, 8.0, 1, 0.2, 0.4, false);
        let policies: Vec<_> = seeds.iter().map(|_| make_hysteresis()).collect();
        let batched =
            simulate_tau_leap_lockstep(&simulator, &[3_500, 1_500, 0], policies, &options, &seeds)
                .unwrap();
        for (lane, &seed) in batched.iter().zip(&seeds) {
            let mut policy = make_hysteresis();
            let solo = simulator
                .simulate(&[3_500, 1_500, 0], &mut policy, &options, seed)
                .unwrap();
            assert_runs_bit_identical(lane.as_ref().unwrap(), &solo);
        }

        let make_jump = || {
            let space =
                ParamSpace::new(vec![("contact", Interval::new(1.0, 10.0).unwrap())]).unwrap();
            RandomJumpPolicy::new(space, vec![5.0], 0, 1, 0.5, 5.0)
        };
        let policies: Vec<_> = seeds.iter().map(|_| make_jump()).collect();
        let batched =
            simulate_tau_leap_lockstep(&simulator, &[3_500, 1_500, 0], policies, &options, &seeds)
                .unwrap();
        for (lane, &seed) in batched.iter().zip(&seeds) {
            let mut policy = make_jump();
            let solo = simulator
                .simulate(&[3_500, 1_500, 0], &mut policy, &options, seed)
                .unwrap();
            assert_runs_bit_identical(lane.as_ref().unwrap(), &solo);
        }
    }

    #[test]
    fn lockstep_validates_inputs() {
        let simulator = Simulator::new(death_model(), 10).unwrap();
        // wrong algorithm
        let exact = SimulationOptions::new(1.0);
        assert!(matches!(
            simulate_tau_leap_lockstep(
                &simulator,
                &[5],
                vec![ConstantPolicy::new(vec![1.0])],
                &exact,
                &[1],
            ),
            Err(SimError::InvalidInput { .. })
        ));
        let leap = SimulationOptions::new(1.0).tau_leap(TauLeapOptions::new(0.1));
        // policy/seed mismatch
        assert!(matches!(
            simulate_tau_leap_lockstep(
                &simulator,
                &[5],
                vec![ConstantPolicy::new(vec![1.0])],
                &leap,
                &[1, 2],
            ),
            Err(SimError::InvalidInput { .. })
        ));
        // bad counts
        assert!(simulate_tau_leap_lockstep(
            &simulator,
            &[-1],
            vec![ConstantPolicy::new(vec![1.0])],
            &leap,
            &[1],
        )
        .is_err());
        // an out-of-box policy value fails the lane, not the group
        let results = simulate_tau_leap_lockstep(
            &simulator,
            &[5],
            vec![
                ConstantPolicy::new(vec![99.0]),
                ConstantPolicy::new(vec![1.0]),
            ],
            &leap,
            &[1, 2],
        )
        .unwrap();
        assert!(matches!(results[0], Err(SimError::PolicyOutOfRange { .. })));
        assert!(results[1].is_ok());
    }
}
