//! Parallel ensembles of stochastic simulations.
//!
//! Mean-field accuracy claims ("the stochastic system stays close to the
//! deterministic limit as `N` grows") are checked against the *distribution*
//! of the stochastic process, which requires many independent replications.
//! This module exploits the machine along both axes:
//!
//! * **across cores** — replications are distributed round-robin over
//!   scoped worker threads; set the worker count with
//!   [`EnsembleOptions::threads`] (`0` means one thread per available
//!   core, and the count is clamped to the number of replications, so
//!   oversubscribed workers simply idle);
//! * **within a core** — τ-leap replications run on the lockstep engine
//!   ([`crate::lockstep`]) in groups of up to 64 per worker, sharing one
//!   batched SoA propensity rescan per round across the group's
//!   still-running trajectories. The exact engine re-evaluates a few
//!   dependency-pruned rates per event, which has no batched shape, so
//!   exact replications run one at a time.
//!
//! Every replication `k` keeps its own RNG stream seeded with
//! `base_seed.wrapping_add(k)`. Each worker returns its partial statistics
//! from its join handle and the partials are merged in worker order, so
//! summaries are deterministic in the seed for a fixed thread count;
//! [`EnsembleSummary::final_states`] lists the horizon states in
//! replication order whatever the thread count.

use mfu_num::StateVec;

use crate::gillespie::{SimulationAlgorithm, SimulationOptions, SimulationRun, Simulator};
use crate::lockstep::simulate_tau_leap_lockstep;
use crate::policy::ParameterPolicy;
use crate::stats::RunningStats;
use crate::{Result, SimError};

/// Options controlling an ensemble of replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleOptions {
    /// Number of independent replications.
    pub replications: usize,
    /// Seed of the first replication; replication `k` uses
    /// `base_seed.wrapping_add(k)`, so seeds near `u64::MAX` wrap instead
    /// of overflowing.
    pub base_seed: u64,
    /// Number of worker threads (`0` means one thread per available core).
    /// Clamped to the number of replications: extra workers would own no
    /// replications and only add spawn overhead.
    pub threads: usize,
    /// Number of intervals of the common time grid used for the summary.
    pub grid_intervals: usize,
}

impl Default for EnsembleOptions {
    fn default() -> Self {
        EnsembleOptions {
            replications: 32,
            base_seed: 1,
            threads: 0,
            grid_intervals: 100,
        }
    }
}

/// Per-time-point, per-coordinate summary of an ensemble of trajectories.
#[derive(Debug, Clone)]
pub struct EnsembleSummary {
    times: Vec<f64>,
    stats: Vec<Vec<RunningStats>>,
    final_states: Vec<StateVec>,
}

impl EnsembleSummary {
    /// The common time grid of the summary.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of replications that contributed.
    pub fn replications(&self) -> usize {
        self.final_states.len()
    }

    /// Mean state at grid index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn mean_at(&self, k: usize) -> StateVec {
        self.stats[k].iter().map(RunningStats::mean).collect()
    }

    /// Per-coordinate standard deviation at grid index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn std_dev_at(&self, k: usize) -> StateVec {
        self.stats[k].iter().map(RunningStats::std_dev).collect()
    }

    /// Per-coordinate statistics at grid index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn stats_at(&self, k: usize) -> &[RunningStats] {
        &self.stats[k]
    }

    /// Number of replications that contributed a sample at grid index `k`.
    ///
    /// Grid sampling is all-or-error (a replication that cannot be sampled
    /// at some grid time fails the whole ensemble), so this always equals
    /// [`EnsembleSummary::replications`] — the accessor exists so tests can
    /// pin that invariant against the historical silent-drop bug.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn samples_at(&self, k: usize) -> usize {
        self.stats[k].first().map_or(0, RunningStats::count)
    }

    /// Final (horizon) states of every replication, in replication order.
    pub fn final_states(&self) -> &[StateVec] {
        &self.final_states
    }

    /// Largest, over the grid, sup-norm distance between the ensemble mean and
    /// a reference trajectory sampled at the same times.
    ///
    /// # Errors
    ///
    /// Returns an error if `reference` yields vectors of the wrong dimension.
    pub fn max_mean_distance<F>(&self, mut reference: F) -> Result<f64>
    where
        F: FnMut(f64) -> StateVec,
    {
        let mut worst = 0.0_f64;
        for (k, &t) in self.times.iter().enumerate() {
            let mean = self.mean_at(k);
            let expected = reference(t);
            if expected.dim() != mean.dim() {
                return Err(SimError::invalid_input(
                    "reference trajectory has wrong dimension",
                ));
            }
            worst = worst.max(mean.distance_inf(&expected));
        }
        Ok(worst)
    }
}

/// How many replications a worker advances per lockstep group: bounds the
/// number of concurrently live trajectories (each holds its recorded
/// states) while keeping the batch wide enough to fill the VM's small
/// register slab tier.
const LOCKSTEP_GROUP: usize = 64;

/// One worker's share of an ensemble: per-grid-point statistics over its
/// replications, their horizon states tagged with the replication index,
/// and the error that stopped the worker (if any).
struct Partial {
    stats: Vec<Vec<RunningStats>>,
    finals: Vec<(usize, StateVec)>,
    error: Option<SimError>,
}

impl Partial {
    /// Folds one completed replication into the partial.
    ///
    /// Grid sampling is all-or-error: a truncated run or a failed
    /// `trajectory.at(t)` converts into a typed error instead of silently
    /// shrinking a grid point's observation count (the historical `if let Ok`
    /// bug).
    fn absorb(
        &mut self,
        replication: usize,
        run: &SimulationRun,
        times: &[f64],
        t_end: f64,
    ) -> Result<()> {
        // Grid sampling needs the full horizon: a prefix is not a meaningful
        // ensemble member, so a truncated replication converts back into a
        // typed error.
        run.require_completed()?;
        let trajectory = run.trajectory();
        for (k, &t) in times.iter().enumerate() {
            let state = trajectory.at(t)?;
            for (i, &v) in state.as_slice().iter().enumerate() {
                self.stats[k][i].push(v);
            }
        }
        self.finals.push((replication, trajectory.at(t_end)?));
        Ok(())
    }
}

/// Runs `options.replications` independent simulations and summarises them.
///
/// `make_policy` builds a fresh policy per replication (policies are stateful
/// and must not be shared across replications). Replications are distributed
/// over `options.threads` worker threads.
///
/// # Errors
///
/// Returns the first error of the lowest-numbered worker that hit one, or
/// an invalid-input error when `options.replications == 0`.
pub fn run_ensemble<F, P>(
    simulator: &Simulator,
    initial_counts: &[i64],
    make_policy: F,
    sim_options: &SimulationOptions,
    options: &EnsembleOptions,
) -> Result<EnsembleSummary>
where
    F: Fn() -> P + Sync,
    P: ParameterPolicy,
{
    if options.replications == 0 {
        return Err(SimError::invalid_input(
            "ensemble needs at least one replication",
        ));
    }
    if options.grid_intervals == 0 {
        return Err(SimError::invalid_input(
            "ensemble needs at least one grid interval",
        ));
    }

    let threads = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        options.threads
    };
    let threads = threads.min(options.replications).max(1);

    let grid_n = options.grid_intervals;
    let times: Vec<f64> = (0..=grid_n)
        .map(|k| sim_options.t_end * k as f64 / grid_n as f64)
        .collect();

    // Lockstep groups apply to τ-leap only: the exact engine re-evaluates
    // a few dependency-pruned rates per event, which has no batched shape
    // (every lane would need a rescan after every event of every other
    // lane), so exact replications run one at a time.
    let lockstep = matches!(sim_options.algorithm, SimulationAlgorithm::TauLeap(_));
    let dim = simulator.model().dim();

    let partials: Vec<Partial> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let make_policy = &make_policy;
                let times = &times;
                scope.spawn(move || {
                    let mut partial = Partial {
                        stats: vec![vec![RunningStats::new(); dim]; grid_n + 1],
                        finals: Vec::new(),
                        error: None,
                    };
                    // The worker's replications in ascending order, folded in
                    // that order whether grouped or not, so the Welford update
                    // sequence (and thus the partial, bit for bit) does not
                    // depend on the grouping.
                    let assigned: Vec<usize> =
                        (worker..options.replications).step_by(threads).collect();
                    let seed = |r: usize| options.base_seed.wrapping_add(r as u64);
                    if lockstep {
                        'groups: for group in assigned.chunks(LOCKSTEP_GROUP) {
                            let policies: Vec<P> = group.iter().map(|_| make_policy()).collect();
                            let seeds: Vec<u64> = group.iter().map(|&r| seed(r)).collect();
                            let results = match simulate_tau_leap_lockstep(
                                simulator,
                                initial_counts,
                                policies,
                                sim_options,
                                &seeds,
                            ) {
                                Ok(results) => results,
                                Err(err) => {
                                    partial.error = Some(err);
                                    break 'groups;
                                }
                            };
                            for (&replication, result) in group.iter().zip(results) {
                                let absorbed = result.and_then(|run| {
                                    partial.absorb(replication, &run, times, sim_options.t_end)
                                });
                                if let Err(err) = absorbed {
                                    partial.error = Some(err);
                                    break 'groups;
                                }
                            }
                        }
                    } else {
                        for &replication in &assigned {
                            let mut policy = make_policy();
                            let absorbed = simulator
                                .simulate(
                                    initial_counts,
                                    &mut policy,
                                    sim_options,
                                    seed(replication),
                                )
                                .and_then(|run| {
                                    partial.absorb(replication, &run, times, sim_options.t_end)
                                });
                            if let Err(err) = absorbed {
                                partial.error = Some(err);
                                break;
                            }
                        }
                    }
                    partial
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                // re-raise worker panics with their original payload
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    // Merge in worker order: the result depends on the seed and the thread
    // count only, never on which worker finished first.
    let mut stats = vec![vec![RunningStats::new(); dim]; grid_n + 1];
    let mut finals = Vec::with_capacity(options.replications);
    for partial in partials {
        if let Some(err) = partial.error {
            return Err(err);
        }
        for (row, local) in stats.iter_mut().zip(&partial.stats) {
            for (cell, local) in row.iter_mut().zip(local) {
                cell.merge(local);
            }
        }
        finals.extend(partial.finals);
    }
    finals.sort_by_key(|&(replication, _)| replication);
    Ok(EnsembleSummary {
        times,
        stats,
        final_states: finals.into_iter().map(|(_, state)| state).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ConstantPolicy;
    use mfu_ctmc::params::{Interval, ParamSpace};
    use mfu_ctmc::population::PopulationModel;
    use mfu_ctmc::transition::TransitionClass;
    use mfu_num::ode::{Integrator, Rk4};

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

    #[test]
    fn ensemble_summary_has_expected_shape() {
        let sim = Simulator::new(bike_model(), 50).unwrap();
        let options = EnsembleOptions {
            replications: 8,
            base_seed: 3,
            threads: 2,
            grid_intervals: 10,
        };
        let summary = run_ensemble(
            &sim,
            &[25],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            &SimulationOptions::new(5.0),
            &options,
        )
        .unwrap();
        assert_eq!(summary.times().len(), 11);
        assert_eq!(summary.replications(), 8);
        assert_eq!(summary.mean_at(0).dim(), 1);
        assert_eq!(summary.stats_at(5).len(), 1);
        // initial state is deterministic
        assert!((summary.mean_at(0)[0] - 0.5).abs() < 1e-12);
        assert_eq!(summary.std_dev_at(0)[0], 0.0);
    }

    #[test]
    fn ensemble_mean_tracks_mean_field_ode() {
        // With asymmetric rates the mean field settles where pickup and
        // return balance; the ensemble mean at moderate N should be close.
        let model = bike_model();
        let sim = Simulator::new(model.clone(), 200).unwrap();
        let summary = run_ensemble(
            &sim,
            &[100],
            || ConstantPolicy::new(vec![1.5, 0.75]),
            &SimulationOptions::new(8.0).record_stride(4),
            &EnsembleOptions {
                replications: 16,
                base_seed: 11,
                threads: 4,
                grid_intervals: 20,
            },
        )
        .unwrap();
        // The bike drift is discontinuous at the boundaries, so use a
        // fixed-step solver for the reference (no step rejection on the
        // sliding mode at x = 0).
        let ode = model.ode_for(vec![1.5, 0.75]);
        let reference = Rk4::with_step(1e-3)
            .integrate(&ode, 0.0, StateVec::from([0.5]), 8.0)
            .unwrap();
        let distance = summary
            .max_mean_distance(|t| reference.at(t).unwrap())
            .unwrap();
        assert!(
            distance < 0.12,
            "ensemble mean deviates from mean field by {distance}"
        );
    }

    #[test]
    fn every_grid_point_sees_every_replication() {
        // Regression for the silent sample drop: `trajectory.at(t)` errors
        // used to be swallowed by an `if let Ok`, so a failing grid sample
        // would shrink that point's observation count without any
        // indication. Sampling is now all-or-error, so every grid point
        // must carry exactly `replications` observations.
        let sim = Simulator::new(bike_model(), 40).unwrap();
        let options = EnsembleOptions {
            replications: 12,
            base_seed: 5,
            threads: 3,
            grid_intervals: 16,
        };
        let summary = run_ensemble(
            &sim,
            &[20],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            // record sparsely so grid sampling has to interpolate (the
            // regime where a dropped sample would have gone unnoticed)
            &SimulationOptions::new(6.0).record_stride(32),
            &options,
        )
        .unwrap();
        assert_eq!(summary.final_states().len(), 12);
        for k in 0..summary.times().len() {
            assert_eq!(
                summary.samples_at(k),
                12,
                "grid point {k} lost samples silently"
            );
        }
    }

    #[test]
    fn seeding_wraps_at_the_u64_boundary() {
        // replication seeds are base_seed.wrapping_add(k): a base near
        // u64::MAX must wrap around instead of panicking (debug builds
        // abort on overflowing `+`), and distinct replications must still
        // get distinct streams
        let sim = Simulator::new(bike_model(), 30).unwrap();
        let summary = run_ensemble(
            &sim,
            &[15],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            &SimulationOptions::new(2.0),
            &EnsembleOptions {
                replications: 4,
                base_seed: u64::MAX - 1,
                threads: 2,
                grid_intervals: 4,
            },
        )
        .unwrap();
        assert_eq!(summary.replications(), 4);
        assert!(summary.std_dev_at(4)[0] >= 0.0);
    }

    #[test]
    fn ensemble_validates_options() {
        let sim = Simulator::new(bike_model(), 10).unwrap();
        let bad = EnsembleOptions {
            replications: 0,
            ..Default::default()
        };
        assert!(run_ensemble(
            &sim,
            &[5],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            &SimulationOptions::new(1.0),
            &bad
        )
        .is_err());
        let bad = EnsembleOptions {
            grid_intervals: 0,
            replications: 2,
            ..Default::default()
        };
        assert!(run_ensemble(
            &sim,
            &[5],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            &SimulationOptions::new(1.0),
            &bad
        )
        .is_err());
    }

    #[test]
    fn ensemble_propagates_simulation_errors() {
        let sim = Simulator::new(bike_model(), 10).unwrap();
        // policy outside the parameter box
        let res = run_ensemble(
            &sim,
            &[5],
            || ConstantPolicy::new(vec![10.0, 1.0]),
            &SimulationOptions::new(1.0),
            &EnsembleOptions {
                replications: 4,
                threads: 2,
                ..Default::default()
            },
        );
        assert!(matches!(res, Err(SimError::PolicyOutOfRange { .. })));
    }

    #[test]
    fn variance_shrinks_with_population_size() {
        let make = |n: usize| {
            let sim = Simulator::new(bike_model(), n).unwrap();
            let summary = run_ensemble(
                &sim,
                &[n as i64 / 2],
                || ConstantPolicy::new(vec![1.0, 1.0]),
                &SimulationOptions::new(4.0).record_stride(2),
                &EnsembleOptions {
                    replications: 24,
                    base_seed: 7,
                    threads: 4,
                    grid_intervals: 8,
                },
            )
            .unwrap();
            summary.std_dev_at(8)[0]
        };
        let sd_small = make(20);
        let sd_large = make(500);
        assert!(
            sd_large < sd_small,
            "std dev should shrink with N: N=20 gives {sd_small}, N=500 gives {sd_large}"
        );
    }

    /// Per-grid-point bit-identity of two summaries (means, deviations,
    /// and every final state).
    fn assert_summaries_bit_identical(a: &EnsembleSummary, b: &EnsembleSummary) {
        assert_eq!(a.times(), b.times());
        assert_eq!(a.replications(), b.replications());
        for k in 0..a.times().len() {
            let (ma, mb) = (a.mean_at(k), b.mean_at(k));
            let (sa, sb) = (a.std_dev_at(k), b.std_dev_at(k));
            for i in 0..ma.dim() {
                assert_eq!(ma[i].to_bits(), mb[i].to_bits(), "mean at ({k}, {i})");
                assert_eq!(sa[i].to_bits(), sb[i].to_bits(), "std dev at ({k}, {i})");
            }
        }
        for (fa, fb) in a.final_states().iter().zip(b.final_states()) {
            for (va, vb) in fa.as_slice().iter().zip(fb.as_slice()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "final state");
            }
        }
    }

    #[test]
    fn more_threads_than_replications_gives_identical_results() {
        // The clamp `threads.min(replications).max(1)` must leave the
        // extra workers idle without perturbing the per-replication seeds:
        // with one replication per worker the merge order is the only
        // degree of freedom, and a single replication removes even that.
        let sim = Simulator::new(bike_model(), 40).unwrap();
        let run_with = |threads: usize, replications: usize| {
            run_ensemble(
                &sim,
                &[20],
                || ConstantPolicy::new(vec![1.0, 1.0]),
                &SimulationOptions::new(3.0),
                &EnsembleOptions {
                    replications,
                    base_seed: 9,
                    threads,
                    grid_intervals: 6,
                },
            )
            .unwrap()
        };
        let narrow = run_with(1, 1);
        let wide = run_with(64, 1);
        assert_summaries_bit_identical(&narrow, &wide);
        // and with several replications the summary still carries exactly
        // `replications` members per grid point — no phantom contributions
        // from idle workers
        let summary = run_with(64, 3);
        assert_eq!(summary.replications(), 3);
        for k in 0..summary.times().len() {
            assert_eq!(summary.samples_at(k), 3);
        }
    }

    #[test]
    fn zero_replications_is_a_typed_error_not_a_hang() {
        let sim = Simulator::new(bike_model(), 10).unwrap();
        let res = run_ensemble(
            &sim,
            &[5],
            || ConstantPolicy::new(vec![1.0, 1.0]),
            &SimulationOptions::new(1.0),
            &EnsembleOptions {
                replications: 0,
                ..Default::default()
            },
        );
        assert!(matches!(res, Err(SimError::InvalidInput { .. })));
    }

    #[test]
    fn multi_threaded_summaries_are_deterministic_and_in_replication_order() {
        // Workers merge in worker order, not finish order: repeated calls
        // agree bit for bit, and final state `k` is replication `k`'s
        // horizon state, exactly what a lone run with seed
        // `base_seed + k` reaches.
        let sim = Simulator::new(bike_model(), 500).unwrap();
        let sim_options =
            SimulationOptions::new(4.0).tau_leap(crate::tauleap::TauLeapOptions::new(0.05));
        let options = EnsembleOptions {
            replications: 9,
            base_seed: 21,
            threads: 3,
            grid_intervals: 12,
        };
        let run = || {
            run_ensemble(
                &sim,
                &[250],
                || ConstantPolicy::new(vec![1.5, 0.75]),
                &sim_options,
                &options,
            )
            .unwrap()
        };
        let first = run();
        for _ in 0..5 {
            assert_summaries_bit_identical(&first, &run());
        }
        for (k, state) in first.final_states().iter().enumerate() {
            let mut policy = ConstantPolicy::new(vec![1.5, 0.75]);
            let solo = sim
                .simulate(&[250], &mut policy, &sim_options, 21 + k as u64)
                .unwrap();
            let expected = solo.trajectory().at(4.0).unwrap();
            assert_eq!(state.as_slice(), expected.as_slice(), "replication {k}");
        }
    }
}
