//! Stochastic simulation of (imprecise) population CTMCs.
//!
//! The mean-field theorems of Bortolussi & Gast (DSN 2016) are convergence
//! statements about finite-`N` stochastic systems; this crate provides the
//! finite-`N` side of the comparison. It contains
//!
//! * [`policy`] — *parameter policies* `ϑ(t)`: the adversarial/environmental
//!   signals of the imprecise scenario, including the two policies used in
//!   Figure 6 of the paper (a state-feedback hysteresis policy and a
//!   random-jump policy) as well as constant and piecewise-constant signals;
//! * [`gillespie`] — an exact stochastic simulation algorithm (SSA) for
//!   population models at a finite scale `N`, driven by an arbitrary
//!   policy. When transitions report their species supports (compiled DSL
//!   rates always do, including guarded/piecewise ones; native closures
//!   via `with_species_support`), the simulator precomputes a transition
//!   dependency graph and only re-evaluates the propensities an event can
//!   have changed, bit-identical to re-evaluating every rate;
//! * [`selection`] — transition selection fixed by the transition count
//!   `K`: the `O(K)` roulette scan up to 64 transitions, a binary
//!   partial-sum tree (`O(log K)`) above;
//! * [`tauleap`] — approximate explicit τ-leaping for the large-`N`
//!   regime: its options and adaptive Cao–Gillespie step selection
//!   (Poisson firing counts, a negative-population guard and an exact-SSA
//!   fallback run in [`lockstep`]), selected per run via
//!   [`SimulationAlgorithm`](gillespie::SimulationAlgorithm) on
//!   [`SimulationOptions`](gillespie::SimulationOptions);
//! * [`ensemble`] — parallel replication of simulations with summary
//!   statistics on a common time grid (scoped worker threads via
//!   [`EnsembleOptions::threads`](ensemble::EnsembleOptions::threads));
//! * [`lockstep`] — the τ-leap engine: groups of replications advance
//!   together and share one batched SoA propensity rescan per round
//!   (`RateProgram::eval_batch_into`); a single run is a group of one,
//!   and every lane is bit-identical to that lone run;
//! * [`stats`] — running statistics and empirical summaries;
//! * [`steady`] — sampling of the stationary regime (burn-in plus thinning),
//!   used to compare the empirical steady state against the Birkhoff centre.
//!
//! Both engines carry an optional observability bundle
//! ([`Simulator::with_obs`](gillespie::Simulator::with_obs)): per-run
//! [`SimCounters`](gillespie::SimCounters) — propensity re-evaluations vs.
//! dependency-graph skips, τ-halvings, fallback bursts, Poisson draws —
//! flush into `mfu-obs` metrics, and run summaries go to its JSONL tracer.
//! The counters are maintained in plain run-locals, so trajectories are
//! bit-identical with observability on or off, and every
//! [`SimulationRun`](gillespie::SimulationRun) exposes them (plus the
//! selector the run used) even when observability is disabled.
//!
//! # Example
//!
//! Simulate the bike-sharing station under a constant parameter:
//!
//! ```
//! use mfu_ctmc::params::{Interval, ParamSpace};
//! use mfu_ctmc::population::PopulationModel;
//! use mfu_ctmc::transition::TransitionClass;
//! use mfu_num::StateVec;
//! use mfu_sim::gillespie::{SimulationOptions, Simulator};
//! use mfu_sim::policy::ConstantPolicy;
//!
//! let space = ParamSpace::new(vec![
//!     ("arrival", Interval::new(0.5, 1.5)?),
//!     ("return", Interval::new(0.5, 1.5)?),
//! ])?;
//! let model = PopulationModel::builder(1, space)
//!     .transition(TransitionClass::new("pickup", [-1.0], |x: &StateVec, th: &[f64]| {
//!         if x[0] > 0.0 { th[0] } else { 0.0 }
//!     }))
//!     .transition(TransitionClass::new("return", [1.0], |x: &StateVec, th: &[f64]| {
//!         if x[0] < 1.0 { th[1] } else { 0.0 }
//!     }))
//!     .build()?;
//!
//! let simulator = Simulator::new(model, 100)?;
//! let mut policy = ConstantPolicy::new(vec![1.0, 1.0]);
//! let run = simulator.simulate(&[50], &mut policy, &SimulationOptions::new(10.0), 42)?;
//! assert!(run.trajectory().last_state()[0] >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod error;

pub mod ensemble;
pub mod gillespie;
pub mod lockstep;
pub mod policy;
pub mod selection;
pub mod stats;
pub mod steady;
pub mod tauleap;

pub use error::SimError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SimError>;
