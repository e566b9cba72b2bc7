//! Acceptance: the τ-leap engine is accurate where it claims to be and
//! honest where it cannot leap.
//!
//! The contract of `mfu_sim::tauleap` has three legs:
//!
//! 1. **large-`N` accuracy** — at `N = 10⁵`, a single leap trajectory of
//!    a registry scenario must track the mean-field drift (the midpoint-ϑ
//!    ODE the paper's Theorem 1 converges to) within a stated sup-norm
//!    tolerance: the `O(1/√N)` stochastic fluctuations and the `O(ε)`
//!    leap bias are both far below it. CI runs this file in release mode
//!    next to `large_k_ring_parity_holds_at_200_rules`.
//! 2. **determinism** — a τ-leap run is a pure function of the seed.
//! 3. **boundary honesty** — on guarded models parked at (or walking
//!    into) absorbing boundaries, the negative-population guard and the
//!    exact-SSA fallback keep every count non-negative and stop exactly
//!    where the exact engine stops.

use mean_field_uncertain::lang::ScenarioRegistry;
use mean_field_uncertain::num::ode::{Integrator, Rk4};
use mean_field_uncertain::sim::gillespie::{SimulationOptions, Simulator};
use mean_field_uncertain::sim::policy::ConstantPolicy;
use mean_field_uncertain::sim::tauleap::TauLeapOptions;

/// Sup-norm accuracy budget for one `N = 10⁵` trajectory vs the drift:
/// fluctuations contribute `O(1/√N) ≈ 0.003` and the `ε = 0.03` leap bias
/// stays below that, so 0.02 carries a comfortable safety factor while
/// still failing on any systematic error (a wrong step-size bound or a
/// mis-scaled Poisson mean shows up at the 0.1+ level).
const SUP_TOLERANCE: f64 = 0.02;

#[test]
fn tau_leap_tracks_the_drift_at_1e5_for_sir_and_gps() {
    let registry = ScenarioRegistry::with_builtins();
    for name in ["sir", "gps"] {
        let scenario = registry.get(name).expect("registered");
        let model = scenario.compile().expect("compiles");
        let population = model.population_model().expect("population backend");
        let horizon = scenario.horizon();
        let theta = model.params().midpoint();
        let reference = Rk4::with_step(1e-3)
            .integrate(
                &population.ode_for(theta.clone()),
                0.0,
                model.initial_state(),
                horizon,
            )
            .expect("drift integrates");

        let scale = 100_000;
        let simulator = Simulator::new(population.clone(), scale).expect("simulator");
        let options = SimulationOptions::new(horizon).tau_leap(TauLeapOptions::new(0.03));
        for seed in [3, 41] {
            let mut policy = ConstantPolicy::new(theta.clone());
            let run = simulator
                .simulate(&model.initial_counts(scale), &mut policy, &options, seed)
                .expect("tau-leap run");
            let sup_error = run
                .trajectory()
                .iter()
                .map(|(t, state)| state.distance_inf(&reference.at(t).expect("sampled")))
                .fold(0.0_f64, f64::max);
            assert!(
                sup_error < SUP_TOLERANCE,
                "`{name}` seed {seed}: sup error {sup_error} vs drift exceeds {SUP_TOLERANCE}"
            );
            // and leaping actually leapt: an exact run at this scale costs
            // hundreds of thousands of events
            assert!(
                run.events() < 50_000,
                "`{name}` seed {seed}: {} steps — did not leap",
                run.events()
            );
        }
    }
}

#[test]
fn tau_leap_is_deterministic_per_seed_at_1e6() {
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get("sir_1e6").expect("registered");
    let scale = scenario.default_scale().expect("scaled scenario");
    let model = scenario.compile().expect("compiles");
    let simulator =
        Simulator::new(model.population_model().expect("population"), scale).expect("simulator");
    let options = SimulationOptions::new(scenario.horizon()).tau_leap(TauLeapOptions::default());
    let run = |seed: u64| {
        let mut policy = ConstantPolicy::new(model.params().midpoint());
        simulator
            .simulate(&model.initial_counts(scale), &mut policy, &options, seed)
            .expect("tau-leap run")
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a.events(), b.events());
    assert_eq!(a.final_counts(), b.final_counts());
    for ((ta, sa), (tb, sb)) in a.trajectory().iter().zip(b.trajectory().iter()) {
        assert_eq!(ta.to_bits(), tb.to_bits(), "event times diverged");
        assert_eq!(sa.as_slice(), sb.as_slice(), "states diverged");
    }
    // a different seed gives a different realisation
    assert_ne!(a.final_counts(), run(18).final_counts());
    // conservation at a million individuals, across every leap
    assert_eq!(a.final_counts().iter().sum::<i64>(), scale as i64);
}

/// The PR 4 guarded boundary scenario: once X is exhausted both rates are
/// exactly 0.0 and nothing may ever fire.
const GUARDED_ABSORBING_SOURCE: &str = "\
model guarded_absorbing;
species X, Y;
param r in [1, 2];
rule decay:   X -> Y @ when X > 0 { r * X } else { 0 };
rule degrade: Y -> 0 @ when X > 0 { 0.5 * Y } else { 0 };
init X = 0.4, Y = 0.6;
";

#[test]
fn negative_population_guard_holds_on_the_guarded_boundary_model() {
    let model = mean_field_uncertain::lang::compile(GUARDED_ABSORBING_SOURCE).unwrap();
    let population = model.population_model().unwrap();
    let simulator = Simulator::new(population, 100).unwrap();
    let theta = model.params().midpoint();
    // coarse epsilon on a small population: Poisson overshoot is the rule,
    // not the exception, so the halving guard and the exact fallback both
    // fire constantly
    let options = SimulationOptions::new(200.0).tau_leap(TauLeapOptions::new(0.3));
    for seed in 0..8 {
        let mut policy = ConstantPolicy::new(theta.clone());
        let run = simulator
            .simulate(&[40, 60], &mut policy, &options, seed)
            .expect("guarded run");
        assert_eq!(run.final_counts()[0], 0, "seed {seed}: X not exhausted");
        assert!(run.final_counts()[1] >= 0, "seed {seed}");
        for (_, state) in run.trajectory().iter() {
            assert!(
                state.iter().all(|&v| v >= 0.0),
                "seed {seed}: negative population recorded"
            );
        }
        // parked exactly on the boundary: all rates are 0.0, so the run
        // must absorb immediately without a single step
        let mut policy = ConstantPolicy::new(theta.clone());
        let parked = simulator
            .simulate(&[0, 60], &mut policy, &options, seed)
            .expect("parked run");
        assert_eq!(parked.events(), 0, "seed {seed}: fired at the boundary");
        assert_eq!(parked.final_counts(), &[0, 60]);
    }
}

#[test]
fn ensemble_threads_the_tau_leap_algorithm() {
    use mean_field_uncertain::sim::ensemble::{run_ensemble, EnsembleOptions};
    let registry = ScenarioRegistry::with_builtins();
    let model = registry.compile("sir").unwrap();
    let population = model.population_model().unwrap();
    let horizon = 3.0;
    let theta = model.params().midpoint();
    let reference = Rk4::with_step(1e-3)
        .integrate(
            &population.ode_for(theta.clone()),
            0.0,
            model.initial_state(),
            horizon,
        )
        .unwrap();
    let scale = 10_000;
    let simulator = Simulator::new(population.clone(), scale).unwrap();
    let summary = run_ensemble(
        &simulator,
        &model.initial_counts(scale),
        || ConstantPolicy::new(theta.clone()),
        &SimulationOptions::new(horizon).tau_leap(TauLeapOptions::new(0.03)),
        &EnsembleOptions {
            replications: 16,
            base_seed: 29,
            threads: 4,
            grid_intervals: 20,
        },
    )
    .unwrap();
    // averaging 16 replications shrinks the fluctuations well below the
    // single-run budget; what is left is the leap bias
    let distance = summary
        .max_mean_distance(|t| reference.at(t).unwrap())
        .unwrap();
    assert!(
        distance < 0.01,
        "tau-leap ensemble mean deviates from the drift by {distance}"
    );
    for k in 0..summary.times().len() {
        assert_eq!(summary.samples_at(k), 16, "grid point {k} lost samples");
    }
}
