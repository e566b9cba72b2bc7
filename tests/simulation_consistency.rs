//! Cross-layer consistency tests: the stochastic simulator, the exact
//! finite-chain analysis and the mean-field limit must agree where the theory
//! says they should (Theorem 1 and the Kurtz-style convergence it builds on).

use mean_field_uncertain::core::birkhoff::{birkhoff_centre_2d, BirkhoffOptions};
use mean_field_uncertain::ctmc::finite::{ExpansionOptions, FiniteChain};
use mean_field_uncertain::models::bike::BikeStationModel;
use mean_field_uncertain::models::sir::SirModel;
use mean_field_uncertain::num::ode::{Integrator, Rk4};
use mean_field_uncertain::sim::ensemble::{run_ensemble, EnsembleOptions};
use mean_field_uncertain::sim::gillespie::{SimulationOptions, Simulator};
use mean_field_uncertain::sim::policy::{ConstantPolicy, HysteresisPolicy};
use mean_field_uncertain::sim::steady::{sample_steady_state, SteadyStateOptions};

/// The empirical mean of the simulator matches the exact uniformization answer
/// on a small bike station (same model, two independent code paths).
#[test]
fn simulator_matches_uniformization_on_a_small_station() {
    let bike = BikeStationModel::symmetric();
    let model = bike.population_model().unwrap();
    let racks = 10usize;
    let horizon = 3.0;
    let theta = [1.2, 0.8];

    let chain = FiniteChain::expand(
        &model,
        racks,
        &bike.initial_counts(racks),
        &theta,
        &ExpansionOptions::default(),
    )
    .unwrap();
    let exact = chain
        .generator()
        .transient_distribution(&chain.initial_distribution(), horizon, 1e-10)
        .unwrap();
    let exact_mean = chain.mean_normalized(&exact).unwrap()[0];

    let simulator = Simulator::new(model, racks).unwrap();
    let replications = 400;
    let mut total = 0.0;
    for seed in 0..replications {
        let mut policy = ConstantPolicy::new(theta.to_vec());
        let run = simulator
            .simulate(
                &bike.initial_counts(racks),
                &mut policy,
                &SimulationOptions::new(horizon).record_stride(32),
                seed,
            )
            .unwrap();
        total += run.trajectory().last_state()[0];
    }
    let empirical_mean = total / replications as f64;
    assert!(
        (empirical_mean - exact_mean).abs() < 0.03,
        "simulator mean {empirical_mean} vs uniformization {exact_mean}"
    );
}

/// Theorem 1 / Corollary 1 (uncertain case): at a moderately large N the SIR
/// ensemble mean follows the mean-field ODE for a fixed contact rate.
#[test]
fn sir_ensemble_mean_tracks_the_mean_field_ode() {
    let sir = SirModel::paper();
    let population = sir.population_model().unwrap();
    let scale = 500usize;
    let horizon = 3.0;
    let theta = 4.0;

    let simulator = Simulator::new(population.clone(), scale).unwrap();
    let summary = run_ensemble(
        &simulator,
        &sir.initial_counts(scale),
        || ConstantPolicy::new(vec![theta]),
        &SimulationOptions::new(horizon).record_stride(16),
        &EnsembleOptions {
            replications: 12,
            base_seed: 5,
            threads: 4,
            grid_intervals: 12,
        },
    )
    .unwrap();

    let ode = population.ode_for(vec![theta]);
    let reference = Rk4::with_step(1e-3)
        .integrate(&ode, 0.0, sir.full_initial_state(), horizon)
        .unwrap();
    let distance = summary
        .max_mean_distance(|t| reference.at(t).unwrap())
        .unwrap();
    assert!(
        distance < 0.05,
        "ensemble mean deviates from the mean field by {distance}"
    );
}

/// Theorem 3: stationary samples of the imprecise SIR system concentrate on
/// the Birkhoff centre as N grows.
#[test]
fn stationary_samples_concentrate_on_the_birkhoff_centre() {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let centre = birkhoff_centre_2d(
        &drift,
        &sir.reduced_initial_state(),
        &BirkhoffOptions {
            step: 2e-3,
            settle_time: 25.0,
            boundary_samples: 80,
        },
    )
    .unwrap();

    let population = sir.population_model().unwrap();
    let mut distances = Vec::new();
    for &scale in &[100usize, 2000] {
        let simulator = Simulator::new(population.clone(), scale).unwrap();
        let mut policy = HysteresisPolicy::new(
            vec![sir.contact_max],
            0,
            sir.contact_min,
            sir.contact_max,
            0,
            0.5,
            0.85,
            true,
        );
        let sample = sample_steady_state(
            &simulator,
            &sir.initial_counts(scale),
            &mut policy,
            &SteadyStateOptions::new(15.0, 0.25, 120),
            11,
        )
        .unwrap();
        let points = sample.project(0, 1).unwrap();
        let mean_distance = points
            .iter()
            .map(|p| centre.polygon().distance_to_region(*p))
            .sum::<f64>()
            / points.len() as f64;
        distances.push(mean_distance);
    }
    assert!(
        distances[1] < distances[0],
        "mean distance to the Birkhoff centre should shrink with N: {distances:?}"
    );
    assert!(
        distances[1] < 0.01,
        "at N = 2000 the samples should hug the centre: {distances:?}"
    );
}
