//! Integration tests for the GPS queueing case study (Section VI, Figure 7
//! and the robust-tuning exercise of the paper).

use mean_field_uncertain::core::pontryagin::{
    LinearObjective, PontryaginOptions, PontryaginSolver,
};
use mean_field_uncertain::core::robust::{minimize_worst_case, RobustOptions};
use mean_field_uncertain::core::uncertain::UncertainAnalysis;
use mean_field_uncertain::core::CoreError;
use mean_field_uncertain::models::gps::GpsModel;
use mean_field_uncertain::num::StateVec;

fn solver() -> PontryaginSolver {
    PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 120,
        ..Default::default()
    })
}

/// Figure 7(a): with Poisson job creation, letting the rate vary in time does
/// not produce materially worse congestion than the worst constant rate —
/// the imprecise and uncertain maxima essentially coincide.
#[test]
fn figure7_poisson_imprecise_matches_uncertain_maximum() {
    let gps = GpsModel::paper();
    let drift = gps.poisson_drift();
    let x0 = gps.poisson_initial_state();
    let horizon = 3.0;

    let analysis = UncertainAnalysis {
        grid_per_axis: 6,
        time_intervals: 6,
        step: 2e-3,
    };
    let envelope = analysis.envelope(&drift, &x0, horizon).unwrap();
    let unc_q2 = envelope.upper()[6][1];

    let imprecise = solver()
        .maximize_coordinate(&drift, &x0, horizon, 1)
        .unwrap();
    let gap = imprecise.objective_value() - unc_q2;
    assert!(
        gap >= -1e-3,
        "imprecise max cannot be below the uncertain max"
    );
    assert!(
        gap < 0.02,
        "Poisson scenario: imprecise max should essentially equal the uncertain max (gap {gap})"
    );
}

/// Figure 7(b): with MAP job creation, a time-varying rate can exploit the
/// activation delay to build bursts, so the imprecise maximum of the class-2
/// queue clearly exceeds every constant-rate maximum.
#[test]
fn figure7_map_imprecise_exceeds_uncertain_maximum() {
    let gps = GpsModel::paper();
    let drift = gps.map_drift();
    let x0 = gps.map_initial_state();
    let horizon = 3.0;

    let analysis = UncertainAnalysis {
        grid_per_axis: 6,
        time_intervals: 6,
        step: 2e-3,
    };
    let envelope = analysis.envelope(&drift, &x0, horizon).unwrap();
    let unc_q1 = envelope.upper()[6][1];

    let imprecise = solver()
        .maximize_coordinate(&drift, &x0, horizon, 1)
        .unwrap();
    let gap = imprecise.objective_value() - unc_q1;
    assert!(
        gap > 0.01,
        "MAP scenario: imprecise Q1 max should exceed the uncertain max by a clear margin (gap {gap})"
    );
}

/// The queues of the mean field stay in [0, 1] under every analysis (they are
/// per-class fractions of a closed population).
#[test]
fn gps_queues_stay_in_the_unit_interval() {
    let gps = GpsModel::paper();
    let drift = gps.map_drift();
    let x0 = gps.map_initial_state();
    let (lo, hi) = solver().coordinate_extremes(&drift, &x0, 3.0, 3).unwrap();
    assert!(lo >= -1e-6 && hi <= 1.0 + 1e-6, "[{lo}, {hi}]");
}

/// Section VI-C: the worst-case total backlog is a well-behaved function of
/// the GPS weight, and the robust-design search finds a weight at least as
/// good as every sampled candidate.
#[test]
fn robust_weight_search_dominates_a_coarse_sweep() {
    let horizon = 2.0;
    let worst_case = |phi1: f64| -> Result<f64, CoreError> {
        let gps = GpsModel {
            weights: [phi1, 1.0],
            ..GpsModel::paper()
        };
        let drift = gps.map_drift();
        let objective = LinearObjective::maximize(StateVec::from(vec![0.0, 1.0, 0.0, 1.0]));
        let solution = solver().solve(&drift, &gps.map_initial_state(), horizon, objective)?;
        Ok(solution.objective_value())
    };

    let robust = RobustOptions {
        coarse_grid: 6,
        design_tolerance: 0.1,
    };
    let best = minimize_worst_case(1.0, 12.0, &robust, worst_case).unwrap();
    for phi1 in [1.0, 3.0, 6.0, 9.0, 12.0] {
        let value = worst_case(phi1).unwrap();
        assert!(
            best.worst_case <= value + 1e-3,
            "robust optimum {} at φ1 = {} beaten by φ1 = {phi1} ({value})",
            best.worst_case,
            best.design
        );
    }
}
