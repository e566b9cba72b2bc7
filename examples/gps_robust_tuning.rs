//! Robust tuning of the GPS weights (Section VI-C of the paper).
//!
//! The generalized-processor-sharing machine serves two job classes with
//! weights `φ_1, φ_2`. The job-creation rates are imprecise, so the design
//! question is: which weights minimise the *worst-case* total queue length?
//! The paper finds the optimum near `φ_1 = 9 φ_2`. This example computes the
//! worst-case backlog with the Pontryagin sweep for a sweep of weights and
//! then refines the optimum with the robust-design search.
//!
//! Run with `cargo run --release --example gps_robust_tuning`.

use mean_field_uncertain::core::pontryagin::{
    LinearObjective, PontryaginOptions, PontryaginSolver,
};
use mean_field_uncertain::core::robust::{minimize_worst_case, RobustOptions};
use mean_field_uncertain::models::gps::GpsModel;
use mean_field_uncertain::num::StateVec;

/// Worst-case total queue length `max_ϑ (Q_1 + Q_2)(T)` of the MAP scenario
/// for a candidate weight `φ_1` (with `φ_2 = 1`).
fn worst_case_backlog(phi1: f64, horizon: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let gps = GpsModel::paper_with_weights(phi1, 1.0);
    let drift = gps.map_drift();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 150,
        multi_start: true,
        ..Default::default()
    });
    // maximise Q_1 + Q_2 at the horizon (coordinates 1 and 3 of the MAP state)
    let objective = LinearObjective::maximize(StateVec::from(vec![0.0, 1.0, 0.0, 1.0]));
    let solution = solver.solve(&drift, &gps.map_initial_state(), horizon, objective)?;
    Ok(solution.objective_value())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = 5.0;
    println!("== Worst-case total queue length as a function of φ1 (φ2 = 1) ==");
    println!("  φ1      max_ϑ (Q1 + Q2)({horizon})");
    for phi1 in [1.0, 2.0, 4.0, 6.0, 8.0, 9.0, 10.0, 12.0, 16.0] {
        let backlog = worst_case_backlog(phi1, horizon)?;
        println!("  {phi1:<6.1}  {backlog:.4}");
    }
    println!();

    println!("== Robust optimum ==");
    let robust = RobustOptions {
        coarse_grid: 10,
        design_tolerance: 0.05,
    };
    let best = minimize_worst_case(1.0, 16.0, &robust, |phi1| {
        worst_case_backlog(phi1, horizon)
            .map_err(|err| mean_field_uncertain::core::CoreError::invalid_input(err.to_string()))
    })?;
    println!(
        "  optimal φ1 ≈ {:.2} (worst-case backlog {:.4}, {} objective evaluations)",
        best.design, best.worst_case, best.evaluations
    );
    println!("  The paper reports the optimum near φ1 = 9.0 φ2.");
    Ok(())
}
