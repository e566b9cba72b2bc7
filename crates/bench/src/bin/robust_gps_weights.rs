//! Section VI-C: robust tuning of the GPS weights.
//!
//! The design question is the value of `φ_1/φ_2` minimising the worst-case
//! total queue length `max_ϑ (Q_1 + Q_2)(T)`, where the inner maximisation is
//! the Pontryagin sweep over the imprecise job-creation rates. The paper
//! reports a convex dependence with the optimum near `φ_1 = 9 φ_2`.
//!
//! The paper does not report the machine capacity `C`; the location of the
//! optimum depends on it. This binary therefore sweeps `φ_1` for the default
//! capacity (`C` equal to the per-class population) and for a congested
//! configuration (a quarter of that capacity) and reports the robust optimum
//! for both; the *Figures* section of `docs/ARCHITECTURE.md` discusses the
//! comparison with the paper.
//!
//! Run with `cargo run --release -p mfu-bench --bin robust_gps_weights`.

use mfu_bench::{print_header, print_row, print_section};
use mfu_core::pontryagin::{LinearObjective, PontryaginOptions, PontryaginSolver};
use mfu_core::robust::{minimize_worst_case, RobustOptions};
use mfu_core::CoreError;
use mfu_models::gps::GpsModel;
use mfu_num::StateVec;

fn worst_case_backlog(phi1: f64, capacity: f64, horizon: f64) -> Result<f64, CoreError> {
    let gps = GpsModel {
        weights: [phi1, 1.0],
        capacity,
        ..GpsModel::paper()
    };
    let drift = gps.map_drift();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 150,
        multi_start: true,
        ..Default::default()
    });
    let objective = LinearObjective::maximize(StateVec::from(vec![0.0, 1.0, 0.0, 1.0]));
    let solution = solver.solve(&drift, &gps.map_initial_state(), horizon, objective)?;
    Ok(solution.objective_value())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let horizon = 5.0;
    println!("# Section VI-C: robust tuning of the GPS weight phi1 (phi2 = 1, MAP scenario, T = {horizon})");

    for &capacity in &[1.0, 0.25] {
        print_section(&format!(
            "machine capacity per application C/N = {capacity}"
        ));
        print_header(&["phi1", "worst_case_total_queue"]);
        for &phi1 in &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 9.0, 10.0, 12.0, 16.0, 20.0] {
            let backlog = worst_case_backlog(phi1, capacity, horizon)?;
            print_row(&[phi1, backlog]);
        }
        let robust = RobustOptions {
            coarse_grid: 12,
            design_tolerance: 0.05,
        };
        let best = minimize_worst_case(1.0, 20.0, &robust, |phi1| {
            worst_case_backlog(phi1, capacity, horizon)
        })?;
        println!(
            "# robust optimum: phi1 = {:.2} with worst-case total queue {:.4} ({} evaluations)",
            best.design, best.worst_case, best.evaluations
        );
    }

    println!();
    println!("# The paper reports the optimum near phi1 = 9.0 for its (unreported) capacity.");
    Ok(())
}
