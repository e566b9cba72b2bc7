//! Figure 3: steady-state regime of the imprecise and uncertain SIR models.
//!
//! The steady state of the imprecise model is the Birkhoff centre of the
//! mean-field differential inclusion (a two-dimensional region); the steady
//! state of the uncertain model is the curve of fixed points obtained by
//! sweeping the constant contact rate over [ϑ^min, ϑ^max]. The paper shows
//! that the curve is strictly contained in the region and that the region
//! reaches smaller x_S / larger x_I values than any fixed point.
//!
//! Run with `cargo run --release -p mfu-bench --bin fig3_birkhoff_steady_state`.

use mfu_bench::{print_header, print_row, print_section};
use mfu_core::birkhoff::{birkhoff_centre_2d, BirkhoffOptions};
use mfu_core::uncertain::UncertainAnalysis;
use mfu_models::sir::SirModel;
use mfu_num::geometry::Point2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let x0 = sir.reduced_initial_state();

    println!("# Figure 3: steady state of the SIR model (theta_max = 10 * theta_min)");

    // Uncertain: fixed points of the constant-ϑ mean field.
    let analysis = UncertainAnalysis {
        grid_per_axis: 40,
        time_intervals: 10,
        step: 2e-3,
    };
    let fixed_points = analysis.fixed_points(&drift, &x0)?;
    print_section("uncertain model: fixed-point curve (one row per constant theta)");
    print_header(&["theta", "x_S", "x_I"]);
    for fp in &fixed_points {
        print_row(&[fp.theta[0], fp.state[0], fp.state[1]]);
    }

    // Imprecise: Birkhoff centre.
    let options = BirkhoffOptions {
        settle_time: 30.0,
        boundary_samples: 160,
        ..Default::default()
    };
    let centre = birkhoff_centre_2d(&drift, &x0, &options)?;
    print_section("imprecise model: Birkhoff centre boundary (convex polygon vertices)");
    print_header(&["x_S", "x_I"]);
    for vertex in centre.polygon().vertices() {
        print_row(&[vertex.x, vertex.y]);
    }

    // Containment / strictness checks (see the *Figures* section of
    // `docs/ARCHITECTURE.md`).
    let all_inside = fixed_points.iter().all(|fp| {
        centre
            .polygon()
            .distance_to_region(Point2::new(fp.state[0], fp.state[1]))
            < 1e-3
    });
    let min_s_curve = fixed_points
        .iter()
        .map(|fp| fp.state[0])
        .fold(f64::INFINITY, f64::min);
    let max_i_curve = fixed_points
        .iter()
        .map(|fp| fp.state[1])
        .fold(f64::NEG_INFINITY, f64::max);
    let (bb_lo, bb_hi) = centre.polygon().bounding_box();
    println!();
    println!("# summary: uncertain fixed-point curve inside the Birkhoff centre: {all_inside}");
    println!(
        "# summary: region reaches x_S as low as {:.3} (curve minimum {:.3}) and x_I as high as {:.3} (curve maximum {:.3})",
        bb_lo.x, min_s_curve, bb_hi.y, max_i_curve
    );
    println!(
        "# summary: region area {:.4}, expansions {}",
        centre.area(),
        centre.expansions()
    );
    Ok(())
}
