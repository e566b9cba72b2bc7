//! Integration tests reproducing, at reduced resolution, the qualitative
//! claims of the SIR case study (Section V, Figures 1–3 of the paper).

use mean_field_uncertain::core::birkhoff::{birkhoff_centre_2d, BirkhoffOptions};
use mean_field_uncertain::core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mean_field_uncertain::core::uncertain::UncertainAnalysis;
use mean_field_uncertain::models::sir::SirModel;
use mean_field_uncertain::num::geometry::Point2;

fn solver() -> PontryaginSolver {
    PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 200,
        ..Default::default()
    })
}

/// Figure 1: the imprecise bounds contain the uncertain bounds, with a gap
/// that grows with the horizon, and the imprecise maximum eventually exceeds
/// every constant-ϑ trajectory.
#[test]
fn figure1_imprecise_bounds_contain_uncertain_bounds() {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let x0 = sir.reduced_initial_state();
    let analysis = UncertainAnalysis {
        grid_per_axis: 12,
        time_intervals: 8,
        step: 2e-3,
    };

    let mut previous_excess = 0.0;
    for (k, horizon) in [1.0, 2.0, 4.0].iter().enumerate() {
        let envelope = analysis.envelope(&drift, &x0, *horizon).unwrap();
        let last = envelope.times().len() - 1;
        let (unc_lo, unc_hi) = (envelope.lower()[last][1], envelope.upper()[last][1]);
        let (imp_lo, imp_hi) = solver()
            .coordinate_extremes(&drift, &x0, *horizon, 1)
            .unwrap();

        assert!(
            imp_lo <= unc_lo + 1e-3,
            "horizon {horizon}: imprecise lower bound above uncertain"
        );
        assert!(
            imp_hi >= unc_hi - 1e-3,
            "horizon {horizon}: imprecise upper bound below uncertain"
        );
        // all bounds stay in the simplex
        for v in [unc_lo, unc_hi, imp_lo, imp_hi] {
            assert!((-1e-6..=1.0 + 1e-6).contains(&v));
        }
        let excess = imp_hi - unc_hi;
        if k > 0 {
            assert!(
                excess >= previous_excess - 5e-3,
                "the imprecise/uncertain gap should grow with the horizon"
            );
        }
        previous_excess = excess;
    }
    // At T = 4 the gap is substantial (the paper shows roughly 0.09 vs 0.15).
    assert!(
        previous_excess > 0.02,
        "expected a clear gap at T = 4, got {previous_excess}"
    );
}

/// Figure 2: the extremal controls are bang-bang. The control maximising
/// x_I(3) holds ϑ^min and switches to ϑ^max once, late in the horizon; the
/// minimising control switches twice.
#[test]
fn figure2_extremal_controls_are_bang_bang() {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let x0 = sir.reduced_initial_state();
    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: 400,
        ..Default::default()
    });

    let maximal = solver.maximize_coordinate(&drift, &x0, 3.0, 1).unwrap();
    let switches = maximal.switching_times(1e-6);
    assert_eq!(
        switches.len(),
        1,
        "maximising control should switch exactly once, got {switches:?}"
    );
    assert!(
        switches[0] > 1.8 && switches[0] < 2.8,
        "paper reports the switch near t = 2.25, got {switches:?}"
    );
    // every control value is at a vertex of Θ (bang-bang)
    for value in maximal.control().values() {
        let v = value[0];
        assert!((v - sir.contact_min).abs() < 1e-6 || (v - sir.contact_max).abs() < 1e-6);
    }
    // the extremal value beats every constant-ϑ trajectory
    let analysis = UncertainAnalysis {
        grid_per_axis: 10,
        time_intervals: 4,
        step: 2e-3,
    };
    let envelope = analysis.envelope(&drift, &x0, 3.0).unwrap();
    let unc_hi = envelope.upper()[4][1];
    assert!(maximal.objective_value() > unc_hi + 0.02);

    let minimal = solver.minimize_coordinate(&drift, &x0, 3.0, 1).unwrap();
    let switches = minimal.switching_times(1e-6);
    assert_eq!(
        switches.len(),
        2,
        "minimising control should switch twice, got {switches:?}"
    );
    assert!(
        switches[0] < 1.2 && switches[1] > 1.6,
        "paper reports switches near 0.7 and 2.2"
    );
    assert!(minimal.objective_value() < envelope.lower()[4][1] + 1e-3);
}

/// Figure 3: the steady state of the uncertain model (fixed-point curve) is
/// contained in the Birkhoff centre of the imprecise model, and the centre
/// extends strictly beyond the curve.
#[test]
fn figure3_birkhoff_centre_contains_fixed_point_curve() {
    let sir = SirModel::paper();
    let drift = sir.reduced_drift();
    let x0 = sir.reduced_initial_state();

    let analysis = UncertainAnalysis {
        grid_per_axis: 12,
        time_intervals: 8,
        step: 2e-3,
    };
    let fixed_points = analysis.fixed_points(&drift, &x0).unwrap();
    assert!(fixed_points.len() >= 10);

    let options = BirkhoffOptions {
        step: 2e-3,
        settle_time: 25.0,
        boundary_samples: 80,
    };
    let centre = birkhoff_centre_2d(&drift, &x0, &options).unwrap();
    assert!(
        centre.area() > 1e-3,
        "the imprecise steady state is a genuine region"
    );

    for fp in &fixed_points {
        let point = Point2::new(fp.state[0], fp.state[1]);
        assert!(
            centre.polygon().distance_to_region(point) < 5e-3,
            "fixed point for ϑ = {:?} lies outside the Birkhoff centre",
            fp.theta
        );
    }

    // the centre reaches x_S below and x_I above every fixed point
    let min_s_curve = fixed_points
        .iter()
        .map(|fp| fp.state[0])
        .fold(f64::INFINITY, f64::min);
    let max_i_curve = fixed_points
        .iter()
        .map(|fp| fp.state[1])
        .fold(f64::NEG_INFINITY, f64::max);
    let (bb_lo, bb_hi) = centre.polygon().bounding_box();
    assert!(bb_lo.x < min_s_curve - 0.01);
    assert!(bb_hi.y > max_i_curve + 0.01);
}
