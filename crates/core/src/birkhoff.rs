//! Birkhoff centres of two-dimensional mean-field differential inclusions.
//!
//! Theorem 3 of the paper shows that the stationary measures of an imprecise
//! population process concentrate on the Birkhoff centre `B_F` of the
//! mean-field differential inclusion. For two-dimensional systems the paper
//! (Section V-C) gives a constructive procedure, reproduced here:
//!
//! 1. compute the fixed point of the ODE with `ϑ = ϑ^max`;
//! 2. integrate with `ϑ = ϑ^min` from that point, then with `ϑ = ϑ^max` from
//!    the new endpoint — the two arcs delimit an initial region;
//! 3. *expand*: look for boundary points where some `ϑ ∈ Θ` pushes the drift
//!    outward; if one exists, integrate a trajectory from there under that
//!    `ϑ` and grow the region; repeat until no boundary point can escape.
//!
//! The region is maintained as the convex hull of the trajectory point cloud,
//! matching the paper's description of the SIR steady state as "the convex
//! set delimited by the blue region". Once no drift direction points outward
//! anywhere on the boundary, no solution of the inclusion can leave the
//! region, so it contains the Birkhoff centre reachable from the seed.

use mfu_num::geometry::{convex_hull, Point2, Polygon};
use mfu_num::ode::{equilibrium, EquilibriumOptions, FnSystem, Integrator, Rk4};
use mfu_num::StateVec;

use crate::drift::ImpreciseDrift;
use crate::{CoreError, Result};

/// Maximum number of expansion rounds.
const MAX_EXPANSIONS: usize = 60;

/// A boundary point expands the region when one probe step along the drift
/// moves it outside the current hull by more than this distance.
const OUTWARD_TOLERANCE: f64 = 1e-6;

/// Length of the probe step along the drift when testing for escape.
const PROBE_STEP: f64 = 1e-3;

/// Options of the Birkhoff-centre construction.
///
/// The expansion's own settings are constants: at most 60 rounds, and a
/// boundary point escapes when a probe step of `1e-3` along the drift
/// leaves the hull by more than `1e-6`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirkhoffOptions {
    /// Fixed integration step for every trajectory.
    pub step: f64,
    /// Length of the trajectory bursts used to seed and expand the region.
    pub settle_time: f64,
    /// Number of boundary sample points tested per expansion round.
    pub boundary_samples: usize,
}

impl Default for BirkhoffOptions {
    fn default() -> Self {
        BirkhoffOptions {
            step: 1e-3,
            settle_time: 40.0,
            boundary_samples: 120,
        }
    }
}

/// The computed Birkhoff-centre region of a two-dimensional inclusion.
#[derive(Debug, Clone)]
pub struct BirkhoffCentre {
    hull: Polygon,
    cloud_size: usize,
    expansions: usize,
}

impl BirkhoffCentre {
    /// The region as a convex polygon in the `(x_0, x_1)` plane.
    pub fn polygon(&self) -> &Polygon {
        &self.hull
    }

    /// Number of trajectory points accumulated during the construction.
    pub fn cloud_size(&self) -> usize {
        self.cloud_size
    }

    /// Number of expansion rounds that actually grew the region.
    pub fn expansions(&self) -> usize {
        self.expansions
    }

    /// Area of the region.
    pub fn area(&self) -> f64 {
        self.hull.area()
    }

    /// Returns `true` when the (two-dimensional) state lies inside the region.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have exactly two coordinates.
    pub fn contains_state(&self, state: &StateVec) -> bool {
        assert_eq!(
            state.dim(),
            2,
            "Birkhoff centre containment requires a 2-D state"
        );
        self.hull.contains(Point2::new(state[0], state[1]))
    }

    /// Returns `true` when the point lies inside the region.
    pub fn contains(&self, point: Point2) -> bool {
        self.hull.contains(point)
    }

    /// Fraction of the given points inside the region — the quantity that
    /// tends to 1 as `N` grows in Figure 6 of the paper.
    pub fn containment_fraction(&self, points: &[Point2]) -> f64 {
        self.hull.containment_fraction(points.iter())
    }
}

/// Computes the Birkhoff-centre region of a two-dimensional imprecise drift.
///
/// `seed` is the initial condition from which the first fixed point is
/// searched (any point of the domain of interest works for the paper's
/// models).
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedDimension`] when the drift is not
/// two-dimensional, [`CoreError::InvalidInput`] when the step is not
/// positive and finite, propagates integration errors, and reports
/// non-convergence when the `ϑ^max` fixed point cannot be found.
pub fn birkhoff_centre_2d<D: ImpreciseDrift>(
    drift: &D,
    seed: &StateVec,
    options: &BirkhoffOptions,
) -> Result<BirkhoffCentre> {
    if drift.dim() != 2 {
        return Err(CoreError::UnsupportedDimension {
            required: 2,
            found: drift.dim(),
        });
    }
    if seed.dim() != 2 {
        return Err(CoreError::invalid_input("seed must be two-dimensional"));
    }
    CoreError::check_step(options.step)?;
    let theta_max = drift.params().upper();
    let theta_min = drift.params().lower();
    let solver = Rk4::with_step(options.step);

    let ode_for = |theta: Vec<f64>| {
        FnSystem::new(2, move |_t, x: &StateVec, dx: &mut StateVec| {
            drift.drift_into(x, &theta, dx);
        })
    };

    // Step 1: fixed point under ϑ^max.
    let eq_options = EquilibriumOptions {
        step: options.step.max(1e-3),
        drift_tolerance: 1e-9,
        ..EquilibriumOptions::default()
    };
    let fp_max = equilibrium(&ode_for(theta_max.clone()), seed.clone(), &eq_options).map_err(
        |err| match err {
            mfu_num::NumError::NoConvergence {
                iterations,
                residual,
                ..
            } => CoreError::NoConvergence {
                analysis: "birkhoff fixed point (theta_max)",
                iterations,
                residual,
            },
            other => CoreError::Numerical(other),
        },
    )?;

    // Step 2: seed the region with the ϑ^min arc from the ϑ^max fixed point
    // and the ϑ^max arc back.
    let mut cloud: Vec<Point2> = vec![Point2::new(fp_max[0], fp_max[1])];
    let arc_min = solver.integrate(
        &ode_for(theta_min.clone()),
        0.0,
        fp_max.clone(),
        options.settle_time,
    )?;
    extend_cloud(&mut cloud, arc_min.states());
    let arc_max = solver.integrate(
        &ode_for(theta_max.clone()),
        0.0,
        arc_min.last_state().clone(),
        options.settle_time,
    )?;
    extend_cloud(&mut cloud, arc_max.states());

    let mut hull = hull_of_cloud(&cloud)?;

    // Step 3: boundary expansion.
    let theta_vertices = drift.params().vertices();
    let mut expansions = 0usize;
    let mut drift_buffer = StateVec::zeros(2);
    for _round in 0..MAX_EXPANSIONS {
        let mut expanded = false;
        for sample in boundary_samples(&hull, options.boundary_samples) {
            let state = StateVec::from([sample.x, sample.y]);
            for theta in &theta_vertices {
                drift.drift_into(&state, theta, &mut drift_buffer);
                let probe = Point2::new(
                    sample.x + PROBE_STEP * drift_buffer[0],
                    sample.y + PROBE_STEP * drift_buffer[1],
                );
                if !hull.contains(probe) && hull.distance_to_region(probe) > OUTWARD_TOLERANCE {
                    // The drift pushes this boundary point outside: grow the
                    // region with a trajectory burst under that parameter.
                    let burst = solver.integrate(
                        &ode_for(theta.clone()),
                        0.0,
                        state.clone(),
                        options.settle_time,
                    )?;
                    extend_cloud(&mut cloud, burst.states());
                    expanded = true;
                    break;
                }
            }
            if expanded {
                break;
            }
        }
        if !expanded {
            break;
        }
        hull = hull_of_cloud(&cloud)?;
        expansions += 1;
    }

    Ok(BirkhoffCentre {
        hull,
        cloud_size: cloud.len(),
        expansions,
    })
}

fn extend_cloud(cloud: &mut Vec<Point2>, states: &[StateVec]) {
    cloud.extend(states.iter().map(|s| Point2::new(s[0], s[1])));
}

fn hull_of_cloud(cloud: &[Point2]) -> Result<Polygon> {
    match convex_hull(cloud) {
        Ok(hull) => Ok(hull),
        Err(_) => {
            // Degenerate cloud (e.g. a precise model whose trajectories all sit
            // at one fixed point): inflate to a tiny triangle around the
            // centroid so downstream containment queries remain meaningful.
            let n = cloud.len().max(1) as f64;
            let (cx, cy) = cloud
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x / n, sy + p.y / n));
            let eps = 1e-9;
            Ok(Polygon::new(vec![
                Point2::new(cx - eps, cy - eps),
                Point2::new(cx + eps, cy - eps),
                Point2::new(cx, cy + eps),
            ])?)
        }
    }
}

/// Samples points along the boundary of a polygon (vertices plus points
/// interpolated along edges), `count` in total.
fn boundary_samples(polygon: &Polygon, count: usize) -> Vec<Point2> {
    let vertices = polygon.vertices();
    let n = vertices.len();
    let per_edge = (count / n).max(1);
    let mut out = Vec::with_capacity(n * per_edge);
    for i in 0..n {
        let a = vertices[i];
        let b = vertices[(i + 1) % n];
        for k in 0..per_edge {
            let w = k as f64 / per_edge as f64;
            out.push(Point2::new(a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::inclusion::DifferentialInclusion;
    use crate::signal::PiecewiseSignal;
    use mfu_ctmc::params::ParamSpace;

    /// A rotation-plus-contraction toward a ϑ-dependent centre:
    /// ẋ = -(x - ϑ) - (y - 0.5), ẏ = (x - ϑ) - (y - 0.5).
    /// For fixed ϑ the unique fixed point is (ϑ, 0.5); as ϑ varies in
    /// [0.3, 0.7] the Birkhoff centre contains the segment of fixed points.
    fn spiral_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let theta = ParamSpace::single("center", 0.3, 0.7).unwrap();
        FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -(x[0] - th[0]) - (x[1] - 0.5);
            dx[1] = (x[0] - th[0]) - (x[1] - 0.5);
        })
    }

    fn fast_options() -> BirkhoffOptions {
        BirkhoffOptions {
            step: 1e-2,
            settle_time: 20.0,
            boundary_samples: 60,
        }
    }

    #[test]
    fn region_contains_all_fixed_points_of_the_uncertain_model() {
        let drift = spiral_drift();
        let centre =
            birkhoff_centre_2d(&drift, &StateVec::from([0.5, 0.5]), &fast_options()).unwrap();
        assert!(centre.area() > 0.0);
        assert!(centre.cloud_size() > 10);
        for theta in [0.3, 0.4, 0.5, 0.6, 0.7] {
            assert!(
                centre.contains(Point2::new(theta, 0.5)),
                "fixed point ({theta}, 0.5) outside the Birkhoff centre"
            );
        }
    }

    #[test]
    fn region_traps_long_run_switching_trajectories() {
        let drift = spiral_drift();
        let centre =
            birkhoff_centre_2d(&drift, &StateVec::from([0.5, 0.5]), &fast_options()).unwrap();
        // Run a switching selection of the inclusion for a long time; after a
        // transient its states must be inside the region.
        let inclusion = DifferentialInclusion::new(&drift);
        let signal = PiecewiseSignal::new(
            vec![5.0, 10.0, 15.0],
            vec![vec![0.3], vec![0.7], vec![0.3], vec![0.7]],
        );
        let traj = inclusion
            .solve_fixed_step(&signal, StateVec::from([0.5, 0.5]), 20.0, 1e-2)
            .unwrap();
        for (t, state) in traj.iter() {
            if t < 5.0 {
                continue; // transient
            }
            assert!(
                centre
                    .polygon()
                    .distance_to_region(Point2::new(state[0], state[1]))
                    < 0.05,
                "state at t = {t} escaped the region"
            );
        }
    }

    #[test]
    fn precise_model_collapses_to_a_point_region() {
        let theta = ParamSpace::single("center", 0.5, 0.5).unwrap();
        let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = -(x[0] - th[0]);
            dx[1] = -(x[1] - 0.5);
        });
        let centre =
            birkhoff_centre_2d(&drift, &StateVec::from([0.9, 0.1]), &fast_options()).unwrap();
        assert!(centre.area() < 1e-6);
        assert!(centre.contains(Point2::new(0.5, 0.5)));
        assert_eq!(centre.expansions(), 0);
    }

    #[test]
    fn wider_parameter_ranges_give_larger_regions() {
        let make = |lo: f64, hi: f64| {
            let theta = ParamSpace::single("center", lo, hi).unwrap();
            let drift = FnDrift::new(2, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
                dx[0] = -(x[0] - th[0]) - (x[1] - 0.5);
                dx[1] = (x[0] - th[0]) - (x[1] - 0.5);
            });
            birkhoff_centre_2d(&drift, &StateVec::from([0.5, 0.5]), &fast_options())
                .unwrap()
                .area()
        };
        let narrow = make(0.45, 0.55);
        let wide = make(0.2, 0.8);
        assert!(wide > narrow, "wide {wide} should exceed narrow {narrow}");
    }

    #[test]
    fn dimension_checks() {
        let theta = ParamSpace::single("rate", 0.0, 1.0).unwrap();
        let one_d = FnDrift::new(1, theta, |_x: &StateVec, _th: &[f64], dx: &mut StateVec| {
            dx[0] = 0.0;
        });
        let err = birkhoff_centre_2d(&one_d, &StateVec::from([0.0]), &fast_options()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnsupportedDimension {
                required: 2,
                found: 1
            }
        ));
        let drift = spiral_drift();
        assert!(birkhoff_centre_2d(&drift, &StateVec::from([0.0]), &fast_options()).is_err());
    }

    #[test]
    fn containment_fraction_counts_points() {
        let drift = spiral_drift();
        let centre =
            birkhoff_centre_2d(&drift, &StateVec::from([0.5, 0.5]), &fast_options()).unwrap();
        let inside = vec![Point2::new(0.5, 0.5), Point2::new(0.4, 0.5)];
        let mixed = vec![Point2::new(0.5, 0.5), Point2::new(5.0, 5.0)];
        assert!((centre.containment_fraction(&inside) - 1.0).abs() < 1e-12);
        assert!((centre.containment_fraction(&mixed) - 0.5).abs() < 1e-12);
        assert!(centre.contains_state(&StateVec::from([0.5, 0.5])));
    }
}
