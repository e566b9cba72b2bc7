//! Numerical substrate for the `mean-field-uncertain` workspace.
//!
//! This crate provides the low-level numerical building blocks used by the
//! mean-field analysis of uncertain and imprecise population processes
//! (Bortolussi & Gast, DSN 2016):
//!
//! * [`StateVec`] — a small dense state vector with element-wise arithmetic,
//!   used for population densities, drifts and costates;
//! * the [`batch`] module — coordinate-major structure-of-arrays batches
//!   ([`batch::SoaBatch`]) carrying many states or parameter vectors for
//!   lane-parallel evaluators;
//! * the [`ode`] module — explicit ODE integrators (classic fixed-step RK4,
//!   whose allocation-free step every fixed-step analysis shares, and an
//!   adaptive Dormand–Prince 4(5) pair) together with dense
//!   [`Trajectory`](ode::Trajectory) output and interpolation;
//! * the [`rootfind`] module — grid scans and golden-section minimisation,
//!   used for robust parameter tuning;
//! * the [`jacobian`] module — finite-difference Jacobians of vector fields,
//!   used by the Pontryagin costate equations;
//! * the [`geometry`] module — 2-D polygons, convex hulls, point-in-polygon
//!   and distance queries, used to represent Birkhoff centres and reachable
//!   regions;
//! * the [`grid`] module — uniform time grids and linear interpolation on
//!   them.
//!
//! # Example
//!
//! Integrate the logistic equation with the adaptive Dormand–Prince solver:
//!
//! ```
//! use mfu_num::ode::{Dopri45, Integrator, OdeSystem};
//! use mfu_num::StateVec;
//!
//! struct Logistic;
//! impl OdeSystem for Logistic {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, x: &StateVec, dx: &mut StateVec) {
//!         dx[0] = x[0] * (1.0 - x[0]);
//!     }
//! }
//!
//! let solver = Dopri45::default();
//! let traj = solver.integrate(&Logistic, 0.0, StateVec::from(vec![0.1]), 20.0)?;
//! let end = traj.last_state();
//! assert!((end[0] - 1.0).abs() < 1e-4);
//! # Ok::<(), mfu_num::NumError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod vector;

pub mod batch;
pub mod geometry;
pub mod grid;
pub mod jacobian;
pub mod ode;
pub mod rootfind;

pub use error::NumError;
pub use vector::StateVec;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NumError>;
