//! The imprecise drift `f(x, ϑ)` (Definition 3 of the paper).
//!
//! The entire mean-field analysis only interacts with a model through its
//! drift and its parameter space: the set-valued limit drift of Equation (4)
//! is `F(x) = {f(x, ϑ) : ϑ ∈ Θ}`, kept here in *parametrised* form. Every
//! algorithm of Section IV (differential hulls, Pontryagin sweeps, Birkhoff
//! expansion) reduces to optimising `f` — or a linear functional of `f` —
//! over `Θ`, which [`extremal_theta`] performs by vertex enumeration — exact
//! for drifts affine in `ϑ`, the case of every model in the paper. The scan
//! is a free function over the trait rather than a trait method, so every
//! optimiser — the scalar [`extremal_theta`], the differential hull's
//! batched reduction and the Pontryagin sweep's batched switch scan alike —
//! visits the same [`theta_candidates`] in the same order and no drift can
//! redefine one without the other. The two batched scans are replays of
//! [`extremal_theta`], checked against it bit for bit.

use mfu_ctmc::params::ParamSpace;
use mfu_ctmc::population::PopulationModel;
use mfu_num::batch::{BatchTheta, SoaBatch};
use mfu_num::StateVec;

/// A parametrised vector field `f(x, ϑ)` over an uncertainty set `Θ`.
///
/// The trait is object-safe; analyses take `&dyn ImpreciseDrift` so that
/// models, closures and wrappers can be mixed freely.
pub trait ImpreciseDrift {
    /// Dimension of the state space.
    fn dim(&self) -> usize;

    /// The uncertainty set `Θ`.
    fn params(&self) -> &ParamSpace;

    /// Evaluates `f(x, ϑ)` into `out`.
    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec);

    /// Evaluates `f(x, ϑ)` into a fresh vector.
    fn drift(&self, x: &StateVec, theta: &[f64]) -> StateVec {
        let mut out = StateVec::zeros(self.dim());
        self.drift_into(x, theta, &mut out);
        out
    }

    /// Evaluates the drift lane-wise over a structure-of-arrays batch of
    /// states: lane `l` of `out` receives `f(x[l], ϑ[l])`.
    ///
    /// `out` is reshaped to `dim × width`. Implementations must be
    /// *bit-identical* to calling [`ImpreciseDrift::drift_into`] once per
    /// lane with that lane's state and parameters — the default does exactly
    /// that (a scalar gather loop), so overriding is purely a performance
    /// decision. The batched VM backend in `mfu-lang` overrides this to
    /// advance every lane through each rate instruction together.
    fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
        assert_eq!(x.rows(), self.dim(), "state batch dimension mismatch");
        assert!(theta.covers(x.width()), "per-lane theta width mismatch");
        out.reset(self.dim(), x.width());
        let mut state = StateVec::zeros(self.dim());
        let mut lane_out = StateVec::zeros(self.dim());
        let mut theta_buf = Vec::new();
        for l in 0..x.width() {
            x.copy_lane_into(l, state.as_mut_slice());
            let th = theta.lane(l, &mut theta_buf);
            self.drift_into(&state, th, &mut lane_out);
            out.set_lane(l, lane_out.as_slice());
        }
    }
}

/// The parameter vectors examined when optimising over `Θ`: the vertices of
/// the box, in [`ParamSpace::vertices`] order.
///
/// [`extremal_theta`] scans exactly this list in exactly this order; batched
/// optimisers (the differential-hull construction) reuse it so that a
/// lane-parallel scan visits candidates in the same sequence and reproduces
/// the scalar argmax bit for bit.
pub fn theta_candidates<D: ImpreciseDrift + ?Sized>(drift: &D) -> Vec<Vec<f64>> {
    drift.params().vertices()
}

/// Returns the parameter in `Θ` maximising the scalar functional
/// `direction · f(x, ϑ)`, together with the attained value.
///
/// The search scans [`theta_candidates`] in order, keeping the first
/// strict maximum. For drifts affine in `ϑ` the vertex search is exact,
/// which is what produces the bang-bang extremal controls of Figure 2.
/// The differential hull runs this same scan, batched, on every rectangle
/// point of its bound evaluations, and the Pontryagin sweep on every
/// interval of its switch scan.
pub fn extremal_theta<D: ImpreciseDrift + ?Sized>(
    drift: &D,
    x: &StateVec,
    direction: &StateVec,
) -> (Vec<f64>, f64) {
    let mut best_theta = drift.params().midpoint();
    let mut best_value = f64::NEG_INFINITY;
    let mut buffer = StateVec::zeros(drift.dim());
    for theta in theta_candidates(drift) {
        let value = hamiltonian(drift, x, direction, &theta, &mut buffer);
        if value > best_value {
            best_value = value;
            best_theta = theta;
        }
    }
    (best_theta, best_value)
}

/// The functional `direction · f(x, ϑ)` that [`extremal_theta`] maximises,
/// with `buffer` receiving `f(x, ϑ)`.
///
/// It is a left fold from +0.0 (`Iterator::sum`, and so `StateVec::dot`,
/// starts from −0.0 and can differ in the sign of a zero), so a control
/// scored here compares exactly with the scan's candidates; the hull's
/// batched reduction reproduces this fold for the directions `±e_i`, and
/// the Pontryagin switch scan for every interval's midpoint costate.
pub(crate) fn hamiltonian<D: ImpreciseDrift + ?Sized>(
    drift: &D,
    x: &StateVec,
    direction: &StateVec,
    theta: &[f64],
    buffer: &mut StateVec,
) -> f64 {
    drift.drift_into(x, theta, buffer);
    buffer
        .iter()
        .zip(direction.iter())
        .fold(0.0, |acc, (f, d)| acc + f * d)
}

impl<D: ImpreciseDrift + ?Sized> ImpreciseDrift for &D {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn params(&self) -> &ParamSpace {
        (**self).params()
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        (**self).drift_into(x, theta, out)
    }

    fn drift_batch_into(&self, x: &SoaBatch, theta: &BatchTheta<'_>, out: &mut SoaBatch) {
        (**self).drift_batch_into(x, theta, out)
    }
}

/// An imprecise drift defined by a closure.
///
/// This is the most direct way to express the reduced mean-field equations of
/// a model (for instance the two-dimensional SIR drift of Equation (11)).
///
/// # Example
///
/// ```
/// use mfu_core::drift::{extremal_theta, FnDrift};
/// use mfu_ctmc::params::ParamSpace;
/// use mfu_num::StateVec;
///
/// let theta = ParamSpace::single("rate", 1.0, 2.0)?;
/// let drift = FnDrift::new(1, theta, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
///     dx[0] = -th[0] * x[0];
/// });
/// let (best, value) = extremal_theta(&drift, &StateVec::from(vec![1.0]), &StateVec::from(vec![1.0]));
/// assert_eq!(best, vec![1.0]); // the slowest decay maximises ẋ
/// assert!((value + 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FnDrift<F> {
    dim: usize,
    params: ParamSpace,
    f: F,
}

impl<F> FnDrift<F>
where
    F: Fn(&StateVec, &[f64], &mut StateVec),
{
    /// Creates a drift from a closure writing `f(x, ϑ)` into its third argument.
    pub fn new(dim: usize, params: ParamSpace, f: F) -> Self {
        FnDrift { dim, params, f }
    }
}

impl<F> ImpreciseDrift for FnDrift<F>
where
    F: Fn(&StateVec, &[f64], &mut StateVec),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn params(&self) -> &ParamSpace {
        &self.params
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        out.fill_zero();
        (self.f)(x, theta, out);
    }
}

/// The drift of a [`PopulationModel`], exposing the population layer to the
/// mean-field analyses.
#[derive(Debug, Clone)]
pub struct PopulationDrift {
    model: PopulationModel,
}

impl PopulationDrift {
    /// Wraps a population model.
    pub fn new(model: PopulationModel) -> Self {
        PopulationDrift { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &PopulationModel {
        &self.model
    }
}

impl ImpreciseDrift for PopulationDrift {
    fn dim(&self) -> usize {
        self.model.dim()
    }

    fn params(&self) -> &ParamSpace {
        self.model.params()
    }

    fn drift_into(&self, x: &StateVec, theta: &[f64], out: &mut StateVec) {
        self.model.drift_unchecked(x, theta, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfu_ctmc::params::Interval;
    use mfu_ctmc::transition::TransitionClass;

    fn linear_drift() -> FnDrift<impl Fn(&StateVec, &[f64], &mut StateVec)> {
        let params = ParamSpace::new(vec![
            ("a", Interval::new(1.0, 2.0).unwrap()),
            ("b", Interval::new(-1.0, 1.0).unwrap()),
        ])
        .unwrap();
        FnDrift::new(2, params, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0] + th[1];
            dx[1] = -x[1] + th[1];
        })
    }

    #[test]
    fn drift_and_drift_into_agree() {
        let d = linear_drift();
        let x = StateVec::from([2.0, 3.0]);
        let owned = d.drift(&x, &[1.5, 0.5]);
        let mut buf = StateVec::zeros(2);
        d.drift_into(&x, &[1.5, 0.5], &mut buf);
        assert_eq!(owned, buf);
        assert!((owned[0] - 3.5).abs() < 1e-12);
        assert!((owned[1] + 2.5).abs() < 1e-12);
    }

    #[test]
    fn extremal_theta_picks_the_right_vertex() {
        let d = linear_drift();
        let x = StateVec::from([1.0, 0.0]);
        // maximise ẋ0 = a·x0 + b: best vertex is a = 2, b = 1
        let (theta, value) = extremal_theta(&d, &x, &StateVec::from([1.0, 0.0]));
        assert_eq!(theta, vec![2.0, 1.0]);
        assert!((value - 3.0).abs() < 1e-12);
        // minimise ẋ0 (maximise its negation): a = 1, b = -1
        let (theta, value) = extremal_theta(&d, &x, &StateVec::from([-1.0, 0.0]));
        assert_eq!(theta, vec![1.0, -1.0]);
        assert!((value - 0.0).abs() < 1e-12);
    }

    #[test]
    fn default_drift_batch_into_matches_scalar_per_lane() {
        let d = linear_drift();
        let states = [[2.0, 3.0], [0.5, -1.0], [0.0, 7.5]];
        let thetas = [[1.0, -1.0], [2.0, 1.0], [1.5, 0.25]];
        let x = SoaBatch::from_lanes(&states);
        let th = SoaBatch::from_lanes(&thetas);
        let mut out = SoaBatch::default();
        d.drift_batch_into(&x, &BatchTheta::PerLane(&th), &mut out);
        assert_eq!(out.rows(), 2);
        assert_eq!(out.width(), 3);
        for (l, state) in states.iter().enumerate() {
            let scalar = d.drift(&StateVec::from(*state), &thetas[l]);
            for i in 0..2 {
                assert_eq!(out.get(i, l).to_bits(), scalar[i].to_bits());
            }
        }
        // shared-theta layout takes the same path
        let mut shared_out = SoaBatch::default();
        d.drift_batch_into(&x, &BatchTheta::Shared(&[1.5, 0.5]), &mut shared_out);
        for (l, state) in states.iter().enumerate() {
            let scalar = d.drift(&StateVec::from(*state), &[1.5, 0.5]);
            for i in 0..2 {
                assert_eq!(shared_out.get(i, l).to_bits(), scalar[i].to_bits());
            }
        }
    }

    #[test]
    fn theta_candidates_drive_the_extremal_scan() {
        let d = linear_drift();
        assert_eq!(theta_candidates(&d), d.params().vertices());
        // three parameters give eight candidates; `b = ±1` tie, so the scan
        // must keep the first strict maximum in candidate order
        let params = ParamSpace::new(vec![
            ("a", Interval::new(1.0, 2.0).unwrap()),
            ("b", Interval::new(-1.0, 1.0).unwrap()),
            ("c", Interval::new(0.0, 0.5).unwrap()),
        ])
        .unwrap();
        let d = FnDrift::new(1, params, |x: &StateVec, th: &[f64], dx: &mut StateVec| {
            dx[0] = th[0] * x[0] - th[1] * th[1] + th[2];
        });
        let candidates = theta_candidates(&d);
        assert_eq!(candidates, d.params().vertices());
        assert_eq!(candidates.len(), 8);
        let x = StateVec::from([1.0]);
        let mut expected = (Vec::new(), f64::NEG_INFINITY);
        let mut ties = 0;
        for candidate in &candidates {
            let value = d.drift(&x, candidate)[0];
            if value > expected.1 {
                expected = (candidate.clone(), value);
            }
            ties += usize::from(value == 1.5);
        }
        assert_eq!(ties, 2);
        assert_eq!(extremal_theta(&d, &x, &StateVec::from([1.0])), expected);
    }

    #[test]
    fn population_drift_delegates_to_model() {
        let params = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        let model = PopulationModel::builder(1, params)
            .transition(TransitionClass::new(
                "grow",
                [1.0],
                |x: &StateVec, th: &[f64]| th[0] * x[0],
            ))
            .build()
            .unwrap();
        let drift = PopulationDrift::new(model);
        assert_eq!(drift.dim(), 1);
        assert_eq!(drift.params().dim(), 1);
        let v = drift.drift(&StateVec::from([2.0]), &[1.5]);
        assert!((v[0] - 3.0).abs() < 1e-12);
        assert_eq!(drift.model().transitions().len(), 1);
    }

    #[test]
    fn reference_impl_is_usable_as_dyn() {
        let d = linear_drift();
        let dyn_ref: &dyn ImpreciseDrift = &d;
        let through_ref = (&dyn_ref).drift(&StateVec::from([1.0, 1.0]), &[1.0, 0.0]);
        assert_eq!(through_ref.dim(), 2);
    }
}
