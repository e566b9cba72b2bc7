//! Uncertainty sets `Θ` for imprecise and uncertain models.
//!
//! The paper assumes the uncertain parameters live in a box
//! `Θ = [ϑ₁^min, ϑ₁^max] × … × [ϑ_m^min, ϑ_m^max]`. In the *uncertain*
//! scenario the parameter is an unknown constant of `Θ`; in the *imprecise*
//! scenario it may vary in time arbitrarily inside `Θ`. Both analyses need
//! the same primitive operations on `Θ`: membership, vertex enumeration
//! (optimisation of drifts that are affine in `ϑ` is attained at a vertex),
//! and grid sampling (for parameter sweeps).

use serde::{Deserialize, Serialize};

use crate::{CtmcError, Result};

/// A closed interval `[lo, hi]` of admissible values for one parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the bounds are not finite or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CtmcError::invalid_parameter(
                "interval bounds must be finite",
            ));
        }
        if lo > hi {
            return Err(CtmcError::invalid_parameter(format!(
                "interval lower bound {lo} exceeds upper bound {hi}"
            )));
        }
        Ok(Interval { lo, hi })
    }

    /// Creates a degenerate interval `[v, v]` (a precisely known parameter).
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is not finite.
    pub fn point(v: f64) -> Result<Self> {
        Interval::new(v, v)
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Returns `true` when the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Membership test.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Clamps `v` into the interval.
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.lo, self.hi)
    }

    /// `n + 1` equally spaced sample values spanning the interval
    /// (or just the single point for a degenerate interval).
    pub fn linspace(&self, n: usize) -> Vec<f64> {
        if self.is_point() || n == 0 {
            return vec![self.lo];
        }
        (0..=n)
            .map(|k| self.lo + self.width() * (k as f64) / (n as f64))
            .collect()
    }
}

/// The uncertainty set `Θ`: a named box of parameter intervals.
///
/// # Example
///
/// ```
/// use mfu_ctmc::params::{Interval, ParamSpace};
///
/// let theta = ParamSpace::new(vec![
///     ("infection", Interval::new(1.0, 10.0)?),
///     ("recovery", Interval::point(5.0)?),
/// ])?;
/// assert_eq!(theta.dim(), 2);
/// assert_eq!(theta.vertices().len(), 2); // only the uncertain axis doubles the count
/// assert!(theta.contains(&[3.0, 5.0]));
/// # Ok::<(), mfu_ctmc::CtmcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpace {
    names: Vec<String>,
    intervals: Vec<Interval>,
}

impl ParamSpace {
    /// Creates a parameter space from `(name, interval)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if no parameters are given or names are duplicated.
    pub fn new<S: Into<String>>(params: Vec<(S, Interval)>) -> Result<Self> {
        if params.is_empty() {
            return Err(CtmcError::invalid_parameter(
                "parameter space must have at least one parameter",
            ));
        }
        let mut names = Vec::with_capacity(params.len());
        let mut intervals = Vec::with_capacity(params.len());
        for (name, interval) in params {
            let name = name.into();
            if names.contains(&name) {
                return Err(CtmcError::invalid_parameter(format!(
                    "duplicate parameter name '{name}'"
                )));
            }
            names.push(name);
            intervals.push(interval);
        }
        Ok(ParamSpace { names, intervals })
    }

    /// Creates a parameter space with a single parameter.
    ///
    /// # Errors
    ///
    /// Propagates interval-construction failures.
    pub fn single(name: impl Into<String>, lo: f64, hi: f64) -> Result<Self> {
        ParamSpace::new(vec![(name.into(), Interval::new(lo, hi)?)])
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.intervals.len()
    }

    /// Parameter names, in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Parameter intervals, in declaration order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Index of the parameter called `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Lower-bound corner of the box.
    pub fn lower(&self) -> Vec<f64> {
        self.intervals.iter().map(Interval::lo).collect()
    }

    /// Upper-bound corner of the box.
    pub fn upper(&self) -> Vec<f64> {
        self.intervals.iter().map(Interval::hi).collect()
    }

    /// Midpoint of the box.
    pub fn midpoint(&self) -> Vec<f64> {
        self.intervals.iter().map(Interval::midpoint).collect()
    }

    /// Returns `true` when every interval is a single point (a precise model).
    pub fn is_precise(&self) -> bool {
        self.intervals.iter().all(Interval::is_point)
    }

    /// Membership test for a parameter vector.
    pub fn contains(&self, theta: &[f64]) -> bool {
        theta.len() == self.dim()
            && self
                .intervals
                .iter()
                .zip(theta.iter())
                .all(|(i, v)| i.contains(*v))
    }

    /// Enumerates the vertices of the box.
    ///
    /// Degenerate (point) intervals do not multiply the vertex count, so a
    /// model with one uncertain parameter and several known constants has
    /// exactly two vertices. For drifts affine in `ϑ` — which covers every
    /// model in the paper — optimisation of a linear functional of the drift
    /// over `Θ` is attained at one of these vertices.
    pub fn vertices(&self) -> Vec<Vec<f64>> {
        let free: Vec<usize> = (0..self.dim())
            .filter(|&i| !self.intervals[i].is_point())
            .collect();
        let count = 1usize << free.len();
        let mut out = Vec::with_capacity(count);
        for mask in 0..count {
            let mut v = self.midpoint();
            for (bit, &axis) in free.iter().enumerate() {
                v[axis] = if mask & (1 << bit) != 0 {
                    self.intervals[axis].hi()
                } else {
                    self.intervals[axis].lo()
                };
            }
            // point intervals stay at their midpoint == exact value
            for (value, interval) in v.iter_mut().zip(self.intervals.iter()) {
                if interval.is_point() {
                    *value = interval.lo();
                }
            }
            out.push(v);
        }
        out
    }

    /// A regular grid with `per_axis + 1` samples along each non-degenerate
    /// axis (degenerate axes contribute their single value).
    ///
    /// Used by the uncertain-scenario parameter sweeps of Corollary 1.
    pub fn grid(&self, per_axis: usize) -> Vec<Vec<f64>> {
        let axes: Vec<Vec<f64>> = self
            .intervals
            .iter()
            .map(|i| i.linspace(per_axis))
            .collect();
        let mut out: Vec<Vec<f64>> = vec![Vec::with_capacity(self.dim())];
        for axis in axes {
            let mut next = Vec::with_capacity(out.len() * axis.len());
            for partial in &out {
                for &v in &axis {
                    let mut p = partial.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }

    /// Uniform random sample from the box using the provided source of
    /// unit-interval randomness (one call per free axis).
    ///
    /// The caller supplies the random values to keep this crate independent
    /// from any RNG implementation; `mfu-sim` wires this to `rand`.
    pub fn sample_with(&self, mut unit_uniform: impl FnMut() -> f64) -> Vec<f64> {
        self.intervals
            .iter()
            .map(|i| {
                if i.is_point() {
                    i.lo()
                } else {
                    i.lo() + i.width() * unit_uniform().clamp(0.0, 1.0)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_construction_and_accessors() {
        let i = Interval::new(1.0, 3.0).unwrap();
        assert_eq!(i.lo(), 1.0);
        assert_eq!(i.hi(), 3.0);
        assert_eq!(i.width(), 2.0);
        assert_eq!(i.midpoint(), 2.0);
        assert!(!i.is_point());
        assert!(i.contains(2.5));
        assert!(!i.contains(3.5));
        assert_eq!(i.clamp(5.0), 3.0);
        assert_eq!(i.clamp(-5.0), 1.0);
    }

    #[test]
    fn interval_rejects_bad_bounds() {
        assert!(Interval::new(2.0, 1.0).is_err());
        assert!(Interval::new(f64::NAN, 1.0).is_err());
        assert!(Interval::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn interval_linspace() {
        let i = Interval::new(0.0, 1.0).unwrap();
        let pts = i.linspace(4);
        assert_eq!(pts.len(), 5);
        assert!((pts[1] - 0.25).abs() < 1e-15);
        let p = Interval::point(2.0).unwrap();
        assert_eq!(p.linspace(10), vec![2.0]);
    }

    fn sir_theta() -> ParamSpace {
        ParamSpace::new(vec![
            ("contact", Interval::new(1.0, 10.0).unwrap()),
            ("recovery", Interval::point(5.0).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn param_space_basics() {
        let theta = sir_theta();
        assert_eq!(theta.dim(), 2);
        assert_eq!(
            theta.names(),
            &["contact".to_string(), "recovery".to_string()]
        );
        assert_eq!(theta.index_of("recovery"), Some(1));
        assert_eq!(theta.index_of("missing"), None);
        assert_eq!(theta.lower(), vec![1.0, 5.0]);
        assert_eq!(theta.upper(), vec![10.0, 5.0]);
        assert_eq!(theta.midpoint(), vec![5.5, 5.0]);
        assert!(!theta.is_precise());
        assert!(theta.contains(&[2.0, 5.0]));
        assert!(!theta.contains(&[2.0, 4.0]));
        assert!(!theta.contains(&[2.0]));
    }

    #[test]
    fn param_space_rejects_duplicates_and_empty() {
        assert!(ParamSpace::new(Vec::<(&str, Interval)>::new()).is_err());
        assert!(ParamSpace::new(vec![
            ("a", Interval::point(1.0).unwrap()),
            ("a", Interval::point(2.0).unwrap())
        ])
        .is_err());
    }

    #[test]
    fn vertices_skip_degenerate_axes() {
        let theta = sir_theta();
        let vs = theta.vertices();
        assert_eq!(vs.len(), 2);
        assert!(vs.contains(&vec![1.0, 5.0]));
        assert!(vs.contains(&vec![10.0, 5.0]));

        let two_free = ParamSpace::new(vec![
            ("a", Interval::new(0.0, 1.0).unwrap()),
            ("b", Interval::new(2.0, 3.0).unwrap()),
        ])
        .unwrap();
        assert_eq!(two_free.vertices().len(), 4);
    }

    #[test]
    fn precise_space_has_single_vertex() {
        let theta = ParamSpace::new(vec![("a", Interval::point(1.0).unwrap())]).unwrap();
        assert!(theta.is_precise());
        assert_eq!(theta.vertices(), vec![vec![1.0]]);
    }

    #[test]
    fn grid_enumerates_cartesian_product() {
        let theta = ParamSpace::new(vec![
            ("a", Interval::new(0.0, 1.0).unwrap()),
            ("b", Interval::point(7.0).unwrap()),
        ])
        .unwrap();
        let grid = theta.grid(2);
        assert_eq!(grid.len(), 3);
        assert!(grid.contains(&vec![0.5, 7.0]));
    }

    #[test]
    fn sample_with_respects_bounds() {
        let theta = sir_theta();
        let sample = theta.sample_with(|| 0.25);
        assert_eq!(sample.len(), 2);
        assert!((sample[0] - 3.25).abs() < 1e-12);
        assert_eq!(sample[1], 5.0);
        assert!(theta.contains(&sample));
    }

    #[test]
    fn single_constructor() {
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        assert_eq!(theta.dim(), 1);
        assert_eq!(theta.names()[0], "rate");
    }
}
