//! Structure-of-arrays batches for lane-parallel evaluation.
//!
//! The bounds pipeline evaluates the same drift/rate expressions at many
//! points at once — every corner of the parameter box in the differential
//! hull, every stencil point of a Pontryagin backward pass's
//! finite-difference Jacobians and every interval of its switch scan, every
//! trajectory of an ensemble. [`SoaBatch`] is the shared carrier for those
//! point sets: a
//! coordinate-major (structure-of-arrays) slab of `width` lanes, so that an
//! evaluator can advance *all* lanes through each operation before moving to
//! the next, with every per-coordinate row contiguous in memory.
//!
//! Layout: `values[row · width + lane]` holds coordinate `row` of lane
//! `lane`. A batch of states uses one row per state coordinate; a batch of
//! parameter vectors uses one row per parameter. [`BatchTheta`] wraps the
//! two parameter layouts batched evaluators accept: one `theta` shared by
//! every lane, or a per-lane [`SoaBatch`] of parameter vectors.
//!
//! Nothing in this module performs arithmetic on lane values; the layout
//! exists so batched evaluators (the `mfu-lang` VM, the drift backends) can
//! guarantee *bit-identical* results to their scalar paths — each lane sees
//! exactly the same sequence of floating-point operations as a scalar call
//! on that lane's data, lanes merely advance together.
//!
//! ```
//! use mfu_num::batch::{BatchTheta, SoaBatch};
//!
//! // two 3-dimensional states, transposed into coordinate-major rows
//! let batch = SoaBatch::from_lanes(&[[0.7, 0.3, 0.0], [0.6, 0.4, 0.0]]);
//! assert_eq!((batch.rows(), batch.width()), (3, 2));
//! assert_eq!(batch.row(1), &[0.3, 0.4]); // coordinate 1: one value per lane
//! assert_eq!(batch.get(0, 1), 0.6); // coordinate 0 of lane 1
//!
//! // one parameter vector shared by every lane
//! let theta = [2.0];
//! let theta = BatchTheta::Shared(&theta);
//! let mut scratch = Vec::new();
//! assert_eq!(theta.lane(1, &mut scratch), &[2.0]);
//! ```

use crate::StateVec;

/// A coordinate-major (structure-of-arrays) batch of `width` lanes of
/// `rows`-dimensional points.
///
/// See the [module docs](self) for the layout. The container is layout +
/// accessors only; batched evaluators define the arithmetic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoaBatch {
    values: Vec<f64>,
    rows: usize,
    width: usize,
}

impl SoaBatch {
    /// A zero-filled batch of `width` lanes with `rows` coordinates each.
    pub fn zeros(rows: usize, width: usize) -> Self {
        SoaBatch {
            values: vec![0.0; rows * width],
            rows,
            width,
        }
    }

    /// Builds a batch from lane points (array-of-structures → SoA
    /// transpose): lane `l` of the result holds `lanes[l]`.
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree on dimension.
    pub fn from_lanes<S: AsRef<[f64]>>(lanes: &[S]) -> Self {
        let rows = lanes.first().map_or(0, |lane| lane.as_ref().len());
        let mut batch = SoaBatch::zeros(rows, lanes.len());
        for (l, lane) in lanes.iter().enumerate() {
            batch.set_lane(l, lane.as_ref());
        }
        batch
    }

    /// Number of coordinates per lane.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` when the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Reshapes the batch in place (for scratch reuse across calls); the
    /// contents afterwards are unspecified — callers overwrite every lane.
    pub fn reset(&mut self, rows: usize, width: usize) {
        self.values.clear();
        self.values.resize(rows * width, 0.0);
        self.rows = rows;
        self.width = width;
    }

    /// Sets every value of the batch to `v`.
    pub fn fill(&mut self, v: f64) {
        self.values.fill(v);
    }

    /// The contiguous row of coordinate `i`: one value per lane.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// Mutable row of coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.values[i * self.width..(i + 1) * self.width]
    }

    /// Coordinate `i` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn get(&self, i: usize, lane: usize) -> f64 {
        assert!(lane < self.width, "lane out of range");
        self.values[i * self.width + lane]
    }

    /// Overwrites lane `lane` with `point` (AoS → SoA scatter).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `point` has the wrong dimension.
    pub fn set_lane(&mut self, lane: usize, point: &[f64]) {
        assert!(lane < self.width, "lane out of range");
        assert_eq!(point.len(), self.rows, "lane dimension mismatch");
        for (i, &v) in point.iter().enumerate() {
            self.values[i * self.width + lane] = v;
        }
    }

    /// Copies lane `lane` into `out` (SoA → AoS gather).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `out` has the wrong dimension.
    pub fn copy_lane_into(&self, lane: usize, out: &mut [f64]) {
        assert!(lane < self.width, "lane out of range");
        assert_eq!(out.len(), self.rows, "lane dimension mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.values[i * self.width + lane];
        }
    }

    /// Lane `lane` as a freshly allocated [`StateVec`] (convenience for
    /// scalar fallbacks and tests).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_state(&self, lane: usize) -> StateVec {
        let mut out = StateVec::zeros(self.rows);
        self.copy_lane_into(lane, out.as_mut_slice());
        out
    }

    /// The raw coordinate-major slab.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

/// Parameter vectors for a batched evaluation: one `theta` shared by every
/// lane, or a per-lane batch (one row per parameter).
#[derive(Debug, Clone, Copy)]
pub enum BatchTheta<'a> {
    /// Every lane evaluates with the same parameter vector.
    Shared(&'a [f64]),
    /// Lane `l` evaluates with parameter vector
    /// `[batch.get(0, l), batch.get(1, l), …]`.
    PerLane(&'a SoaBatch),
}

impl<'a> BatchTheta<'a> {
    /// Number of parameters per lane.
    pub fn params(&self) -> usize {
        match self {
            BatchTheta::Shared(theta) => theta.len(),
            BatchTheta::PerLane(batch) => batch.rows(),
        }
    }

    /// `true` when the layout provides a value for every one of `width`
    /// lanes (shared thetas fit any width).
    pub fn covers(&self, width: usize) -> bool {
        match self {
            BatchTheta::Shared(_) => true,
            BatchTheta::PerLane(batch) => batch.width() == width,
        }
    }

    /// Parameter `j` of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn get(&self, j: usize, lane: usize) -> f64 {
        match self {
            BatchTheta::Shared(theta) => theta[j],
            BatchTheta::PerLane(batch) => batch.get(j, lane),
        }
    }

    /// The parameter vector of lane `lane`, gathered into `buf` when the
    /// layout is per-lane (scalar-fallback helper: the returned slice is
    /// exactly what a scalar evaluator would receive for this lane).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for a per-lane layout.
    pub fn lane<'b>(&self, lane: usize, buf: &'b mut Vec<f64>) -> &'b [f64]
    where
        'a: 'b,
    {
        match self {
            BatchTheta::Shared(theta) => theta,
            BatchTheta::PerLane(batch) => {
                buf.clear();
                buf.resize(batch.rows(), 0.0);
                batch.copy_lane_into(lane, buf);
                buf
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_coordinate_major() {
        let batch = SoaBatch::from_lanes(&[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.width(), 2);
        // row i is contiguous: one value per lane
        assert_eq!(batch.row(0), &[1.0, 4.0]);
        assert_eq!(batch.row(1), &[2.0, 5.0]);
        assert_eq!(batch.row(2), &[3.0, 6.0]);
        assert_eq!(batch.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(batch.get(2, 1), 6.0);
    }

    #[test]
    fn lane_scatter_and_gather_round_trip() {
        let mut batch = SoaBatch::zeros(2, 3);
        batch.set_lane(1, &[7.0, 8.0]);
        let mut out = [0.0; 2];
        batch.copy_lane_into(1, &mut out);
        assert_eq!(out, [7.0, 8.0]);
        batch.copy_lane_into(0, &mut out);
        assert_eq!(out, [0.0, 0.0]);
        assert_eq!(batch.lane_state(1).as_slice(), &[7.0, 8.0]);
    }

    #[test]
    fn gather_preserves_nan_payloads() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() ^ 0x55);
        let mut batch = SoaBatch::zeros(1, 2);
        batch.set_lane(0, &[payload]);
        assert_eq!(batch.get(0, 0).to_bits(), payload.to_bits());
        assert_eq!(batch.lane_state(0)[0].to_bits(), payload.to_bits());
    }

    #[test]
    fn reset_reshapes_for_scratch_reuse() {
        let mut batch = SoaBatch::zeros(2, 2);
        batch.set_lane(0, &[1.0, 2.0]);
        batch.reset(3, 5);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.width(), 5);
        assert_eq!(batch.as_slice().len(), 15);
    }

    #[test]
    fn batch_theta_layouts_agree_on_lane_views() {
        let shared = [0.5, 1.5];
        let theta = BatchTheta::Shared(&shared);
        assert_eq!(theta.params(), 2);
        assert!(theta.covers(17));
        assert_eq!(theta.get(1, 9), 1.5);

        let per_lane = SoaBatch::from_lanes(&[[0.5, 1.5], [2.5, 3.5]]);
        let theta = BatchTheta::PerLane(&per_lane);
        assert_eq!(theta.params(), 2);
        assert!(theta.covers(2));
        assert!(!theta.covers(3));
        assert_eq!(theta.get(0, 1), 2.5);
        let mut buf = Vec::new();
        assert_eq!(theta.lane(1, &mut buf), &[2.5, 3.5]);
        let mut buf = Vec::new();
        assert_eq!(BatchTheta::Shared(&shared).lane(0, &mut buf), &[0.5, 1.5]);
    }

    #[test]
    fn from_lanes_accepts_empty() {
        let batch = SoaBatch::from_lanes::<Vec<f64>>(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.rows(), 0);
    }
}
