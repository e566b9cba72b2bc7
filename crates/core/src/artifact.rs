//! Serializable bound artifacts: the shared currency of CLI, server and
//! benches.
//!
//! A [`BoundArtifact`] records everything needed to *reuse* a transient
//! bound instead of recomputing it: which model (by content hash), which
//! method ([`BoundMethod::Hull`] or [`BoundMethod::Pontryagin`]), over
//! which parameter box and horizon, the per-species `[lower, upper]`
//! bounds at the horizon, plus provenance (was the computation truncated
//! by a budget?) and cost counters (wall clock, RK4 steps, Jacobian
//! evaluations, sweeps, hull vertex evaluations). The paper's guarantee
//! makes this sound: bounds hold for every query in the same
//! (parameter box, horizon) cell, so an artifact answers all of them.
//!
//! Artifacts encode to and decode from the hand-rolled [`crate::json`]
//! layer — bit-exact for every `f64` field — which makes them cacheable
//! (the `mfu-serve` artifact cache), diffable (stable key order, one
//! line) and bench-comparable (`rate_engine_report` emits them inside
//! its `served_query` section).
//!
//! ```
//! use mfu_core::artifact::{ArtifactCost, BoundArtifact, BoundMethod, ParamRange};
//!
//! let artifact = BoundArtifact {
//!     model: "sir".into(),
//!     model_hash: "decafbaddecafbad".into(),
//!     method: BoundMethod::Hull,
//!     horizon: 1.0,
//!     param_box: vec![ParamRange { name: "contact".into(), lo: 1.0, hi: 10.0 }],
//!     species: vec!["S".into(), "I".into()],
//!     lower: vec![0.25, 0.125],
//!     upper: vec![0.75, 0.5],
//!     truncated: false,
//!     cost: ArtifactCost { wall_ns: 1_000, ..ArtifactCost::default() },
//! };
//! // the wire form round-trips bit for bit through `mfu_core::json`
//! assert_eq!(BoundArtifact::parse(&artifact.render())?, artifact);
//! assert_eq!(BoundMethod::from_name("hull"), Some(BoundMethod::Hull));
//! # Ok::<(), String>(())
//! ```

use crate::hull::HullBounds;
use crate::json::{self, Json};

/// The bounding method that produced an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundMethod {
    /// Differential-hull over-approximation (Section IV-B).
    Hull,
    /// Pontryagin forward–backward sweeps (Section IV-C).
    Pontryagin,
}

impl BoundMethod {
    /// The wire name (`"hull"` / `"pontryagin"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BoundMethod::Hull => "hull",
            BoundMethod::Pontryagin => "pontryagin",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "hull" => Some(BoundMethod::Hull),
            "pontryagin" => Some(BoundMethod::Pontryagin),
            _ => None,
        }
    }
}

/// One axis of the parameter box `Θ` an artifact was computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRange {
    /// Parameter name (declaration order is the θ coordinate order).
    pub name: String,
    /// Interval lower bound.
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
}

/// What a bound computation cost, for cache-economics reporting.
///
/// The counter fields mirror the `mfu-obs` core counters recorded during
/// the computation; `wall_ns` is measured directly around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactCost {
    /// Wall-clock nanoseconds spent computing the bounds.
    pub wall_ns: u64,
    /// RK4 integration steps (Pontryagin sweeps).
    pub rk4_steps: u64,
    /// Finite-difference Jacobian evaluations (Pontryagin sweeps).
    pub jacobian_evals: u64,
    /// Forward–backward sweep iterations (Pontryagin).
    pub sweeps: u64,
    /// Hull grid points (box corners and midpoints) the drift was evaluated
    /// at, each once per right-hand side and with every Θ candidate (hull).
    pub hull_vertex_evals: u64,
}

/// A serializable transient bound: method, model identity, query cell,
/// per-species bounds and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundArtifact {
    /// Model name (display only — the hash is the identity).
    pub model: String,
    /// Canonical content hash of the model (hex), as computed by
    /// `mfu_lang::hash::model_hash`.
    pub model_hash: String,
    /// The method that produced the bounds.
    pub method: BoundMethod,
    /// Analysis horizon `T`.
    pub horizon: f64,
    /// The parameter box `Θ` the bounds hold over, in θ coordinate order.
    pub param_box: Vec<ParamRange>,
    /// Names of the bounded coordinates, aligned with `lower`/`upper`.
    pub species: Vec<String>,
    /// Per-species lower bounds at the horizon.
    pub lower: Vec<f64>,
    /// Per-species upper bounds at the horizon.
    pub upper: Vec<f64>,
    /// `true` when a run budget truncated the computation: the bounds are
    /// still valid for the prefix that completed, but not extremal (and
    /// caches should not keep them).
    pub truncated: bool,
    /// Cost counters of the (cold) computation.
    pub cost: ArtifactCost,
}

/// Wire schema tag; bump on incompatible layout changes.
pub const ARTIFACT_SCHEMA: &str = "mfu.bound_artifact.v1";

impl BoundArtifact {
    /// Builds a hull artifact from computed [`HullBounds`], taking the
    /// per-species bounds at the final grid time.
    #[must_use]
    pub fn from_hull_bounds(
        model: impl Into<String>,
        model_hash: impl Into<String>,
        species: Vec<String>,
        param_box: Vec<ParamRange>,
        horizon: f64,
        bounds: &HullBounds,
        cost: ArtifactCost,
    ) -> Self {
        let (lower, upper) = bounds.final_bounds();
        BoundArtifact {
            model: model.into(),
            model_hash: model_hash.into(),
            method: BoundMethod::Hull,
            horizon,
            param_box,
            species,
            lower: lower.as_slice().to_vec(),
            upper: upper.as_slice().to_vec(),
            truncated: bounds.truncated_at().is_some(),
            cost,
        }
    }

    /// Encodes the artifact as a [`Json`] value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::string(ARTIFACT_SCHEMA)),
            ("model", Json::string(&*self.model)),
            ("model_hash", Json::string(&*self.model_hash)),
            ("method", Json::string(self.method.name())),
            ("horizon", Json::Number(self.horizon)),
            (
                "param_box",
                Json::Array(
                    self.param_box
                        .iter()
                        .map(|range| {
                            Json::object([
                                ("name", Json::string(&*range.name)),
                                ("lo", Json::Number(range.lo)),
                                ("hi", Json::Number(range.hi)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "species",
                Json::Array(self.species.iter().map(Json::string).collect()),
            ),
            ("lower", Json::numbers(self.lower.iter().copied())),
            ("upper", Json::numbers(self.upper.iter().copied())),
            ("truncated", Json::Bool(self.truncated)),
            (
                "cost",
                Json::object([
                    ("wall_ns", Json::Number(self.cost.wall_ns as f64)),
                    ("rk4_steps", Json::Number(self.cost.rk4_steps as f64)),
                    (
                        "jacobian_evals",
                        Json::Number(self.cost.jacobian_evals as f64),
                    ),
                    ("sweeps", Json::Number(self.cost.sweeps as f64)),
                    (
                        "hull_vertex_evals",
                        Json::Number(self.cost.hull_vertex_evals as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Serializes the artifact as one line of JSON.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Decodes an artifact from a [`Json`] value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let text_field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("artifact field `{key}` missing or not a string"))
        };
        let number_field = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("artifact field `{key}` missing or not a number"))
        };
        let schema = text_field("schema")?;
        if schema != ARTIFACT_SCHEMA {
            return Err(format!("unsupported artifact schema `{schema}`"));
        }
        let method_name = text_field("method")?;
        let method = BoundMethod::from_name(&method_name)
            .ok_or_else(|| format!("unknown bound method `{method_name}`"))?;
        let param_box = json
            .get("param_box")
            .and_then(Json::as_array)
            .ok_or("artifact field `param_box` missing or not an array")?
            .iter()
            .map(|entry| {
                let name = entry
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("param_box entry missing `name`")?;
                let lo = entry
                    .get("lo")
                    .and_then(Json::as_f64)
                    .ok_or("param_box entry missing `lo`")?;
                let hi = entry
                    .get("hi")
                    .and_then(Json::as_f64)
                    .ok_or("param_box entry missing `hi`")?;
                Ok(ParamRange {
                    name: name.to_string(),
                    lo,
                    hi,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let species = json
            .get("species")
            .and_then(Json::as_array)
            .ok_or("artifact field `species` missing or not an array")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "species entry is not a string".to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let bounds_field = |key: &str| -> Result<Vec<f64>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("artifact field `{key}` missing or not an array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("`{key}` entry is not a number"))
                })
                .collect()
        };
        let lower = bounds_field("lower")?;
        let upper = bounds_field("upper")?;
        if lower.len() != species.len() || upper.len() != species.len() {
            return Err(format!(
                "bounds/species length mismatch: {} species, {} lower, {} upper",
                species.len(),
                lower.len(),
                upper.len()
            ));
        }
        let cost_json = json.get("cost").ok_or("artifact field `cost` missing")?;
        let counter = |key: &str| -> Result<u64, String> {
            let raw = cost_json
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cost field `{key}` missing or not a number"))?;
            Ok(raw.max(0.0) as u64)
        };
        Ok(BoundArtifact {
            model: text_field("model")?,
            model_hash: text_field("model_hash")?,
            method,
            horizon: number_field("horizon")?,
            param_box,
            species,
            lower,
            upper,
            truncated: json
                .get("truncated")
                .and_then(Json::as_bool)
                .ok_or("artifact field `truncated` missing or not a boolean")?,
            cost: ArtifactCost {
                wall_ns: counter("wall_ns")?,
                rk4_steps: counter("rk4_steps")?,
                jacobian_evals: counter("jacobian_evals")?,
                sweeps: counter("sweeps")?,
                hull_vertex_evals: counter("hull_vertex_evals")?,
            },
        })
    }

    /// Parses an artifact from its JSON text form.
    ///
    /// # Errors
    ///
    /// Returns a parse or schema message.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::FnDrift;
    use crate::hull::{DifferentialHull, HullOptions};
    use mfu_ctmc::params::ParamSpace;
    use mfu_num::StateVec;

    fn sample_artifact() -> BoundArtifact {
        BoundArtifact {
            model: "sir".into(),
            model_hash: "00ff".into(),
            method: BoundMethod::Pontryagin,
            horizon: 3.0,
            param_box: vec![ParamRange {
                name: "contact".into(),
                lo: 1.0,
                hi: 10.0,
            }],
            species: vec!["S".into(), "I".into(), "R".into()],
            lower: vec![0.1, 0.2, 0.0],
            upper: vec![0.9, 0.5, 0.3],
            truncated: false,
            cost: ArtifactCost {
                wall_ns: 123_456,
                rk4_steps: 400,
                jacobian_evals: 40,
                sweeps: 7,
                hull_vertex_evals: 0,
            },
        }
    }

    #[test]
    fn artifacts_round_trip_bit_for_bit() {
        let artifact = sample_artifact();
        let text = artifact.render();
        let back = BoundArtifact::parse(&text).unwrap();
        assert_eq!(back, artifact);
        for (a, b) in artifact.lower.iter().zip(&back.lower) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // re-rendering is byte-stable (the cache's hit path relies on it)
        assert_eq!(back.render(), text);
    }

    #[test]
    fn decode_rejects_malformed_artifacts() {
        let artifact = sample_artifact();
        // wrong schema tag
        let mut wrong = artifact.to_json();
        if let Json::Object(entries) = &mut wrong {
            entries.insert("schema".into(), Json::string("mfu.other.v9"));
        }
        assert!(BoundArtifact::from_json(&wrong)
            .unwrap_err()
            .contains("schema"));
        // bounds/species mismatch
        let mut short = artifact.to_json();
        if let Json::Object(entries) = &mut short {
            entries.insert("lower".into(), Json::numbers([0.0]));
        }
        assert!(BoundArtifact::from_json(&short)
            .unwrap_err()
            .contains("length mismatch"));
        // unknown method
        let mut method = artifact.to_json();
        if let Json::Object(entries) = &mut method {
            entries.insert("method".into(), Json::string("birkhoff"));
        }
        assert!(BoundArtifact::from_json(&method)
            .unwrap_err()
            .contains("unknown bound method"));
        assert!(BoundArtifact::parse("{}").is_err());
        assert!(BoundArtifact::parse("not json").is_err());
    }

    #[test]
    fn hull_bounds_lift_into_artifacts() {
        let theta = ParamSpace::single("rate", 1.0, 2.0).unwrap();
        let drift = FnDrift::new(
            1,
            theta.clone(),
            |x: &StateVec, th: &[f64], dx: &mut StateVec| {
                dx[0] = -th[0] * x[0];
            },
        );
        let bounds = DifferentialHull::new(
            &drift,
            HullOptions {
                step: 1e-3,
                time_intervals: 10,
                ..Default::default()
            },
        )
        .bounds(&StateVec::from(vec![1.0]), 1.0)
        .unwrap();
        let artifact = BoundArtifact::from_hull_bounds(
            "decay",
            "beef",
            vec!["X".into()],
            vec![ParamRange {
                name: "rate".into(),
                lo: 1.0,
                hi: 2.0,
            }],
            1.0,
            &bounds,
            ArtifactCost::default(),
        );
        assert_eq!(artifact.method, BoundMethod::Hull);
        assert!(!artifact.truncated);
        let (lower, upper) = bounds.final_bounds();
        assert_eq!(artifact.lower[0].to_bits(), lower[0].to_bits());
        assert_eq!(artifact.upper[0].to_bits(), upper[0].to_bits());
        // e^-2 <= lower <= upper <= e^-1 up to hull overshoot
        assert!(artifact.lower[0] <= artifact.upper[0]);
        let reparsed = BoundArtifact::parse(&artifact.render()).unwrap();
        assert_eq!(reparsed, artifact);
    }

    #[test]
    fn method_names_round_trip() {
        for method in [BoundMethod::Hull, BoundMethod::Pontryagin] {
            assert_eq!(BoundMethod::from_name(method.name()), Some(method));
        }
        assert_eq!(BoundMethod::from_name("simplex"), None);
    }
}
