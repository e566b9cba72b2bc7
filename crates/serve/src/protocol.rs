//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request. Three operations:
//!
//! ```json
//! {"op":"bound","model":"sir","method":"pontryagin","horizon":3.0}
//! {"op":"bound","source":"model m; ...","method":"hull","box":{"contact":[2,5]}}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! A `bound` request names either a registry scenario (`"model"`) or an
//! inline source (`"source"`), picks a method, and may narrow the
//! parameter box per parameter (`"box"`; axes not mentioned keep the
//! model's declared interval). Responses always carry `"ok"`; successful
//! bound responses add `"cache"` (`"hit"`/`"miss"`), a numeric
//! `"cache_hit"` twin (`1`/`0`, so `json_check --require` can gate it),
//! `"elapsed_ns"` and the full artifact. Keys come out sorted, as
//! [`Json::object`] writes them:
//!
//! ```json
//! {"artifact":{...},"cache":"hit","cache_hit":1,"elapsed_ns":1234,"ok":true}
//! {"error":"unknown scenario `sri`","ok":false}
//! ```
//!
//! A bound response line is written by [`splice_bound_response`] around
//! the artifact's rendered JSON, so the service can answer a cache hit
//! with the rendering its cold computation stored; [`bound_response`]
//! renders an artifact and splices it the same way.

use mfu_core::artifact::{BoundArtifact, BoundMethod};
use mfu_core::json::Json;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compute (or fetch) transient bounds.
    Bound(BoundRequest),
    /// Report cache statistics.
    Stats,
    /// Stop the server after responding.
    Shutdown,
}

/// The payload of a `bound` request.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRequest {
    /// Registry scenario name (exclusive with `source`).
    pub model: Option<String>,
    /// Inline DSL source (exclusive with `model`).
    pub source: Option<String>,
    /// Bounding method to run.
    pub method: BoundMethod,
    /// Analysis horizon; defaults to the scenario's declared horizon (or
    /// 3.0 for inline sources).
    pub horizon: Option<f64>,
    /// Per-parameter box overrides `(name, lo, hi)`, in request order.
    pub box_overrides: Vec<(String, f64, f64)>,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field; the server echoes it
    /// back inside an `{"ok":false,...}` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = mfu_core::json::parse(line)?;
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request field `op` missing or not a string")?;
        match op {
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "bound" => {
                let text = |key: &str| -> Result<Option<String>, String> {
                    match json.get(key) {
                        None => Ok(None),
                        Some(v) => v
                            .as_str()
                            .map(|s| Some(s.to_string()))
                            .ok_or_else(|| format!("request field `{key}` is not a string")),
                    }
                };
                let model = text("model")?;
                let source = text("source")?;
                match (&model, &source) {
                    (None, None) => {
                        return Err("bound request needs `model` or `source`".to_string())
                    }
                    (Some(_), Some(_)) => {
                        return Err("bound request takes `model` or `source`, not both".to_string())
                    }
                    _ => {}
                }
                let method_name = json
                    .get("method")
                    .and_then(Json::as_str)
                    .ok_or("request field `method` missing or not a string")?;
                let method = BoundMethod::from_name(method_name)
                    .ok_or_else(|| format!("unknown bound method `{method_name}`"))?;
                let horizon = match json.get("horizon") {
                    None => None,
                    Some(v) => Some(
                        v.as_f64()
                            .ok_or("request field `horizon` is not a number")?,
                    ),
                };
                let mut box_overrides = Vec::new();
                if let Some(overrides) = json.get("box") {
                    let entries = overrides
                        .as_object()
                        .ok_or("request field `box` is not an object")?;
                    for (name, bounds) in entries {
                        let pair = bounds
                            .as_array()
                            .filter(|a| a.len() == 2)
                            .ok_or_else(|| format!("box entry `{name}` is not a [lo, hi] pair"))?;
                        let lo = pair[0]
                            .as_f64()
                            .ok_or_else(|| format!("box entry `{name}` lo is not a number"))?;
                        let hi = pair[1]
                            .as_f64()
                            .ok_or_else(|| format!("box entry `{name}` hi is not a number"))?;
                        box_overrides.push((name.clone(), lo, hi));
                    }
                }
                Ok(Request::Bound(BoundRequest {
                    model,
                    source,
                    method,
                    horizon,
                    box_overrides,
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Renders a successful bound response line (without the trailing newline).
#[must_use]
pub fn bound_response(artifact: &BoundArtifact, cache_hit: bool, elapsed_ns: u64) -> String {
    splice_bound_response(&artifact.render(), cache_hit, elapsed_ns)
}

/// Writes a successful bound response line (without the trailing newline)
/// around an artifact's rendered JSON, byte for byte what rendering the
/// whole response as one [`Json::object`] would give: its keys sorted,
/// `elapsed_ns` as the writer prints an `f64`.
#[must_use]
pub fn splice_bound_response(artifact_json: &str, cache_hit: bool, elapsed_ns: u64) -> String {
    use std::fmt::Write as _;
    let cache = if cache_hit {
        r#","cache":"hit","cache_hit":1"#
    } else {
        r#","cache":"miss","cache_hit":0"#
    };
    let mut line = String::with_capacity(artifact_json.len() + 80);
    line.push_str(r#"{"artifact":"#);
    line.push_str(artifact_json);
    line.push_str(cache);
    // a u64 as f64 is finite, which the JSON writer prints with `{}`
    let _ = write!(line, r#","elapsed_ns":{}"#, elapsed_ns as f64);
    line.push_str(r#","ok":true}"#);
    line
}

/// Renders an error response line.
#[must_use]
pub fn error_response(message: &str) -> String {
    Json::object([("ok", Json::Bool(false)), ("error", Json::string(message))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_requests_parse() {
        let req = Request::parse(
            r#"{"op":"bound","model":"sir","method":"hull","horizon":1.5,"box":{"contact":[2,5]}}"#,
        )
        .unwrap();
        match req {
            Request::Bound(bound) => {
                assert_eq!(bound.model.as_deref(), Some("sir"));
                assert_eq!(bound.source, None);
                assert_eq!(bound.method, BoundMethod::Hull);
                assert_eq!(bound.horizon, Some(1.5));
                assert_eq!(bound.box_overrides, vec![("contact".to_string(), 2.0, 5.0)]);
            }
            other => panic!("expected bound, got {other:?}"),
        }
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_field_names() {
        let cases = [
            ("not json", "JSON"),
            (r#"{"op":"dance"}"#, "unknown op"),
            (r#"{"op":"bound","method":"hull"}"#, "`model` or `source`"),
            (
                r#"{"op":"bound","model":"sir","source":"x","method":"hull"}"#,
                "not both",
            ),
            (r#"{"op":"bound","model":"sir"}"#, "`method`"),
            (
                r#"{"op":"bound","model":"sir","method":"simplex"}"#,
                "unknown bound method",
            ),
            (
                r#"{"op":"bound","model":"sir","method":"hull","horizon":"soon"}"#,
                "`horizon`",
            ),
            (
                r#"{"op":"bound","model":"sir","method":"hull","box":{"contact":[1]}}"#,
                "[lo, hi]",
            ),
        ];
        for (line, needle) in cases {
            let err = Request::parse(line).expect_err(line);
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "{line}: error `{err}` does not mention `{needle}`"
            );
        }
    }

    /// The response as one [`Json::object`] renders it: the reference the
    /// splice must match byte for byte.
    fn reference_response(artifact: &BoundArtifact, cache_hit: bool, elapsed_ns: u64) -> String {
        Json::object([
            ("ok", Json::Bool(true)),
            (
                "cache",
                Json::string(if cache_hit { "hit" } else { "miss" }),
            ),
            ("cache_hit", Json::Number(if cache_hit { 1.0 } else { 0.0 })),
            ("elapsed_ns", Json::Number(elapsed_ns as f64)),
            ("artifact", artifact.to_json()),
        ])
        .render()
    }

    #[test]
    fn the_splice_writes_the_rendered_response_byte_for_byte() {
        let finite = BoundArtifact {
            model: "sir \"quoted\"".into(),
            model_hash: "0123456789abcdef0123456789abcdef".into(),
            method: BoundMethod::Pontryagin,
            horizon: 3.0,
            param_box: vec![mfu_core::artifact::ParamRange {
                name: "contact".into(),
                lo: 2.0,
                hi: 5.0,
            }],
            species: vec!["S".into(), "I".into()],
            lower: vec![0.1, 1e-300],
            upper: vec![0.30000000000000004, 1.0],
            truncated: false,
            cost: mfu_core::artifact::ArtifactCost {
                wall_ns: 123,
                rk4_steps: 4,
                jacobian_evals: 5,
                sweeps: 6,
                hull_vertex_evals: 7,
            },
        };
        let mut non_finite = finite.clone();
        non_finite.lower[1] = f64::NEG_INFINITY;
        non_finite.upper[0] = f64::NAN;
        for artifact in [&finite, &non_finite] {
            let rendered = artifact.render();
            for cache_hit in [true, false] {
                for elapsed_ns in [0, 7, 123_456_789] {
                    let reference = reference_response(artifact, cache_hit, elapsed_ns);
                    assert_eq!(bound_response(artifact, cache_hit, elapsed_ns), reference);
                    assert_eq!(
                        splice_bound_response(&rendered, cache_hit, elapsed_ns),
                        reference
                    );
                }
            }
        }
        assert!(reference_response(&non_finite, true, 0).contains("null"));
        assert!(reference_response(&finite, false, 7)
            .starts_with(r#"{"artifact":{"cost":{"hull_vertex_evals":7,"#));
    }

    #[test]
    fn responses_carry_the_numeric_cache_hit_twin() {
        let artifact = BoundArtifact {
            model: "m".into(),
            model_hash: "00".into(),
            method: BoundMethod::Hull,
            horizon: 1.0,
            param_box: vec![],
            species: vec!["X".into()],
            lower: vec![0.0],
            upper: vec![1.0],
            truncated: false,
            cost: Default::default(),
        };
        let hit = bound_response(&artifact, true, 42);
        let parsed = mfu_core::json::parse(&hit).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(parsed.get("cache_hit").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("elapsed_ns").and_then(Json::as_f64), Some(42.0));
        assert!(parsed.get("artifact").is_some());

        let miss = bound_response(&artifact, false, 7);
        let parsed = mfu_core::json::parse(&miss).unwrap();
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(parsed.get("cache_hit").and_then(Json::as_f64), Some(0.0));

        let err = error_response("no such \"model\"");
        let parsed = mfu_core::json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("no such \"model\"")
        );
    }
}
