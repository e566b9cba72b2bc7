//! Answer checks.
//!
//! A bound response fails when it is not `ok`, is truncated, carries a
//! non-finite bound or `lo > hi`, or echoes the wrong species count or
//! horizon. A hot hit fails unless its artifact is byte-identical to the
//! warm-up answer for the same cell; the JSON writer prints every finite
//! `f64` in its shortest round-trip form, so byte identity of the artifact
//! is bit identity of every bound in it.

use mfu_core::artifact::BoundArtifact;
use mfu_core::json::{self, Json};

use crate::cells::Cell;

/// A bound response that passed every check.
#[derive(Debug, Clone)]
pub struct Answer {
    /// `true` when the service answered from its artifact cache.
    pub cache_hit: bool,
    /// Time the service spent inside `QueryService::bound`.
    pub elapsed_ns: u64,
    /// The artifact as it renders in a response.
    pub artifact_text: String,
    /// The decoded artifact: bounds, and the cold computation's work
    /// counters (copied into every hit).
    pub artifact: BoundArtifact,
}

/// Checks a bound response against its cell.
///
/// # Errors
///
/// Returns the first check that failed.
pub fn bound_response(response: &str, cell: &Cell) -> Result<Answer, String> {
    let doc = json::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("response is not ok: {error}"));
    }
    let artifact_json = doc.get("artifact").ok_or("response has no artifact")?;
    let artifact = BoundArtifact::from_json(artifact_json)
        .map_err(|e| format!("artifact does not decode (non-finite bound?): {e}"))?;
    if artifact.truncated {
        return Err("answer is truncated".to_string());
    }
    if artifact.species.len() != cell.species
        || artifact.lower.len() != cell.species
        || artifact.upper.len() != cell.species
    {
        return Err(format!(
            "answer has {} species, expected {}",
            artifact.species.len(),
            cell.species
        ));
    }
    if artifact.horizon.to_bits() != cell.horizon.to_bits() {
        return Err(format!(
            "answer echoes horizon {}, expected {}",
            artifact.horizon, cell.horizon
        ));
    }
    for (i, (&lo, &hi)) in artifact.lower.iter().zip(&artifact.upper).enumerate() {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(format!("bound of species {i} is not finite"));
        }
        if lo > hi {
            return Err(format!("bound of species {i} has lo {lo} > hi {hi}"));
        }
    }
    let cache_hit = match doc.get("cache").and_then(Json::as_str) {
        Some("hit") => true,
        Some("miss") => false,
        other => return Err(format!("response has cache {other:?}")),
    };
    let elapsed_ns = doc
        .get("elapsed_ns")
        .and_then(Json::as_f64)
        .ok_or("response has no elapsed_ns")? as u64;
    Ok(Answer {
        cache_hit,
        elapsed_ns,
        artifact_text: artifact_json.render(),
        artifact,
    })
}

/// The expected shape of every hot hit on one cell.
#[derive(Debug, Clone)]
pub struct HotExpectation {
    prefix: String,
}

/// Suffix of every successful response (keys render in sorted order, so
/// `ok` comes last).
const OK_SUFFIX: &str = ",\"ok\":true}";

impl HotExpectation {
    /// The expectation for hits on the cell the warm-up `answer` came from.
    #[must_use]
    pub fn new(answer: &Answer) -> HotExpectation {
        HotExpectation {
            prefix: format!(
                "{{\"artifact\":{},\"cache\":\"hit\",\"cache_hit\":1,\"elapsed_ns\":",
                answer.artifact_text
            ),
        }
    }

    /// `true` when `response` is a hit carrying the warm-up artifact byte
    /// for byte.
    #[must_use]
    pub fn matches(&self, response: &str) -> bool {
        response.len() > self.prefix.len() + OK_SUFFIX.len()
            && response.starts_with(&self.prefix)
            && response.ends_with(OK_SUFFIX)
            && response[self.prefix.len()..response.len() - OK_SUFFIX.len()]
                .bytes()
                .all(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'+')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfu_core::artifact::{ArtifactCost, BoundMethod};
    use mfu_lang::scenarios::ScenarioRegistry;
    use mfu_serve::protocol::bound_response as render_response;

    fn sis_cell() -> Cell {
        let registry = ScenarioRegistry::with_builtins();
        let config = crate::Config {
            only: Some(vec!["sis".into()]),
            ..crate::Config::new(crate::Workload::HullCold, 0, 0.0, false)
        };
        crate::cells::for_method(&registry, BoundMethod::Hull, &config)
            .unwrap()
            .remove(0)
    }

    fn artifact(lower: f64, upper: f64) -> BoundArtifact {
        BoundArtifact {
            model: "sis".into(),
            model_hash: "00".into(),
            method: BoundMethod::Hull,
            horizon: 1.0,
            param_box: vec![],
            species: vec!["S".into(), "I".into()],
            lower: vec![0.1, lower],
            upper: vec![0.9, upper],
            truncated: false,
            cost: ArtifactCost::default(),
        }
    }

    #[test]
    fn well_formed_answers_pass() {
        let cell = sis_cell();
        assert_eq!(cell.species, 2);
        let answer = bound_response(&render_response(&artifact(0.2, 0.4), false, 7), &cell)
            .expect("valid answer");
        assert!(!answer.cache_hit);
        assert_eq!(answer.elapsed_ns, 7);
    }

    #[test]
    fn broken_answers_fail() {
        let cell = sis_cell();
        let inverted = render_response(&artifact(0.5, 0.4), false, 1);
        assert!(bound_response(&inverted, &cell).unwrap_err().contains("lo"));
        let nan = render_response(&artifact(f64::NAN, 0.4), false, 1);
        assert!(bound_response(&nan, &cell).is_err());
        let mut truncated = artifact(0.2, 0.4);
        truncated.truncated = true;
        let truncated = render_response(&truncated, false, 1);
        assert!(bound_response(&truncated, &cell)
            .unwrap_err()
            .contains("truncated"));
        let mut wrong_horizon = artifact(0.2, 0.4);
        wrong_horizon.horizon = 2.0;
        let wrong_horizon = render_response(&wrong_horizon, false, 1);
        assert!(bound_response(&wrong_horizon, &cell)
            .unwrap_err()
            .contains("horizon"));
        let mut wrong_species = artifact(0.2, 0.4);
        wrong_species.species.push("R".into());
        wrong_species.lower.push(0.0);
        wrong_species.upper.push(0.0);
        let wrong_species = render_response(&wrong_species, false, 1);
        assert!(bound_response(&wrong_species, &cell)
            .unwrap_err()
            .contains("species"));
        assert!(bound_response(r#"{"ok":false,"error":"x"}"#, &cell).is_err());
    }

    #[test]
    fn a_flipped_bound_bit_on_a_hot_hit_fails() {
        let cell = sis_cell();
        let warm = artifact(0.2, 0.4);
        let answer = bound_response(&render_response(&warm, false, 1), &cell).unwrap();
        let expect = HotExpectation::new(&answer);
        assert!(expect.matches(&render_response(&warm, true, 12_345)));
        // a miss with the same artifact is not a hit
        assert!(!expect.matches(&render_response(&warm, false, 12_345)));
        let mut flipped = warm.clone();
        flipped.upper[1] = f64::from_bits(flipped.upper[1].to_bits() ^ 1);
        assert!(!expect.matches(&render_response(&flipped, true, 12_345)));
    }
}
