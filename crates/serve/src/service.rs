//! The query service: two-tier cache in front of the bounding engines.
//!
//! Tier one is a [`ModelInterner`]: a source text seen before maps
//! straight to its model; a new text is parsed, validated and
//! content-hashed, and compiled once per hash. Tier two is a bounded
//! [`LruCache`] of [`BoundArtifact`]s keyed by the *query cell* — (model
//! hash, method, effective parameter box, horizon), every float by its
//! IEEE-754 bits. The paper's guarantee makes the second tier sound:
//! bounds hold for every query in the same (box, horizon) cell, so a
//! cached artifact answers all of them, bit-identically — a hit returns
//! the very artifact the cold computation produced, together with the JSON
//! that computation rendered, so a served hit parses and renders nothing.
//!
//! Engine options (hull step and grid, Pontryagin grid and tolerances,
//! run budgets) are pinned server-side in [`ServiceOptions`], *not* taken
//! from requests — otherwise they would have to join the cache key and
//! hits would become accidental. Budget-truncated results are returned to
//! the caller (marked `truncated`) but never cached: they are valid
//! prefixes, not extremal bounds.

use std::sync::Mutex;
use std::time::Instant;

use mfu_core::artifact::{ArtifactCost, BoundArtifact, BoundMethod, ParamRange};
use mfu_core::hull::{DifferentialHull, HullOptions};
use mfu_core::json::Json;
use mfu_core::pontryagin::{PontryaginOptions, PontryaginSolver};
use mfu_ctmc::params::{Interval, ParamSpace};
use mfu_lang::cache::LruCache;
use mfu_lang::hash::ModelInterner;
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::CompiledModel;
use mfu_obs::{Counter, Metrics, Obs, Tracer};

use crate::protocol::{error_response, splice_bound_response, BoundRequest, Request};
use std::sync::Arc;

/// Bound on the compiled-model interner: it holds at most this many
/// models and as many source texts (LRU past it).
const MODEL_CAP: usize = 64;

/// Server-side knobs: cache capacities and pinned engine options.
#[derive(Debug, Clone, Copy)]
pub struct ServiceOptions {
    /// Bound on the artifact cache (LRU past it). Zero caches nothing.
    pub artifact_cap: usize,
    /// Hull integration options used for every `"method":"hull"` query.
    pub hull: HullOptions,
    /// Pontryagin sweep options used for every `"method":"pontryagin"`
    /// query.
    pub pontryagin: PontryaginOptions,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            artifact_cap: 64,
            hull: HullOptions::default(),
            // The CLI's default sweep resolution, good to ~1e-3 on the
            // registry models while keeping cold queries interactive.
            pontryagin: PontryaginOptions {
                grid_intervals: 120,
                ..Default::default()
            },
        }
    }
}

/// Cache key: the query cell, floats by bit pattern so lookup equality is
/// exactly the bit-identity the hot path guarantees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ArtifactKey {
    model_hash: u128,
    method: BoundMethod,
    horizon_bits: u64,
    box_bits: Vec<(u64, u64)>,
}

/// The outcome of a bound query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The artifact answering the query (shared with the cache on a hit).
    pub artifact: Arc<BoundArtifact>,
    /// The artifact's JSON, rendered once by the cold computation and
    /// shared with the cache on a hit.
    pub rendered: Arc<str>,
    /// `true` when the artifact came out of the cache.
    pub cache_hit: bool,
    /// Wall-clock nanoseconds this query took inside the service.
    pub elapsed_ns: u64,
}

/// An artifact-cache entry: the artifact and its rendered JSON.
#[derive(Clone)]
struct CachedArtifact {
    artifact: Arc<BoundArtifact>,
    rendered: Arc<str>,
}

struct ServiceState {
    interner: ModelInterner,
    artifacts: LruCache<ArtifactKey, CachedArtifact>,
}

/// The long-running query service behind `mfu serve`.
///
/// Thread-safe: connection handlers share one service. The lock covers
/// only cache lookups and insertions — cold computations run outside it,
/// so a slow query never blocks hits on other models. Two clients racing
/// the same cold cell may both compute it; the results are bit-identical
/// (the engines are deterministic), so last-insert-wins is benign.
pub struct QueryService {
    registry: ScenarioRegistry,
    options: ServiceOptions,
    state: Mutex<ServiceState>,
    metrics: Metrics,
}

impl QueryService {
    /// A service over the built-in scenario registry.
    #[must_use]
    pub fn new(options: ServiceOptions) -> Self {
        Self::with_registry(ScenarioRegistry::with_builtins(), options)
    }

    /// A service over a caller-supplied registry.
    #[must_use]
    pub fn with_registry(registry: ScenarioRegistry, options: ServiceOptions) -> Self {
        QueryService {
            registry,
            options,
            state: Mutex::new(ServiceState {
                interner: ModelInterner::with_capacity(MODEL_CAP),
                artifacts: LruCache::new(options.artifact_cap),
            }),
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches a metrics recorder; hits, misses, evictions and source
    /// parses land on the `Serve*` counters.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The scenario registry this service answers `"model"` queries from.
    pub fn registry(&self) -> &ScenarioRegistry {
        &self.registry
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        // A poisoned lock means another handler panicked mid-insert; the
        // caches only ever hold complete entries, so continuing is safe.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Answers a bound query, computing cold or serving from cache.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown scenarios, invalid sources, bad box
    /// overrides, or engine failures.
    pub fn bound(&self, request: &BoundRequest) -> Result<QueryOutcome, String> {
        let started = Instant::now();

        // Resolve the source and default horizon.
        let (source, display_name, default_horizon) = match (&request.model, &request.source) {
            (Some(name), None) => {
                let scenario = self
                    .registry
                    .get(name)
                    .ok_or_else(|| format!("unknown scenario `{name}`"))?;
                (
                    scenario.source().to_string(),
                    name.clone(),
                    scenario.horizon(),
                )
            }
            (None, Some(source)) => (source.clone(), String::new(), 3.0),
            _ => return Err("bound request needs exactly one of `model`/`source`".to_string()),
        };
        let horizon = request.horizon.unwrap_or(default_horizon);
        if !horizon.is_finite() || horizon <= 0.0 {
            return Err(format!(
                "horizon must be finite and positive, got {horizon}"
            ));
        }

        // Tier one: intern the model (parses only a new text, compiles
        // only a new hash).
        let (hash, model) = {
            let mut state = self.lock_state();
            let (hits_before, parses_before) = (state.interner.hits(), state.interner.parses());
            let interned = state.interner.intern_source(&source);
            if state.interner.parses() > parses_before {
                self.metrics.add(Counter::ServeSourceParses, 1);
            }
            let interned = interned.map_err(|e| e.to_string())?;
            if state.interner.hits() > hits_before {
                self.metrics.add(Counter::ServeModelHits, 1);
            } else {
                self.metrics.add(Counter::ServeModelMisses, 1);
            }
            interned
        };
        let display_name = if display_name.is_empty() {
            model.name().to_string()
        } else {
            display_name
        };

        let params = effective_params(&model, &request.box_overrides)?;
        let key = ArtifactKey {
            model_hash: hash.0,
            method: request.method,
            horizon_bits: horizon.to_bits(),
            box_bits: params
                .intervals()
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect(),
        };

        // Tier two: artifact lookup.
        if let Some(cached) = self.lock_state().artifacts.get(&key).cloned() {
            self.metrics.add(Counter::ServeArtifactHits, 1);
            return Ok(QueryOutcome {
                artifact: cached.artifact,
                rendered: cached.rendered,
                cache_hit: true,
                elapsed_ns: started.elapsed().as_nanos() as u64,
            });
        }
        self.metrics.add(Counter::ServeArtifactMisses, 1);

        // Cold: compute outside the lock, on the model over the effective
        // box, so the engines' Θ scans enumerate the override.
        let model = model.with_params(params).map_err(|e| e.to_string())?;
        let artifact = Arc::new(match request.method {
            BoundMethod::Hull => self.compute_hull(&model, horizon, &display_name, hash)?,
            BoundMethod::Pontryagin => {
                self.compute_pontryagin(&model, horizon, &display_name, hash)?
            }
        });
        let rendered: Arc<str> = artifact.render().into();
        if !artifact.truncated {
            let cached = CachedArtifact {
                artifact: Arc::clone(&artifact),
                rendered: Arc::clone(&rendered),
            };
            let mut state = self.lock_state();
            let evictions_before = state.artifacts.evictions();
            state.artifacts.insert(key, cached);
            let evicted = state.artifacts.evictions() - evictions_before;
            drop(state);
            if evicted > 0 {
                self.metrics.add(Counter::ServeArtifactEvictions, evicted);
            }
        }
        Ok(QueryOutcome {
            artifact,
            rendered,
            cache_hit: false,
            elapsed_ns: started.elapsed().as_nanos() as u64,
        })
    }

    fn compute_hull(
        &self,
        model: &CompiledModel,
        horizon: f64,
        display_name: &str,
        hash: mfu_lang::ModelHash,
    ) -> Result<BoundArtifact, String> {
        // A fresh recorder per computation: the snapshot then *is* the
        // cost of this query, immune to concurrent queries' counters.
        let metrics = Metrics::enabled();
        let started = Instant::now();
        let bounds = DifferentialHull::new(model.drift(), self.options.hull)
            .with_obs(Obs {
                metrics: metrics.clone(),
                tracer: Tracer::disabled(),
            })
            .bounds(&model.initial_state(), horizon)
            .map_err(|e| e.to_string())?;
        let wall_ns = started.elapsed().as_nanos() as u64;
        let cost = cost_from(&metrics, wall_ns);
        Ok(BoundArtifact::from_hull_bounds(
            display_name,
            hash.to_string(),
            model.species().to_vec(),
            param_ranges(model.params()),
            horizon,
            &bounds,
            cost,
        ))
    }

    fn compute_pontryagin(
        &self,
        model: &CompiledModel,
        horizon: f64,
        display_name: &str,
        hash: mfu_lang::ModelHash,
    ) -> Result<BoundArtifact, String> {
        let metrics = Metrics::enabled();
        let solver = PontryaginSolver::new(self.options.pontryagin).with_obs(Obs {
            metrics: metrics.clone(),
            tracer: Tracer::disabled(),
        });
        let started = Instant::now();
        let mut lower = Vec::with_capacity(model.dim());
        let mut upper = Vec::with_capacity(model.dim());
        // A sweep the wall clock cut short degrades its extremal, so such
        // artifacts are marked truncated and never cached.
        let mut truncated = false;
        let failed = |e| format!("Pontryagin bound failed on `{display_name}`: {e}");
        // Each coordinate is bounded on `CompiledModel::bounding_drift`'s
        // drift; the reduced one serves every coordinate it carries, and
        // one solve per drift bounds all of them.
        while lower.len() < model.dim() {
            let (drift, x0) = model.bounding_drift(lower.len());
            let bounds = solver
                .coordinate_bounds(&drift, &x0, horizon, lower.len()..x0.dim())
                .map_err(failed)?;
            for (lo, hi) in bounds {
                truncated |= lo.truncated() || hi.truncated();
                lower.push(lo.objective_value());
                upper.push(hi.objective_value());
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let cost = cost_from(&metrics, wall_ns);
        Ok(BoundArtifact {
            model: display_name.to_string(),
            model_hash: hash.to_string(),
            method: BoundMethod::Pontryagin,
            horizon,
            param_box: param_ranges(model.params()),
            species: model.species().to_vec(),
            lower,
            upper,
            truncated,
            cost,
        })
    }

    /// Cache statistics as a JSON object with numeric leaves only.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let state = self.lock_state();
        Json::object([
            ("artifact_len", Json::Number(state.artifacts.len() as f64)),
            (
                "artifact_cap",
                Json::Number(state.artifacts.capacity() as f64),
            ),
            (
                "artifact_evictions",
                Json::Number(state.artifacts.evictions() as f64),
            ),
            ("model_len", Json::Number(state.interner.len() as f64)),
            ("model_hits", Json::Number(state.interner.hits() as f64)),
            ("model_misses", Json::Number(state.interner.misses() as f64)),
            (
                "model_evictions",
                Json::Number(state.interner.evictions() as f64),
            ),
            (
                "source_parses",
                Json::Number(state.interner.parses() as f64),
            ),
        ])
    }

    /// Handles one request line, returning the response line (without a
    /// trailing newline) and whether the client asked for shutdown.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match Request::parse(line) {
            Err(message) => (error_response(&message), false),
            Ok(Request::Stats) => (
                Json::object([("ok", Json::Bool(true)), ("stats", self.stats_json())]).render(),
                false,
            ),
            Ok(Request::Shutdown) => (
                Json::object([("ok", Json::Bool(true)), ("shutdown", Json::Number(1.0))]).render(),
                true,
            ),
            Ok(Request::Bound(request)) => match self.bound(&request) {
                Err(message) => (error_response(&message), false),
                Ok(outcome) => (
                    splice_bound_response(&outcome.rendered, outcome.cache_hit, outcome.elapsed_ns),
                    false,
                ),
            },
        }
    }
}

fn cost_from(metrics: &Metrics, wall_ns: u64) -> ArtifactCost {
    match metrics.snapshot() {
        Some(snap) => ArtifactCost {
            wall_ns,
            rk4_steps: snap.counter(Counter::CoreRk4Steps),
            jacobian_evals: snap.counter(Counter::CoreJacobianEvals),
            sweeps: snap.counter(Counter::CorePontryaginSweeps),
            hull_vertex_evals: snap.counter(Counter::CoreHullVertexEvals),
        },
        None => ArtifactCost {
            wall_ns,
            ..ArtifactCost::default()
        },
    }
}

fn param_ranges(params: &ParamSpace) -> Vec<ParamRange> {
    params
        .names()
        .iter()
        .zip(params.intervals())
        .map(|(name, iv)| ParamRange {
            name: name.clone(),
            lo: iv.lo(),
            hi: iv.hi(),
        })
        .collect()
}

fn effective_params(
    model: &CompiledModel,
    overrides: &[(String, f64, f64)],
) -> Result<ParamSpace, String> {
    if overrides.is_empty() {
        return Ok(model.params().clone());
    }
    let names = model.params().names();
    let mut intervals = model.params().intervals().to_vec();
    for (name, lo, hi) in overrides {
        let index = names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| format!("unknown parameter `{name}`"))?;
        intervals[index] =
            Interval::new(*lo, *hi).map_err(|e| format!("box entry `{name}`: {e}"))?;
    }
    ParamSpace::new(names.iter().cloned().zip(intervals).collect()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BoundRequest;

    fn fast_options() -> ServiceOptions {
        ServiceOptions {
            artifact_cap: 8,
            hull: HullOptions {
                step: 1e-2,
                time_intervals: 10,
                ..Default::default()
            },
            pontryagin: PontryaginOptions {
                grid_intervals: 40,
                ..Default::default()
            },
        }
    }

    fn sir_request(method: BoundMethod) -> BoundRequest {
        BoundRequest {
            model: Some("sir".to_string()),
            source: None,
            method,
            horizon: Some(1.0),
            box_overrides: vec![],
        }
    }

    #[test]
    fn second_query_hits_and_returns_the_same_artifact() {
        let service = QueryService::new(fast_options()).with_metrics(Metrics::enabled());
        let cold = service.bound(&sir_request(BoundMethod::Hull)).unwrap();
        assert!(!cold.cache_hit);
        let hot = service.bound(&sir_request(BoundMethod::Hull)).unwrap();
        assert!(hot.cache_hit);
        assert!(Arc::ptr_eq(&cold.artifact, &hot.artifact));
        let snap = service.metrics.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::ServeArtifactHits), 1);
        assert_eq!(snap.counter(Counter::ServeArtifactMisses), 1);
        assert_eq!(snap.counter(Counter::ServeModelMisses), 1);
        assert_eq!(snap.counter(Counter::ServeModelHits), 1);
        assert_eq!(
            snap.counter(Counter::ServeSourceParses),
            1,
            "the hit's source text was known, so it was not parsed"
        );
        assert!(Arc::ptr_eq(&cold.rendered, &hot.rendered));
        assert_eq!(&*hot.rendered, hot.artifact.render());
    }

    #[test]
    fn a_service_holds_at_most_64_models_and_texts() {
        // 200 distinct valid models, each its own source text
        let service = QueryService::new(ServiceOptions::default());
        for i in 0..200 {
            let source = format!(
                "model decay;\n\
                 species X, Y;\n\
                 param k in [0.5, 2.0];\n\
                 rule fade: X -> Y @ k * {}.5 * X;\n\
                 init X = 0.7, Y = 0.3;\n",
                i
            );
            let request = BoundRequest {
                model: None,
                source: Some(source),
                method: BoundMethod::Hull,
                horizon: Some(0.01),
                box_overrides: vec![],
            };
            service
                .bound(&request)
                .unwrap_or_else(|e| panic!("model {i}: {e}"));
        }
        let state = service.lock_state();
        assert_eq!(state.interner.len(), MODEL_CAP);
        assert_eq!(state.interner.text_len(), MODEL_CAP);
        assert_eq!(state.interner.evictions(), 200 - MODEL_CAP as u64);
        assert_eq!(state.interner.parses(), 200);
    }

    #[test]
    fn deadline_truncated_sweeps_are_marked_and_never_cached() {
        use mfu_guard::RunBudget;
        use std::time::Duration;

        let mut options = fast_options();
        options.pontryagin.budget = RunBudget::unlimited().wall_clock(Duration::ZERO);
        let service = QueryService::new(options);
        let cold = service
            .bound(&sir_request(BoundMethod::Pontryagin))
            .unwrap();
        assert!(cold.artifact.truncated);
        let again = service
            .bound(&sir_request(BoundMethod::Pontryagin))
            .unwrap();
        assert!(!again.cache_hit, "a truncated artifact must not be cached");

        // a deadline that never trips neither marks nor blocks caching
        let mut options = fast_options();
        options.pontryagin.budget = RunBudget::unlimited().wall_clock(Duration::from_secs(3600));
        let service = QueryService::new(options);
        let cold = service
            .bound(&sir_request(BoundMethod::Pontryagin))
            .unwrap();
        assert!(!cold.artifact.truncated);
        assert!(
            service
                .bound(&sir_request(BoundMethod::Pontryagin))
                .unwrap()
                .cache_hit
        );
    }

    #[test]
    fn methods_and_horizons_occupy_distinct_cells() {
        let service = QueryService::new(fast_options());
        let hull = service.bound(&sir_request(BoundMethod::Hull)).unwrap();
        let pont = service
            .bound(&sir_request(BoundMethod::Pontryagin))
            .unwrap();
        assert!(!pont.cache_hit, "method is part of the key");
        assert_ne!(hull.artifact.method, pont.artifact.method);
        let mut shorter = sir_request(BoundMethod::Hull);
        shorter.horizon = Some(0.5);
        assert!(
            !service.bound(&shorter).unwrap().cache_hit,
            "horizon is part of the key"
        );
    }

    #[test]
    fn box_overrides_narrow_the_cell_and_the_box() {
        let service = QueryService::new(fast_options());
        let mut narrowed = sir_request(BoundMethod::Hull);
        narrowed.box_overrides = vec![("contact".to_string(), 2.0, 4.0)];
        let cold = service.bound(&narrowed).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.artifact.param_box[0].lo, 2.0);
        assert_eq!(cold.artifact.param_box[0].hi, 4.0);
        // Same override spelled by a fresh request: same cell.
        assert!(service.bound(&narrowed).unwrap().cache_hit);
        // The declared box is a different cell.
        assert!(
            !service
                .bound(&sir_request(BoundMethod::Hull))
                .unwrap()
                .cache_hit
        );

        let mut unknown = sir_request(BoundMethod::Hull);
        unknown.box_overrides = vec![("contcat".to_string(), 2.0, 4.0)];
        assert!(service.bound(&unknown).unwrap_err().contains("contcat"));
    }

    #[test]
    fn interning_dedupes_the_rescaled_twin() {
        // `sir_1e6` differs from `sir` only in the model header, which the
        // content hash ignores: same compiled model, same artifact cell.
        let service = QueryService::new(fast_options());
        let cold = service.bound(&sir_request(BoundMethod::Hull)).unwrap();
        let mut twin = sir_request(BoundMethod::Hull);
        twin.model = Some("sir_1e6".to_string());
        let hot = service.bound(&twin).unwrap();
        assert!(hot.cache_hit);
        assert!(Arc::ptr_eq(&cold.artifact, &hot.artifact));
    }

    #[test]
    fn inline_sources_and_registry_models_share_cells() {
        let service = QueryService::new(fast_options());
        let registry = ScenarioRegistry::with_builtins();
        let source = registry.get("sis").unwrap().source().to_string();
        let inline = BoundRequest {
            model: None,
            source: Some(source),
            method: BoundMethod::Hull,
            horizon: Some(1.0),
            box_overrides: vec![],
        };
        assert!(!service.bound(&inline).unwrap().cache_hit);
        let mut named = sir_request(BoundMethod::Hull);
        named.model = Some("sis".to_string());
        assert!(
            service.bound(&named).unwrap().cache_hit,
            "inline source and registry name hash to the same cell"
        );
    }

    #[test]
    fn lru_eviction_at_the_service_level_is_deterministic() {
        let mut options = fast_options();
        options.artifact_cap = 2;
        let service = QueryService::new(options).with_metrics(Metrics::enabled());
        let request = |name: &str| BoundRequest {
            model: Some(name.to_string()),
            source: None,
            method: BoundMethod::Hull,
            horizon: Some(0.5),
            box_overrides: vec![],
        };
        assert!(!service.bound(&request("sir")).unwrap().cache_hit);
        assert!(!service.bound(&request("sis")).unwrap().cache_hit);
        assert!(!service.bound(&request("seir")).unwrap().cache_hit); // evicts sir
        assert!(service.bound(&request("seir")).unwrap().cache_hit);
        assert!(service.bound(&request("sis")).unwrap().cache_hit);
        assert!(
            !service.bound(&request("sir")).unwrap().cache_hit,
            "oldest entry must have been evicted"
        );
        let snap = service.metrics.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::ServeArtifactEvictions), 2);
    }

    #[test]
    fn bad_requests_surface_messages_not_panics() {
        let service = QueryService::new(fast_options());
        let mut unknown = sir_request(BoundMethod::Hull);
        unknown.model = Some("sri".to_string());
        assert!(service.bound(&unknown).unwrap_err().contains("sri"));

        let mut bad_horizon = sir_request(BoundMethod::Hull);
        bad_horizon.horizon = Some(-1.0);
        assert!(service.bound(&bad_horizon).unwrap_err().contains("horizon"));

        let inline = BoundRequest {
            model: None,
            source: Some("model broken;".to_string()),
            method: BoundMethod::Hull,
            horizon: None,
            box_overrides: vec![],
        };
        assert!(service.bound(&inline).is_err());
    }

    #[test]
    fn handle_line_speaks_the_protocol() {
        let service = QueryService::new(fast_options());
        let (response, stop) =
            service.handle_line(r#"{"op":"bound","model":"sir","method":"hull","horizon":1.0}"#);
        assert!(!stop);
        let parsed = mfu_core::json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("cache").and_then(Json::as_str), Some("miss"));

        let (response, _) = service.handle_line(r#"{"op":"stats"}"#);
        let parsed = mfu_core::json::parse(&response).unwrap();
        let stat = |key: &str| {
            parsed
                .get("stats")
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(stat("artifact_len"), Some(1.0));
        assert_eq!(stat("source_parses"), Some(1.0));

        let (response, stop) = service.handle_line(r#"{"op":"shutdown"}"#);
        assert!(stop);
        assert!(response.contains("\"ok\":true"));

        let (response, stop) = service.handle_line("garbage");
        assert!(!stop);
        assert!(response.contains("\"ok\":false"));
    }
}
