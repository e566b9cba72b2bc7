//! The served workloads' query cells and their request lines.
//!
//! A cell is one (scenario, method, horizon) triple over the scenario's
//! declared parameter box: one entry of the service's artifact cache.

use mfu_core::artifact::BoundMethod;
use mfu_core::json::Json;
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::CompiledModel;

use crate::stats::SplitMix;
use crate::Config;

/// Horizon of every hull cell. At their declared horizons the unclamped
/// served hull diverges on `sir`/`sir_1e6` (t = 1.11) and
/// `pod_choices_d3` (t = 1.26).
pub const HULL_HORIZON: f64 = 1.0;

/// Scenarios of the hull cells: the analysable registry without
/// `bike_city_4` (still cut by the 10 s budget at t = 1) and without
/// `ring_48`/`grid_6x6` (corner enumeration grows as 3^(d−1)).
pub const HULL_SCENARIOS: [&str; 14] = [
    "bike",
    "botnet",
    "csma",
    "gossip",
    "gps",
    "gps_poisson",
    "load_balancer",
    "pod_choices_d2",
    "pod_choices_d3",
    "seir",
    "sir",
    "sir_1e6",
    "sis",
    "ttl_cache",
];

/// Scenarios of the Pontryagin cells, at their declared horizons: the hull
/// set plus `bike_city_4`. `ring_48` is left out (96 extremes, ~50 s per
/// query).
pub const PONTRYAGIN_SCENARIOS: [&str; 15] = [
    "bike",
    "bike_city_4",
    "botnet",
    "csma",
    "gossip",
    "gps",
    "gps_poisson",
    "load_balancer",
    "pod_choices_d2",
    "pod_choices_d3",
    "seir",
    "sir",
    "sir_1e6",
    "sis",
    "ttl_cache",
];

/// One query cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Registry name.
    pub scenario: String,
    /// Bounding method.
    pub method: BoundMethod,
    /// Analysis horizon sent with every request.
    pub horizon: f64,
    /// Full-coordinate index of the species whose width is reported (the
    /// scenario's declared objective, as in the scenario matrix).
    pub objective: usize,
    /// Species count every answer must echo.
    pub species: usize,
    /// DSL source (what `mfu query file.mfu` sends inline).
    pub source: String,
    /// Declared parameter box `(name, lo, hi)`.
    pub params: Vec<(String, f64, f64)>,
    /// The compiled model, for in-process replays.
    pub model: CompiledModel,
}

impl Cell {
    fn request(&self, target: (&str, Json), box_entries: Option<Json>) -> String {
        let mut entries = vec![
            ("op", Json::string("bound")),
            target,
            ("method", Json::string(self.method.name())),
            ("horizon", Json::Number(self.horizon)),
        ];
        if let Some(entries_box) = box_entries {
            entries.push(("box", entries_box));
        }
        Json::object(entries).render()
    }

    /// The request naming the registry scenario.
    #[must_use]
    pub fn by_name(&self) -> String {
        self.request(("model", Json::string(self.scenario.as_str())), None)
    }

    /// The request carrying the source inline.
    #[must_use]
    pub fn by_source(&self) -> String {
        self.request(("source", Json::string(self.source.as_str())), None)
    }

    /// The request naming the scenario with a `box` that spells the declared
    /// interval of every parameter whose bit in `mask` is set (at least one
    /// is always spelled). The effective box — and so the cell — is
    /// unchanged.
    #[must_use]
    pub fn by_box(&self, mask: u64) -> String {
        let low = match self.params.len() {
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let mask = match mask & low {
            0 => 1,
            bits => bits,
        };
        let spelled = self
            .params
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < 64 && mask >> i & 1 == 1)
            .map(|(_, (name, lo, hi))| {
                (
                    name.clone(),
                    Json::Array(vec![Json::Number(*lo), Json::Number(*hi)]),
                )
            });
        self.request(
            ("model", Json::string(self.scenario.as_str())),
            Some(Json::object(spelled)),
        )
    }

    /// `count` box spellings drawn from `rng`.
    pub fn box_variants(&self, rng: &mut SplitMix, count: usize) -> Vec<String> {
        (0..count).map(|_| self.by_box(rng.next_u64())).collect()
    }

    /// Width of the objective coordinate of an answer.
    #[must_use]
    pub fn width(&self, lower: &[f64], upper: &[f64]) -> f64 {
        upper[self.objective] - lower[self.objective]
    }
}

/// Compiles the cells of a served workload's method, keeping the scenarios
/// the configuration includes.
///
/// # Errors
///
/// Returns a message for an unknown or non-compiling scenario.
pub fn for_method(
    registry: &ScenarioRegistry,
    method: BoundMethod,
    config: &Config,
) -> Result<Vec<Cell>, String> {
    let scenarios: &[&str] = match method {
        BoundMethod::Hull => &HULL_SCENARIOS,
        BoundMethod::Pontryagin => &PONTRYAGIN_SCENARIOS,
    };
    scenarios
        .iter()
        .filter(|name| config.includes(name))
        .map(|&name| {
            let scenario = registry
                .get(name)
                .ok_or_else(|| format!("scenario `{name}` is not registered"))?;
            let model = scenario
                .compile()
                .map_err(|e| format!("scenario `{name}` does not compile: {e}"))?;
            let params = model
                .params()
                .names()
                .iter()
                .zip(model.params().intervals())
                .map(|(n, iv)| (n.clone(), iv.lo(), iv.hi()))
                .collect();
            Ok(Cell {
                scenario: name.to_string(),
                method,
                horizon: match method {
                    BoundMethod::Hull => HULL_HORIZON,
                    BoundMethod::Pontryagin => scenario.horizon(),
                },
                objective: scenario.objective_coordinate(),
                species: model.dim(),
                source: scenario.source().to_string(),
                params,
                model,
            })
        })
        .collect()
}
