//! The repository benchmark: four workloads driven through the public entry
//! points of the workspace, each printing its end-to-end metrics (or, in a
//! traced run, its per-layer metrics) and checking every answer.
//!
//! * `hull_cold` — cold `"method":"hull"` queries against a served
//!   `mfu_serve::Server` whose artifact cache holds nothing;
//! * `pontryagin_cold` — the same with `"method":"pontryagin"`;
//! * `query_hot` — one persistent client asking warmed cells three ways
//!   (registry name, inline source, `box` override);
//! * `ensemble` — seeded τ-leap `run_ensemble` cells plus single
//!   `Simulator::simulate` runs, called in-process.
//!
//! `README.md` beside this crate records why each workload exists, what it
//! leaves out, and which per-layer metric should move which end-to-end one.

pub mod calib;
pub mod cells;
pub mod check;
pub mod client;
pub mod ensemble;
pub mod layers;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

pub use report::{Metric, Report, END_TO_END, PER_LAYER};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold differential-hull queries over TCP, artifact cache disabled.
    HullCold,
    /// Cold Pontryagin queries over TCP, artifact cache disabled.
    PontryaginCold,
    /// Warmed cells asked by name, inline source and box override.
    QueryHot,
    /// Seeded τ-leap ensembles and single simulations, in-process.
    Ensemble,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HullCold,
        Workload::PontryaginCold,
        Workload::QueryHot,
        Workload::Ensemble,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HullCold => "hull_cold",
            Workload::PontryaginCold => "pontryagin_cold",
            Workload::QueryHot => "query_hot",
            Workload::Ensemble => "ensemble",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds the ensemble `base_seed`s and the `query_hot` request order
    /// and box-override spellings.
    pub seed: u64,
    /// Length of the timed phase, in seconds. Cold workloads and the
    /// ensemble always finish the pass they are in.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the separate traced
    /// run that reports the per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes its spans (JSON lines); `None` keeps them
    /// in memory only.
    pub trace_out: Option<PathBuf>,
    /// Restricts every workload to these scenarios (the self-tests' tiny
    /// passes); `None` runs the full workload.
    pub only: Option<Vec<String>>,
}

impl Config {
    /// A configuration with the defaults of the command line.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            trace_out: None,
            only: None,
        }
    }

    /// `true` when `scenario` takes part in this run.
    #[must_use]
    pub fn includes(&self, scenario: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|names| names.iter().any(|n| n == scenario))
    }
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot run (a server that
/// will not bind, a scenario that does not compile). Wrong answers are not
/// errors: they are counted in [`Report::failed`].
pub fn run(config: &Config) -> Result<Report, String> {
    match config.workload {
        Workload::HullCold => served::run_cold(config, mfu_core::artifact::BoundMethod::Hull),
        Workload::PontryaginCold => {
            served::run_cold(config, mfu_core::artifact::BoundMethod::Pontryagin)
        }
        Workload::QueryHot => served::run_hot(config),
        Workload::Ensemble => ensemble::run(config),
    }
}
