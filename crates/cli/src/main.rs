//! `mfu` — command-line front-end for the `mfu-lang` model DSL.
//!
//! Runs models without writing any Rust:
//!
//! ```text
//! mfu list-scenarios                 # what the registry ships
//! mfu check model.mfu                # compile + per-rule lowering report
//! mfu run model.mfu --bound I@3      # Pontryagin bounds on a coordinate
//! mfu run gps --simulate 2000        # registry scenario + one SSA run
//! mfu serve --addr 127.0.0.1:7464    # long-running cached query service
//! mfu query sir --method hull        # one query against a running server
//! ```
//!
//! A target is a `.mfu` file (or any existing path) or the name of a
//! built-in scenario from [`mfu_lang::scenarios::ScenarioRegistry`].
//! Diagnostics from the compiler are printed verbatim, caret and all, and
//! the exit code is `0` on success, `1` on model/analysis errors and `2`
//! on usage errors.

use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use mfu_core::pontryagin::{ExtremalSolution, PontryaginOptions, PontryaginSolver};
use mfu_guard::RunBudget;
use mfu_lang::vm::RateProgram;
use mfu_lang::{CompiledModel, ScenarioRegistry};
use mfu_obs::{Metrics, Obs, Timer, Tracer};
use mfu_sim::gillespie::{SimulationAlgorithm, SimulationOptions, Simulator};
use mfu_sim::policy::ConstantPolicy;
use mfu_sim::tauleap::TauLeapOptions;

const USAGE: &str = "\
mfu — imprecise population models from the command line

USAGE:
    mfu list-scenarios
    mfu check <model.mfu | scenario>
    mfu run   <model.mfu | scenario> [options]
    mfu serve [--addr <host:port>] [--cache-cap <n>]
    mfu query [<model.mfu | scenario>] [query options]

SERVE OPTIONS:
    --addr <host:port>       listen address (default 127.0.0.1:7464; port 0
                             binds an ephemeral port, echoed on stdout)
    --cache-cap <n>          bound-artifact cache capacity (default 64;
                             least-recently-used eviction past it)

QUERY OPTIONS:
    --addr <host:port>       server address (default 127.0.0.1:7464)
    --method <m>             bounding method: hull | pontryagin
                             (default pontryagin)
    --horizon <t>            analysis horizon (default: the scenario's)
    --box <param=lo:hi>      override one parameter interval (repeatable)
    --stats                  ask for cache statistics instead of bounds
    --shutdown               ask the server to stop instead of bounds

RUN OPTIONS:
    --bound <coord>@<time>   coordinate (species name or index) and horizon
                             to bound, e.g. `I@3` or `1@2.5`
                             (default: the scenario's objective, or the
                             first species at t = 3 for files)
    --grid <n>               Pontryagin time-grid intervals (default 120)
    --single-start           disable the multi-start extremal search
    --simulate <scale>       also run one stochastic simulation at population
                             size <scale> (at least 1) under the midpoint
                             parameters; scenarios that declare a default
                             scale (e.g. sir_1e6) simulate at it when the
                             flag is omitted
    --algorithm <algo>       simulation algorithm: exact (event-by-event
                             Gillespie SSA; the default for --simulate) or
                             tau-leap[:<epsilon>] (approximate adaptive
                             τ-leaping for large populations; epsilon in
                             (0, 1), default 0.03; the default when a
                             scenario's declared scale triggers the run)
    --seed <n>               RNG seed for the simulation (default 42)
    --metrics[=<format>]     collect engine counters and stage timings and
                             report them after the run: `pretty` (the
                             default; human-readable, to stderr) or `json`
                             (one machine-readable line, printed last on
                             stdout)
    --trace <file.jsonl>     write structured run events (rule lowering,
                             simulation summaries, tau-leap adaptations,
                             Pontryagin solves) as JSON Lines to <file>
    --timeout <secs>         wall-clock budget (positive seconds, fractions
                             allowed) for each bounded extreme (shared by
                             all of its Pontryagin restarts) and for the
                             simulation; a solve or run that trips it
                             reports the best bound or the prefix computed
                             so far, notes the truncation on stderr and
                             still exits 0
    --max-events <n>         event budget (at least 1; default 50000000,
                             which a larger value raises) for --simulate; a
                             truncated run reports its prefix, notes the
                             truncation on stderr and still exits 0

A target that names an existing file (or ends in `.mfu`) is compiled from
disk; anything else is looked up in the scenario registry.";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    /// `mfu list-scenarios`
    ListScenarios,
    /// `mfu check <target>`
    Check { target: String },
    /// `mfu run <target> [options]`
    Run { target: String, options: RunOptions },
    /// `mfu serve [--addr ...] [--cache-cap ...]`
    Serve { addr: String, cache_cap: usize },
    /// `mfu query [target] [query options]`
    Query { addr: String, request: QueryRequest },
}

/// What `mfu query` asks the server.
#[derive(Debug, Clone, PartialEq)]
enum QueryRequest {
    /// Bound a target: registry scenario name, or a `.mfu` file sent inline.
    Bound {
        /// Scenario name or model file.
        target: String,
        /// `hull` or `pontryagin`.
        method: String,
        /// `--horizon`.
        horizon: Option<f64>,
        /// `--box param=lo:hi`, in flag order.
        box_overrides: Vec<(String, f64, f64)>,
    },
    /// `--stats`.
    Stats,
    /// `--shutdown`.
    Shutdown,
}

/// Default address `mfu serve` listens on and `mfu query` talks to.
const DEFAULT_ADDR: &str = "127.0.0.1:7464";

/// `--metrics` reporting format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    /// No metrics collection (the default).
    Off,
    /// Human-readable report on stderr.
    Pretty,
    /// One JSON line, printed last on stdout.
    Json,
}

/// Options of `mfu run`.
#[derive(Debug, Clone, PartialEq)]
struct RunOptions {
    /// `--bound coord@time`, parsed into (coordinate spec, horizon).
    bound: Option<(String, f64)>,
    /// `--grid n`.
    grid: usize,
    /// `--single-start` clears this.
    multi_start: bool,
    /// `--simulate scale`.
    simulate: Option<usize>,
    /// `--algorithm exact|tau-leap[:eps]` (`None` until given: explicit
    /// `--simulate` runs default to exact, scenario-default-scale runs to
    /// τ-leaping).
    algorithm: Option<SimulationAlgorithm>,
    /// `--seed n`.
    seed: u64,
    /// `--metrics[=pretty|json]`.
    metrics: MetricsMode,
    /// `--trace file.jsonl`.
    trace: Option<String>,
    /// `--timeout secs`: wall-clock budget for the analysis and simulation.
    timeout: Option<Duration>,
    /// `--max-events n`: event budget for the simulation.
    max_events: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            bound: None,
            grid: 120,
            multi_start: true,
            simulate: None,
            algorithm: None,
            seed: 42,
            metrics: MetricsMode::Off,
            trace: None,
            timeout: None,
            max_events: None,
        }
    }
}

/// Parses a `--metrics` format: bare `--metrics` means `pretty`.
fn parse_metrics_mode(spec: &str) -> Result<MetricsMode, String> {
    match spec {
        "pretty" => Ok(MetricsMode::Pretty),
        "json" => Ok(MetricsMode::Json),
        other => Err(format!("`--metrics={other}`: expected pretty or json")),
    }
}

/// Parses an `--algorithm` value: `exact` or `tau-leap[:<epsilon>]`
/// (`tauleap` is accepted as a spelling).
fn parse_algorithm(spec: &str) -> Result<SimulationAlgorithm, String> {
    match spec {
        "exact" => Ok(SimulationAlgorithm::Exact),
        "tau-leap" | "tauleap" => Ok(SimulationAlgorithm::TauLeap(TauLeapOptions::default())),
        other => {
            let eps = other
                .strip_prefix("tau-leap:")
                .or_else(|| other.strip_prefix("tauleap:"));
            if let Some(eps) = eps {
                let epsilon: f64 = eps
                    .parse()
                    .map_err(|_| format!("`--algorithm {other}`: bad epsilon `{eps}`"))?;
                if !(epsilon > 0.0 && epsilon < 1.0) {
                    return Err(format!("`--algorithm {other}`: epsilon must lie in (0, 1)"));
                }
                return Ok(SimulationAlgorithm::TauLeap(TauLeapOptions::new(epsilon)));
            }
            Err(format!(
                "`--algorithm {other}`: expected exact or tau-leap[:<epsilon>]"
            ))
        }
    }
}

/// Parses the argument vector (without the program name).
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| USAGE.to_string())?;
    match sub.as_str() {
        "list-scenarios" => {
            if it.next().is_some() {
                return Err("`list-scenarios` takes no arguments".into());
            }
            Ok(Command::ListScenarios)
        }
        "check" => {
            let target = it
                .next()
                .ok_or("`check` needs a model file or scenario name")?
                .clone();
            if it.next().is_some() {
                return Err("`check` takes exactly one argument".into());
            }
            Ok(Command::Check { target })
        }
        "run" => {
            let target = it
                .next()
                .ok_or("`run` needs a model file or scenario name")?
                .clone();
            let mut options = RunOptions::default();
            while let Some(flag) = it.next() {
                let mut value =
                    |what: &str| it.next().ok_or(format!("`{flag}` needs {what}")).cloned();
                match flag.as_str() {
                    "--bound" => {
                        let spec = value("a <coord>@<time> argument")?;
                        let (coord, time) = spec
                            .split_once('@')
                            .ok_or(format!("`--bound {spec}`: expected <coord>@<time>"))?;
                        let time: f64 = time
                            .parse()
                            .map_err(|_| format!("`--bound {spec}`: bad time `{time}`"))?;
                        if !(time.is_finite() && time > 0.0) {
                            return Err(format!("`--bound {spec}`: horizon must be positive"));
                        }
                        options.bound = Some((coord.to_string(), time));
                    }
                    "--grid" => {
                        options.grid = value("an interval count")?
                            .parse()
                            .map_err(|e| format!("`--grid`: {e}"))?;
                        if options.grid == 0 {
                            return Err("`--grid` must be positive".into());
                        }
                    }
                    "--single-start" => options.multi_start = false,
                    "--simulate" => {
                        let scale: usize = value("a population size")?
                            .parse()
                            .map_err(|e| format!("`--simulate`: {e}"))?;
                        if scale == 0 {
                            return Err(
                                "`--simulate`: population size must be at least 1 (got 0)".into()
                            );
                        }
                        options.simulate = Some(scale);
                    }
                    "--algorithm" => {
                        options.algorithm = Some(parse_algorithm(&value("an algorithm")?)?);
                    }
                    "--seed" => {
                        options.seed = value("a seed")?
                            .parse()
                            .map_err(|e| format!("`--seed`: {e}"))?;
                    }
                    "--timeout" => {
                        let spec = value("a duration in seconds")?;
                        let secs: f64 = spec
                            .parse()
                            .map_err(|_| format!("`--timeout`: bad duration `{spec}`"))?;
                        if !(secs.is_finite() && secs > 0.0) {
                            return Err(format!(
                                "`--timeout {spec}`: duration must be positive and finite"
                            ));
                        }
                        let limit = Duration::try_from_secs_f64(secs)
                            .map_err(|_| format!("`--timeout {spec}`: duration is too large"))?;
                        options.timeout = Some(limit);
                    }
                    "--max-events" => {
                        let spec = value("an event count")?;
                        let cap: u64 = spec
                            .parse()
                            .map_err(|_| format!("`--max-events`: bad event count `{spec}`"))?;
                        if cap == 0 {
                            return Err(
                                "`--max-events`: event count must be at least 1 (got 0)".into()
                            );
                        }
                        options.max_events = Some(cap);
                    }
                    "--metrics" => options.metrics = MetricsMode::Pretty,
                    "--trace" => {
                        let path = value("an output path for the JSONL trace")?;
                        if path.is_empty() || path.starts_with("--") {
                            return Err(format!(
                                "`--trace`: expected an output path, got `{path}`"
                            ));
                        }
                        options.trace = Some(path);
                    }
                    other => {
                        if let Some(mode) = other.strip_prefix("--metrics=") {
                            options.metrics = parse_metrics_mode(mode)?;
                        } else {
                            return Err(format!("unknown option `{other}`\n\n{USAGE}"));
                        }
                    }
                }
            }
            Ok(Command::Run { target, options })
        }
        "serve" => {
            let mut addr = DEFAULT_ADDR.to_string();
            let mut cache_cap = 64usize;
            while let Some(flag) = it.next() {
                let mut value =
                    |what: &str| it.next().ok_or(format!("`{flag}` needs {what}")).cloned();
                match flag.as_str() {
                    "--addr" => addr = value("a host:port address")?,
                    "--cache-cap" => {
                        cache_cap = value("a capacity")?
                            .parse()
                            .map_err(|e| format!("`--cache-cap`: {e}"))?;
                    }
                    other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
                }
            }
            Ok(Command::Serve { addr, cache_cap })
        }
        "query" => {
            let mut addr = DEFAULT_ADDR.to_string();
            let mut target: Option<String> = None;
            let mut method = "pontryagin".to_string();
            let mut horizon: Option<f64> = None;
            let mut box_overrides: Vec<(String, f64, f64)> = Vec::new();
            let mut stats = false;
            let mut shutdown = false;
            while let Some(arg) = it.next() {
                let mut value =
                    |what: &str| it.next().ok_or(format!("`{arg}` needs {what}")).cloned();
                match arg.as_str() {
                    "--addr" => addr = value("a host:port address")?,
                    "--method" => {
                        method = value("hull or pontryagin")?;
                        if !matches!(method.as_str(), "hull" | "pontryagin") {
                            return Err(format!(
                                "`--method {method}`: expected hull or pontryagin"
                            ));
                        }
                    }
                    "--horizon" => {
                        let spec = value("a horizon")?;
                        let t: f64 = spec
                            .parse()
                            .map_err(|_| format!("`--horizon`: bad horizon `{spec}`"))?;
                        if !(t.is_finite() && t > 0.0) {
                            return Err(format!(
                                "`--horizon {spec}`: horizon must be positive and finite"
                            ));
                        }
                        horizon = Some(t);
                    }
                    "--box" => {
                        let spec = value("a param=lo:hi override")?;
                        let (name, range) = spec
                            .split_once('=')
                            .ok_or(format!("`--box {spec}`: expected param=lo:hi"))?;
                        let (lo, hi) = range
                            .split_once(':')
                            .ok_or(format!("`--box {spec}`: expected param=lo:hi"))?;
                        let lo: f64 = lo
                            .parse()
                            .map_err(|_| format!("`--box {spec}`: bad lower bound `{lo}`"))?;
                        let hi: f64 = hi
                            .parse()
                            .map_err(|_| format!("`--box {spec}`: bad upper bound `{hi}`"))?;
                        box_overrides.push((name.to_string(), lo, hi));
                    }
                    "--stats" => stats = true,
                    "--shutdown" => shutdown = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown option `{other}`\n\n{USAGE}"));
                    }
                    other => {
                        if target.replace(other.to_string()).is_some() {
                            return Err("`query` takes at most one target".into());
                        }
                    }
                }
            }
            let request = match (stats, shutdown, target) {
                (true, false, None) => QueryRequest::Stats,
                (false, true, None) => QueryRequest::Shutdown,
                (false, false, Some(target)) => QueryRequest::Bound {
                    target,
                    method,
                    horizon,
                    box_overrides,
                },
                (false, false, None) => {
                    return Err("`query` needs a target, `--stats` or `--shutdown`".into())
                }
                _ => {
                    return Err(
                        "`query` takes a target, `--stats` or `--shutdown` — exactly one".into(),
                    )
                }
            };
            Ok(Command::Query { addr, request })
        }
        "--help" | "-h" | "help" => Err(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// What a target resolved to.
struct LoadedModel {
    model: CompiledModel,
    /// Scenario analysis defaults, when the target came from the registry.
    defaults: Option<(f64, usize)>,
    /// Scenario-declared simulation scale (e.g. `sir_1e6`), used when
    /// `--simulate` is omitted.
    default_scale: Option<usize>,
}

/// Loads a target: an existing file (or anything ending in `.mfu`) compiles
/// from disk, everything else resolves through the scenario registry.
/// `is_file` (not `exists`) so a stray *directory* named like a scenario
/// cannot shadow the registry. Compilation reports stage timings and rule
/// lowering through `obs` when the bundle is enabled.
fn load_model(target: &str, obs: &Obs) -> Result<LoadedModel, String> {
    let path = Path::new(target);
    if path.is_file() || target.ends_with(".mfu") {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{target}`: {e}"))?;
        let model = mfu_lang::compile_observed(&source, obs).map_err(|e| e.to_string())?;
        return Ok(LoadedModel {
            model,
            defaults: None,
            default_scale: None,
        });
    }
    let registry = ScenarioRegistry::with_builtins();
    let scenario = registry.get(target).ok_or_else(|| {
        format!(
            "`{target}` is neither a file nor a known scenario \
             (registered: {})",
            registry.names().join(", ")
        )
    })?;
    let defaults = Some((scenario.horizon(), scenario.objective_coordinate()));
    let default_scale = scenario.default_scale();
    let model = mfu_lang::compile_observed(scenario.source(), obs).map_err(|e| e.to_string())?;
    Ok(LoadedModel {
        model,
        defaults,
        default_scale,
    })
}

/// One-line structural summary of a compiled model.
fn summarize(model: &CompiledModel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model `{}`: {} species ({}), {} rules, {}",
        model.name(),
        model.dim(),
        model.species().join(", "),
        model.rules().len(),
        if model.is_conservative() {
            "mass-conserving"
        } else {
            "non-conservative"
        }
    );
    let params = model.params();
    let bounds: Vec<String> = params
        .names()
        .iter()
        .zip(params.lower().iter().zip(params.upper().iter()))
        .map(|(name, (lo, hi))| format!("{name} in [{lo}, {hi}]"))
        .collect();
    let _ = writeln!(out, "params: {}", bounds.join(", "));
    out
}

fn cmd_list_scenarios() -> Result<String, String> {
    let registry = ScenarioRegistry::with_builtins();
    // group related workloads: family first, then name (the registry
    // iterates by name only)
    let mut scenarios: Vec<_> = registry.iter().collect();
    scenarios.sort_by_key(|s| (s.family(), s.name()));

    let mut rows = Vec::with_capacity(scenarios.len() + 1);
    rows.push([
        "FAMILY".to_string(),
        "SCENARIO".to_string(),
        "SPECIES".to_string(),
        "RULES".to_string(),
        "SCALE".to_string(),
        "SUMMARY".to_string(),
    ]);
    for scenario in &scenarios {
        let model = scenario
            .compile()
            .map_err(|e| format!("scenario `{}` failed to compile:\n{e}", scenario.name()))?;
        rows.push([
            scenario.family().to_string(),
            scenario.name().to_string(),
            model.species().len().to_string(),
            model.rules().len().to_string(),
            scenario
                .default_scale()
                .map_or_else(|| "-".to_string(), |n| n.to_string()),
            format!(
                "{} (horizon {}, objective x[{}])",
                scenario.summary(),
                scenario.horizon(),
                scenario.objective_coordinate(),
            ),
        ]);
    }

    let mut widths = [0usize; 5];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        let [family, name, species, rules, scale, summary] = row;
        let _ = writeln!(
            out,
            "{family:<fw$}  {name:<nw$}  {species:>sw$}  {rules:>rw$}  {scale:>cw$}  {summary}",
            fw = widths[0],
            nw = widths[1],
            sw = widths[2],
            rw = widths[3],
            cw = widths[4],
        );
    }
    Ok(out)
}

fn cmd_check(target: &str) -> Result<String, String> {
    let loaded = load_model(target, &Obs::none())?;
    let model = loaded.model;
    let mut out = summarize(&model);
    let name_width = model
        .rules()
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(0);
    // Probe every rate at the initial state under the midpoint parameters:
    // the same numeric-health contract (finite, non-negative) the simulation
    // engines enforce at the rate-program boundary during a run.
    let x0 = model.initial_state();
    let theta = model.params().midpoint();
    let mut unhealthy = Vec::new();
    for rule in model.rules() {
        let program = RateProgram::compile(&rule.rate);
        let shape = if program.is_fast_path() {
            "fast path"
        } else {
            "bytecode"
        };
        let health = match program.probe_health(&x0, &theta) {
            None => String::new(),
            Some(value) => {
                unhealthy.push(format!("rule `{}` evaluates to {value}", rule.name));
                format!("  UNHEALTHY ({value})")
            }
        };
        let _ = writeln!(
            out,
            "  rule {:name_width$}  {:9}  reads {:?}{health}",
            rule.name,
            shape,
            program.species_support(),
        );
    }
    if !unhealthy.is_empty() {
        return Err(format!(
            "{out}unhealthy rates at the initial state under midpoint parameters: {}",
            unhealthy.join("; ")
        ));
    }
    let _ = writeln!(out, "ok");
    Ok(out)
}

/// Resolves a `--bound` coordinate spec (species name or index) against the
/// model's species list.
fn resolve_coordinate(model: &CompiledModel, spec: &str) -> Result<usize, String> {
    if let Some(index) = model.species().iter().position(|s| s == spec) {
        return Ok(index);
    }
    if let Ok(index) = spec.parse::<usize>() {
        if index < model.dim() {
            return Ok(index);
        }
        return Err(format!(
            "coordinate {index} out of range for a {}-species model",
            model.dim()
        ));
    }
    Err(format!(
        "`{spec}` is neither a species of `{}` ({}) nor a coordinate index",
        model.name(),
        model.species().join(", ")
    ))
}

/// Builds the observability bundle requested by `--metrics`/`--trace`.
fn build_obs(options: &RunOptions) -> Result<Obs, String> {
    let metrics = if options.metrics == MetricsMode::Off && options.trace.is_none() {
        Metrics::disabled()
    } else {
        Metrics::enabled()
    };
    let tracer = match &options.trace {
        None => Tracer::disabled(),
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("`--trace`: cannot create `{path}`: {e}"))?;
            Tracer::to_writer(Box::new(BufWriter::new(file)))
        }
    };
    Ok(Obs { metrics, tracer })
}

/// How a Pontryagin extreme's sweep ended, for the `imprecise bounds` line.
fn sweep_status(solution: &ExtremalSolution) -> String {
    let sweeps = solution.iterations();
    let unit = if sweeps == 1 { "sweep" } else { "sweeps" };
    if solution.converged() {
        format!("converged in {sweeps} {unit}")
    } else if solution.truncated() {
        format!("truncated after {sweeps} {unit}")
    } else {
        format!("not converged after {sweeps} {unit}")
    }
}

fn cmd_run(target: &str, options: &RunOptions) -> Result<String, String> {
    let obs = build_obs(options)?;
    let loaded = load_model(target, &obs)?;
    let default_scale = loaded.default_scale;
    let model = loaded.model;
    let mut out = summarize(&model);
    obs.metrics.set_label("target", target);
    obs.metrics.set_label("model", model.name());

    let (coordinate, horizon) = match &options.bound {
        Some((spec, time)) => (resolve_coordinate(&model, spec)?, *time),
        None => match loaded.defaults {
            Some((horizon, objective)) => (objective, horizon),
            None => (0, 3.0),
        },
    };

    // conservative models analyse in reduced coordinates, where the last
    // declared species is eliminated; bounding that species needs the
    // full-dimensional drift
    let (drift, x0) = model.bounding_drift(coordinate);
    let species = &model.species()[coordinate.min(model.dim() - 1)];

    // `--timeout`/`--max-events` map onto one RunBudget; the Pontryagin
    // sweep only honours the wall clock (it fires no events).
    let budget = RunBudget {
        wall_clock: options.timeout,
        max_events: options.max_events,
    };

    let solver = PontryaginSolver::new(PontryaginOptions {
        grid_intervals: options.grid,
        multi_start: options.multi_start,
        budget,
    })
    .with_obs(obs.clone());
    let (lo, hi) = obs
        .metrics
        .time(Timer::CoreBound, || {
            solver.coordinate_bounds(&drift, &x0, horizon, coordinate..coordinate + 1)
        })
        .map_err(|e| format!("Pontryagin bound failed: {e}"))?
        .swap_remove(0);
    // Like a truncated simulation, a sweep the deadline cut short is not an
    // error: its value is still a feasible bound, noted on stderr.
    if lo.truncated() || hi.truncated() {
        eprintln!(
            "warning: Pontryagin sweep truncated ({}); reporting the best bound found so far",
            mfu_guard::TruncationReason::WallClock
        );
    }
    let _ = writeln!(
        out,
        "imprecise bounds: {species}({horizon}) in [{:.6}, {:.6}] (min {}, max {})",
        lo.objective_value(),
        hi.objective_value(),
        sweep_status(&lo),
        sweep_status(&hi)
    );

    // `--simulate` wins; a scenario-declared default scale (the
    // `sir_1e6`-style large-N scenarios) kicks in when the flag is absent.
    // A run triggered by the scenario's own scale defaults to τ-leaping —
    // those scales exist because the exact SSA is wall-clock prohibitive
    // there — while explicit `--simulate` keeps the exact default; an
    // explicit `--algorithm` always wins.
    if let Some(scale) = options.simulate.or(default_scale) {
        let algorithm = options.algorithm.unwrap_or(if options.simulate.is_some() {
            SimulationAlgorithm::Exact
        } else {
            SimulationAlgorithm::TauLeap(TauLeapOptions::default())
        });
        let population = model.population_model().map_err(|e| e.to_string())?;
        let simulator = Simulator::new(population, scale)
            .map_err(|e| e.to_string())?
            .with_obs(obs.clone());
        let mut policy = ConstantPolicy::new(model.params().midpoint());
        let sim_options = SimulationOptions::new(horizon)
            .algorithm(algorithm)
            .budget(budget);
        let run = obs
            .metrics
            .time(Timer::SimSimulate, || {
                simulator.simulate(
                    &model.initial_counts(scale),
                    &mut policy,
                    &sim_options,
                    options.seed,
                )
            })
            .map_err(|e| e.to_string())?;
        // A tripped budget is not an error: the prefix is reported as usual,
        // the truncation is echoed on stderr, and the exit code stays 0.
        if let mfu_guard::Outcome::Truncated { reason, reached_t } = run.outcome() {
            eprintln!(
                "warning: simulation truncated ({reason}) at t = {reached_t:.6}; \
                 reporting the prefix"
            );
        }
        let end = run.trajectory().last_state();
        let engine = match algorithm {
            SimulationAlgorithm::Exact => "Gillespie",
            SimulationAlgorithm::TauLeap(_) => "tau-leap",
        };
        // The transition count fixes the selector; the run reports which
        // one it used.
        let selector = run.selector();
        obs.metrics.set_label("algorithm", engine);
        obs.metrics.set_label("selection", selector.to_string());
        let _ = writeln!(
            out,
            "one N = {scale} {engine} run at midpoint parameters \
             (seed {}, algorithm {}, selection {}): {} events, \
             {species}({horizon}) = {:.6}",
            options.seed,
            algorithm,
            selector,
            run.events(),
            end[coordinate],
        );
    }

    obs.tracer.flush();
    match options.metrics {
        MetricsMode::Off => {}
        MetricsMode::Pretty => {
            if let Some(snapshot) = obs.metrics.snapshot() {
                eprint!("{}", snapshot.render_pretty());
            }
        }
        MetricsMode::Json => {
            if let Some(snapshot) = obs.metrics.snapshot() {
                let _ = writeln!(out, "{}", snapshot.render_json());
            }
        }
    }
    Ok(out)
}

/// Starts the query service and blocks until a client sends `shutdown`.
///
/// The bound address is echoed (and flushed) *before* the accept loop so
/// scripts can start the server in the background and scrape the port.
fn cmd_serve(addr: &str, cache_cap: usize) -> Result<String, String> {
    use std::io::Write as _;
    let options = mfu_serve::ServiceOptions {
        artifact_cap: cache_cap,
        ..Default::default()
    };
    let service = mfu_serve::QueryService::new(options);
    let server = mfu_serve::Server::bind(addr, service)
        .map_err(|e| format!("`mfu serve`: cannot bind `{addr}`: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("`mfu serve`: {e}"))?;
    println!("listening on {bound}");
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("`mfu serve`: {e}"))?;
    Ok("server stopped\n".to_string())
}

/// Sends one request line to a running server and prints the response.
fn cmd_query(addr: &str, request: &QueryRequest) -> Result<String, String> {
    use mfu_core::json::Json;
    let line = match request {
        QueryRequest::Stats => Json::object([("op", Json::string("stats"))]).render(),
        QueryRequest::Shutdown => Json::object([("op", Json::string("shutdown"))]).render(),
        QueryRequest::Bound {
            target,
            method,
            horizon,
            box_overrides,
        } => {
            let mut entries = vec![("op", Json::string("bound"))];
            // A file target ships its source inline; anything else is a
            // registry scenario name resolved server-side.
            let path = Path::new(target);
            let source;
            if path.is_file() || target.ends_with(".mfu") {
                source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{target}`: {e}"))?;
                entries.push(("source", Json::string(&*source)));
            } else {
                entries.push(("model", Json::string(&**target)));
            }
            entries.push(("method", Json::string(&**method)));
            if let Some(t) = horizon {
                entries.push(("horizon", Json::Number(*t)));
            }
            if !box_overrides.is_empty() {
                entries.push((
                    "box",
                    Json::object(
                        box_overrides
                            .iter()
                            .map(|(name, lo, hi)| (name.clone(), Json::numbers([*lo, *hi])))
                            .collect::<Vec<_>>(),
                    ),
                ));
            }
            Json::object(entries.into_iter().map(|(k, v)| (k.to_string(), v))).render()
        }
    };
    let response = mfu_serve::query_line(addr, &line)
        .map_err(|e| format!("`mfu query`: cannot reach `{addr}`: {e}"))?;
    let ok = mfu_core::json::parse(&response)
        .ok()
        .and_then(|json| json.get("ok").and_then(Json::as_bool))
        .unwrap_or(false);
    if !ok {
        return Err(format!("server error: {response}"));
    }
    Ok(format!("{response}\n"))
}

fn dispatch(command: &Command) -> Result<String, String> {
    match command {
        Command::ListScenarios => cmd_list_scenarios(),
        Command::Check { target } => cmd_check(target),
        Command::Run { target, options } => cmd_run(target, options),
        Command::Serve { addr, cache_cap } => cmd_serve(addr, *cache_cap),
        Command::Query { addr, request } => cmd_query(addr, request),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&command) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommands() {
        assert_eq!(
            parse_args(&args("list-scenarios")).unwrap(),
            Command::ListScenarios
        );
        assert_eq!(
            parse_args(&args("check model.mfu")).unwrap(),
            Command::Check {
                target: "model.mfu".into()
            }
        );
        let Command::Run { target, options } = parse_args(&args(
            "run gps --bound Q1@2.5 --grid 40 --simulate 500 --seed 7 --single-start",
        ))
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(target, "gps");
        assert_eq!(options.bound, Some(("Q1".into(), 2.5)));
        assert_eq!(options.grid, 40);
        assert_eq!(options.simulate, Some(500));
        assert_eq!(options.seed, 7);
        assert!(!options.multi_start);
    }

    #[test]
    fn parses_serve_and_query() {
        assert_eq!(
            parse_args(&args("serve")).unwrap(),
            Command::Serve {
                addr: DEFAULT_ADDR.into(),
                cache_cap: 64
            }
        );
        assert_eq!(
            parse_args(&args("serve --addr 127.0.0.1:0 --cache-cap 8")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                cache_cap: 8
            }
        );
        assert_eq!(
            parse_args(&args("query --stats")).unwrap(),
            Command::Query {
                addr: DEFAULT_ADDR.into(),
                request: QueryRequest::Stats
            }
        );
        assert_eq!(
            parse_args(&args("query --addr 127.0.0.1:9999 --shutdown")).unwrap(),
            Command::Query {
                addr: "127.0.0.1:9999".into(),
                request: QueryRequest::Shutdown
            }
        );
        assert_eq!(
            parse_args(&args(
                "query sir --method hull --horizon 1.5 --box contact=2:5"
            ))
            .unwrap(),
            Command::Query {
                addr: DEFAULT_ADDR.into(),
                request: QueryRequest::Bound {
                    target: "sir".into(),
                    method: "hull".into(),
                    horizon: Some(1.5),
                    box_overrides: vec![("contact".into(), 2.0, 5.0)],
                }
            }
        );
    }

    #[test]
    fn rejects_bad_serve_and_query_usage() {
        for line in [
            "serve --cache-cap many",
            "serve --unknown",
            "query",
            "query --stats --shutdown",
            "query sir --stats",
            "query sir --method simplex",
            "query sir --horizon -1",
            "query sir --box contact=2",
            "query sir extra",
        ] {
            assert!(
                parse_args(&args(line)).is_err(),
                "`{line}` should not parse"
            );
        }
    }

    #[test]
    fn parses_algorithm_flags() {
        assert_eq!(
            parse_algorithm("exact").unwrap(),
            SimulationAlgorithm::Exact
        );
        assert_eq!(
            parse_algorithm("tau-leap").unwrap(),
            SimulationAlgorithm::TauLeap(TauLeapOptions::default())
        );
        assert_eq!(
            parse_algorithm("tau-leap:0.1").unwrap(),
            SimulationAlgorithm::TauLeap(TauLeapOptions::new(0.1))
        );
        assert_eq!(
            parse_algorithm("tauleap:0.05").unwrap(),
            SimulationAlgorithm::TauLeap(TauLeapOptions::new(0.05))
        );
        // every rejection names the flag so the error is actionable
        for bad in [
            "warp",
            "tau-leap:0",
            "tau-leap:1",
            "tau-leap:-0.2",
            "tau-leap:x",
        ] {
            let err = parse_algorithm(bad).unwrap_err();
            assert!(err.contains("--algorithm"), "`{bad}`: {err}");
        }
        let Command::Run { options, .. } =
            parse_args(&args("run sir --simulate 100 --algorithm tau-leap:0.2")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(
            options.algorithm,
            Some(SimulationAlgorithm::TauLeap(TauLeapOptions::new(0.2)))
        );
        assert_eq!(
            parse_args(&args("run sir")).map(|command| match command {
                Command::Run { options, .. } => options.algorithm,
                _ => unreachable!(),
            }),
            Ok(None)
        );
    }

    #[test]
    fn budget_flags_parse_and_reject_bad_values_naming_the_flag() {
        let Command::Run { options, .. } =
            parse_args(&args("run sir --timeout 1.5 --max-events 5000")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(options.timeout, Some(Duration::from_millis(1500)));
        assert_eq!(options.max_events, Some(5000));

        // 1e300 s is finite but beyond `Duration`'s range
        for bad in [
            "--timeout 0",
            "--timeout -1",
            "--timeout nan",
            "--timeout x",
            "--timeout 1e300",
        ] {
            let err = parse_args(&args(&format!("run sir {bad}"))).unwrap_err();
            assert!(err.contains("--timeout"), "`{bad}`: {err}");
        }
        for bad in ["--max-events 0", "--max-events -3", "--max-events x"] {
            let err = parse_args(&args(&format!("run sir {bad}"))).unwrap_err();
            assert!(err.contains("--max-events"), "`{bad}`: {err}");
        }
        // missing values also name the flag
        assert!(parse_args(&args("run sir --timeout"))
            .unwrap_err()
            .contains("--timeout"));
        assert!(parse_args(&args("run sir --max-events"))
            .unwrap_err()
            .contains("--max-events"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("run")).is_err());
        assert!(parse_args(&args("run sir --bound I")).is_err());
        assert!(parse_args(&args("run sir --bound I@abc")).is_err());
        assert!(parse_args(&args("run sir --bound I@-1")).is_err());
        assert!(parse_args(&args("run sir --grid 0")).is_err());
        assert!(parse_args(&args("run sir --what")).is_err());
        assert!(parse_args(&args("run sir --algorithm warp")).is_err());
        assert!(parse_args(&args("check")).is_err());
        assert!(parse_args(&args("check a b")).is_err());
    }

    #[test]
    fn parses_metrics_and_trace_flags() {
        let Command::Run { options, .. } = parse_args(&args("run sir")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(options.metrics, MetricsMode::Off);
        assert_eq!(options.trace, None);

        let Command::Run { options, .. } = parse_args(&args("run sir --metrics")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(options.metrics, MetricsMode::Pretty);

        let Command::Run { options, .. } =
            parse_args(&args("run sir --metrics=json --trace out.jsonl")).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(options.metrics, MetricsMode::Json);
        assert_eq!(options.trace.as_deref(), Some("out.jsonl"));

        assert_eq!(parse_metrics_mode("pretty").unwrap(), MetricsMode::Pretty);
        assert_eq!(parse_metrics_mode("json").unwrap(), MetricsMode::Json);
    }

    #[test]
    fn metrics_and_trace_errors_name_the_flag() {
        // usage errors (exit 2) must name the offending flag
        let err = parse_args(&args("run sir --metrics=csv")).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        assert!(err.contains("pretty or json"), "{err}");

        let err = parse_args(&args("run sir --trace")).unwrap_err();
        assert!(err.contains("--trace"), "{err}");

        // `--trace --metrics` swallows no flag: the value is rejected
        let err = parse_args(&args("run sir --trace --metrics")).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn simulate_zero_is_a_parse_time_usage_error_naming_the_flag() {
        // regression: `--simulate 0` used to pass parsing and only fail
        // deep inside Simulator::new with the analysis exit code 1
        let err = parse_args(&args("run sir --simulate 0")).unwrap_err();
        assert!(err.contains("--simulate"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_targets_list_the_registry() {
        let err = load_model("no_such_scenario", &Obs::none()).err().unwrap();
        assert!(err.contains("sir"), "{err}");
        assert!(err.contains("gps"), "{err}");
    }

    #[test]
    fn coordinates_resolve_by_name_and_index() {
        let model = load_model("sir", &Obs::none()).unwrap().model;
        assert_eq!(resolve_coordinate(&model, "I").unwrap(), 1);
        assert_eq!(resolve_coordinate(&model, "2").unwrap(), 2);
        assert!(resolve_coordinate(&model, "9").is_err());
        assert!(resolve_coordinate(&model, "Z").is_err());
    }

    #[test]
    fn check_reports_lowering_shapes() {
        let report = cmd_check("gps").unwrap();
        assert!(report.contains("model `gps`"), "{report}");
        assert!(report.contains("non-conservative"), "{report}");
        assert!(report.contains("serve1"), "{report}");
        assert!(report.contains("bytecode"), "{report}");
        assert!(report.contains("reads [1, 3]"), "{report}");
        assert!(report.ends_with("ok\n"), "{report}");

        let report = cmd_check("sir").unwrap();
        assert!(report.contains("mass-conserving"), "{report}");
        assert!(report.contains("fast path"), "{report}");
    }

    #[test]
    fn list_scenarios_names_everything() {
        let listing = cmd_list_scenarios().unwrap();
        for name in [
            "sir",
            "sis",
            "seir",
            "botnet",
            "load_balancer",
            "gps",
            "pod_choices_d2",
            "csma",
            "ttl_cache",
            "gossip",
            "bike_city_4",
        ] {
            assert!(listing.contains(name), "missing `{name}` in {listing}");
        }
    }

    #[test]
    fn list_scenarios_is_grouped_by_family_with_shape_columns() {
        let listing = cmd_list_scenarios().unwrap();
        let mut lines = listing.lines();
        let header = lines.next().unwrap();
        for column in ["FAMILY", "SCENARIO", "SPECIES", "RULES", "SCALE", "SUMMARY"] {
            assert!(header.contains(column), "missing `{column}` in {header}");
        }
        // rows are sorted by (family, name)
        let keys: Vec<(String, String)> = lines
            .map(|l| {
                let mut cells = l.split_whitespace();
                (
                    cells.next().unwrap().to_string(),
                    cells.next().unwrap().to_string(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "rows are not family-then-name sorted");
        // spot-check one row's shape columns: gossip is 3 species, 3 rules,
        // default scale 10000
        let gossip = listing.lines().find(|l| l.contains(" gossip ")).unwrap();
        let cells: Vec<&str> = gossip.split_whitespace().collect();
        assert_eq!(&cells[..5], &["broadcast", "gossip", "3", "3", "10000"]);
        // scale-free scenarios print a dash
        let seir = listing.lines().find(|l| l.contains(" seir ")).unwrap();
        assert_eq!(seir.split_whitespace().nth(4), Some("-"));
    }
}
