//! The served workloads: `hull_cold`, `pontryagin_cold` and `query_hot`.
//!
//! Every workload talks to a real `mfu_serve::Server` on an ephemeral port,
//! started in-process with the `ServiceOptions` of `mfu serve`. The cold
//! workloads set the artifact cache capacity to 0 (`mfu serve
//! --cache-cap 0`), so every request computes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mfu_core::artifact::BoundMethod;
use mfu_lang::scenarios::ScenarioRegistry;
use mfu_lang::ModelInterner;
use mfu_obs::{Counter, Metrics};
use mfu_serve::{query_line, QueryService, Request, ServiceOptions};

use crate::calib;
use crate::cells::{self, Cell};
use crate::check::{self, Answer, HotExpectation};
use crate::client::{Connection, Served};
use crate::layers::{self, LayerSamples, REPS};
use crate::report::{Report, END_TO_END, NOT_APPLICABLE, PER_LAYER};
use crate::stats::{median, percentile, quality, windowed, SplitMix, Window};
use crate::trace::Spans;
use crate::Config;

/// Set-ups per cold run; `setup_s` is their median.
const COLD_SETUPS: usize = 25;
/// Set-ups per hot run (each one warms every cell cold).
const HOT_SETUPS: usize = 3;
/// Every run makes at least this many passes, so the determinism check
/// always has two passes to compare.
const MIN_PASSES: usize = 2;
/// `box` spellings per hot cell.
const BOX_VARIANTS: usize = 2;
/// Round trips the hot phase records; requests past it are counted but not
/// timed.
const SAMPLE_CAP: usize = 1 << 20;
/// Window of the hot phase's rate and percentiles: ~10,000 round trips, so
/// a window's p99 has ~100 beyond it. The phase is cut into whole windows of
/// about this length.
const RATE_WINDOW_S: f64 = 0.5;
/// Trials of the transport measurements (`serve.connect_us`).
const TRANSPORT_TRIALS: usize = 101;
/// Deterministic per-pass totals: the objective width of every cell, by
/// bits, and the summed `[rk4_steps, jacobian_evals, sweeps,
/// hull_vertex_evals]` of the responses' cost blocks.
type Tally = (Vec<u64>, [u64; 4]);

fn cold_options() -> ServiceOptions {
    ServiceOptions {
        artifact_cap: 0,
        ..ServiceOptions::default()
    }
}

/// The objective widths of a tally.
fn widths(tally: &Tally) -> Vec<f64> {
    tally.0.iter().map(|&bits| f64::from_bits(bits)).collect()
}

fn add_cost(totals: &mut [u64; 4], answer: &Answer) {
    let cost = answer.artifact.cost;
    for (slot, value) in totals.iter_mut().zip([
        cost.rk4_steps,
        cost.jacobian_evals,
        cost.sweeps,
        cost.hull_vertex_evals,
    ]) {
        *slot += value;
    }
}

/// The timed requests of one phase.
#[derive(Debug, Default)]
struct Phase {
    ops: u64,
    failed: u64,
    /// Cold round trips in ms, by cell.
    cell_ms: Vec<Vec<f64>>,
    /// `(ops_per_s, latency_p50_ms, latency_p99_ms)` of a hot phase.
    hot_timing: Option<(f64, f64, f64)>,
    /// One tally per pass (cold workloads only).
    tallies: Vec<Tally>,
    /// Every calibration run of the phase, ns.
    calibrations: Vec<f64>,
    /// Start and duration of every request (traced phases only).
    op_spans: Vec<(Instant, u64)>,
}

impl Phase {
    /// `(ops_per_s, latency_p50_ms, latency_p99_ms)`. A cold phase repeats
    /// the same cells, so it is timed by each cell's median scaled round
    /// trip: its one closed-loop client completes a pass in the sum of
    /// those medians. A hot phase is timed window by window ([`windowed`]).
    fn timing(&self) -> (f64, f64, f64) {
        if let Some(timing) = self.hot_timing {
            return timing;
        }
        let mut medians: Vec<f64> = self
            .cell_ms
            .iter()
            .map(|samples| median(&mut samples.clone()))
            .collect();
        let pass_s = medians.iter().sum::<f64>() / 1e3;
        (
            medians.len() as f64 / pass_s,
            percentile(&mut medians, 0.50),
            percentile(&mut medians, 0.99),
        )
    }

    fn ops_per_s(&self) -> f64 {
        self.timing().0
    }

    fn consistent(&self) -> bool {
        self.tallies.windows(2).all(|w| w[0] == w[1])
    }
}

fn report_failure(what: &str, detail: &str) {
    eprintln!("perfbench: failed {what}: {detail}");
}

/// Complete passes over `cells` until `seconds` have elapsed, one request
/// at a time, each followed by a calibration run (see [`calib`]): a cell's
/// time is its round trip scaled by the mean of the calibrations on either
/// side of it.
fn cold_phase(
    cells: &[Cell],
    conn: &mut Connection,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let lines: Vec<String> = cells.iter().map(Cell::by_name).collect();
    let n = cells.len();
    let mut phase = Phase {
        cell_ms: vec![Vec::new(); n],
        ..Phase::default()
    };
    let started = Instant::now();
    let mut before = calib::measure();
    phase.calibrations.push(before);
    while phase.tallies.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let mut tally: Tally = (vec![0; n], [0; 4]);
        for (i, (cell, line)) in cells.iter().zip(&lines).enumerate() {
            let sent = Instant::now();
            let response = conn.round_trip(line)?;
            let rtt_ns = sent.elapsed().as_nanos() as u64;
            phase.ops += 1;
            let width = match check::bound_response(response, cell) {
                Ok(answer) if !answer.cache_hit => {
                    add_cost(&mut tally.1, &answer);
                    cell.width(&answer.artifact.lower, &answer.artifact.upper)
                }
                Ok(_) => {
                    report_failure(&cell.scenario, "a cold query hit the artifact cache");
                    phase.failed += 1;
                    f64::NAN
                }
                Err(e) => {
                    report_failure(&cell.scenario, &e);
                    phase.failed += 1;
                    f64::NAN
                }
            };
            tally.0[i] = width.to_bits();
            let after = calib::measure();
            let ms = rtt_ns as f64 / 1e6;
            phase.cell_ms[i].push(ms * calib::scale((before + after) / 2.0));
            phase.calibrations.push(after);
            before = after;
            if traced {
                phase.op_spans.push((sent, rtt_ns));
            }
        }
        phase.tallies.push(tally);
    }
    Ok(phase)
}

struct ColdSetup {
    cells: Vec<Cell>,
    served: Served,
    conn: Connection,
}

fn cold_setup(
    config: &Config,
    method: BoundMethod,
    metrics: Option<Metrics>,
) -> Result<ColdSetup, String> {
    let registry = ScenarioRegistry::with_builtins();
    let cells = cells::for_method(&registry, method, config)?;
    if cells.is_empty() {
        return Err("no scenario selected".to_string());
    }
    let served = Served::start(cold_options(), metrics)?;
    let conn = Connection::open(served.addr())?;
    Ok(ColdSetup {
        cells,
        served,
        conn,
    })
}

fn cold_teardown(setup: ColdSetup) -> Result<(), String> {
    drop(setup.conn);
    setup.served.stop()
}

/// `hull_cold` and `pontryagin_cold`.
///
/// # Errors
///
/// Returns a message when the benchmark cannot run.
pub fn run_cold(config: &Config, method: BoundMethod) -> Result<Report, String> {
    calib::pin_to_one_cpu();
    if config.trace {
        return trace_cold(config, method);
    }
    let (mut setup, setup_s) = calib::setups(
        COLD_SETUPS,
        || cold_setup(config, method, None),
        cold_teardown,
    )?;
    let phase = cold_phase(&setup.cells, &mut setup.conn, config.seconds, false)?;
    calib::print_summary(&phase.calibrations);
    cold_teardown(setup)?;

    let width = quality(&widths(&phase.tallies[0]));
    let (outer, inner) = match method {
        BoundMethod::Hull => (width, NOT_APPLICABLE),
        BoundMethod::Pontryagin => (NOT_APPLICABLE, width),
    };
    let (ops_per_s, p50, p99) = phase.timing();
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("outer_width_gmean", outer),
        ("inner_width_gmean", inner),
        ("sim_mean_err", NOT_APPLICABLE),
        ("peak_rss_mib", crate::stats::peak_rss_mib()),
    ]);
    if !phase.consistent() {
        report_failure(
            "determinism",
            "work counters or widths differ between passes",
        );
    }
    Report::from_values(
        &END_TO_END,
        &values,
        phase.ops,
        phase.failed,
        phase.consistent(),
    )
}

/// A finished replay: the per-layer metrics, the requests replayed, those
/// that failed a check, and whether every replay matched its served answer.
type Finished = (BTreeMap<&'static str, f64>, u64, u64, bool);

/// One `workload.op` span per request of a traced phase.
fn op_spans(phase: &Phase) -> Spans {
    let mut spans = Spans::new();
    for (i, &(start, ns)) in phase.op_spans.iter().enumerate() {
        spans.record("workload.op", None, i as u64, start, ns);
    }
    spans
}

/// The traced replay of served requests.
struct Replayer<'a> {
    options: ServiceOptions,
    spans: Spans,
    samples: LayerSamples,
    interner: ModelInterner,
    /// In-process service for `handle_line` replays (warmed like the
    /// served one on the hot workload).
    service: QueryService,
    /// Cells whose language front end and engine were already replayed.
    replayed: Vec<bool>,
    cells: &'a [Cell],
    failed: u64,
    attempted: u64,
    consistent: bool,
    unexplained_ns: f64,
    request_ns: f64,
}

impl<'a> Replayer<'a> {
    fn new(cells: &'a [Cell], options: ServiceOptions, spans: Spans) -> Replayer<'a> {
        Replayer {
            options,
            spans,
            samples: LayerSamples::default(),
            interner: ModelInterner::new(),
            service: QueryService::new(options),
            replayed: vec![false; cells.len()],
            cells,
            failed: 0,
            attempted: 0,
            consistent: true,
            unexplained_ns: 0.0,
            request_ns: 0.0,
        }
    }

    /// Serves `line` over TCP inside a `serve.request` span, then replays
    /// it layer by layer.
    fn replay(&mut self, conn: &mut Connection, line: &str, index: usize) -> Result<(), String> {
        let cell = &self.cells[index];
        let request = self.attempted;
        self.attempted += 1;
        let sent = Instant::now();
        let response = conn.round_trip(line)?.to_string();
        let (request_id, rtt_ns) = self.spans.close("serve.request", None, request, sent);
        let parent = Some(request_id);
        let answer = match check::bound_response(&response, cell) {
            Ok(answer) => answer,
            Err(e) => {
                report_failure(&cell.scenario, &e);
                self.failed += 1;
                return Ok(());
            }
        };

        let (parsed, parse_ns, _) =
            self.spans
                .time_median("serve.protocol_parse", parent, request, REPS, || {
                    Request::parse(line)
                });
        parsed?;
        self.samples
            .push("serve.protocol_parse_us", parse_ns as f64 / 1e3);

        let first = !self.replayed[index];
        self.replayed[index] = true;
        if first {
            layers::replay_lang(
                &cell.source,
                &mut self.interner,
                &mut self.spans,
                parent,
                request,
                &mut self.samples,
            )?;
            self.samples.push(
                "lang.drift_batch_ns_per_lane",
                layers::drift_batch_ns_per_lane(&cell.model),
            );
        }
        let (_, intern_ns, _) =
            self.spans
                .time_median("lang.intern", parent, request, REPS, || {
                    self.interner.intern_source(&cell.source)
                });
        let mut engine_ns = 0;
        if first {
            let engine = layers::replay_engine(
                cell,
                &self.options,
                &mut self.spans,
                parent,
                request,
                &mut self.samples,
            )?;
            let served_cost = [
                answer.artifact.cost.rk4_steps,
                answer.artifact.cost.jacobian_evals,
                answer.artifact.cost.sweeps,
                answer.artifact.cost.hull_vertex_evals,
            ];
            let same_bits = |a: &[f64], b: &[f64]| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };
            if engine.cost != served_cost
                || !same_bits(&engine.lower, &answer.artifact.lower)
                || !same_bits(&engine.upper, &answer.artifact.upper)
            {
                report_failure(
                    &cell.scenario,
                    "the in-process replay disagrees with the served answer",
                );
                self.consistent = false;
            }
            if !answer.cache_hit {
                engine_ns = engine.elapsed_ns;
            }
        }

        let (_, render_ns, _) =
            self.spans
                .time_median("core.json.render", parent, request, REPS, || {
                    answer.artifact.to_json().render()
                });
        self.samples
            .push("core.json.render_us", render_ns as f64 / 1e3);

        // A cold request recomputes inside `handle_line`; time it once.
        let reps = if answer.cache_hit { REPS } else { 1 };
        let (_, handle_ns, _) =
            self.spans
                .time_median("serve.handle_line", parent, request, reps, || {
                    self.service.handle_line(line)
                });
        self.samples
            .push("serve.handle_line_us", handle_ns as f64 / 1e3);

        // The server measured its `bound` call; what the round trip adds
        // beyond it, request parsing and rendering is the socket.
        let server_ns = answer.elapsed_ns + parse_ns + render_ns;
        self.samples.push(
            "serve.socket_us",
            rtt_ns.saturating_sub(server_ns) as f64 / 1e3,
        );
        self.unexplained_ns += answer.elapsed_ns.saturating_sub(intern_ns + engine_ns) as f64;
        self.request_ns += rtt_ns as f64;
        Ok(())
    }

    /// Warms the in-process service with every line (hot workload).
    fn warm(&self, lines: &[(String, usize)]) {
        for (line, _) in lines {
            self.service.handle_line(line);
        }
    }

    /// Connect-per-request cost (the `mfu query` path) over a persistent
    /// round trip, on the engine-free `stats` request.
    fn transport(&mut self, served: &Served, conn: &mut Connection) -> Result<(), String> {
        const STATS: &str = r#"{"op":"stats"}"#;
        let mut persistent = Vec::with_capacity(TRANSPORT_TRIALS);
        let mut connected = Vec::with_capacity(TRANSPORT_TRIALS);
        for _ in 0..TRANSPORT_TRIALS {
            let start = Instant::now();
            conn.round_trip(STATS)?;
            persistent.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            query_line(served.addr(), STATS).map_err(|e| format!("stats query failed: {e}"))?;
            connected.push(start.elapsed().as_nanos() as f64);
        }
        let extra = crate::stats::median(&mut connected) - crate::stats::median(&mut persistent);
        self.samples.add("serve.connect_us", extra.max(0.0) / 1e3);
        Ok(())
    }

    /// Finishes the per-layer metrics.
    fn finish(
        mut self,
        service_metrics: &Metrics,
        overhead_ratio: f64,
        trace_out: Option<&std::path::Path>,
    ) -> Result<Finished, String> {
        let hull_seconds = self.samples.values.get("core.hull.seconds").copied();
        if let (Some(seconds), Some(&evals)) = (
            hull_seconds,
            self.samples.values.get("core.hull.vertex_evals"),
        ) {
            self.samples
                .add("core.hull.vertex_evals_per_s", evals / seconds);
        }
        if let Some(snap) = service_metrics.snapshot() {
            let ratio = |hits: Counter, misses: Counter| {
                let (h, m) = (snap.counter(hits) as f64, snap.counter(misses) as f64);
                if h + m > 0.0 {
                    h / (h + m)
                } else {
                    0.0
                }
            };
            self.samples.add(
                "serve.artifact_hit_ratio",
                ratio(Counter::ServeArtifactHits, Counter::ServeArtifactMisses),
            );
            self.samples.add(
                "serve.model_hit_ratio",
                ratio(Counter::ServeModelHits, Counter::ServeModelMisses),
            );
            self.samples.add(
                "serve.artifact_evictions",
                snap.counter(Counter::ServeArtifactEvictions) as f64,
            );
        }
        self.samples.add("trace.overhead_ratio", overhead_ratio);
        self.samples.add(
            "trace.unexplained_frac",
            self.unexplained_ns / self.request_ns.max(1.0),
        );
        if let Some(path) = trace_out {
            self.spans.write_jsonl(path)?;
        }
        Ok((
            self.samples.finish(),
            self.attempted,
            self.failed,
            self.consistent,
        ))
    }
}

fn trace_cold(config: &Config, method: BoundMethod) -> Result<Report, String> {
    let service_metrics = Metrics::enabled();
    let mut setup = cold_setup(config, method, Some(service_metrics.clone()))?;
    let half = config.seconds / 2.0;
    let plain = cold_phase(&setup.cells, &mut setup.conn, half, false)?;
    let traced = cold_phase(&setup.cells, &mut setup.conn, half, true)?;
    let spans = op_spans(&traced);
    let overhead = plain.ops_per_s() / traced.ops_per_s();

    let mut replayer = Replayer::new(&setup.cells, cold_options(), spans);
    for (index, cell) in setup.cells.iter().enumerate() {
        replayer.replay(&mut setup.conn, &cell.by_name(), index)?;
    }
    replayer.transport(&setup.served, &mut setup.conn)?;
    let (values, attempted, failed, consistent) =
        replayer.finish(&service_metrics, overhead, config.trace_out.as_deref())?;
    cold_teardown(setup)?;
    Report::from_values(
        &PER_LAYER,
        &values,
        plain.ops + traced.ops + attempted,
        plain.failed + traced.failed + failed,
        consistent && plain.consistent() && traced.consistent(),
    )
}

/// A warmed hot working set.
struct HotSetup {
    cells: Vec<Cell>,
    /// Every request line with the index of its cell.
    lines: Vec<(String, usize)>,
    expectations: Vec<HotExpectation>,
    served: Served,
    conn: Connection,
    /// Round trips of the timed phase, ms. Allocated and touched here, so
    /// the peak resident set does not grow with throughput.
    latencies_ms: Vec<f32>,
    /// Warm-up requests made, and those that failed a check.
    attempted: u64,
    failed: u64,
    /// Cold widths and cost totals of the warm-up.
    tally: Tally,
}

fn hot_setup(config: &Config, metrics: Option<Metrics>) -> Result<HotSetup, String> {
    let registry = ScenarioRegistry::with_builtins();
    let mut cells = cells::for_method(&registry, BoundMethod::Hull, config)?;
    cells.extend(cells::for_method(
        &registry,
        BoundMethod::Pontryagin,
        config,
    )?);
    if cells.is_empty() {
        return Err("no scenario selected".to_string());
    }
    let mut rng = SplitMix::new(config.seed);
    let mut lines = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        lines.push((cell.by_name(), index));
        lines.push((cell.by_source(), index));
        for variant in cell.box_variants(&mut rng, BOX_VARIANTS) {
            lines.push((variant, index));
        }
    }
    let served = Served::start(ServiceOptions::default(), metrics)?;
    let mut conn = Connection::open(served.addr())?;

    // Cold computations.
    let mut attempted = 0;
    let mut failed = 0;
    let mut tally: Tally = (Vec::new(), [0; 4]);
    for cell in &cells {
        attempted += 1;
        let width = match conn
            .round_trip(&cell.by_name())
            .and_then(|r| check::bound_response(r, cell))
        {
            Ok(answer) => {
                add_cost(&mut tally.1, &answer);
                cell.width(&answer.artifact.lower, &answer.artifact.upper)
            }
            Err(e) => {
                report_failure(&cell.scenario, &e);
                failed += 1;
                f64::NAN
            }
        };
        tally.0.push(width.to_bits());
    }

    // The cache is now stable: take each cell's hit as its expectation,
    // then check every other spelling against it.
    let mut expectations = Vec::with_capacity(cells.len());
    for cell in &cells {
        attempted += 1;
        match conn
            .round_trip(&cell.by_name())
            .and_then(|r| check::bound_response(r, cell))
        {
            Ok(answer) if answer.cache_hit => expectations.push(HotExpectation::new(&answer)),
            Ok(_) => return Err(format!("`{}` was not cached by the warm-up", cell.scenario)),
            Err(e) => return Err(format!("warm-up of `{}` failed: {e}", cell.scenario)),
        }
    }
    for (line, index) in &lines {
        attempted += 1;
        if !expectations[*index].matches(conn.round_trip(line)?) {
            report_failure(
                &cells[*index].scenario,
                "a warm-up hit differs from the cell",
            );
            failed += 1;
        }
    }
    Ok(HotSetup {
        cells,
        lines,
        expectations,
        served,
        conn,
        // `vec![0.0; n]` would leave the pages untouched until the timed
        // phase; a non-zero fill makes them resident now.
        latencies_ms: vec![1.0; SAMPLE_CAP],
        attempted,
        failed,
        tally,
    })
}

fn hot_teardown(setup: HotSetup) -> Result<(), String> {
    drop(setup.conn);
    setup.served.stop()
}

/// Closed-loop hot requests for `seconds`, in windows of about
/// [`RATE_WINDOW_S`], each followed by a calibration run (see [`calib`]);
/// a window is scaled by the mean of the calibrations on either side of it.
fn hot_phase(setup: &mut HotSetup, seed: u64, seconds: f64, traced: bool) -> Result<Phase, String> {
    let count = ((seconds / RATE_WINDOW_S).round() as usize).max(1);
    let window = Duration::from_secs_f64(seconds / count as f64);
    let mut rng = SplitMix::new(seed ^ 0xC1_1E47);
    let mut order: Vec<usize> = (0..setup.lines.len()).collect();
    let mut next = order.len();
    let mut phase = Phase::default();
    let mut recorded = 0;
    let (mut ends, mut windows) = (vec![0], Vec::with_capacity(count));
    let mut calibration = calib::measure();
    phase.calibrations.push(calibration);
    for _ in 0..count {
        let (start, requests) = (Instant::now(), phase.ops);
        loop {
            let sent = Instant::now();
            if sent >= start + window {
                break;
            }
            if next == order.len() {
                rng.shuffle(&mut order);
                next = 0;
            }
            let (line, index) = &setup.lines[order[next]];
            next += 1;
            let response = setup.conn.round_trip(line)?;
            let rtt_ns = sent.elapsed().as_nanos() as u64;
            phase.ops += 1;
            if !setup.expectations[*index].matches(response) {
                phase.failed += 1;
            }
            if recorded < SAMPLE_CAP {
                setup.latencies_ms[recorded] = (rtt_ns as f64 / 1e6) as f32;
                recorded += 1;
            }
            if traced {
                phase.op_spans.push((sent, rtt_ns));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let after = calib::measure();
        windows.push(Window {
            requests: phase.ops - requests,
            wall_s,
            scale: calib::scale((calibration + after) / 2.0),
        });
        phase.calibrations.push(after);
        calibration = after;
        ends.push(recorded);
    }
    if recorded == SAMPLE_CAP {
        eprintln!("perfbench: query_hot timed only the first {SAMPLE_CAP} requests");
    }
    phase.hot_timing = Some(windowed(&setup.latencies_ms, &ends, &windows));
    if phase.failed > 0 {
        report_failure(
            "query_hot",
            &format!("{} hits differ from their warm-up answers", phase.failed),
        );
    }
    Ok(phase)
}

/// Widths of the warm-up, split by method.
fn hot_widths(setup: &HotSetup) -> (f64, f64) {
    let of = |method: BoundMethod| {
        let widths: Vec<f64> = setup
            .cells
            .iter()
            .zip(widths(&setup.tally))
            .filter(|(cell, _)| cell.method == method)
            .map(|(_, w)| w)
            .collect();
        if widths.is_empty() {
            NOT_APPLICABLE
        } else {
            quality(&widths)
        }
    };
    (of(BoundMethod::Hull), of(BoundMethod::Pontryagin))
}

/// `query_hot`.
///
/// # Errors
///
/// Returns a message when the benchmark cannot run.
pub fn run_hot(config: &Config) -> Result<Report, String> {
    calib::pin_to_one_cpu();
    if config.trace {
        return trace_hot(config);
    }
    // Every set-up warms the cells cold; their tallies must agree.
    let mut tallies = Vec::new();
    let (mut setup, setup_s) = calib::setups(
        HOT_SETUPS,
        || hot_setup(config, None),
        |setup| {
            tallies.push(setup.tally.clone());
            hot_teardown(setup)
        },
    )?;
    tallies.push(setup.tally.clone());
    let consistent = tallies.windows(2).all(|w| w[0] == w[1]);
    if !consistent {
        report_failure("determinism", "warm-up widths or work counters differ");
    }
    let phase = hot_phase(&mut setup, config.seed, config.seconds, false)?;
    calib::print_summary(&phase.calibrations);
    let (outer, inner) = hot_widths(&setup);
    let (attempted, failed) = (setup.attempted, setup.failed);
    hot_teardown(setup)?;
    let (ops_per_s, p50, p99) = phase.timing();
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("latency_p50_ms", p50),
        ("latency_p99_ms", p99),
        ("outer_width_gmean", outer),
        ("inner_width_gmean", inner),
        ("sim_mean_err", NOT_APPLICABLE),
        ("peak_rss_mib", crate::stats::peak_rss_mib()),
    ]);
    Report::from_values(
        &END_TO_END,
        &values,
        attempted + phase.ops,
        failed + phase.failed,
        consistent,
    )
}

fn trace_hot(config: &Config) -> Result<Report, String> {
    let service_metrics = Metrics::enabled();
    let mut setup = hot_setup(config, Some(service_metrics.clone()))?;
    let half = config.seconds / 2.0;
    let plain = hot_phase(&mut setup, config.seed, half, false)?;
    let traced = hot_phase(&mut setup, config.seed, half, true)?;
    let overhead = plain.ops_per_s() / traced.ops_per_s();
    let spans = op_spans(&traced);

    let mut replayer = Replayer::new(&setup.cells, ServiceOptions::default(), spans);
    replayer.warm(&setup.lines);
    for (line, index) in &setup.lines {
        replayer.replay(&mut setup.conn, line, *index)?;
    }
    replayer.transport(&setup.served, &mut setup.conn)?;
    let (values, attempted, failed, consistent) =
        replayer.finish(&service_metrics, overhead, config.trace_out.as_deref())?;
    let total_attempted = setup.attempted + plain.ops + traced.ops + attempted;
    let total_failed = setup.failed + plain.failed + traced.failed + failed;
    hot_teardown(setup)?;
    Report::from_values(
        &PER_LAYER,
        &values,
        total_attempted,
        total_failed,
        consistent,
    )
}
