//! Atomic counters, accumulated timers, gauges and labels.
//!
//! The recorder is a fixed-shape table: every [`Counter`], [`Timer`] and
//! [`Gauge`] is an enum variant indexing into a preallocated array of
//! relaxed `AtomicU64`s, so recording never allocates and never takes a
//! lock (labels, which are cold, sit behind a `Mutex`). A disabled
//! [`Metrics`] is a `None` handle; every method early-outs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic event counters recorded by the engines.
///
/// Names are grouped by crate: `Sim*` from `mfu-sim`, `Core*` from
/// `mfu-core`, `Lang*` from `mfu-lang`, `Serve*` from `mfu-serve`. The
/// snapshot renders each as the snake-case of its variant name (e.g.
/// `sim_events_fired`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Transition firings recorded by a simulation run (exact jumps, or
    /// τ-leap steps plus fallback SSA steps).
    SimEventsFired,
    /// Individual rate evaluations performed by the exact SSA engine.
    SimPropensityEvals,
    /// Rate evaluations *avoided* by the exact engine's dependency graph
    /// (transitions left untouched after a firing).
    SimPropensitySkips,
    /// Accepted τ-leap steps.
    SimTauLeapSteps,
    /// τ-halvings forced by the negative-population guard.
    SimTauHalvings,
    /// Exact-SSA fallback bursts entered when total propensity is small.
    SimTauFallbackBursts,
    /// Individual exact-SSA steps taken inside fallback bursts.
    SimTauFallbackSteps,
    /// Poisson firing-count draws made by the τ-leap engine.
    SimPoissonDraws,
    /// Genuine (non-amortised) wall-clock reads made by budget trackers.
    SimBudgetChecks,
    /// τ-leap runs demoted to exact SSA after repeated halvings.
    SimTauDemotions,
    /// Completed simulation runs flushed into this recorder.
    SimRuns,
    /// RK4 integration steps taken by the Pontryagin solver, each pass's
    /// every step, whether integrated or taken from an earlier pass (those
    /// count in [`Counter::CorePontryaginReusedSteps`] too).
    CoreRk4Steps,
    /// Finite-difference Jacobian evaluations in the backward sweep.
    CoreJacobianEvals,
    /// Backward-sweep intervals whose costate Jacobian was zeroed (a
    /// non-finite finite-difference entry, or `‖J‖∞·h` above the
    /// costate-step stability cap of 2.5), so the costate did not move.
    CoreCostateGateTrips,
    /// Forward–backward Pontryagin sweep iterations.
    CorePontryaginSweeps,
    /// Pontryagin multi-start restarts launched.
    CorePontryaginRestarts,
    /// Single-start Pontryagin solves escalated to multi-start after a
    /// suspicious-convergence probe.
    CorePontryaginEscalations,
    /// Pontryagin trial forward passes whose switch set did not improve
    /// the objective (each one halves the set or ends the sweep).
    CorePontryaginRejectedSteps,
    /// The Pontryagin forward RK4 steps of [`Counter::CoreRk4Steps`] a
    /// pass took from an earlier pass instead of integrating them: a trial
    /// pass's states before its first switched interval, and a first pass
    /// another objective of the same solve already integrated.
    CorePontryaginReusedSteps,
    /// Hull grid points (box corners and midpoints) the drift is evaluated
    /// at, each once per right-hand side and with every Θ candidate.
    CoreHullVertexEvals,
    /// DSL rules lowered to rate programs under observation.
    LangRulesLowered,
    /// Bound-artifact cache hits served by `mfu-serve`.
    ServeArtifactHits,
    /// Bound-artifact cache misses (each one ran a bounding engine cold).
    ServeArtifactMisses,
    /// Bound artifacts evicted from the serve cache by the LRU bound.
    ServeArtifactEvictions,
    /// Compiled-model interner hits inside the query service.
    ServeModelHits,
    /// Compiled-model interner misses (each one compiled a model).
    ServeModelMisses,
    /// Requests whose source text the interner parsed and validated (every
    /// request but those whose exact text it already held with its model).
    ServeSourceParses,
}

impl Counter {
    /// Every counter, in snapshot rendering order.
    pub const ALL: [Counter; 27] = [
        Counter::SimEventsFired,
        Counter::SimPropensityEvals,
        Counter::SimPropensitySkips,
        Counter::SimTauLeapSteps,
        Counter::SimTauHalvings,
        Counter::SimTauFallbackBursts,
        Counter::SimTauFallbackSteps,
        Counter::SimPoissonDraws,
        Counter::SimBudgetChecks,
        Counter::SimTauDemotions,
        Counter::SimRuns,
        Counter::CoreRk4Steps,
        Counter::CoreJacobianEvals,
        Counter::CoreCostateGateTrips,
        Counter::CorePontryaginSweeps,
        Counter::CorePontryaginRestarts,
        Counter::CorePontryaginEscalations,
        Counter::CorePontryaginRejectedSteps,
        Counter::CorePontryaginReusedSteps,
        Counter::CoreHullVertexEvals,
        Counter::LangRulesLowered,
        Counter::ServeArtifactHits,
        Counter::ServeArtifactMisses,
        Counter::ServeArtifactEvictions,
        Counter::ServeModelHits,
        Counter::ServeModelMisses,
        Counter::ServeSourceParses,
    ];

    /// Snake-case snapshot name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::SimEventsFired => "sim_events_fired",
            Counter::SimPropensityEvals => "sim_propensity_evals",
            Counter::SimPropensitySkips => "sim_propensity_skips",
            Counter::SimTauLeapSteps => "sim_tau_leap_steps",
            Counter::SimTauHalvings => "sim_tau_halvings",
            Counter::SimTauFallbackBursts => "sim_tau_fallback_bursts",
            Counter::SimTauFallbackSteps => "sim_tau_fallback_steps",
            Counter::SimPoissonDraws => "sim_poisson_draws",
            Counter::SimBudgetChecks => "sim_budget_checks",
            Counter::SimTauDemotions => "sim_tau_demotions",
            Counter::SimRuns => "sim_runs",
            Counter::CoreRk4Steps => "core_rk4_steps",
            Counter::CoreJacobianEvals => "core_jacobian_evals",
            Counter::CoreCostateGateTrips => "core_costate_gate_trips",
            Counter::CorePontryaginSweeps => "core_pontryagin_sweeps",
            Counter::CorePontryaginRestarts => "core_pontryagin_restarts",
            Counter::CorePontryaginEscalations => "core_pontryagin_escalations",
            Counter::CorePontryaginRejectedSteps => "core_pontryagin_rejected_steps",
            Counter::CorePontryaginReusedSteps => "core_pontryagin_reused_steps",
            Counter::CoreHullVertexEvals => "core_hull_vertex_evals",
            Counter::LangRulesLowered => "lang_rules_lowered",
            Counter::ServeArtifactHits => "serve_artifact_hits",
            Counter::ServeArtifactMisses => "serve_artifact_misses",
            Counter::ServeArtifactEvictions => "serve_artifact_evictions",
            Counter::ServeModelHits => "serve_model_hits",
            Counter::ServeModelMisses => "serve_model_misses",
            Counter::ServeSourceParses => "serve_source_parses",
        }
    }
}

/// Accumulated wall-clock timers (total nanoseconds per region).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Timer {
    /// DSL source → AST.
    LangParse,
    /// AST → resolved model (name resolution, typing).
    LangValidate,
    /// Resolved rates → `RateProgram` bytecode.
    LangLower,
    /// Stochastic simulation (exact or τ-leap), per CLI run.
    SimSimulate,
    /// Mean-field bound computation (Pontryagin or hull), per CLI run.
    CoreBound,
    /// Pontryagin forward passes: every start's first pass and every trial
    /// pass of the step search.
    CorePontryaginForward,
    /// Pontryagin backward passes: Jacobian stencil batches and the costate
    /// recursion.
    CorePontryaginBackward,
    /// Pontryagin switch scans: the batched Hamiltonian scores of every
    /// interval.
    CorePontryaginSwitch,
}

impl Timer {
    /// Every timer, in snapshot rendering order.
    pub const ALL: [Timer; 8] = [
        Timer::LangParse,
        Timer::LangValidate,
        Timer::LangLower,
        Timer::SimSimulate,
        Timer::CoreBound,
        Timer::CorePontryaginForward,
        Timer::CorePontryaginBackward,
        Timer::CorePontryaginSwitch,
    ];

    /// Snake-case snapshot name (without the `_ns` suffix the renderers
    /// append).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Timer::LangParse => "lang_parse",
            Timer::LangValidate => "lang_validate",
            Timer::LangLower => "lang_lower",
            Timer::SimSimulate => "sim_simulate",
            Timer::CoreBound => "core_bound",
            Timer::CorePontryaginForward => "core_pontryagin_forward",
            Timer::CorePontryaginBackward => "core_pontryagin_backward",
            Timer::CorePontryaginSwitch => "core_pontryagin_switch",
        }
    }
}

/// Last-write-wins instantaneous values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Index of the Pontryagin multi-start initialization that produced
    /// the winning extremal (0 = midpoint start).
    CorePontryaginWinningRestart,
}

impl Gauge {
    /// Every gauge, in snapshot rendering order.
    pub const ALL: [Gauge; 1] = [Gauge::CorePontryaginWinningRestart];

    /// Snake-case snapshot name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CorePontryaginWinningRestart => "core_pontryagin_winning_restart",
        }
    }
}

/// Sentinel stored in gauge slots that were never set.
const GAUGE_UNSET: u64 = u64::MAX;

#[derive(Debug)]
struct MetricsCore {
    counters: [AtomicU64; Counter::ALL.len()],
    timers_ns: [AtomicU64; Timer::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    labels: Mutex<BTreeMap<&'static str, String>>,
}

impl MetricsCore {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            timers_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(GAUGE_UNSET)),
            labels: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Shared handle over a metrics recorder; `Default` is disabled.
///
/// All mutation uses relaxed atomics — counters are statistics, not
/// synchronization. Clones share the recorder.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    core: Option<Arc<MetricsCore>>,
}

impl Metrics {
    /// A handle that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            core: Some(Arc::new(MetricsCore::new())),
        }
    }

    /// A handle that drops everything (same as `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// True when this handle records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if let Some(core) = &self.core {
            core.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds elapsed nanoseconds to a timer.
    #[inline]
    pub fn add_timer_ns(&self, timer: Timer, ns: u64) {
        if let Some(core) = &self.core {
            core.timers_ns[timer as usize].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Runs `f`, charging its wall-clock time to `timer` when enabled.
    ///
    /// Disabled handles call `f` directly without reading the clock.
    #[inline]
    pub fn time<T>(&self, timer: Timer, f: impl FnOnce() -> T) -> T {
        match &self.core {
            None => f(),
            Some(core) => {
                let start = Instant::now();
                let out = f();
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                core.timers_ns[timer as usize].fetch_add(ns, Ordering::Relaxed);
                out
            }
        }
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        if let Some(core) = &self.core {
            core.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Sets a string label (last write wins).
    pub fn set_label(&self, key: &'static str, value: impl Into<String>) {
        if let Some(core) = &self.core {
            if let Ok(mut labels) = core.labels.lock() {
                labels.insert(key, value.into());
            }
        }
    }

    /// Copies the current values out, or `None` when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let core = self.core.as_ref()?;
        Some(MetricsSnapshot {
            counters: std::array::from_fn(|i| core.counters[i].load(Ordering::Relaxed)),
            timers_ns: std::array::from_fn(|i| core.timers_ns[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| core.gauges[i].load(Ordering::Relaxed)),
            labels: core
                .labels
                .lock()
                .map(|l| {
                    l.iter()
                        .map(|(k, v)| ((*k).to_string(), v.clone()))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// A point-in-time copy of every metric, ready to render.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::ALL.len()],
    timers_ns: [u64; Timer::ALL.len()],
    gauges: [u64; Gauge::ALL.len()],
    labels: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Value of one counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Accumulated nanoseconds of one timer.
    #[must_use]
    pub fn timer_ns(&self, timer: Timer) -> u64 {
        self.timers_ns[timer as usize]
    }

    /// Value of one gauge, `None` when never set.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> Option<u64> {
        let raw = self.gauges[gauge as usize];
        (raw != GAUGE_UNSET).then_some(raw)
    }

    /// Label value by key, `None` when never set.
    #[must_use]
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Human-readable multi-line table. Zero-valued counters and timers
    /// are omitted; labels and set gauges always print.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::from("metrics snapshot\n");
        for (key, value) in &self.labels {
            let _ = writeln!(out, "  {key:<32} {value}");
        }
        for counter in Counter::ALL {
            let v = self.counter(counter);
            if v != 0 {
                let _ = writeln!(out, "  {:<32} {v}", counter.name());
            }
        }
        for gauge in Gauge::ALL {
            if let Some(v) = self.gauge(gauge) {
                let _ = writeln!(out, "  {:<32} {v}", gauge.name());
            }
        }
        for timer in Timer::ALL {
            let ns = self.timer_ns(timer);
            if ns != 0 {
                let _ = writeln!(
                    out,
                    "  {:<32} {:.3} ms",
                    format!("{}_ms", timer.name()),
                    ns as f64 / 1.0e6
                );
            }
        }
        out
    }

    /// Single-line JSON object with `counters`, `timers_ns`, `gauges` and
    /// `labels` sections. All counters and timers are emitted (including
    /// zeros) so the schema is stable for machine consumers.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, counter) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", counter.name(), self.counter(*counter));
        }
        out.push_str("},\"timers_ns\":{");
        for (i, timer) in Timer::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}_ns\":{}", timer.name(), self.timer_ns(*timer));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for gauge in Gauge::ALL {
            if let Some(v) = self.gauge(gauge) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{v}", gauge.name());
            }
        }
        out.push_str("},\"labels\":{");
        for (i, (key, value)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::trace::write_json_string(key, &mut out);
            out.push(':');
            crate::trace::write_json_string(value, &mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let metrics = Metrics::disabled();
        metrics.add(Counter::SimEventsFired, 10);
        metrics.add_timer_ns(Timer::SimSimulate, 10);
        metrics.set_gauge(Gauge::CorePontryaginWinningRestart, 1);
        metrics.set_label("algorithm", "exact");
        assert!(metrics.snapshot().is_none());
        // time() still runs the closure.
        assert_eq!(metrics.time(Timer::SimSimulate, || 5), 5);
    }

    #[test]
    fn counters_timers_gauges_labels_round_trip() {
        let metrics = Metrics::enabled();
        metrics.add(Counter::SimEventsFired, 3);
        metrics.add(Counter::SimEventsFired, 4);
        metrics.add_timer_ns(Timer::LangParse, 1_500);
        metrics.set_gauge(Gauge::CorePontryaginWinningRestart, 2);
        metrics.set_label("selection", "sum-tree");
        let snap = metrics.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::SimEventsFired), 7);
        assert_eq!(snap.timer_ns(Timer::LangParse), 1_500);
        assert_eq!(snap.gauge(Gauge::CorePontryaginWinningRestart), Some(2));
        assert_eq!(snap.label("selection"), Some("sum-tree"));
        assert_eq!(snap.label("missing"), None);
    }

    #[test]
    fn unset_gauge_reads_none() {
        let snap = Metrics::enabled().snapshot().unwrap();
        assert_eq!(snap.gauge(Gauge::CorePontryaginWinningRestart), None);
    }

    #[test]
    fn json_rendering_is_stable_and_complete() {
        let metrics = Metrics::enabled();
        metrics.add(Counter::SimTauHalvings, 2);
        metrics.set_label("algorithm", "tau-leap");
        let json = metrics.snapshot().unwrap().render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"sim_tau_halvings\":2"));
        // zero counters are still present for schema stability
        assert!(json.contains("\"core_rk4_steps\":0"));
        assert!(json.contains("\"sim_simulate_ns\":0"));
        assert!(json.contains("\"algorithm\":\"tau-leap\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn pretty_rendering_elides_zeros() {
        let metrics = Metrics::enabled();
        metrics.add(Counter::SimEventsFired, 9);
        let pretty = metrics.snapshot().unwrap().render_pretty();
        assert!(pretty.contains("sim_events_fired"));
        assert!(!pretty.contains("core_rk4_steps"));
    }

    #[test]
    fn shared_across_threads() {
        let metrics = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add(Counter::CoreRk4Steps, 1);
                    }
                });
            }
        });
        assert_eq!(
            metrics.snapshot().unwrap().counter(Counter::CoreRk4Steps),
            4000
        );
    }
}
