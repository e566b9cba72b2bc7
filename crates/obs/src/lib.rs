//! `mfu-obs`: observability primitives for the rest of the workspace.
//!
//! Two independent instruments share one design rule — **disabled must be
//! free**:
//!
//! * [`Metrics`] — a handle over a fixed set of atomic [`Counter`]s,
//!   accumulated [`Timer`]s, [`Gauge`]s and string labels. The handle is a
//!   plain `Option<Arc<..>>`: a disabled handle is `None`, every recording
//!   method starts with an `is_none` early-out, and nothing is allocated.
//!   Hot engine loops do not call into `Metrics` at all — they accumulate
//!   plain-`u64` run-local counter structs unconditionally (register
//!   arithmetic, essentially free) and *flush* once per run when a handle
//!   is enabled. Trajectories are bit-identical with metrics on or off
//!   because the instrumented code never branches on the handle inside
//!   numerical paths.
//! * [`Tracer`] — a structured event sink writing one JSON object per line
//!   (JSONL) to any `Write + Send` sink. Engines emit coarse events (run
//!   summaries, τ-halvings, restart winners), never per-jump records.
//!   [`Tracer::span`] times a region and emits a `span` event on close.
//!
//! [`Obs`] bundles the two; engines take an `Obs` via `with_obs` builders
//! and default to [`Obs::none`].
//!
//! ```
//! use mfu_obs::{Counter, Obs};
//!
//! let obs = Obs::with_metrics();
//! obs.metrics.add(Counter::SimEventsFired, 42);
//! let snapshot = obs.metrics.snapshot().expect("metrics enabled");
//! assert_eq!(snapshot.counter(Counter::SimEventsFired), 42);
//! assert!(snapshot.render_json().contains("\"sim_events_fired\":42"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Metrics, MetricsSnapshot, Timer};
pub use trace::{write_json_string, BufferSink, Field, Span, Tracer};

/// Bundle of the two observability instruments.
///
/// Cloning is cheap (two `Option<Arc>` copies) and clones share the same
/// underlying recorders, so an `Obs` can be handed to scoped worker
/// threads and every flush lands in one place.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Counter/timer/label recorder (disabled by default).
    pub metrics: Metrics,
    /// Structured JSONL event sink (disabled by default).
    pub tracer: Tracer,
}

impl Obs {
    /// A fully disabled bundle: every recording call is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A bundle with metrics enabled and tracing disabled.
    #[must_use]
    pub fn with_metrics() -> Self {
        Self {
            metrics: Metrics::enabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// True when at least one instrument records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.tracer.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let obs = Obs::none();
        assert!(!obs.is_enabled());
        obs.metrics.add(Counter::SimEventsFired, 7);
        obs.tracer.event("noop", &[]);
        assert!(obs.metrics.snapshot().is_none());
    }

    #[test]
    fn clones_share_the_recorder() {
        let obs = Obs::with_metrics();
        let clone = obs.clone();
        clone.metrics.add(Counter::CoreRk4Steps, 3);
        obs.metrics.add(Counter::CoreRk4Steps, 2);
        let snap = obs.metrics.snapshot().unwrap();
        assert_eq!(snap.counter(Counter::CoreRk4Steps), 5);
    }
}
