//! In-memory spans for the traced run.
//!
//! Nothing inside the program is instrumented: the benchmark records a span
//! around each call it makes into a layer's public entry point. A request
//! is first served over TCP inside a `serve.request` span; the benchmark
//! then replays it in-process, one child span per layer call, all carrying
//! the request's id. The replayed calls run after the request, not inside
//! it, so a span's self time is its duration minus the *durations* of its
//! children. Spans are written out as JSON lines when the run ends.

use std::path::Path;
use std::time::Instant;

use mfu_core::json::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span this call was made for, if any.
    pub parent: Option<u64>,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Layer call name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty store whose clock starts now.
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and ends now; returns its id
    /// and duration.
    pub fn close(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> (u64, u64) {
        let duration_ns = start.elapsed().as_nanos() as u64;
        (
            self.record(name, parent, request, start, duration_ns),
            duration_ns,
        )
    }

    /// Records a span timed elsewhere (a client thread); returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        duration_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            duration_ns,
        });
        id
    }

    /// Runs `f` `reps` times, each in its own span, and returns the last
    /// result, the median duration (µs-scale calls are too short for one
    /// clock reading to mean much) and the last span's id.
    pub fn time_median<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, u64, u64) {
        let mut durations = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let value = f();
            let (id, ns) = self.close(name, parent, request, start);
            durations.push(ns as f64);
            last = Some((value, id));
        }
        let median = crate::stats::median(&mut durations) as u64;
        let (value, id) = last.expect("at least one repetition");
        (value, median, id)
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration minus its children's
    /// durations, floored at zero.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.duration_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, child)| span.duration_ns.saturating_sub(child))
            .collect()
    }

    /// Writes every span as one JSON line, with its self time.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let line = Json::object([
                ("id", Json::Number(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                ),
                ("request", Json::Number(span.request as f64)),
                ("name", Json::string(span.name)),
                ("start_ns", Json::Number(span.start_ns as f64)),
                ("duration_ns", Json::Number(span.duration_ns as f64)),
                ("self_ns", Json::Number(self_ns as f64)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (parent, total) = spans.close("serve.request", None, 0, start);
        let ((), child, _) = spans.time_median("lang.parse", Some(parent), 0, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(
            spans.self_times_ns()[parent as usize],
            total.saturating_sub(child)
        );
        assert_eq!(spans.spans().len(), 2);
        assert!(spans.spans().iter().all(|s| s.request == 0));
    }
}
