//! Structured run tracing: one JSON object per line.
//!
//! Every record carries the event name under `"ev"` and nanoseconds since
//! the tracer was created under `"t_ns"`, followed by the caller's fields:
//!
//! ```text
//! {"ev":"tau_halved","t_ns":18234,"t":0.41,"tau":0.0125}
//! {"ev":"span","t_ns":90114,"name":"lang.parse","elapsed_ns":71880}
//! ```
//!
//! Serialization is hand-rolled (the vendored `serde` is a stub): strings
//! are escaped per JSON, non-finite floats render as `null`. Write errors
//! are swallowed — tracing must never fail the run it observes.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A field value attached to a trace event.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values render as `null`.
    F64(f64),
    /// String (JSON-escaped on write).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

struct TracerCore {
    sink: Mutex<Box<dyn std::io::Write + Send>>,
    epoch: Instant,
}

impl std::fmt::Debug for TracerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerCore").finish_non_exhaustive()
    }
}

/// Shared handle over a JSONL event sink; `Default` is disabled.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A handle that drops every event (same as `Default`).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle writing JSONL records to `sink`.
    ///
    /// Wrap files in a `BufWriter` — the tracer locks and writes per
    /// event, it does not buffer.
    #[must_use]
    pub fn to_writer(sink: Box<dyn std::io::Write + Send>) -> Self {
        Self {
            core: Some(Arc::new(TracerCore {
                sink: Mutex::new(sink),
                epoch: Instant::now(),
            })),
        }
    }

    /// A handle writing into a shared in-memory buffer (tests, snapshot
    /// assertions). Returns the tracer and the buffer it fills.
    #[must_use]
    pub fn to_buffer() -> (Self, BufferSink) {
        let buffer = BufferSink::default();
        (Self::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// True when this handle writes.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Emits one event record. No-op when disabled.
    pub fn event(&self, name: &str, fields: &[(&str, Field<'_>)]) {
        let Some(core) = &self.core else { return };
        let t_ns = u64::try_from(core.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut line = String::with_capacity(64);
        line.push_str("{\"ev\":");
        write_json_string(name, &mut line);
        line.push_str(",\"t_ns\":");
        line.push_str(&t_ns.to_string());
        for (key, value) in fields {
            line.push(',');
            write_json_string(key, &mut line);
            line.push(':');
            write_field(&mut line, value);
        }
        line.push_str("}\n");
        if let Ok(mut sink) = core.sink.lock() {
            let _ = sink.write_all(line.as_bytes());
        }
    }

    /// Starts a timed region; the returned guard emits a `span` event
    /// with the region's `name` and `elapsed_ns` when dropped or
    /// [finished](Span::finish).
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            tracer: self.clone(),
            name,
            start: Instant::now(),
            done: false,
        }
    }

    /// Flushes the underlying writer. No-op when disabled.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            if let Ok(mut sink) = core.sink.lock() {
                let _ = sink.flush();
            }
        }
    }
}

/// Guard for a timed region; see [`Tracer::span`].
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    start: Instant,
    done: bool,
}

impl Span {
    /// Ends the span now, attaching `fields` to the emitted record.
    pub fn finish(mut self, fields: &[(&str, Field<'_>)]) {
        self.emit(fields);
    }

    fn emit(&mut self, extra: &[(&str, Field<'_>)]) {
        if self.done {
            return;
        }
        self.done = true;
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut fields: Vec<(&str, Field<'_>)> = Vec::with_capacity(extra.len() + 2);
        fields.push(("name", Field::Str(self.name)));
        fields.push(("elapsed_ns", Field::U64(elapsed)));
        fields.extend_from_slice(extra);
        self.tracer.event("span", &fields);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit(&[]);
    }
}

/// A cloneable `Write` over a shared `Vec<u8>`; pairs with
/// [`Tracer::to_buffer`].
#[derive(Clone, Debug, Default)]
pub struct BufferSink {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl BufferSink {
    /// Copies the bytes written so far out as a string (lossy on
    /// non-UTF-8, which the tracer never writes).
    #[must_use]
    pub fn contents(&self) -> String {
        self.buffer
            .lock()
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .unwrap_or_default()
    }
}

impl std::io::Write for BufferSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Ok(mut inner) = self.buffer.lock() {
            inner.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn write_field(out: &mut String, field: &Field<'_>) {
    use std::fmt::Write as _;
    match field {
        Field::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Field::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Field::F64(_) => out.push_str("null"),
        Field::Str(s) => write_json_string(s, out),
        Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping quotes,
/// backslashes and every control character (`\n`/`\r`/`\t`/`\b`/`\f` in
/// their short forms, `\u00XX` otherwise).
///
/// This is the workspace's one JSON string escaper: trace events, the
/// metrics snapshot and the `mfu_core::json` writer all go through it.
#[inline]
pub fn write_json_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.event("anything", &[("k", Field::U64(1))]);
        tracer.flush();
    }

    #[test]
    fn events_render_one_json_object_per_line() {
        let (tracer, buffer) = Tracer::to_buffer();
        tracer.event(
            "run_start",
            &[
                ("target", Field::Str("sir")),
                ("scale", Field::F64(100.0)),
                ("exact", Field::Bool(true)),
                ("delta", Field::I64(-3)),
            ],
        );
        tracer.event("nan_guard", &[("x", Field::F64(f64::NAN))]);
        let lines: Vec<String> = buffer.contents().lines().map(String::from).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"ev\":\"run_start\",\"t_ns\":"));
        assert!(lines[0].contains("\"target\":\"sir\""));
        assert!(lines[0].contains("\"scale\":100"));
        assert!(lines[0].contains("\"exact\":true"));
        assert!(lines[0].contains("\"delta\":-3"));
        assert!(lines[1].contains("\"x\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let (tracer, buffer) = Tracer::to_buffer();
        tracer.event("e", &[("msg", Field::Str("a\"b\\c\nd"))]);
        assert!(buffer.contents().contains("\"msg\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn spans_emit_elapsed_on_drop_and_finish() {
        let (tracer, buffer) = Tracer::to_buffer();
        drop(tracer.span("dropped"));
        tracer.span("finished").finish(&[("rules", Field::U64(4))]);
        let contents = buffer.contents();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.contains("\"name\":\"dropped\""));
        assert!(contents.contains("\"name\":\"finished\""));
        assert!(contents.contains("\"elapsed_ns\":"));
        assert!(contents.contains("\"rules\":4"));
    }
}
