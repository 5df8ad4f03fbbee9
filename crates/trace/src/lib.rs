//! Structured event tracing for the Armada protocol.
//!
//! Every protocol hot path — discovery, probing, joins, switches,
//! failovers, churn — can emit [`TraceEvent`]s through a [`Tracer`].
//! The simulator stamps events with **virtual** time (so same-seed runs
//! produce byte-identical traces); the live TCP runtime stamps them
//! with wall-clock microseconds since the tracer was created.
//!
//! # Design
//!
//! * A [`Tracer`] is a cheap clonable handle (`Option<Arc<…>>`); the
//!   disabled tracer is a `None` and every emission on it is a branch
//!   on a null pointer.
//! * Event fields are built by a closure, so argument formatting only
//!   happens when the event actually passes the severity filter.
//! * With the `enabled` cargo feature off (`--no-default-features`) the
//!   emission bodies compile to nothing while the API stays identical —
//!   instrumented crates need no `cfg` of their own.
//! * The JSONL sink reuses `armada-json`'s deterministic writer: object
//!   member order is insertion order, so a line's bytes depend only on
//!   the event's content.
//!
//! # JSONL schema
//!
//! One event per line, fixed leading keys then event-specific fields:
//!
//! ```json
//! {"t_us":1500000,"sev":"info","kind":"client.switch","user":3,"from":1,"to":4}
//! ```
//!
//! `t_us` is microseconds (virtual time in the simulator, wall clock in
//! the live runtime), `sev` is `debug`/`info`/`warn`, and `kind` is a
//! dot-separated event name, one of [`KINDS`].
//!
//! # Examples
//!
//! ```
//! use armada_trace::{MemorySink, Severity, Tracer, u};
//!
//! let sink = MemorySink::new();
//! let buffer = sink.buffer();
//! let tracer = Tracer::with_sink(Box::new(sink), Severity::Info);
//! tracer.emit_at(1_000, Severity::Info, "client.join", || {
//!     vec![("user", u(7)), ("node", u(2))]
//! });
//! tracer.emit_at(2_000, Severity::Debug, "frame.done", || vec![]); // filtered out
//! tracer.flush();
//! # #[cfg(feature = "enabled")]
//! assert_eq!(
//!     buffer.lock().unwrap().as_str(),
//!     "{\"t_us\":1000,\"sev\":\"info\",\"kind\":\"client.join\",\"user\":7,\"node\":2}\n"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inspect;
mod kinds;

pub use kinds::KINDS;

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use armada_json::Json;

/// Event severity, ordered `Debug < Info < Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume per-frame / per-probe detail.
    Debug,
    /// Protocol decisions: joins, switches, registry changes.
    Info,
    /// Failures and failovers.
    Warn,
}

impl Severity {
    /// The wire spelling (`debug` / `info` / `warn`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }

    /// Parses the wire spelling (case-insensitive).
    pub fn parse(text: &str) -> Option<Severity> {
        match text.to_ascii_lowercase().as_str() {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warn),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured event: timestamp, severity, kind, and fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds: virtual time (simulator) or wall clock since the
    /// tracer's creation (live runtime).
    pub t_us: u64,
    /// Severity the event was emitted at.
    pub sev: Severity,
    /// Dot-separated event name, e.g. `client.switch`.
    pub kind: String,
    /// Event-specific fields, in emission order.
    pub fields: Vec<(String, Json)>,
}

impl TraceEvent {
    /// The event as a single-line JSON object (no trailing newline),
    /// with the fixed `t_us`, `sev`, `kind` prefix.
    pub fn to_line(&self) -> String {
        let mut members: Vec<(String, Json)> = Vec::with_capacity(3 + self.fields.len());
        members.push(("t_us".into(), Json::Int(self.t_us as i64)));
        members.push(("sev".into(), Json::Str(self.sev.as_str().into())));
        members.push(("kind".into(), Json::Str(self.kind.clone())));
        members.extend(self.fields.iter().cloned());
        armada_json::to_string(&Json::Object(members))
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Fails if the line is not a JSON object with the fixed prefix
    /// keys.
    pub fn parse_line(line: &str) -> Result<TraceEvent, armada_json::JsonError> {
        let err = armada_json::JsonError::new;
        let Json::Object(members) = Json::parse(line)? else {
            return Err(err("trace line is not an object"));
        };
        let mut t_us = None;
        let mut sev = None;
        let mut kind = None;
        let mut fields = Vec::new();
        for (key, value) in members {
            match key.as_str() {
                "t_us" => t_us = value.as_u64(),
                "sev" => sev = value.as_str().and_then(Severity::parse),
                "kind" => kind = value.as_str().map(String::from),
                _ => fields.push((key, value)),
            }
        }
        Ok(TraceEvent {
            t_us: t_us.ok_or_else(|| err("trace line missing t_us"))?,
            sev: sev.ok_or_else(|| err("trace line missing sev"))?,
            kind: kind.ok_or_else(|| err("trace line missing kind"))?,
            fields,
        })
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A field as `u64`, if present and numeric.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.field(name).and_then(Json::as_u64)
    }

    /// A field as `&str`, if present and a string.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.field(name).and_then(Json::as_str)
    }
}

/// Shorthand for an unsigned integer field value.
pub fn u(value: u64) -> Json {
    Json::Int(value as i64)
}

/// Shorthand for a float field value.
pub fn f(value: f64) -> Json {
    Json::Float(value)
}

/// Shorthand for a string field value.
pub fn s(value: impl Into<String>) -> Json {
    Json::Str(value.into())
}

/// Where emitted events go. Sinks are driven under the tracer's
/// internal lock, so implementations need no synchronisation of their
/// own.
pub trait TraceSink {
    /// Records one event that passed the severity filter.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// A sink that appends JSONL lines to a file through a buffered writer.
pub struct JsonlSink {
    writer: std::io::BufWriter<std::fs::File>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            writer: std::io::BufWriter::new(file),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, event: &TraceEvent) {
        // A failed trace write must never take down the run.
        let _ = writeln!(self.writer, "{}", event.to_line());
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// An in-memory JSONL sink for tests: lines accumulate in a shared
/// string buffer.
pub struct MemorySink {
    buffer: Arc<Mutex<String>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink {
            buffer: Arc::new(Mutex::new(String::new())),
        }
    }

    /// The shared buffer; read it after the traced run completes.
    pub fn buffer(&self) -> Arc<Mutex<String>> {
        Arc::clone(&self.buffer)
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink::new()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        let mut buffer = self.buffer.lock().expect("not poisoned");
        buffer.push_str(&event.to_line());
        buffer.push('\n');
    }
}

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
struct TracerCore {
    min: Severity,
    origin: Instant,
    /// The sink, and the event every emission is written into before
    /// the sink sees it: its strings keep their capacity from one event
    /// to the next, so an event costs no allocation of its own.
    sink: Mutex<(Box<dyn TraceSink + Send>, TraceEvent)>,
}

/// A cheap, clonable handle for emitting [`TraceEvent`]s.
///
/// Clones share the same sink, so one tracer can be threaded through
/// clients, nodes and the manager of a single run. The default tracer
/// is disabled: every emission is a no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerCore>>,
}

impl Tracer {
    /// A tracer that drops every event.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer writing events at or above `min` severity to `sink`.
    ///
    /// With the `enabled` feature off this returns a disabled tracer
    /// and drops the sink.
    pub fn with_sink(sink: Box<dyn TraceSink + Send>, min: Severity) -> Tracer {
        #[cfg(feature = "enabled")]
        {
            Tracer {
                inner: Some(Arc::new(TracerCore {
                    min,
                    origin: Instant::now(),
                    sink: Mutex::new((
                        sink,
                        TraceEvent {
                            t_us: 0,
                            sev: Severity::Debug,
                            kind: String::new(),
                            fields: Vec::new(),
                        },
                    )),
                })),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (sink, min);
            Tracer::disabled()
        }
    }

    /// A tracer writing JSONL to the file at `path`.
    ///
    /// With the `enabled` feature off this returns a disabled tracer
    /// without touching the filesystem.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn jsonl(path: impl AsRef<Path>, min: Severity) -> std::io::Result<Tracer> {
        #[cfg(feature = "enabled")]
        {
            Ok(Tracer::with_sink(Box::new(JsonlSink::create(path)?), min))
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (path, min);
            Ok(Tracer::disabled())
        }
    }

    /// `true` if emissions can reach a sink (some may still be filtered
    /// by severity).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an event stamped with an explicit microsecond timestamp —
    /// the simulator's virtual clock. `fields` only runs when the event
    /// passes the filter.
    pub fn emit_at(
        &self,
        t_us: u64,
        sev: Severity,
        kind: &str,
        fields: impl FnOnce() -> Vec<(&'static str, Json)>,
    ) {
        #[cfg(feature = "enabled")]
        if let Some(core) = &self.inner {
            if sev >= core.min {
                let fields = fields();
                let mut guard = core.sink.lock().expect("not poisoned");
                let (sink, event) = &mut *guard;
                event.t_us = t_us;
                event.sev = sev;
                event.kind.clear();
                event.kind.push_str(kind);
                event.fields.truncate(fields.len());
                for (i, (key, value)) in fields.into_iter().enumerate() {
                    match event.fields.get_mut(i) {
                        Some(field) => {
                            field.0.clear();
                            field.0.push_str(key);
                            field.1 = value;
                        }
                        None => event.fields.push((key.to_string(), value)),
                    }
                }
                sink.record(event);
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (t_us, sev, kind, fields);
        }
    }

    /// Wall-clock microseconds since the tracer was created — the live
    /// runtime's clock. A disabled tracer stamps nothing and reads 0.
    pub fn now_us(&self) -> u64 {
        #[cfg(feature = "enabled")]
        if let Some(core) = &self.inner {
            return core.origin.elapsed().as_micros() as u64;
        }
        0
    }

    /// Emits an event stamped with [`Tracer::now_us`].
    pub fn emit(
        &self,
        sev: Severity,
        kind: &str,
        fields: impl FnOnce() -> Vec<(&'static str, Json)>,
    ) {
        self.emit_at(self.now_us(), sev, kind, fields);
    }

    /// Flushes the sink. Call before reading a trace file the run is
    /// still holding open.
    pub fn flush(&self) {
        #[cfg(feature = "enabled")]
        if let Some(core) = &self.inner {
            core.sink.lock().expect("not poisoned").0.flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(core) => f
                .debug_struct("Tracer")
                .field("min", &core.min)
                .finish_non_exhaustive(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(tracer: &Tracer, buffer: &Arc<Mutex<String>>) -> Vec<TraceEvent> {
        tracer.flush();
        buffer
            .lock()
            .unwrap()
            .lines()
            .map(|l| TraceEvent::parse_line(l).unwrap())
            .collect()
    }

    #[test]
    fn disabled_tracer_never_builds_fields() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit_at(0, Severity::Warn, "x", || {
            panic!("fields must not be built on a disabled tracer")
        });
        tracer.emit(Severity::Warn, "x", || {
            panic!("fields must not be built on a disabled tracer")
        });
    }

    #[test]
    fn severity_filter_is_lazy() {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Info);
        tracer.emit_at(5, Severity::Debug, "noisy", || {
            panic!("filtered events must not build fields")
        });
        tracer.emit_at(6, Severity::Warn, "kept", || vec![("n", u(1))]);
        let events = collect(&tracer, &buffer);
        #[cfg(feature = "enabled")]
        {
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].kind, "kept");
            assert_eq!(events[0].t_us, 6);
            assert_eq!(events[0].field_u64("n"), Some(1));
        }
        #[cfg(not(feature = "enabled"))]
        assert!(events.is_empty());
    }

    #[test]
    fn line_roundtrip_preserves_order_and_values() {
        let event = TraceEvent {
            t_us: 1_234,
            sev: Severity::Info,
            kind: "client.switch".into(),
            fields: vec![
                ("user".into(), u(3)),
                ("from".into(), u(1)),
                ("to".into(), u(4)),
                ("why".into(), s("better")),
            ],
        };
        let line = event.to_line();
        assert_eq!(
            line,
            "{\"t_us\":1234,\"sev\":\"info\",\"kind\":\"client.switch\",\
             \"user\":3,\"from\":1,\"to\":4,\"why\":\"better\"}"
        );
        assert_eq!(TraceEvent::parse_line(&line).unwrap(), event);
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = MemorySink::new();
        let buffer = sink.buffer();
        let tracer = Tracer::with_sink(Box::new(sink), Severity::Debug);
        let clone = tracer.clone();
        tracer.emit_at(1, Severity::Info, "a", Vec::new);
        clone.emit_at(2, Severity::Info, "b", Vec::new);
        let events = collect(&tracer, &buffer);
        #[cfg(feature = "enabled")]
        assert_eq!(
            events.iter().map(|e| e.kind.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        #[cfg(not(feature = "enabled"))]
        assert!(events.is_empty());
    }

    #[test]
    fn severity_parse_and_order() {
        assert!(Severity::Debug < Severity::Info && Severity::Info < Severity::Warn);
        for sev in [Severity::Debug, Severity::Info, Severity::Warn] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(Severity::parse("WARNING"), Some(Severity::Warn));
        assert_eq!(Severity::parse("trace"), None);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_feature_makes_constructors_inert() {
        let tracer = Tracer::with_sink(Box::new(MemorySink::new()), Severity::Debug);
        assert!(!tracer.is_enabled());
        let dir = std::env::temp_dir().join("armada_trace_disabled_feature");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("never_created.jsonl");
        let _ = std::fs::remove_file(&path);
        let tracer = Tracer::jsonl(&path, Severity::Debug).unwrap();
        assert!(!tracer.is_enabled());
        assert!(!path.exists(), "disabled tracer must not touch the fs");
    }
}
