//! The benchmark's span recorder: name, start, end and parent, held in
//! memory and written out as JSONL when the run ends.
//!
//! Spans are recorded here, around the calls into each crate's public
//! functions; spans inside the programs are a later change. Where one
//! public call hides its stages (`LiveClient::run_session`), the
//! stages are rebuilt from the `armada-trace` events the client
//! already emits, captured by [`StageSink`] in the traced run only.

use std::io::Write;
use std::sync::{Arc, Mutex};

use armada_json::Json;
use armada_trace::{TraceEvent, TraceSink};

/// Spans kept per recorder; later ones are counted and dropped so a
/// long traced run cannot grow without bound.
const MAX_SPANS: usize = 400_000;

/// One recorded interval. `parent` is an index into the same recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span list. A disabled recorder records nothing, so the
/// untraced rounds of a traced run pay one branch per call.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a closed span and returns its index for children to
    /// name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover. One pass, children charged to their parent.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for child in &self.spans {
            if let Some(p) = child.parent {
                let parent = &self.spans[p];
                covered[p] += child
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(child.start_ns.max(parent.start_ns));
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per span name, in first-seen order: how many, their total
    /// duration and their total self time, µs.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let total_us = (span.end_ns - span.start_ns) as f64 / 1e3;
            let self_us = self_ns as f64 / 1e3;
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total_us;
                    row.3 += self_us;
                }
                None => rows.push((span.name, 1, total_us, self_us)),
            }
        }
        rows
    }

    /// Moves another recorder's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span: `id`, `parent` (or null),
    /// `name`, `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::object(vec![
                ("id", Json::Int(id as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", armada_json::to_string(&line))?;
        }
        if self.dropped > 0 {
            let line = Json::object(vec![("dropped_spans", Json::Int(self.dropped as i64))]);
            writeln!(out, "{}", armada_json::to_string(&line))?;
        }
        out.flush()
    }
}

/// The client events that delimit a session's stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The benchmark's own marker, emitted through the same tracer
    /// just before the session call so both share a clock.
    Start,
    ProbeStart,
    ProbeDone,
    Join,
    FrameDone,
}

/// A trace sink that keeps `(time, stage)` for the events the stage
/// split needs and counts the rest — no JSON is rendered, so the
/// traced run measures the emission sites rather than a formatter.
#[derive(Clone, Default)]
pub struct StageSink {
    inner: Arc<Mutex<StageLog>>,
}

#[derive(Debug, Default)]
pub struct StageLog {
    /// Microseconds on the tracer's clock.
    pub events: Vec<(u64, Stage)>,
    pub other_events: u64,
}

impl StageSink {
    /// Takes what was logged since the last call.
    pub fn drain(&self) -> StageLog {
        std::mem::take(&mut *self.inner.lock().expect("stage log lock"))
    }
}

impl TraceSink for StageSink {
    fn record(&mut self, event: &TraceEvent) {
        let stage = match event.kind.as_str() {
            "perf.session.start" => Some(Stage::Start),
            "probe.round.start" => Some(Stage::ProbeStart),
            "probe.round.done" => Some(Stage::ProbeDone),
            "client.join" => Some(Stage::Join),
            "frame.done" => Some(Stage::FrameDone),
            _ => None,
        };
        let mut log = self.inner.lock().expect("stage log lock");
        match stage {
            Some(s) => log.events.push((event.t_us, s)),
            None => log.other_events += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(true);
        let root = s.record("session", 0, 1_000, None);
        s.record("discover", 100, 300, root);
        s.record("probe_round", 300, 700, root);
        let join = s.record("join", 700, 800, root);
        s.record("not-a-child", 0, 1_000, join);
        assert_eq!(s.self_times_ns(), vec![300, 200, 400, 0, 1_000]);
        let summary = s.summary();
        assert_eq!(summary[0], ("session", 1, 1.0, 0.3));
        assert_eq!(summary[2], ("probe_round", 1, 0.4, 0.4));
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_absorb_rebases_parents() {
        let mut off = Spans::new(false);
        assert_eq!(off.record("x", 0, 1, None), None);
        assert!(off.spans().is_empty());

        let mut a = Spans::new(true);
        a.record("a", 0, 10, None);
        let mut b = Spans::new(true);
        let root = b.record("b", 0, 10, None);
        b.record("b.child", 1, 2, root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times_ns()[1], 9);
    }
}
