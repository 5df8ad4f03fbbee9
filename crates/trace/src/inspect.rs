//! Trace analysis: turns a captured JSONL event stream back into the
//! protocol facts the figures are about — who switched where and when,
//! how long probe rounds took, and how much downtime a failover cost.
//!
//! Every kind a trace may hold is listed in [`KINDS`]; the fields of
//! one are documented where it is written, at its role's narrator.

use std::collections::{BTreeSet, HashMap};

use crate::{TraceEvent, KINDS};

/// Parses a whole JSONL trace (one event per non-empty line).
///
/// # Errors
///
/// Fails on the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, armada_json::JsonError> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(TraceEvent::parse_line)
        .collect()
}

/// Event counts by kind, most frequent first (ties by name).
pub fn kind_histogram(events: &[TraceEvent]) -> Vec<(String, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for event in events {
        *counts.entry(&event.kind).or_default() += 1;
    }
    let mut histogram: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(k, n)| (k.to_string(), n))
        .collect();
    histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    histogram
}

/// The kinds in `events` that [`KINDS`] does not list, sorted, each once.
pub fn unknown_kinds(events: &[TraceEvent]) -> Vec<String> {
    let seen: BTreeSet<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    seen.into_iter()
        .filter(|kind| !KINDS.iter().any(|(known, _)| known == kind))
        .map(String::from)
        .collect()
}

/// One serving-node change for one user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchRecord {
    /// When the change happened.
    pub t_us: u64,
    /// The user that moved.
    pub user: u64,
    /// Previous serving node (`None` for the initial join).
    pub from: Option<u64>,
    /// New serving node.
    pub to: u64,
    /// `join`, `switch` or `failover`.
    pub cause: &'static str,
}

/// Every serving-node change, in time order: initial joins
/// (`client.join`), voluntary switches (`client.switch`) and failovers
/// (`client.failover` with a `target`).
pub fn switch_timeline(events: &[TraceEvent]) -> Vec<SwitchRecord> {
    let mut timeline = Vec::new();
    for event in events {
        let record = match event.kind.as_str() {
            "client.join" => Some(SwitchRecord {
                t_us: event.t_us,
                user: event.field_u64("user").unwrap_or(u64::MAX),
                from: None,
                to: event.field_u64("node").unwrap_or(u64::MAX),
                cause: "join",
            }),
            "client.switch" => Some(SwitchRecord {
                t_us: event.t_us,
                user: event.field_u64("user").unwrap_or(u64::MAX),
                from: event.field_u64("from"),
                to: event.field_u64("to").unwrap_or(u64::MAX),
                cause: "switch",
            }),
            "client.failover" => event.field_u64("target").map(|to| SwitchRecord {
                t_us: event.t_us,
                user: event.field_u64("user").unwrap_or(u64::MAX),
                from: event.field_u64("from"),
                to,
                cause: "failover",
            }),
            _ => None,
        };
        timeline.extend(record);
    }
    timeline
}

/// Aggregate probe-round latency statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeRoundStats {
    /// Rounds started (`probe.round.start` events).
    pub started: usize,
    /// Rounds concluded with a matching start event.
    pub concluded: usize,
    /// Mean start→conclusion latency over concluded rounds, µs.
    pub mean_us: f64,
    /// Worst start→conclusion latency, µs.
    pub max_us: u64,
    /// Conclusion decisions by name (`stay`, `join`, `rediscover`, …).
    pub decisions: Vec<(String, usize)>,
}

/// Matches `probe.round.start` / `probe.round.done` pairs by
/// `(user, round)` and summarises how long rounds took and how they
/// concluded.
pub fn probe_round_breakdown(events: &[TraceEvent]) -> ProbeRoundStats {
    let mut open: HashMap<(u64, u64), u64> = HashMap::new();
    let mut stats = ProbeRoundStats::default();
    let mut decisions: HashMap<String, usize> = HashMap::new();
    let mut total_us = 0u64;
    for event in events {
        let key = || -> Option<(u64, u64)> {
            Some((event.field_u64("user")?, event.field_u64("round")?))
        };
        match event.kind.as_str() {
            "probe.round.start" => {
                stats.started += 1;
                if let Some(key) = key() {
                    open.insert(key, event.t_us);
                }
            }
            "probe.round.done" => {
                let Some(started_at) = key().and_then(|k| open.remove(&k)) else {
                    continue;
                };
                let elapsed = event.t_us.saturating_sub(started_at);
                stats.concluded += 1;
                total_us += elapsed;
                stats.max_us = stats.max_us.max(elapsed);
                let decision = event.field_str("decision").unwrap_or("unknown");
                *decisions.entry(decision.to_string()).or_default() += 1;
            }
            _ => {}
        }
    }
    if stats.concluded > 0 {
        stats.mean_us = total_us as f64 / stats.concluded as f64;
    }
    stats.decisions = decisions.into_iter().collect();
    stats
        .decisions
        .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    stats
}

/// The service gap one user observed around one serving-node failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowntimeRecord {
    /// The affected user.
    pub user: u64,
    /// When the failure was noticed (`client.failure`).
    pub failure_t_us: u64,
    /// Last completed frame before the failure, if any.
    pub last_frame_us: Option<u64>,
    /// First completed frame after the failure, if any.
    pub resumed_us: Option<u64>,
}

impl DowntimeRecord {
    /// The observed downtime: gap between the last frame before the
    /// failure and the first frame after it. `None` if service never
    /// resumed in the trace.
    pub fn gap_us(&self) -> Option<u64> {
        let resumed = self.resumed_us?;
        Some(resumed.saturating_sub(self.last_frame_us.unwrap_or(self.failure_t_us)))
    }
}

/// Extracts, for every `client.failure` event, the frame-level service
/// gap around it (from `frame.done` events of the same user) — the
/// quantity Fig. 4 plots as failover downtime.
pub fn failover_downtime(events: &[TraceEvent]) -> Vec<DowntimeRecord> {
    let mut records = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if event.kind != "client.failure" {
            continue;
        }
        let Some(user) = event.field_u64("user") else {
            continue;
        };
        let frame_of = |e: &TraceEvent| e.kind == "frame.done" && e.field_u64("user") == Some(user);
        let last_frame_us = events[..i]
            .iter()
            .rev()
            .find(|e| frame_of(e))
            .map(|e| e.t_us);
        let resumed_us = events[i..].iter().find(|e| frame_of(e)).map(|e| e.t_us);
        records.push(DowntimeRecord {
            user,
            failure_t_us: event.t_us,
            last_frame_us,
            resumed_us,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{s, u, Severity};

    fn event(t_us: u64, kind: &str, fields: Vec<(&str, armada_json::Json)>) -> TraceEvent {
        TraceEvent {
            t_us,
            sev: Severity::Info,
            kind: kind.into(),
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }

    #[test]
    fn parse_jsonl_skips_blank_lines() {
        let text = "{\"t_us\":1,\"sev\":\"info\",\"kind\":\"a\"}\n\n\
                    {\"t_us\":2,\"sev\":\"warn\",\"kind\":\"b\",\"user\":5}\n";
        let events = parse_jsonl(text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].field_u64("user"), Some(5));
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn histogram_orders_by_count_then_name() {
        let events = vec![
            event(1, "b", vec![]),
            event(2, "a", vec![]),
            event(3, "b", vec![]),
            event(4, "c", vec![]),
        ];
        assert_eq!(
            kind_histogram(&events),
            vec![("b".into(), 2), ("a".into(), 1), ("c".into(), 1)]
        );
    }

    #[test]
    fn unknown_kinds_names_each_unlisted_kind_once() {
        let events = vec![
            event(1, "client.join", vec![]),
            event(2, "node.joined", vec![]),
            event(3, "fed.sync", vec![]),
            event(4, "node.joined", vec![]),
            event(5, "a", vec![]),
        ];
        assert_eq!(unknown_kinds(&events), ["a", "node.joined"]);
        assert!(unknown_kinds(&events[..1]).is_empty());
    }

    #[test]
    fn switch_timeline_covers_joins_switches_and_failovers() {
        let events = vec![
            event(10, "client.join", vec![("user", u(1)), ("node", u(3))]),
            event(
                20,
                "client.switch",
                vec![("user", u(1)), ("from", u(3)), ("to", u(4))],
            ),
            // A rediscovering failover has no target: not a switch yet.
            event(
                25,
                "client.failover",
                vec![("user", u(2)), ("action", s("rediscover"))],
            ),
            event(
                30,
                "client.failover",
                vec![
                    ("user", u(1)),
                    ("action", s("backup")),
                    ("from", u(4)),
                    ("target", u(5)),
                ],
            ),
        ];
        let timeline = switch_timeline(&events);
        assert_eq!(timeline.len(), 3);
        assert_eq!(timeline[0].cause, "join");
        assert_eq!(timeline[0].from, None);
        assert_eq!(
            timeline[1],
            SwitchRecord {
                t_us: 20,
                user: 1,
                from: Some(3),
                to: 4,
                cause: "switch",
            }
        );
        assert_eq!(timeline[2].cause, "failover");
        assert_eq!(timeline[2].to, 5);
    }

    #[test]
    fn probe_rounds_match_by_user_and_round() {
        let events = vec![
            event(
                0,
                "probe.round.start",
                vec![("user", u(1)), ("round", u(1)), ("candidates", u(3))],
            ),
            event(
                100,
                "probe.round.start",
                vec![("user", u(2)), ("round", u(2)), ("candidates", u(3))],
            ),
            event(
                50_000,
                "probe.round.done",
                vec![("user", u(1)), ("round", u(1)), ("decision", s("join"))],
            ),
            event(
                130_100,
                "probe.round.done",
                vec![("user", u(2)), ("round", u(2)), ("decision", s("stay"))],
            ),
            // A done without a start (e.g. truncated trace) is ignored.
            event(
                200_000,
                "probe.round.done",
                vec![("user", u(9)), ("round", u(9)), ("decision", s("stay"))],
            ),
        ];
        let stats = probe_round_breakdown(&events);
        assert_eq!(stats.started, 2);
        assert_eq!(stats.concluded, 2);
        assert_eq!(stats.max_us, 130_000);
        assert!((stats.mean_us - 90_000.0).abs() < 1e-9);
        assert_eq!(
            stats.decisions,
            vec![("join".into(), 1), ("stay".into(), 1)]
        );
    }

    #[test]
    fn downtime_is_the_frame_gap_around_the_failure() {
        let frame = |t, user| event(t, "frame.done", vec![("user", u(user))]);
        let events = vec![
            frame(1_000, 1),
            frame(2_000, 1),
            frame(2_500, 2), // other user's frames are ignored
            event(3_000, "client.failure", vec![("user", u(1))]),
            frame(3_500, 2),
            frame(9_000, 1),
        ];
        let records = failover_downtime(&events);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!((r.user, r.failure_t_us), (1, 3_000));
        assert_eq!(r.last_frame_us, Some(2_000));
        assert_eq!(r.resumed_us, Some(9_000));
        assert_eq!(r.gap_us(), Some(7_000));
    }

    #[test]
    fn downtime_without_resumption_has_no_gap() {
        let events = vec![
            event(3_000, "client.failure", vec![("user", u(1))]),
            event(4_000, "frame.done", vec![("user", u(2))]),
        ];
        let records = failover_downtime(&events);
        assert_eq!(records[0].gap_us(), None);
    }
}
