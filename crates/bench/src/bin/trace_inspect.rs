//! Inspects structured-event traces (`TRACE_*.jsonl`, captured by the
//! experiment binaries when `ARMADA_TRACE` is set — see `EXPERIMENTS.md`
//! §Tracing).
//!
//! For each trace file given on the command line, prints:
//!
//! - an event-kind histogram,
//! - the per-user switch timeline (joins, voluntary switches,
//!   failovers),
//! - the probe-round latency breakdown (start→conclusion, decisions),
//! - the failover downtime around every observed serving-node failure —
//!   the quantity Fig. 4 plots as the service gap,
//!
//! and exits 1 if any file holds a kind `armada_trace::KINDS` does not
//! list (printed with the file's name).
//!
//! ```text
//! cargo run --release -p armada-bench --bin trace_inspect -- \
//!     traces/TRACE_fig4_failover_trace_proactive.jsonl
//! ```

use armada_bench::print_table;
use armada_trace::inspect::{
    failover_downtime, kind_histogram, parse_jsonl, probe_round_breakdown, switch_timeline,
    unknown_kinds,
};

fn inspect_one(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = parse_jsonl(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    println!("\n### {path} — {} events", events.len());

    let histogram: Vec<Vec<String>> = kind_histogram(&events)
        .into_iter()
        .map(|(kind, count)| vec![kind, count.to_string()])
        .collect();
    print_table("event kinds", &["kind", "count"], &histogram);

    let timeline: Vec<Vec<String>> = switch_timeline(&events)
        .into_iter()
        .map(|r| {
            vec![
                format!("{:.3}", r.t_us as f64 / 1e6),
                r.user.to_string(),
                r.from.map_or_else(|| "-".into(), |n| n.to_string()),
                r.to.to_string(),
                r.cause.to_string(),
            ]
        })
        .collect();
    print_table(
        "switch timeline",
        &["time_s", "user", "from", "to", "cause"],
        &timeline,
    );

    let probes = probe_round_breakdown(&events);
    let decisions = probes
        .decisions
        .iter()
        .map(|(name, count)| format!("{name}:{count}"))
        .collect::<Vec<_>>()
        .join(" ");
    print_table(
        "probe rounds",
        &["started", "concluded", "mean_ms", "max_ms", "decisions"],
        &[vec![
            probes.started.to_string(),
            probes.concluded.to_string(),
            format!("{:.2}", probes.mean_us / 1e3),
            format!("{:.2}", probes.max_us as f64 / 1e3),
            decisions,
        ]],
    );

    let downtime: Vec<Vec<String>> = failover_downtime(&events)
        .into_iter()
        .map(|r| {
            vec![
                r.user.to_string(),
                format!("{:.3}", r.failure_t_us as f64 / 1e6),
                r.gap_us().map_or_else(
                    || "never resumed".into(),
                    |g| format!("{:.1}", g as f64 / 1e3),
                ),
            ]
        })
        .collect();
    print_table(
        "failover downtime",
        &["user", "failure_at_s", "gap_ms"],
        &downtime,
    );

    let unknown = unknown_kinds(&events);
    if !unknown.is_empty() {
        return Err(format!(
            "{path}: kinds not in KINDS: {}",
            unknown.join(", ")
        ));
    }
    Ok(())
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_inspect <TRACE_*.jsonl>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        if let Err(message) = inspect_one(path) {
            eprintln!("{message}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
