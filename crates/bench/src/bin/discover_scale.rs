//! Discovery scale sweep: the snapshot engine's query latency as the
//! fleet grows from thousands to a million nodes.
//!
//! For every `--nodes` count the sweep builds one seeded fleet (~80%
//! clustered around world metros, ~20% uniform; mixed node classes and
//! loads; ~10% dead entries still occupying the spatial index), takes a
//! copy-on-write [`DiscoverySnapshot`](armada_manager::DiscoverySnapshot),
//! and serves `--queries` seeded discovery queries (`top_n = 16`) off
//! it, reporting:
//!
//! * **latency** (wall-clock µs, p50/p99/mean) and **queries/sec** of
//!   `snapshot.ranked` — the ring scan (incremental disk scan + bounded
//!   partial select) or the floored flat pass, per query, as the
//!   snapshot's density selector picks;
//! * **engine**: the share of the queries the selector sent to the flat
//!   pass rather than the ring scan.
//!
//! That the answers equal the reference oracle's on this fleet is a
//! test (`tests/discovery_equivalence.rs`), not a check of this binary.
//!
//! Defaults: `--nodes 1000,10000,100000,1000000 --queries 2000`.
//! Results land in `BENCH_discover_scale.json` with per-run
//! measurements under each run's `"extra"` object.

use std::time::Instant;

use armada_bench::{arg, list_arg, print_csv, print_table, trace_path, tracer_for, Rng};
use armada_json::Json;
use armada_manager::{CentralManager, Engine, GlobalSelectionPolicy};
use armada_metrics::{percentile, BenchReport};
use armada_node::NodeStatus;
use armada_trace::{f, u, Severity};
use armada_types::{GeoPoint, NodeClass, NodeId, SimTime, SystemConfig};

/// Candidate-list size for every discovery — the acceptance criterion's
/// `top_n = 16` working set.
const TOP_N: usize = 16;
/// Placement seed: identical fleets and query sets across reruns.
const SEED: u64 = 1717;

/// World metros the clustered 80% gathers around — the same spread the
/// differential suite uses, crossing hemispheres and the antimeridian.
const METROS: [(f64, f64); 6] = [
    (44.98, -93.26),  // Minneapolis
    (40.71, -74.00),  // New York
    (51.50, -0.12),   // London
    (35.68, 139.69),  // Tokyo
    (-33.87, 151.21), // Sydney
    (-17.71, 178.06), // Suva
];

fn node_class(r: u64) -> NodeClass {
    match r % 3 {
        0 => NodeClass::Volunteer,
        1 => NodeClass::Dedicated,
        _ => NodeClass::Cloud,
    }
}

/// Samples one node placement: ~80% clustered around a metro, the rest
/// uniform over the globe.
fn sample_location(rng: &mut Rng) -> GeoPoint {
    if rng.next_f64() < 0.8 {
        let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
        GeoPoint::new(lat, lon).offset_km(
            rng.next_f64() * 240.0 - 120.0,
            rng.next_f64() * 240.0 - 120.0,
        )
    } else {
        GeoPoint::new(
            rng.next_f64() * 170.0 - 85.0,
            rng.next_f64() * 360.0 - 180.0,
        )
    }
}

/// Builds the seeded fleet on a manager: register everything at t=0,
/// heartbeat ~90% at t=30 s, query at t=31 s — the silent 10% are dead
/// but still indexed. Returns the manager and the query instant.
fn build_manager(seed: u64, nodes: usize) -> (CentralManager, SimTime) {
    let mut rng = Rng::new(seed);
    let mut manager =
        CentralManager::new(SystemConfig::default(), GlobalSelectionPolicy::default());
    let mut statuses = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let status = NodeStatus {
            node: NodeId::new(i as u64),
            class: node_class(rng.next_u64()),
            location: sample_location(&mut rng),
            attached_users: rng.range(8) as usize,
            load_score: (rng.range(13) as f64) * 0.25,
        };
        manager.register(status, SimTime::ZERO);
        statuses.push(status);
    }
    let refresh = SimTime::from_secs(30);
    for status in &statuses {
        if rng.next_f64() < 0.9 {
            manager.heartbeat(*status, refresh);
        }
    }
    (manager, SimTime::from_secs(31))
}

/// The seeded query mix: near a metro half the time, anywhere
/// otherwise, each with 0–3 affiliated node ids.
fn build_queries(seed: u64, nodes: usize, count: usize) -> Vec<(GeoPoint, Vec<NodeId>)> {
    let mut rng = Rng::new(seed ^ 0xfeed_f00d);
    (0..count)
        .map(|_| {
            let loc = if rng.next_u64().is_multiple_of(2) {
                let (lat, lon) = METROS[rng.range(METROS.len() as u64) as usize];
                GeoPoint::new(lat, lon)
                    .offset_km(rng.next_f64() * 60.0 - 30.0, rng.next_f64() * 60.0 - 30.0)
            } else {
                GeoPoint::new(
                    rng.next_f64() * 170.0 - 85.0,
                    rng.next_f64() * 360.0 - 180.0,
                )
            };
            let affiliated = (0..rng.range(4) as usize)
                .map(|_| NodeId::new(rng.range(nodes as u64)))
                .collect();
            (loc, affiliated)
        })
        .collect()
}

/// What one `--nodes` sweep point measured.
struct Outcome {
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    build_ms: f64,
    /// Share of the queries the flat pass served.
    flat_share: f64,
}

fn run_for_nodes(nodes: usize, queries: usize) -> Outcome {
    let build_started = Instant::now();
    let (mut manager, now) = build_manager(SEED ^ nodes as u64, nodes);
    let snapshot = manager.published();
    let build_ms = build_started.elapsed().as_nanos() as f64 / 1_000_000.0;
    let query_set = build_queries(SEED ^ nodes as u64, nodes, queries);

    // Every query individually timed.
    let mut latencies_us = Vec::with_capacity(query_set.len());
    let started = Instant::now();
    for (loc, affiliated) in &query_set {
        let t = Instant::now();
        let ranked = snapshot.ranked(*loc, affiliated, TOP_N, now);
        latencies_us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
        std::hint::black_box(ranked);
    }
    let secs = started.elapsed().as_secs_f64();
    let flat = query_set
        .iter()
        .filter(|(loc, _)| snapshot.engine(*loc) == Engine::Flat)
        .count();

    Outcome {
        queries: query_set.len(),
        qps: query_set.len() as f64 / secs.max(f64::MIN_POSITIVE),
        p50_us: percentile(&latencies_us, 0.50).unwrap_or(0.0),
        p99_us: percentile(&latencies_us, 0.99).unwrap_or(0.0),
        mean_us: latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64,
        build_ms,
        flat_share: flat as f64 / query_set.len().max(1) as f64,
    }
}

fn main() {
    let node_counts = list_arg("--nodes", &[1_000, 10_000, 100_000, 1_000_000]);
    let queries = arg("--queries", 2_000);

    // A wall-clock latency microbenchmark: concurrent sweep points
    // would contend for cores and memory bandwidth and corrupt each
    // other's p50/p99, so the points always run serially.
    let mut report = BenchReport::start("discover_scale", 1);
    report.attach("top_n", Json::Int(TOP_N as i64));
    report.attach("queries_per_point", Json::Int(queries as i64));
    report.attach(
        "nodes_swept",
        Json::Array(node_counts.iter().map(|&n| Json::Int(n as i64)).collect()),
    );

    let mut rows = Vec::new();
    for &nodes in &node_counts {
        let outcome = run_for_nodes(nodes, queries);
        let label = format!("nodes={nodes}");
        // Under `ARMADA_TRACE`, each sweep point leaves one summary
        // event beside the report.
        let tracer = tracer_for("discover_scale", &label);
        tracer.emit(Severity::Info, "discover.sweep", || {
            vec![
                ("nodes", u(nodes as u64)),
                ("queries", u(outcome.queries as u64)),
                ("qps", f(outcome.qps)),
                ("p50_us", f(outcome.p50_us)),
                ("p99_us", f(outcome.p99_us)),
                ("flat_share", f(outcome.flat_share)),
            ]
        });
        tracer.flush();
        if let Some(path) = trace_path("discover_scale", &label) {
            report.record_trace(path.display().to_string());
        }
        report.record_with(
            label,
            0.0, // wall-clock microbenchmark: no virtual timeline
            outcome.queries as u64,
            vec![
                ("nodes".to_owned(), Json::Int(nodes as i64)),
                ("qps".to_owned(), Json::Float(outcome.qps)),
                ("p50_us".to_owned(), Json::Float(outcome.p50_us)),
                ("p99_us".to_owned(), Json::Float(outcome.p99_us)),
                ("mean_us".to_owned(), Json::Float(outcome.mean_us)),
                ("build_ms".to_owned(), Json::Float(outcome.build_ms)),
                ("flat_share".to_owned(), Json::Float(outcome.flat_share)),
            ],
        );
        rows.push(vec![
            nodes.to_string(),
            outcome.queries.to_string(),
            format!("{:.0}", outcome.qps),
            format!("{:.1}", outcome.p50_us),
            format!("{:.1}", outcome.p99_us),
            format!("{:.1}", outcome.mean_us),
            format!("{:.0}", outcome.build_ms),
            format!("flat {:.0}%", 100.0 * outcome.flat_share),
        ]);
    }

    let header = [
        "nodes", "queries", "qps", "p50_us", "p99_us", "mean_us", "build_ms", "engine",
    ];
    print_table("Discovery scale sweep (top_n=16)", &header, &rows);
    print_csv("discover_scale", &header, &rows);

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}
