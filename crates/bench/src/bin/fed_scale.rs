//! Federation scale sweep: how sharding the manager tier behaves as the
//! user population grows.
//!
//! For every `(users, shards)` pair the sweep drives a
//! [`FederatedCluster`] directly through a 60-virtual-second
//! control-plane timeline — registrations, periodic heartbeats,
//! off-grid sync rounds — then issues one discovery per user and
//! reports:
//!
//! * **per-shard registry load** (registrations + heartbeats): with K
//!   shards each one should carry ≈ 1/K of the single-manager total;
//! * **discovery latency** (wall-clock µs, mean and p99) of the
//!   merged-view ranking;
//! * **selection quality vs K=1**: the fraction of users whose top-1
//!   candidate matches the single-manager baseline. With every shard up
//!   and synced this is 1.0 — the federated equivalence claim
//!   (`tests/federation_equivalence.rs` proves it end-to-end in the
//!   simulator).
//!
//! This binary *asserts* its contract (nonzero exit on regression): at
//! every point the top-1 match rate is exactly 1.0, the shards'
//! registry operations sum to the single manager's — sharding moves
//! the load, it neither loses nor duplicates a write — and each shard
//! carries whole nodes (a node's registration and all its heartbeats
//! land on one shard).
//!
//! Sweep points come from `--users 1000,5000,20000,50000` and
//! `--shards 1,2,4,8` (the defaults; CI smoke-runs
//! `--users 200 --shards 1,2`). K=1 always runs — it is the baseline
//! the match rate is measured against. Results land in
//! `BENCH_fed_scale.json` with the per-run measurements under each
//! run's `"extra"` object.

use std::time::Instant;

use armada_bench::{list_arg, print_csv, print_table, trace_path, tracer_for, Harness, Rng};
use armada_federation::{FederatedCluster, ShardMap};
use armada_json::Json;
use armada_manager::GlobalSelectionPolicy;
use armada_metrics::{mean, percentile, BenchReport};
use armada_node::NodeStatus;
use armada_trace::{f, u, Severity};
use armada_types::{GeoPoint, NodeClass, NodeId, SimTime, SystemConfig};

/// Candidate-list size for every discovery (the paper's default TopN).
const TOP_N: usize = 3;
/// Virtual length of the control-plane timeline.
const DURATION_S: u64 = 60;
/// Heartbeat period, matching `SystemConfig::default`.
const HEARTBEAT_S: u64 = 2;
/// Placement seed: identical node/user layouts across every K.
const SEED: u64 = 4242;
/// Registry operations one node causes over the timeline: its
/// registration and every heartbeat.
const OPS_PER_NODE: u64 = 1 + DURATION_S / HEARTBEAT_S;

/// A point in a continental-US-sized box.
fn point(rng: &mut Rng) -> GeoPoint {
    let lat = 25.0 + rng.next_f64() * 24.0;
    let lon = -124.0 + rng.next_f64() * 57.0;
    GeoPoint::new(lat, lon)
}

/// What one `(users, shards)` run measured.
struct Outcome {
    shards: usize,
    top1: Vec<Option<NodeId>>,
    per_shard_ops: Vec<u64>,
    discover_mean_us: f64,
    discover_p99_us: f64,
    summaries_sent: u64,
}

fn run_for_k(k: usize, nodes: &[NodeStatus], users: &[GeoPoint]) -> Outcome {
    let mut points: Vec<GeoPoint> = nodes.iter().map(|n| n.location).collect();
    points.extend_from_slice(users);
    let map = ShardMap::partition(&points, k);
    let mut cluster = FederatedCluster::new(
        map,
        SystemConfig::default(),
        GlobalSelectionPolicy::default(),
    );

    for node in nodes {
        cluster.register(*node, SimTime::ZERO);
    }
    // Heartbeats on the period grid, sync rounds 500 µs off-grid — the
    // same phase discipline the simulator uses.
    for step in 1..=(DURATION_S / HEARTBEAT_S) {
        let at = SimTime::from_secs(step * HEARTBEAT_S);
        for node in nodes {
            cluster.heartbeat(*node, at);
        }
        cluster.sync_round(SimTime::from_micros(at.as_micros() + 500));
    }

    let now = SimTime::from_secs(DURATION_S);
    let mut top1 = Vec::with_capacity(users.len());
    let mut latencies_us: Vec<f64> = Vec::with_capacity(users.len());
    for &loc in users {
        let started = Instant::now();
        let routed = cluster
            .discover(loc, &[], TOP_N, now)
            .expect("every shard is up");
        latencies_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
        top1.push(routed.candidates.first().copied());
    }

    let per_shard_ops: Vec<u64> = cluster
        .shards()
        .iter()
        .map(|s| s.counters().registry_ops())
        .collect();
    let summaries_sent = cluster
        .shards()
        .iter()
        .map(|s| s.counters().summaries_sent)
        .sum();
    Outcome {
        shards: k,
        top1,
        per_shard_ops,
        discover_mean_us: mean(&latencies_us).unwrap_or(0.0),
        discover_p99_us: percentile(&latencies_us, 0.99).unwrap_or(0.0),
        summaries_sent,
    }
}

fn main() {
    let harness = Harness::from_env();
    let user_counts = list_arg("--users", &[1_000, 5_000, 20_000, 50_000]);
    let mut shard_counts = list_arg("--shards", &[1, 2, 4, 8]);
    // K=1 is the comparison baseline; it runs even when not requested,
    // but only requested values are reported.
    let report_k1 = shard_counts.contains(&1);
    if !report_k1 {
        shard_counts.insert(0, 1);
    }
    shard_counts.sort_unstable();
    shard_counts.dedup();

    let mut report = BenchReport::start("fed_scale", harness.threads());
    report.attach("top_n", Json::Int(TOP_N as i64));
    report.attach(
        "shards_swept",
        Json::Array(shard_counts.iter().map(|&k| Json::Int(k as i64)).collect()),
    );

    // One harness unit per user count: the K sweep for a population is
    // sequential because every K compares against that population's
    // K=1 baseline.
    let shard_list = shard_counts.clone();
    let outcomes = harness.run(user_counts.clone(), move |users| {
        let mut rng = Rng(SEED ^ users as u64);
        let node_count = (users / 50).clamp(20, 400);
        let nodes: Vec<NodeStatus> = (0..node_count)
            .map(|i| NodeStatus {
                node: NodeId::new(i as u64),
                class: NodeClass::Volunteer,
                location: point(&mut rng),
                attached_users: 0,
                load_score: rng.next_f64(),
            })
            .collect();
        let user_locs: Vec<GeoPoint> = (0..users).map(|_| point(&mut rng)).collect();
        shard_list
            .iter()
            .map(|&k| run_for_k(k, &nodes, &user_locs))
            .collect::<Vec<Outcome>>()
    });

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut broken: Vec<String> = Vec::new();
    for (&users, sweep) in user_counts.iter().zip(&outcomes) {
        let baseline = &sweep[0];
        assert_eq!(baseline.shards, 1, "K=1 runs first");
        let single_ops = baseline.per_shard_ops[0];
        for outcome in sweep {
            if outcome.shards == 1 && !report_k1 {
                continue;
            }
            let matches = outcome
                .top1
                .iter()
                .zip(&baseline.top1)
                .filter(|(a, b)| a == b)
                .count();
            let match_rate = matches as f64 / outcome.top1.len().max(1) as f64;
            let total_ops: u64 = outcome.per_shard_ops.iter().sum();
            let max_ops = *outcome.per_shard_ops.iter().max().expect("k >= 1");
            let mean_ops = total_ops as f64 / outcome.per_shard_ops.len() as f64;

            let label = format!("users={users}/k={}", outcome.shards);
            if match_rate != 1.0 {
                broken.push(format!("{label}: top-1 match rate {match_rate} vs K=1"));
            }
            if total_ops != single_ops {
                broken.push(format!(
                    "{label}: shards handled {total_ops} registry ops, K=1 {single_ops}"
                ));
            }
            if outcome
                .per_shard_ops
                .iter()
                .any(|ops| ops % OPS_PER_NODE != 0)
            {
                broken.push(format!(
                    "{label}: a node's {OPS_PER_NODE} ops are split across shards: {:?}",
                    outcome.per_shard_ops
                ));
            }
            // Under `ARMADA_TRACE`, each sweep point leaves one summary
            // event so CI can archive the sweep alongside the report.
            let tracer = tracer_for("fed_scale", &label);
            tracer.emit(Severity::Info, "fed.sweep", || {
                vec![
                    ("users", u(users as u64)),
                    ("shards", u(outcome.shards as u64)),
                    ("registry_ops_total", u(total_ops)),
                    ("registry_ops_per_shard_max", u(max_ops)),
                    ("discover_mean_us", f(outcome.discover_mean_us)),
                    ("discover_p99_us", f(outcome.discover_p99_us)),
                    ("top1_match_rate", f(match_rate)),
                ]
            });
            tracer.flush();
            if let Some(path) = trace_path("fed_scale", &label) {
                report.record_trace(path.display().to_string());
            }
            report.record_with(
                label,
                DURATION_S as f64,
                outcome.top1.len() as u64,
                vec![
                    ("shards".to_owned(), Json::Int(outcome.shards as i64)),
                    ("registry_ops_total".to_owned(), Json::Int(total_ops as i64)),
                    (
                        "registry_ops_per_shard_mean".to_owned(),
                        Json::Float(mean_ops),
                    ),
                    (
                        "registry_ops_per_shard_max".to_owned(),
                        Json::Int(max_ops as i64),
                    ),
                    (
                        "discover_mean_us".to_owned(),
                        Json::Float(outcome.discover_mean_us),
                    ),
                    (
                        "discover_p99_us".to_owned(),
                        Json::Float(outcome.discover_p99_us),
                    ),
                    ("top1_match_rate".to_owned(), Json::Float(match_rate)),
                    (
                        "sync_summaries_sent".to_owned(),
                        Json::Int(outcome.summaries_sent as i64),
                    ),
                ],
            );
            let row = vec![
                users.to_string(),
                outcome.shards.to_string(),
                total_ops.to_string(),
                format!("{mean_ops:.0}"),
                max_ops.to_string(),
                format!("{:.1}", outcome.discover_mean_us),
                format!("{:.1}", outcome.discover_p99_us),
                format!("{match_rate:.3}"),
            ];
            csv.push(row.clone());
            rows.push(row);
        }
    }

    let header = [
        "users",
        "shards",
        "registry_ops",
        "ops/shard(mean)",
        "ops/shard(max)",
        "discover_mean_us",
        "discover_p99_us",
        "top1_match_vs_k1",
    ];
    print_table("Federation scale sweep", &header, &rows);
    print_csv("fed_scale", &header, &csv);

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
    if !broken.is_empty() {
        for line in &broken {
            eprintln!("FAIL {line}");
        }
        std::process::exit(1);
    }
}
