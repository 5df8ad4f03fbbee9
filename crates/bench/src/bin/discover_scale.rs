//! Discovery scale sweep: fast snapshot engine vs the reference oracle
//! as the fleet grows from thousands to a million nodes.
//!
//! For every `--nodes` count the sweep builds one seeded fleet (~80%
//! clustered around world metros, ~20% uniform; mixed node classes and
//! loads; ~10% dead entries still occupying the spatial index), takes a
//! copy-on-write [`DiscoverySnapshot`], and serves `--queries` seeded
//! discovery queries (`top_n = 16`) off it, reporting:
//!
//! * **fast-path latency** (wall-clock µs, p50/p99/mean) and
//!   **queries/sec** of `snapshot.ranked` — the ring scan (incremental
//!   disk scan + bounded partial select) or the floored flat pass, per
//!   query, as the snapshot's density selector picks;
//! * **reference throughput** of the retained full-scan oracle
//!   (`reference::widen_and_rank`) on a budget-capped prefix of the same
//!   query set, and the resulting **speedup**;
//! * **oracle identity**: every reference query is `assert_eq!`-compared
//!   against the fast answer, so any divergence aborts the run with a
//!   nonzero exit — CI smoke-runs this binary exactly for that check;
//! * **engine**: the share of the queries the snapshot's density
//!   selector sent to the flat pass rather than the ring scan.
//!
//! After the read-only sweep, each `--nodes` point runs a **mixed
//! mutate+query phase**: one mutator thread keeps churning the live
//! manager (~80% heartbeats, ~10% registers, ~10% departures, periodic
//! prunes) and republishes the per-epoch snapshot after every batch,
//! while `ARMADA_BENCH_THREADS` worker threads serve seeded discovery
//! queries off whichever snapshot is currently published. Mutation,
//! publish, and query latencies are all measured; sampled snapshots are
//! then replayed against the reference oracle (`assert_eq!` — any
//! mismatch aborts). `--assert-min-qps N` makes the run fail unless the
//! mixed phase sustained at least `N` queries/sec, which is the CI
//! smoke gate.
//!
//! Defaults: `--nodes 1000,10000,100000,1000000 --queries 2000
//! --mixed-ms 3000`. CI smoke-runs `--nodes 2000,20000 --queries 300`
//! with a qps floor. Results land in `BENCH_discover_scale.json` with
//! per-run measurements under each run's `"extra"` object.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use armada_bench::{arg, list_arg, print_csv, print_table, trace_path, tracer_for, Harness, Rng};
use armada_json::Json;
use armada_manager::{CentralManager, DiscoverySnapshot, Engine, GlobalSelectionPolicy};
use armada_metrics::{percentile, BenchReport};
use armada_node::NodeStatus;
use armada_trace::{f, u, Severity};
use armada_types::{GeoPoint, NodeClass, NodeId, SimDuration, SimTime, SystemConfig};

/// Candidate-list size for every discovery — the acceptance criterion's
/// `top_n = 16` working set.
const TOP_N: usize = 16;
/// Placement seed: identical fleets and query sets across reruns.
const SEED: u64 = 1717;
/// Reference-oracle work budget per sweep point, in roughly
/// `nodes × queries` units: the oracle re-scans the registry every
/// query, so the measured prefix shrinks as the fleet grows.
const REFERENCE_OP_BUDGET: u64 = 40_000_000;
/// Never judge the oracle (or the identity check) on fewer than this
/// many queries, however large the fleet.
const REFERENCE_MIN_QUERIES: usize = 16;

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

/// Builds the seeded fleet on a live manager: register everything at
/// t=0, heartbeat ~90% at t=30 s, query at t=31 s — the silent 10% are
/// dead but still indexed. Returns the manager, the per-node statuses
/// (the mixed phase mutates from them), and the query instant.
fn build_manager(seed: u64, nodes: usize) -> (CentralManager, Vec<NodeStatus>, SimTime) {
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
    (manager, statuses, SimTime::from_secs(31))
}

/// One seeded query: near a metro half the time, anywhere otherwise,
/// with 0–3 affiliated node ids.
fn one_query(rng: &mut Rng, nodes: usize) -> (GeoPoint, Vec<NodeId>) {
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
}

/// The seeded query mix for the read-only sweep.
fn build_queries(seed: u64, nodes: usize, count: usize) -> Vec<(GeoPoint, Vec<NodeId>)> {
    let mut rng = Rng::new(seed ^ 0xfeed_f00d);
    (0..count).map(|_| one_query(&mut rng, nodes)).collect()
}

/// What one `--nodes` sweep point measured.
struct Outcome {
    nodes: usize,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    ref_queries: usize,
    ref_qps: f64,
    ref_p99_us: f64,
    speedup: f64,
    build_ms: f64,
    /// Share of the queries the flat pass served.
    flat_share: f64,
}

fn run_for_nodes(nodes: usize, queries: usize, mixed: &MixedParams) -> (Outcome, MixedOutcome) {
    let build_started = Instant::now();
    let (mut manager, statuses, now) = build_manager(SEED ^ nodes as u64, nodes);
    let snapshot = manager.published();
    let build_ms = build_started.elapsed().as_nanos() as f64 / 1_000_000.0;
    let query_set = build_queries(SEED ^ nodes as u64, nodes, queries);

    // Fast path: every query, individually timed.
    let mut fast_answers = Vec::with_capacity(query_set.len());
    let mut latencies_us = Vec::with_capacity(query_set.len());
    let fast_started = Instant::now();
    for (loc, affiliated) in &query_set {
        let started = Instant::now();
        let ranked = snapshot.ranked(*loc, affiliated, TOP_N, now);
        latencies_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
        fast_answers.push(ranked);
    }
    let fast_secs = fast_started.elapsed().as_secs_f64();
    let flat = query_set
        .iter()
        .filter(|(loc, _)| snapshot.engine(*loc) == Engine::Flat)
        .count();

    // Reference oracle on a budget-capped prefix of the same queries,
    // asserting byte-identity with the fast answer as it goes. A
    // mismatch panics — this is the self-check CI relies on.
    let ref_queries = ((REFERENCE_OP_BUDGET / nodes.max(1) as u64) as usize)
        .clamp(REFERENCE_MIN_QUERIES, query_set.len());
    let mut ref_latencies_us = Vec::with_capacity(ref_queries);
    let ref_started = Instant::now();
    for (q, (loc, affiliated)) in query_set.iter().take(ref_queries).enumerate() {
        let started = Instant::now();
        let oracle = snapshot.reference_ranked(*loc, affiliated, TOP_N, now);
        ref_latencies_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
        assert_eq!(
            fast_answers[q], oracle,
            "oracle mismatch at nodes={nodes} query={q} loc={loc}"
        );
    }
    let ref_secs = ref_started.elapsed().as_secs_f64();

    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len().max(1) as f64;
    let qps = query_set.len() as f64 / fast_secs.max(f64::MIN_POSITIVE);
    let ref_qps = ref_queries as f64 / ref_secs.max(f64::MIN_POSITIVE);
    let outcome = Outcome {
        nodes,
        queries: query_set.len(),
        qps,
        p50_us: percentile(&latencies_us, 0.50).unwrap_or(0.0),
        p99_us: percentile(&latencies_us, 0.99).unwrap_or(0.0),
        mean_us,
        ref_queries,
        ref_qps,
        ref_p99_us: percentile(&ref_latencies_us, 0.99).unwrap_or(0.0),
        speedup: qps / ref_qps.max(f64::MIN_POSITIVE),
        build_ms,
        flat_share: flat as f64 / query_set.len().max(1) as f64,
    };
    drop(snapshot);
    let mixed_outcome = run_mixed(&mut manager, statuses, nodes, now, mixed);
    (outcome, mixed_outcome)
}

/// Tunables for the mixed mutate+query phase.
struct MixedParams {
    /// Minimum wall-clock duration of the phase.
    min_ms: u64,
    /// Mutations applied per epoch before the snapshot is republished.
    batch: usize,
    /// Query worker threads (`ARMADA_BENCH_THREADS`, default cores).
    workers: usize,
    /// Fail the run unless the phase sustained at least this qps
    /// (0 = report only).
    min_qps: usize,
}

/// What the mixed mutate+query phase measured at one sweep point.
struct MixedOutcome {
    epochs: usize,
    mutations: usize,
    mut_p50_us: f64,
    mut_p99_us: f64,
    publish_p50_us: f64,
    publish_p99_us: f64,
    publish_max_us: f64,
    prune_max_us: f64,
    queries: usize,
    qps: f64,
    q_p50_us: f64,
    q_p99_us: f64,
    workers: usize,
    oracle_checked: usize,
}

/// Applies one seeded mutation to the live manager: ~80% heartbeats
/// (three quarters of them stationary — the common case the index
/// write-skip optimises), ~10% fresh registrations, ~10% departures.
fn apply_one_mutation(
    manager: &mut CentralManager,
    statuses: &mut Vec<NodeStatus>,
    rng: &mut Rng,
    now: SimTime,
) {
    let roll = rng.range(100);
    if roll < 10 {
        let status = NodeStatus {
            node: NodeId::new(statuses.len() as u64),
            class: node_class(rng.next_u64()),
            location: sample_location(rng),
            attached_users: rng.range(8) as usize,
            load_score: (rng.range(13) as f64) * 0.25,
        };
        manager.register(status, now);
        statuses.push(status);
    } else if roll < 20 {
        let idx = rng.range(statuses.len() as u64) as usize;
        manager.node_left(statuses[idx].node);
    } else {
        let idx = rng.range(statuses.len() as u64) as usize;
        let status = &mut statuses[idx];
        status.load_score = (rng.range(13) as f64) * 0.25;
        if rng.range(4) == 0 {
            status.location = status
                .location
                .offset_km(rng.next_f64() * 6.0 - 3.0, rng.next_f64() * 6.0 - 3.0);
        }
        manager.heartbeat(*status, now);
    }
}

/// The mixed mutate+query phase: the calling thread churns the live
/// manager and republishes after every batch while worker threads serve
/// discovery queries off whichever snapshot is currently published.
///
/// Virtual time is held at `now` for the whole phase, so liveness is
/// stable and every published snapshot answers the same question the
/// read-only sweep did; what varies — and gets measured — is the cost
/// of mutating under outstanding snapshots (the old copy-on-write
/// design deep-cloned the whole index here) and of republishing each
/// epoch. Sampled snapshots are replayed against the reference oracle
/// afterwards; any divergence aborts the run.
fn run_mixed(
    manager: &mut CentralManager,
    mut statuses: Vec<NodeStatus>,
    nodes: usize,
    now: SimTime,
    params: &MixedParams,
) -> MixedOutcome {
    let mut rng = Rng::new(SEED ^ 0x3a1c_0000 ^ nodes as u64);
    let published: RwLock<Arc<DiscoverySnapshot>> = RwLock::new(manager.published());
    let stop = AtomicBool::new(false);
    let min_duration = Duration::from_millis(params.min_ms);

    let mut mut_us: Vec<f64> = Vec::new();
    let mut publish_us: Vec<f64> = Vec::new();
    let mut prune_us: Vec<f64> = Vec::new();
    let mut sampled: Vec<Arc<DiscoverySnapshot>> = Vec::new();
    let mut epochs = 0usize;

    let started = Instant::now();
    let query_latencies: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.workers)
            .map(|w| {
                let published = &published;
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = Rng::new(SEED ^ 0x51ed ^ ((w as u64) << 32) ^ nodes as u64);
                    let mut latencies = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let snap = Arc::clone(&published.read().expect("publish lock"));
                        let (loc, affiliated) = one_query(&mut rng, nodes);
                        let t = Instant::now();
                        let ranked = snap.ranked(loc, &affiliated, TOP_N, now);
                        latencies.push(t.elapsed().as_nanos() as f64 / 1_000.0);
                        std::hint::black_box(ranked);
                    }
                    latencies
                })
            })
            .collect();

        // Mutator: batches of mutations, republish, repeat until the
        // minimum duration has elapsed.
        loop {
            for _ in 0..params.batch {
                let t = Instant::now();
                apply_one_mutation(manager, &mut statuses, &mut rng, now);
                mut_us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
            }
            if (epochs + 1).is_multiple_of(32) {
                // Periodic housekeeping: drops everything dead past the
                // grace window (on the first round, the seeded ~10%
                // never-refreshed fleet) under outstanding snapshots.
                let t = Instant::now();
                manager.prune_dead(now, SimDuration::ZERO);
                prune_us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
            }
            let t = Instant::now();
            let snap = manager.published();
            publish_us.push(t.elapsed().as_nanos() as f64 / 1_000.0);
            *published.write().expect("publish lock") = Arc::clone(&snap);
            epochs += 1;
            if epochs.is_multiple_of(64) || started.elapsed() >= min_duration {
                sampled.push(snap);
            }
            if started.elapsed() >= min_duration {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("query worker panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Post-hoc oracle replay on the sampled snapshots: the fast answer
    // must be byte-identical to the full-scan reference on every
    // checked query, mutations or not.
    let per_sample = ((REFERENCE_OP_BUDGET / nodes.max(1) as u64) as usize / sampled.len().max(1))
        .clamp(REFERENCE_MIN_QUERIES, 256);
    let mut oracle_checked = 0usize;
    for (s, snap) in sampled.iter().enumerate() {
        let mut rng = Rng::new(SEED ^ 0x0bac1e ^ (s as u64) ^ nodes as u64);
        for q in 0..per_sample {
            let (loc, affiliated) = one_query(&mut rng, nodes);
            let fast = snap.ranked(loc, &affiliated, TOP_N, now);
            let oracle = snap.reference_ranked(loc, &affiliated, TOP_N, now);
            assert_eq!(
                fast, oracle,
                "mixed-phase oracle mismatch at nodes={nodes} sample={s} query={q} loc={loc}"
            );
            oracle_checked += 1;
        }
    }

    let all_queries: Vec<f64> = query_latencies.into_iter().flatten().collect();
    let queries = all_queries.len();
    let qps = queries as f64 / elapsed.max(f64::MIN_POSITIVE);
    MixedOutcome {
        epochs,
        mutations: mut_us.len(),
        mut_p50_us: percentile(&mut_us, 0.50).unwrap_or(0.0),
        mut_p99_us: percentile(&mut_us, 0.99).unwrap_or(0.0),
        publish_p50_us: percentile(&publish_us, 0.50).unwrap_or(0.0),
        publish_p99_us: percentile(&publish_us, 0.99).unwrap_or(0.0),
        publish_max_us: percentile(&publish_us, 1.0).unwrap_or(0.0),
        prune_max_us: prune_us.iter().copied().fold(0.0, f64::max),
        queries,
        qps,
        q_p50_us: percentile(&all_queries, 0.50).unwrap_or(0.0),
        q_p99_us: percentile(&all_queries, 0.99).unwrap_or(0.0),
        workers: params.workers,
        oracle_checked,
    }
}

fn main() {
    let node_counts = list_arg("--nodes", &[1_000, 10_000, 100_000, 1_000_000]);
    let queries = arg("--queries", 2_000);
    let mixed = MixedParams {
        min_ms: arg("--mixed-ms", 3_000),
        batch: arg("--mixed-batch", 64),
        workers: Harness::from_env().threads().max(1),
        min_qps: arg("--assert-min-qps", 0),
    };

    // Unlike the simulation sweeps, this is a wall-clock latency
    // microbenchmark: concurrent sweep points would contend for cores
    // and memory bandwidth and corrupt each other's p50/p99, so the
    // points always run serially — worker threads only appear inside
    // each point's mixed phase.
    let mut report = BenchReport::start("discover_scale", 1);
    report.attach("top_n", Json::Int(TOP_N as i64));
    report.attach("queries_per_point", Json::Int(queries as i64));
    report.attach(
        "nodes_swept",
        Json::Array(node_counts.iter().map(|&n| Json::Int(n as i64)).collect()),
    );
    report.attach("mixed_workers", Json::Int(mixed.workers as i64));
    report.attach("mixed_batch", Json::Int(mixed.batch as i64));

    let outcomes: Vec<(Outcome, MixedOutcome)> = node_counts
        .iter()
        .map(|&nodes| run_for_nodes(nodes, queries, &mixed))
        .collect();

    let mut rows = Vec::new();
    let mut mixed_rows = Vec::new();
    let mut total_checked = 0usize;
    for (outcome, mixed_outcome) in &outcomes {
        total_checked += outcome.ref_queries + mixed_outcome.oracle_checked;
        let label = format!("nodes={}", outcome.nodes);
        // Under `ARMADA_TRACE`, each sweep point leaves one summary
        // event so CI can archive the sweep alongside the report.
        let tracer = tracer_for("discover_scale", &label);
        tracer.emit(Severity::Info, "discover.sweep", || {
            vec![
                ("nodes", u(outcome.nodes as u64)),
                ("queries", u(outcome.queries as u64)),
                ("qps", f(outcome.qps)),
                ("p50_us", f(outcome.p50_us)),
                ("p99_us", f(outcome.p99_us)),
                ("ref_qps", f(outcome.ref_qps)),
                ("speedup", f(outcome.speedup)),
                ("flat_share", f(outcome.flat_share)),
                ("oracle_checked", u(outcome.ref_queries as u64)),
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
                ("nodes".to_owned(), Json::Int(outcome.nodes as i64)),
                ("qps".to_owned(), Json::Float(outcome.qps)),
                ("p50_us".to_owned(), Json::Float(outcome.p50_us)),
                ("p99_us".to_owned(), Json::Float(outcome.p99_us)),
                ("mean_us".to_owned(), Json::Float(outcome.mean_us)),
                (
                    "ref_queries".to_owned(),
                    Json::Int(outcome.ref_queries as i64),
                ),
                ("ref_qps".to_owned(), Json::Float(outcome.ref_qps)),
                ("ref_p99_us".to_owned(), Json::Float(outcome.ref_p99_us)),
                ("speedup".to_owned(), Json::Float(outcome.speedup)),
                (
                    "oracle_checked".to_owned(),
                    Json::Int(outcome.ref_queries as i64),
                ),
                ("oracle_mismatches".to_owned(), Json::Int(0)),
                ("build_ms".to_owned(), Json::Float(outcome.build_ms)),
                ("flat_share".to_owned(), Json::Float(outcome.flat_share)),
                (
                    "mixed_epochs".to_owned(),
                    Json::Int(mixed_outcome.epochs as i64),
                ),
                (
                    "mixed_mutations".to_owned(),
                    Json::Int(mixed_outcome.mutations as i64),
                ),
                (
                    "mixed_mut_p50_us".to_owned(),
                    Json::Float(mixed_outcome.mut_p50_us),
                ),
                (
                    "mixed_mut_p99_us".to_owned(),
                    Json::Float(mixed_outcome.mut_p99_us),
                ),
                (
                    "mixed_publish_p50_us".to_owned(),
                    Json::Float(mixed_outcome.publish_p50_us),
                ),
                (
                    "mixed_publish_p99_us".to_owned(),
                    Json::Float(mixed_outcome.publish_p99_us),
                ),
                (
                    "mixed_publish_max_us".to_owned(),
                    Json::Float(mixed_outcome.publish_max_us),
                ),
                (
                    "mixed_prune_max_us".to_owned(),
                    Json::Float(mixed_outcome.prune_max_us),
                ),
                (
                    "mixed_queries".to_owned(),
                    Json::Int(mixed_outcome.queries as i64),
                ),
                ("mixed_qps".to_owned(), Json::Float(mixed_outcome.qps)),
                (
                    "mixed_q_p50_us".to_owned(),
                    Json::Float(mixed_outcome.q_p50_us),
                ),
                (
                    "mixed_q_p99_us".to_owned(),
                    Json::Float(mixed_outcome.q_p99_us),
                ),
                (
                    "mixed_workers".to_owned(),
                    Json::Int(mixed_outcome.workers as i64),
                ),
                (
                    "mixed_oracle_checked".to_owned(),
                    Json::Int(mixed_outcome.oracle_checked as i64),
                ),
            ],
        );
        rows.push(vec![
            outcome.nodes.to_string(),
            outcome.queries.to_string(),
            format!("{:.0}", outcome.qps),
            format!("{:.1}", outcome.p50_us),
            format!("{:.1}", outcome.p99_us),
            format!("{:.0}", outcome.ref_qps),
            format!("{:.1}", outcome.ref_p99_us),
            format!("{:.1}x", outcome.speedup),
            format!("flat {:.0}%", 100.0 * outcome.flat_share),
            outcome.ref_queries.to_string(),
        ]);
        mixed_rows.push(vec![
            outcome.nodes.to_string(),
            mixed_outcome.epochs.to_string(),
            mixed_outcome.mutations.to_string(),
            format!("{:.1}", mixed_outcome.mut_p99_us),
            format!("{:.1}", mixed_outcome.publish_p50_us),
            format!("{:.1}", mixed_outcome.publish_max_us),
            format!("{:.0}", mixed_outcome.prune_max_us),
            mixed_outcome.queries.to_string(),
            format!("{:.0}", mixed_outcome.qps),
            format!("{:.1}", mixed_outcome.q_p50_us),
            format!("{:.1}", mixed_outcome.q_p99_us),
            mixed_outcome.oracle_checked.to_string(),
        ]);
    }

    let header = [
        "nodes",
        "queries",
        "fast_qps",
        "p50_us",
        "p99_us",
        "ref_qps",
        "ref_p99_us",
        "speedup",
        "engine",
        "oracle_checked",
    ];
    print_table("Discovery scale sweep (top_n=16)", &header, &rows);
    print_csv("discover_scale", &header, &rows);

    let mixed_header = [
        "nodes",
        "epochs",
        "mutations",
        "mut_p99_us",
        "pub_p50_us",
        "pub_max_us",
        "prune_max_us",
        "queries",
        "qps",
        "q_p50_us",
        "q_p99_us",
        "oracle_checked",
    ];
    print_table(
        &format!(
            "Mixed mutate+query phase ({} workers, batch {})",
            mixed.workers, mixed.batch
        ),
        &mixed_header,
        &mixed_rows,
    );
    print_csv("discover_scale_mixed", &mixed_header, &mixed_rows);
    println!("\noracle identity: {total_checked} queries checked, 0 mismatches");

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }

    if mixed.min_qps > 0 {
        for (outcome, mixed_outcome) in &outcomes {
            assert!(
                mixed_outcome.qps >= mixed.min_qps as f64,
                "mixed phase at nodes={} sustained {:.0} qps, below the --assert-min-qps floor of {}",
                outcome.nodes,
                mixed_outcome.qps,
                mixed.min_qps
            );
        }
        println!(
            "mixed-phase qps floor: every sweep point sustained >= {} qps",
            mixed.min_qps
        );
    }
}
