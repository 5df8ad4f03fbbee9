//! Overload soak: sweep seeded connection-storm intensity against a
//! live manager tier and show the overload-control layer degrades
//! gracefully, written to `BENCH_overload.json`.
//!
//! Each sweep point binds a fresh manager (with admission control and
//! slow-loris eviction configured), registers heartbeating nodes, and
//! drives a [`StormPlan`] at that intensity: flood workers that
//! connect → query → disconnect in a loop, a slow-loris cohort that
//! trickles bytes without ever completing a frame, and a reconnect
//! stampede that dials as one. Honest measurement clients issue
//! discovery queries throughout and the manager's liveness view is
//! sampled continuously. This binary *asserts* the two headline
//! robustness claims (nonzero exit on regression — CI smoke-runs it at
//! reduced scale):
//!
//! * **zero false-dead nodes**: every heartbeat-tracked node stays
//!   alive at every sample during the storm and after it passes —
//!   shedding must never starve the protected liveness plane, and
//! * **graceful goodput degradation**: honest clients keep being
//!   served at every intensity (no collapse cliff); each point's
//!   goodput stays within 10× of the previous point's.
//!
//! Flags: `--points` (default 4 sweep points) and `--window-ms`
//! (default 2 000 per point); `ARMADA_BENCH_DIR` and `ARMADA_TRACE` as
//! everywhere else.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use armada_bench::{arg, print_table, tracer_for, Harness};
use armada_chaos::{StormPlan, StormRole};
use armada_json::Json;
use armada_live::{LiveManager, LiveManagerConfig, LiveNode, LiveNodeConfig, NodeConfig};
use armada_metrics::BenchReport;
use armada_trace::Tracer;
use armada_types::{GeoPoint, HardwareProfile, NodeClass};
use armada_wire::{read_response, write_request, Codec, Request, Response};

/// Per-exchange socket budget — localhost, so generous.
const RPC_TIMEOUT: Duration = Duration::from_secs(1);
/// Node heartbeat period; the liveness window is 4× this, so one
/// starved heartbeat survives but two do not.
const HEARTBEAT: Duration = Duration::from_millis(300);
/// Partial-frame eviction deadline: well past any honest localhost
/// request, well inside the soak window.
const LORIS_DEADLINE: Duration = Duration::from_millis(500);

/// Heartbeating nodes behind the manager.
const NODES: usize = 3;
/// Honest measurement clients querying throughout.
const CLIENTS: usize = 4;
/// The manager's admission threshold (open connections).
const SHED_CONNS: usize = 32;
/// How long the reconnect stampede holds its connections.
const STAMPEDE_HOLD: Duration = Duration::from_millis(300);
/// Storm-plan seed.
const SEED: u64 = 42;

/// What one discovery attempt came back as.
enum Outcome {
    Served,
    Busy,
    Error,
}

/// One full connect → `Discover` → disconnect exchange, the way both
/// storm floods and honest clients issue queries.
fn discover_once(addr: SocketAddr, user: u64) -> Outcome {
    let exchange = || -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RPC_TIMEOUT))?;
        stream.set_write_timeout(Some(RPC_TIMEOUT))?;
        write_request(
            &mut stream,
            Codec::Binary,
            &Request::Discover {
                user,
                lat: 44.98,
                lon: -93.26,
                top_n: 2,
            },
        )?;
        read_response(&mut stream)
            .map(|(response, _)| response)
            .map_err(std::io::Error::from)
    };
    match exchange() {
        Ok(Response::Candidates { .. }) => Outcome::Served,
        Ok(Response::Busy { .. }) => Outcome::Busy,
        _ => Outcome::Error,
    }
}

/// Tallies for one cohort of query issuers.
#[derive(Default)]
struct Tally {
    served: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
}

impl Tally {
    fn count(&self, outcome: &Outcome) {
        let counter = match outcome {
            Outcome::Served => &self.served,
            Outcome::Busy => &self.busy,
            Outcome::Error => &self.errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One slow-loris connection: claim a frame, trickle single bytes on
/// the plan's jittered cadence, never complete it. Returns `true` if
/// the server evicted us (a write failed) before the storm ended.
fn run_loris(addr: SocketAddr, plan: &StormPlan, index: u64, stop: &AtomicBool) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    // A 4 KiB frame is announced; at one byte per trickle it would take
    // minutes to arrive — the progress deadline fires long before.
    if stream.write_all(&4096u32.to_be_bytes()).is_err() {
        return false;
    }
    let mut seq = 0;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_micros(plan.trickle_pause_us(index, seq)));
        seq += 1;
        if stream.write_all(b"{").is_err() {
            return true;
        }
    }
    false
}

/// Everything measured at one sweep point.
struct PointStats {
    intensity: f64,
    flood: u64,
    loris: u64,
    stampede: u64,
    goodput: f64,
    client_served: u64,
    client_busy: u64,
    client_errors: u64,
    storm_served: u64,
    storm_busy: u64,
    sheds: u64,
    alive_min: usize,
    post_alive: usize,
    peak_buffered: usize,
    loris_evicted: u64,
}

/// Runs one sweep point: fresh manager + nodes, one storm at
/// `intensity`, honest clients measuring goodput throughout.
fn run_point(intensity: f64, window: Duration, label: &str) -> PointStats {
    let (manager, addr) = LiveManager::bind_with(
        LiveManagerConfig {
            threads: 2,
            liveness_window: HEARTBEAT * 4,
            shed_conns: SHED_CONNS,
            read_progress_timeout: LORIS_DEADLINE,
        },
        0,
        tracer_for("overload_soak", label),
    )
    .expect("bind manager");

    let nodes: Vec<LiveNode> = (0..NODES as u64)
        .map(|id| {
            let cfg = NodeConfig {
                id,
                class: NodeClass::Volunteer,
                hw: HardwareProfile::new("soak", 4, 5.0).with_concurrency(4),
                location: GeoPoint::new(44.98, -93.26),
                one_way_delay: Duration::ZERO,
            };
            let live = LiveNodeConfig {
                heartbeat_period: HEARTBEAT,
                ..LiveNodeConfig::default()
            };
            let (node, _) =
                LiveNode::bind_with(cfg, live, Some(addr), Tracer::disabled()).expect("bind node");
            node
        })
        .collect();
    assert_eq!(manager.alive_count(), NODES, "registration is sync");

    let plan = StormPlan::uniform(SEED, intensity);
    let stop = Arc::new(AtomicBool::new(false));
    let clients_tally = Arc::new(Tally::default());
    let storm_tally = Arc::new(Tally::default());
    let evicted = Arc::new(AtomicU64::new(0));

    // The storm scheduler walks the plan's deterministic opening
    // schedule and spawns one thread per hostile connection.
    let storm = {
        let plan = plan.clone();
        let stop = Arc::clone(&stop);
        let storm_tally = Arc::clone(&storm_tally);
        let evicted = Arc::clone(&evicted);
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut workers = Vec::new();
            for event in plan.schedule() {
                let due = Duration::from_micros(event.at_us);
                if let Some(wait) = due.checked_sub(started.elapsed()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let plan = plan.clone();
                let stop = Arc::clone(&stop);
                let tally = Arc::clone(&storm_tally);
                let evicted = Arc::clone(&evicted);
                workers.push(std::thread::spawn(move || match event.role {
                    // Reconnect flood: one query per connection, jittered
                    // reconnect pauses, for the whole window.
                    StormRole::Flood => {
                        let mut attempt = 0;
                        while !stop.load(Ordering::Relaxed) {
                            tally.count(&discover_once(addr, 1_000 + event.index));
                            std::thread::sleep(Duration::from_micros(
                                plan.reconnect_pause_us(event.index, attempt),
                            ));
                            attempt += 1;
                        }
                    }
                    StormRole::Loris => {
                        if run_loris(addr, &plan, event.index, &stop) {
                            evicted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Stampede: the cohort dials as one, queries once,
                    // then lingers — a bounded connection-pressure
                    // plateau, the shape of a post-outage reconnect wave.
                    StormRole::Stampede => {
                        let one_query = TcpStream::connect(addr).ok().map(|mut stream| {
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(RPC_TIMEOUT));
                            let request = Request::Discover {
                                user: 2_000 + event.index,
                                lat: 44.98,
                                lon: -93.26,
                                top_n: 2,
                            };
                            let outcome = match write_request(&mut stream, Codec::Binary, &request)
                                .and_then(|()| {
                                    read_response(&mut stream).map_err(std::io::Error::from)
                                }) {
                                Ok((Response::Candidates { .. }, _)) => Outcome::Served,
                                Ok((Response::Busy { .. }, _)) => Outcome::Busy,
                                _ => Outcome::Error,
                            };
                            tally.count(&outcome);
                            stream
                        });
                        std::thread::sleep(STAMPEDE_HOLD);
                        drop(one_query);
                    }
                }));
            }
            for worker in workers {
                let _ = worker.join();
            }
        })
    };

    // Honest clients: steady discovery queries through the whole storm.
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|client| {
            let stop = Arc::clone(&stop);
            let tally = Arc::clone(&clients_tally);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    tally.count(&discover_once(addr, 3_000 + client));
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    // Sample the liveness view and write backlog through the window:
    // the claim is *continuous* liveness, not liveness-at-the-end.
    let started = Instant::now();
    let mut alive_min = usize::MAX;
    let mut peak_buffered = 0;
    while started.elapsed() < window {
        alive_min = alive_min.min(manager.alive_count());
        peak_buffered = peak_buffered.max(manager.buffered_write_bytes());
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    let _ = storm.join();
    for client in clients {
        let _ = client.join();
    }

    // After the storm passes, the liveness view must still be whole.
    std::thread::sleep(HEARTBEAT * 2);
    let post_alive = manager.alive_count();
    let window_secs = window.as_secs_f64();
    let client_served = clients_tally.served.load(Ordering::Relaxed);

    let stats = PointStats {
        intensity,
        flood: plan.flood,
        loris: plan.loris,
        stampede: plan.stampede,
        goodput: client_served as f64 / window_secs,
        client_served,
        client_busy: clients_tally.busy.load(Ordering::Relaxed),
        client_errors: clients_tally.errors.load(Ordering::Relaxed),
        storm_served: storm_tally.served.load(Ordering::Relaxed),
        storm_busy: storm_tally.busy.load(Ordering::Relaxed),
        sheds: manager.shed_count(),
        alive_min,
        post_alive,
        peak_buffered,
        loris_evicted: evicted.load(Ordering::Relaxed),
    };
    for node in &nodes {
        node.shutdown();
    }
    drop(nodes);
    drop(manager);
    stats
}

fn main() {
    let harness = Harness::from_env();
    let sweep_points = arg("--points", 4usize).max(2);
    let window = Duration::from_millis(arg("--window-ms", 2_000));
    // Stampede + loris + floods, all held at once in the worst case.
    armada_reactor::raise_nofile(4_096).expect("raise RLIMIT_NOFILE");

    let mut report = BenchReport::start("overload", harness.threads());
    let mut points = Vec::with_capacity(sweep_points);
    for step in 0..sweep_points {
        let intensity = step as f64 / (sweep_points - 1) as f64;
        let label = format!("i={intensity:.2}");
        let stats = run_point(intensity, window, &label);
        report.record_with(
            format!("storm/{label}"),
            0.0,
            stats.client_served + stats.storm_served,
            vec![
                ("intensity".into(), Json::Float(stats.intensity)),
                ("flood_conns".into(), Json::Int(stats.flood as i64)),
                ("loris_conns".into(), Json::Int(stats.loris as i64)),
                ("stampede_conns".into(), Json::Int(stats.stampede as i64)),
                ("goodput_per_sec".into(), Json::Float(stats.goodput)),
                (
                    "client_served".into(),
                    Json::Int(stats.client_served as i64),
                ),
                ("client_busy".into(), Json::Int(stats.client_busy as i64)),
                (
                    "client_errors".into(),
                    Json::Int(stats.client_errors as i64),
                ),
                ("storm_served".into(), Json::Int(stats.storm_served as i64)),
                ("storm_busy".into(), Json::Int(stats.storm_busy as i64)),
                ("sheds".into(), Json::Int(stats.sheds as i64)),
                ("alive_min".into(), Json::Int(stats.alive_min as i64)),
                ("post_alive".into(), Json::Int(stats.post_alive as i64)),
                (
                    "peak_buffered_bytes".into(),
                    Json::Int(stats.peak_buffered as i64),
                ),
                (
                    "loris_evicted".into(),
                    Json::Int(stats.loris_evicted as i64),
                ),
            ],
        );
        points.push(stats);
    }

    print_table(
        &format!(
            "Overload soak ({} nodes, {} honest clients, shed at {} conns)",
            NODES, CLIENTS, SHED_CONNS
        ),
        &[
            "intensity",
            "storm conns",
            "goodput/s",
            "busy",
            "sheds",
            "alive min",
            "evicted",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.intensity),
                    format!("{}+{}+{}", p.flood, p.loris, p.stampede),
                    format!("{:.0}", p.goodput),
                    format!("{}", p.client_busy + p.storm_busy),
                    format!("{}", p.sheds),
                    format!("{}/{}", p.alive_min, NODES),
                    format!("{}/{}", p.loris_evicted, p.loris),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let path = report.write().expect("write bench report");
    println!(
        "\nbench report: {} ({} runs, {:.0} ms wall)",
        path.display(),
        report.run_count(),
        report.wall_ms()
    );

    let mut regressions = Vec::new();
    for point in &points {
        // (a) Zero false-dead nodes, during and after the storm.
        if point.alive_min != NODES || point.post_alive != NODES {
            regressions.push(format!(
                "intensity {:.2}: liveness dipped to {}/{} during, {}/{} after — \
                 the storm starved the protected heartbeat plane",
                point.intensity, point.alive_min, NODES, point.post_alive, NODES
            ));
        }
        // (b) No collapse cliff: honest clients are served at every
        // intensity.
        if point.client_served == 0 {
            regressions.push(format!(
                "intensity {:.2}: honest clients served nothing — goodput collapsed",
                point.intensity
            ));
        }
    }
    for pair in points.windows(2) {
        if pair[1].goodput < 0.10 * pair[0].goodput {
            regressions.push(format!(
                "goodput cliff between intensity {:.2} ({:.0}/s) and {:.2} ({:.0}/s)",
                pair[0].intensity, pair[0].goodput, pair[1].intensity, pair[1].goodput
            ));
        }
    }
    // The sweep must actually exercise shedding: at any point whose
    // stampede alone exceeds the admission threshold, queries were shed.
    let engaged: u64 = points
        .iter()
        .filter(|p| p.stampede > SHED_CONNS as u64)
        .map(|p| p.sheds)
        .sum();
    if points.iter().any(|p| p.stampede > SHED_CONNS as u64) && engaged == 0 {
        regressions.push("storm exceeded the admission threshold but nothing was shed".into());
    }

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("REGRESSION: {r}");
        }
        std::process::exit(1);
    }
    println!(
        "overload soak OK: {} intensities, liveness {}/{} throughout, goodput {:.0}/s → {:.0}/s",
        points.len(),
        NODES,
        NODES,
        points.first().map(|p| p.goodput).unwrap_or(0.0),
        points.last().map(|p| p.goodput).unwrap_or(0.0),
    );
}
