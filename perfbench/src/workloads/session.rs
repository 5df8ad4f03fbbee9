//! `session_setup` and `frame_stream`: whole user sessions on the live
//! runtime, through `LiveClient`'s public entry points only.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use armada_live::{LiveClient, LiveManager, LiveNode, LiveNodeConfig, NodeConfig, SessionReport};
use armada_trace::{Severity, Tracer};
use armada_types::{ClientConfig, GeoPoint, HardwareProfile, NodeClass};
use armada_wire::WireConfig;

use crate::gen;
use crate::measure::{self, OpRec, Paced, Samples};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::rounds::{self, Plan};
use crate::spans::{Spans, Stage, StageSink};
use crate::stats;
use crate::RunCfg;

/// Candidate-list size: the paper's default.
const TOP_N: usize = 3;
/// Edge nodes in the cluster, split evenly between the managers.
const NODES: u64 = 8;
/// Seeded client positions a generator cycles through.
const CLIENT_POINTS: usize = 64;
/// Frames per `frame_stream` session: long enough that discovery and
/// probing are under 2 % of the exchanges.
const STREAM_FRAMES: usize = 500;

/// Which of the two session workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One frame per session.
    Setup,
    /// `STREAM_FRAMES` frames per session.
    Stream,
}

impl Shape {
    fn frames(self) -> usize {
        match self {
            Shape::Setup => 1,
            Shape::Stream => STREAM_FRAMES,
        }
    }
}

/// The loopback deployment both workloads run on: two federated
/// managers syncing every second, eight nodes split between them.
/// Nodes are declared
/// first so they drop first: a node outliving its manager would start
/// redialling it.
struct Cluster {
    nodes: Vec<LiveNode>,
    managers: Vec<(LiveManager, SocketAddr)>,
}

/// A node that adds as little of its own as the profile admits: no
/// simulated geography and the smallest frame time, so what is left is
/// the runtime's per-message cost.
fn node_config(id: u64, location: GeoPoint) -> NodeConfig {
    NodeConfig {
        id,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("perf", 4, 0.001).with_concurrency(4),
        location,
        one_way_delay: Duration::ZERO,
    }
}

fn build_cluster(seed: u64) -> Cluster {
    let mut managers: Vec<(LiveManager, SocketAddr)> = (0..2)
        .map(|shard| LiveManager::bind_federated(shard, Tracer::disabled()).expect("manager binds"))
        .collect();
    let addrs: Vec<SocketAddr> = managers.iter().map(|m| m.1).collect();
    for (i, (manager, _)) in managers.iter_mut().enumerate() {
        manager.start_sync(vec![addrs[1 - i]], Duration::from_secs(1));
    }
    let locations = gen::points(seed, 10, NODES as usize, 40.0);
    let nodes: Vec<LiveNode> = (1..=NODES)
        .zip(locations)
        .map(|(id, location)| {
            // The first half registers with the first manager, the
            // second half with the second.
            let owner = usize::from(id > NODES / 2);
            LiveNode::bind_with(
                node_config(id, location),
                LiveNodeConfig::default(),
                Some(managers[owner].1),
                Tracer::disabled(),
            )
            .expect("node binds and registers")
            .0
        })
        .collect();
    // Set-up ends when every manager can offer every node: the first
    // completed sync in each direction.
    let deadline = Instant::now() + Duration::from_secs(20);
    while managers
        .iter()
        .any(|(m, _)| m.alive_count() < NODES as usize)
    {
        assert!(Instant::now() < deadline, "cluster never converged");
        std::thread::sleep(Duration::from_millis(1));
    }
    Cluster { nodes, managers }
}

fn client(id: u64, location: GeoPoint, tracer: Option<&Tracer>) -> LiveClient {
    let mut config = ClientConfig::default().with_top_n(TOP_N);
    // Pacing off: the frame loop runs as fast as replies return. At the
    // default 20 FPS every frame is followed by a 50 ms sleep, which
    // would be all either workload measures. The cap has to round to a
    // frame interval of zero microseconds: at 1e6 the client slept 1 µs
    // after every frame, which the kernel's timer slack made 60–80 µs
    // of idle CPU, as long as the frame itself and as steady as the
    // hypervisor's wake-up of a halted vCPU.
    config.max_fps = 1e9;
    let client = LiveClient::new(id, location, config).with_wire(WireConfig::default());
    match tracer {
        Some(t) => client.with_tracer(t.clone()),
        None => client,
    }
}

/// The stages a traced session splits into, in order.
const STAGES: [&str; 4] = ["discover", "probe_round", "join", "first_frame"];

/// The five instants (tracer µs) that delimit a session's stages:
/// start marker, probe round start and end, join, first frame done.
/// `None` when the session retried and the pattern is not the plain
/// one.
fn stage_marks(events: &[(u64, Stage)]) -> Option<[u64; 5]> {
    use Stage::*;
    let plain = [Start, ProbeStart, ProbeDone, Join, FrameDone];
    let head = events.get(..5)?;
    head.iter()
        .map(|e| e.1)
        .eq(plain)
        .then(|| std::array::from_fn(|i| head[i].0))
}

/// Per-generator tallies beyond the common samples.
#[derive(Default)]
struct Extra {
    probe_exchanges: u64,
    sessions: u64,
    frames: u64,
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    /// Every frame of a traced stream, `(completion time, µs)`.
    frames_us: Vec<(u64, f64)>,
    /// Durations of each of `STAGES`, µs.
    stage_us: [Vec<f64>; 4],
    frame_gap_us: Vec<f64>,
    events: u64,
    traced_sessions: u64,
    spans: Spans,
}

fn check_report(report: &SessionReport, frames: usize, samples: &mut Samples) -> bool {
    let roster = 1..=NODES;
    let ok = report.latencies.len() == frames
        && report.failovers == 0
        && roster.contains(&report.final_node)
        && report.probed.len() == TOP_N;
    if !ok {
        samples.fail(|| {
            format!(
                "session returned {} of {frames} latencies, {} failovers, final node {}, {} probed",
                report.latencies.len(),
                report.failovers,
                report.final_node,
                report.probed.len()
            )
        });
    }
    ok
}

pub fn run(cfg: &RunCfg, shape: Shape) -> Outcome {
    let mut out = Outcome::default();
    let plan = Plan::for_seconds(cfg.seconds, cfg.quick);
    let frames = shape.frames();

    let builds = if cfg.quick { 1 } else { 3 };
    let (cluster, setup_s) = measure::timed_setup(builds, || build_cluster(cfg.seed));
    out.put("setup_s", setup_s);

    let route: Vec<SocketAddr> = cluster.managers.iter().map(|m| m.1).collect();
    let reverse_route: Vec<SocketAddr> = route.iter().rev().copied().collect();
    let points = gen::points(cfg.seed, 11, CLIENT_POINTS, 40.0);
    let sink = StageSink::default();
    let tracer = cfg
        .trace
        .then(|| Tracer::with_sink(Box::new(sink.clone()), Severity::Debug));
    let plain: Vec<LiveClient> = (0..CLIENT_POINTS)
        .map(|i| client(1_000 + i as u64, points[i], None))
        .collect();
    let traced: Vec<LiveClient> = match &tracer {
        Some(t) => (0..CLIENT_POINTS)
            .map(|i| client(2_000 + i as u64, points[i], Some(t)))
            .collect(),
        None => Vec::new(),
    };

    let frames_processed = || -> u64 { cluster.nodes.iter().map(LiveNode::frames_processed).sum() };
    let discoveries_served = || -> u64 {
        cluster
            .managers
            .iter()
            .map(|m| m.0.discoveries_served())
            .sum()
    };
    let (frames_before, discoveries_before) = (frames_processed(), discoveries_served());

    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    crate::host::set_alloc_counting(cfg.trace);
    let reference = Reference::start(origin);
    let (boundaries, (samples, extra)) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            // Twice what the development host gets through.
            let sessions_per_s = if shape == Shape::Setup { 5_000 } else { 500 };
            let mut samples = Samples::for_run(cfg.seconds, sessions_per_s, sessions_per_s);
            let mut extra = Extra {
                spans: Spans::new(cfg.trace),
                ..Extra::default()
            };
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let point = i % CLIENT_POINTS;
                // In a traced run every other session goes through the
                // traced client, so both see the same machine.
                let use_traced = cfg.trace && i % 2 == 1;
                let client = if use_traced {
                    &traced[point]
                } else {
                    &plain[point]
                };
                // Every other client homes on the second manager.
                let managers = if point.is_multiple_of(2) {
                    &route
                } else {
                    &reverse_route
                };
                i += 1;
                if use_traced {
                    let t = tracer.as_ref().expect("traced run has a tracer");
                    t.emit(Severity::Info, "perf.session.start", Vec::new);
                }
                let start_ns = now_ns();
                let result = client.run_session_any(managers, frames);
                let done_ns = now_ns();
                samples.attempted += 1;
                let report = match result {
                    Ok(r) => r,
                    Err(e) => {
                        samples.fail(|| format!("session failed: {e}"));
                        continue;
                    }
                };
                if !check_report(&report, frames, &mut samples) {
                    continue;
                }
                let wall_us = (done_ns - start_ns) as f64 / 1e3;
                samples.ops.push(OpRec {
                    start_ns,
                    done_ns,
                    weight: frames as f64,
                });
                let mut frame_us: Vec<f64> = report
                    .latencies
                    .iter()
                    .map(|l| l.as_nanos() as f64 / 1e3)
                    .collect();
                let in_frames_us: f64 = frame_us.iter().sum();
                samples.side_latency_us.push((done_ns, frame_us[0]));
                // One entry per session: its wall time, or its median
                // frame. Every frame of a stream would be a log of
                // tens of megabytes; a traced run keeps them for the
                // tails.
                let op_us = match shape {
                    Shape::Setup => wall_us,
                    Shape::Stream => {
                        if cfg.trace {
                            extra
                                .frames_us
                                .extend(frame_us.iter().map(|&us| (done_ns, us)));
                        }
                        stats::percentile(&mut frame_us, 0.5).expect("frames flowed")
                    }
                };
                samples.op_latency_us.push((done_ns, op_us));
                extra.sessions += 1;
                extra.frames += frames as u64;
                extra.probe_exchanges += 2 * report.probed.len() as u64;
                if !cfg.trace {
                    continue;
                }
                extra
                    .frame_gap_us
                    .push((wall_us - in_frames_us) / frames as f64);
                if !use_traced {
                    extra.untraced_us.push(op_us);
                    continue;
                }
                extra.traced_us.push(op_us);
                extra.traced_sessions += 1;
                let log = sink.drain();
                extra.events += log.events.len() as u64 + log.other_events;
                let root = extra.spans.record("session", start_ns, done_ns, None);
                if let Some(marks) = stage_marks(&log.events) {
                    // The tracer stamps whole microseconds on its own
                    // clock; the start marker ties it to the run's.
                    let at = |t_us: u64| start_ns + (t_us - marks[0]) * 1_000;
                    for (k, name) in STAGES.into_iter().enumerate() {
                        let (a, b) = (marks[k], marks[k + 1]);
                        extra.spans.record(name, at(a), at(b), root);
                        extra.stage_us[k].push((b - a) as f64);
                    }
                }
            }
            (samples, extra)
        });
        let boundaries = rounds::pace(origin, &plan);
        stop.store(true, Ordering::Relaxed);
        (boundaries, generator.join().expect("generator thread"))
    });
    let walks = reference.finish();
    crate::host::set_alloc_counting(false);

    // Exchanges by kind, from the servers' own counters and the
    // reports: the evidence for which layer a workload leans on.
    let frames_served = frames_processed() - frames_before;
    let discoveries = discoveries_served() - discoveries_before;
    let (joins, leaves) = (extra.sessions, extra.sessions);
    let exchanges = frames_served + discoveries + extra.probe_exchanges + joins + leaves;
    out.notes.push(format!(
        "rpc mix: Frame {frames_served}, Discover {discoveries}, probes {}, Join {joins}, Leave {leaves}",
        extra.probe_exchanges
    ));
    out.put(
        "gen.rpc_frame_share",
        frames_served as f64 / exchanges.max(1) as f64,
    );
    out.put(
        "gen.rpc_exchanges_per_op",
        exchanges as f64 / extra.frames.max(1) as f64,
    );
    out.check(frames_served >= extra.frames, || {
        format!(
            "nodes processed {frames_served} frames, sessions reported {}",
            extra.frames
        )
    });
    out.check(
        cluster
            .managers
            .iter()
            .all(|m| m.0.alive_count() == NODES as usize),
        || "a node went missing from a manager's alive set".to_string(),
    );

    let paced = Paced::from_boundaries(&boundaries).with_reference(&walks);
    measure::fill_end_to_end(&mut out, &paced, &samples);

    if cfg.trace {
        let stage_metrics = [
            "live.client.discover_us_p50",
            "live.client.probe_round_us_p50",
            "live.client.join_us_p50",
            "live.client.first_frame_us_p50",
        ];
        for (name, us) in stage_metrics.into_iter().zip(&extra.stage_us) {
            out.put(name, stats::p50_or_zero(us));
        }
        out.put(
            "live.client.frame_gap_us_p50",
            stats::p50_or_zero(&extra.frame_gap_us),
        );
        out.put_overhead_ratio(
            stats::p50_or_zero(&extra.traced_us),
            stats::p50_or_zero(&extra.untraced_us),
        );
        out.put(
            "trace.events_per_op",
            extra.events as f64 / (extra.traced_sessions * frames as u64).max(1) as f64,
        );
        let op_us = match shape {
            Shape::Setup => &samples.op_latency_us,
            Shape::Stream => &extra.frames_us,
        };
        measure::fill_tails(&mut out, op_us, &samples.side_latency_us);
        out.put("gen.open_sockets", crate::host::open_sockets() as f64);
        crate::finish_spans(&mut out, cfg, extra.spans);
    }
    drop(cluster);
    measure::fill_peak_rss(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_marks_read_the_plain_pattern_only() {
        use Stage::*;
        let plain = [
            (100, Start),
            (350, ProbeStart),
            (600, ProbeDone),
            (700, Join),
            (900, FrameDone),
            (1_100, FrameDone),
        ];
        assert_eq!(stage_marks(&plain), Some([100, 350, 600, 700, 900]));
        // A session that re-probed after a rejected join is left out.
        let retried = [
            (0, Start),
            (1, ProbeStart),
            (2, ProbeDone),
            (3, ProbeStart),
            (4, ProbeDone),
            (5, Join),
            (6, FrameDone),
        ];
        assert_eq!(stage_marks(&retried), None);
        assert_eq!(stage_marks(&plain[..3]), None);
    }
}
