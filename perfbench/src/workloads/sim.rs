//! `sim_metro`: the sans-IO cores under the deterministic simulator —
//! no sockets, so every live-stack change must leave it where it was.

use std::time::Instant;

use armada_churn::ChurnTrace;
use armada_core::{EnvSpec, FederationSpec, NodeSpec, RunResult, Scenario, Strategy, UserSpec};
use armada_trace::{Severity, Tracer};
use armada_types::{AccessNetwork, GeoPoint, SimDuration};

use crate::gen::{Rng, ANCHOR};
use crate::measure::{self, OpRec, Paced, Samples};
use crate::reference::Reference;
use crate::report::Outcome;
use crate::rounds::{Boundary, Round};
use crate::spans::{Spans, StageSink};
use crate::RunCfg;

/// Virtual length of one repeat. Half a minute costs about two wall
/// seconds on the development host, so a run holds enough repeats for
/// a median and for steal gating; it spans the first churn window.
const VIRTUAL_SECS: u64 = 30;
/// Virtual length of the start-up slice: inside the first 200 ms every
/// user has discovered, probed its candidates and joined one.
const STARTUP_MILLIS: u64 = 200;
const METRO_RADIUS_KM: f64 = 60.0;

/// `(nodes, users)` of the metro.
pub fn size(quick: bool) -> (usize, usize) {
    if quick {
        (100, 200)
    } else {
        (400, 2_000)
    }
}

/// The metro: the nine emulation hardware profiles cycled along a
/// seeded spiral, users scattered over the same disc, four manager
/// shards. RTTs come from the parametric latency model (no tc-style
/// pins), so the network layer samples every delay.
pub fn metro_env(seed: u64, nodes: usize, users: usize) -> EnvSpec {
    let base = EnvSpec::emulation(0, seed);
    let anchor = GeoPoint::new(ANCHOR.0, ANCHOR.1);
    let mut rng = Rng::new(seed, 20);
    let phase = rng.uniform(0.0, std::f64::consts::TAU);
    let node_specs: Vec<NodeSpec> = (0..nodes)
        .map(|i| {
            let template = &base.nodes[i % base.nodes.len()];
            // Golden-angle spiral: even cover of the disc at any count.
            let radius = METRO_RADIUS_KM * ((i as f64 + 0.5) / nodes as f64).sqrt();
            let angle = phase + i as f64 * 2.399_963;
            NodeSpec {
                label: format!("m{i}"),
                location: anchor.offset_km(
                    radius * angle.cos() + rng.uniform(-1.0, 1.0),
                    radius * angle.sin() + rng.uniform(-1.0, 1.0),
                ),
                ..template.clone()
            }
        })
        .collect();
    let user_specs: Vec<UserSpec> = (0..users)
        .map(|_| {
            let radius = METRO_RADIUS_KM * rng.next_f64().sqrt();
            let angle = rng.uniform(0.0, std::f64::consts::TAU);
            UserSpec {
                location: anchor.offset_km(radius * angle.cos(), radius * angle.sin()),
                access: AccessNetwork::HomeWifi,
                affiliations: Vec::new(),
            }
        })
        .collect();
    EnvSpec {
        nodes: node_specs,
        users: user_specs,
        pairwise_rtt_ms: Vec::new(),
        ..base
    }
    .with_federation(FederationSpec::new(4))
}

pub fn scenario(seed: u64, quick: bool) -> Scenario {
    let (nodes, users) = size(quick);
    Scenario::new(metro_env(seed, nodes, users), Strategy::client_centric())
        .with_churn(ChurnTrace::paper_fig8())
        .seed(seed)
}

/// What one repeat must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub frames: usize,
    /// User-weighted mean end-to-end latency, ms: the paper's headline
    /// number, and the guard against "faster by deciding differently".
    pub latency_ms_mean: f64,
}

pub fn fingerprint(result: &RunResult) -> Fingerprint {
    let per_user = result.recorder().per_user_mean();
    let sum: f64 = per_user.values().map(|d| d.as_millis_f64()).sum();
    Fingerprint {
        frames: result.recorder().len(),
        latency_ms_mean: sum / per_user.len().max(1) as f64,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let sockets_before = crate::host::open_sockets();

    // Set-up is everything before the first simulated event: the
    // environment, the scenario, and the world a zero-length run
    // builds from them.
    let (base, setup_s) = measure::timed_setup(if cfg.quick { 3 } else { 101 }, || {
        let s = scenario(cfg.seed, cfg.quick);
        let built = s.clone().duration(SimDuration::ZERO).run();
        std::hint::black_box(built.end_time());
        s
    });
    out.put("setup_s", setup_s);

    let sink = StageSink::default();
    let tracer = cfg
        .trace
        .then(|| Tracer::with_sink(Box::new(sink.clone()), Severity::Debug));
    let mut spans = Spans::new(cfg.trace);
    let mut samples = Samples::for_run(cfg.seconds, 2, 2);
    let mut rounds: Vec<Round> = Vec::new();
    let mut reference: Option<Fingerprint> = None;
    let mut p99_ms = 0.0;
    let (mut traced_s, mut bare_s) = (Vec::new(), Vec::new());
    let mut events = 0u64;
    let mut traced_frames = 0u64;

    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let budget = std::time::Duration::from_secs(cfg.seconds);
    let mut repeat_time = std::time::Duration::ZERO;
    crate::host::set_alloc_counting(cfg.trace);
    let walker = Reference::start(origin);
    let mut repeat = 0usize;
    // The first repeat warms caches and fixes the fingerprint; after
    // it, repeats run while another one still fits the budget.
    while repeat < 2 || (!cfg.quick && origin.elapsed() + repeat_time <= budget) {
        let repeat_started = Instant::now();
        let use_traced = cfg.trace && repeat % 2 == 1;
        let with_tracer = |s: Scenario| match (&tracer, use_traced) {
            (Some(t), true) => s.with_tracer(t.clone()),
            _ => s,
        };

        let startup = with_tracer(base.clone()).duration(SimDuration::from_millis(STARTUP_MILLIS));
        let slice_start = now_ns();
        let started = startup.run();
        let slice_done = now_ns();
        std::hint::black_box(started.recorder().len());
        drop(started);
        let _ = sink.drain();

        let full = with_tracer(base.clone()).duration(SimDuration::from_secs(VIRTUAL_SECS));
        let before = Boundary::sample(origin);
        let result = full.run();
        let after = Boundary::sample(origin);

        let print = fingerprint(&result);
        samples.attempted += 1;
        match reference {
            None => {
                reference = Some(print);
                // The tail is read off the warm-up repeat, outside any
                // round; no repeat's result outlives its iteration, so
                // peak memory is one world, not two.
                p99_ms = result
                    .recorder()
                    .cdf(None)
                    .quantile(0.99)
                    .map_or(0.0, |d| d.as_millis_f64());
            }
            Some(first) if first != print => {
                samples.fail(|| format!("repeat {repeat} gave {print:?}, the first gave {first:?}"))
            }
            Some(_) => {}
        }
        let round = Round::between(&before, &after);
        if use_traced {
            let log = sink.drain();
            events += log.events.len() as u64 + log.other_events;
            traced_frames += print.frames as u64;
        }
        if repeat > 0 {
            let wall_us = (round.end_ns - round.start_ns) as f64 / 1e3;
            samples.ops.push(OpRec {
                start_ns: round.start_ns,
                done_ns: round.end_ns,
                weight: print.frames as f64,
            });
            // Wall time to advance the metro by one virtual millisecond.
            let stamp = round.end_ns - 1;
            samples
                .op_latency_us
                .push((stamp, wall_us / (VIRTUAL_SECS * 1_000) as f64));
            samples
                .side_latency_us
                .push((stamp, (slice_done - slice_start) as f64 / 1e3));
            if cfg.trace {
                let per_frame = round.seconds() / print.frames.max(1) as f64;
                if use_traced {
                    traced_s.push(per_frame);
                } else {
                    bare_s.push(per_frame);
                }
            }
            rounds.push(round);
        }
        let root = spans.record("repeat", slice_start, after.at_ns, None);
        spans.record("startup_slice", slice_start, slice_done, root);
        spans.record("scenario_run", before.at_ns, after.at_ns, root);
        repeat += 1;
        repeat_time = repeat_started.elapsed();
    }
    let walks = walker.finish();
    crate::host::set_alloc_counting(false);

    let paced = Paced::from_rounds(rounds).with_reference(&walks);
    measure::fill_end_to_end(&mut out, &paced, &samples);

    let print = reference.expect("at least one repeat ran");
    out.check(print.frames > 0, || {
        "the simulation delivered no frame".into()
    });
    out.put("core.sim_frames", print.frames as f64);
    out.put("core.sim_latency_ms_mean", print.latency_ms_mean);
    out.put("core.sim_latency_ms_p99", p99_ms);
    let sockets = crate::host::open_sockets();
    out.check(sockets == sockets_before, || {
        format!("the simulator opened {} sockets", sockets - sockets_before)
    });
    out.put("gen.open_sockets", sockets as f64);
    out.put("gen.rpc_frame_share", 0.0);
    out.put("gen.rpc_exchanges_per_op", 0.0);
    out.notes.push(format!(
        "{repeat} repeats, each {} frames, user-weighted mean latency {:.4} ms (virtual), p99 {p99_ms:.3} ms; \
         rpc mix: none (no sockets)",
        print.frames, print.latency_ms_mean
    ));

    if cfg.trace {
        out.put_overhead_ratio(
            crate::stats::median(&traced_s).unwrap_or(0.0),
            crate::stats::median(&bare_s).unwrap_or(0.0),
        );
        out.put(
            "trace.events_per_op",
            events as f64 / traced_frames.max(1) as f64,
        );
        measure::fill_tails(&mut out, &samples.op_latency_us, &samples.side_latency_us);
        crate::finish_spans(&mut out, cfg, spans);
    }
    measure::fill_peak_rss(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_metro_and_another_seed_moves_it() {
        let a = metro_env(7, 30, 40);
        assert_eq!(a, metro_env(7, 30, 40));
        let b = metro_env(8, 30, 40);
        assert_ne!(a.nodes[0].location, b.nodes[0].location);
        assert_ne!(a.users[0].location, b.users[0].location);
        assert_eq!((a.nodes.len(), a.users.len()), (30, 40));
        // The nine profiles cycle in order.
        assert_eq!(a.nodes[0].hw, a.nodes[9].hw);
        assert_eq!(a.federation.map(|f| f.shards), Some(4));
        assert!(a.pairwise_rtt_ms.is_empty());
    }

    #[test]
    fn a_small_metro_repeats_bit_for_bit() {
        let run = || {
            let s = Scenario::new(metro_env(3, 12, 10), Strategy::client_centric())
                .with_churn(ChurnTrace::paper_fig8())
                .seed(3)
                .duration(SimDuration::from_secs(5));
            fingerprint(&s.run())
        };
        let first = run();
        assert!(first.frames > 0);
        assert_eq!(first, run());
    }
}
