//! Regression guard on cold UDP probe latency against the evented
//! node.
//!
//! The old node polled its UDP socket on a 250 ms tick; the reactor
//! folds the socket into the readiness loop, so a cold probe must
//! answer at transport speed (`live.node.udp_probe_rtt_us_p50` on the
//! `perf` ladder records it). The bound is an absolute floor sized for
//! noisy CI boxes; it fails if probe latency ever creeps toward
//! anything tick-shaped.

use std::time::{Duration, Instant};

use armada::live::{LiveNode, NodeConfig};
use armada_types::{GeoPoint, HardwareProfile, NodeClass};
use armada_wire::{recv_response, send_request, Codec, Request, Response, UdpTransport};

/// Noisy-CI absolute floor: even a slow box answers a localhost
/// datagram well inside this.
const FLOOR: Duration = Duration::from_millis(5);

fn probe_once(addr: std::net::SocketAddr) -> Duration {
    let started = Instant::now();
    let mut transport = UdpTransport::connect(addr).expect("udp bind");
    transport
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    send_request(&mut transport, Codec::Binary, &Request::RttProbe).expect("probe send");
    let (pong, _) = recv_response(&mut transport).expect("probe recv");
    assert_eq!(pong, Response::RttPong);
    started.elapsed()
}

#[test]
fn cold_udp_probe_stays_at_transport_speed() {
    let cfg = NodeConfig {
        id: 1,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("probe", 2, 5.0).with_concurrency(2),
        location: GeoPoint::new(44.98, -93.26),
        one_way_delay: Duration::ZERO,
    };
    let (_node, addr) = LiveNode::bind(cfg, None).expect("bind node");

    // Warm route caches and the reactor's first-datagram path.
    for _ in 0..8 {
        probe_once(addr);
    }
    let mut samples: Vec<Duration> = (0..50).map(|_| probe_once(addr)).collect();
    samples.sort();
    let median = samples[samples.len() / 2];

    assert!(
        median <= FLOOR,
        "cold UDP probe median {median:?} over budget {FLOOR:?} — \
         is something polling instead of waiting on readiness?"
    );
}
