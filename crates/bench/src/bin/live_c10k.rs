//! C10K bench for the evented live manager: hold ten thousand
//! concurrent registered connections on a couple of reactor threads
//! and show that request latency stays bounded, written to
//! `BENCH_live_c10k.json`.
//!
//! The threaded server spent one OS thread (≥ one stack, two syscalls
//! of wakeup) per connection, which caps out far below this; the
//! reactor holds every connection in a slab entry. This binary
//! *asserts* the headline claim (nonzero exit on regression — CI
//! smoke-runs it with a reduced connection count):
//!
//! * every requested connection is connected, `Register`ed and still
//!   answering at the end (the manager's own `alive_count` must agree),
//!   and
//! * p99 heartbeat RTT over the held population stays under
//!   [`P99_FLOOR_MS`].
//!
//! The manager runs in a child process (`--serve` mode of this same
//! binary): a held connection costs one fd on each side, and a single
//! process would need 2×conns fds — over the 20 k `RLIMIT_NOFILE`
//! hard cap of typical unprivileged containers. Split, each side
//! needs only conns + ε. The parent talks to the child over its
//! stdin/stdout (addr handoff, final liveness check).
//!
//! Flags: `--conns` (default 10 000) and `--probes` (default 1 000);
//! `ARMADA_BENCH_DIR` redirects the report as everywhere else.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use armada_bench::{arg, print_table, Harness};
use armada_json::Json;
use armada_live::{LiveManager, LiveManagerConfig};
use armada_metrics::{percentile, BenchReport};
use armada_trace::Tracer;
use armada_types::{GeoPoint, NodeClass};
use armada_wire::{read_response, write_request, Codec, Request, Response, WireNodeStatus};

/// Headline floor: p99 heartbeat RTT across the held population.
const P99_FLOOR_MS: f64 = 250.0;
/// Per-exchange socket budget — localhost, so generous.
const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-process fd headroom over the held connections themselves.
fn raise_fd_limit(conns: usize) {
    let want = conns as u64 + 512;
    let got = armada_reactor::raise_nofile(want).expect("raise RLIMIT_NOFILE");
    assert!(
        got >= want,
        "RLIMIT_NOFILE {got} < {want}; raise the hard limit (ulimit -Hn)"
    );
}

fn status(id: u64) -> WireNodeStatus {
    WireNodeStatus {
        id,
        class: NodeClass::Volunteer,
        location: GeoPoint::new(44.98, -93.26),
        attached_users: 0,
        load_score: 0.25,
    }
}

/// One request/response exchange on an already-open connection.
fn rpc(stream: &mut TcpStream, request: &Request) -> std::io::Result<Response> {
    write_request(stream, Codec::Binary, request)?;
    read_response(stream)
        .map(|(response, _)| response)
        .map_err(std::io::Error::from)
}

/// Child mode: bind the manager, hand the address to the parent on
/// stdout, answer `alive` queries, exit when the parent closes stdin.
fn serve(conns: usize) {
    raise_fd_limit(conns);
    let (manager, addr) = LiveManager::bind_with(
        LiveManagerConfig {
            threads: 2,
            ..LiveManagerConfig::default()
        },
        0,
        Tracer::disabled(),
    )
    .expect("bind manager");
    println!("ADDR {addr}");
    std::io::stdout().flush().expect("flush addr");
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "alive" {
            println!("ALIVE {}", manager.alive_count());
            std::io::stdout().flush().expect("flush alive");
        }
    }
}

fn main() {
    let conns: usize = arg("--conns", 10_000);
    if std::env::args().any(|a| a == "--serve") {
        serve(conns);
        return;
    }
    let harness = Harness::from_env();
    let probes: usize = arg("--probes", 1_000);
    raise_fd_limit(conns);

    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--serve", "--conns", &conns.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn manager process");
    let mut child_in = child.stdin.take().expect("child stdin");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    child_out.read_line(&mut line).expect("read child addr");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("ADDR ")
        .expect("ADDR line")
        .parse()
        .expect("manager addr");

    let mut report = BenchReport::start("live_c10k", harness.threads());

    // ---- connect + register, sequentially, holding every socket -----
    let connect_started = Instant::now();
    let mut held: Vec<TcpStream> = Vec::with_capacity(conns);
    for id in 0..conns as u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(RPC_TIMEOUT)).expect("timeout");
        stream
            .set_write_timeout(Some(RPC_TIMEOUT))
            .expect("timeout");
        let registered = rpc(
            &mut stream,
            &Request::Register {
                status: status(id),
                listen_addr: format!("127.0.0.1:{}", 10_000 + (id % 50_000)),
            },
        )
        .expect("register");
        assert_eq!(registered, Response::Registered);
        held.push(stream);
    }
    let connect_secs = connect_started.elapsed().as_secs_f64();

    // ---- probe latency across the held population --------------------
    // Strided so samples spread over the whole slab, not one hot entry.
    let stride = (held.len() / probes.min(held.len())).max(1) | 1;
    let mut rtts_us: Vec<f64> = Vec::with_capacity(probes);
    for i in 0..probes {
        let idx = (i * stride) % held.len();
        let started = Instant::now();
        let ack = rpc(
            &mut held[idx],
            &Request::Heartbeat {
                status: status(idx as u64),
            },
        )
        .expect("heartbeat");
        rtts_us.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(ack, Response::HeartbeatAck);
    }
    let [p50, p90, p99, p999] =
        [0.50, 0.90, 0.99, 0.999].map(|q| percentile(&rtts_us, q).expect("probes were sent"));

    // Every connection still counts as a live registration: nothing
    // was silently dropped while the population was held.
    child_in.write_all(b"alive\n").expect("query child");
    child_in.flush().expect("flush query");
    line.clear();
    child_out.read_line(&mut line).expect("read alive count");
    let alive: usize = line
        .trim()
        .strip_prefix("ALIVE ")
        .expect("ALIVE line")
        .parse()
        .expect("alive count");

    report.record_with(
        "c10k/connect",
        0.0,
        conns as u64,
        vec![
            ("connections_held".into(), Json::Int(held.len() as i64)),
            ("connect_wall_secs".into(), Json::Float(connect_secs)),
            (
                "connects_per_sec".into(),
                Json::Float(held.len() as f64 / connect_secs),
            ),
        ],
    );
    report.record_with(
        "c10k/heartbeat_rtt",
        0.0,
        probes as u64,
        vec![
            ("p50_us".into(), Json::Float(p50)),
            ("p90_us".into(), Json::Float(p90)),
            ("p99_us".into(), Json::Float(p99)),
            ("p999_us".into(), Json::Float(p999)),
        ],
    );
    report.attach("connections_held", Json::Int(held.len() as i64));
    report.attach("alive_registrations", Json::Int(alive as i64));

    print_table(
        &format!("Heartbeat RTT with {} connections held", held.len()),
        &["percentile", "µs"],
        &[
            vec!["p50".into(), format!("{p50:.1}")],
            vec!["p90".into(), format!("{p90:.1}")],
            vec!["p99".into(), format!("{p99:.1}")],
            vec!["p99.9".into(), format!("{p999:.1}")],
        ],
    );

    let path = report.write().expect("write bench report");
    println!(
        "\nbench report: {} ({} runs, {:.0} ms wall)",
        path.display(),
        report.run_count(),
        report.wall_ms()
    );

    drop(held);
    drop(child_in); // EOF ends the child's stdin loop
    let _ = child.wait();

    let mut regressions = Vec::new();
    if alive < conns {
        regressions.push(format!("alive registrations {alive} < {conns}"));
    }
    if p99 > P99_FLOOR_MS * 1_000.0 {
        regressions.push(format!(
            "p99 heartbeat RTT {:.1}ms over the {P99_FLOOR_MS}ms floor",
            p99 / 1_000.0
        ));
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("REGRESSION: {r}");
        }
        std::process::exit(1);
    }
    println!(
        "live_c10k OK: {conns} connections held, p99 heartbeat RTT {:.2}ms",
        p99 / 1_000.0
    );
}
