//! Every `LiveClient` session of a process runs on one event loop:
//! sessions started from one thread through `start_session` all report,
//! and the process's thread count does not grow with the number in
//! flight.

use std::sync::Mutex;
use std::time::Duration;

use armada_live::{LiveClient, LiveManager, LiveNode, NodeConfig, PendingSession};
use armada_types::{ClientConfig, GeoPoint, HardwareProfile, NodeClass};

/// The process thread count is shared by every test of this binary, so
/// no test may overlap one that reads it.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Frames a session streams, paced at the client's default rate: long
/// enough that every session started is still in flight when counted.
const FRAMES: usize = 10;

/// OS threads in this process, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// `sessions` sessions, each of a client of its own with TopN 1, all
/// started from this thread against one manager and one node: every
/// session streams, and the thread count with all of them in flight is
/// the count with ten. (All of them join one node at once, so many lose
/// Algorithm 1's sequence race; a lost race sends a session back to
/// discovery on the client core's retry schedule and never counts
/// toward giving up, so each one joins in the end.)
fn sessions_share_one_loop(sessions: usize) {
    let _serial = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let location = GeoPoint::new(44.98, -93.26);
    let (_manager, manager) = LiveManager::bind().unwrap();
    let node = NodeConfig {
        id: 1,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("loop", 4, 0.001).with_concurrency(4),
        location,
        one_way_delay: Duration::ZERO,
    };
    let (_node, _) = LiveNode::bind(node, Some(manager)).unwrap();
    let config = ClientConfig::default().with_top_n(1);
    let clients: Vec<LiveClient> = (1..=sessions as u64)
        .map(|id| LiveClient::new(id, location, config))
        .collect();
    let start = |client: &LiveClient| client.start_session(&[manager], FRAMES);
    let mut pending: Vec<PendingSession> = clients[..10].iter().map(start).collect();
    std::thread::sleep(Duration::from_millis(100));
    let with_ten = process_threads();
    pending.extend(clients[10..].iter().map(start));
    std::thread::sleep(Duration::from_millis(100));
    let with_all = process_threads();
    let mut streamed = 0;
    for session in pending {
        if let Ok(report) = session.wait() {
            assert_eq!(report.latencies.len(), FRAMES);
            streamed += 1;
        }
    }
    assert_eq!(streamed, sessions, "sessions that streamed");
    assert_eq!(
        with_ten, with_all,
        "threads with 10 sessions in flight against {sessions}"
    );
}

#[test]
fn sixty_four_sessions_share_one_loop_thread() {
    sessions_share_one_loop(64);
}

#[test]
#[ignore = "holds ~10 000 descriptors; CI runs it in release with --ignored"]
fn two_thousand_sessions_share_one_loop_thread() {
    let want = 12_288;
    let got = armada_reactor::raise_nofile(want).unwrap();
    assert!(
        got >= want,
        "RLIMIT_NOFILE {got} < {want}: raise ulimit -Hn"
    );
    sessions_share_one_loop(2_000);
}
