//! The frame path allocates nothing: across the client, the node's
//! reactor loop and its core (which appends its actions and completions
//! to buffers it keeps), an unpaced frame costs no heap allocation,
//! counted over the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use armada_live::{LiveClient, LiveManager, LiveNode, NodeConfig};
use armada_types::{ClientConfig, GeoPoint, HardwareProfile, NodeClass};

/// The system allocator, counting every allocation and reallocation
/// any thread of this process asks it for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic and
// never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most a hundred frames may allocate, both ends together: none is
/// the frame path's own, and one in a hundred leaves room for what
/// grows with a longer session (a few, counted: 1 to 8 in 2 000).
const PER_HUNDRED_FRAMES: f64 = 1.0;

/// Allocations the process made while `client` ran one `frames`-frame
/// session.
fn session_allocations(client: &LiveClient, manager: std::net::SocketAddr, frames: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = client.run_session(manager, frames).expect("session runs");
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(report.latencies.len(), frames);
    assert_eq!(report.failovers, 0);
    after - before
}

/// A 2 001-frame session against a 1-frame one, on one manager, one
/// node (a microsecond of work a frame, answered from the loop thread)
/// and one client that does not pace its frames: the difference is two
/// thousand frames' worth. A heartbeat or a what-if refresh landing in
/// one of the two sessions is not the frame path, so the least of three
/// tries is the one judged.
#[test]
fn a_frame_allocates_nothing() {
    let (_manager, manager_addr) = LiveManager::bind().unwrap();
    let node = NodeConfig {
        id: 1,
        class: NodeClass::Volunteer,
        hw: HardwareProfile::new("frame", 4, 0.001).with_concurrency(4),
        location: GeoPoint::new(44.98, -93.26),
        one_way_delay: Duration::ZERO,
    };
    let (_node, _) = LiveNode::bind(node, Some(manager_addr)).unwrap();
    let mut config = ClientConfig::default().with_top_n(1);
    // A frame interval that rounds to zero: no sleep between frames.
    config.max_fps = 1e9;
    let client = LiveClient::new(1, GeoPoint::new(44.98, -93.26), config);
    // Warm-up: buffers reach the sizes a session needs.
    session_allocations(&client, manager_addr, 10);

    let extra = 2_000;
    let per_frame = (0..3)
        .map(|_| {
            let one = session_allocations(&client, manager_addr, 1);
            let many = session_allocations(&client, manager_addr, 1 + extra);
            many.saturating_sub(one) as f64 / extra as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        per_frame * 100.0 <= PER_HUNDRED_FRAMES,
        "{per_frame:.4} allocations per frame, at most {PER_HUNDRED_FRAMES} per hundred allowed"
    );
}
