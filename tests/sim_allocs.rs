//! The simulator's frame loop allocates next to nothing: a frame's four
//! events queue by value and a node's actions land in a buffer the
//! world keeps, so what a longer run allocates more than a shorter one
//! is the control plane's closures (probe rounds, heartbeats, churn),
//! not its frames.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use armada::churn::ChurnTrace;
use armada::core::{EnvSpec, Scenario, Strategy};
use armada::types::SimDuration;

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

/// The most one delivered frame may allocate, at the margin. Measured
/// on this scenario: 0.27 (7.13 when every event was a boxed closure
/// and the node core returned a fresh `Vec` at each step). The bound
/// leaves 30 % of headroom.
const PER_FRAME: f64 = 0.35;

/// Allocations and delivered frames of one run of the scenario: forty
/// users of the emulation environment (its nine nodes, latencies from
/// the parametric model) with the paper's Fig. 8 churn trace joining
/// and removing volunteers, seed 8, for `secs` virtual seconds.
fn run(secs: u64) -> (u64, usize) {
    let mut env = EnvSpec::emulation(40, 8);
    env.pairwise_rtt_ms.clear();
    let scenario = Scenario::new(env, Strategy::client_centric())
        .with_churn(ChurnTrace::paper_fig8())
        .duration(SimDuration::from_secs(secs))
        .seed(8);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = scenario.run();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, result.recorder().len())
}

/// A 90 s run against a 30 s one: the difference is a virtual minute
/// of the steady state, set-up and warm-up cancelled out.
#[test]
fn a_simulated_frame_allocates_next_to_nothing() {
    let (short_allocs, short_frames) = run(30);
    let (long_allocs, long_frames) = run(90);
    assert!(
        long_frames > short_frames + 1_000,
        "{short_frames} → {long_frames} frames"
    );
    let per_frame = (long_allocs - short_allocs) as f64 / (long_frames - short_frames) as f64;
    assert!(
        per_frame <= PER_FRAME,
        "{per_frame:.3} allocations per delivered frame, at most {PER_FRAME} allowed \
         ({short_allocs} over {short_frames} frames, {long_allocs} over {long_frames})"
    );
}
