//! Narrating to a disabled tracer allocates nothing: an event's fields
//! are built only when a tracer takes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armada_node::{EdgeNode, Narrator};
use armada_trace::{MemorySink, Severity, Tracer};
use armada_types::{GeoPoint, HardwareProfile, NodeClass, NodeId, SimDuration, UserId};

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// constant-initialised thread-local that never allocates or touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations this thread made while `run` ran.
fn allocations(run: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every event the node narrator writes, once.
fn narrate_all(tracer: &Tracer, node: &EdgeNode) {
    let (narrate, user) = (Narrator::at(tracer, 1), UserId::new(7));
    narrate.joined(node, user, true);
    narrate.joined(node, user, false);
    narrate.unexpected_join(node, user);
    narrate.left(node, user, true);
    narrate.whatif_refresh(node.id(), SimDuration::from_millis(40));
}

#[test]
fn a_disabled_tracer_builds_no_fields() {
    let node = EdgeNode::new(
        NodeId::new(1),
        NodeClass::Volunteer,
        HardwareProfile::new("test", 4, 20.0),
        GeoPoint::new(44.98, -93.26),
        SimDuration::from_millis(40),
        0.25,
    );
    let disabled = Tracer::disabled();
    assert_eq!(allocations(|| narrate_all(&disabled, &node)), 0);
    // The count sees fields being built: a tracer that takes the events
    // does build them.
    let taking = Tracer::with_sink(Box::new(MemorySink::new()), Severity::Debug);
    assert!(allocations(|| narrate_all(&taking, &node)) > 0);
}
