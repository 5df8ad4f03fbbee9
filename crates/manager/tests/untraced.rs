//! Narrating to a disabled tracer allocates nothing: an event's fields
//! are built only when a tracer takes it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armada_manager::Narrator;
use armada_trace::{MemorySink, Severity, Tracer};
use armada_types::{NodeId, ShardId};

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

/// Every event the manager narrator writes, once.
fn narrate_all(tracer: &Tracer) {
    let narrate = Narrator::at(tracer, 1);
    narrate.registered(NodeId::new(3), ShardId::new(1));
    narrate.pruned(2);
    narrate.synced(ShardId::new(1), ShardId::new(0), 5);
}

#[test]
fn a_disabled_tracer_builds_no_fields() {
    let disabled = Tracer::disabled();
    assert_eq!(allocations(|| narrate_all(&disabled)), 0);
    // The count sees fields being built: a tracer that takes the events
    // does build them.
    let taking = Tracer::with_sink(Box::new(MemorySink::new()), Severity::Debug);
    assert!(allocations(|| narrate_all(&taking)) > 0);
}
