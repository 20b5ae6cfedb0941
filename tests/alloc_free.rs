//! The atomic path is allocation-free in steady state: the lane buffer an
//! SM takes from the memory system for an atomic request carries its lane
//! ops in and its results out, and goes back to the memory system for
//! reuse. Run alone (this file is its own test binary) under a counting
//! global allocator, the hashtable's extra insertions — each a lock spin
//! of atomics — must cost next to no heap allocations per extra atomic
//! transaction.

use bows_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every call that returns fresh memory (allocations
/// and reallocations; frees are not counted).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and atomic transactions of one verified hashtable run
/// with `per_thread` insertions per thread.
fn run(per_thread: usize) -> (u64, u64) {
    let cfg = GpuConfig::gtx480();
    let ht = Hashtable::with_params(1024, per_thread, 128, 128);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = run_baseline(&cfg, &ht, BasePolicy::Gto).expect("the hashtable runs");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    result.verified.expect("the hashtable verifies");
    (allocs, result.mem.atomic_transactions)
}

/// The slope between one and four insertions per thread: setup, launch
/// and verification cost the same in both runs and cancel.
#[test]
fn extra_atomics_allocate_nothing() {
    let (allocs_1, atomics_1) = run(1);
    let (allocs_4, atomics_4) = run(4);
    assert!(
        atomics_4 > 2 * atomics_1,
        "{atomics_1} -> {atomics_4} atomics"
    );
    let slope = allocs_4.saturating_sub(allocs_1) as f64 / (atomics_4 - atomics_1) as f64;
    assert!(
        slope < 0.1,
        "{slope:.3} allocations per extra atomic transaction \
         ({allocs_1} -> {allocs_4} allocations, {atomics_1} -> {atomics_4} atomics)"
    );
}
