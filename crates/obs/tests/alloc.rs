//! The registry's recording-path allocation contract, enforced: after
//! registration, `Counter::inc`/`add`, `Gauge::set` and
//! `Histogram::record` perform **zero** heap allocations — the property
//! that lets the simulation kernels carry metrics inside the strict
//! zero-allocations-per-cycle bound of `tests/alloc_steady_state.rs`.
//! That includes a thread's *first* counter record, the one that picks
//! its counter cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so a libtest
    /// harness thread waking up mid-window cannot land in it; `const`
    /// initialisation keeps the access itself allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears its
    // locals down, where there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a plain
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_allocates_nothing_after_registration() {
    // Registration (cold path) may allocate.
    let counter = uvllm_obs::registry().counter("test.alloc.counter");
    let gauge = uvllm_obs::registry().gauge("test.alloc.gauge");
    let histogram = uvllm_obs::registry().histogram("test.alloc.histogram");

    // The first record of a thread that never recorded before resolves
    // the thread's counter cell; that must not allocate either.
    let first_record = std::thread::spawn(move || {
        let before = allocations();
        counter.inc();
        allocations() - before
    })
    .join()
    .expect("recording thread");
    assert_eq!(first_record, 0, "a thread's first counter record allocated");

    // Recording (hot path) must not: 100k mixed operations, zero heap.
    let before = allocations();
    for i in 0..100_000u64 {
        counter.inc();
        counter.add(i);
        gauge.set(i as i64);
        gauge.add(-1);
        histogram.record(i);
        histogram.record(u64::MAX - i);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations across 600k metric records \
         (the recording path must be allocation-free)"
    );
    assert!(counter.get() > 100_000 && histogram.count() >= 200_000);
}
