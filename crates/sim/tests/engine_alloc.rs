//! Allocation accounting for the engine's flight hot path: the
//! flight-ring time-overlap scan (launch and ring trim → scan → near
//! cut → reception, with the deferred slab sweep recycling slots) must
//! not touch the heap in steady state.
//!
//! Uses a counting wrapper around the system allocator; the counter is
//! a process-wide total, so the assertion brackets exactly the code
//! under test and nothing else runs concurrently (integration tests in
//! this binary run on one thread: there is only one test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mlora_sim::probe::FlightScanProbe;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn flight_scan_does_not_allocate() {
    // 8 launches per round with advancing time, so the slab reaches its
    // steady-state power-of-two size during warm-up and the deferred
    // sweep recycles slots from then on.
    let mut scan = FlightScanProbe::new(2020, 8);
    let warm = scan.churn(64);

    let before = allocations();
    let digest = scan.churn(64);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "flight-ring scan path allocated {} times in steady state",
        after - before
    );
    // The churn is deterministic per round window, not idempotent:
    // consume both digests so neither pass can be optimised away.
    std::hint::black_box((warm, digest));
}
