//! Allocation accounting for the spatial hot paths: steady-state
//! [`GridIndex`] `within_into` queries and `relocate` churn, and
//! [`CellList`] rebuilds, queries, overflow inserts and tombstones, must
//! not touch the heap.
//!
//! Uses a counting wrapper around the system allocator. The counter is
//! per thread, so each assertion brackets exactly the code under test
//! on its own thread while the test harness runs the others.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mlora_geo::{BBox, CellList, GridIndex, Point};
use mlora_simcore::SimRng;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it from
    // inside the allocator never allocates, even during thread exit.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_queries_and_relocates_do_not_allocate() {
    let mut rng = SimRng::new(7);
    let side = 10_000.0;
    let cell = 500.0;
    let items: Vec<(u32, Point)> = (0..2_000)
        .map(|i| {
            (
                i,
                Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)),
            )
        })
        .collect();
    let mut grid = GridIndex::build(items.iter().copied(), cell);
    let mut positions: Vec<Point> = items.iter().map(|&(_, p)| p).collect();
    let mut scratch: Vec<(u32, Point)> = Vec::new();
    let probes: Vec<Point> = (0..64)
        .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect();

    // One full cycle: every item crosses one cell per step and returns to
    // its start after `side / cell` steps, so the set of touched cells and
    // the per-cell occupancy maxima repeat exactly cycle over cycle.
    let mut cycle = |grid: &mut GridIndex<u32>, positions: &mut Vec<Point>| {
        for _ in 0..(side / cell) as usize {
            for (i, pos) in positions.iter_mut().enumerate() {
                let next = Point::new((pos.x + cell) % side, pos.y);
                assert!(grid.relocate(i as u32, *pos, next));
                *pos = next;
            }
            for &c in &probes {
                grid.within_into(c, 620.0, &mut scratch);
            }
        }
    };

    // Warm-up settles every bucket and the scratch vector at the cycle's
    // maximum capacity.
    cycle(&mut grid, &mut positions);

    // Steady state: the identical churn pattern must be allocation-free.
    let before = allocations();
    cycle(&mut grid, &mut positions);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "grid hot path allocated {} times in steady state",
        after - before
    );
}

#[test]
fn steady_state_cell_list_rebuilds_queries_and_tombstones_do_not_allocate() {
    let mut rng = SimRng::new(11);
    let side = 10_000.0;
    let cell = 500.0;
    let mut positions: Vec<Point> = (0..2_000)
        .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect();
    let mut cells = CellList::new(BBox::square(Point::ORIGIN, side), cell);
    let probes: Vec<Point> = (0..64)
        .map(|_| Point::new(rng.gen_range_f64(0.0, side), rng.gen_range_f64(0.0, side)))
        .collect();
    let mut found = 0usize;

    // One full cycle, as the engine runs it between and at drift
    // sweeps: every item moves one cell per step and returns to its
    // start after `side / cell` steps, so cell occupancies repeat cycle
    // over cycle. Each step rebuilds from the moved set, then ids
    // 2 000..2 050 join the overflow run, the last fifty of the filed
    // items are tombstoned, and the probes query.
    let mut cycle = |cells: &mut CellList, positions: &mut Vec<Point>| {
        for _ in 0..(side / cell) as usize {
            for pos in positions.iter_mut() {
                *pos = Point::new((pos.x + cell) % side, pos.y);
            }
            cells.rebuild((0u32..).zip(positions.iter().copied()));
            for id in 2_000..2_050 {
                cells.insert(id, positions[id as usize - 2_000]);
            }
            for id in 1_950..2_000 {
                assert!(cells.remove(id));
            }
            for &c in &probes {
                cells.for_each_slice_within(c, 620.0, |run| {
                    found += run.iter().filter(|(_, p)| p.distance(c) <= 620.0).count();
                });
            }
        }
    };

    // Warm-up settles the entry array, the slot table and the rebuild
    // scratch at the cycle's maximum sizes.
    cycle(&mut cells, &mut positions);

    // Steady state: the identical pattern must be allocation-free.
    let before = allocations();
    cycle(&mut cells, &mut positions);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "cell list hot path allocated {} times in steady state",
        after - before
    );
    assert!(found > 0, "the probes found nothing");
}
