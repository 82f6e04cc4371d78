//! Hot-path micro-benchmarks for the dense-state engine:
//!
//! * end-to-end engine throughput (events/sec) at 200- and 2000-bus
//!   fleet scale — the `BENCH_engine.json` scenarios,
//! * incremental `GridIndex` maintenance versus the from-scratch rebuild
//!   the engine used to perform every query window,
//! * `EventQueue` schedule/pop churn at simulation queue depths,
//! * one channel reception, of a frame heard alone and among five
//!   others.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlora_bench::{engine_throughput_config, HARNESS_SEED};
use mlora_geo::{GridIndex, Point};
use mlora_sim::probe::FlightScanProbe;
use mlora_sim::Engine;
use mlora_simcore::{EventQueue, SimRng, SimTime};

const AREA_SIDE: f64 = 24_495.0;
const CELL: f64 = 500.0;

fn fleet_positions(n: u32, seed: u64) -> Vec<(u32, Point)> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            (
                i,
                Point::new(
                    rng.gen_range_f64(0.0, AREA_SIDE),
                    rng.gen_range_f64(0.0, AREA_SIDE),
                ),
            )
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    // End-to-end engine throughput. One iteration is a full 1-hour run
    // of a flat-profile fleet; wall time per iteration divided into the
    // processed-event count gives events/sec (see engine_events bin).
    let mut group = c.benchmark_group("micro_engine");
    group.sample_size(5);
    for buses in [200usize, 2000] {
        let cfg = engine_throughput_config(buses);
        group.bench_function(format!("engine_run_{buses}_buses"), |b| {
            b.iter(|| {
                let mut engine = Engine::new(cfg.clone(), HARNESS_SEED);
                let events = engine.run_until(SimTime::MAX);
                (events, engine.finish())
            })
        });
    }
    group.finish();

    // Spatial index: what the engine used to do every query window
    // (rebuild from scratch) versus what it does now (relocate drifted
    // entries in place), both followed by one neighbour query.
    let items = fleet_positions(2_000, 4);
    c.bench_function("micro_engine/grid_rebuild_2000", |b| {
        b.iter(|| {
            let grid = GridIndex::build(items.iter().copied(), CELL);
            grid.within(Point::new(12_000.0, 12_000.0), 620.0).count()
        })
    });
    c.bench_function("micro_engine/grid_incremental_2000", |b| {
        let mut grid = GridIndex::build(items.iter().copied(), CELL);
        let mut positions: Vec<Point> = items.iter().map(|&(_, p)| p).collect();
        let mut scratch: Vec<(u32, Point)> = Vec::new();
        b.iter(|| {
            // ~52 m of drift per window at top speed, wrapping at the
            // area edge like the buses ping-ponging their routes.
            for (i, pos) in positions.iter_mut().enumerate() {
                let next = Point::new((pos.x + 52.0) % AREA_SIDE, pos.y);
                grid.relocate(i as u32, *pos, next);
                *pos = next;
            }
            grid.within_into(Point::new(12_000.0, 12_000.0), 620.0, &mut scratch);
            scratch.len()
        })
    });

    // One `Channel::receive`, shadowing on: the subject alone in range
    // (most receptions at any fleet size), and with five interferers in
    // range (the metro tier's crowded tail).
    // Their ns times EngineStats' `receptions` is the reception layer's
    // share of a run (EXPERIMENTS.md, "Reception decides before it
    // computes").
    for (name, audible) in [("reception_alone", 1), ("reception_crowded", 6)] {
        let mut probe = FlightScanProbe::new(HARNESS_SEED, audible);
        c.bench_function(format!("micro_engine/{name}"), |b| {
            b.iter(|| black_box(probe.receive_crowd()))
        });
    }

    // Event queue churn at a 2000-device queue depth: every pop
    // schedules a follow-up, the discrete-event steady state.
    c.bench_function("micro_engine/event_queue_churn_2000", |b| {
        let mut queue: EventQueue<u32> = EventQueue::with_capacity(4096);
        let mut rng = SimRng::new(9);
        for i in 0..2_000u32 {
            queue.schedule(SimTime::from_millis(rng.gen_range_u64(0, 180_000)), i);
        }
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..64 {
                let (t, ev) = queue.pop().expect("queue never drains");
                acc = acc.wrapping_add(u64::from(ev));
                queue.schedule(t + mlora_simcore::SimDuration::from_millis(180_000), ev);
            }
            black_box(acc)
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
