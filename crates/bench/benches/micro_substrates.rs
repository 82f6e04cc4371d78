//! Micro-benchmarks of the substrates: airtime, path loss, collisions,
//! spatial index, queues, duty cycling, and the scenario container's
//! byte path (framing, checksums, copies) in MiB/s.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mlora_geo::{GridIndex, Point};
use mlora_mac::{AppMessage, DataQueue, DutyCycleTracker};
use mlora_phy::{resolve_collision, time_on_air, LogDistanceModel, PhyParams, CAPTURE_MARGIN_DB};
use mlora_scenario_io::{ScenarioReader, ScenarioWriter};
use mlora_simcore::{MessageId, NodeId, SimDuration, SimRng, SimTime};

fn bench(c: &mut Criterion) {
    let phy = PhyParams::paper_default();
    c.bench_function("micro_substrates/time_on_air_255B", |b| {
        b.iter(|| time_on_air(black_box(255), &phy))
    });

    let model = LogDistanceModel::paper_default();
    c.bench_function("micro_substrates/sample_rssi", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| model.sample_rssi_dbm(14.0, black_box(740.0), &mut rng))
    });

    c.bench_function("micro_substrates/resolve_collision_8", |b| {
        let frames: Vec<(u32, f64)> = (0..8).map(|i| (i, -80.0 - f64::from(i) * 2.0)).collect();
        b.iter(|| resolve_collision(&frames, -123.0, CAPTURE_MARGIN_DB))
    });

    c.bench_function("micro_substrates/grid_build_query_2000", |b| {
        let mut rng = SimRng::new(4);
        let pts: Vec<(u32, Point)> = (0..2000)
            .map(|i| {
                (
                    i,
                    Point::new(
                        rng.gen_range_f64(0.0, 24_495.0),
                        rng.gen_range_f64(0.0, 24_495.0),
                    ),
                )
            })
            .collect();
        b.iter(|| {
            let grid = GridIndex::build(pts.iter().copied(), 500.0);
            grid.within(Point::new(12_000.0, 12_000.0), 500.0).count()
        })
    });

    c.bench_function("micro_substrates/queue_cycle", |b| {
        b.iter(|| {
            let mut q = DataQueue::new(256);
            for i in 0..64u64 {
                q.push(AppMessage::new(
                    MessageId::new(i),
                    NodeId::new(0),
                    SimTime::ZERO,
                ));
            }
            let bundle = q.peek_front(12);
            q.remove(&bundle);
            q.len()
        })
    });

    c.bench_function("micro_substrates/duty_cycle_day", |b| {
        b.iter(|| {
            let mut dc = DutyCycleTracker::new(0.01);
            let toa = SimDuration::from_millis(368);
            let mut t = SimTime::ZERO;
            let end = SimTime::from_secs(86_400);
            while t < end {
                t = dc.next_opportunity(t);
                if t >= end {
                    break;
                }
                dc.record_tx(t, toa);
                t += toa;
            }
            dc.tx_count()
        })
    });

    // The persistence byte path: 4 MiB of 1 KiB opaque records, which
    // the writer cuts into 64 KiB checksummed blocks. Writing is encode
    // + CRC + copy-out per block; reading is copy-in + CRC per block and
    // a borrow per record — nothing is decoded, so what is timed is what
    // every `.mlsc`/`.mlss` byte pays whatever it means.
    const RECORDS: u64 = 4096;
    let record: Vec<u8> = {
        let mut rng = SimRng::new(5);
        (0..1024).map(|_| rng.gen_u64() as u8).collect()
    };
    let write = |capacity: usize| {
        let mut w = ScenarioWriter::new(Vec::with_capacity(capacity)).expect("vec sink");
        w.begin_section(10, RECORDS).expect("vec sink");
        for _ in 0..RECORDS {
            w.enc().put_bytes(&record);
            w.end_record().expect("vec sink");
        }
        w.end_section().expect("vec sink");
        w.finish().expect("vec sink")
    };
    let file = write(0);
    let mut group = c.benchmark_group("micro_substrates");
    group.throughput(Throughput::Bytes(file.len() as u64));
    group.bench_function("container_write_4MiB", |b| {
        b.iter(|| write(file.len()).len())
    });
    group.bench_function("container_read_4MiB", |b| {
        b.iter(|| {
            let mut r = ScenarioReader::new(black_box(&file[..])).expect("header");
            let (_, n) = r.next_section().expect("section").expect("present");
            let mut bytes = 0;
            for _ in 0..n {
                r.begin_record().expect("record");
                bytes += r.byte_slice().expect("blob").len();
            }
            assert!(r.next_section().expect("end marker").is_none());
            bytes
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
