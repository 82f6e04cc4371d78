//! Per-layer kernels: the public functions each substrate crate
//! contributes to an event, timed from here on inputs taken from the
//! workload itself — its network, fleet, device range, PHY and policy
//! configuration and measured collisions per frame.

use std::hint::black_box;

use mlora_core::Beacon;
use mlora_geo::{GridIndex, Point};
use mlora_mac::{
    AppMessage, DataQueue, DutyCycleTracker, UplinkFrame, MAX_BUNDLE, MAX_BUNDLE_BYTES,
};
use mlora_phy::{resolve_collision, AirtimeTable, CAPTURE_MARGIN_DB};
use mlora_sim::prelude::*;
use mlora_simcore::{EventQueue, MessageId, NodeId, SimDuration, SimRng, SimTime, Slab};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Timed batches per kernel; the median batch is reported.
const BATCHES: usize = 5;

/// Cost per operation of each kernel, nanoseconds unless named
/// otherwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    pub event_queue_cycle: f64,
    pub slab_cycle: f64,
    pub rng_draw: f64,
    pub grid_within: f64,
    /// Mean neighbours a range query returns.
    pub grid_within_hits: f64,
    pub grid_relocate: f64,
    pub position: f64,
    pub sample_rssi: f64,
    pub mean_rssi: f64,
    pub capture: f64,
    pub airtime_lookup: f64,
    pub mac_queue_cycle: f64,
    pub duty_cycle: f64,
    pub frame_build: f64,
    pub decide: f64,
    pub sink_slot: f64,
    pub beacon_metric: f64,
}

/// Runs `batch` (which performs `ops` operations) once untimed, then
/// [`BATCHES`] times under a span, and returns the median cost per
/// operation in nanoseconds.
fn kernel(tracer: &mut Tracer, name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ((), took) = tracer.timed_ops(name, |_| batch(), |()| ops);
            took.as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_op)
}

/// Times every kernel for workload `w`. `engine` is a freshly built
/// engine of the workload (for its network); `collisions_per_frame` is
/// what the workload's report measured.
pub fn run(
    w: Workload,
    cfg: &SimConfig,
    engine: &Engine,
    collisions_per_frame: f64,
    tracer: &mut Tracer,
) -> Costs {
    let mut costs = Costs::default();
    let net = engine.network();
    let d2d = cfg.environment.d2d_range_m();
    let mid = SimTime::ZERO + SimDuration::from_millis(w.run_span().as_millis() / 2);
    let fleet: Vec<(NodeId, Point)> = net
        .active_trips(mid)
        .map(|trip| (trip.node(), net.position(trip.node(), mid)))
        .collect();
    let n = fleet.len() as u64;
    let mut rng = SimRng::new(0x6b65_726e);

    // simcore: pop + schedule at a pending-set depth of one event per
    // bus, the discrete-event steady state.
    {
        let period = SimDuration::from_secs(180);
        let mut queue: EventQueue<u32> = EventQueue::with_capacity(2 * w.fleet());
        for i in 0..w.fleet() as u32 {
            queue.schedule(
                SimTime::from_millis(rng.gen_range_u64(0, period.as_millis())),
                i,
            );
        }
        costs.event_queue_cycle = kernel(tracer, "kernel.simcore.queue_cycle", 100_000, || {
            for _ in 0..100_000 {
                let (t, ev) = queue.pop().expect("queue never drains");
                queue.schedule(t + period, black_box(ev));
            }
        });
    }
    // simcore: one flight entering and one leaving the slab.
    {
        let mut slab: Slab<[u64; 4]> = Slab::with_capacity(64);
        let mut live: Vec<_> = (0..64u64).map(|i| slab.insert([i; 4])).collect();
        let mut oldest = 0;
        costs.slab_cycle = kernel(tracer, "kernel.simcore.slab_cycle", 100_000, || {
            for i in 0..100_000u64 {
                black_box(slab.remove(live[oldest]));
                live[oldest] = slab.insert([i; 4]);
                oldest = (oldest + 1) % live.len();
            }
        });
    }
    costs.rng_draw = kernel(tracer, "kernel.simcore.rng_draw", 200_000, || {
        let mut acc = 0u64;
        for _ in 0..200_000 {
            acc ^= rng.gen_u64();
        }
        black_box(acc);
    });

    // geo: the neighbour query of one transmission, and the drift sweep's
    // relocation, over the workload's own fleet at its own cell size.
    if n > 0 {
        let cell = d2d.max(200.0);
        let mut grid = GridIndex::build(fleet.iter().map(|&(id, p)| (id.index() as u32, p)), cell);
        let mut found: Vec<(u32, Point)> = Vec::new();
        let queries = n.min(2_000);
        let mut hits = 0u64;
        costs.grid_within = kernel(tracer, "kernel.geo.grid_within", queries, || {
            hits = 0;
            for &(_, p) in fleet.iter().take(queries as usize) {
                grid.within_into(black_box(p), d2d, &mut found);
                hits += found.len() as u64;
            }
        });
        costs.grid_within_hits = hits as f64 / queries as f64;
        costs.grid_relocate = kernel(tracer, "kernel.geo.grid_relocate", 2 * n, || {
            for &(id, p) in &fleet {
                let drifted = Point::new(p.x + 52.0, p.y);
                grid.relocate(id.index() as u32, p, drifted);
                grid.relocate(id.index() as u32, drifted, p);
            }
        });

        // mobility: each bus's position through its segment cursor, time
        // ascending per bus as the engine asks for it.
        let mut hints = vec![0u32; net.trips().len()];
        let mut t = mid;
        costs.position = kernel(tracer, "kernel.mobility.position", n, || {
            t += SimDuration::from_secs(1);
            for &(id, _) in &fleet {
                black_box(net.position_hinted(id, t, &mut hints[id.index()]));
            }
        });
    }

    // phy: one shadowed RSSI draw, its mean part alone, capture among
    // the frames that collide on this workload, and an airtime lookup.
    let tx_power = cfg.phy.tx_power_dbm;
    // Link lengths from a fifth of the device range up to all of it.
    let link_m = |i: u32| d2d * (0.2 + 0.8 * f64::from(i % 64) / 64.0);
    costs.sample_rssi = kernel(tracer, "kernel.phy.sample_rssi", 100_000, || {
        let mut acc = 0.0;
        for i in 0..100_000 {
            let d = d2d * (0.2 + 0.8 * f64::from(i % 64) / 64.0);
            acc += cfg
                .path_loss
                .sample_rssi_dbm(tx_power, black_box(d), &mut rng);
        }
        black_box(acc);
    });
    costs.mean_rssi = kernel(tracer, "kernel.phy.mean_rssi", 100_000, || {
        let mut acc = 0.0;
        for i in 0..100_000 {
            acc += cfg.path_loss.mean_rssi_dbm(tx_power, black_box(link_m(i)));
        }
        black_box(acc);
    });
    {
        let colliding = (collisions_per_frame.round() as u32 + 1).max(2);
        let frames: Vec<(u32, f64)> = (0..colliding)
            .map(|i| (i, -70.0 - 1.5 * f64::from(i)))
            .collect();
        let sensitivity = cfg.phy.sensitivity_dbm();
        costs.capture = kernel(tracer, "kernel.phy.capture", 100_000, || {
            for _ in 0..100_000 {
                black_box(resolve_collision(
                    black_box(&frames),
                    sensitivity,
                    CAPTURE_MARGIN_DB,
                ));
            }
        });
    }
    {
        let table = AirtimeTable::new(&cfg.phy);
        costs.airtime_lookup = kernel(tracer, "kernel.phy.airtime_lookup", 200_000, || {
            let mut acc = 0u64;
            for i in 0..200_000usize {
                acc += table.lookup(black_box(15 + i % 240)).as_millis();
            }
            black_box(acc);
        });
    }

    // mac: a bundle's worth of messages through a device queue, one
    // duty-cycle decision, one frame built.
    let message = |i: u64| AppMessage::new(MessageId::new(i), NodeId::new(0), SimTime::ZERO);
    {
        let mut queue = DataQueue::new(cfg.queue_capacity);
        let mut next = 0u64;
        for _ in 0..MAX_BUNDLE {
            queue.push(message(next));
            next += 1;
        }
        costs.mac_queue_cycle = kernel(tracer, "kernel.mac.queue_cycle", 10_000, || {
            for _ in 0..10_000 {
                for _ in 0..MAX_BUNDLE {
                    queue.push(message(next));
                    next += 1;
                }
                let bundle = queue.peek_front_within(MAX_BUNDLE, MAX_BUNDLE_BYTES);
                black_box(queue.remove(&bundle));
            }
        });
    }
    {
        let mut tracker = DutyCycleTracker::new(cfg.duty_cycle);
        let airtime = SimDuration::from_millis(368);
        let mut t = SimTime::ZERO;
        costs.duty_cycle = kernel(tracer, "kernel.mac.duty_cycle", 100_000, || {
            for _ in 0..100_000 {
                t = tracker.next_opportunity(t);
                tracker.record_tx(t, airtime);
                t += airtime;
            }
            black_box(t);
        });
    }
    {
        let bundle: Vec<AppMessage> = (0..MAX_BUNDLE as u64).map(message).collect();
        costs.frame_build = kernel(tracer, "kernel.mac.frame_build", 50_000, || {
            for _ in 0..50_000 {
                let frame = UplinkFrame::new(NodeId::new(1), bundle.clone(), 42.0, MAX_BUNDLE);
                black_box(frame.payload_bytes());
            }
        });
    }

    // core: the workload's own policy deciding on an overheard beacon,
    // digesting a sink slot, and composing its beacon metric.
    {
        let mut state = cfg.routing_state();
        state.on_sink_slot(SimTime::from_secs(180), Some(2_000.0), 36.6);
        let beacon = Beacon {
            sender: NodeId::new(9),
            rca_etx: 42.0,
            queue_len: 3,
        };
        let now = SimTime::from_secs(360);
        costs.decide = kernel(tracer, "kernel.core.decide", 100_000, || {
            for _ in 0..100_000 {
                black_box(state.decide(now, 36.6, black_box(20), &beacon, -92.0));
            }
        });
        costs.beacon_metric = kernel(tracer, "kernel.core.beacon_metric", 100_000, || {
            for _ in 0..100_000 {
                black_box(state.beacon_metric_at(now, black_box(20)));
            }
        });
        let mut t = now;
        costs.sink_slot = kernel(tracer, "kernel.core.sink_slot", 100_000, || {
            for i in 0..100_000u32 {
                t += SimDuration::from_secs(37);
                let capacity = (i % 4 != 0).then_some(2_000.0);
                state.on_sink_slot(t, black_box(capacity), 36.6);
            }
        });
    }
    costs
}
