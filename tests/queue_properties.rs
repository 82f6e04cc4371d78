//! Property-based tests over the event queue: under arbitrary
//! interleavings of schedules and pops — duplicate timestamps (where the
//! packed `(time, seq)` key decides) and far-future jumps included —
//! the heap pops what a sorted list would, and a queue rebuilt from its
//! checkpoint records mid-workload is indistinguishable from the one
//! that was never interrupted.
//!
//! The engine keeps the timetable out of the queue (a cursor over the
//! sorted trips, merged with the queue by `(time, seq)`); the second
//! half of this file pins that the merged source hands the loop exactly
//! the lifecycle and disruption events, under exactly the keys, that
//! seeding every trip into the queue up front did — and that what the
//! engine holds follows the buses on the road, not the service day.

use mlora::core::Scheme;
use mlora::geo::{BBox, Point, Polyline};
use mlora::mobility::{BusNetwork, DiurnalProfile, Route, RouteId, Trip};
use mlora::sim::probe::{timetable_order, TimetableEvent};
use mlora::sim::{
    BusWithdrawal, DisruptionPlan, Engine, GatewayOutage, MetroConfig, Scenario, SimConfig,
};
use mlora::simcore::{EventQueue, NodeId, SimDuration, SimTime};
use proptest::prelude::*;

/// One step of a queue workload.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule a payload at this absolute time (milliseconds).
    Schedule(u64),
    /// Pop the earliest pending event, if any.
    Pop,
}

/// Decodes one raw draw into a workload step. The mix — near-term
/// schedules (duplicate timestamps), far-future jumps and pops — comes
/// from the low bits; the time from the rest.
fn decode(word: u64) -> Op {
    match word & 7 {
        0..=3 => Op::Schedule((word >> 3) % 5_000),
        4 => Op::Schedule(1u64 << (10 + (word >> 3) % 18)),
        _ => Op::Pop,
    }
}

/// Applies one op to a queue, tagging each scheduled event with its
/// ordinal so pop results expose the full `(time, seq)` order.
fn apply(q: &mut EventQueue<u32>, op: &Op, ordinal: u32) -> Option<(SimTime, u32)> {
    match op {
        Op::Schedule(ms) => {
            q.schedule(SimTime::from_millis(*ms), ordinal);
            None
        }
        Op::Pop => q.pop(),
    }
}

proptest! {
    /// The heap and a list kept sorted by `(time, ordinal)` agree on
    /// every observation: each pop returns the same `(time, payload)`,
    /// and `peek_time`/`len` match after every step.
    #[test]
    fn heap_pops_match_a_sorted_reference(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..300),
    ) {
        let mut heap = EventQueue::new();
        let mut sorted: Vec<(SimTime, u32)> = Vec::new();
        for (i, op) in raw.iter().map(|&w| decode(w)).enumerate() {
            let want = match op {
                Op::Schedule(ms) => {
                    let entry = (SimTime::from_millis(ms), i as u32);
                    sorted.insert(sorted.partition_point(|&e| e < entry), entry);
                    None
                }
                Op::Pop => (!sorted.is_empty()).then(|| sorted.remove(0)),
            };
            prop_assert_eq!(apply(&mut heap, &op, i as u32), want, "op {}: {:?}", i, op);
            prop_assert_eq!(heap.peek_time(), sorted.first().map(|&(t, _)| t));
            prop_assert_eq!(heap.len(), sorted.len());
        }
    }

    /// Rebuilding a queue from its checkpoint records mid-workload —
    /// verbatim, or sorted by key as builds that ran on a calendar queue
    /// wrote them — leaves the remaining pop sequence unchanged.
    #[test]
    fn checkpoint_rebuilds_the_queue_mid_workload(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..300),
        cut in 0usize..300,
        ascending in proptest::bool::ANY,
    ) {
        let ops: Vec<Op> = raw.iter().map(|&w| decode(w)).collect();
        let mut reference = EventQueue::new();
        let mut rebuilt = EventQueue::new();
        let cut = cut.min(ops.len());
        for (i, op) in ops.iter().enumerate() {
            if i == cut {
                let (records, seq) = rebuilt.raw_parts();
                let mut records = records.to_vec();
                if ascending {
                    records.sort_unstable_by_key(|&(key, _)| key);
                }
                rebuilt = EventQueue::from_raw_parts(records, seq).expect("a heap layout");
            }
            let a = apply(&mut reference, op, i as u32);
            let b = apply(&mut rebuilt, op, i as u32);
            prop_assert_eq!(a, b, "divergence at op {} after the rebuild", i);
        }
        while let Some(a) = reference.pop() {
            prop_assert_eq!(Some(a), rebuilt.pop());
        }
        prop_assert!(rebuilt.pop().is_none());
    }

    /// The cursor-merged event source equals the eager seeding, event
    /// for event and key for key, stepped through an arbitrary cut and
    /// through a checkpoint resumed there (which derives the cursor from
    /// the captured instant alone).
    #[test]
    fn cursor_merged_timetable_matches_eager_seeding(
        raw in proptest::collection::vec(0u64..u64::MAX, 1..14),
        plan in 0u64..u64::MAX,
        cut_quarter in 0u64..(4 * SLOTS),
    ) {
        let cfg = timetable_scenario(&raw, plan);
        let want = eager_seeding(&cfg);
        let horizon = SimTime::ZERO + cfg.horizon;
        // On a departure slot one draw in four, between slots otherwise.
        let cut_ms = cut_quarter * SLOT_MS / 4;
        let mut engine = Engine::new(cfg, 7);
        let head = timetable_order(&mut engine, SimTime::from_millis(cut_ms));
        let snap = engine.snapshot().expect("stepped engine snapshots");
        let mut resumed = Engine::resume(&snap).expect("snapshot resumes");
        for branch in [&mut engine, &mut resumed] {
            let mut got = head.clone();
            got.extend(timetable_order(branch, horizon));
            prop_assert_eq!(&got, &want, "cut at {} ms", cut_ms);
        }
    }
}

/// Departures, disruptions and the cut all fall on multiples of this, so
/// same-millisecond ties are the rule rather than the exception.
const SLOT_MS: u64 = 250_000;
/// Departure slots drawn from; the horizon sits on slot `SLOTS - 2`, so
/// the last two hold departures at and after it.
const SLOTS: u64 = 8;

/// A one-line world whose timetable is decoded from `raw`, one trip per
/// word: departure slot, one or two 300-second legs, and for one word in
/// four a zero-length service window. `plan` places a gateway outage
/// whose both ends fall on departure slots and a withdrawal of half the
/// fleet, which retires buses ahead of their `TripEnd`. The horizon cuts
/// the timetable short of its last departures.
fn timetable_scenario(raw: &[u64], plan: u64) -> SimConfig {
    let path = Polyline::new(vec![
        Point::new(500.0, 2_000.0),
        Point::new(3_500.0, 2_000.0),
    ])
    .expect("two distinct points");
    let route = Route::new(RouteId::new(0), path, 10.0);
    let mut draws: Vec<(u64, u64)> = raw.iter().map(|&w| (w % SLOTS, w >> 3)).collect();
    draws.sort_unstable_by_key(|&(slot, _)| slot);
    let trips = draws
        .iter()
        .enumerate()
        .map(|(i, &(slot, bits))| {
            let depart = SimTime::from_millis(slot * SLOT_MS);
            let mut trip = Trip::new(NodeId::new(i as u32), &route, depart, 1 + (bits & 1) as u32);
            if (bits >> 1) & 3 == 0 {
                trip.withdraw(depart);
            }
            trip
        })
        .collect();
    let world = BusNetwork::from_parts(
        vec![route],
        trips,
        BBox::square(Point::ORIGIN, 4_000.0),
        SimDuration::from_millis(SLOTS * SLOT_MS),
    )
    .expect("trips are sorted and numbered");
    let slot = |bits: u64| SimTime::from_millis(bits % SLOTS * SLOT_MS);
    Scenario::urban()
        .scheme(Scheme::Robc)
        .smoke()
        .world(world)
        .duration(SimDuration::from_millis((SLOTS - 2) * SLOT_MS))
        .disruptions(DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 0,
                start: slot(plan),
                duration: Some(SimDuration::from_millis(SLOT_MS)),
            }],
            withdrawals: vec![BusWithdrawal {
                at: slot(plan >> 3) + SimDuration::from_secs(100),
                fraction: 0.5,
            }],
            ..DisruptionPlan::default()
        })
        .build()
        .expect("timetable scenario is valid")
}

/// What the engine's start-up used to schedule before the first event:
/// both lifecycle events of every trip departing before the horizon, in
/// timetable order, then the compiled disruption timeline — popped in
/// `(time, seq)` order.
fn eager_seeding(cfg: &SimConfig) -> Vec<(SimTime, u64, TimetableEvent)> {
    let horizon = SimTime::ZERO + cfg.horizon;
    let world = cfg.world.as_ref().expect("scenario carries its world");
    let mut seeded = Vec::new();
    for trip in world.trips().iter().filter(|t| t.depart() < horizon) {
        let n = trip.node().raw();
        seeded.push((trip.depart(), TimetableEvent::TripStart(n)));
        seeded.push((trip.end().min(horizon), TimetableEvent::TripEnd(n)));
    }
    for (i, &(t, _)) in cfg.disruptions.compile(cfg.horizon).iter().enumerate() {
        if t <= horizon {
            seeded.push((t, TimetableEvent::Disruption(i as u32)));
        }
    }
    let mut order: Vec<_> = seeded
        .into_iter()
        .enumerate()
        .map(|(seq, (t, ev))| (t, seq as u64, ev))
        .collect();
    order.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
    order
}

/// Five minutes into a six-hour service day an engine holds what it
/// holds five minutes into a ten-minute one: the same device rows, a
/// queue no deeper, a checkpoint no larger (the embedded scenario, which
/// is the timetable itself, set aside).
#[test]
fn engine_state_follows_departures_not_the_service_day() {
    let metro = MetroConfig {
        area_side_m: 10_000.0,
        num_radials: 16,
        num_rings: 8,
        peak_active_buses: 1_500,
        min_legs: 1,
        max_legs: 1,
        horizon: SimDuration::from_hours(6),
        profile: DiurnalProfile::flat(1.0),
        ..MetroConfig::default()
    };
    let day = Scenario::urban()
        .scheme(Scheme::Robc)
        .metro(&metro, 2020)
        .build()
        .expect("metro scenario is valid");
    let mut short = day.clone();
    short.horizon = SimDuration::from_mins(10);
    assert!(day.world.as_ref().expect("metro world").trips().len() > 10 * 1_500);

    // (queue high water, device rows, checkpoint bytes beyond the blob)
    let held = |cfg: &SimConfig| {
        let mut blob = Vec::new();
        cfg.to_writer(&mut blob).expect("scenario encodes");
        let mut engine = Engine::new(cfg.clone(), 11);
        assert_eq!(engine.stats().device_rows, 0, "rows before any departure");
        engine.run_until(SimTime::ZERO + SimDuration::from_mins(5));
        let stats = engine.stats();
        let snap = engine.snapshot().expect("stepped engine snapshots");
        (
            stats.queue_depth_high_water,
            stats.device_rows,
            snap.as_bytes().len() - blob.len(),
        )
    };
    let (day_queue, day_rows, day_bytes) = held(&day);
    let (short_queue, short_rows, short_bytes) = held(&short);
    assert_eq!(day_rows, short_rows);
    assert!(day_rows > 0 && day_rows < 3 * 1_500, "{day_rows} rows");
    assert!(
        day_queue * 10 <= short_queue * 12,
        "queue high water {day_queue} on the day, {short_queue} on ten minutes"
    );
    assert!(
        day_bytes * 10 <= short_bytes * 12,
        "checkpoint {day_bytes} B on the day, {short_bytes} B on ten minutes"
    );
}
