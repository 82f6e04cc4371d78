//! Hidden instrumentation hooks for the engine's hot paths.
//!
//! The counting-allocator test (`crates/sim/tests/engine_alloc.rs`) and
//! the `micro_engine` benches need to drive the flight-column scan and
//! the shard worker's plan computation in isolation, without standing
//! up a full engine run. This module packages those paths behind two
//! self-contained drivers — [`FlightScanProbe`] over the [`Channel`] as
//! a serial run drives it and [`WorkerProbe`] over a single
//! [`ShardWorker`], each calling the functions the engine calls — plus
//! [`sweep_flights`], with which the lazy-vs-eager pruning proptest
//! reclaims expired flights far more often than the engine does, and
//! [`timetable_order`], which shows the event-order proptest the
//! `(time, seq)` key of every timetable event the loop handles.
//!
//! Everything here is `#[doc(hidden)]`: the shapes below track engine
//! internals and carry no stability promise.

// The module is doc(hidden) and its docs legitimately reference private
// engine internals; don't let rustdoc's public-link lint reject them.
#![allow(rustdoc::private_intra_doc_links)]

use std::sync::Arc;

use mlora_geo::Point;
use mlora_mac::UplinkFrame;
use mlora_mobility::{BusNetwork, BusNetworkConfig, DiurnalProfile};
use mlora_phy::LogDistanceModel;
use mlora_simcore::{NodeId, SimDuration, SimRng, SimTime};

use super::channel::Channel;
use super::comm::{FlightPlan, ShardParams, ShardWorker};
use super::partition::Partition;
use super::{Engine, Event};
use crate::observer::NullObserver;

/// Reclaims every expired flight of a stepped engine now, between two
/// `run_until` slices. The engine itself sweeps only at slab growth
/// boundaries; the pruning proptest sweeps after every slice and
/// requires a bit-identical report.
pub fn sweep_flights(engine: &mut Engine) {
    engine.channel.sweep(engine.now);
}

/// An event whose `(time, seq)` key the timetable and the disruption
/// plan fix before the run starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimetableEvent {
    /// Trip `i` departs.
    TripStart(u32),
    /// Trip `i` reaches its scheduled end (or the horizon).
    TripEnd(u32),
    /// Entry `i` of the compiled disruption timeline fires.
    Disruption(u32),
}

/// Steps `engine` to `until` like [`Engine::run_until`] and returns, in
/// handling order, every trip-lifecycle and disruption event with the
/// `(time, seq)` key it was taken under — the part of the event order
/// that must equal what seeding the whole timetable into the queue up
/// front would produce, whatever else the run schedules in between.
pub fn timetable_order(engine: &mut Engine, until: SimTime) -> Vec<(SimTime, u64, TimetableEvent)> {
    let mut order = Vec::new();
    engine.advance_tracing(until, &mut NullObserver, |t, seq, ev| {
        let ev = match ev {
            Event::TripStart(n) => TimetableEvent::TripStart(n.raw()),
            Event::TripEnd(n) => TimetableEvent::TripEnd(n.raw()),
            Event::Disruption(i) => TimetableEvent::Disruption(i),
            Event::Generate(_) | Event::TxStart(_) | Event::TxEnd(_) => return,
        };
        order.push((t, seq, ev));
    });
    order
}

/// Drives the channel's hot loop as a serial run does — launch,
/// contiguous time-overlap scan over [`FlightColumns`], the engine's
/// near-overlap cut and a reception with nothing precomputed — with
/// steadily advancing time so the deferred slab sweep triggers and
/// slots recycle. After a warm-up round the whole cycle is
/// allocation-free, which `engine_alloc.rs` pins.
///
/// [`FlightColumns`]: super::channel::FlightColumns
#[derive(Debug)]
pub struct FlightScanProbe {
    channel: Channel,
    now: SimTime,
    airtime: SimDuration,
    wave: usize,
    senders: u32,
    overlaps: Vec<(u64, Point)>,
    near: Vec<(u64, Point)>,
    /// `wave` frames in range of [`FlightScanProbe::RECEIVER`], for
    /// [`FlightScanProbe::receive_crowd`].
    crowd: Vec<(u64, Point)>,
}

impl FlightScanProbe {
    /// Where the probe listens; receiver-side range 500 m (urban
    /// device-to-device).
    const RECEIVER: Point = Point::new(250.0, 0.0);
    const RANGE_M: f64 = 500.0;

    /// A probe launching `wave` concurrent flights per round.
    pub fn new(seed: u64, wave: usize) -> FlightScanProbe {
        // The subject 150 m from the receiver, the rest of the crowd on
        // a spiral of growing radius, all inside 450 m.
        let crowd = (0..wave)
            .map(|i| {
                let r = 150.0 + 300.0 * i as f64 / wave as f64;
                let phi = 2.4 * i as f64;
                let pos = Point::new(
                    Self::RECEIVER.x + r * phi.cos(),
                    Self::RECEIVER.y + r * phi.sin(),
                );
                (i as u64, pos)
            })
            .collect();
        FlightScanProbe {
            channel: Channel::new(
                SimRng::new(seed).fork(12),
                SimDuration::from_secs(2),
                Vec::new(),
                LogDistanceModel::paper_default(),
                -123.0,
                14.0,
            ),
            now: SimTime::ZERO,
            airtime: SimDuration::from_millis(370),
            wave,
            senders: 0,
            overlaps: Vec::new(),
            near: Vec::new(),
            crowd,
        }
    }

    /// One reception as a serial run makes it — nothing planned — of
    /// the first of `wave` audible frames, all in range: `wave = 1` is
    /// the frame heard alone. Returns the outcome as two bits.
    pub fn receive_crowd(&mut self) -> u64 {
        let reception = self
            .channel
            .receive(&[], &self.crowd, Self::RECEIVER, Self::RANGE_M, 0);
        reception.rssi.is_some() as u64 | (reception.interfered as u64) << 1
    }

    /// Runs `rounds` launch/scan/receive cycles and folds the reception
    /// outcomes into a checksum (so the work cannot be optimised away).
    pub fn churn(&mut self, rounds: usize) -> u64 {
        let mut digest = 0u64;
        for _ in 0..rounds {
            let start = self.now;
            let end = start + self.airtime;
            for j in 0..self.wave {
                // Spread the wave over a ~1.5 km disc so some flights
                // survive the near cut and some do not.
                let k = (self.senders as usize + j) % 17;
                let pos = Point::new(100.0 * k as f64, 60.0 * (k as f64 - 8.0));
                let frame = UplinkFrame {
                    sender: NodeId::new(self.senders),
                    messages: Vec::new(),
                    rca_etx: 1.0,
                    queue_len: 0,
                };
                self.channel
                    .launch(NodeId::new(self.senders), frame, None, start, end, pos);
                self.senders = self.senders.wrapping_add(1);
            }
            let subject_seq = self.channel.last_launched_seq();
            self.channel.overlaps_into(start, end, &mut self.overlaps);
            digest = digest.wrapping_add(self.overlaps.len() as u64);
            // The serial engine's near-overlap cut.
            let (at, range) = (Self::RECEIVER, Self::RANGE_M);
            Channel::near_overlaps_into(&self.overlaps, at, range, &mut self.near);
            let reception = self
                .channel
                .receive(&[], &self.near, at, range, subject_seq);
            digest = digest
                .wrapping_mul(31)
                .wrapping_add(reception.rssi.is_some() as u64)
                .wrapping_add((reception.interfered as u64) << 1);
            self.now += SimDuration::from_millis(400);
        }
        digest
    }
}

/// A compressed view of a [`FlightPlan`] for determinism checks and
/// bench digests.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDigest {
    /// In-range gateway count.
    pub gateways: usize,
    /// Exact-range neighbour candidate count.
    pub candidates: usize,
    /// Total interferer entries across all receivers.
    pub interferers: usize,
    /// Sum of every planned interferer distance, metres.
    pub distance_sum: f64,
}

/// Drives one [`ShardWorker`]'s plan computation
/// ([`ShardWorker::plan_into`], the function the worker thread runs)
/// over a real generated bus network, refilling one plan so the
/// counting test sees the path's own steady-state allocations.
#[derive(Debug)]
pub struct WorkerProbe {
    worker: ShardWorker,
    /// The subject transmission: an active bus at `start`.
    seq: u64,
    sender: NodeId,
    pos: Point,
    start: SimTime,
    end: SimTime,
    plan: FlightPlan,
}

impl WorkerProbe {
    /// Builds a single-shard worker over a generated network with
    /// `buses` active vehicles, seeds its membership grid with every
    /// bus active at the probe instant and puts `flights` frames on the
    /// air around the subject.
    pub fn new(seed: u64, buses: usize, flights: usize) -> WorkerProbe {
        let cfg = BusNetworkConfig {
            area_side_m: 10_000.0,
            num_routes: 24,
            max_active_buses: buses,
            horizon: SimDuration::from_hours(2),
            profile: DiurnalProfile::flat(1.0),
            ..BusNetworkConfig::default()
        };
        let net = Arc::new(BusNetwork::generate(
            &cfg,
            SimRng::new(seed).fork(11).seed(),
        ));
        let airtime = SimDuration::from_millis(370);
        let part = Arc::new(Partition::new(
            net.area(),
            1,
            500.0,
            2_000.0,
            cfg.max_speed_mps,
            airtime,
        ));
        // A 3×3 gateway grid over the area, as `place_gateways` would.
        let side = cfg.area_side_m;
        let mut gateways = Vec::new();
        for gy in 0..3u32 {
            for gx in 0..3u32 {
                let gpos = Point::new(
                    side * (2 * gx + 1) as f64 / 6.0,
                    side * (2 * gy + 1) as f64 / 6.0,
                );
                gateways.push((gy * 3 + gx, gpos));
            }
        }
        let mut worker = ShardWorker::new(
            0,
            part,
            Arc::clone(&net),
            gateways,
            ShardParams {
                d2d_range_m: 500.0,
                gateway_range_m: 2_000.0,
                flight_retention: SimDuration::from_secs(2),
            },
        );
        // Membership as of a mid-run barrier: every trip active at t0.
        let t0 = SimTime::from_secs(20 * 60);
        let mut hint = 0u32;
        let mut active: Vec<(NodeId, Point)> = net
            .trips()
            .iter()
            .filter(|t| t.depart() <= t0 && t.end() > t0)
            .map(|t| {
                hint = 0;
                (t.node(), net.position_hinted(t.node(), t0, &mut hint))
            })
            .collect();
        active.sort_unstable_by_key(|&(n, _)| n.index());
        assert!(
            !active.is_empty(),
            "probe network has no active bus at the query instant"
        );
        for &(n, p) in &active {
            worker.track(n, p);
        }
        let (sender, pos) = active[0];
        let start = t0;
        let end = t0 + airtime;
        // Tile-local flights: half overlap the subject's window, half
        // are already stale, at positions cycling over the active set.
        for seq in 0..flights as u64 {
            let (_, fpos) = active[seq as usize % active.len()];
            let (fs, fe) = if seq % 2 == 0 {
                (start, end)
            } else {
                (
                    start - SimDuration::from_secs(10),
                    start - SimDuration::from_secs(9),
                )
            };
            worker.file_flight(seq, fpos, fs, fe);
        }
        WorkerProbe {
            worker,
            seq: flights as u64,
            sender,
            pos,
            start,
            end,
            plan: FlightPlan::default(),
        }
    }

    /// One full plan — overlap collection, the gateway and device near
    /// cuts, the bucket-sweep candidate scan and the exact-range
    /// gateway and candidate walks — into the probe's own plan.
    /// Allocation-free after the first call.
    pub fn plan(&mut self) -> PlanDigest {
        self.worker.plan_into(
            &mut self.plan,
            self.seq,
            self.sender,
            self.pos,
            self.start,
            self.end,
        );
        let plan = &self.plan;
        PlanDigest {
            gateways: plan.gateways.len(),
            candidates: plan.candidates.len(),
            interferers: plan.interferers.len(),
            distance_sum: plan.interferers.iter().map(|&(_, dist)| dist).sum(),
        }
    }
}
