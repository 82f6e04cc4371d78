//! The event-driven network engine.
//!
//! A discrete-event loop over five event kinds: trips starting and
//! ending, message generation, and transmission start/end. All physics
//! (ranges, RSSI, collisions) resolve at transmission end; positions
//! are computed analytically from the mobility substrate, so there is
//! no per-tick stepping anywhere.
//!
//! The loop is single-threaded and processes events in canonical
//! `(time, seq)` order; the engine spawns no thread. Parallelism lives
//! one level up: a sweep's runs are independent, and
//! [`Runner`](crate::Runner) spreads them over the host's cores.
//!
//! # Layout
//!
//! The engine is decomposed into focused subsystems, each owning its
//! state, scratch buffers and (where applicable) RNG fork behind a
//! narrow interface:
//!
//! * [`world`] — the dense device world: the fleet, the neighbour cell
//!   list, device lifecycle and energy accounting.
//! * [`channel`] — the shared radio: frames in flight, the one
//!   shadowing RNG stream, regional noise and capture-model collision
//!   resolution ([`channel::Channel::receive`] serves gateway and
//!   device receivers alike).
//! * [`forwarding`] — policy dispatch: beacon overhearing through each
//!   device's pluggable
//!   [`ForwardingPolicy`](mlora_core::ForwardingPolicy), handover
//!   acceptance and sender settlement.
//! * [`delivery`] — the sink side: the gateways (filed once in a cell
//!   list) and their outage depths, server-side delivery and the metric
//!   collector.
//!
//! This file owns the event queue and the loop driving those
//! subsystems.
//!
//! # The timetable stays out of the queue
//!
//! Trips are sorted by departure, so the day's `TripStart`s are a
//! presorted stream and need no heap: a cursor (`next_trip`) walks the
//! timetable, and the loop takes whichever of cursor and queue holds
//! the smaller `(time, seq)`. Trip `i` owns the sequence numbers `2i`
//! (start) and `2i + 1` (end) — the numbers seeding every lifecycle
//! event up front would assign — and its `TripEnd` enters the queue
//! under `2i + 1` when the bus departs. The event order is therefore
//! exactly that of a fully seeded queue, while the queue, every
//! checkpoint's events section and every resume hold only the events of
//! buses on the road.
//!
//! # Hot-path layout
//!
//! Per-event state is dense and index-addressed: devices live in a
//! `DenseMap` keyed by their already-dense [`NodeId`], frames in
//! flight live in a generational `Slab` with a launch-ordered ring of
//! their scan rows beside it, the neighbour cell list is
//! rebuilt once per drift sweep and patched in O(1) in between (append
//! on trip start, tombstone on retirement), and every query writes into
//! scratch buffers owned by its subsystem. In steady state the event
//! loop performs no per-event heap allocation on the
//! neighbour-resolution path.

mod channel;
mod delivery;
mod forwarding;
#[doc(hidden)]
pub mod probe;
mod snapshot;
mod world;

pub use self::snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC};

use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

use mlora_geo::Point;
use mlora_mac::{
    AppMessage, DataQueue, DeviceClass, DutyCycleTracker, Priority, RetransmitPolicy, UplinkFrame,
    MAX_BUNDLE, MAX_BUNDLE_BYTES,
};
use mlora_phy::AirtimeTable;
use mlora_simcore::{EventQueue, NodeId, SimDuration, SimRng, SimTime, SlabKey};

use self::channel::Channel;
use self::delivery::Delivery;
use self::world::{Device, DeviceTraffic, World};
use crate::disruption::DisruptionEvent;
use crate::metrics::Collector;
use crate::observer::{
    BusWithdrawn, FrameTransmitted, MessageGenerated, NullObserver, SimObserver,
};
use crate::{place_gateways, SimConfig, SimReport};

/// Discrete events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A bus enters service and becomes a live device.
    TripStart(NodeId),
    /// A bus leaves service.
    TripEnd(NodeId),
    /// A device generates one application message.
    Generate(NodeId),
    /// A device begins a transmission (uplink or handover).
    TxStart(NodeId),
    /// A transmission completes; receptions resolve.
    TxEnd(SlabKey),
    /// A scripted world disruption fires (index into the compiled
    /// timeline). An empty [`DisruptionPlan`](crate::DisruptionPlan)
    /// schedules none of these.
    Disruption(u32),
}

/// Execution statistics of one engine run so far, read through
/// [`Engine::stats`] — after [`Engine::run_until`] has reached the
/// horizon, the whole run's.
///
/// `queue_depth_high_water` and `device_rows` measure how much state the
/// engine holds, in units a test can compare without a clock: both
/// follow the buses that have departed, not the length of the timetable.
///
/// `receptions`, `frames_heard` and `rssi_evaluated` count the channel's
/// work. The first two are properties of the model — how often a
/// receiver resolved a frame and how many audible frames (one shadowing
/// draw each) that took; `rssi_evaluated` is how many of those strengths
/// were computed exactly, logarithms and all, because a comparison was
/// too close for the channel's table bounds or because a gateway or a
/// policy read the value.
///
/// `grid_entries`, `positions_located` and `candidates` count the
/// neighbour queries' work, one query per transmission end.
/// `candidates` is a property of the model (devices truly in range);
/// `grid_entries` and `positions_located` measure how much the cell
/// list made the query screen and locate to find them.
///
/// `flights_scanned` and `overlaps` count the interferer scans' work,
/// also one per transmission end. `overlaps` is a property of the model
/// (frames in the air at once, each subject included);
/// `flights_scanned` measures how many flight-ring rows the scans read
/// to find them.
///
/// `beacons_decoded` and `policy_decisions` count the forwarding
/// layer's work. `beacons_decoded` is a property of the model (decoded
/// frames at devices they were not handed to); `policy_decisions` is
/// how many of those reached [`RoutingState::decide`](mlora_core::RoutingState::decide)
/// past the receivers' offer bits, each fetching the receiver's row.
///
/// Like the high-water mark these are host telemetry, not run state:
/// none is checkpointed, and a resumed engine counts from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Discrete events processed by the main loop.
    pub events_processed: u64,
    /// The most events the queue held at once. Host telemetry, not run
    /// state: a resumed engine starts counting from the queue it
    /// restored.
    pub queue_depth_high_water: usize,
    /// Per-device rows in existence: one per bus that has departed so
    /// far, in service or retired.
    pub device_rows: usize,
    /// Receptions resolved: one per (transmission end, admitted
    /// receiver) pair, gateways and devices alike.
    pub receptions: u64,
    /// Audible frames across all receptions: the subject and every
    /// in-range time-overlapping frame, one shadowing draw each.
    pub frames_heard: u64,
    /// Exact RSSI evaluations (at most one per frame heard).
    pub rssi_evaluated: u64,
    /// Cell-list entries the neighbour queries screened, tombstones
    /// included.
    pub grid_entries: u64,
    /// Exact device positions the neighbour queries computed: the
    /// entries that passed the drift-padded screen, less the senders.
    pub positions_located: u64,
    /// Devices the neighbour queries found within range.
    pub candidates: u64,
    /// Flight-ring rows the interferer scans visited, the row that
    /// stopped each walk included.
    pub flights_scanned: u64,
    /// Time-overlapping frames the interferer scans found, each
    /// subject included.
    pub overlaps: u64,
    /// Frames decoded at a device that was not their handover target:
    /// the beacons overheard.
    pub beacons_decoded: u64,
    /// Overheard beacons whose receiver held data and had no offer
    /// armed: the forwarding decisions taken, one device row fetched
    /// each.
    pub policy_decisions: u64,
}

/// The simulation engine. Construct with [`Engine::new`], execute with
/// [`Engine::run`].
#[derive(Debug)]
pub struct Engine {
    cfg: SimConfig,
    /// The master seed the engine was built with; a snapshot carries it
    /// so a resume can regenerate the deterministic substrate (network,
    /// gateway placement, RNG stream identities).
    seed: u64,
    events: EventQueue<Event>,
    /// The timetable cursor: trips below it have departed (see the
    /// module docs). Not checkpointed — a resume derives it from `now`.
    next_trip: usize,
    /// Trips departing before the horizon; later ones never run. Trips
    /// are sorted by departure, so these are the first `live_trips`.
    live_trips: usize,
    /// Precomputed per-payload airtime under the configured PHY —
    /// bit-identical to calling `time_on_air` per transmission, one
    /// table load instead of the float formula on the hot path.
    airtime: AirtimeTable,
    now: SimTime,
    horizon: SimTime,
    /// The dense device world (fleet, neighbour cell list, lifecycle).
    world: World,
    /// The shared radio (flights, shadowing RNG, noise, collisions).
    channel: Channel,
    /// The sink side (gateways, outages, collector).
    delivery: Delivery,
    /// Scratch: sorted neighbour candidates `(id, exact position)`.
    scratch_candidates: Vec<(NodeId, Point)>,
    /// Scratch: devices needing a transmission opportunity scheduled.
    scratch_schedule: Vec<NodeId>,
    /// Compiled disruption timeline, in firing order (empty for an
    /// undisrupted run).
    timeline: Vec<(SimTime, DisruptionEvent)>,
    /// Dedicated stream for withdrawal selection, so disruptions never
    /// perturb the channel/shadowing draws of the surviving fleet.
    disruption_rng: SimRng,
    /// Root of the per-device traffic streams (profile assignment,
    /// arrival gaps, payload sizes). Forked per device by node index, so
    /// a device's traffic is a pure function of the seed and its
    /// identity. Never drawn from when the model is empty.
    traffic_root: SimRng,
    /// Set once initial events are seeded: stepping entry points start
    /// lazily, exactly once.
    started: bool,
    /// Events processed since the run began, across every stepping call.
    events_processed: u64,
    /// See [`EngineStats::queue_depth_high_water`].
    queue_depth_high_water: usize,
    /// See [`EngineStats::beacons_decoded`]; host telemetry, never
    /// checkpointed.
    beacons_decoded: u64,
    /// See [`EngineStats::policy_decisions`]; host telemetry, never
    /// checkpointed.
    policy_decisions: u64,
    /// The snapshot section embedding the configuration, framed and
    /// checksummed as it stands in the `.mlss` container: built by the
    /// first [`Engine::snapshot`] and appended verbatim by the rest
    /// (the configuration never changes once the engine is built).
    cfg_section: OnceLock<Vec<u8>>,
    /// Byte length of the last snapshot taken, which sizes the next
    /// one's buffer up front.
    last_snapshot_len: AtomicUsize,
    /// Every scripted withdrawal applied so far, as `(node, when)` in
    /// application order. A snapshot resume replays these against the
    /// freshly regenerated mobility substrate before anything else, so
    /// trip truncations survive the checkpoint.
    withdrawn: Vec<(NodeId, SimTime)>,
}

impl Engine {
    /// Builds an engine for the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; prefer
    /// [`SimConfig::run`](crate::SimConfig::run), which validates first.
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let mut deploy_rng = root.fork(10);
        // A prebuilt world (a metro-scale network loaded from a scenario
        // file) bypasses seeded generation entirely; fork(11) is then
        // simply never drawn from, which perturbs no other stream.
        let net = match &cfg.world {
            Some(world) => Arc::clone(world),
            None => {
                let mut net_cfg = cfg.network.clone();
                net_cfg.horizon = cfg.horizon;
                Arc::new(mlora_mobility::BusNetwork::generate(
                    &net_cfg,
                    root.fork(11).seed(),
                ))
            }
        };
        let gateways = place_gateways(net.area(), cfg.num_gateways, cfg.placement, &mut deploy_rng);
        let collector = Collector::new(
            cfg.policy.label().to_string(),
            cfg.series_bucket,
            cfg.horizon,
            &cfg.traffic,
        );
        let horizon = SimTime::ZERO + cfg.horizon;
        let live_trips = net.trips().partition_point(|t| t.depart() < horizon);
        let world = World::new(
            net,
            cfg.environment.d2d_range_m(),
            cfg.network.max_speed_mps,
            cfg.traffic.profiles.len(),
        );
        let airtime = AirtimeTable::new(&cfg.phy);
        // The 2 s floor keeps the historical window at fast spreading
        // factors; slow SFs (≳4 s airtime for a full bundle) need the
        // whole worst-case airtime or concurrent frames would be pruned
        // before their interference resolves.
        let max_airtime = airtime.max();
        let flight_retention = max_airtime.max(SimDuration::from_secs(2));
        // Forking is a pure function of the master seed: deriving the
        // channel (12), disruption (13) and traffic (14) streams in this
        // fixed order leaves each subsystem's draws independent of the
        // others — an empty plan or model never draws from its stream
        // and stays bit-identical.
        let channel = Channel::new(
            root.fork(12),
            flight_retention,
            max_airtime,
            cfg.disruptions.noise_bursts.clone(),
            cfg.path_loss,
            cfg.phy.sensitivity_dbm(),
            cfg.phy.tx_power_dbm,
        );
        let delivery = Delivery::new(gateways, world.net.area(), cfg.gateway_range_m, collector);
        let timeline = cfg.disruptions.compile(cfg.horizon);
        Engine {
            seed,
            events: EventQueue::with_capacity(1 << 16),
            next_trip: 0,
            live_trips,
            airtime,
            now: SimTime::ZERO,
            horizon,
            world,
            channel,
            delivery,
            scratch_candidates: Vec::new(),
            scratch_schedule: Vec::new(),
            timeline,
            disruption_rng: root.fork(13),
            traffic_root: root.fork(14),
            started: false,
            events_processed: 0,
            queue_depth_high_water: 0,
            beacons_decoded: 0,
            policy_decisions: 0,
            cfg_section: OnceLock::new(),
            last_snapshot_len: AtomicUsize::new(0),
            withdrawn: Vec::new(),
            cfg,
        }
    }

    /// The gateway positions in use.
    pub fn gateways(&self) -> &[mlora_geo::Point] {
        self.delivery.gateways()
    }

    /// The generated mobility network.
    pub fn network(&self) -> &mlora_mobility::BusNetwork {
        &self.world.net
    }

    /// Runs the simulation to the horizon and returns the report.
    pub fn run(self) -> SimReport {
        self.run_with_observer(&mut NullObserver)
    }

    /// Runs the simulation, streaming events to `observer`.
    ///
    /// Observers are passive: the event stream and the returned report
    /// are identical to [`Engine::run`] for the same configuration and
    /// seed.
    pub fn run_with_observer(mut self, observer: &mut dyn SimObserver) -> SimReport {
        self.advance_until(self.horizon, observer);
        self.finalize(observer)
    }

    /// Which gateways are in service right now: `true`
    /// means up. All gateways start up; scripted outages toggle them.
    pub fn gateways_up(&self) -> Vec<bool> {
        self.delivery.gateways_up()
    }

    /// Execution statistics so far (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let (receptions, frames_heard, rssi_evaluated) = self.channel.reception_counts();
        let (grid_entries, positions_located, candidates) = self.world.candidate_counts();
        let (flights_scanned, overlaps) = self.channel.scan_counts();
        EngineStats {
            events_processed: self.events_processed,
            queue_depth_high_water: self.queue_depth_high_water,
            device_rows: self.world.devices.slot_count(),
            receptions,
            frames_heard,
            rssi_evaluated,
            grid_entries,
            positions_located,
            candidates,
            flights_scanned,
            overlaps,
            beacons_decoded: self.beacons_decoded,
            policy_decisions: self.policy_decisions,
        }
    }

    /// The current simulation time: the timestamp of the last processed
    /// event ([`SimTime::ZERO`] before any), the horizon after a full
    /// run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the simulation through every event due at or before `t`
    /// (clamped to the horizon) and returns the number of events
    /// processed. The first call seeds the initial events; stepping to
    /// `t1 < t2 < …` processes exactly the event sequence one
    /// uninterrupted [`Engine::run`] would, so a [`Engine::snapshot`]
    /// taken between steps resumes bit-identically.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        self.advance_until(t, &mut NullObserver)
    }

    /// Completes the run from wherever the engine stands — the remaining
    /// events, horizon retirement and stranded accounting — and returns
    /// the report. `run_until(t)` followed by `finish()` yields a report
    /// bit-identical to [`Engine::run`] on the same configuration and
    /// seed.
    pub fn finish(self) -> SimReport {
        self.run()
    }

    /// Seeds the initial events (the compiled disruption timeline; trip
    /// lifecycle events only reserve their sequence numbers, see the
    /// module docs). Idempotent: stepping entry points call it lazily; a
    /// snapshot resume marks the engine started and never seeds.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Trip `i` owns sequence numbers `2i` and `2i + 1`; everything
        // scheduled from here on sorts after the whole timetable at
        // equal times.
        self.events.reserve_seqs(2 * self.live_trips as u64);
        // Seed the compiled disruption timeline (no-op when the plan is
        // empty, leaving event sequence numbers — and therefore same-time
        // ordering — exactly as in an undisrupted build).
        for i in 0..self.timeline.len() {
            let (t, _) = self.timeline[i];
            if t <= self.horizon {
                self.events.schedule(t, Event::Disruption(i as u32));
            }
        }
    }

    /// Processes every event due at or before `limit` (clamped to the
    /// horizon), in canonical `(time, seq)` order. Events past the limit
    /// stay queued, so stepping to `t1 < t2 < …` processes exactly the
    /// event sequence one uninterrupted run to the horizon would.
    /// Returns the number of events processed by this call.
    fn advance_until(&mut self, limit: SimTime, observer: &mut dyn SimObserver) -> u64 {
        self.advance_tracing(limit, observer, |_, _, _| {})
    }

    /// [`Engine::advance_until`], reporting each event's `(time, seq)`
    /// key to `on_event` before it is handled (the hook the event-order
    /// proptest in this module's tests observes).
    fn advance_tracing(
        &mut self,
        limit: SimTime,
        observer: &mut dyn SimObserver,
        mut on_event: impl FnMut(SimTime, u64, Event),
    ) -> u64 {
        self.start();
        let limit = limit.min(self.horizon);
        let mut events_processed: u64 = 0;
        let mut high_water = self.queue_depth_high_water;
        let mut departure = self.next_departure();
        loop {
            high_water = high_water.max(self.events.len());
            // The next event is the smaller `(time, seq)` of the
            // timetable cursor and the queue head.
            let queued = self.events.peek_key();
            let departs_first = match (departure, queued) {
                (Some(d), Some(q)) => d < q,
                (d, _) => d.is_some(),
            };
            let Some((t, seq)) = (if departs_first { departure } else { queued }) else {
                break;
            };
            if t > limit {
                break;
            }
            let ev = if departs_first {
                let node = NodeId::new(self.next_trip as u32);
                self.next_trip += 1;
                departure = self.next_departure();
                Event::TripStart(node)
            } else {
                self.events.pop().expect("peeked above").1
            };
            on_event(t, seq, ev);
            self.now = t;
            events_processed += 1;
            match ev {
                Event::TripStart(n) => self.on_trip_start(n),
                Event::TripEnd(n) => self.retire(n),
                Event::Generate(n) => self.on_generate(n, observer),
                Event::TxStart(n) => self.on_tx_start(n, observer),
                Event::TxEnd(key) => self.on_tx_end(key, observer),
                Event::Disruption(i) => self.on_disruption(i, observer),
            }
        }
        self.queue_depth_high_water = high_water;
        self.events_processed += events_processed;
        debug_assert_eq!(self.check(), Ok(()));
        events_processed
    }

    /// The premises of the engine's state between events: what
    /// [`Engine::resume`] requires of a restored engine, and what every
    /// slice re-checks in debug builds. The clock stands at or before
    /// the horizon; once started, the event counter stands past the
    /// sequence numbers the timetable reserves; the channel, the world
    /// and the sink side hold their own premises ([`Channel::check`],
    /// [`World::check`], [`Delivery::check`]); a device is in service
    /// exactly while `now` is before its trip's end (a withdrawal
    /// truncates the trip) and the horizon, and then its `TripEnd` is
    /// queued under the trip's reserved key and one `Generate` of it is
    /// queued; a device's transmission
    /// flag says whether one `TxStart` of it is queued; the collector
    /// counts as many devices seen as rows retired, as many frames sent
    /// as the duty-cycle trackers and as many queue drops as the
    /// queues; and each gateway is down as deep as the disruption
    /// timeline stands at `now` — every disruption due by then has
    /// fired, and no later one.
    ///
    /// # Errors
    ///
    /// Names the first premise that does not hold.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    fn check(&self) -> Result<(), &'static str> {
        if self.now > self.horizon {
            return Err("clock past the horizon");
        }
        let (_, event_seq) = self.events.raw_parts();
        if self.started && event_seq < 2 * self.live_trips as u64 {
            return Err("event counter inside the timetable's reserved numbers");
        }
        self.channel.check(self.now)?;
        self.world.check(self.now)?;
        self.delivery.check()?;
        self.check_devices()?;
        // Read by instant, not by which `Disruption(i)` are still
        // queued: a branch checkpointed by a build that appended overlay
        // events past the original timeline queued indices that name
        // other entries of this one — the instants are the same either
        // way.
        let depths = self.delivery.outage_depths();
        let mut standing = vec![0i64; depths.len()];
        for &(_, ev) in self.timeline.iter().filter(|&&(t, _)| t <= self.now) {
            let (gateway, step) = match ev {
                DisruptionEvent::GatewayDown { gateway } => (gateway, 1),
                DisruptionEvent::GatewayUp { gateway } => (gateway, -1),
                _ => continue,
            };
            if let Some(depth) = standing.get_mut(gateway as usize) {
                *depth += step;
            }
        }
        if !depths.iter().map(|&d| i64::from(d)).eq(standing) {
            return Err("outage depth disagrees with the timeline");
        }
        Ok(())
    }

    /// [`Engine::check`]'s premises on the device rows: their service
    /// windows (and, for a device in service, its trip end queued under
    /// the timetable's key and its next generation queued), their
    /// transmission flags, and the collector's counts of them. One pass
    /// over the events and one over the rows.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic
    )]
    fn check_devices(&self) -> Result<(), &'static str> {
        const TX_START: u8 = 1;
        const TRIP_END: u8 = 2;
        const GENERATE: u8 = 4;
        let world = &self.world;
        let trips = world.net.trips().len();
        let end = |i: usize| self.service_window(i).map(|(_, end)| end);
        // Per row: a `TxStart` is queued; its `TripEnd` is queued under
        // the trip's reserved key (a withdrawn bus's stays queued where
        // the trip used to end); a `Generate` is queued (a retired
        // device's last one fires and is not renewed).
        let mut queued = vec![0u8; world.devices.slot_count()];
        for &(key, ev) in self.events.raw_parts().0 {
            match ev {
                Event::TxStart(n) => match queued.get_mut(n.index()) {
                    Some(q) if *q & TX_START == 0 => *q |= TX_START,
                    _ => return Err("transmission queued twice or for no device"),
                },
                Event::Generate(n) => match queued.get_mut(n.index()) {
                    Some(q) if *q & GENERATE == 0 => *q |= GENERATE,
                    _ => return Err("generation queued twice or for no device"),
                },
                Event::TripEnd(n) => {
                    let i = n.index();
                    let key = (SimTime::from_millis((key >> 64) as u64), key as u64);
                    let reserved = i < trips && key == self.lifecycle_keys(i)[1];
                    if let (true, Some(q)) = (reserved, queued.get_mut(i)) {
                        *q |= TRIP_END;
                    }
                }
                _ => {}
            }
        }
        // A stored count may reach 2^62, so the sums are taken in u128.
        let (mut retired, mut frames, mut drops) = (0u64, 0u128, 0u128);
        for (i, dev) in world.devices.iter() {
            let active = world.hot.active.get(i).copied();
            if active != end(i).map(|end| self.now < end) {
                return Err("device in service outside its trip");
            }
            let queued = queued.get(i).copied().unwrap_or(0);
            if active == Some(true) && queued & TRIP_END == 0 {
                return Err("device in service without its trip end queued");
            }
            if active == Some(true) && queued & GENERATE == 0 {
                return Err("device in service without a generation queued");
            }
            if (queued & TX_START != 0) != dev.tx_scheduled {
                return Err("transmission flag disagrees with the queued events");
            }
            retired += u64::from(active == Some(false));
            frames += u128::from(dev.duty.tx_count());
            drops += u128::from(dev.queue.dropped());
        }
        let report = &self.delivery.collector.report;
        if report.devices_seen != retired {
            return Err("devices seen are not the rows retired");
        }
        if u128::from(report.frames_sent) != frames {
            return Err("frames sent are not the devices' transmissions");
        }
        if u128::from(report.queue_drops) != drops {
            return Err("queue drops are not the devices' drops");
        }
        Ok(())
    }

    /// The `(time, seq)` key of the next trip to depart, if any is left
    /// before the horizon (see the module docs).
    fn next_departure(&self) -> Option<(SimTime, u64)> {
        (self.next_trip < self.live_trips).then(|| self.lifecycle_keys(self.next_trip)[0])
    }

    /// The reserved `(time, seq)` keys of trip `i`'s `TripStart` and
    /// `TripEnd` — what seeding both up front would have assigned.
    fn lifecycle_keys(&self, i: usize) -> [(SimTime, u64); 2] {
        let (depart, end) = self.service_window(i).expect("a trip of the timetable");
        let seq = 2 * i as u64;
        [(depart, seq), (end, seq + 1)]
    }

    /// Trip `i`'s service window in this run, `None` past the
    /// timetable: its departure, and its end (which a withdrawal
    /// truncates) cut at the horizon. Device `i` is in service exactly
    /// inside it.
    fn service_window(&self, i: usize) -> Option<(SimTime, SimTime)> {
        let trip = self.world.net.trips().get(i)?;
        Some((trip.depart(), trip.end().min(self.horizon)))
    }

    /// Ends the run: retires the surviving fleet at the horizon, closes
    /// open outage windows, counts stranded messages and finishes the
    /// collector into the report.
    fn finalize(mut self, observer: &mut dyn SimObserver) -> SimReport {
        // Retire any device still in service at the horizon.
        let still_active: Vec<NodeId> = self.world.active.clone();
        self.now = self.horizon;
        for n in still_active {
            self.retire(n);
        }
        // Close any outage window still open at the horizon.
        self.delivery.collector.on_horizon(self.horizon);

        // Stranded = undelivered messages left in any queue, deduplicated
        // across holders (handovers can replicate a message).
        let mut stranded = std::collections::HashSet::new();
        for dev in self.world.devices.values() {
            for msg in dev.queue.iter() {
                if !self.delivery.collector.was_delivered(msg.id) {
                    stranded.insert(msg.id);
                }
            }
        }
        self.delivery.collector.on_stranded(stranded.len() as u64);

        let report = self.delivery.collector.finish();
        observer.on_run_end(&report);
        report
    }

    /// Applies one compiled disruption event.
    fn on_disruption(&mut self, index: u32, observer: &mut dyn SimObserver) {
        let (_, ev) = self.timeline[index as usize];
        match ev {
            DisruptionEvent::GatewayDown { gateway } => {
                self.delivery.gateway_down(gateway, self.now, observer);
            }
            DisruptionEvent::GatewayUp { gateway } => {
                self.delivery.gateway_up(gateway, self.now, observer);
            }
            DisruptionEvent::Withdraw { withdrawal } => {
                self.on_withdrawal(withdrawal, observer);
            }
            DisruptionEvent::NoiseStart { burst } => {
                self.channel.noise_start(burst);
                self.delivery.collector.on_noise_burst();
                observer.on_noise_burst(&crate::observer::NoiseBurstChanged {
                    time: self.now,
                    burst,
                    active: true,
                });
            }
            DisruptionEvent::NoiseEnd { burst } => {
                self.channel.noise_end(burst);
                observer.on_noise_burst(&crate::observer::NoiseBurstChanged {
                    time: self.now,
                    burst,
                    active: false,
                });
            }
        }
    }

    /// Withdraws a deterministic random subset of the active fleet.
    fn on_withdrawal(&mut self, index: u32, observer: &mut dyn SimObserver) {
        let spec = self.cfg.disruptions.withdrawals[index as usize];
        let n = self.world.active.len();
        let count = ((spec.fraction * n as f64).round() as usize).min(n);
        if count == 0 {
            return;
        }
        // The pool is the sorted active set, so the shuffle (and with it
        // the withdrawn subset) is a pure function of the plan and seed.
        let pool = self
            .world
            .take_withdraw_pool(count, &mut self.disruption_rng);
        for &node in &pool {
            self.world.withdraw_trip(node, self.now);
            self.withdrawn.push((node, self.now));
            self.retire(node);
            self.delivery.collector.on_bus_withdrawn();
            observer.on_bus_withdrawn(&BusWithdrawn {
                time: self.now,
                device: node,
            });
        }
        self.world.return_withdraw_pool(pool);
    }

    fn on_trip_start(&mut self, n: NodeId) {
        // The bus's `TripEnd` joins the queue now, under the second of
        // the trip's two reserved sequence numbers.
        let (end, seq) = self.lifecycle_keys(n.index())[1];
        self.events.schedule_reserved(end, seq, Event::TripEnd(n));
        self.world.open_row(n);
        let pos = self.world.position_now(n, self.now);
        // Traffic state and the delay to the first reading. The paper
        // default draws its phase from the channel stream (the historical
        // behaviour, kept bit-identical); a heterogeneous model gives
        // every device its own stream — first draw assigns the profile,
        // the second the phase.
        let (traffic, first_gap) = if self.cfg.traffic.is_empty() {
            let phase_ms = self
                .channel
                .legacy_phase_ms(self.cfg.gen_interval.as_millis().max(1));
            (None, SimDuration::from_millis(phase_ms))
        } else {
            let mut rng = self.traffic_root.fork(n.index() as u64);
            let profile = self.cfg.traffic.pick_profile(&mut rng);
            let gap = self.cfg.traffic.profiles[profile]
                .arrivals
                .first_gap(&mut rng);
            (
                Some(DeviceTraffic {
                    profile: profile as u32,
                    rng,
                    burst_left: 0,
                }),
                gap,
            )
        };
        let device = Device {
            queue: DataQueue::new(self.cfg.queue_capacity),
            duty: DutyCycleTracker::new(self.cfg.duty_cycle),
            retransmit: RetransmitPolicy::new(self.cfg.max_attempts),
            routing: self.cfg.routing_state(),
            tx_scheduled: false,
            pending_handover: None,
            rx_window_time: SimDuration::ZERO,
            grid_pos: pos,
            traffic,
        };
        self.world.activate(n, device, pos);
        // First reading arrives after a per-device phase so the fleet does
        // not transmit in lockstep.
        self.events
            .schedule(self.now + first_gap, Event::Generate(n));
    }

    /// Retires a device (trip end, horizon, or withdrawal) and books its
    /// reconstructed energy on the collector.
    fn retire(&mut self, n: NodeId) {
        if let Some(retirement) = self.world.retire(n, self.now, self.cfg.device_class) {
            self.delivery
                .collector
                .on_device_retired(retirement.energy_mj, retirement.active);
        }
    }

    fn on_generate(&mut self, n: NodeId, observer: &mut dyn SimObserver) {
        let gen_interval = self.cfg.gen_interval;
        let now = self.now;
        if !self.world.hot.active[n.index()] {
            return;
        }
        let Some(dev) = self.world.devices.get_mut(n) else {
            return;
        };
        // Reading shape and the gap to the next one: the paper default
        // is a fixed 20-byte reading every `gen_interval`; a profile
        // samples both from the device's own traffic stream.
        let (payload, profile, priority, gap) = match dev.traffic.as_mut() {
            None => (
                mlora_mac::APP_MESSAGE_BYTES as u16,
                0u8,
                Priority::Normal,
                gen_interval,
            ),
            Some(state) => {
                let spec = &self.cfg.traffic.profiles[state.profile as usize];
                let payload = spec.payload.sample(&mut state.rng);
                let gap = spec
                    .arrivals
                    .next_gap(now, &mut state.burst_left, &mut state.rng);
                (payload, state.profile as u8, spec.priority, gap)
            }
        };
        // Message ids are issued in order: the next one is the count
        // generated so far.
        let id = mlora_simcore::MessageId::new(self.delivery.collector.report.generated);
        let msg = AppMessage::new(id, n, self.now).with_traffic(payload, profile, priority);
        let dropped = dev.queue.push(msg);
        self.world.hot.set_may_offer(n.index(), dev.may_offer());
        self.delivery.collector.on_generated(&msg);
        observer.on_message_generated(&MessageGenerated {
            time: self.now,
            device: n,
            message: msg.id,
            profile,
            payload_bytes: payload,
        });
        if dropped > 0 {
            self.delivery.collector.on_queue_drop(dropped);
        }
        // A new packet resets the retransmission counter (§VII.A.5).
        dev.retransmit.reset();
        self.events.schedule(self.now + gap, Event::Generate(n));
        self.maybe_schedule_tx(n);
    }

    /// Schedules the next transmission opportunity for `n`, if one is
    /// needed and none is pending.
    pub(super) fn maybe_schedule_tx(&mut self, n: NodeId) {
        let i = n.index();
        if !self.world.hot.active[i] || self.world.hot.transmitting(i) {
            return;
        }
        let Some(dev) = self.world.devices.get_mut(n) else {
            return;
        };
        if dev.tx_scheduled {
            return;
        }
        let has_data = !dev.queue.is_empty() || dev.pending_handover.is_some_and(|(_, c)| c > 0);
        if !has_data {
            return;
        }
        let t = dev.duty.next_opportunity(self.now);
        dev.tx_scheduled = true;
        self.events.schedule(t, Event::TxStart(n));
    }

    fn on_tx_start(&mut self, n: NodeId, observer: &mut dyn SimObserver) {
        let gen_interval = self.cfg.gen_interval;
        let queue_capacity = self.cfg.queue_capacity;
        let class = self.cfg.device_class;
        let i = n.index();
        let Some(dev) = self.world.devices.get_mut(n) else {
            return;
        };
        dev.tx_scheduled = false;
        if !self.world.hot.active[i] || self.world.hot.transmitting(i) {
            return;
        }
        if !dev.duty.can_transmit(self.now) {
            // Races between success-drain and retransmit scheduling can
            // land here; re-arm at the legal instant.
            dev.tx_scheduled = true;
            let t = dev.duty.next_opportunity(self.now);
            self.events.schedule(t, Event::TxStart(n));
            return;
        }

        // Handover takes precedence when armed and the target still lives.
        let mut target = None;
        let mut count = dev.queue.len().min(MAX_BUNDLE);
        if let Some((y, c)) = dev.pending_handover.take() {
            self.world.hot.set_may_offer(i, dev.may_offer());
            let target_alive = self.world.hot.active[y.index()];
            if target_alive {
                let c = c.min(MAX_BUNDLE);
                if c > 0 {
                    target = Some(y);
                    count = c;
                }
            }
        }
        let dev = self.world.devices.get_mut(n).expect("checked above");
        // Bundle the front of the queue under both caps: the 12-message
        // bundle limit and the PHY byte budget. Uniform 20-byte readings
        // saturate both at once (12 × 20 = 240), reproducing the legacy
        // count-only selection exactly; heterogeneous payloads stop at
        // whatever fits.
        let count = count.min(dev.queue.len());
        let messages = dev.queue.peek_front_within(count, MAX_BUNDLE_BYTES);
        if messages.is_empty() {
            return;
        }
        let frame = UplinkFrame::new(
            n,
            messages,
            dev.routing.beacon_metric_at(self.now, dev.queue.len()),
            dev.queue.len(),
        );
        let airtime = self.airtime.lookup(frame.payload_bytes());
        dev.duty.record_tx(self.now, airtime);
        self.world.hot.set_transmitting(i, true);
        self.world.hot.tx_window[i] = Some((self.now, self.now + airtime));
        // Queue-based Class-A opens its Eq. 11 window after this uplink.
        if class == DeviceClass::QueueBasedClassA {
            let gamma = dev.routing.gamma(dev.queue.len(), queue_capacity);
            self.world.hot.gamma[i] = gamma;
            dev.rx_window_time += gen_interval.mul_f64(gamma);
        }
        self.delivery
            .collector
            .on_frame_sent(target.is_some(), &frame, airtime);
        observer.on_frame_tx(&FrameTransmitted {
            time: self.now,
            sender: n,
            bundled: frame.len(),
            payload_bytes: frame.payload_bytes(),
            airtime,
            handover_target: target,
        });

        let pos = self.world.position_now(n, self.now);
        let key = self
            .channel
            .launch(n, frame, target, self.now, self.now + airtime, pos);
        self.events.schedule(self.now + airtime, Event::TxEnd(key));
    }

    /// A transmission ends: receptions resolve at the gateways and the
    /// neighbours, then the sender settles.
    fn on_tx_end(&mut self, key: SlabKey, observer: &mut dyn SimObserver) {
        // Expired-flight reclamation is deferred to the launch path
        // (`Channel::maybe_sweep`); a stale flight cannot pass the
        // time-overlap filter, so nothing here depends on it.

        // Take the slab out of the channel so the subject flight can be
        // borrowed across the resolution calls without cloning; nothing
        // below launches a frame.
        let flights = std::mem::take(&mut self.channel.flights);
        let Some(flight) = flights.get(key) else {
            self.channel.flights = flights;
            return;
        };
        let sender = flight.sender;

        // Sender leaves the transmit state.
        self.world.hot.set_transmitting(sender.index(), false);
        self.world.hot.last_tx_end[sender.index()] = Some(self.now);

        let mut to_schedule = std::mem::take(&mut self.scratch_schedule);
        to_schedule.clear();
        // The frames overlapping this one in time (including itself), in
        // creation order — a walk down the newest rows of the flight
        // ring — and the two spatial queries.
        let mut overlaps = std::mem::take(&mut self.channel.scratch_overlaps);
        self.channel
            .overlaps_into(flight.start, flight.end, &mut overlaps);
        let gateway_rssi = self
            .delivery
            .resolve_gateways(&mut self.channel, &overlaps, flight);

        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        self.world
            .batched_candidates(self.now, sender, flight.pos, &mut candidates);
        let mut near = std::mem::take(&mut self.channel.scratch_near_overlaps);
        let d2d = self.world.reach().range();
        Channel::near_overlaps_into(&overlaps, flight.pos, d2d, &mut near);
        let accepted_by_target =
            self.resolve_neighbours(flight, &candidates, &near, &mut to_schedule, observer);

        self.scratch_candidates = candidates;
        self.channel.scratch_near_overlaps = near;
        self.channel.scratch_overlaps = overlaps;

        self.settle_sender(flight, gateway_rssi, accepted_by_target, observer);
        for &n in &to_schedule {
            self.maybe_schedule_tx(n);
        }

        self.scratch_schedule = to_schedule;
        self.channel.flights = flights;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusWithdrawal, DisruptionPlan, Environment, GatewayOutage, Scenario};
    use mlora_core::Scheme;
    use mlora_geo::{BBox, Polyline};
    use mlora_mobility::{BusNetwork, Route, RouteId, Trip};
    use proptest::prelude::*;

    fn smoke(scheme: Scheme) -> SimReport {
        SimConfig::smoke_test(scheme, Environment::Urban)
            .run(1234)
            .expect("valid config")
    }

    /// The premises only the engine as a whole can judge, each broken
    /// on its own in a run stopped mid-outage.
    #[test]
    fn check_refuses_a_clock_past_the_horizon_and_depths_off_the_timeline() {
        let outage = GatewayOutage {
            gateway: 0,
            start: SimTime::from_secs(600),
            duration: Some(SimDuration::from_secs(900)),
        };
        let cfg = Scenario::urban()
            .smoke()
            .disruptions(DisruptionPlan {
                outages: vec![outage],
                ..DisruptionPlan::default()
            })
            .build()
            .unwrap();
        let mut engine = Engine::new(cfg, 7);
        engine.run_until(SimTime::from_secs(900));
        assert_eq!(engine.check(), Ok(()));
        // The outage moved to another gateway: the collector still
        // counts one down, the timeline says which.
        let mut depths = engine.delivery.outage_depths().to_vec();
        assert_eq!(depths[..2], [1, 0]);
        depths.swap(0, 1);
        engine.delivery.restore_outages(depths.clone());
        assert_eq!(
            engine.check(),
            Err("outage depth disagrees with the timeline")
        );
        depths.swap(0, 1);
        engine.delivery.restore_outages(depths);
        // An empty queue whose counter would reissue a trip's numbers.
        let events = std::mem::replace(
            &mut engine.events,
            EventQueue::from_raw_parts(Vec::new(), 2 * engine.live_trips as u64 - 1).unwrap(),
        );
        assert_eq!(
            engine.check(),
            Err("event counter inside the timetable's reserved numbers")
        );
        engine.events = events;
        engine.now = engine.horizon + SimDuration::from_millis(1);
        assert_eq!(engine.check(), Err("clock past the horizon"));
    }

    #[test]
    fn no_routing_runs_and_delivers() {
        let r = smoke(Scheme::NoRouting);
        assert!(r.generated > 100, "generated {}", r.generated);
        assert!(r.delivered > 0, "delivered {}", r.delivered);
        assert!(r.delivered <= r.generated);
        assert_eq!(r.handover_frames, 0);
        assert_eq!(r.handover_messages, 0);
        // Every delivery in the baseline is exactly one hop.
        assert_eq!(r.mean_hops(), 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = smoke(Scheme::Robc);
        let b = smoke(Scheme::Robc);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        let a = cfg.run(1).unwrap();
        let b = cfg.run(2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn forwarding_schemes_move_data_between_devices() {
        let r = smoke(Scheme::Robc);
        assert!(r.handover_frames > 0, "ROBC never handed over");
        assert!(r.mean_hops() >= 1.0);
    }

    #[test]
    fn rca_etx_scheme_hands_over() {
        let r = smoke(Scheme::RcaEtx);
        assert!(r.handover_frames > 0, "RCA-ETX never handed over");
    }

    #[test]
    fn message_conservation() {
        for scheme in Scheme::ALL {
            let r = smoke(scheme);
            assert!(
                r.delivered + r.stranded + r.queue_drops >= r.generated,
                "{scheme}: {} delivered + {} stranded + {} drops < {} generated",
                r.delivered,
                r.stranded,
                r.queue_drops,
                r.generated
            );
        }
    }

    #[test]
    fn overhead_ordering_matches_paper() {
        // Fig. 13: forwarding schemes send more frames per node.
        let base = smoke(Scheme::NoRouting).mean_frames_per_node();
        let robc = smoke(Scheme::Robc).mean_frames_per_node();
        // Smoke-scale runs are noisy; the paper-scale ordering (1.6–2.2×)
        // is asserted by the repro harness. Here we only require ROBC not
        // to transmit *less* than the baseline beyond noise.
        assert!(
            robc >= 0.9 * base,
            "ROBC overhead {robc} far below baseline {base}"
        );
    }

    #[test]
    fn energy_accounted_for_all_devices() {
        let r = smoke(Scheme::NoRouting);
        assert!(r.devices_seen > 0);
        assert!(r.total_energy_mj > 0.0);
        assert!(r.total_active_s > 0.0);
    }

    #[test]
    fn gateways_on_grid() {
        let cfg = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        let engine = Engine::new(cfg.clone(), 9);
        assert_eq!(engine.gateways().len(), cfg.num_gateways);
        for gw in engine.gateways() {
            assert!(engine.network().area().contains(*gw));
        }
    }

    #[test]
    fn state_is_built_at_departure_not_at_construction() {
        use crate::Scenario;
        use mlora_mobility::{DiurnalProfile, MetroConfig};
        let metro = MetroConfig {
            area_side_m: 10_000.0,
            num_radials: 16,
            num_rings: 8,
            peak_active_buses: 6_000,
            min_legs: 1,
            max_legs: 1,
            profile: DiurnalProfile::flat(1.0),
            ..MetroConfig::default()
        };
        let cfg = Scenario::urban().metro(&metro, 5).build().unwrap();
        let trips = cfg.world.as_ref().unwrap().trips().len();
        assert!(trips >= 100_000, "only {trips} trips");
        let mut engine = Engine::new(cfg, 5);
        assert_eq!(engine.world.devices.slot_count(), 0);
        assert_eq!(engine.world.devices.iter().count(), 0);
        assert_eq!(engine.stats().device_rows, 0);
        assert_eq!(engine.stats().queue_depth_high_water, 0);
        // One row per departure so far, and nothing queued for the rest
        // of the day: each bus on the road has at most its trip end,
        // one reading and one transmission pending.
        engine.run_until(SimTime::from_secs(60));
        let stats = engine.stats();
        assert_eq!(stats.device_rows, engine.next_trip);
        assert!(stats.device_rows > 0 && stats.device_rows < trips / 10);
        assert!(stats.queue_depth_high_water <= 3 * stats.device_rows);
    }

    /// A whole run's statistics: step to the horizon, read, finish.
    fn run_with_stats(cfg: SimConfig, seed: u64) -> (SimReport, EngineStats) {
        let mut engine = Engine::new(cfg, seed);
        engine.run_until(SimTime::MAX);
        let stats = engine.stats();
        (engine.finish(), stats)
    }

    #[test]
    fn instrumented_run_matches_plain_run() {
        let cfg = SimConfig::smoke_test(Scheme::Robc, Environment::Urban);
        let plain = Engine::new(cfg.clone(), 7).run();
        let (report, stats) = run_with_stats(cfg, 7);
        assert_eq!(plain, report);
        assert!(
            stats.events_processed > report.generated + report.frames_sent,
            "loop must process at least one event per message and frame"
        );
    }

    /// The reception counters: how much the channel heard is a property
    /// of the model and the seed; how much of it was evaluated exactly
    /// depends on who reads strengths. Gateways always do (and at smoke
    /// scale they are a large share of all receivers), the greedy
    /// scheme's policy does, ROBC's and the baseline's never.
    #[test]
    fn reception_counters_follow_the_readers() {
        for scheme in Scheme::WITH_CA_ETX {
            let cfg = SimConfig::smoke_test(scheme, Environment::Urban);
            let (_, stats) = run_with_stats(cfg.clone(), 7);
            let (_, again) = run_with_stats(cfg, 7);
            assert_eq!(stats, again, "{scheme}");
            assert!(stats.receptions > 100, "{scheme}: {stats:?}");
            assert!(
                stats.frames_heard >= stats.receptions / 2,
                "{scheme}: {stats:?}"
            );
            assert!(
                stats.rssi_evaluated <= stats.frames_heard,
                "{scheme}: {stats:?}"
            );
            if matches!(scheme, Scheme::Robc | Scheme::NoRouting) {
                assert!(
                    2 * stats.rssi_evaluated <= stats.frames_heard,
                    "{scheme}: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn queue_based_class_a_delivers_with_less_energy() {
        let mut cfg_c = SimConfig::smoke_test(Scheme::Robc, Environment::Urban);
        cfg_c.device_class = DeviceClass::ModifiedClassC;
        let mut cfg_a = cfg_c.clone();
        cfg_a.device_class = DeviceClass::QueueBasedClassA;
        let rc = cfg_c.run(7).unwrap();
        let ra = cfg_a.run(7).unwrap();
        assert!(ra.delivered > 0);
        assert!(
            ra.mean_energy_per_node_mj() < rc.mean_energy_per_node_mj(),
            "queue-based class A should save energy: {} vs {}",
            ra.mean_energy_per_node_mj(),
            rc.mean_energy_per_node_mj()
        );
    }

    proptest! {
        /// The cursor-merged event source equals the eager seeding, event
        /// for event and key for key, stepped through an arbitrary cut and
        /// through a checkpoint resumed there (which derives the cursor
        /// from the captured instant alone).
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
            let head = timetable_events(&mut engine, SimTime::from_millis(cut_ms));
            let snap = engine.snapshot().expect("stepped engine snapshots");
            let mut resumed = Engine::resume(&snap).expect("snapshot resumes");
            for branch in [&mut engine, &mut resumed] {
                let mut got = head.clone();
                got.extend(timetable_events(branch, horizon));
                prop_assert_eq!(&got, &want, "cut at {} ms", cut_ms);
            }
        }
    }

    /// Steps `engine` to `until` and returns, in handling order, every
    /// trip-lifecycle and disruption event with the `(time, seq)` key it
    /// was taken under — the part of the event order that must equal
    /// what seeding the whole timetable into the queue up front would
    /// produce, whatever else the run schedules in between.
    fn timetable_events(engine: &mut Engine, until: SimTime) -> Vec<(SimTime, u64, Event)> {
        let mut order = Vec::new();
        engine.advance_tracing(until, &mut NullObserver, |t, seq, ev| {
            if matches!(
                ev,
                Event::TripStart(_) | Event::TripEnd(_) | Event::Disruption(_)
            ) {
                order.push((t, seq, ev));
            }
        });
        order
    }

    /// Departures, disruptions and the cut all fall on multiples of this,
    /// so same-millisecond ties are the rule rather than the exception.
    const SLOT_MS: u64 = 250_000;
    /// Departure slots drawn from; the horizon sits on slot `SLOTS - 2`,
    /// so the last two hold departures at and after it.
    const SLOTS: u64 = 8;

    /// A one-line world whose timetable is decoded from `raw`, one trip
    /// per word: departure slot, one or two 300-second legs, and for one
    /// word in four a zero-length service window. `plan` places a gateway
    /// outage whose both ends fall on departure slots and a withdrawal of
    /// half the fleet, which retires buses ahead of their `TripEnd`. The
    /// horizon cuts the timetable short of its last departures.
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
                let legs = 1 + (bits & 1) as u32;
                let mut trip = Trip::new(NodeId::new(i as u32), &route, depart, legs);
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

    /// What the engine's start-up used to schedule before the first
    /// event: both lifecycle events of every trip departing before the
    /// horizon, in timetable order, then the compiled disruption
    /// timeline — popped in `(time, seq)` order.
    fn eager_seeding(cfg: &SimConfig) -> Vec<(SimTime, u64, Event)> {
        let horizon = SimTime::ZERO + cfg.horizon;
        let world = cfg.world.as_ref().expect("scenario carries its world");
        let mut seeded = Vec::new();
        for trip in world.trips().iter().filter(|t| t.depart() < horizon) {
            seeded.push((trip.depart(), Event::TripStart(trip.node())));
            seeded.push((trip.end().min(horizon), Event::TripEnd(trip.node())));
        }
        for (i, &(t, _)) in cfg.disruptions.compile(cfg.horizon).iter().enumerate() {
            if t <= horizon {
                seeded.push((t, Event::Disruption(i as u32)));
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
}
