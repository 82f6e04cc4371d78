//! Engine snapshots: serialize complete mid-run state into a versioned
//! `.mlss` container, resume it bit-identically, and fork what-if
//! branches under additional disruption overlays.
//!
//! A [`Snapshot`] captures *everything* the event loop's future depends
//! on: the scenario configuration (embedded verbatim in the `.mlsc`
//! wire format), the pending event queue with its sequence counter, the
//! full per-device state (queues, duty-cycle clocks, retransmission
//! counters, routing estimators, traffic cursors), the flight slab with
//! its generation structure and free list, every RNG stream's exact
//! words, gateway outage depths, applied withdrawals and the mid-run
//! metric collector. [`Engine::resume`] rebuilds the deterministic
//! substrate (mobility network, gateway placement) from the stored
//! master seed and overlays the captured dynamic state, so stepping the
//! resumed engine processes exactly the event sequence the original
//! uninterrupted run would — bit for bit, for any scheme, with traffic
//! and disruptions active, across shard counts.
//!
//! The container reuses the scenario format's block framing (checksummed
//! 64 KiB blocks, varint/f64 primitives) under its own `MLSS` magic;
//! see the format notes in the `scenario-io` crate docs.
//!
//! # The events section holds live events only
//!
//! The timetable is not in the queue (see the engine module docs): a
//! checkpoint records the `TripEnd`s of buses on the road next to the
//! traffic, transmission and disruption events, and nothing for a trip
//! that has not departed. Resume derives the timetable cursor as the
//! number of trips with `depart <= now` — every event due at or before
//! the captured instant has been processed, departures included — so
//! the header needs no field for it.
//!
//! Builds that seeded the whole timetable up front wrote a `TripStart`
//! and a `TripEnd` record for every undeparted trip into the same
//! section, under the same version word. Those files still resume bit
//! for bit: each such record must carry exactly the `(time, seq)` key
//! the cursor will re-issue for that trip, and is then dropped at load.
//! A lifecycle record that disagrees with the timetable — one that
//! would start a trip a second time, or at another instant — is refused
//! as [`SnapshotError::Format`].

use std::collections::HashSet;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use mlora_core::{
    CaEtxEstimator, ContactTracker, DonorLedger, Ewma, RcaEtxEstimator, RoutingState,
};
use mlora_geo::Point;
use mlora_mac::{AppMessage, DataQueue, DutyCycleTracker, Priority, RetransmitPolicy, UplinkFrame};
use mlora_scenario_io::{Enc, ScenarioIoError, ScenarioReader, ScenarioWriter};
use mlora_simcore::stats::{TimeSeries, Welford};
use mlora_simcore::{
    DenseMap, EventQueue, MessageId, NodeId, SimDuration, SimRng, SimTime, SlabKey,
};

use super::channel::{Flight, FlightRef};
use super::world::{Device, DeviceHot, DeviceTraffic};
use super::{Engine, Event};
use crate::config::MAX_SHARDS;
use crate::metrics::Collector;
use crate::{
    DeviceClassChoice, DisruptionEvent, DisruptionPlan, ProfileReport, ScenarioFileError,
    SimConfig, SimReport,
};

/// The four magic bytes every engine snapshot starts with — the `.mlss`
/// sibling of the scenario format's `MLSC`.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MLSS";

// Section ids, in file order. The layout is strict: resume decodes the
// sections in exactly this sequence and treats any other order as
// corruption, so the format stays trivially versionable.
const SEC_HEADER: u8 = 1;
const SEC_CONFIG: u8 = 2;
const SEC_EVENTS: u8 = 3;
const SEC_DEVICES: u8 = 4;
const SEC_WITHDRAWN: u8 = 5;
const SEC_FLIGHT_SLOTS: u8 = 6;
const SEC_FLIGHT_FREE: u8 = 7;
const SEC_STREAMS: u8 = 8;
const SEC_DELIVERY: u8 = 9;
const SEC_COLLECTOR: u8 = 10;

/// Error taking, loading or resuming an engine snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying IO operation failed.
    Io(std::io::Error),
    /// The snapshot container is malformed (bad magic, truncation,
    /// checksum mismatch, structural corruption).
    Format(ScenarioIoError),
    /// The embedded scenario configuration failed to encode or decode —
    /// including [`ScenarioFileError::UnsupportedPolicy`] when the
    /// engine runs an explicit forwarding policy, which cannot be
    /// serialized.
    Scenario(ScenarioFileError),
    /// [`Engine::snapshot`] was called outside the snapshottable window;
    /// the message says which side was violated.
    NotRunning(&'static str),
    /// A fork overlay is inconsistent with the snapshot (invalid plan,
    /// or events scheduled at or before the snapshot instant).
    Overlay(String),
    /// A forked branch panicked inside
    /// [`Runner::fork`](crate::Runner::fork).
    BranchPanicked {
        /// Index of the overlay whose branch died.
        branch: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Format(e) => write!(f, "snapshot container: {e}"),
            SnapshotError::Scenario(e) => write!(f, "snapshot scenario: {e}"),
            SnapshotError::NotRunning(what) => {
                write!(f, "engine cannot be snapshotted: {what}")
            }
            SnapshotError::Overlay(what) => write!(f, "fork overlay rejected: {what}"),
            SnapshotError::BranchPanicked { branch, message } => {
                write!(f, "fork branch {branch} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Format(e) => Some(e),
            SnapshotError::Scenario(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ScenarioIoError> for SnapshotError {
    fn from(e: ScenarioIoError) -> Self {
        SnapshotError::Format(e)
    }
}

impl From<ScenarioFileError> for SnapshotError {
    fn from(e: ScenarioFileError) -> Self {
        SnapshotError::Scenario(e)
    }
}

/// A complete mid-run engine checkpoint (see the module docs).
///
/// Opaque bytes plus a cached header; [`Engine::resume`] reconstructs a
/// running engine from it, [`Snapshot::to_file`]/[`Snapshot::from_file`]
/// move it through the `.mlss` on-disk format.
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
    seed: u64,
    shards: usize,
    time: SimTime,
    /// The embedded scenario, decoded on first use: every engine
    /// resumed or forked from this snapshot clones it, and so shares one
    /// prebuilt world instead of decoding its own.
    config: OnceLock<SimConfig>,
}

impl Snapshot {
    /// The simulation instant the snapshot was taken at (the timestamp
    /// of the last processed event).
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The master seed of the captured run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard count the captured run executes with (resume rebuilds
    /// the same spatial partitioning).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The raw serialized container, exactly what
    /// [`Snapshot::to_writer`] emits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The scenario configuration embedded in the snapshot (with the
    /// captured shard count restored — the scenario wire format itself
    /// does not carry one).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`] on a corrupt container,
    /// [`SnapshotError::Scenario`] when the embedded configuration does
    /// not decode.
    pub fn config(&self) -> Result<SimConfig, SnapshotError> {
        if let Some(cfg) = self.config.get() {
            return Ok(cfg.clone());
        }
        let mut r = ScenarioReader::with_magic(self.bytes.as_slice(), SNAPSHOT_MAGIC)?;
        let header = read_header(&mut r)?;
        let cfg = read_config(&mut r, header.shards)?;
        Ok(self.config.get_or_init(|| cfg).clone())
    }

    /// Writes the serialized snapshot into `out`.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from `out`.
    pub fn to_writer<W: Write>(&self, mut out: W) -> Result<(), SnapshotError> {
        out.write_all(&self.bytes)?;
        Ok(())
    }

    /// Writes the snapshot to a `.mlss` file.
    ///
    /// # Errors
    ///
    /// Propagates IO errors.
    pub fn to_file(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        self.to_writer(&mut out)?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(())
    }

    /// Reads a serialized snapshot from `input`, validating its magic,
    /// version and header section.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on read failures, [`SnapshotError::Format`]
    /// on a foreign, newer-format or corrupt container.
    pub fn from_reader<R: Read>(mut input: R) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        input.read_to_end(&mut bytes)?;
        Snapshot::from_bytes(bytes)
    }

    /// Loads a snapshot from a `.mlss` file.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::from_reader`].
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path)?;
        Snapshot::from_reader(std::io::BufReader::new(file))
    }

    /// Wraps already-serialized snapshot bytes, validating the magic,
    /// version and header section (deep validation of the remaining
    /// sections happens at [`Engine::resume`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`] on a foreign, newer-format or corrupt
    /// container.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let mut r = ScenarioReader::with_magic(bytes.as_slice(), SNAPSHOT_MAGIC)?;
        let header = read_header(&mut r)?;
        Ok(Snapshot {
            seed: header.seed,
            shards: header.shards,
            time: header.now,
            bytes,
            config: OnceLock::new(),
        })
    }
}

/// The decoded header section: run identity and loop counters.
struct Header {
    seed: u64,
    shards: usize,
    now: SimTime,
    next_msg: u64,
    events_processed: u64,
    event_seq: u64,
}

impl Engine {
    /// Captures the engine's complete mid-run state as a [`Snapshot`].
    ///
    /// The engine must be *mid-run*: started (at least one
    /// [`Engine::run_until`] call) and not yet finished. The engine is
    /// not perturbed — stepping on after a snapshot produces exactly
    /// the run that would have happened without one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotRunning`] outside the snapshottable window,
    /// [`SnapshotError::Scenario`] when the configuration cannot be
    /// serialized (explicit forwarding policies have no wire form).
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        if !self.started {
            return Err(SnapshotError::NotRunning(
                "not started; step it with run_until first",
            ));
        }
        if self.executed {
            return Err(SnapshotError::NotRunning(
                "run already finished; nothing left to capture",
            ));
        }
        let (queue_records, event_seq) = self.events.raw_parts();
        self.encode_snapshot(queue_records, event_seq)
    }

    /// Writes the container around the given events section (the
    /// queue's own records in [`Engine::snapshot`]).
    fn encode_snapshot(
        &self,
        queue_records: &[(u128, Event)],
        event_seq: u64,
    ) -> Result<Snapshot, SnapshotError> {
        let cfg_section = match self.cfg_section.get() {
            Some(section) => section,
            None => {
                let section = frame_config_section(&self.cfg)?;
                self.cfg_section.get_or_init(|| section)
            }
        };

        // One allocation: consecutive checkpoints of a run differ in
        // size by the few devices and flights that came or went.
        // (`Relaxed`: a size hint, it publishes nothing.)
        let expected = cfg_section
            .len()
            .max(self.last_snapshot_len.load(Ordering::Relaxed));
        let out = Vec::with_capacity(expected + expected / 8);
        let mut w = ScenarioWriter::with_magic(out, SNAPSHOT_MAGIC)?;

        // Header: run identity and loop counters.
        w.begin_section(SEC_HEADER, 1)?;
        let enc = w.enc();
        enc.put_varint(self.seed);
        enc.put_varint(self.cfg.shards as u64);
        enc.put_varint(self.now.as_millis());
        enc.put_varint(self.next_msg);
        enc.put_varint(self.events_processed);
        enc.put_varint(event_seq);
        w.end_record()?;
        w.end_section()?;

        // The scenario, embedded verbatim as one `.mlsc` blob.
        w.write_framed_section(cfg_section)?;

        // The event queue — live events only, see the module docs — in
        // heap layout order, so the restored queue pops in exactly the
        // original sequence.
        w.begin_section(SEC_EVENTS, queue_records.len() as u64)?;
        for &(key, ev) in queue_records {
            let enc = w.enc();
            enc.put_varint((key >> 64) as u64);
            enc.put_varint(key as u64);
            put_event(enc, ev);
            w.end_record()?;
        }
        w.end_section()?;

        // Every device ever activated, active or retired, in id order.
        // Hot-column values are gathered back into a row view so the
        // per-device wire record is byte-identical to the AoS era.
        w.begin_section(SEC_DEVICES, self.world.devices.len() as u64)?;
        for (idx, dev) in self.world.devices.iter() {
            let hot = self.world.hot.device_hot(idx);
            let enc = w.enc();
            enc.put_varint(idx as u64);
            put_device(enc, dev, hot);
            w.end_record()?;
        }
        w.end_section()?;

        // Applied withdrawals, in application order: resume replays the
        // trip truncations against the freshly regenerated network.
        w.begin_section(SEC_WITHDRAWN, self.withdrawn.len() as u64)?;
        for &(node, t) in &self.withdrawn {
            let enc = w.enc();
            enc.put_varint(node.raw() as u64);
            enc.put_varint(t.as_millis());
            w.end_record()?;
        }
        w.end_section()?;

        // The flight slab, slot by slot (vacant included) plus the free
        // list, so restored slab keys resolve identically.
        let slot_count = self.channel.flight_slot_count() as u64;
        w.begin_section(SEC_FLIGHT_SLOTS, slot_count)?;
        for (generation, flight) in self.channel.raw_flight_slots() {
            let enc = w.enc();
            enc.put_varint(generation as u64);
            match flight {
                None => enc.put_bool(false),
                Some(f) => {
                    enc.put_bool(true);
                    put_flight(enc, f);
                }
            }
            w.end_record()?;
        }
        w.end_section()?;
        let free = self.channel.flight_free_list();
        w.begin_section(SEC_FLIGHT_FREE, free.len() as u64)?;
        for &i in free {
            w.enc().put_varint(i as u64);
            w.end_record()?;
        }
        w.end_section()?;

        // Every RNG stream's exact words plus the channel and world
        // runtime scalars.
        let (channel_rng, next_flight_seq, active_noise) = self.channel.checkpoint_parts();
        w.begin_section(SEC_STREAMS, 1)?;
        let enc = w.enc();
        put_rng(enc, channel_rng);
        enc.put_varint(next_flight_seq);
        enc.put_varint(active_noise.len() as u64);
        for &b in active_noise {
            enc.put_varint(b as u64);
        }
        put_rng(enc, self.disruption_rng.state());
        put_rng(enc, self.traffic_root.state());
        enc.put_varint(self.world.grid_refresh_due().as_millis());
        w.end_record()?;
        w.end_section()?;

        // Gateway outage depths.
        let depths = self.delivery.outage_depths();
        w.begin_section(SEC_DELIVERY, 1)?;
        let enc = w.enc();
        enc.put_varint(depths.len() as u64);
        for &d in depths {
            enc.put_varint(d as u64);
        }
        w.end_record()?;
        w.end_section()?;

        // The mid-run metric collector, wholesale.
        let c = &self.delivery.collector;
        w.begin_section(SEC_COLLECTOR, 1)?;
        let enc = w.enc();
        put_report(enc, &c.report);
        enc.put_varint(c.arrived.len() as u64);
        for (idx, &t) in c.arrived.iter() {
            enc.put_varint(idx as u64);
            enc.put_varint(t.as_millis());
        }
        enc.put_varint(c.transfers.len() as u64);
        for (idx, &n) in c.transfers.iter() {
            enc.put_varint(idx as u64);
            enc.put_varint(n as u64);
        }
        enc.put_varint(c.outage_depth as u64);
        enc.put_varint(c.outage_since.as_millis());
        enc.put_varint(c.outage_generated.len() as u64);
        for (idx, _) in c.outage_generated.iter() {
            enc.put_varint(idx as u64);
        }
        w.end_record()?;
        w.end_section()?;

        let bytes = w.finish()?;
        self.last_snapshot_len.store(bytes.len(), Ordering::Relaxed);
        Ok(Snapshot {
            bytes,
            seed: self.seed,
            shards: self.cfg.shards,
            time: self.now,
            config: OnceLock::new(),
        })
    }

    /// Reconstructs a running engine from `snapshot`, positioned exactly
    /// where the capture left off. Stepping it (or [`Engine::finish`])
    /// produces results bit-identical to the uninterrupted original run.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`]/[`SnapshotError::Scenario`] on a
    /// corrupt or undecodable container.
    pub fn resume(snapshot: &Snapshot) -> Result<Engine, SnapshotError> {
        Engine::resume_with_overlay(snapshot, DisruptionPlan::default())
    }

    /// [`Engine::resume`] with an additional [`DisruptionPlan`] overlay
    /// — the what-if fork primitive. The resumed branch replays the
    /// captured state exactly, then diverges only once the overlay's
    /// first event fires: overlay outages, withdrawals and noise bursts
    /// are appended to the scenario's own plan (original disruption
    /// indices stay stable) and their compiled events are scheduled on
    /// top of the restored queue.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Overlay`] when the overlay is invalid for the
    /// captured scenario or schedules an event at or before the
    /// snapshot instant; container errors as [`Engine::resume`].
    pub fn resume_with_overlay(
        snapshot: &Snapshot,
        overlay: DisruptionPlan,
    ) -> Result<Engine, SnapshotError> {
        let mut r = ScenarioReader::with_magic(snapshot.bytes.as_slice(), SNAPSHOT_MAGIC)?;
        let header = read_header(&mut r)?;
        // The scenario is decoded by the first resume of this snapshot;
        // later ones clone that copy — prebuilt world shared, not
        // rebuilt — and only step over the section.
        let mut cfg = match snapshot.config.get() {
            Some(cfg) => {
                expect_section(&mut r, SEC_CONFIG, "snapshot config")?;
                r.skip_section()?;
                cfg.clone()
            }
            None => {
                let cfg = read_config(&mut r, header.shards)?;
                snapshot.config.get_or_init(|| cfg).clone()
            }
        };
        let original = cfg.disruptions.clone();

        // Compile the overlay against the captured horizon, offsetting
        // its plan-internal indices past the original plan's tables
        // (gateway indices are global and need none).
        let overlay_events = if overlay.is_empty() {
            Vec::new()
        } else {
            overlay
                .validate(cfg.num_gateways)
                .map_err(|e| SnapshotError::Overlay(e.to_string()))?;
            let withdraw_off = original.withdrawals.len() as u32;
            let noise_off = original.noise_bursts.len() as u32;
            let compiled: Vec<(SimTime, DisruptionEvent)> = overlay
                .compile(cfg.horizon)
                .into_iter()
                .map(|(t, ev)| (t, offset_event(ev, withdraw_off, noise_off)))
                .collect();
            if let Some(&(t, _)) = compiled.iter().find(|&&(t, _)| t <= header.now) {
                return Err(SnapshotError::Overlay(format!(
                    "overlay event at {} s is not after the snapshot instant ({} s)",
                    t.as_millis() as f64 / 1e3,
                    header.now.as_millis() as f64 / 1e3,
                )));
            }
            // Merge the overlay into the scenario's own plan by
            // appending, so the channel's noise table and the
            // withdrawal table grow without renumbering.
            cfg.disruptions
                .outages
                .extend(overlay.outages.iter().cloned());
            cfg.disruptions
                .withdrawals
                .extend(overlay.withdrawals.iter().cloned());
            cfg.disruptions
                .noise_bursts
                .extend(overlay.noise_bursts.iter().cloned());
            compiled
        };

        let mut engine = Engine::new(cfg, header.seed);
        // Engine::new compiled the *merged* plan, which interleaves
        // overlay events among the originals by time — breaking the
        // index stability the restored `Disruption(i)` queue events
        // rely on. Rebuild: original timeline verbatim, overlay events
        // appended past it.
        let overlay_base = {
            let mut timeline = original.compile(engine.cfg.horizon);
            let base = timeline.len();
            timeline.extend(overlay_events.iter().cloned());
            engine.timeline = timeline;
            base
        };
        engine.started = true;
        engine.now = header.now;
        engine.next_msg = header.next_msg;
        engine.events_processed = header.events_processed;

        // Every event due at or before `now` has been processed, so the
        // timetable cursor stands past exactly the trips departed by then.
        let departed = engine
            .world
            .net
            .trips()
            .partition_point(|t| t.depart() <= header.now);
        engine.next_trip = departed.min(engine.live_trips);

        // Pending events, in the writer's record order: a heap layout
        // (ascending keys, which builds that ran on a calendar queue
        // wrote, are one). Lifecycle records of undeparted trips (see
        // the module docs) are checked against the timetable and dropped.
        let n = expect_section(&mut r, SEC_EVENTS, "snapshot events")?;
        let mut records = Vec::with_capacity((n as usize).min(1 << 16));
        let mut dropped = false;
        for _ in 0..n {
            r.begin_record()?;
            let time = SimTime::from_millis(r.varint()?);
            let seq = r.varint()?;
            let ev = get_event(&mut r)?;
            let reissued = match ev {
                Event::TripStart(node) => Some((node.index(), 0)),
                Event::TripEnd(node) if node.index() >= engine.next_trip => Some((node.index(), 1)),
                _ => None,
            };
            if let Some((trip, which)) = reissued {
                let undeparted = (engine.next_trip..engine.live_trips).contains(&trip);
                if !undeparted || engine.lifecycle_keys(trip)[which] != (time, seq) {
                    return Err(ScenarioIoError::Corrupt(
                        "trip lifecycle record disagrees with the timetable",
                    )
                    .into());
                }
                dropped = true;
                continue;
            }
            records.push(((u128::from(time.as_millis()) << 64) | u128::from(seq), ev));
        }
        if dropped {
            // What is left of a heap layout with holes in it is no heap
            // layout; ascending keys are one.
            records.sort_unstable_by_key(|&(key, _)| key);
        }
        engine.queue_depth_high_water = records.len();
        engine.events = EventQueue::from_raw_parts(records, header.event_seq).ok_or(
            ScenarioIoError::Corrupt("event records are not in heap order"),
        )?;
        // Overlay disruptions are scheduled *after* the queue restore so
        // they take fresh (higher) sequence numbers: at equal times they
        // fire after everything the original run had already scheduled.
        for (j, &(t, _)) in overlay_events.iter().enumerate() {
            engine
                .events
                .schedule(t, Event::Disruption((overlay_base + j) as u32));
        }

        // Devices: active ones re-enter the world through activate()
        // (which rebuilds the sorted active set and the neighbour grid),
        // retired ones only re-enter the device map.
        let n = expect_section(&mut r, SEC_DEVICES, "snapshot devices")?;
        for _ in 0..n {
            r.begin_record()?;
            let node = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
            if node.index() >= engine.next_trip {
                return Err(ScenarioIoError::Corrupt("device record of an undeparted trip").into());
            }
            let (dev, hot) = get_device(&mut r, &engine.cfg)?;
            engine.world.open_row(node);
            if hot.active {
                let pos = dev.grid_pos;
                engine.world.activate(node, dev, pos);
            } else {
                engine.world.devices.insert(node, dev);
            }
            // Scatter the captured hot row over activate()'s defaults —
            // retired devices keep their historical transmit state, so
            // a re-snapshot reproduces the original bytes.
            engine.world.hot.set(node.index(), hot);
        }

        // Replay withdrawals against the network (the first takes this
        // engine's private copy) — before the shard runtime below hands
        // the workers their reference to it.
        let n = expect_section(&mut r, SEC_WITHDRAWN, "snapshot withdrawals")?;
        for _ in 0..n {
            r.begin_record()?;
            let node = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
            let t = SimTime::from_millis(r.varint()?);
            engine.world.withdraw_trip(node, t);
            engine.withdrawn.push((node, t));
        }

        // The flight slab: slots verbatim (vacant included), then the
        // free list.
        let n = expect_section(&mut r, SEC_FLIGHT_SLOTS, "snapshot flight slots")?;
        let mut slots = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            r.begin_record()?;
            let generation = u32::try_from(r.varint()?).map_err(bad_index)?;
            let flight = if r.bool()? {
                Some(get_flight(&mut r)?)
            } else {
                None
            };
            slots.push((generation, flight));
        }
        let n = expect_section(&mut r, SEC_FLIGHT_FREE, "snapshot flight free list")?;
        let mut free = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            r.begin_record()?;
            free.push(u32::try_from(r.varint()?).map_err(bad_index)?);
        }
        // RNG streams and runtime scalars.
        expect_section(&mut r, SEC_STREAMS, "snapshot streams")?;
        r.begin_record()?;
        let channel_rng = get_rng(&mut r)?;
        let next_flight_seq = r.varint()?;
        let n_noise = r.varint()?;
        let mut active_noise = Vec::with_capacity((n_noise as usize).min(1 << 16));
        for _ in 0..n_noise {
            active_noise.push(u32::try_from(r.varint()?).map_err(bad_index)?);
        }
        engine
            .channel
            .restore(channel_rng, slots, free, next_flight_seq, active_noise);
        engine.disruption_rng = get_rng(&mut r)?;
        engine.traffic_root = get_rng(&mut r)?;
        let grid_refresh_due = SimTime::from_millis(r.varint()?);
        engine.world.restore_runtime(grid_refresh_due);

        // Gateway outage depths (silently re-applied to the grid).
        expect_section(&mut r, SEC_DELIVERY, "snapshot delivery")?;
        r.begin_record()?;
        let n_gw = r.varint()? as usize;
        if n_gw != engine.delivery.gateways().len() {
            return Err(ScenarioIoError::Corrupt("gateway count mismatch").into());
        }
        let mut depths = Vec::with_capacity(n_gw);
        for _ in 0..n_gw {
            depths.push(u32::try_from(r.varint()?).map_err(bad_index)?);
        }
        engine.delivery.restore_outages(depths);

        // The mid-run collector, wholesale.
        expect_section(&mut r, SEC_COLLECTOR, "snapshot collector")?;
        r.begin_record()?;
        let report = get_report(&mut r)?;
        // A `DenseMap` grows to the id it is handed, so an id the run
        // never issued — every issued one is below the header's
        // counter — must not reach it: one large number in a re-sealed
        // file would be a multi-terabyte resize.
        let next_msg = engine.next_msg;
        let issued_id = |raw: u64| {
            if raw < next_msg {
                Ok(MessageId::new(raw))
            } else {
                Err(ScenarioIoError::Corrupt("message id was never issued"))
            }
        };
        let n = r.varint()?;
        let mut arrived = DenseMap::new();
        for _ in 0..n {
            let id = issued_id(r.varint()?)?;
            arrived.insert(id, SimTime::from_millis(r.varint()?));
        }
        let n = r.varint()?;
        let mut transfers = DenseMap::new();
        for _ in 0..n {
            let id = issued_id(r.varint()?)?;
            transfers.insert(id, u32::try_from(r.varint()?).map_err(bad_index)?);
        }
        let outage_depth = u32::try_from(r.varint()?).map_err(bad_index)?;
        let outage_since = SimTime::from_millis(r.varint()?);
        let n = r.varint()?;
        let mut outage_generated = DenseMap::new();
        for _ in 0..n {
            outage_generated.insert(issued_id(r.varint()?)?, ());
        }
        engine.delivery.collector = Collector {
            report,
            arrived,
            transfers,
            outage_depth,
            outage_since,
            outage_generated,
        };

        if r.next_section()?.is_some() {
            return Err(ScenarioIoError::Corrupt("unexpected trailing section").into());
        }

        // A sharded run rebuilds its commit-side runtime from scratch:
        // fresh workers, the original barrier sequence re-broadcast up
        // to `now`, and every retained flight re-announced (ascending by
        // sequence, as launches were). Only flights whose
        // transmission-end event is still pending request a plan.
        if engine.cfg.shards > 1 {
            let mut rt = engine.build_shard_runtime();
            rt.pump_barriers(engine.now);
            let mut pending: HashSet<u64> = HashSet::new();
            for &(_, ev) in engine.events.raw_parts().0 {
                if let Event::TxEnd(key) = ev {
                    if let Some(hot) = engine.channel.flight_hot(key) {
                        pending.insert(hot.seq);
                    }
                }
            }
            let mut retained: Vec<(u64, NodeId, Point, SimTime, SimTime)> = engine
                .channel
                .iter_hot()
                .map(|h| (h.seq, h.sender, h.pos, h.start, h.end))
                .collect();
            retained.sort_unstable_by_key(|&(seq, ..)| seq);
            for (seq, sender, pos, start, end) in retained {
                rt.ring.push_back((seq, pos, start, end));
                rt.announce(seq, sender, pos, start, end, pending.contains(&seq));
            }
            engine.shard_rt = Some(rt);
        }

        Ok(engine)
    }
}

/// Frames the snapshot's scenario section — one record holding `cfg`
/// as an `.mlsc` blob (records never span blocks, but one record may
/// fill a whole block) — as the bytes [`ScenarioWriter`] emits for it.
fn frame_config_section(cfg: &SimConfig) -> Result<Vec<u8>, SnapshotError> {
    let mut blob = Vec::new();
    cfg.to_writer(&mut blob)?;
    // Sized for the blob and its few dozen bytes of framing: the
    // engine keeps this buffer, so it should not carry the slack that
    // growth by doubling leaves.
    let out = Vec::with_capacity(blob.len() + 64);
    let mut w = ScenarioWriter::with_magic(out, SNAPSHOT_MAGIC)?;
    w.begin_section(SEC_CONFIG, 1)?;
    w.enc().put_bytes(&blob);
    w.end_record()?;
    w.end_section()?;
    // A container of this one section: what lies between the file
    // header (magic, version word) and the end marker is the section.
    let mut framed = w.finish()?;
    framed.pop();
    framed.drain(..SNAPSHOT_MAGIC.len() + std::mem::size_of::<u16>());
    Ok(framed)
}

/// Maps an out-of-range stored index to a typed corruption error.
fn bad_index(_: std::num::TryFromIntError) -> ScenarioIoError {
    ScenarioIoError::Corrupt("stored index out of range")
}

/// Requires the next section to be `id`; `what` names it for the error.
fn expect_section<R: Read>(
    r: &mut ScenarioReader<R>,
    id: u8,
    what: &'static str,
) -> Result<u64, ScenarioIoError> {
    match r.next_section()? {
        Some((got, records)) if got == id => Ok(records),
        Some(_) => Err(ScenarioIoError::Corrupt("snapshot sections out of order")),
        None => Err(ScenarioIoError::MissingSection(what)),
    }
}

/// Decodes the header section (which must come first).
fn read_header<R: Read>(r: &mut ScenarioReader<R>) -> Result<Header, ScenarioIoError> {
    match expect_section(r, SEC_HEADER, "snapshot header")? {
        1 => {}
        _ => return Err(ScenarioIoError::Corrupt("snapshot header record count")),
    }
    r.begin_record()?;
    let seed = r.varint()?;
    // Resume spawns one worker thread per shard, so the count is held
    // to what a configuration may ask for before anything acts on it.
    let shards = match usize::try_from(r.varint()?) {
        Ok(n) if (1..=MAX_SHARDS).contains(&n) => n,
        _ => {
            return Err(ScenarioIoError::Corrupt(
                "snapshot shard count out of range",
            ))
        }
    };
    let now = SimTime::from_millis(r.varint()?);
    let next_msg = r.varint()?;
    let events_processed = r.varint()?;
    let event_seq = r.varint()?;
    Ok(Header {
        seed,
        shards,
        now,
        next_msg,
        events_processed,
        event_seq,
    })
}

/// Decodes the embedded scenario, restoring the captured shard count
/// (the scenario wire format does not carry one).
fn read_config<R: Read>(
    r: &mut ScenarioReader<R>,
    shards: usize,
) -> Result<SimConfig, SnapshotError> {
    match expect_section(r, SEC_CONFIG, "snapshot config")? {
        1 => {}
        _ => return Err(ScenarioIoError::Corrupt("snapshot config record count").into()),
    }
    r.begin_record()?;
    let mut cfg = SimConfig::from_reader(r.byte_slice()?)?;
    cfg.shards = shards;
    Ok(cfg)
}

/// Shifts an overlay event's plan-internal indices past the original
/// plan's tables; gateway indices are global and pass through.
fn offset_event(ev: DisruptionEvent, withdraw_off: u32, noise_off: u32) -> DisruptionEvent {
    match ev {
        DisruptionEvent::Withdraw { withdrawal } => DisruptionEvent::Withdraw {
            withdrawal: withdrawal + withdraw_off,
        },
        DisruptionEvent::NoiseStart { burst } => DisruptionEvent::NoiseStart {
            burst: burst + noise_off,
        },
        DisruptionEvent::NoiseEnd { burst } => DisruptionEvent::NoiseEnd {
            burst: burst + noise_off,
        },
        gateway => gateway,
    }
}

fn put_event(enc: &mut Enc, ev: Event) {
    match ev {
        Event::TripStart(n) => {
            enc.put_u8(0);
            enc.put_varint(n.raw() as u64);
        }
        Event::TripEnd(n) => {
            enc.put_u8(1);
            enc.put_varint(n.raw() as u64);
        }
        Event::Generate(n) => {
            enc.put_u8(2);
            enc.put_varint(n.raw() as u64);
        }
        Event::TxStart(n) => {
            enc.put_u8(3);
            enc.put_varint(n.raw() as u64);
        }
        Event::TxEnd(key) => {
            enc.put_u8(4);
            enc.put_varint(key.index() as u64);
            enc.put_varint(key.generation() as u64);
        }
        Event::Disruption(i) => {
            enc.put_u8(5);
            enc.put_varint(i as u64);
        }
    }
}

fn get_event<R: Read>(r: &mut ScenarioReader<R>) -> Result<Event, ScenarioIoError> {
    let node = |raw: u64| u32::try_from(raw).map(NodeId::new).map_err(bad_index);
    Ok(match r.u8()? {
        0 => Event::TripStart(node(r.varint()?)?),
        1 => Event::TripEnd(node(r.varint()?)?),
        2 => Event::Generate(node(r.varint()?)?),
        3 => Event::TxStart(node(r.varint()?)?),
        4 => {
            let index = u32::try_from(r.varint()?).map_err(bad_index)?;
            let generation = u32::try_from(r.varint()?).map_err(bad_index)?;
            Event::TxEnd(SlabKey::from_parts(index, generation))
        }
        5 => Event::Disruption(u32::try_from(r.varint()?).map_err(bad_index)?),
        _ => return Err(ScenarioIoError::Corrupt("unknown event tag")),
    })
}

fn put_time(enc: &mut Enc, t: SimTime) {
    enc.put_varint(t.as_millis());
}

fn get_time<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimTime, ScenarioIoError> {
    Ok(SimTime::from_millis(r.varint()?))
}

fn put_dur(enc: &mut Enc, d: SimDuration) {
    enc.put_varint(d.as_millis());
}

fn get_dur<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimDuration, ScenarioIoError> {
    Ok(SimDuration::from_millis(r.varint()?))
}

fn put_opt_time(enc: &mut Enc, t: Option<SimTime>) {
    match t {
        None => enc.put_bool(false),
        Some(t) => {
            enc.put_bool(true);
            put_time(enc, t);
        }
    }
}

fn get_opt_time<R: Read>(r: &mut ScenarioReader<R>) -> Result<Option<SimTime>, ScenarioIoError> {
    Ok(if r.bool()? { Some(get_time(r)?) } else { None })
}

fn put_rng(enc: &mut Enc, state: (u64, [u64; 4])) {
    enc.put_varint(state.0);
    for w in state.1 {
        enc.put_varint(w);
    }
}

fn get_rng<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimRng, ScenarioIoError> {
    let seed = r.varint()?;
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = r.varint()?;
    }
    Ok(SimRng::from_state(seed, words))
}

fn put_welford(enc: &mut Enc, w: &Welford) {
    let (count, mean, m2, min, max) = w.raw_parts();
    enc.put_varint(count);
    enc.put_f64(mean);
    enc.put_f64(m2);
    enc.put_f64(min);
    enc.put_f64(max);
}

fn get_welford<R: Read>(r: &mut ScenarioReader<R>) -> Result<Welford, ScenarioIoError> {
    let count = r.varint()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    Ok(Welford::from_raw_parts(count, mean, m2, min, max))
}

fn put_message(enc: &mut Enc, m: &AppMessage) {
    enc.put_varint(m.id.raw());
    enc.put_varint(m.origin.raw() as u64);
    put_time(enc, m.created);
    enc.put_varint(m.payload_bytes as u64);
    enc.put_u8(m.profile);
    enc.put_u8(match m.priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    });
}

fn get_message<R: Read>(r: &mut ScenarioReader<R>) -> Result<AppMessage, ScenarioIoError> {
    let id = MessageId::new(r.varint()?);
    let origin = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
    let created = get_time(r)?;
    let payload_bytes = u16::try_from(r.varint()?)
        .map_err(|_| ScenarioIoError::Corrupt("payload size out of range"))?;
    let profile = r.u8()?;
    let priority = match r.u8()? {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        _ => return Err(ScenarioIoError::Corrupt("unknown priority tag")),
    };
    Ok(AppMessage {
        id,
        origin,
        created,
        payload_bytes,
        profile,
        priority,
    })
}

fn put_flight(enc: &mut Enc, f: FlightRef<'_>) {
    enc.put_varint(f.seq);
    enc.put_varint(f.sender.raw() as u64);
    match f.target {
        None => enc.put_bool(false),
        Some(t) => {
            enc.put_bool(true);
            enc.put_varint(t.raw() as u64);
        }
    }
    put_time(enc, f.start);
    put_time(enc, f.end);
    enc.put_f64(f.pos.x);
    enc.put_f64(f.pos.y);
    enc.put_varint(f.frame.sender.raw() as u64);
    enc.put_varint(f.frame.messages.len() as u64);
    for m in &f.frame.messages {
        put_message(enc, m);
    }
    enc.put_f64(f.frame.rca_etx);
    enc.put_varint(f.frame.queue_len as u64);
}

fn get_flight<R: Read>(r: &mut ScenarioReader<R>) -> Result<Flight, ScenarioIoError> {
    let seq = r.varint()?;
    let sender = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
    let target = if r.bool()? {
        Some(NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?))
    } else {
        None
    };
    let start = get_time(r)?;
    let end = get_time(r)?;
    let pos = Point {
        x: r.f64()?,
        y: r.f64()?,
    };
    let frame_sender = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
    let n = r.varint()?;
    let mut messages = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        messages.push(get_message(r)?);
    }
    let rca_etx = r.f64()?;
    let queue_len = r.varint()? as usize;
    Ok(Flight {
        seq,
        sender,
        frame: UplinkFrame {
            sender: frame_sender,
            messages,
            rca_etx,
            queue_len,
        },
        target,
        start,
        end,
        pos,
    })
}

/// Writes one device record: the cold [`Device`] row plus its gathered
/// hot-column view, in the exact field order the AoS layout used — the
/// wire format is unchanged by the SoA split.
fn put_device(enc: &mut Enc, dev: &Device, hot: DeviceHot) {
    enc.put_bool(hot.active);
    put_time(enc, dev.activated_at);
    put_opt_time(enc, dev.retired_at);

    enc.put_varint(dev.queue.capacity() as u64);
    enc.put_varint(dev.queue.dropped());
    enc.put_varint(dev.queue.len() as u64);
    for m in dev.queue.iter() {
        put_message(enc, m);
    }

    let (duty_cycle, next_allowed, total_airtime, tx_count) = dev.duty.raw_parts();
    enc.put_f64(duty_cycle);
    put_time(enc, next_allowed);
    put_dur(enc, total_airtime);
    enc.put_varint(tx_count);

    enc.put_varint(dev.retransmit.max_attempts() as u64);
    enc.put_varint(dev.retransmit.attempts() as u64);

    let (estimator, ca, ledger) = dev.routing.raw_parts();
    let (tracker, ewma, rca_bits) = estimator.raw_parts();
    let (last_success, in_contact, successes, failures) = tracker.raw_parts();
    match last_success {
        None => enc.put_bool(false),
        Some((t, capacity)) => {
            enc.put_bool(true);
            put_time(enc, t);
            enc.put_f64(capacity);
        }
    }
    enc.put_bool(in_contact);
    enc.put_varint(successes);
    enc.put_varint(failures);
    enc.put_f64(ewma.alpha());
    match ewma.value() {
        None => enc.put_bool(false),
        Some(v) => {
            enc.put_bool(true);
            enc.put_f64(v);
        }
    }
    enc.put_f64(rca_bits);
    let (ca_bits, gaps, capacities, last_contact) = ca.raw_parts();
    enc.put_f64(ca_bits);
    put_welford(enc, &gaps);
    put_welford(enc, &capacities);
    put_opt_time(enc, last_contact);
    let donors = ledger.donors_sorted();
    enc.put_varint(donors.len() as u64);
    for d in donors {
        enc.put_varint(d.raw() as u64);
    }

    enc.put_bool(hot.transmitting);
    enc.put_bool(dev.tx_scheduled);
    match dev.pending_handover {
        None => enc.put_bool(false),
        Some((target, count)) => {
            enc.put_bool(true);
            enc.put_varint(target.raw() as u64);
            enc.put_varint(count as u64);
        }
    }
    put_opt_time(enc, hot.last_tx_end);
    match hot.tx_window {
        None => enc.put_bool(false),
        Some((a, b)) => {
            enc.put_bool(true);
            put_time(enc, a);
            put_time(enc, b);
        }
    }
    enc.put_f64(hot.gamma);
    put_dur(enc, dev.tx_time);
    put_dur(enc, dev.rx_window_time);
    enc.put_varint(dev.frames_sent);
    enc.put_f64(dev.grid_pos.x);
    enc.put_f64(dev.grid_pos.y);
    match &dev.traffic {
        None => enc.put_bool(false),
        Some(t) => {
            enc.put_bool(true);
            enc.put_varint(t.profile as u64);
            put_rng(enc, t.rng.state());
            enc.put_varint(t.burst_left as u64);
        }
    }
}

/// Reads one device record, splitting it back into the cold [`Device`]
/// row and the hot-column values the caller scatters into the world.
fn get_device<R: Read>(
    r: &mut ScenarioReader<R>,
    cfg: &SimConfig,
) -> Result<(Device, DeviceHot), ScenarioIoError> {
    let active = r.bool()?;
    let activated_at = get_time(r)?;
    let retired_at = get_opt_time(r)?;

    let capacity = r.varint()? as usize;
    let dropped = r.varint()?;
    let n = r.varint()?;
    let mut messages = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        messages.push(get_message(r)?);
    }
    let queue = DataQueue::from_parts(capacity, dropped, messages);

    let duty_cycle = r.f64()?;
    let next_allowed = get_time(r)?;
    let total_airtime = get_dur(r)?;
    let tx_count = r.varint()?;
    let duty = DutyCycleTracker::from_raw_parts(duty_cycle, next_allowed, total_airtime, tx_count);

    let max_attempts = u32::try_from(r.varint()?).map_err(bad_index)?;
    let attempts = u32::try_from(r.varint()?).map_err(bad_index)?;
    let retransmit = RetransmitPolicy::from_parts(max_attempts, attempts);

    let last_success = if r.bool()? {
        Some((get_time(r)?, r.f64()?))
    } else {
        None
    };
    let in_contact = r.bool()?;
    let successes = r.varint()?;
    let failures = r.varint()?;
    let tracker = ContactTracker::from_raw_parts(last_success, in_contact, successes, failures);
    let alpha = r.f64()?;
    let ewma_value = if r.bool()? { Some(r.f64()?) } else { None };
    let ewma = Ewma::from_raw_parts(alpha, ewma_value);
    let rca_bits = r.f64()?;
    let estimator = RcaEtxEstimator::from_raw_parts(tracker, ewma, rca_bits);
    let ca_bits = r.f64()?;
    let gaps = get_welford(r)?;
    let capacities = get_welford(r)?;
    let last_contact = get_opt_time(r)?;
    let ca = CaEtxEstimator::from_raw_parts(ca_bits, gaps, capacities, last_contact);
    let n_donors = r.varint()?;
    let mut donors = Vec::with_capacity((n_donors as usize).min(1 << 16));
    for _ in 0..n_donors {
        donors.push(NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?));
    }
    let ledger = DonorLedger::from_donors(donors);
    let routing_config = cfg.routing_config();
    let policy = routing_config.scheme.policy();
    let routing = RoutingState::from_raw_parts(routing_config, policy, estimator, ca, ledger);

    let transmitting = r.bool()?;
    let tx_scheduled = r.bool()?;
    let pending_handover = if r.bool()? {
        let target = NodeId::new(u32::try_from(r.varint()?).map_err(bad_index)?);
        let count = r.varint()? as usize;
        Some((target, count))
    } else {
        None
    };
    let last_tx_end = get_opt_time(r)?;
    let tx_window = if r.bool()? {
        Some((get_time(r)?, get_time(r)?))
    } else {
        None
    };
    let gamma = r.f64()?;
    let tx_time = get_dur(r)?;
    let rx_window_time = get_dur(r)?;
    let frames_sent = r.varint()?;
    let grid_pos = Point {
        x: r.f64()?,
        y: r.f64()?,
    };
    let traffic = if r.bool()? {
        let profile = u32::try_from(r.varint()?).map_err(bad_index)?;
        let rng = get_rng(r)?;
        let burst_left = u32::try_from(r.varint()?).map_err(bad_index)?;
        Some(DeviceTraffic {
            profile,
            rng,
            burst_left,
        })
    } else {
        None
    };

    let class = match cfg.device_class {
        DeviceClassChoice::ModifiedClassC => mlora_mac::DeviceClass::ModifiedClassC,
        DeviceClassChoice::QueueBasedClassA => mlora_mac::DeviceClass::QueueBasedClassA,
    };

    Ok((
        Device {
            activated_at,
            retired_at,
            queue,
            duty,
            retransmit,
            routing,
            class,
            tx_scheduled,
            pending_handover,
            tx_time,
            rx_window_time,
            frames_sent,
            grid_pos,
            traffic,
        },
        DeviceHot {
            active,
            transmitting,
            tx_window,
            last_tx_end,
            gamma,
        },
    ))
}

fn put_report(enc: &mut Enc, r: &SimReport) {
    enc.put_str(&r.scheme);
    enc.put_varint(r.generated);
    enc.put_varint(r.delivered);
    enc.put_varint(r.duplicates);
    enc.put_varint(r.stranded);
    enc.put_varint(r.queue_drops);
    put_welford(enc, &r.delay);
    put_welford(enc, &r.hops);
    put_dur(enc, r.throughput_series.bucket());
    enc.put_bool(r.throughput_series.is_bounded());
    enc.put_varint(r.throughput_series.counts().len() as u64);
    for &c in r.throughput_series.counts() {
        enc.put_varint(c);
    }
    enc.put_varint(r.frames_sent);
    enc.put_varint(r.messages_sent);
    enc.put_varint(r.handover_frames);
    enc.put_varint(r.handover_messages);
    enc.put_varint(r.collisions);
    enc.put_varint(r.devices_seen);
    enc.put_f64(r.total_energy_mj);
    enc.put_f64(r.total_active_s);
    enc.put_varint(r.gateway_outages);
    enc.put_varint(r.buses_withdrawn);
    enc.put_varint(r.noise_bursts);
    enc.put_f64(r.outage_time_s);
    enc.put_varint(r.generated_during_outage);
    enc.put_varint(r.delivered_of_outage_generated);
    enc.put_f64(r.total_airtime_s);
    enc.put_varint(r.profiles.len() as u64);
    for p in &r.profiles {
        enc.put_str(&p.name);
        enc.put_varint(p.generated);
        enc.put_varint(p.delivered);
        enc.put_varint(p.messages_sent);
        enc.put_varint(p.payload_bytes_sent);
        enc.put_f64(p.airtime_s);
        put_welford(enc, &p.delay);
    }
}

fn get_report<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimReport, ScenarioIoError> {
    let scheme = r.string()?;
    let generated = r.varint()?;
    let delivered = r.varint()?;
    let duplicates = r.varint()?;
    let stranded = r.varint()?;
    let queue_drops = r.varint()?;
    let delay = get_welford(r)?;
    let hops = get_welford(r)?;
    let bucket = get_dur(r)?;
    let bounded = r.bool()?;
    let n = r.varint()?;
    let mut counts = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        counts.push(r.varint()?);
    }
    let throughput_series = TimeSeries::from_raw_parts(bucket, counts, bounded);
    let frames_sent = r.varint()?;
    let messages_sent = r.varint()?;
    let handover_frames = r.varint()?;
    let handover_messages = r.varint()?;
    let collisions = r.varint()?;
    let devices_seen = r.varint()?;
    let total_energy_mj = r.f64()?;
    let total_active_s = r.f64()?;
    let gateway_outages = r.varint()?;
    let buses_withdrawn = r.varint()?;
    let noise_bursts = r.varint()?;
    let outage_time_s = r.f64()?;
    let generated_during_outage = r.varint()?;
    let delivered_of_outage_generated = r.varint()?;
    let total_airtime_s = r.f64()?;
    let n = r.varint()?;
    let mut profiles = Vec::with_capacity((n as usize).min(1 << 16));
    for _ in 0..n {
        let name = r.string()?;
        let generated = r.varint()?;
        let delivered = r.varint()?;
        let messages_sent = r.varint()?;
        let payload_bytes_sent = r.varint()?;
        let airtime_s = r.f64()?;
        let delay = get_welford(r)?;
        profiles.push(ProfileReport {
            name,
            generated,
            delivered,
            messages_sent,
            payload_bytes_sent,
            airtime_s,
            delay,
        });
    }
    Ok(SimReport {
        scheme,
        generated,
        delivered,
        duplicates,
        stranded,
        queue_drops,
        delay,
        hops,
        throughput_series,
        frames_sent,
        messages_sent,
        handover_frames,
        handover_messages,
        collisions,
        devices_seen,
        total_energy_mj,
        total_active_s,
        gateway_outages,
        buses_withdrawn,
        noise_bursts,
        outage_time_s,
        generated_during_outage,
        delivered_of_outage_generated,
        total_airtime_s,
        profiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;
    use mlora_core::Scheme;
    use mlora_mobility::BusNetwork;
    use std::sync::Arc;

    fn cfg() -> SimConfig {
        SimConfig::smoke_test(Scheme::Robc, Environment::Urban)
    }

    #[test]
    fn snapshot_requires_a_started_engine() {
        let engine = Engine::new(cfg(), 7);
        assert!(matches!(
            engine.snapshot(),
            Err(SnapshotError::NotRunning(_))
        ));
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let baseline = Engine::new(cfg(), 7).run();
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let snap = engine.snapshot().expect("snapshot mid-run");
        // The snapshotted engine keeps running unperturbed...
        assert_eq!(engine.finish(), baseline);
        // ...and the resumed copy reproduces the identical report.
        let resumed = Engine::resume(&snap).expect("resume");
        assert_eq!(resumed.finish(), baseline);
    }

    #[test]
    fn snapshot_bytes_roundtrip_through_files() {
        let mut engine = Engine::new(cfg(), 11);
        engine.run_until(SimTime::from_secs(600));
        let snap = engine.snapshot().expect("snapshot");
        let reloaded = Snapshot::from_bytes(snap.as_bytes().to_vec()).expect("reload");
        assert_eq!(reloaded.time(), snap.time());
        assert_eq!(reloaded.seed(), snap.seed());
        assert_eq!(reloaded.shards(), snap.shards());
        let a = Engine::resume(&snap).expect("resume original").finish();
        let b = Engine::resume(&reloaded).expect("resume reloaded").finish();
        assert_eq!(a, b);
    }

    #[test]
    fn overlay_must_be_in_the_future() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(1_000));
        let snap = engine.snapshot().expect("snapshot");
        let overlay = DisruptionPlan {
            outages: vec![crate::disruption::GatewayOutage {
                gateway: 0,
                start: SimTime::from_secs(10),
                duration: Some(SimDuration::from_secs(60)),
            }],
            ..DisruptionPlan::default()
        };
        assert!(matches!(
            Engine::resume_with_overlay(&snap, overlay),
            Err(SnapshotError::Overlay(_))
        ));
    }

    /// Lifecycle records as `((time, seq), event)`.
    type Lifecycle = Vec<((SimTime, u64), Event)>;

    /// The engine's checkpoint with its events section rewritten the
    /// way eager-seeding builds filled it: the live records plus both
    /// lifecycle records of every trip still to depart. `tamper` may
    /// edit the undeparted trips' records before they are filed.
    fn eager_era_snapshot(engine: &Engine, tamper: impl FnOnce(&mut Lifecycle)) -> Snapshot {
        let mut lifecycle = Vec::new();
        for i in engine.next_trip..engine.live_trips {
            let [start, end] = engine.lifecycle_keys(i);
            let node = NodeId::new(i as u32);
            lifecycle.push((start, Event::TripStart(node)));
            lifecycle.push((end, Event::TripEnd(node)));
        }
        assert!(!lifecycle.is_empty(), "every trip already departed");
        tamper(&mut lifecycle);
        let (records, event_seq) = engine.events.raw_parts();
        let mut records = records.to_vec();
        records.extend(
            lifecycle
                .into_iter()
                .map(|((t, seq), ev)| ((u128::from(t.as_millis()) << 64) | u128::from(seq), ev)),
        );
        records.sort_unstable_by_key(|&(key, _)| key);
        engine
            .encode_snapshot(&records, event_seq)
            .expect("snapshot encodes")
    }

    #[test]
    fn eager_era_events_section_resumes_bit_identically() {
        let baseline = Engine::new(cfg(), 7).run();
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let live = engine.snapshot().expect("snapshot");
        let eager = eager_era_snapshot(&engine, |_| {});
        assert!(eager.as_bytes().len() > live.as_bytes().len());
        let resumed = Engine::resume(&eager).expect("eager-era snapshot resumes");
        // The undeparted trips' records are gone, not queued beside the
        // cursor that will start those trips.
        assert_eq!(resumed.events.len(), engine.events.len());
        assert_eq!(resumed.next_trip, engine.next_trip);
        assert_eq!(resumed.finish(), baseline);
    }

    #[test]
    fn lifecycle_record_off_the_timetable_is_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let departed = NodeId::new(engine.next_trip as u32 - 1);
        let refused = |tamper: &dyn Fn(&mut Lifecycle)| {
            let snap = eager_era_snapshot(&engine, tamper);
            matches!(
                Engine::resume(&snap),
                Err(SnapshotError::Format(ScenarioIoError::Corrupt(_)))
            )
        };
        // A second start for a bus already on the road.
        assert!(refused(&|l| {
            let [start, _] = engine.lifecycle_keys(departed.index());
            l.push((start, Event::TripStart(departed)));
        }));
        // A start at another instant than the timetable's.
        assert!(refused(&|l| l[0].0 .0 += SimDuration::from_millis(1)));
        // An end filed under a sequence number that is not the trip's.
        assert!(refused(&|l| l[1].0 .1 += 2));
        // Untampered, the same snapshot resumes.
        assert!(!refused(&|_| {}));
    }

    #[test]
    fn resumed_and_forked_engines_share_the_snapshots_world() {
        let world = Arc::new(BusNetwork::generate(&cfg().network, 3));
        let mut with_world = cfg();
        with_world.world = Some(Arc::clone(&world));
        let mut engine = Engine::new(with_world, 7);
        assert!(Arc::ptr_eq(&engine.world.net, &world));
        engine.run_until(SimTime::from_secs(600));
        let snap = engine.snapshot().expect("snapshot");
        let a = Engine::resume(&snap).expect("resume");
        let b = Engine::resume(&snap).expect("resume");
        assert!(Arc::ptr_eq(&a.world.net, &b.world.net));
        // The first withdrawal takes a private copy; the others keep
        // sharing.
        let mut c = Engine::resume(&snap).expect("resume");
        c.world
            .withdraw_trip(NodeId::new(0), SimTime::from_secs(600));
        assert!(!Arc::ptr_eq(&c.world.net, &a.world.net));
        assert!(Arc::ptr_eq(&a.world.net, &b.world.net));
    }

    /// Two checkpoints of one engine at one instant, against
    /// `tests/fixtures/framed_once.mlss`: the smoke preset under ROBC
    /// with mixed traffic and one gateway outage, seed 15, stopped
    /// mid-outage with frames in the air.
    #[test]
    fn scenario_blob_is_encoded_once_per_engine() {
        let mut cfg = cfg();
        cfg.traffic = crate::TrafficModel::mix([
            crate::TrafficProfile::telemetry(),
            crate::TrafficProfile::alerts(),
        ]);
        cfg.disruptions.outages.push(crate::GatewayOutage {
            gateway: 0,
            start: SimTime::from_secs(600),
            duration: Some(SimDuration::from_secs(900)),
        });
        let mut engine = Engine::new(cfg, 15);
        engine.run_until(SimTime::from_millis(1_388_679));
        let in_the_air = engine.channel.iter_hot().filter(|f| f.end > engine.now);
        assert_eq!(in_the_air.count(), 2);
        assert_eq!(engine.delivery.outage_depths()[0], 1, "gateway 0 is down");
        assert!(engine.cfg_section.get().is_none());
        let first = engine.snapshot().expect("snapshot");
        let cached = engine.cfg_section.get().expect("cached").as_ptr();
        let second = engine.snapshot().expect("snapshot");
        // The second checkpoint appends the section the first one framed.
        assert_eq!(engine.cfg_section.get().expect("cached").as_ptr(), cached);
        assert_eq!(first.as_bytes(), second.as_bytes());
        // Written by the last build that encoded and checksummed the
        // scenario section on every checkpoint: same run, same bytes.
        let written: &[u8] = include_bytes!("../../../../tests/fixtures/framed_once.mlss");
        assert!(first.as_bytes() == written, "snapshot bytes changed");
    }

    fn is_corrupt<T>(result: Result<T, SnapshotError>) -> bool {
        matches!(
            result,
            Err(SnapshotError::Format(ScenarioIoError::Corrupt(_)))
        )
    }

    #[test]
    fn shard_count_beyond_the_limit_is_refused_at_load() {
        // Written by the engine itself, so every checksum holds; only
        // the header's shard count is out of range. (The first snapshot
        // encodes the scenario blob, which would refuse the count.)
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(300));
        engine.snapshot().expect("snapshot");
        engine.cfg.shards = MAX_SHARDS + 1;
        let bytes = engine.snapshot().expect("snapshot").as_bytes().to_vec();
        assert!(is_corrupt(Snapshot::from_bytes(bytes)));
    }

    #[test]
    fn collector_message_ids_beyond_the_counter_are_refused() {
        // Written by the engine itself, so every checksum holds; only
        // the header's message counter is wound back, which leaves every
        // id in the collector section one the run "never issued".
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        assert!(engine.next_msg > 0 && engine.delivery.collector.report.delivered > 0);
        engine.next_msg = 0;
        let snap = engine.snapshot().expect("snapshot");
        assert!(is_corrupt(Engine::resume(&snap)));
    }

    #[test]
    fn event_records_out_of_heap_order_are_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let (records, event_seq) = engine.events.raw_parts();
        let mut records = records.to_vec();
        records.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
        assert!(records[0].0 > records[1].0);
        let snap = engine
            .encode_snapshot(&records, event_seq)
            .expect("snapshot encodes");
        assert!(is_corrupt(Engine::resume(&snap)));
    }

    #[test]
    fn inflated_counts_are_corrupt_not_an_abort() {
        use crate::io::tests::with_inflated_section;
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let snap = engine.snapshot().expect("snapshot");
        // A section header promising 2^60 records.
        for id in [
            SEC_EVENTS,
            SEC_DEVICES,
            SEC_WITHDRAWN,
            SEC_FLIGHT_SLOTS,
            SEC_FLIGHT_FREE,
        ] {
            let hostile = with_inflated_section(snap.as_bytes(), SNAPSHOT_MAGIC, id);
            let loaded = Snapshot::from_bytes(hostile).expect("header is intact");
            assert!(is_corrupt(Engine::resume(&loaded)), "section {id}");
        }
        // The same promise inside a checksummed record: the message
        // count of a flight the writer framed like any other.
        let mut w = ScenarioWriter::with_magic(Vec::new(), SNAPSHOT_MAGIC).unwrap();
        w.begin_section(SEC_FLIGHT_SLOTS, 1).unwrap();
        let enc = w.enc();
        enc.put_varint(3); // seq
        enc.put_varint(1); // sender
        enc.put_bool(false); // no target
        put_time(enc, SimTime::from_secs(1));
        put_time(enc, SimTime::from_secs(2));
        enc.put_f64(0.0);
        enc.put_f64(0.0);
        enc.put_varint(1); // frame sender
        enc.put_varint(1 << 60); // messages
        w.end_record().unwrap();
        w.end_section().unwrap();
        let bytes = w.finish().unwrap();
        let mut r = ScenarioReader::with_magic(bytes.as_slice(), SNAPSHOT_MAGIC).unwrap();
        r.next_section().unwrap();
        r.begin_record().unwrap();
        assert!(matches!(
            get_flight(&mut r),
            Err(ScenarioIoError::Corrupt(_))
        ));
    }

    #[test]
    fn newer_format_version_is_refused_at_load() {
        use mlora_scenario_io::FORMAT_VERSION;
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(300));
        let mut bytes = engine.snapshot().expect("snapshot").as_bytes().to_vec();
        // The version word follows the four magic bytes.
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::Format(ScenarioIoError::UnsupportedVersion(v)))
                if v == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(300));
        let snap = engine.snapshot().expect("snapshot");
        let bytes = snap.as_bytes();
        let cut = Snapshot::from_bytes(bytes[..bytes.len() / 2].to_vec());
        match cut {
            // Header fits in the first block: the cut surfaces on resume.
            Ok(snap) => assert!(Engine::resume(&snap).is_err()),
            Err(SnapshotError::Format(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
