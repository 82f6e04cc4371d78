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
//! and disruptions active.
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
//!
//! # Reading never panics on file content
//!
//! Every record is decoded through `crate::persist`. What must hold
//! before the engine exists — every id the restored engine will index
//! with, checked against what it indexes, and every value a constructor
//! would `assert!` on — is checked here as it is read. A restored part
//! whose layout is broken is refused by its own constructor
//! (`Slab::from_raw_parts`, `DataQueue::from_parts`,
//! `EventQueue::from_raw_parts`). The premises that relate the parts
//! are the engine's own: [`Engine::resume_with_overlay`] runs the
//! engine's `check` last, the one a debug build runs after every slice.
//! Clippy holds the module and every `check` to it: no indexing,
//! `unwrap`, `expect` or `panic!` outside their tests.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use mlora_core::{
    CaEtxEstimator, ContactTracker, DonorLedger, Ewma, RcaEtxEstimator, RoutingState, PACKET_BITS,
};
use mlora_geo::Point;
use mlora_mac::{AppMessage, DataQueue, DutyCycleTracker, Priority, RetransmitPolicy, UplinkFrame};
use mlora_scenario_io::{Enc, ScenarioIoError, ScenarioReader, ScenarioWriter};
use mlora_simcore::stats::{TimeSeries, Welford};
use mlora_simcore::{DenseMap, EventQueue, MessageId, NodeId, SimRng, SimTime, Slab};

use super::channel::Flight;
use super::world::{Device, DeviceHot, DeviceTraffic};
use super::{Engine, Event};
use crate::metrics::Collector;
use crate::persist::{
    ensure, persist_struct, put_slice, read_record, read_records, reserved, write_record,
    write_records, Count, Persist,
};
use crate::{DisruptionPlan, ProfileReport, ScenarioFileError, SimConfig, SimReport};

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
    header: Header,
    /// The embedded scenario, decoded on first use: every engine
    /// resumed or forked from this snapshot clones it, and so shares one
    /// prebuilt world instead of decoding its own.
    config: OnceLock<SimConfig>,
}

impl Snapshot {
    /// The simulation instant the snapshot was taken at (the timestamp
    /// of the last processed event).
    pub fn time(&self) -> SimTime {
        self.header.now
    }

    /// The master seed of the captured run.
    pub fn seed(&self) -> u64 {
        self.header.seed
    }

    /// The raw serialized container, exactly what
    /// [`Snapshot::to_writer`] emits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The scenario configuration embedded in the snapshot.
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
        read_header(&mut r)?;
        let cfg = read_config(&mut r)?;
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
            bytes,
            header,
            config: OnceLock::new(),
        })
    }
}

/// The widest shard count a header may carry: builds that could split
/// a run over worker threads recorded how many. The count never changed
/// a result, so it is written as 1, held to this range on read and
/// otherwise ignored.
const MAX_SHARDS: usize = 64;

persist_struct! {
    /// The header section's record: run identity and loop counters.
    /// `next_msg`, the next message id, is the collector's count of
    /// messages generated, stored twice; resume requires the two equal.
    #[derive(Debug, Clone)]
    struct Header {
        seed: u64,
        shards: usize,
        now: SimTime,
        next_msg: u64,
        events_processed: Count,
        event_seq: Count,
    }
}

impl Engine {
    /// Captures the engine's complete mid-run state as a [`Snapshot`].
    ///
    /// The engine must be *mid-run*: started (at least one
    /// [`Engine::run_until`] call). The engine is
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

        // One allocation. A run's checkpoints grow with its collector
        // (`urban_lorawan`: 0.5, 1.1 and 1.7 MiB at ¼, ½ and ¾ of the
        // span), so twice the last one's length leaves room to grow
        // without the writer regrowing the buffer into a second one;
        // only the pages written are touched, and `shrink_to_fit` below
        // hands the rest back in place. (`Relaxed`: a size hint, it
        // publishes nothing.)
        let expected = cfg_section
            .len()
            .max(self.last_snapshot_len.load(Ordering::Relaxed));
        let out = Vec::with_capacity(2 * expected);
        let mut w = ScenarioWriter::with_magic(out, SNAPSHOT_MAGIC)?;

        let header = Header {
            seed: self.seed,
            shards: 1,
            now: self.now,
            next_msg: self.delivery.collector.report.generated,
            events_processed: Count(self.events_processed),
            event_seq: Count(event_seq),
        };
        write_record(&mut w, SEC_HEADER, |enc| header.put(enc))?;

        // The scenario, embedded verbatim as one `.mlsc` blob.
        w.write_framed_section(cfg_section)?;

        // The event queue — live events only, see the module docs — in
        // heap layout order, so the restored queue pops in exactly the
        // original sequence. A record is the key's two halves (time,
        // sequence number) and the event.
        w.begin_section(SEC_EVENTS, queue_records.len() as u64)?;
        for &(key, ev) in queue_records {
            ((key >> 64) as u64, key as u64, ev).put(w.enc());
            w.end_record()?;
        }
        w.end_section()?;

        // Every device ever activated, active or retired, in id order:
        // the departed trips, so each row's service window is read off
        // its trip. Hot-column values are gathered back into a row view
        // so the per-device wire record is byte-identical to the AoS era.
        w.begin_section(SEC_DEVICES, self.world.devices.len() as u64)?;
        let trips = self.world.net.trips();
        for ((idx, dev), trip) in self.world.devices.iter().zip(trips) {
            let hot = self.world.hot.device_hot(idx);
            // The row's `service_window`, read off its own trip.
            let end = trip.end().min(self.horizon);
            idx.put(w.enc());
            put_device(
                w.enc(),
                dev,
                hot,
                (trip.depart(), (!hot.active).then_some(end)),
            );
            w.end_record()?;
        }
        w.end_section()?;

        // Applied withdrawals, in application order: resume replays the
        // trip truncations against the freshly regenerated network.
        write_records(&mut w, SEC_WITHDRAWN, &self.withdrawn)?;

        // The flight slab, slot by slot (vacant included) plus the free
        // list, so restored slab keys resolve identically.
        let flights = &self.channel.flights;
        w.begin_section(SEC_FLIGHT_SLOTS, flights.slot_count() as u64)?;
        for (generation, flight) in flights.raw_slots() {
            // `(u32, Option<Flight>)`, from the borrowed view.
            (generation, flight.is_some()).put(w.enc());
            if let Some(flight) = flight {
                flight.put(w.enc());
            }
            w.end_record()?;
        }
        w.end_section()?;
        write_records(&mut w, SEC_FLIGHT_FREE, flights.free_list())?;

        // Every RNG stream's exact words plus the channel and world
        // runtime scalars.
        let (channel_rng, next_flight_seq, active_noise) = self.channel.checkpoint_parts();
        write_record(&mut w, SEC_STREAMS, |enc| {
            channel_rng.put(enc);
            next_flight_seq.put(enc);
            put_slice(active_noise, enc);
            self.disruption_rng.put(enc);
            self.traffic_root.put(enc);
            self.world.grid_refresh_due().put(enc);
        })?;

        // Gateway outage depths.
        write_record(&mut w, SEC_DELIVERY, |enc| {
            put_slice(self.delivery.outage_depths(), enc);
        })?;

        // The mid-run metric collector, wholesale.
        let c = &self.delivery.collector;
        write_record(&mut w, SEC_COLLECTOR, |enc| {
            c.report.put(enc);
            put_map(enc, &c.arrived);
            put_map(enc, &c.transfers);
            (c.outage_depth, c.outage_since).put(enc);
            put_map(enc, &c.outage_generated);
        })?;

        let mut bytes = w.finish()?;
        bytes.shrink_to_fit();
        self.last_snapshot_len.store(bytes.len(), Ordering::Relaxed);
        Ok(Snapshot {
            bytes,
            header,
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
    /// are appended to the scenario's own plan, the restored
    /// `Disruption(i)` events are renumbered into the merged plan's
    /// compiled order, and the overlay's events are scheduled on top of
    /// the restored queue. The branch's timeline is its configuration's
    /// compiled plan, as every engine's is, so a checkpoint of the branch
    /// resumes to the branch.
    ///
    /// Every value the restored engine will index with — device ids in
    /// events, handovers, flights and withdrawals, timeline indices,
    /// message ids — is checked against what it indexes as it is read,
    /// and the restored engine must then pass the engine's own `check`,
    /// so a file that resumes also runs.
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
                let cfg = read_config(&mut r)?;
                snapshot.config.get_or_init(|| cfg).clone()
            }
        };
        // The order the captured run's `Disruption(i)` are numbered in.
        let originals = cfg.disruptions.compile(cfg.horizon);

        // An overlay's events lie after the captured instant, and its
        // tables are appended to the scenario's own, so the channel's
        // noise table and the withdrawal table grow without renumbering
        // (gateway indices are global).
        let overlay_len = if overlay.is_empty() {
            0
        } else {
            overlay
                .validate(cfg.num_gateways)
                .map_err(|e| SnapshotError::Overlay(e.to_string()))?;
            let compiled = overlay.compile(cfg.horizon);
            if let Some(&(t, _)) = compiled.iter().find(|&&(t, _)| t <= header.now) {
                return Err(SnapshotError::Overlay(format!(
                    "overlay event at {} s is not after the snapshot instant ({} s)",
                    t.as_millis() as f64 / 1e3,
                    header.now.as_millis() as f64 / 1e3,
                )));
            }
            cfg.disruptions.outages.extend(overlay.outages);
            cfg.disruptions.withdrawals.extend(overlay.withdrawals);
            cfg.disruptions.noise_bursts.extend(overlay.noise_bursts);
            compiled.len()
        };

        let mut engine = Engine::new(cfg, header.seed);
        // Engine::new compiled the *merged* plan, which interleaves
        // overlay events among the originals by time, and the restored
        // `Disruption(i)` name entries of the original plan's compiled
        // order. `compile` is a stable sort and overlay table indices
        // lie past the originals', so the originals keep their relative
        // order in the merge (first among equals): one walk says where
        // each original stands (`renumber`) and which entries are the
        // overlay's (`overlay_at`, in the overlay's own compiled order).
        let mut renumber = Vec::new();
        let mut overlay_at = Vec::new();
        let mut unplaced = originals.iter().peekable();
        for (i, entry) in (0u32..).zip(&engine.timeline) {
            if unplaced.next_if_eq(&entry).is_some() {
                renumber.push(i);
            } else {
                overlay_at.push((entry.0, i));
            }
        }
        let merged = unplaced.next().is_none() && overlay_at.len() == overlay_len;
        ensure(merged, "disruption plan does not merge with its overlay")?;
        engine.started = true;
        engine.now = header.now;
        engine.events_processed = header.events_processed.0;

        // Every event due at or before `now` has been processed, so the
        // timetable cursor stands past exactly the trips departed by then.
        let departed = engine
            .world
            .net
            .trips()
            .partition_point(|t| t.depart() <= header.now);
        engine.next_trip = departed.min(engine.live_trips);
        // The devices section holds a row for each of those trips and
        // for no other, so "names a device" is a comparison.
        let limits = Limits {
            devices: engine.next_trip,
            next_msg: header.next_msg,
        };

        // Pending events, in the writer's record order: a heap layout
        // (ascending keys, which builds that ran on a calendar queue
        // wrote, are one). Lifecycle records of undeparted trips (see
        // the module docs) are checked against the timetable and dropped.
        let n = expect_section(&mut r, SEC_EVENTS, "snapshot events")?;
        let mut records = reserved(n);
        let mut dropped = false;
        for _ in 0..n {
            let (time, seq, mut ev): (SimTime, u64, Event) = read_record(&mut r)?;
            let reissued = match ev {
                Event::TripStart(node) => Some((node.index(), false)),
                Event::TripEnd(node) if node.index() >= engine.next_trip => {
                    Some((node.index(), true))
                }
                Event::TripEnd(node) | Event::Generate(node) | Event::TxStart(node) => {
                    limits.device(node)?;
                    None
                }
                // A key the slab does not hold resolves to no flight.
                Event::TxEnd(_) => None,
                Event::Disruption(i) => {
                    let at = renumber
                        .get(i as usize)
                        .ok_or(ScenarioIoError::Corrupt("disruption past the timeline"))?;
                    ev = Event::Disruption(*at);
                    None
                }
            };
            if let Some((trip, is_end)) = reissued {
                let agrees = (engine.next_trip..engine.live_trips).contains(&trip) && {
                    let [start, end] = engine.lifecycle_keys(trip);
                    (time, seq) == if is_end { end } else { start }
                };
                ensure(agrees, "trip lifecycle record disagrees with the timetable")?;
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
        engine.events = EventQueue::from_raw_parts(records, header.event_seq.0).ok_or(
            ScenarioIoError::Corrupt("event records out of heap order or past the counter"),
        )?;
        // Overlay disruptions are scheduled *after* the queue restore so
        // they take fresh (higher) sequence numbers: at equal times they
        // fire after everything the original run had already scheduled.
        for (t, at) in overlay_at {
            engine.events.schedule(t, Event::Disruption(at));
        }

        // Devices, one per departed trip in id order: active ones
        // re-enter the world through activate() (which rebuilds the
        // sorted active set; `restore_runtime` below builds the cell
        // list once), retired ones only re-enter the device map.
        let n = expect_section(&mut r, SEC_DEVICES, "snapshot devices")?;
        let departed = n == limits.devices as u64;
        ensure(departed, "device records are not the departed trips")?;
        // Retirements that only a withdrawal, replayed below, can explain.
        let mut truncated = Vec::new();
        for id in 0..limits.devices {
            let node: NodeId = read_record(&mut r)?;
            ensure(node.index() == id, "device records out of order")?;
            let trip = engine.service_window(id);
            let trip = trip.ok_or(ScenarioIoError::Corrupt("device without a trip"))?;
            let (dev, hot, retired) = get_device(&mut r, &engine.cfg, &limits, trip)?;
            truncated.extend(retired.map(|at| (node, at)));
            let offers = dev.may_offer();
            engine.world.open_row(node);
            if hot.active {
                let pos = dev.grid_pos;
                engine.world.activate(node, dev, pos);
            } else {
                engine.world.devices.insert(node, dev);
            }
            // Scatter the captured hot row over activate()'s defaults —
            // retired devices keep their historical transmit state, so
            // a re-snapshot reproduces the original bytes — and derive
            // the offer bit, which no record stores, from the row.
            engine.world.hot.set(node.index(), hot);
            engine.world.hot.set_may_offer(node.index(), offers);
        }

        // Replay withdrawals against the network (the first takes this
        // engine's private copy). A withdrawal retires its bus when it
        // is applied, so a stored retirement that a withdrawal moves
        // must be one of those held back above, and each of those must
        // be its trip's end once all are replayed.
        let n = expect_section(&mut r, SEC_WITHDRAWN, "snapshot withdrawals")?;
        for _ in 0..n {
            let (node, t): (NodeId, SimTime) = read_record(&mut r)?;
            limits.device(node)?;
            ensure(t <= header.now, "withdrawal after the snapshot instant")?;
            let before = engine.service_window(node.index());
            engine.world.withdraw_trip(node, t);
            let held = truncated.binary_search_by_key(&node, |&(n, _)| n).is_ok();
            let active = engine.world.hot.active.get(node.index()) == Some(&true);
            let kept = engine.service_window(node.index()) == before || held || active;
            ensure(kept, "device retirement is not its trip's end")?;
            engine.withdrawn.push((node, t));
        }
        for (node, at) in truncated {
            let end = engine.service_window(node.index()).map(|(_, end)| end);
            ensure(end == Some(at), "device retirement is not its trip's end")?;
        }

        // The flight slab: slots verbatim (vacant included), then the
        // free list.
        let n = expect_section(&mut r, SEC_FLIGHT_SLOTS, "snapshot flight slots")?;
        let slots: Vec<(u32, Option<Flight>)> = read_records(&mut r, n)?;
        for flight in slots.iter().filter_map(|(_, flight)| flight.as_ref()) {
            limits.device(flight.sender)?;
            if let Some(target) = flight.target {
                limits.device(target)?;
            }
            limits.messages(&flight.frame.messages)?;
        }
        let n = expect_section(&mut r, SEC_FLIGHT_FREE, "snapshot flight free list")?;
        let free: Vec<u32> = read_records(&mut r, n)?;
        let flights = Slab::from_raw_parts(slots, free)
            .ok_or(ScenarioIoError::Corrupt("free list names no vacant slot"))?;

        // RNG streams and runtime scalars.
        expect_section(&mut r, SEC_STREAMS, "snapshot streams")?;
        let (channel_rng, Count(next_flight_seq), active_noise) = read_record(&mut r)?;
        engine
            .channel
            .restore(channel_rng, flights, next_flight_seq, active_noise);
        engine.disruption_rng = Persist::get(&mut r)?;
        engine.traffic_root = Persist::get(&mut r)?;
        engine.world.restore_runtime(Persist::get(&mut r)?);

        // Gateway outage depths, restored silently: no collector or observer events.
        expect_section(&mut r, SEC_DELIVERY, "snapshot delivery")?;
        engine.delivery.restore_outages(read_record(&mut r)?);

        // The mid-run collector, wholesale (fields in wire order). Its
        // count of messages generated issues the next id, so it must be
        // the header's counter, which bounded every id read so far and
        // bounds the maps' keys.
        expect_section(&mut r, SEC_COLLECTOR, "snapshot collector")?;
        r.begin_record()?;
        let report: SimReport = Persist::get(&mut r)?;
        let counted = report.generated == header.next_msg;
        ensure(counted, "message counter is not the collector's count")?;
        engine.delivery.collector = Collector {
            report,
            arrived: get_map(&mut r, &limits)?,
            transfers: get_map(&mut r, &limits)?,
            outage_depth: Persist::get(&mut r)?,
            outage_since: Persist::get(&mut r)?,
            outage_generated: get_map(&mut r, &limits)?,
        };

        ensure(r.next_section()?.is_none(), "unexpected trailing section")?;
        // The premises that relate the restored parts are the engine's
        // own, checked as every debug slice checks them.
        engine.check().map_err(ScenarioIoError::Corrupt)?;
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
    write_record(&mut w, SEC_CONFIG, |enc| enc.put_bytes(&blob))?;
    // A container of this one section: what lies between the file
    // header (magic, version word) and the end marker is the section.
    let mut framed = w.finish()?;
    framed.pop();
    framed.drain(..SNAPSHOT_MAGIC.len() + std::mem::size_of::<u16>());
    Ok(framed)
}

/// What the ids in a snapshot may name: the captured run's departed
/// trips (each has a device row, no other trip does) and the messages
/// it had issued.
struct Limits {
    devices: usize,
    next_msg: u64,
}

impl Limits {
    fn device(&self, node: NodeId) -> Result<(), ScenarioIoError> {
        ensure(node.index() < self.devices, "names a device that never was")
    }

    /// A `DenseMap` grows to the id it is handed, so an id the run
    /// never issued — every issued one is below the header's counter —
    /// must not reach one: one large number in a re-sealed file would
    /// be a multi-terabyte resize.
    fn message(&self, id: MessageId) -> Result<(), ScenarioIoError> {
        ensure(id.raw() < self.next_msg, "message id was never issued")
    }

    fn messages(&self, messages: &[AppMessage]) -> Result<(), ScenarioIoError> {
        messages.iter().try_for_each(|m| self.message(m.id))
    }
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
    let records = expect_section(r, SEC_HEADER, "snapshot header")?;
    ensure(records == 1, "snapshot header record count")?;
    let header: Header = read_record(r)?;
    let shards = (1..=MAX_SHARDS).contains(&header.shards);
    ensure(shards, "snapshot shard count out of range")?;
    Ok(header)
}

/// Decodes the embedded scenario.
fn read_config<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimConfig, SnapshotError> {
    let records = expect_section(r, SEC_CONFIG, "snapshot config")?;
    ensure(records == 1, "snapshot config record count")?;
    r.begin_record()?;
    Ok(SimConfig::from_reader(r.byte_slice()?)?)
}

// ---------------------------------------------------------------------
// Record layouts, each written once (see `crate::persist`)
// ---------------------------------------------------------------------

impl Persist for Event {
    fn put(&self, enc: &mut Enc) {
        match *self {
            Event::TripStart(n) => (0u8, n).put(enc),
            Event::TripEnd(n) => (1u8, n).put(enc),
            Event::Generate(n) => (2u8, n).put(enc),
            Event::TxStart(n) => (3u8, n).put(enc),
            Event::TxEnd(key) => (4u8, key).put(enc),
            Event::Disruption(i) => (5u8, i).put(enc),
        }
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        Ok(match r.u8()? {
            0 => Event::TripStart(Persist::get(r)?),
            1 => Event::TripEnd(Persist::get(r)?),
            2 => Event::Generate(Persist::get(r)?),
            3 => Event::TxStart(Persist::get(r)?),
            4 => Event::TxEnd(Persist::get(r)?),
            5 => Event::Disruption(Persist::get(r)?),
            _ => return Err(ScenarioIoError::Corrupt("unknown event tag")),
        })
    }
}

persist_struct!(AppMessage {
    id: MessageId,
    origin: NodeId,
    created: SimTime,
    payload_bytes: u16,
    profile: u8,
    priority: Priority,
});
persist_struct!(UplinkFrame {
    sender: NodeId,
    messages: Vec<AppMessage>,
    rca_etx: f64,
    queue_len: usize,
});
persist_struct!(Flight {
    seq: u64,
    sender: NodeId,
    target: Option<NodeId>,
    start: SimTime,
    end: SimTime,
    pos: Point,
    frame: UplinkFrame,
});
persist_struct!(DeviceTraffic {
    profile: u32,
    rng: SimRng,
    burst_left: u32,
});
persist_struct!(ProfileReport {
    name: String,
    generated: Count,
    delivered: Count,
    messages_sent: Count,
    payload_bytes_sent: Count,
    airtime_s: f64,
    delay: Welford,
});
persist_struct!(SimReport {
    scheme: String,
    generated: Count,
    delivered: Count,
    duplicates: Count,
    stranded: Count,
    queue_drops: Count,
    delay: Welford,
    hops: Welford,
    throughput_series: TimeSeries,
    frames_sent: Count,
    messages_sent: Count,
    handover_frames: Count,
    handover_messages: Count,
    collisions: Count,
    devices_seen: Count,
    total_energy_mj: f64,
    total_active_s: f64,
    gateway_outages: Count,
    buses_withdrawn: Count,
    noise_bursts: Count,
    outage_time_s: f64,
    generated_during_outage: Count,
    delivered_of_outage_generated: Count,
    total_airtime_s: f64,
    profiles: Vec<ProfileReport>,
});

/// A map keyed by message id: its length, then `(id, value)` in id
/// order.
fn put_map<V: Persist>(enc: &mut Enc, map: &DenseMap<MessageId, V>) {
    map.len().put(enc);
    for (id, value) in map.iter() {
        id.put(enc);
        value.put(enc);
    }
}

fn get_map<R: Read, V: Persist>(
    r: &mut ScenarioReader<R>,
    limits: &Limits,
) -> Result<DenseMap<MessageId, V>, ScenarioIoError> {
    let mut map = DenseMap::new();
    for _ in 0..u64::get(r)? {
        let id = MessageId::get(r)?;
        limits.message(id)?;
        map.insert(id, V::get(r)?);
    }
    Ok(map)
}

/// Writes one device record: the cold [`Device`] row plus its gathered
/// hot-column view and its trip's service window `(departure,
/// retirement)`, in the exact field order the AoS layout used — the
/// wire format is unchanged by the SoA split. The record keeps copies
/// the row does not: the scenario's constants, the frame size (twice),
/// the service window, the airtime and the frame count, each written
/// from its one owner. Hand-written, unlike the records above: it
/// interleaves two structs, reaches the foreign state types through
/// their `raw_parts`, and [`get_device`] needs the scenario to rebuild
/// what is not stored. Keep the two in step, line for line.
fn put_device(enc: &mut Enc, dev: &Device, hot: DeviceHot, window: (SimTime, Option<SimTime>)) {
    (hot.active, window.0, window.1).put(enc);
    (dev.queue.capacity(), dev.queue.dropped(), dev.queue.len()).put(enc);
    dev.queue.iter().for_each(|m| m.put(enc));
    dev.duty.raw_parts().put(enc);
    (dev.retransmit.max_attempts(), dev.retransmit.attempts()).put(enc);
    let (estimator, ca, ledger) = dev.routing.raw_parts();
    let (tracker, ewma) = estimator.raw_parts();
    tracker.raw_parts().put(enc);
    (ewma.alpha(), ewma.value(), PACKET_BITS).put(enc);
    let (gaps, capacities, last_contact) = ca.raw_parts();
    (PACKET_BITS, gaps, capacities, last_contact).put(enc);
    put_slice(ledger.donors_sorted(), enc);
    (hot.transmitting, dev.tx_scheduled, dev.pending_handover).put(enc);
    (hot.last_tx_end, hot.tx_window, hot.gamma).put(enc);
    let (airtime, frames) = (dev.duty.total_airtime(), dev.duty.tx_count());
    (airtime, dev.rx_window_time, frames, dev.grid_pos).put(enc);
    dev.traffic.put(enc);
}

/// Reads one device record, splitting it back into the cold [`Device`]
/// row and the hot-column values the caller scatters into the world.
/// `trip` is the device's departure and end (cut at the horizon) in the
/// timetable before the withdrawals are replayed. A stored retirement
/// at another instant is returned: only a withdrawal can explain it, so
/// the caller holds it to the trip once the withdrawals are replayed.
fn get_device<R: Read>(
    r: &mut ScenarioReader<R>,
    cfg: &SimConfig,
    limits: &Limits,
    trip: (SimTime, SimTime),
) -> Result<(Device, DeviceHot, Option<SimTime>), ScenarioIoError> {
    let (active, activated_at, retired_at): (bool, SimTime, Option<SimTime>) = Persist::get(r)?;
    let (capacity, Count(dropped), messages): (usize, _, Vec<AppMessage>) = Persist::get(r)?;
    let (duty_cycle, next_allowed, total_airtime, Count(tx_count)) = Persist::get(r)?;
    let (max_attempts, attempts) = Persist::get(r)?;
    let (last_success, in_contact, Count(successes), Count(failures)) = Persist::get(r)?;
    let (alpha, ewma_value, rca_bits) = Persist::get(r)?;
    let (ca_bits, gaps, capacities, last_contact) = Persist::get(r)?;
    let donors: Vec<NodeId> = Persist::get(r)?;
    let (transmitting, tx_scheduled, pending_handover) = Persist::get(r)?;
    let (last_tx_end, tx_window, gamma) = Persist::get(r)?;
    let (airtime, rx_window_time, Count(frames), grid_pos) = Persist::get(r)?;
    let traffic: Option<DeviceTraffic> = Persist::get(r)?;

    // Copies of what the timetable and the duty-cycle tracker hold. A
    // device is retired exactly when it is not active.
    let (depart, end) = trip;
    ensure(
        activated_at == depart,
        "device activation is not its trip's departure",
    )?;
    ensure(
        retired_at.is_some() != active,
        "device retirement disagrees with its flag",
    )?;
    let copies = (airtime, frames) == (total_airtime, tx_count);
    ensure(
        copies,
        "device airtime or frame count is not its duty cycle's",
    )?;

    // Six fields are constants, stored per device: the scenario's four
    // and the two estimators' frame size. The constructors below assert
    // their ranges, which the validated scenario and `PACKET_BITS`
    // satisfy. (NaN equals nothing.)
    let constants = (capacity, duty_cycle, max_attempts, alpha, rca_bits, ca_bits)
        == (
            cfg.queue_capacity,
            cfg.duty_cycle,
            cfg.max_attempts,
            cfg.alpha,
            PACKET_BITS,
            PACKET_BITS,
        );
    ensure(constants, "device constants are not the scenario's")?;
    limits.messages(&messages)?;
    if let Some((target, _)) = pending_handover {
        limits.device(target)?;
    }
    let queue = DataQueue::from_parts(capacity, dropped, messages).ok_or(
        ScenarioIoError::Corrupt("device queue over capacity or out of order"),
    )?;

    let tracker = ContactTracker::from_raw_parts(last_success, in_contact, successes, failures);
    let ewma = Ewma::from_raw_parts(alpha, ewma_value);
    let estimator = RcaEtxEstimator::from_raw_parts(tracker, ewma);
    let ca = CaEtxEstimator::from_raw_parts(gaps, capacities, last_contact);
    let ledger = DonorLedger::from_donors(donors);
    let routing_config = cfg.routing_config();
    let policy = cfg.policy.build();
    Ok((
        Device {
            queue,
            duty: DutyCycleTracker::from_raw_parts(
                duty_cycle,
                next_allowed,
                total_airtime,
                tx_count,
            ),
            retransmit: RetransmitPolicy::from_parts(max_attempts, attempts),
            routing: RoutingState::from_raw_parts(routing_config, policy, estimator, ca, ledger),
            tx_scheduled,
            pending_handover,
            rx_window_time,
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
        retired_at.filter(|&at| at != end),
    ))
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;
    use crate::Environment;
    use mlora_core::Scheme;
    use mlora_mobility::BusNetwork;
    use mlora_simcore::SimDuration;
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

    /// A checkpoint between drift sweeps, with an activation (an entry
    /// in the cell list's overflow run) and a retirement (a tombstone)
    /// since the last sweep: the resumed engine builds its cell list
    /// once from the active set, re-snapshots byte for byte, and runs
    /// to the uninterrupted report.
    #[test]
    fn checkpoint_between_drift_sweeps_resumes_bit_identically() {
        // One-leg trips under a flat profile: buses come and go every
        // few seconds.
        let mut cfg = cfg();
        cfg.network.max_active_buses = 120;
        cfg.network.max_legs = 1;
        cfg.network.profile = mlora_mobility::DiurnalProfile::flat(1.0);
        let baseline = Engine::new(cfg.clone(), 7).run();
        let mut engine = Engine::new(cfg, 7);
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs(1);
            assert!(
                t < engine.horizon,
                "no activation and retirement between two sweeps"
            );
            engine.run_until(t);
            let last = engine.world.last_sweep();
            let world = &engine.world;
            let trips = world.net.trips();
            let activated = world
                .active
                .iter()
                .any(|&n| trips[n.index()].depart() > last);
            let retired = world
                .devices
                .iter()
                .any(|(i, _)| !world.hot.active[i] && trips[i].end() > last);
            if activated && retired {
                break;
            }
        }
        let snap = engine.snapshot().expect("snapshot between sweeps");
        let resumed = Engine::resume(&snap).expect("resume");
        let again = resumed.snapshot().unwrap();
        assert!(again.as_bytes() == snap.as_bytes(), "re-snapshot differs");
        assert_eq!(resumed.finish(), baseline);
        assert_eq!(engine.finish(), baseline);
    }

    #[test]
    fn drift_sweep_due_past_one_period_is_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let honest = engine.snapshot().expect("snapshot");
        let due = engine.world.grid_refresh_due();
        let period = due - engine.world.last_sweep();
        assert!(due <= engine.now + period);
        engine
            .world
            .restore_runtime(engine.now + period + SimDuration::from_millis(1));
        let forged = engine.snapshot().expect("snapshot");
        assert!(matches!(
            Engine::resume(&forged),
            Err(SnapshotError::Format(ScenarioIoError::Corrupt(_)))
        ));
        assert!(Engine::resume(&honest).is_ok());
    }

    #[test]
    fn snapshot_bytes_roundtrip_through_files() {
        let mut engine = Engine::new(cfg(), 11);
        engine.run_until(SimTime::from_secs(600));
        let snap = engine.snapshot().expect("snapshot");
        let reloaded = Snapshot::from_bytes(snap.as_bytes().to_vec()).expect("reload");
        assert_eq!(reloaded.time(), snap.time());
        assert_eq!(reloaded.seed(), snap.seed());
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
        let flights = engine.channel.flights.iter().map(|(_, f)| f);
        assert_eq!(flights.filter(|f| f.end > engine.now).count(), 2);
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

    /// Why `result` was refused as corrupt, if it was.
    fn refusal<T>(result: Result<T, SnapshotError>) -> Option<&'static str> {
        match result {
            Err(SnapshotError::Format(ScenarioIoError::Corrupt(why))) => Some(why),
            _ => None,
        }
    }

    #[test]
    fn shard_count_beyond_the_limit_is_refused_at_load() {
        use crate::framing::{get_varint, splice, varint};
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(300));
        let snap = engine.snapshot().expect("snapshot");
        // The header re-sealed with another shard count (its second
        // field, after the seed), so every checksum holds.
        let with_shards = |shards: usize| {
            splice(snap.as_bytes(), SNAPSHOT_MAGIC, SEC_HEADER, |s| {
                let mut at = 0;
                get_varint(&s.payload, &mut at);
                assert_eq!(s.payload[at], 1, "written as one shard");
                s.payload.splice(at..=at, varint(shards as u64));
            })
        };
        assert!(Snapshot::from_bytes(with_shards(MAX_SHARDS)).is_ok());
        assert!(is_corrupt(Snapshot::from_bytes(with_shards(
            MAX_SHARDS + 1
        ))));
        assert!(is_corrupt(Snapshot::from_bytes(with_shards(0))));
    }

    #[test]
    fn collector_message_ids_beyond_the_counter_are_refused() {
        // Written by the engine itself, so every checksum holds; only
        // the collector's count of messages generated is wound back. The
        // header's counter is that count, so the two agree, and every id
        // in the collector section is one the run "never issued".
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let report = &mut engine.delivery.collector.report;
        assert!(report.generated > 0 && report.delivered > 0);
        report.generated = 0;
        let snap = engine.snapshot().expect("snapshot");
        assert!(is_corrupt(Engine::resume(&snap)));
    }

    /// `snap` with varint `field` of section `id`'s one record — every
    /// field before it a varint too — rewritten from `written` to
    /// `value`, re-sealed so every checksum holds.
    fn with_varint(snap: &Snapshot, id: u8, field: usize, written: u64, value: u64) -> Snapshot {
        use crate::framing::{get_varint, splice, varint};
        let bytes = splice(snap.as_bytes(), SNAPSHOT_MAGIC, id, |s| {
            let mut at = 0;
            for _ in 0..field {
                get_varint(&s.payload, &mut at);
            }
            let start = at;
            assert_eq!(get_varint(&s.payload, &mut at), written, "section {id}");
            s.payload.splice(start..at, varint(value));
        });
        Snapshot::from_bytes(bytes).expect("the snapshot decodes")
    }

    #[test]
    fn header_message_counter_must_be_the_collectors_count() {
        // Raised, the counter issued ids a `DenseMap` grows to: at 2^32
        // a 4 GiB allocation, at 2^63 a capacity overflow, at
        // `u64::MAX` an index out of bounds.
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let generated = engine.delivery.collector.report.generated;
        let snap = engine.snapshot().expect("snapshot");
        // The header's fourth field, after seed, shards and now.
        let with_next_msg = |next_msg| with_varint(&snap, SEC_HEADER, 3, generated, next_msg);
        for next_msg in [generated - 1, generated + 1, 1 << 32, 1 << 63, u64::MAX] {
            let snap = with_next_msg(next_msg);
            assert!(is_corrupt(Engine::resume(&snap)), "next_msg {next_msg}");
        }
        assert!(Engine::resume(&with_next_msg(generated)).is_ok());
    }

    #[test]
    fn event_counter_inside_the_reserved_numbers_is_refused() {
        // A debug build panicked at the first trip end ("sequence number
        // 17 was never reserved"); a release build issued numbers twice.
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let (records, event_seq) = engine.events.raw_parts();
        let newest = records.iter().map(|&(key, _)| key as u64).max().unwrap();
        let reserved = 2 * engine.live_trips as u64;
        for forged in [0, 1, reserved - 1, newest] {
            let snap = engine.encode_snapshot(records, forged).unwrap();
            assert!(is_corrupt(Engine::resume(&snap)), "event_seq {forged}");
        }
        let snap = engine.encode_snapshot(records, event_seq).unwrap();
        assert!(Engine::resume(&snap).is_ok());
    }

    #[test]
    fn device_filed_far_from_its_position_is_refused() {
        // Queries screen filed positions with a pad for the drift since
        // the last sweep: a device filed farther away than that is one
        // they miss, silently in a release build.
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let n = engine.world.active[0];
        let dev = engine.world.devices.get_mut(n).unwrap();
        dev.grid_pos = Point::new(dev.grid_pos.x + 2_000.0, dev.grid_pos.y);
        // Filed there consistently: the cell list agrees with the row.
        let due = engine.world.grid_refresh_due();
        engine.world.restore_runtime(due);
        let drifted = |result: Result<Engine, SnapshotError>| {
            let why = "device drifted past the bound from its filed position";
            matches!(result, Err(SnapshotError::Format(ScenarioIoError::Corrupt(e))) if e == why)
        };
        let snap = engine.snapshot().expect("snapshot");
        assert!(drifted(Engine::resume(&snap)));
        // Or every device filed where it was, under another master seed
        // (the header's first field), which regenerates the bus network
        // and so moves every bus. Such a file is refused sooner: its
        // timetable departed another number of trips, or departed them
        // at other instants than the device records say.
        let framed: &[u8] = include_bytes!("../../../../tests/fixtures/framed_once.mlss");
        let snap = Snapshot::from_bytes(framed.to_vec()).expect("the fixture loads");
        for seed in [1 << 32, 1 << 63, u64::MAX] {
            let forged = with_varint(&snap, SEC_HEADER, 0, 15, seed);
            let why = refusal(Engine::resume(&forged));
            assert_eq!(
                why,
                Some("device activation is not its trip's departure"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn counts_without_room_to_count_are_refused() {
        // Each at `u64::MAX` overflowed on its next increment in a debug
        // build; from 2^62 up a stored count is refused.
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let limit = crate::persist::COUNT_LIMIT;
        let refused = |edit: &dyn Fn(&mut Engine, u64)| {
            let mut forged = Engine::resume(&engine.snapshot().unwrap()).unwrap();
            edit(&mut forged, limit - 1);
            let below = Engine::resume(&forged.snapshot().unwrap()).is_ok();
            edit(&mut forged, limit);
            below && is_corrupt(Engine::resume(&forged.snapshot().unwrap()))
        };
        assert!(refused(&|e, v| e.events_processed = v));
        assert!(refused(&|e, v| {
            let records = e.events.raw_parts().0.to_vec();
            e.events = EventQueue::from_raw_parts(records, v).unwrap();
        }));
        // The collector counts what the rows count, so the first
        // device's count is the only one left standing.
        assert!(refused(&|e, v| {
            only_first_device(e, v, |dev, v| {
                let (cycle, next_allowed, airtime, _) = dev.duty.raw_parts();
                dev.duty = DutyCycleTracker::from_raw_parts(cycle, next_allowed, airtime, v);
            });
            e.delivery.collector.report.frames_sent = v;
        }));
        assert!(refused(&|e, v| {
            only_first_device(e, v, |dev, v| {
                let held: Vec<_> = dev.queue.iter().cloned().collect();
                dev.queue = DataQueue::from_parts(dev.queue.capacity(), v, held).unwrap();
            });
            e.delivery.collector.report.queue_drops = v;
        }));
        for count in 0..4 {
            assert!(refused(&|e, v| set_routing_count(e, count, v)), "{count}");
        }
        assert!(refused(&|e, v| e.delivery.collector.report.collisions = v));
        assert!(refused(&|e, v| {
            let delay = &mut e.delivery.collector.report.delay;
            let (_, mean, m2, min, max) = delay.raw_parts();
            *delay = Welford::from_raw_parts(v, mean, m2, min, max);
        }));
        assert!(refused(&|e, v| {
            let series = &mut e.delivery.collector.report.throughput_series;
            let mut counts = series.counts().to_vec();
            counts[0] = v;
            *series = TimeSeries::from_raw_parts(series.bucket(), counts, series.is_bounded());
        }));
        // The flight counter, the streams' first field after the
        // channel's RNG (five words).
        let snap = engine.snapshot().unwrap();
        let issued = engine.channel.checkpoint_parts().1;
        let forged = |v| Engine::resume(&with_varint(&snap, SEC_STREAMS, 5, issued, v));
        assert!(forged(limit - 1).is_ok() && is_corrupt(forged(limit)));
    }

    /// The first active device's row.
    fn first_device(e: &mut Engine) -> &mut Device {
        let n = e.world.active[0];
        e.world.devices.get_mut(n).unwrap()
    }

    /// Sets a count of the first active device's row to `v` and the
    /// same count of every other row to 0.
    fn only_first_device(e: &mut Engine, v: u64, set: impl Fn(&mut Device, u64)) {
        let first = e.world.active[0];
        for i in 0..e.world.devices.slot_count() {
            let n = NodeId::new(i as u32);
            set(
                e.world.devices.get_mut(n).unwrap(),
                if n == first { v } else { 0 },
            );
        }
    }

    /// Sets one of the first active device's routing counts — its
    /// contacts' successes (0) and failures (1), its CA-ETX gap (2) and
    /// capacity (3) `Welford` counts — to `v`.
    fn set_routing_count(e: &mut Engine, count: usize, v: u64) {
        let (routing, policy) = (e.cfg.routing_config(), e.cfg.policy.build());
        let dev = first_device(e);
        let (estimator, ca, ledger) = dev.routing.raw_parts();
        let ledger = DonorLedger::from_donors(ledger.donors_sorted().to_vec());
        let (tracker, ewma) = estimator.raw_parts();
        let (last_success, in_contact, mut successes, mut failures) = tracker.raw_parts();
        let (mut gaps, mut capacities, last_contact) = ca.raw_parts();
        let counted = |w: Welford| {
            let (_, mean, m2, min, max) = w.raw_parts();
            Welford::from_raw_parts(v, mean, m2, min, max)
        };
        match count {
            0 => successes = v,
            1 => failures = v,
            2 => gaps = counted(gaps),
            _ => capacities = counted(capacities),
        }
        let tracker = ContactTracker::from_raw_parts(last_success, in_contact, successes, failures);
        let estimator = RcaEtxEstimator::from_raw_parts(tracker, ewma);
        let ca = CaEtxEstimator::from_raw_parts(gaps, capacities, last_contact);
        dev.routing = RoutingState::from_raw_parts(routing, policy, estimator, ca, ledger);
    }

    /// The byte ranges of device record `record`'s primitives, in the
    /// order the decoder reads them, and the devices section's payload.
    fn device_fields(snap: &Snapshot, record: u64) -> (Vec<std::ops::Range<usize>>, Vec<u8>) {
        let (resumed, tape) = mlora_scenario_io::record_tape(|| Engine::resume(snap));
        assert!(resumed.is_ok(), "the honest snapshot resumes");
        let fields = tape
            .into_iter()
            .filter(|e| e.magic == SNAPSHOT_MAGIC && e.section == SEC_DEVICES && e.record == record)
            .map(|e| e.at)
            .collect();
        let sections = crate::framing::sections(snap.as_bytes());
        let devices = sections.into_iter().find(|s| s.id == SEC_DEVICES).unwrap();
        (fields, devices.payload)
    }

    /// `snap` with each byte range of its devices section replaced,
    /// re-sealed so every checksum holds.
    fn with_device_edits(
        snap: &Snapshot,
        mut edits: Vec<(std::ops::Range<usize>, Vec<u8>)>,
    ) -> Snapshot {
        edits.sort_unstable_by_key(|(at, _)| std::cmp::Reverse(at.start));
        let bytes = crate::framing::splice(snap.as_bytes(), SNAPSHOT_MAGIC, SEC_DEVICES, |s| {
            for (at, with) in edits {
                s.payload.splice(at, with);
            }
        });
        Snapshot::from_bytes(bytes).expect("the snapshot decodes")
    }

    /// A device record stores copies of its trip's service window and of
    /// its duty cycle's airtime and frame count, written from their
    /// owners. A copy that disagrees with its owner used to resume: a
    /// bus flagged off the road panicked a debug build at its trip end
    /// ("retired device missing from the cell list"), a retirement on a
    /// bus in service kept it from ever retiring, and a forged airtime
    /// changed the run's energy total.
    #[test]
    fn device_copies_that_disagree_with_their_owners_are_refused() {
        use crate::framing::{get_varint, varint};
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(3_600));
        let snap = engine.snapshot().expect("snapshot");
        let trips = engine.world.net.trips();
        let end = |i: usize| trips[i].end().min(engine.horizon).as_millis();

        let n = engine.world.active[0];
        let dev = engine.world.devices.get(n).unwrap();
        let (fields, payload) = device_fields(&snap, n.index() as u64);
        let value = |i: usize| get_varint(&payload, &mut fields[i].start.clone());
        let forged = |edits: Vec<(usize, Vec<u8>)>| {
            let edits = edits.into_iter().map(|(i, with)| (fields[i].clone(), with));
            refusal(Engine::resume(&with_device_edits(&snap, edits.collect())))
        };
        let flag = "device retirement disagrees with its flag";
        // Fields 1–4: the active flag, the activation, and the
        // retirement's flag (and instant, when set).
        assert_eq!(payload[fields[1].start], 1, "in service");
        assert_eq!(forged(vec![(1, vec![0])]), Some(flag));
        let mut retired = vec![1];
        retired.extend(varint(end(n.index())));
        assert_eq!(forged(vec![(3, retired.clone())]), Some(flag));
        assert_eq!(
            forged(vec![(1, vec![0]), (3, retired)]),
            Some("device in service outside its trip")
        );
        assert_eq!(value(2), trips[n.index()].depart().as_millis());
        assert_eq!(
            forged(vec![(2, varint(value(2) + 1))]),
            Some("device activation is not its trip's departure")
        );
        // From the end of the record: the (empty) traffic state, the
        // filed position, the frame count, the listening time and the
        // airtime.
        let last = fields.len() - 1;
        let (airtime, frames) = (last - 5, last - 3);
        assert_eq!(value(airtime), dev.duty.total_airtime().as_millis());
        assert_eq!(value(frames), dev.duty.tx_count());
        let copies = Some("device airtime or frame count is not its duty cycle's");
        assert_eq!(forged(vec![(airtime, varint(value(airtime) + 1))]), copies);
        assert_eq!(forged(vec![(frames, varint(value(frames) + 1))]), copies);

        // A bus retired at the end of its trip, not withdrawn.
        let r = (0..engine.world.devices.len())
            .find(|&i| !engine.world.hot.active[i])
            .expect("a bus retired");
        let (fields, payload) = device_fields(&snap, r as u64);
        assert_eq!(get_varint(&payload, &mut fields[4].start.clone()), end(r));
        let forged = |i: usize, with: Vec<u8>| {
            refusal(Engine::resume(&with_device_edits(
                &snap,
                vec![(fields[i].clone(), with)],
            )))
        };
        assert_eq!(forged(1, vec![1]), Some(flag));
        assert_eq!(
            forged(4, varint(end(r) - 1)),
            Some("device retirement is not its trip's end")
        );
    }

    /// A withdrawal truncates its bus's trip when it is applied, and the
    /// bus retires then: a withdrawal record that would move a stored
    /// retirement, or that lies past the snapshot instant, used to
    /// resume.
    #[test]
    fn withdrawals_the_retirements_do_not_show_are_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(3_600));
        let r = (0..engine.world.devices.len())
            .find(|&i| !engine.world.hot.active[i])
            .expect("a bus retired");
        let node = NodeId::new(r as u32);
        let trip = engine.world.net.trips()[r];
        let forged = |withdrawal: (NodeId, SimTime)| {
            let mut e = Engine::resume(&engine.snapshot().unwrap()).unwrap();
            e.withdrawn.push(withdrawal);
            refusal(Engine::resume(&e.snapshot().unwrap()))
        };
        // Past the trip's end, a withdrawal moves nothing.
        assert_eq!(forged((node, trip.end())), None);
        let mid = trip.depart() + (trip.end() - trip.depart()) / 2;
        assert_eq!(
            forged((node, mid)),
            Some("device retirement is not its trip's end")
        );
        let active = engine.world.active[0];
        let later = engine.now + SimDuration::from_secs(1);
        assert_eq!(
            forged((active, later)),
            Some("withdrawal after the snapshot instant")
        );
    }

    /// The collector's counts of what the rows hold, and the rows'
    /// transmission flags, against what they count. Each forged file
    /// used to resume: a flag that said a transmission was queued when
    /// none was kept its bus silent for the rest of the run.
    #[test]
    fn counts_that_disagree_with_what_they_count_are_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let forged = |edit: &dyn Fn(&mut Engine)| {
            let mut e = Engine::resume(&engine.snapshot().unwrap()).unwrap();
            edit(&mut e);
            refusal(Engine::resume(&e.snapshot().unwrap()))
        };
        assert_eq!(forged(&|_| {}), None);
        fn report(e: &mut Engine) -> &mut SimReport {
            &mut e.delivery.collector.report
        }
        assert!(engine.delivery.collector.report.delivered > 0);
        assert_eq!(
            forged(&|e| report(e).delivered -= 1),
            Some("delivered count is not the messages arrived")
        );
        assert_eq!(
            forged(&|e| report(e).generated_during_outage += 1),
            Some("outage count is not the messages generated during outages")
        );
        assert_eq!(
            forged(&|e| report(e).devices_seen += 1),
            Some("devices seen are not the rows retired")
        );
        assert_eq!(
            forged(&|e| report(e).frames_sent += 1),
            Some("frames sent are not the devices' transmissions")
        );
        assert_eq!(
            forged(&|e| report(e).queue_drops += 1),
            Some("queue drops are not the devices' drops")
        );

        let flagged = Some("transmission flag disagrees with the queued events");
        let (idle, busy) = {
            let rows = || engine.world.devices.iter();
            let idle = rows()
                .find(|(_, d)| !d.tx_scheduled)
                .expect("an idle row")
                .0;
            let busy = rows().find(|(_, d)| d.tx_scheduled).expect("a busy row").0;
            (NodeId::new(idle as u32), NodeId::new(busy as u32))
        };
        assert_eq!(
            forged(&|e| e.world.devices.get_mut(idle).unwrap().tx_scheduled = true),
            flagged
        );
        assert_eq!(
            forged(&|e| e.world.devices.get_mut(busy).unwrap().tx_scheduled = false),
            flagged
        );
        // A second `TxStart` for a bus with one queued.
        let (records, event_seq) = engine.events.raw_parts();
        let mut records = records.to_vec();
        let at = u128::from((engine.now + SimDuration::from_secs(1)).as_millis()) << 64;
        records.push((at | u128::from(event_seq), Event::TxStart(busy)));
        records.sort_unstable_by_key(|&(key, _)| key);
        let snap = engine.encode_snapshot(&records, event_seq + 1).unwrap();
        assert_eq!(
            refusal(Engine::resume(&snap)),
            Some("transmission queued twice or for no device")
        );
    }

    /// A bus in service retires when its queued `TripEnd` fires, so
    /// that record must sit under the timetable's key. One moved to
    /// another instant retired its bus early, and one dropped kept its
    /// bus on the road past the trip's end; both used to resume.
    #[test]
    fn trip_end_off_the_timetable_is_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let (records, event_seq) = engine.events.raw_parts();
        let end = records
            .iter()
            .find(|&&(_, ev)| matches!(ev, Event::TripEnd(_)));
        let (key, ev) = *end.expect("a trip end queued");
        let forged = |record: Option<(u128, Event)>| {
            let mut records: Vec<_> = records
                .iter()
                .copied()
                .filter(|&r| r != (key, ev))
                .collect();
            records.extend(record);
            records.sort_unstable_by_key(|&(key, _)| key);
            let snap = engine.encode_snapshot(&records, event_seq).unwrap();
            refusal(Engine::resume(&snap))
        };
        assert_eq!(forged(Some((key, ev))), None);
        let why = Some("device in service without its trip end queued");
        let early = u128::from((engine.now + SimDuration::from_secs(1)).as_millis()) << 64;
        assert_eq!(
            forged(Some((early | (key & u128::from(u64::MAX)), ev))),
            why
        );
        assert_eq!(forged(Some((key + 2, ev))), why);
        assert_eq!(forged(None), why);
    }

    /// A device in service generates when its queued `Generate` fires,
    /// and each one queues the next. A file without it used to resume,
    /// and its bus never generated again: in the smoke run cut at 900 s,
    /// device 0 sent 10 frames to the end of its trip instead of 39.
    #[test]
    fn generation_missing_or_doubled_is_refused() {
        let mut engine = Engine::new(cfg(), 7);
        engine.run_until(SimTime::from_secs(900));
        let (records, event_seq) = engine.events.raw_parts();
        let generate = |r: &&(u128, Event)| matches!(r.1, Event::Generate(_));
        let (key, ev) = *records.iter().find(generate).expect("a generation queued");
        let forged = |records: Vec<(u128, Event)>, event_seq| {
            let mut records = records;
            records.sort_unstable_by_key(|&(key, _)| key);
            let snap = engine.encode_snapshot(&records, event_seq).unwrap();
            refusal(Engine::resume(&snap))
        };
        let dropped = records.iter().copied().filter(|&r| r != (key, ev));
        assert_eq!(
            forged(dropped.collect(), event_seq),
            Some("device in service without a generation queued")
        );
        let mut doubled = records.to_vec();
        doubled.push(((key >> 64 << 64) | u128::from(event_seq), ev));
        assert_eq!(
            forged(doubled, event_seq + 1),
            Some("generation queued twice or for no device")
        );
        assert_eq!(forged(records.to_vec(), event_seq), None);
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
        use crate::framing::splice;
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
            let hostile = splice(snap.as_bytes(), SNAPSHOT_MAGIC, id, |s| s.count = 1 << 60);
            let loaded = Snapshot::from_bytes(hostile).expect("header is intact");
            assert!(is_corrupt(Engine::resume(&loaded)), "section {id}");
        }
        // The same promise inside a checksummed record: the message
        // count of a flight the writer framed like any other.
        let flight = Flight {
            seq: 3,
            sender: NodeId::new(1),
            target: None,
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            pos: Point::new(0.0, 0.0),
            frame: UplinkFrame::new(NodeId::new(1), Vec::new(), 0.0, 0),
        };
        let mut w = ScenarioWriter::with_magic(Vec::new(), SNAPSHOT_MAGIC).unwrap();
        write_records(&mut w, SEC_FLIGHT_SLOTS, &[flight]).unwrap();
        let honest = w.finish().unwrap();
        // The record ends: no messages (one byte), the metric (eight),
        // the queue length (one).
        let bytes = splice(&honest, SNAPSHOT_MAGIC, SEC_FLIGHT_SLOTS, |s| {
            let count = s.payload.len() - 10;
            s.payload
                .splice(count..=count, crate::framing::varint(1 << 60));
        });
        let mut r = ScenarioReader::with_magic(bytes.as_slice(), SNAPSHOT_MAGIC).unwrap();
        r.next_section().unwrap();
        assert!(matches!(
            read_record::<_, Flight>(&mut r),
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
