//! The shared radio channel: frames in flight, RSSI sampling, regional
//! noise and capture-model collision resolution.
//!
//! [`Channel`] owns the one RNG stream every shadowing draw comes from
//! (fork 12 of the master seed — the stream the historical engine used,
//! so an identically seeded run reproduces the golden fixtures bit for
//! bit), the generational flight slab and its launch-ordered ring with
//! their monotone creation sequence, and the per-receiver scratch of
//! audible frames. Reception at any receiver — gateway or neighbouring
//! device — goes through one method, [`Channel::receive`], so the
//! capture rule, the noise model and the RNG draw order have nowhere to
//! drift apart.
//!
//! A reception decides before it computes. What the bit-identity rule
//! fixes is which RNG words are drawn, in which order, and what the
//! reception decides — not how many logarithms are taken on the way.
//! `receive` draws every audible frame's two words, bounds each
//! frame's strength from three table lookups
//! ([`RssiModel::bounds_dbm`]) and compares intervals; only a
//! comparison the intervals leave open evaluates the two strengths
//! involved, with the exact expressions in their historical order. The
//! decoded frame's own strength leaves as a [`Strength`], evaluated if
//! and when someone reads it (a gateway always does; of the built-in
//! policies only the greedy ones do).
//!
//! Flights live twice. The slab holds each whole [`Flight`] under the
//! key its transmission-end event carries. The **flight ring** holds
//! what the interferer scan reads of each — `(start, end, seq, pos)` —
//! in creation order, which is launch-time order. A transmission end
//! walks the ring from its newest row and stops at the first row that
//! started at least one maximum airtime before the subject: that row
//! ended too early to overlap, and so did every older one. The rows it
//! keeps come out newest first, so reversing them gives ascending
//! sequence numbers — the RNG draw order — with no sort. A launch trims
//! the ring's front while the oldest row has been over for longer than
//! the retention. The ring is derived state: a checkpoint writes the
//! slab, and a restore rebuilds the ring from the slab's live flights.
//!
//! Pruning of the slab is lazy and batched: a stale flight
//! (`end + retention < now`) can never pass the time-overlap filter for
//! any frame still in the air (`subject.start >= now - retention`), so
//! instead of a per-event `retain` the slab is swept only when an insert
//! is about to grow it past a power-of-two slot count — a trigger that
//! is a pure function of checkpointed state, so a resumed run sweeps at
//! the same events as the uninterrupted one.

use std::collections::VecDeque;

use mlora_geo::{Point, Reach};
use mlora_mac::UplinkFrame;
use mlora_phy::{LogDistanceModel, Rssi, RssiModel, CAPTURE_MARGIN_DB};
use mlora_simcore::{NodeId, NormalDraw, SimDuration, SimRng, SimTime, Slab, SlabKey};

use crate::disruption::NoiseBurst;

/// Below this slot count the deferred sweep never runs: the slab is
/// allowed to grow to a small floor before any batched pruning, keeping
/// tiny scenarios on the pure insert path.
const SWEEP_MIN_SLOTS: usize = 64;

/// A frame in the air: the slab's row, and the snapshot wire shape.
#[derive(Debug, Clone)]
pub(super) struct Flight {
    /// Creation sequence number: slab slots are recycled, so canonical
    /// frame ordering (collision candidate lists, RNG draw order) sorts
    /// by this monotone counter, never by storage index.
    pub(super) seq: u64,
    pub(super) sender: NodeId,
    pub(super) frame: UplinkFrame,
    /// `Some(y)` for a handover aimed at device `y`.
    pub(super) target: Option<NodeId>,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    /// Sender position at transmission start (quasi-static over ≤0.4 s).
    pub(super) pos: Point,
}

/// One row of the flight ring: what the interferer scan reads of a
/// flight (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RingRow {
    start: SimTime,
    end: SimTime,
    seq: u64,
    pos: Point,
}

impl RingRow {
    fn of(flight: &Flight) -> RingRow {
        RingRow {
            start: flight.start,
            end: flight.end,
            seq: flight.seq,
            pos: flight.pos,
        }
    }
}

/// One audible frame at the receiver under resolution: how far its
/// sender is and the shadowing words drawn for it (`None` when
/// shadowing is disabled).
#[derive(Debug, Clone, Copy)]
pub(super) struct Heard {
    distance_m: f64,
    draw: Option<NormalDraw>,
}

/// The strength of a decoded frame, as resolution left it: already
/// evaluated when a comparison needed the exact value, otherwise still
/// the link, the words and the receiver's noise penalty.
/// [`Channel::rssi`] turns it into the value a reader evaluates.
#[derive(Debug, Clone, Copy)]
pub(super) enum Strength {
    Known(f64),
    Deferred(Heard, f64),
}

/// What one receiver heard of a subject frame.
#[derive(Debug, Clone, Copy)]
pub(super) struct Reception {
    /// `Some(strength)` when the subject frame decoded at this receiver
    /// (it won capture over every time-overlapping frame).
    pub(super) rssi: Option<Strength>,
    /// True when the subject frame was audible here but lost to
    /// same-channel interference — the collision-counter condition.
    pub(super) interfered: bool,
}

/// The shared radio channel (see the module docs).
#[derive(Debug)]
pub(super) struct Channel {
    /// The shadowing stream: every RSSI draw of the run, in receiver ×
    /// frame order.
    rng: SimRng,
    /// The frames currently (or recently) in the air, under the keys
    /// their transmission-end events carry.
    pub(super) flights: Slab<Flight>,
    /// The same flights' scan rows, in creation order (see the module
    /// docs).
    ring: VecDeque<RingRow>,
    /// Monotone frame creation counter (see [`Flight::seq`]).
    next_flight_seq: u64,
    /// How long an ended flight stays in the slab and the ring: at
    /// least the worst-case frame airtime under the configured PHY, so
    /// any frame still in the air finds every time-overlapping
    /// interferer in the collision scan.
    flight_retention: SimDuration,
    /// The longest airtime the configured PHY gives any frame: the
    /// ring walk's stop rule.
    max_airtime: SimDuration,
    /// Scratch: time-overlapping flights as `(seq, position)`.
    pub(super) scratch_overlaps: Vec<(u64, Point)>,
    /// Scratch: the subset of `scratch_overlaps` close enough to the
    /// sender to be audible at *some* device receiver.
    pub(super) scratch_near_overlaps: Vec<(u64, Point)>,
    /// Scratch: the frames audible at the receiver under resolution,
    /// in creation order.
    scratch_heard: Vec<Heard>,
    /// Indices of currently active noise bursts, in activation order.
    active_noise: Vec<u32>,
    /// The scenario's noise-burst table (indexed by `active_noise`).
    noise_bursts: Vec<NoiseBurst>,
    /// Path loss and shadowing at the configured transmit power.
    model: RssiModel,
    /// Decode sensitivity, dBm.
    sensitivity_dbm: f64,
    /// Receptions resolved and audible frames drawn for so far. Host
    /// telemetry, like the model's evaluation count: not checkpointed,
    /// a resumed engine counts from zero.
    receptions: u64,
    frames_heard: u64,
    /// Ring rows the interferer scans visited, and the time-overlapping
    /// frames they kept. Host telemetry, like `receptions`.
    flights_scanned: u64,
    overlaps: u64,
}

impl Channel {
    pub(super) fn new(
        rng: SimRng,
        flight_retention: SimDuration,
        max_airtime: SimDuration,
        noise_bursts: Vec<NoiseBurst>,
        path_loss: LogDistanceModel,
        sensitivity_dbm: f64,
        tx_power_dbm: f64,
    ) -> Self {
        Channel {
            rng,
            flights: Slab::new(),
            ring: VecDeque::new(),
            next_flight_seq: 0,
            flight_retention,
            max_airtime,
            scratch_overlaps: Vec::new(),
            scratch_near_overlaps: Vec::new(),
            scratch_heard: Vec::new(),
            active_noise: Vec::new(),
            noise_bursts,
            model: RssiModel::new(path_loss, tx_power_dbm),
            sensitivity_dbm,
            receptions: 0,
            frames_heard: 0,
            flights_scanned: 0,
            overlaps: 0,
        }
    }

    /// `(receptions, frames_heard, rssi_evaluated)`: receptions resolved,
    /// audible frames drawn for, and exact strengths evaluated — by a
    /// comparison the bounds left open or by a reader of the decoded
    /// value (see [`EngineStats`](super::EngineStats)).
    pub(super) fn reception_counts(&self) -> (u64, u64, u64) {
        (self.receptions, self.frames_heard, self.model.evaluations())
    }

    /// `(flights_scanned, overlaps)`: ring rows the interferer scans
    /// visited and time-overlapping frames they kept (see
    /// [`EngineStats`](super::EngineStats)).
    pub(super) fn scan_counts(&self) -> (u64, u64) {
        (self.flights_scanned, self.overlaps)
    }

    /// The legacy per-device generation-phase draw. The paper-default
    /// workload draws its phase from the channel stream — the historical
    /// behaviour, kept so seeded runs stay bit-identical.
    pub(super) fn legacy_phase_ms(&mut self, max_exclusive: u64) -> u64 {
        self.rng.gen_range_u64(0, max_exclusive)
    }

    /// Puts a frame on the air; returns its slab key for the
    /// transmission-end event. Launches come in creation order at
    /// non-decreasing `start`, which is what keeps the ring in
    /// launch-time order.
    ///
    /// When the insert is about to grow the slab past a power-of-two
    /// slot count, the deferred sweep runs first (see the module docs) —
    /// the only place expired flights leave the slab on the default path.
    pub(super) fn launch(
        &mut self,
        sender: NodeId,
        frame: UplinkFrame,
        target: Option<NodeId>,
        start: SimTime,
        end: SimTime,
        pos: Point,
    ) -> SlabKey {
        self.maybe_sweep(start);
        let retention = self.flight_retention;
        while self
            .ring
            .front()
            .is_some_and(|row| row.end + retention < start)
        {
            self.ring.pop_front();
        }
        let flight = Flight {
            seq: self.next_flight_seq,
            sender,
            frame,
            target,
            start,
            end,
            pos,
        };
        self.next_flight_seq += 1;
        self.ring.push_back(RingRow::of(&flight));
        self.flights.insert(flight)
    }

    /// Runs the deferred sweep when the next insert would grow the slab
    /// past a power-of-two slot count (≥ [`SWEEP_MIN_SLOTS`]). The
    /// trigger reads only slab layout and event time — both
    /// checkpointed — so a resumed run reproduces the exact sweep (and
    /// therefore slot-assignment) schedule of the uninterrupted one.
    fn maybe_sweep(&mut self, now: SimTime) {
        let slots = self.flights.slot_count();
        if self.flights.has_free_slot() || slots < SWEEP_MIN_SLOTS || !slots.is_power_of_two() {
            return;
        }
        self.sweep(now);
    }

    /// Reclaims every flight that can no longer overlap anything;
    /// vacated slab slots are recycled by later transmissions. Safe at
    /// any event time: a reclaimed flight (`end + retention < now`)
    /// fails the time-overlap filter against every frame still in the
    /// air, so deferring or batching sweeps never changes an interferer
    /// set.
    fn sweep(&mut self, now: SimTime) {
        debug_assert_eq!(self.check(now), Ok(()));
        let retention = self.flight_retention;
        self.flights
            .retain(|_, flight| flight.end + retention >= now);
    }

    /// Collects the frames overlapping `(start, end)` in time (including
    /// the subject itself) into `out`, in creation order: storage order
    /// must not leak into RNG draw order. Walks the ring from its newest
    /// row down to the stop rule (see the module docs).
    pub(super) fn overlaps_into(
        &mut self,
        start: SimTime,
        end: SimTime,
        out: &mut Vec<(u64, Point)>,
    ) {
        out.clear();
        let mut scanned = 0;
        for row in self.ring.iter().rev() {
            scanned += 1;
            if row.start + self.max_airtime <= start {
                break;
            }
            if row.start < end && row.end > start {
                out.push((row.seq, row.pos));
            }
        }
        out.reverse();
        self.flights_scanned += scanned;
        self.overlaps += out.len() as u64;
    }

    /// The near-overlap cut. Every device receiver sits within `range`
    /// of the sender at `center`, so an overlapping frame farther than
    /// `2 * range` from the sender is out of range of all of them
    /// (triangle inequality; +1 m float margin, per-receiver exact check
    /// unchanged). One filter pass here replaces a full-overlap distance
    /// scan per candidate; the subset keeps creation order, so draw
    /// order is untouched.
    pub(super) fn near_overlaps_into(
        overlaps: &[(u64, Point)],
        center: Point,
        range: f64,
        out: &mut Vec<(u64, Point)>,
    ) {
        let reach = 2.0 * range + 1.0;
        let reach_sq = reach * reach;
        out.clear();
        out.extend(
            overlaps
                .iter()
                .copied()
                .filter(|&(_, p)| p.distance_sq(center) <= reach_sq),
        );
    }

    /// A noise burst became active.
    pub(super) fn noise_start(&mut self, burst: u32) {
        self.active_noise.push(burst);
    }

    /// A noise burst ended.
    pub(super) fn noise_end(&mut self, burst: u32) {
        self.active_noise.retain(|&b| b != burst);
    }

    /// Total RSSI penalty (dB) from active noise bursts covering `pos`.
    /// Zero — and allocation- and draw-free — when no burst is active.
    fn noise_penalty_at(&self, pos: Point) -> f64 {
        if self.active_noise.is_empty() {
            return 0.0;
        }
        let mut penalty = 0.0;
        for &b in &self.active_noise {
            let burst = &self.noise_bursts[b as usize];
            if burst.center.distance(pos) <= burst.radius_m {
                penalty += burst.extra_loss_db;
            }
        }
        penalty
    }

    /// Resolves reception of the subject frame `flight_seq` at one
    /// receiver: two RNG words per audible frame (in creation order —
    /// identical for gateway and device receivers; none when shadowing
    /// is disabled), any regional noise at the receiver applied, then
    /// capture-model collision resolution over the audible set
    /// ([`Channel::resolve`]).
    ///
    /// `overlaps` holds the frames overlapping the subject in time as
    /// `(seq, position)`, ascending by sequence — the draw order; the
    /// ones within `reach` of the receiver `at` are the audible set. A
    /// frame is rejected on its squared distance, and only an audible
    /// one pays for the square root its RSSI needs.
    pub(super) fn receive(
        &mut self,
        overlaps: &[(u64, Point)],
        at: Point,
        reach: Reach,
        flight_seq: u64,
    ) -> Reception {
        let noise_db = self.noise_penalty_at(at);
        self.scratch_heard.clear();
        let mut subject = None;
        // A plain loop against `self`'s fields, on purpose: a chained
        // iterator or a closure copies the model into locals, which
        // costs the rejection test below its register for the bound —
        // +2.6 % on `metro_20k` (docs/lab-notebook.md, "One reception path").
        for &(seq, pos) in overlaps {
            // `distance > range`, decided without the square root.
            let distance_sq = at.distance_sq(pos);
            if distance_sq > reach.sq_bound() {
                continue;
            }
            let distance_m = distance_sq.sqrt();
            if seq == flight_seq {
                subject = Some(self.scratch_heard.len());
            }
            self.add_audible(distance_m);
        }
        self.receptions += 1;
        self.frames_heard += self.scratch_heard.len() as u64;
        match subject {
            Some(subject) => self.resolve(subject, noise_db),
            // The subject itself is out of range here.
            None => Reception {
                rssi: None,
                interfered: false,
            },
        }
    }

    /// Adds a frame `distance_m` away to the audible set, with its
    /// shadowing words fresh off the stream.
    #[inline]
    fn add_audible(&mut self, distance_m: f64) {
        let draw = self.model.path_loss().shadow_draw(&mut self.rng);
        self.scratch_heard.push(Heard { distance_m, draw });
    }

    /// Capture-model resolution of audible frame `subject` over the
    /// collected set: it decodes iff it is at or above sensitivity and
    /// at least [`CAPTURE_MARGIN_DB`] above every other audible frame —
    /// the condition under which [`mlora_phy::resolve_collision`] over
    /// the exact strengths returns it (a frame that is not the strict
    /// maximum has some difference ≤ 0, below any positive margin).
    ///
    /// Each comparison is made on table bounds first. One they leave
    /// open evaluates both sides exactly and repeats the historical
    /// float comparison; the subject, once evaluated, stays exact.
    fn resolve(&self, subject: usize, noise_db: f64) -> Reception {
        let model = &self.model;
        let heard = &self.scratch_heard;
        let lost = Reception {
            rssi: None,
            interfered: heard.len() > 1,
        };
        // Copied out, and its fields passed one by one, on purpose: with
        // the entry borrowed (or the calls below wrapped in closures over
        // `&Heard`) LLVM reloads the entry the push just stored with
        // 16-byte loads, which the 8-byte stores cannot forward to —
        // 11 ns on a lone reception that otherwise takes 19.
        let s = heard[subject];
        let (mut s_lo, mut s_hi) = model.bounds_dbm(s.distance_m, s.draw, noise_db);
        let mut known = None;
        if s_hi < self.sensitivity_dbm {
            return lost;
        }
        if s_lo < self.sensitivity_dbm {
            let rssi = model.rssi_dbm(s.distance_m, s.draw, noise_db);
            if rssi < self.sensitivity_dbm {
                return lost;
            }
            (s_lo, s_hi, known) = (rssi, rssi, Some(rssi));
        }
        for (i, o) in heard.iter().enumerate() {
            if i == subject {
                continue;
            }
            let (o_lo, o_hi) = model.bounds_dbm(o.distance_m, o.draw, noise_db);
            if s_lo - o_hi >= CAPTURE_MARGIN_DB {
                continue;
            }
            if s_hi - o_lo < CAPTURE_MARGIN_DB {
                return lost;
            }
            let rssi = *known.get_or_insert_with(|| model.rssi_dbm(s.distance_m, s.draw, noise_db));
            (s_lo, s_hi) = (rssi, rssi);
            let captured =
                rssi - model.rssi_dbm(o.distance_m, o.draw, noise_db) >= CAPTURE_MARGIN_DB;
            if !captured {
                return lost;
            }
        }
        Reception {
            rssi: Some(known.map_or(Strength::Deferred(s, noise_db), Strength::Known)),
            interfered: false,
        }
    }

    /// The value of a decoded frame's strength, evaluated when read.
    pub(super) fn rssi(&self, strength: Strength) -> Rssi<'_> {
        match strength {
            Strength::Known(dbm) => Rssi::from(dbm),
            Strength::Deferred(heard, noise_db) => {
                self.model.deferred(heard.distance_m, heard.draw, noise_db)
            }
        }
    }

    /// The channel's checkpoint state: the shadowing-stream RNG words,
    /// the monotone flight counter and the active-noise stack (in
    /// activation order). The flight slab is read from
    /// [`Channel::flights`] directly.
    pub(super) fn checkpoint_parts(&self) -> (&SimRng, u64, &[u32]) {
        (&self.rng, self.next_flight_seq, &self.active_noise)
    }

    /// Restores the state captured by [`Channel::checkpoint_parts`] plus
    /// the flight slab, and rebuilds the ring from the live flights in
    /// `seq` order. The static tables (noise bursts, path loss,
    /// retention) are reconstructed from the scenario config and stay
    /// untouched. Whether the flights could have come from a run is
    /// [`Channel::check`]'s to say.
    pub(super) fn restore(
        &mut self,
        rng: SimRng,
        flights: Slab<Flight>,
        next_flight_seq: u64,
        active_noise: Vec<u32>,
    ) {
        self.ring.clear();
        self.ring
            .extend(flights.iter().map(|(_, flight)| RingRow::of(flight)));
        self.ring
            .make_contiguous()
            .sort_unstable_by_key(|row| row.seq);
        self.rng = rng;
        self.flights = flights;
        self.next_flight_seq = next_flight_seq;
        self.active_noise = active_noise;
    }

    /// The premises of the channel's state at `now`, which a resume
    /// relies on and every sweep re-checks in debug builds: the active
    /// noise bursts are in the table; every ring row ends after it
    /// starts, within the longest airtime, and started by `now`; the
    /// ring runs in launch order (strictly ascending `seq`,
    /// non-decreasing `start`), below the flight counter; and every
    /// live flight that can still overlap a frame in the air has its
    /// own row. A ring that breaks them would stop its walk too early
    /// or never trim its front. Allocation-free, like the sweep.
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
    pub(super) fn check(&self, now: SimTime) -> Result<(), &'static str> {
        let bursts = self.noise_bursts.len();
        if self.active_noise.iter().any(|&b| b as usize >= bursts) {
            return Err("active noise burst past the table");
        }
        for row in &self.ring {
            if row.end < row.start {
                return Err("flight ends before it starts");
            }
            if row.end - row.start > self.max_airtime {
                return Err("flight outlasts the longest airtime");
            }
            if row.start > now {
                return Err("flight starts after now");
            }
        }
        for (a, b) in self.ring.iter().zip(self.ring.iter().skip(1)) {
            if a.seq >= b.seq || a.start > b.start {
                return Err("flight ring out of launch order");
            }
        }
        let issued = self.next_flight_seq;
        if self.ring.back().is_some_and(|row| row.seq >= issued) {
            return Err("flight sequence number was never issued");
        }
        for (_, flight) in self.flights.iter() {
            if now.saturating_since(flight.end) <= self.flight_retention {
                let at = self.ring.binary_search_by_key(&flight.seq, |row| row.seq);
                let row = at.ok().and_then(|i| self.ring.get(i));
                if row != Some(&RingRow::of(flight)) {
                    return Err("live flight missing from the flight ring");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::{
        ArrivalProcess, BusWithdrawal, DisruptionPlan, GatewayOutage, PayloadModel, Scenario,
        TrafficModel, TrafficProfile,
    };
    use mlora_phy::{resolve_collision, SpreadingFactor};
    use proptest::prelude::*;

    const TX_DBM: f64 = 14.0;
    const SENSITIVITY_DBM: f64 = -123.0;
    const RANGE_M: f64 = 500.0;
    const ORIGIN: Point = Point::new(0.0, 0.0);
    const NOISE_DB: f64 = 7.5;
    /// Gateways deployed by the smoke preset's 3×3 grid. An `outage_gw`
    /// draw of exactly this many means "no outage".
    const SMOKE_GATEWAYS: usize = 9;

    /// A channel whose burst 0 covers the receiver at the origin when
    /// active; burst 1, always active, never reaches it.
    fn channel(path_loss: LogDistanceModel, sensitivity_dbm: f64, seed: u64) -> Channel {
        let burst = |x: f64, extra_loss_db: f64| NoiseBurst {
            center: Point::new(x, 0.0),
            radius_m: 150.0,
            start: SimTime::ZERO,
            duration: None,
            extra_loss_db,
        };
        let mut channel = Channel::new(
            SimRng::new(seed).fork(12),
            SimDuration::from_secs(2),
            SimDuration::from_secs(2),
            vec![burst(40.0, NOISE_DB), burst(5_000.0, 30.0)],
            path_loss,
            sensitivity_dbm,
            TX_DBM,
        );
        channel.noise_start(1);
        channel
    }

    /// What the differential tests compare: the decoded strength's bits
    /// (evaluated, as a reader would) and the collision flag.
    fn outcome(channel: &Channel, r: Reception) -> (Option<u64>, bool) {
        (
            r.rssi.map(|s| channel.rssi(s).dbm().to_bits()),
            r.interfered,
        )
    }

    /// The fused reference: one `sample_rssi_dbm_attenuated` per audible
    /// frame in creation order, then `resolve_collision` over the lot.
    fn reference(
        path_loss: &LogDistanceModel,
        sensitivity_dbm: f64,
        audible: &[(u64, f64)],
        noise_db: f64,
        subject: u64,
        rng: &mut SimRng,
        fused: &mut Vec<(u64, f64)>,
    ) -> (Option<u64>, bool) {
        fused.clear();
        for &(seq, distance_m) in audible {
            let rssi = path_loss.sample_rssi_dbm_attenuated(TX_DBM, distance_m, noise_db, rng);
            fused.push((seq, rssi));
        }
        let subject_rssi = fused.iter().find(|&&(seq, _)| seq == subject);
        let decoded = resolve_collision(fused, sensitivity_dbm, CAPTURE_MARGIN_DB) == Some(subject);
        match subject_rssi {
            Some(&(_, rssi)) if decoded => (Some(rssi.to_bits()), false),
            Some(_) => (None, fused.len() > 1),
            None => (None, false),
        }
    }

    /// Overlapping frames out of the receiver's range show neither in
    /// the outcome nor in the RNG stream nor in the frames-heard count.
    #[test]
    fn out_of_range_frames_leave_no_trace() {
        // Eight overlapping frames in creation order, two of them out of
        // the receiver's range.
        let frames = [
            (3, Point::new(100.0, 0.0)),
            (5, Point::new(900.0, 0.0)),
            (8, Point::new(0.0, 200.0)),
            (9, Point::new(50.0, 50.0)),
            (12, Point::new(-300.0, 100.0)),
            (13, Point::new(0.0, -800.0)),
            (17, Point::new(450.0, 0.0)),
            (20, Point::new(-200.0, -300.0)),
        ];
        let audible: Vec<(u64, f64)> = frames
            .iter()
            .map(|&(seq, pos)| (seq, ORIGIN.distance(pos)))
            .filter(|&(_, distance_m)| distance_m <= RANGE_M)
            .collect();
        assert_eq!(audible.len(), 6);
        let model = LogDistanceModel::paper_default();

        // Two subjects from the middle of the list, the nearest frame
        // and a distant one, with and without noise over the receiver,
        // and one that is out of range itself.
        for (subject, noisy) in [(9, true), (12, true), (9, false), (12, false), (13, true)] {
            let noise_db = if noisy { NOISE_DB } else { 0.0 };
            let mut rng = SimRng::new(2020).fork(12);
            let expected = reference(
                &model,
                SENSITIVITY_DBM,
                &audible,
                noise_db,
                subject,
                &mut rng,
                &mut Vec::new(),
            );
            if subject == 13 {
                assert_eq!(expected, (None, false));
            }

            let mut channel = channel(model, SENSITIVITY_DBM, 2020);
            if noisy {
                channel.noise_start(0);
            }
            assert_eq!(channel.noise_penalty_at(ORIGIN), noise_db);
            let got = channel.receive(&frames, ORIGIN, Reach::new(RANGE_M), subject);
            assert_eq!(
                outcome(&channel, got),
                expected,
                "subject {subject}, noisy {noisy}"
            );
            assert_eq!(channel.rng.state(), rng.state());
            let (receptions, frames_heard, evaluated) = channel.reception_counts();
            assert_eq!((receptions, frames_heard), (1, audible.len() as u64));
            assert!(evaluated <= frames_heard);
        }
    }

    /// The identity the reception path rests on, at volume: a million
    /// random receptions — 1–12 frames, some out of range, noise on and
    /// off, shadowing on and off, every spreading factor's sensitivity —
    /// decide exactly what the fused reference decides, report the same
    /// strength bit for bit and leave the RNG stream where the reference
    /// leaves it.
    #[test]
    fn receive_matches_the_fused_reference() {
        const RECEPTIONS_PER_CHANNEL: usize = 84_000;
        let mut pick = SimRng::new(0x5eed);
        let mut frames: Vec<(u64, Point)> = Vec::new();
        let mut audible: Vec<(u64, f64)> = Vec::new();
        let mut fused: Vec<(u64, f64)> = Vec::new();
        let (mut total, mut decoded, mut collided, mut out_of_range) = (0u64, 0u64, 0u64, 0u64);
        let (mut heard, mut evaluated) = (0u64, 0u64);
        for path_loss in [
            LogDistanceModel::paper_default(),
            LogDistanceModel::deterministic(),
        ] {
            for sf in [
                SpreadingFactor::Sf7,
                SpreadingFactor::Sf8,
                SpreadingFactor::Sf9,
                SpreadingFactor::Sf10,
                SpreadingFactor::Sf11,
                SpreadingFactor::Sf12,
            ] {
                let sensitivity_dbm = sf.sensitivity_dbm();
                // SF7 hears 500 m comfortably; scale the geometry with
                // the link budget so every sensitivity sees close calls.
                let range = 0.4 * path_loss.range_for_sensitivity_m(TX_DBM, sensitivity_dbm);
                let reach = Reach::new(range);
                let seed = pick.gen_u64();
                let mut channel = channel(path_loss, sensitivity_dbm, seed);
                let mut rng = SimRng::new(seed).fork(12);
                let mut noisy = false;
                for _ in 0..RECEPTIONS_PER_CHANNEL {
                    if pick.gen_bool(0.05) {
                        noisy = !noisy;
                        if noisy {
                            channel.noise_start(0);
                        } else {
                            channel.noise_end(0);
                        }
                    }
                    let noise_db = if noisy { NOISE_DB } else { 0.0 };
                    // The receiver stays inside burst 0's disc; frames
                    // land on a disc a little wider than the range.
                    let at = Point::new(pick.gen_range_f64(-60.0, 60.0), 0.0);
                    let n = pick.gen_range_u64(1, 13) as usize;
                    frames.clear();
                    audible.clear();
                    for i in 0..n {
                        let r = range * 1.15 * pick.gen_range_f64(0.0, 1.0).sqrt();
                        let phi = pick.gen_range_f64(0.0, std::f64::consts::TAU);
                        // One frame in twenty a rounding away from the edge.
                        let pos = if pick.gen_bool(0.05) {
                            Point::new(at.x + range, 0.0)
                        } else {
                            Point::new(at.x + r * phi.cos(), at.y + r * phi.sin())
                        };
                        let seq = 7 + 3 * i as u64;
                        frames.push((seq, pos));
                        if at.distance(pos) <= range {
                            audible.push((seq, at.distance(pos)));
                        }
                    }
                    let subject = frames[pick.gen_range_u64(0, n as u64) as usize].0;
                    let expected = reference(
                        &path_loss,
                        sensitivity_dbm,
                        &audible,
                        noise_db,
                        subject,
                        &mut rng,
                        &mut fused,
                    );
                    let got = channel.receive(&frames, at, reach, subject);
                    assert_eq!(
                        outcome(&channel, got),
                        expected,
                        "{sf:?}, sigma {}, frames {frames:?}, subject {subject}",
                        path_loss.shadowing_sigma_db
                    );
                    assert_eq!(channel.rng.state(), rng.state());
                    total += 1;
                    decoded += expected.0.is_some() as u64;
                    collided += expected.1 as u64;
                    out_of_range += audible.iter().all(|&(seq, _)| seq != subject) as u64;
                }
                let (receptions, frames_heard, rssi_evaluated) = channel.reception_counts();
                assert_eq!(receptions, RECEPTIONS_PER_CHANNEL as u64);
                assert!(rssi_evaluated <= frames_heard);
                heard += frames_heard;
                evaluated += rssi_evaluated;
            }
        }
        // The mix is worth the name: a million receptions, every outcome
        // well represented — and even with each decoded strength read,
        // most frames heard were never evaluated.
        assert!(total >= 1_000_000);
        for (what, count) in [
            ("decoded", decoded),
            ("collided", collided),
            ("out of range", out_of_range),
        ] {
            assert!(count > total / 20, "only {count} receptions {what}");
        }
        assert!(2 * evaluated < heard, "{evaluated} of {heard} evaluated");
    }

    /// The smallest distance in `[lo, hi]` at which `f`, non-decreasing
    /// in the distance, reaches `target`: bisection over the floats'
    /// bit patterns, which order as the floats do.
    fn distance_reaching(f: impl Fn(f64) -> f64, target: f64, lo: f64, hi: f64) -> f64 {
        assert!(f(lo) < target && f(hi) >= target);
        let (mut below, mut reached) = (lo.to_bits(), hi.to_bits());
        while reached - below > 1 {
            let mid = below + (reached - below) / 2;
            if f(f64::from_bits(mid)) >= target {
                reached = mid;
            } else {
                below = mid;
            }
        }
        f64::from_bits(reached)
    }

    /// A sender exactly `distance_m` from the receiver at the origin:
    /// `sqrt(x * x)` is `|x|` in binary floating point.
    fn at_distance(distance_m: f64) -> Point {
        let pos = Point::new(distance_m, 0.0);
        assert_eq!(ORIGIN.distance(pos), distance_m);
        pos
    }

    /// Receptions only the exact fallback can get right: the subject
    /// within an ulp, 10⁻¹⁰ dB and 10⁻⁶ dB of the sensitivity, and of the
    /// capture margin over one interferer — and exactly on both.
    #[test]
    fn thresholds_are_decided_exactly() {
        let offsets = |x: f64| {
            [
                x,
                x.next_up(),
                x.next_down(),
                x + 1e-10,
                x - 1e-10,
                x + 1e-6,
                x - 1e-6,
            ]
        };
        let mut fused = Vec::new();
        let (mut cases, mut on_the_margin) = (0, 0);
        for path_loss in [
            LogDistanceModel::deterministic(),
            LogDistanceModel::paper_default(),
        ] {
            for (seed, subject_m, noisy) in [
                (1, 83.0, false),
                (2, 310.5, true),
                (3, 1_250.0, false),
                (4, 77.7, true),
                (5, 4_000.0, true),
            ] {
                let noise_db = if noisy { NOISE_DB } else { 0.0 };
                let noisy_channel = |sensitivity_dbm: f64| {
                    let mut channel = channel(path_loss, sensitivity_dbm, seed);
                    if noisy {
                        channel.noise_start(0);
                    }
                    channel
                };
                let model = RssiModel::new(path_loss, TX_DBM);
                let stream = || SimRng::new(seed).fork(12);

                // Alone, against a sensitivity placed around its own
                // exact strength.
                let exact = path_loss.sample_rssi_dbm_attenuated(
                    TX_DBM,
                    subject_m,
                    noise_db,
                    &mut stream(),
                );
                for sensitivity_dbm in offsets(exact) {
                    let mut channel = noisy_channel(sensitivity_dbm);
                    let got =
                        channel.receive(&[(0, at_distance(subject_m))], ORIGIN, Reach::new(1e4), 0);
                    let decodes = exact >= sensitivity_dbm;
                    assert_eq!(
                        outcome(&channel, got),
                        (decodes.then(|| exact.to_bits()), false),
                        "sensitivity {sensitivity_dbm:e} against {exact:e}"
                    );
                    assert_eq!(channel.reception_counts().2, 1, "bounds cannot decide this");
                    cases += 1;
                }

                // Against one interferer, created before or after the
                // subject (which fixes whose words are drawn first),
                // placed so the exact difference lands around the margin.
                for subject_first in [true, false] {
                    let mut rng = stream();
                    let mut draws = [
                        path_loss.shadow_draw(&mut rng),
                        path_loss.shadow_draw(&mut rng),
                    ];
                    if !subject_first {
                        draws.swap(0, 1);
                    }
                    let [subject_draw, other_draw] = draws;
                    let subject_dbm = model.rssi_dbm(subject_m, subject_draw, noise_db);
                    let difference =
                        |other_m: f64| subject_dbm - model.rssi_dbm(other_m, other_draw, noise_db);
                    for target in offsets(CAPTURE_MARGIN_DB) {
                        let other_m = distance_reaching(difference, target, 1.0, 1e7);
                        assert!(
                            difference(other_m) - target < 1e-12,
                            "{}",
                            difference(other_m)
                        );
                        on_the_margin += (difference(other_m) == CAPTURE_MARGIN_DB) as u32;
                        // The distance found and its neighbour just short
                        // of the target.
                        for other_m in [other_m, other_m.next_down()] {
                            let audible = if subject_first {
                                [(0, subject_m), (1, other_m)]
                            } else {
                                [(1, other_m), (0, subject_m)]
                            };
                            let frames = audible.map(|(seq, m)| (seq, at_distance(m)));
                            let expected = reference(
                                &path_loss,
                                -200.0,
                                &audible,
                                noise_db,
                                0,
                                &mut stream(),
                                &mut fused,
                            );
                            let captured = difference(other_m) >= CAPTURE_MARGIN_DB;
                            assert_eq!(
                                expected,
                                (captured.then(|| subject_dbm.to_bits()), !captured)
                            );
                            let mut channel = noisy_channel(-200.0);
                            let got = channel.receive(&frames, ORIGIN, Reach::new(1e7), 0);
                            assert_eq!(
                                outcome(&channel, got),
                                expected,
                                "difference {:e} against the margin",
                                difference(other_m)
                            );
                            assert_eq!(channel.rng.state(), rng.state());
                            assert_eq!(
                                channel.reception_counts().2,
                                2,
                                "bounds cannot decide this"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 5 * (7 + 2 * 7 * 2));
        assert!(
            on_the_margin >= 10,
            "only {on_the_margin} differences of exactly the margin"
        );
    }

    /// A channel for the ring tests: no frame outlasts `max_airtime`,
    /// and ended flights are kept for `retention`.
    fn ring_channel(seed: u64, retention: SimDuration, max_airtime: SimDuration) -> Channel {
        Channel::new(
            SimRng::new(seed).fork(12),
            retention,
            max_airtime,
            Vec::new(),
            LogDistanceModel::paper_default(),
            SENSITIVITY_DBM,
            TX_DBM,
        )
    }

    /// Puts a frame from `sender` at `pos` on the air for `airtime`.
    fn launch_at(
        channel: &mut Channel,
        sender: u32,
        now: SimTime,
        airtime: SimDuration,
        pos: Point,
    ) -> SlabKey {
        let sender = NodeId::new(sender);
        let frame = UplinkFrame {
            sender,
            messages: Vec::new(),
            rca_etx: 1.0,
            queue_len: 0,
        };
        channel.launch(sender, frame, None, now, now + airtime, pos)
    }

    /// A channel restored from `channel`'s checkpoint parts, its slab's
    /// live flights passed through `edit` first.
    fn restored(channel: &Channel, edit: impl FnMut(&mut Flight)) -> Channel {
        let (rng, next_flight_seq, active_noise) = channel.checkpoint_parts();
        let mut slots: Vec<(u32, Option<Flight>)> = channel
            .flights
            .raw_slots()
            .map(|(generation, flight)| (generation, flight.cloned()))
            .collect();
        slots
            .iter_mut()
            .filter_map(|(_, f)| f.as_mut())
            .for_each(edit);
        let free = channel.flights.free_list().to_vec();
        let flights = Slab::from_raw_parts(slots, free).expect("the slab's own free list");
        let mut copy = ring_channel(7, channel.flight_retention, channel.max_airtime);
        copy.restore(rng.clone(), flights, next_flight_seq, active_noise.to_vec());
        copy
    }

    /// What the ring replaced: every live slab flight overlapping
    /// `(start, end)` in time, sorted by `seq`.
    fn brute_force_overlaps(channel: &Channel, start: SimTime, end: SimTime) -> Vec<(u64, Point)> {
        let mut out: Vec<(u64, Point)> = channel
            .flights
            .iter()
            .filter(|(_, f)| f.start < end && f.end > start)
            .map(|(_, f)| (f.seq, f.pos))
            .collect();
        out.sort_unstable_by_key(|&(seq, _)| seq);
        out
    }

    proptest! {
        /// The flight ring against brute force, over arbitrary launch
        /// sequences: airtimes from 1 ms to the maximum, up to three
        /// launches at one instant, forced sweeps, and a checkpoint →
        /// restore round trip midway. At every transmission end the ring
        /// walk returns exactly the live slab flights that overlap the
        /// subject, in `seq` order.
        #[test]
        fn ring_scan_matches_brute_force(
            seed in 0u64..1 << 48,
            max_airtime_ms in 1u64..6_000,
            extra_retention_ms in 0u64..3_000,
            steps in 1usize..300,
            restore_at in 0usize..300,
        ) {
            let max_airtime = SimDuration::from_millis(max_airtime_ms);
            let retention = max_airtime + SimDuration::from_millis(extra_retention_ms);
            let mut channel = ring_channel(seed, retention, max_airtime);
            let mut pick = SimRng::new(seed);
            let mut now = SimTime::ZERO;
            // Transmission ends to come, as `(end, key)`.
            let mut pending: Vec<(SimTime, SlabKey)> = Vec::new();
            let mut overlaps = Vec::new();
            for step in 0..steps {
                for _ in 0..pick.gen_range_u64(0, 4) {
                    let airtime = SimDuration::from_millis(pick.gen_range_u64(1, max_airtime_ms + 1));
                    let sender = pick.gen_range_u64(0, 50) as u32;
                    let pos = Point::new(pick.gen_range_f64(0.0, 5e3), pick.gen_range_f64(0.0, 5e3));
                    let key = launch_at(&mut channel, sender, now, airtime, pos);
                    pending.push((now + airtime, key));
                }
                if pick.gen_bool(0.1) {
                    channel.sweep(now);
                }
                if step == restore_at {
                    channel = restored(&channel, |_| {});
                    prop_assert_eq!(channel.check(now), Ok(()), "a run's own flights");
                }
                now += SimDuration::from_millis(pick.gen_range_u64(0, 2 * max_airtime_ms + 1));
                pending.sort_unstable_by_key(|&(end, _)| std::cmp::Reverse(end));
                while let Some(&(end, key)) = pending.last().filter(|&&(end, _)| end <= now) {
                    pending.pop();
                    let subject = &channel.flights[key];
                    let (seq, start) = (subject.seq, subject.start);
                    let expected = brute_force_overlaps(&channel, start, end);
                    channel.overlaps_into(start, end, &mut overlaps);
                    prop_assert_eq!(&overlaps, &expected);
                    prop_assert!(overlaps.iter().any(|&(s, _)| s == seq));
                }
            }
            let (scanned, kept) = channel.scan_counts();
            prop_assert!(kept <= scanned);
        }

        /// Lazy-vs-eager flight pruning bit-equality: the deferred
        /// growth-boundary sweep the channel runs on its own, and an
        /// eager sweep after every slice of a run stepped in slices of at
        /// most one simulated second, report identically field for field
        /// — counters, float accumulators, per-profile rows and time
        /// series — over arbitrary traffic mixes and disruption plans.
        /// The lazy sweep is safe because a stale flight
        /// (`end + retention < now`) can never pass the time-overlap
        /// filter of any frame still in the air; a divergence here means
        /// a stale flight leaked into an interferer set, or slab slot
        /// reuse bled into an RNG draw order.
        #[test]
        fn lazy_and_eager_pruning_report_identically(
            seed in 0u64..1_000_000,
            interval_s in 30u64..600,
            jitter in 0.0f64..0.45,
            payload in 12usize..64,
            duration_min in 15u64..30,
            outage_gw in 0usize..SMOKE_GATEWAYS + 1,
            outage_start in 0u64..1_200,
            outage_dur in 0u64..1_000,
            withdraw_at in 0u64..1_200,
            withdraw_frac in 0.0f64..0.6,
            burst_start in 0u64..1_200,
            burst_dur in 0u64..900,
        ) {
            let interval = SimDuration::from_secs(interval_s);
            // Sub-threshold draws decode to "feature absent", so the mix
            // covers plain periodic traffic and disruption-free runs too.
            let arrivals = if jitter < 0.05 {
                ArrivalProcess::Periodic { interval }
            } else {
                ArrivalProcess::Jittered { interval, jitter }
            };
            let traffic = TrafficModel::mix([TrafficProfile::new(
                "prune-prop",
                arrivals,
                PayloadModel::Fixed { bytes: payload },
            )]);
            let plan = DisruptionPlan {
                outages: (outage_gw < SMOKE_GATEWAYS)
                    .then(|| GatewayOutage {
                        gateway: outage_gw,
                        start: SimTime::from_secs(outage_start),
                        duration: (outage_dur > 0).then(|| SimDuration::from_secs(outage_dur)),
                    })
                    .into_iter()
                    .collect(),
                withdrawals: (withdraw_frac >= 0.05)
                    .then(|| BusWithdrawal {
                        at: SimTime::from_secs(withdraw_at),
                        fraction: withdraw_frac,
                    })
                    .into_iter()
                    .collect(),
                noise_bursts: (burst_dur > 0)
                    .then(|| NoiseBurst {
                        center: Point::new(5_000.0, 5_000.0),
                        radius_m: 4_000.0,
                        start: SimTime::from_secs(burst_start),
                        duration: Some(SimDuration::from_secs(burst_dur)),
                        extra_loss_db: 10.0,
                    })
                    .into_iter()
                    .collect(),
            };
            let config = Scenario::urban()
                .smoke()
                .duration(SimDuration::from_mins(duration_min))
                .traffic(traffic)
                .disruptions(plan)
                .build()
                .expect("generated scenario is valid");

            let lazy = Engine::new(config.clone(), seed).run();
            let mut engine = Engine::new(config, seed);
            let slice = SimDuration::from_millis(100 + seed % 901);
            let horizon = SimTime::ZERO + SimDuration::from_mins(duration_min);
            let mut t = SimTime::ZERO;
            while t < horizon {
                t += slice;
                engine.run_until(t);
                engine.channel.sweep(engine.now);
            }
            let eager = engine.finish();

            prop_assert_eq!(lazy, eager, "lazy and eager pruning diverged");
        }
    }

    /// Resume refuses flights a run could not have left behind, each
    /// premise of [`Channel::check`] on its own.
    #[test]
    fn restore_refuses_flights_that_break_the_ring_premise() {
        let airtime = SimDuration::from_millis(400);
        let mut channel = ring_channel(3, SimDuration::from_secs(2), airtime);
        let t = |ms| SimTime::from_millis(ms);
        for (sender, at) in [(0, 1_000), (1, 1_000), (2, 1_200)] {
            launch_at(&mut channel, sender, t(at), airtime, ORIGIN);
        }
        let now = t(1_300);
        assert_eq!(restored(&channel, |_| {}).check(now), Ok(()));
        let refused = |edit: fn(&mut Flight)| restored(&channel, edit).check(now).err();
        assert_eq!(
            refused(|f| f.end = f.start - SimDuration::from_millis(1)),
            Some("flight ends before it starts")
        );
        assert_eq!(
            refused(|f| f.end = f.start + SimDuration::from_millis(401)),
            Some("flight outlasts the longest airtime")
        );
        assert_eq!(
            refused(|f| {
                f.start = SimTime::from_millis(1_301);
                f.end = f.start;
            }),
            Some("flight starts after now")
        );
        // Two flights under one sequence number, and starts that
        // decrease along the sequence.
        let edits: [fn(&mut Flight); 2] = [|f| f.seq = 0, |f| f.seq = 2 - f.seq];
        for edit in edits {
            assert_eq!(refused(edit), Some("flight ring out of launch order"));
        }
        assert_eq!(
            refused(|f| f.seq += 1),
            Some("flight sequence number was never issued")
        );
        let mut short = restored(&channel, |_| {});
        short.ring.pop_front();
        assert_eq!(
            short.check(now),
            Err("live flight missing from the flight ring")
        );
        let mut noisy = restored(&channel, |_| {});
        noisy.active_noise.push(0);
        assert_eq!(noisy.check(now), Err("active noise burst past the table"));
    }
}
