//! The shared radio channel: frames in flight, RSSI sampling, regional
//! noise and capture-model collision resolution.
//!
//! [`Channel`] owns the one RNG stream every shadowing draw comes from
//! (fork 12 of the master seed — the stream the historical engine used,
//! so an identically seeded run reproduces the golden fixtures bit for
//! bit), the generational flight slab with its monotone creation
//! sequence, and the per-receiver scratch of audible frames. Reception
//! at any receiver — gateway or neighbouring device — goes through one
//! method, [`Channel::receive`], so the capture rule, the noise model
//! and the RNG draw order have nowhere to drift apart.
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
//! Flight state is split hot/cold: the fields the interferer scan reads
//! per overlapping flight (`seq`, `start`, `end`, `pos`, `sender`) live
//! in contiguous [`FlightColumns`] keyed by slab slot, while the frame
//! payload and handover target stay in the slab ([`FlightCold`]). The
//! time-overlap scan therefore runs over dense column slices instead of
//! chasing slab entries; snapshots gather/scatter full rows so the
//! `.mlss` wire format is unchanged.
//!
//! Pruning of expired flights is lazy and batched: a stale flight
//! (`end + retention < now`) can never pass the time-overlap filter for
//! any frame still in the air (`subject.start >= now - retention`), so
//! instead of a per-event `retain` the slab is swept only when an insert
//! is about to grow it past a power-of-two slot count — a trigger that
//! is a pure function of checkpointed state, so a resumed run sweeps at
//! the same events as the uninterrupted one.

use mlora_geo::Point;
use mlora_mac::UplinkFrame;
use mlora_phy::{LogDistanceModel, Rssi, RssiModel, CAPTURE_MARGIN_DB};
use mlora_simcore::{NodeId, NormalDraw, SimDuration, SimRng, SimTime, Slab, SlabKey};

use crate::disruption::NoiseBurst;

/// Below this slot count the deferred sweep never runs: the slab is
/// allowed to grow to a small floor before any batched pruning, keeping
/// tiny scenarios on the pure insert path.
const SWEEP_MIN_SLOTS: usize = 64;

/// A frame in the air, gathered as one row. This is the snapshot wire
/// shape — field for field the historical array-of-structs layout — and
/// the unit [`Channel::restore`] scatters back into the split
/// columns/slab storage.
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

/// The slab-resident cold part of a flight: everything the interferer
/// scan never touches.
#[derive(Debug, Clone)]
pub(super) struct FlightCold {
    pub(super) frame: UplinkFrame,
    /// `Some(y)` for a handover aimed at device `y`.
    pub(super) target: Option<NodeId>,
}

/// The hot fields of one flight, gathered from [`FlightColumns`].
#[derive(Debug, Clone, Copy)]
pub(super) struct FlightHot {
    pub(super) seq: u64,
    pub(super) sender: NodeId,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    pub(super) pos: Point,
}

/// A borrowed full view of one flight: the hot row copied out of the
/// columns plus the cold slab entry. What the transmission-end
/// resolution paths pass around instead of the old `&Flight`.
#[derive(Debug, Clone, Copy)]
pub(super) struct FlightRef<'a> {
    pub(super) seq: u64,
    pub(super) sender: NodeId,
    pub(super) frame: &'a UplinkFrame,
    pub(super) target: Option<NodeId>,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    pub(super) pos: Point,
}

/// Struct-of-arrays storage for the per-flight hot fields, indexed by
/// slab slot. `live[i]` distinguishes occupied slots; a vacated slot's
/// other columns keep their last value and are never read.
#[derive(Debug, Default)]
pub(super) struct FlightColumns {
    live: Vec<bool>,
    seq: Vec<u64>,
    sender: Vec<NodeId>,
    start: Vec<SimTime>,
    end: Vec<SimTime>,
    pos: Vec<Point>,
}

impl FlightColumns {
    fn clear(&mut self) {
        self.live.clear();
        self.seq.clear();
        self.sender.clear();
        self.start.clear();
        self.end.clear();
        self.pos.clear();
    }

    /// Grows every column so slot `i` exists (freshly grown slots are
    /// not live).
    fn ensure_slot(&mut self, i: usize) {
        if i >= self.live.len() {
            let n = i + 1;
            self.live.resize(n, false);
            self.seq.resize(n, 0);
            self.sender.resize(n, NodeId::default());
            self.start.resize(n, SimTime::ZERO);
            self.end.resize(n, SimTime::ZERO);
            self.pos.resize(n, Point::new(0.0, 0.0));
        }
    }

    /// Scatters one hot row into slot `i` and marks it live.
    fn set(&mut self, i: usize, hot: FlightHot) {
        self.live[i] = true;
        self.seq[i] = hot.seq;
        self.sender[i] = hot.sender;
        self.start[i] = hot.start;
        self.end[i] = hot.end;
        self.pos[i] = hot.pos;
    }

    /// Gathers the hot row of slot `i` (which must be live).
    fn gather(&self, i: usize) -> FlightHot {
        debug_assert!(self.live[i], "gather from vacant flight slot");
        FlightHot {
            seq: self.seq[i],
            sender: self.sender[i],
            start: self.start[i],
            end: self.end[i],
            pos: self.pos[i],
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
    /// Cold halves of the frames currently (or recently) in the air.
    pub(super) flights: Slab<FlightCold>,
    /// Hot halves, parallel to the slab's slots.
    cols: FlightColumns,
    /// Monotone frame creation counter (see [`Flight::seq`]).
    next_flight_seq: u64,
    /// How long an ended flight stays in the slab: at least the
    /// worst-case frame airtime under the configured PHY, so any frame
    /// still in the air finds every time-overlapping interferer in the
    /// collision scan.
    flight_retention: SimDuration,
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
}

impl Channel {
    pub(super) fn new(
        rng: SimRng,
        flight_retention: SimDuration,
        noise_bursts: Vec<NoiseBurst>,
        path_loss: LogDistanceModel,
        sensitivity_dbm: f64,
        tx_power_dbm: f64,
    ) -> Self {
        Channel {
            rng,
            flights: Slab::new(),
            cols: FlightColumns::default(),
            next_flight_seq: 0,
            flight_retention,
            scratch_overlaps: Vec::new(),
            scratch_near_overlaps: Vec::new(),
            scratch_heard: Vec::new(),
            active_noise: Vec::new(),
            noise_bursts,
            model: RssiModel::new(path_loss, tx_power_dbm),
            sensitivity_dbm,
            receptions: 0,
            frames_heard: 0,
        }
    }

    /// `(receptions, frames_heard, rssi_evaluated)`: receptions resolved,
    /// audible frames drawn for, and exact strengths evaluated — by a
    /// comparison the bounds left open or by a reader of the decoded
    /// value (see [`EngineStats`](super::EngineStats)).
    pub(super) fn reception_counts(&self) -> (u64, u64, u64) {
        (self.receptions, self.frames_heard, self.model.evaluations())
    }

    /// The legacy per-device generation-phase draw. The paper-default
    /// workload draws its phase from the channel stream — the historical
    /// behaviour, kept so seeded runs stay bit-identical.
    pub(super) fn legacy_phase_ms(&mut self, max_exclusive: u64) -> u64 {
        self.rng.gen_range_u64(0, max_exclusive)
    }

    /// Puts a frame on the air; returns its slab key for the
    /// transmission-end event.
    ///
    /// When the insert is about to grow the slab past a power-of-two
    /// slot count, the deferred sweep runs first (see the module docs) —
    /// the only place expired flights are reclaimed on the default path.
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
        let seq = self.next_flight_seq;
        self.next_flight_seq += 1;
        let key = self.flights.insert(FlightCold { frame, target });
        let i = key.index();
        self.cols.ensure_slot(i);
        self.cols.set(
            i,
            FlightHot {
                seq,
                sender,
                start,
                end,
                pos,
            },
        );
        key
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
    pub(super) fn sweep(&mut self, now: SimTime) {
        let retention = self.flight_retention;
        let cols = &mut self.cols;
        self.flights.retain(|key, _| {
            let i = key.index();
            if cols.end[i] + retention >= now {
                true
            } else {
                cols.live[i] = false;
                false
            }
        });
    }

    /// Collects the frames overlapping `(start, end)` in time (including
    /// the subject itself) into `out`, in creation order: storage order
    /// must not leak into RNG draw order. One pass over the contiguous
    /// hot columns.
    pub(super) fn overlaps_into(&self, start: SimTime, end: SimTime, out: &mut Vec<(u64, Point)>) {
        out.clear();
        let cols = &self.cols;
        for i in 0..cols.live.len() {
            if cols.live[i] && cols.start[i] < end && cols.end[i] > start {
                out.push((cols.seq[i], cols.pos[i]));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| seq);
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

    /// The hot row behind `key`, if the key is still valid.
    pub(super) fn flight_hot(&self, key: SlabKey) -> Option<FlightHot> {
        self.flights.get(key).map(|_| self.cols.gather(key.index()))
    }

    /// Every slab slot in index order as `(generation, row)`, vacant
    /// slots included: the capture counterpart of [`Channel::restore`].
    /// Rows are gathered back into the historical array-of-structs view
    /// so the snapshot wire format is unchanged by the split layout.
    pub(super) fn raw_flight_slots(
        &self,
    ) -> impl Iterator<Item = (u32, Option<FlightRef<'_>>)> + '_ {
        self.flights
            .raw_slots()
            .enumerate()
            .map(|(i, (generation, cold))| {
                let row = cold.map(|cold| {
                    let hot = self.cols.gather(i);
                    FlightRef {
                        seq: hot.seq,
                        sender: hot.sender,
                        frame: &cold.frame,
                        target: cold.target,
                        start: hot.start,
                        end: hot.end,
                        pos: hot.pos,
                    }
                });
                (generation, row)
            })
    }

    /// The flight slab's free list (checkpoint counterpart of
    /// [`Channel::restore`]).
    pub(super) fn flight_free_list(&self) -> &[u32] {
        self.flights.free_list()
    }

    /// Total flight slab slots, vacant included.
    pub(super) fn flight_slot_count(&self) -> usize {
        self.flights.slot_count()
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
    /// ones within `range` of the receiver `at` are the audible set.
    pub(super) fn receive(
        &mut self,
        overlaps: &[(u64, Point)],
        at: Point,
        range: f64,
        flight_seq: u64,
    ) -> Reception {
        let noise_db = self.noise_penalty_at(at);
        self.scratch_heard.clear();
        let mut subject = None;
        // A plain loop against `self`'s fields, on purpose: a chained
        // iterator or a closure copies the model into locals, which
        // costs the rejection test below its register for `range` —
        // +2.6 % on `metro_20k` (docs/lab-notebook.md, "One reception path").
        for &(seq, pos) in overlaps {
            let distance_m = at.distance(pos);
            if distance_m > range {
                continue;
            }
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
    /// activation order). The flight slab is read via
    /// [`Channel::raw_flight_slots`] / [`Channel::flight_free_list`].
    pub(super) fn checkpoint_parts(&self) -> (&SimRng, u64, &[u32]) {
        (&self.rng, self.next_flight_seq, &self.active_noise)
    }

    /// Restores the state captured by [`Channel::checkpoint_parts`] plus
    /// the flight slab: rows from the snapshot are scattered back into
    /// the cold slab + hot columns. The static tables (noise bursts,
    /// path loss, retention) are reconstructed from the scenario config
    /// and stay untouched.
    pub(super) fn restore(
        &mut self,
        rng: SimRng,
        slots: Vec<(u32, Option<Flight>)>,
        free: Vec<u32>,
        next_flight_seq: u64,
        active_noise: Vec<u32>,
    ) {
        self.cols.clear();
        let cold_slots: Vec<(u32, Option<FlightCold>)> = slots
            .into_iter()
            .enumerate()
            .map(|(i, (generation, row))| {
                self.cols.ensure_slot(i);
                let cold = row.map(|f| {
                    self.cols.set(
                        i,
                        FlightHot {
                            seq: f.seq,
                            sender: f.sender,
                            start: f.start,
                            end: f.end,
                            pos: f.pos,
                        },
                    );
                    FlightCold {
                        frame: f.frame,
                        target: f.target,
                    }
                });
                (generation, cold)
            })
            .collect();
        self.rng = rng;
        self.flights = Slab::from_raw_parts(cold_slots, free);
        self.next_flight_seq = next_flight_seq;
        self.active_noise = active_noise;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_phy::{resolve_collision, SpreadingFactor};

    const TX_DBM: f64 = 14.0;
    const SENSITIVITY_DBM: f64 = -123.0;
    const RANGE_M: f64 = 500.0;
    const ORIGIN: Point = Point::new(0.0, 0.0);
    const NOISE_DB: f64 = 7.5;

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
            let got = channel.receive(&frames, ORIGIN, RANGE_M, subject);
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
                        let pos = Point::new(at.x + r * phi.cos(), at.y + r * phi.sin());
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
                    let got = channel.receive(&frames, at, range, subject);
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
                    let got = channel.receive(&[(0, at_distance(subject_m))], ORIGIN, 1e4, 0);
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
                            let got = channel.receive(&frames, ORIGIN, 1e7, 0);
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
}
