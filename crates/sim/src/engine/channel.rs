//! The shared radio channel: frames in flight, RSSI sampling, regional
//! noise and capture-model collision resolution.
//!
//! [`Channel`] owns the one RNG stream every shadowing draw comes from
//! (fork 12 of the master seed — the stream the historical engine used,
//! so an identically seeded run reproduces the golden fixtures bit for
//! bit), the generational flight slab with its monotone creation
//! sequence, and the per-receiver RSSI scratch buffer. Reception at any
//! receiver — gateway or neighbouring device, in a serial or a sharded
//! run — goes through one method, [`Channel::receive`], so the capture
//! rule, the noise model and the RNG draw order have nowhere to drift
//! apart.
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
use mlora_phy::{resolve_collision, LogDistanceModel, CAPTURE_MARGIN_DB};
use mlora_simcore::{NodeId, SimDuration, SimRng, SimTime, Slab, SlabKey};

use super::comm::PlannedInterferer;
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

/// What one receiver heard of a subject frame.
#[derive(Debug, Clone, Copy)]
pub(super) struct Reception {
    /// `Some(rssi)` when the subject frame decoded at this receiver
    /// (it won capture over every time-overlapping frame).
    pub(super) rssi: Option<f64>,
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
    /// Scratch: per-receiver collision candidates as `(seq, rssi)`.
    scratch_rssi: Vec<(u64, f64)>,
    /// Indices of currently active noise bursts, in activation order.
    active_noise: Vec<u32>,
    /// The scenario's noise-burst table (indexed by `active_noise`).
    noise_bursts: Vec<NoiseBurst>,
    /// Path-loss + shadowing model.
    path_loss: LogDistanceModel,
    /// Decode sensitivity, dBm.
    sensitivity_dbm: f64,
    /// Transmit power, dBm.
    tx_power_dbm: f64,
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
            scratch_rssi: Vec::new(),
            active_noise: Vec::new(),
            noise_bursts,
            path_loss,
            sensitivity_dbm,
            tx_power_dbm,
        }
    }

    /// The legacy per-device generation-phase draw. The paper-default
    /// workload draws its phase from the channel stream — the historical
    /// behaviour, kept so seeded runs stay bit-identical.
    pub(super) fn legacy_phase_ms(&mut self, max_exclusive: u64) -> u64 {
        self.rng.gen_range_u64(0, max_exclusive)
    }

    /// How long an ended flight stays interference-relevant. Shard
    /// workers prune their flight tables by this same value, so they
    /// never drop an interferer the commit thread still scans for.
    pub(super) fn flight_retention(&self) -> SimDuration {
        self.flight_retention
    }

    /// Sequence number of the most recently launched flight.
    ///
    /// # Panics
    ///
    /// Panics if nothing has launched yet.
    pub(super) fn last_launched_seq(&self) -> u64 {
        self.next_flight_seq
            .checked_sub(1)
            .expect("no flight launched yet")
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

    /// Hot rows of every live flight, in slot order.
    pub(super) fn iter_hot(&self) -> impl Iterator<Item = FlightHot> + '_ {
        self.flights
            .iter()
            .map(|(key, _)| self.cols.gather(key.index()))
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
    /// receiver: one shadowed RSSI per audible frame (one RNG draw each,
    /// in creation order — identical for gateway and device receivers),
    /// any regional noise at the receiver applied, then capture-model
    /// collision resolution over the audible set.
    ///
    /// The audible set arrives in two parts: `planned`, the interferers
    /// a shard worker already range-checked, ascending by sequence with
    /// their mean RSSI computed, then `overlaps`, the frames nothing was
    /// precomputed for — `(seq, position)`, sequence numbers above every
    /// planned one, range-checked here. A serial run passes an empty
    /// `planned` and its whole overlap scan; a sharded run the plan's
    /// slice and the frames launched after the plan was requested. The
    /// concatenation is the ascending-sequence draw order either way,
    /// and a mean recombines with its draw via
    /// [`LogDistanceModel::compose_rssi_dbm`] bit-identically to the
    /// fused [`LogDistanceModel::sample_rssi_dbm_attenuated`], so where
    /// a mean was computed shows neither in the result nor in the RNG
    /// stream (`precomputed_means_never_change_a_reception`).
    pub(super) fn receive(
        &mut self,
        planned: &[PlannedInterferer],
        overlaps: &[(u64, Point)],
        at: Point,
        range: f64,
        flight_seq: u64,
    ) -> Reception {
        let noise_db = self.noise_penalty_at(at);
        self.scratch_rssi.clear();
        let mut flight_rssi = None;
        // Two plain loops against `self`'s fields, on purpose: chained
        // iterators or a closure copy the model into locals, which cost
        // the rejection loop below its register for `range` — +2.6 % on
        // `metro_20k` (EXPERIMENTS.md, "One reception path").
        for &(seq, mean_dbm) in planned {
            let rssi = self.hear(seq, mean_dbm, noise_db);
            if seq == flight_seq {
                flight_rssi = Some(rssi);
            }
        }
        for &(seq, pos) in overlaps {
            let dist = at.distance(pos);
            if dist > range {
                continue;
            }
            let mean_dbm = self.path_loss.mean_rssi_dbm(self.tx_power_dbm, dist);
            let rssi = self.hear(seq, mean_dbm, noise_db);
            if seq == flight_seq {
                flight_rssi = Some(rssi);
            }
        }
        self.resolve_reception(flight_seq, flight_rssi)
    }

    /// The channel's checkpoint state: the shadowing-stream RNG words,
    /// the monotone flight counter and the active-noise stack (in
    /// activation order). The flight slab is read via
    /// [`Channel::raw_flight_slots`] / [`Channel::flight_free_list`].
    pub(super) fn checkpoint_parts(&self) -> ((u64, [u64; 4]), u64, &[u32]) {
        (self.rng.state(), self.next_flight_seq, &self.active_noise)
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

    /// Adds frame `seq` to the audible set: its mean RSSI here, one
    /// fresh shadowing draw and the receiver's noise penalty.
    #[inline]
    fn hear(&mut self, seq: u64, mean_dbm: f64, noise_db: f64) -> f64 {
        let shadow_db = self.path_loss.shadow_db(&mut self.rng);
        let rssi = LogDistanceModel::compose_rssi_dbm(mean_dbm, shadow_db, noise_db);
        self.scratch_rssi.push((seq, rssi));
        rssi
    }

    /// Capture-model resolution over the collected audible set.
    fn resolve_reception(&mut self, flight_seq: u64, flight_rssi: Option<f64>) -> Reception {
        let decoded = matches!(
            resolve_collision(&self.scratch_rssi, self.sensitivity_dbm, CAPTURE_MARGIN_DB),
            Some(winner) if winner == flight_seq
        );
        let interfered = !decoded && self.scratch_rssi.len() > 1 && flight_rssi.is_some();
        Reception {
            rssi: if decoded {
                Some(flight_rssi.expect("winner has an RSSI"))
            } else {
                None
            },
            interfered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TX_DBM: f64 = 14.0;
    const SENSITIVITY_DBM: f64 = -123.0;
    const RANGE_M: f64 = 500.0;

    /// A channel with one noise burst active over the receiver at the
    /// origin (and a second, active one that does not reach it).
    fn noisy_channel() -> Channel {
        let burst = |x: f64, extra_loss_db: f64| NoiseBurst {
            center: Point::new(x, 0.0),
            radius_m: 150.0,
            start: SimTime::ZERO,
            duration: None,
            extra_loss_db,
        };
        let mut channel = Channel::new(
            SimRng::new(2020).fork(12),
            SimDuration::from_secs(2),
            vec![burst(40.0, 7.5), burst(5_000.0, 30.0)],
            LogDistanceModel::paper_default(),
            SENSITIVITY_DBM,
            TX_DBM,
        );
        channel.noise_start(0);
        channel.noise_start(1);
        channel
    }

    fn bits(r: Reception) -> (Option<u64>, bool) {
        (r.rssi.map(f64::to_bits), r.interfered)
    }

    /// The identity the single reception path rests on: where an
    /// interferer's mean RSSI was computed — ahead of time by a shard
    /// worker, or on the spot from its position — shows neither in the
    /// outcome nor in the RNG stream.
    #[test]
    fn precomputed_means_never_change_a_reception() {
        let at = Point::new(0.0, 0.0);
        // Eight overlapping frames in creation order, two of them out of
        // the receiver's range.
        let audible = [
            (3, Point::new(100.0, 0.0)),
            (5, Point::new(900.0, 0.0)),
            (8, Point::new(0.0, 200.0)),
            (9, Point::new(50.0, 50.0)),
            (12, Point::new(-300.0, 100.0)),
            (13, Point::new(0.0, -800.0)),
            (17, Point::new(450.0, 0.0)),
            (20, Point::new(-200.0, -300.0)),
        ];
        let in_range = |&(_, pos): &(u64, Point)| at.distance(pos) <= RANGE_M;
        let n_in_range = audible.iter().filter(|f| in_range(f)).count();
        assert_eq!(n_in_range, 6);
        let model = LogDistanceModel::paper_default();

        // Two subjects from the middle of the list: the nearest frame,
        // which captures the receiver, and a distant one, which is lost
        // to interference.
        for (subject, decodes) in [(9, true), (12, false)] {
            // The reference: the fused sampling loop of `mlora-phy`, one
            // draw per in-range frame in creation order.
            let mut reference = noisy_channel();
            let noise_db = reference.noise_penalty_at(at);
            assert_eq!(noise_db, 7.5, "exactly one burst covers the receiver");
            let mut rng = SimRng::new(2020).fork(12);
            let fused: Vec<(u64, f64)> = audible
                .iter()
                .filter(|f| in_range(f))
                .map(|&(seq, pos)| {
                    let dist = at.distance(pos);
                    let rssi = model.sample_rssi_dbm_attenuated(TX_DBM, dist, noise_db, &mut rng);
                    (seq, rssi)
                })
                .collect();
            let winner = resolve_collision(&fused, SENSITIVITY_DBM, CAPTURE_MARGIN_DB);
            assert_eq!(winner == Some(subject), decodes);
            let subject_rssi = fused.iter().find(|&&(seq, _)| seq == subject).unwrap().1;
            let expected = (decodes.then(|| subject_rssi.to_bits()), !decodes);

            let unplanned = reference.receive(&[], &audible, at, RANGE_M, subject);
            assert_eq!(bits(unplanned), expected);
            assert_eq!(reference.rng.state(), rng.state());

            // Every split point: the first `k` in-range frames handed
            // over as precomputed means, everything after them as
            // positions.
            for k in 0..=n_in_range {
                let cut = audible
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| in_range(f))
                    .nth(k)
                    .map_or(audible.len(), |(i, _)| i);
                let planned: Vec<PlannedInterferer> = audible[..cut]
                    .iter()
                    .filter(|f| in_range(f))
                    .map(|&(seq, pos)| (seq, model.mean_rssi_dbm(TX_DBM, at.distance(pos))))
                    .collect();
                assert_eq!(planned.len(), k);
                let mut channel = noisy_channel();
                let split = channel.receive(&planned, &audible[cut..], at, RANGE_M, subject);
                assert_eq!(bits(split), expected, "subject {subject}, split at {k}");
                assert_eq!(channel.rng.state(), rng.state(), "RNG, split at {k}");
            }
        }
    }
}
