//! The dense device world: fleet state, the neighbour cell list, and
//! device lifecycle (activation, retirement, energy reconstruction,
//! scripted withdrawals).
//!
//! [`World`] owns everything position- and device-shaped — the mobility
//! substrate, the `DenseMap` of live [`Device`]s, the sorted active set,
//! the neighbour cell list with its drift-sweep schedule and the
//! per-device polyline cursors — behind a narrow interface the event
//! loop drives. All scratch buffers for neighbour queries and withdrawal
//! selection live here too, so world queries are allocation-free in
//! steady state.
//!
//! # Neighbours: a dense cell list, re-filed once per drift sweep
//!
//! Every active device is filed in a [`CellList`] over the network's
//! area under its `grid_pos`: where it stood at the last drift sweep,
//! or at its activation if that came later. The periodic sweep
//! ([`GRID_MARGIN_M`] paces it) re-locates the whole active set and
//! rebuilds the list in one counting sort; between sweeps an activation
//! appends to the list's overflow run and a retirement tombstones its
//! entry, and a snapshot restore files every device and builds once. A
//! neighbour query visits one contiguous slice per cell row plus the
//! overflow run, screens the filed positions against the radius padded
//! by the drift possible since the last sweep, and locates exactly only
//! the survivors (see [`World::batched_candidates`]).
//!
//! # Column layout
//!
//! The fields the event loop touches for *every* reception candidate —
//! liveness, half-duplex transmit state, the transmit window, the
//! Eq. 11 receive fraction and the last transmission end — live in
//! struct-of-arrays form in [`HotColumns`], indexed by
//! [`NodeId::index`] exactly like the position-hint cursors. A
//! transmission end at metro scale sweeps hundreds of candidates, and
//! each admission check now reads a handful of contiguous column
//! entries instead of pulling a whole [`Device`] (queue, routing
//! estimators, energy counters — several cache lines) through a map
//! lookup. The cold remainder of per-device state stays in [`Device`];
//! the split is invisible outside the engine, and snapshots write the
//! exact same per-device wire record by gathering a [`DeviceHot`] view
//! next to each device.
//!
//! One column bit is derived rather than stored: whether the device
//! may offer its data to a beacon's sender ([`Device::may_offer`]: a
//! non-empty queue and no offer armed). A decoded beacon reaches the
//! policy only then, so a receiver whose bit is clear never fetches its
//! row. Every site that changes a queue's emptiness or arms or takes an
//! offer sets the bit from the row; resume derives it once per filed
//! row; [`World::check`] holds it, so a missed update fails every debug
//! slice.
//!
//! # Rows follow departures, not the timetable
//!
//! [`BusNetwork`](mlora_mobility::BusNetwork) sorts its trips by
//! departure and numbers them in that order, so devices activate in
//! ascending id order. Every per-id structure here — the device map,
//! the hot columns, the position cursors — reserves address space for
//! the whole timetable and gains a row only when
//! [`World::open_row`] admits the next departure: direct `[id]`
//! indexing needs no id→row table, and an engine's resident state is
//! proportional to the buses that have departed so far, however long
//! the service day.

use std::sync::Arc;

use mlora_core::RoutingState;
use mlora_geo::{CellList, Point, Reach};
use mlora_mac::{
    DataQueue, DeviceClass, DutyCycleTracker, EnergyAccount, EnergyModel, RadioState,
    RetransmitPolicy,
};
use mlora_simcore::{DenseMap, NodeId, SimDuration, SimRng, SimTime};

/// The most a filed position may drift from its device between drift
/// sweeps: the sweep runs early enough that no device outruns it at the
/// fleet's top speed. A neighbour query pads its radius by the drift
/// actually possible since the last sweep, capped at this margin;
/// exact distances are re-checked on the survivors, so the padded
/// screen only has to keep a superset of the truly-in-range set.
pub(super) const GRID_MARGIN_M: f64 = 120.0;

/// Per-device traffic-model state: which profile this device runs and
/// the dedicated RNG stream its arrival/payload draws come from.
/// `None` when the scenario's [`TrafficModel`](crate::TrafficModel) is
/// empty — the paper-exact periodic generator needs no state.
#[derive(Debug, Clone)]
pub(super) struct DeviceTraffic {
    /// Index into the model's profile mix.
    pub(super) profile: u32,
    /// Per-device stream forked from the engine's traffic root; the
    /// first draw assigns the profile, later draws sample arrivals and
    /// payload sizes.
    pub(super) rng: SimRng,
    /// Messages remaining in the current on-period of a bursty process.
    pub(super) burst_left: u32,
}

/// Per-device live state — the *cold* remainder after the per-event
/// hot fields moved into [`HotColumns`] (see the module docs). A row
/// stores each fact once: the service window is the device's trip in
/// the timetable (a withdrawal truncates it), and the airtime and
/// frame count are the duty-cycle tracker's.
#[derive(Debug, Clone)]
pub(super) struct Device {
    pub(super) queue: DataQueue,
    pub(super) duty: DutyCycleTracker,
    pub(super) retransmit: RetransmitPolicy,
    pub(super) routing: RoutingState,
    /// Set exactly while one `TxStart` of this device is queued.
    pub(super) tx_scheduled: bool,
    pub(super) pending_handover: Option<(NodeId, usize)>,
    /// Cumulative Queue-based Class-A listening time.
    pub(super) rx_window_time: SimDuration,
    /// The position this device is filed under in the neighbour cell
    /// list: where it stood at the last drift sweep, or at activation.
    pub(super) grid_pos: Point,
    /// Traffic-model state; `None` under the paper's default workload.
    pub(super) traffic: Option<DeviceTraffic>,
}

impl Device {
    /// Whether an overheard beacon can make this device offer its data:
    /// it holds some and has no offer armed. Otherwise
    /// [`RoutingState::decide`] keeps without a policy hook, or the
    /// armed offer wins. [`HotColumns`] holds a copy of this bit.
    pub(super) fn may_offer(&self) -> bool {
        !self.queue.is_empty() && self.pending_handover.is_none()
    }
}

/// One device's hot-column values, gathered/scattered as a unit where
/// row-shaped access is the right interface (snapshot records).
#[derive(Debug, Clone, Copy)]
pub(super) struct DeviceHot {
    pub(super) active: bool,
    pub(super) transmitting: bool,
    pub(super) tx_window: Option<(SimTime, SimTime)>,
    pub(super) last_tx_end: Option<SimTime>,
    pub(super) gamma: f64,
}

/// One device's flag byte in [`HotColumns`]: whether a frame of it is
/// on the air, and the derived offer bit (see the module docs). One
/// byte holds both, so the offer bit adds no column and no allocation.
#[derive(Debug, Clone, Copy, Default)]
struct HotFlags(u8);

impl HotFlags {
    const ON_AIR: u8 = 1;
    const MAY_OFFER: u8 = 2;

    fn on_air(self) -> bool {
        self.0 & Self::ON_AIR != 0
    }

    fn may_offer(self) -> bool {
        self.0 & Self::MAY_OFFER != 0
    }

    fn with(self, bit: u8, on: bool) -> Self {
        HotFlags(if on { self.0 | bit } else { self.0 & !bit })
    }
}

/// Struct-of-arrays columns for the per-event hot fields, indexed by
/// [`NodeId::index`]. Rows exist for every id up to the latest
/// departure (see the module docs), like the position-hint cursors.
#[derive(Debug)]
pub(super) struct HotColumns {
    /// In service right now.
    pub(super) active: Vec<bool>,
    /// A frame from this device is on the air right now, and the
    /// device may offer its data to a beacon's sender
    /// ([`Device::may_offer`], derived). Read and written through
    /// [`HotColumns::transmitting`] and [`HotColumns::may_offer`].
    flags: Vec<HotFlags>,
    /// Window of the most recent transmission, for half-duplex checks.
    pub(super) tx_window: Vec<Option<(SimTime, SimTime)>>,
    /// When the most recent transmission ended (Class-A receive
    /// windows open relative to it).
    pub(super) last_tx_end: Vec<Option<SimTime>>,
    /// Eq. 11 receive-window fraction, refreshed at each uplink.
    pub(super) gamma: Vec<f64>,
}

impl HotColumns {
    fn with_capacity(n: usize) -> Self {
        HotColumns {
            active: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            tx_window: Vec::with_capacity(n),
            last_tx_end: Vec::with_capacity(n),
            gamma: Vec::with_capacity(n),
        }
    }

    /// Extends every column to `rows` rows of inert defaults.
    fn grow_to(&mut self, rows: usize) {
        self.active.resize(rows, false);
        self.flags.resize(rows, HotFlags::default());
        self.tx_window.resize(rows, None);
        self.last_tx_end.resize(rows, None);
        self.gamma.resize(rows, 0.0);
    }

    /// Gathers one device's row across the columns.
    pub(super) fn device_hot(&self, i: usize) -> DeviceHot {
        DeviceHot {
            active: self.active[i],
            transmitting: self.transmitting(i),
            tx_window: self.tx_window[i],
            last_tx_end: self.last_tx_end[i],
            gamma: self.gamma[i],
        }
    }

    /// Scatters one device's row across the columns (activation,
    /// snapshot restore). Clears the offer bit, which [`DeviceHot`] does
    /// not carry: the caller sets it from the row.
    pub(super) fn set(&mut self, i: usize, h: DeviceHot) {
        self.active[i] = h.active;
        self.flags[i] = HotFlags::default().with(HotFlags::ON_AIR, h.transmitting);
        self.tx_window[i] = h.tx_window;
        self.last_tx_end[i] = h.last_tx_end;
        self.gamma[i] = h.gamma;
    }

    /// Whether a frame from device `i` is on the air right now.
    pub(super) fn transmitting(&self, i: usize) -> bool {
        self.flags[i].on_air()
    }

    /// Marks a frame from device `i` on the air, or off it.
    pub(super) fn set_transmitting(&mut self, i: usize, on: bool) {
        self.flags[i] = self.flags[i].with(HotFlags::ON_AIR, on);
    }

    /// Device `i`'s copy of [`Device::may_offer`].
    pub(super) fn may_offer(&self, i: usize) -> bool {
        self.flags[i].may_offer()
    }

    /// Sets device `i`'s offer bit; pass [`Device::may_offer`] of its
    /// row after any change to its queue or its armed offer.
    pub(super) fn set_may_offer(&mut self, i: usize, on: bool) {
        self.flags[i] = self.flags[i].with(HotFlags::MAY_OFFER, on);
    }
}

/// What a retirement costs: the device's reconstructed radio energy and
/// its total in-service time, for the collector.
#[derive(Debug, Clone, Copy)]
pub(super) struct Retirement {
    pub(super) energy_mj: f64,
    pub(super) active: SimDuration,
}

/// The dense device world (see the module docs).
#[derive(Debug)]
pub(super) struct World {
    /// The mobility substrate, shared with the configuration it came
    /// from and every engine resumed or forked from the same snapshot;
    /// copied on the first scripted withdrawal only
    /// ([`World::withdraw_trip`]).
    pub(super) net: Arc<mlora_mobility::BusNetwork>,
    pub(super) devices: DenseMap<NodeId, Device>,
    /// The per-event hot fields, in column form (see the module docs).
    pub(super) hot: HotColumns,
    /// Device ids currently in service, kept sorted for determinism.
    pub(super) active: Vec<NodeId>,
    /// Every active device at its `grid_pos` (see the module docs).
    cells: CellList,
    /// The device-to-device range, with its exact squared bound.
    reach: Reach,
    /// When the next periodic drift sweep is due.
    grid_refresh_due: SimTime,
    /// Sweep period: chosen so no stored position can drift more than
    /// [`GRID_MARGIN_M`] between sweeps at the fleet's top speed.
    grid_refresh_every: SimDuration,
    /// The fleet's top service speed, which bounds drift since a sweep.
    max_speed_mps: f64,
    /// How many profiles the scenario's traffic mix holds: what a
    /// device's [`DeviceTraffic::profile`] may name.
    profiles: usize,
    /// Host telemetry for [`EngineStats`](super::EngineStats), never
    /// checkpointed: cell-list entries screened, exact positions
    /// located and candidates found by neighbour queries.
    grid_entries: u64,
    positions_located: u64,
    candidates: u64,
    /// Per-device polyline segment cursors for O(1) position queries,
    /// one per opened row.
    pos_hints: Vec<u32>,
    /// Scratch: withdrawal candidate pool.
    scratch_withdraw: Vec<NodeId>,
}

impl World {
    /// Builds the world over a generated bus network. `d2d_range_m` is
    /// the neighbour queries' radius and sizes their cells (at least
    /// 200 m); `max_speed_mps` paces the drift sweep; `profiles` is the
    /// size of the traffic mix.
    pub(super) fn new(
        net: Arc<mlora_mobility::BusNetwork>,
        d2d_range_m: f64,
        max_speed_mps: f64,
        profiles: usize,
    ) -> Self {
        let num_trips = net.trips().len();
        // Sweep early enough that drift at the fastest service speed stays
        // inside the query margin (0.95: headroom for rounding to ms).
        let grid_refresh_every = SimDuration::from_secs_f64(GRID_MARGIN_M / max_speed_mps * 0.95);
        World {
            devices: DenseMap::with_capacity(num_trips),
            hot: HotColumns::with_capacity(num_trips),
            active: Vec::new(),
            cells: CellList::new(net.area(), d2d_range_m.max(200.0)),
            reach: Reach::new(d2d_range_m),
            grid_refresh_due: SimTime::ZERO,
            grid_refresh_every,
            max_speed_mps,
            profiles,
            grid_entries: 0,
            positions_located: 0,
            candidates: 0,
            pos_hints: Vec::with_capacity(num_trips),
            scratch_withdraw: Vec::new(),
            net,
        }
    }

    /// Opens the per-id rows (hot columns at their inert defaults, a
    /// fresh position cursor) up to and including `n`. Departures arrive
    /// in ascending id order, so on a running engine this appends exactly
    /// one row; a snapshot restore opens its rows the same way.
    pub(super) fn open_row(&mut self, n: NodeId) {
        let rows = n.index() + 1;
        if rows > self.pos_hints.len() {
            self.hot.grow_to(rows);
            self.pos_hints.resize(rows, 0);
        }
    }

    /// The device's position at `now`, through its segment cursor.
    pub(super) fn position_now(&mut self, n: NodeId, now: SimTime) -> Point {
        self.net
            .position_hinted(n, now, &mut self.pos_hints[n.index()])
    }

    /// The device-to-device range.
    pub(super) fn reach(&self) -> Reach {
        self.reach
    }

    /// When the last drift sweep ran: every filed position dates from
    /// then or later.
    pub(super) fn last_sweep(&self) -> SimTime {
        self.grid_refresh_due - self.grid_refresh_every
    }

    /// The most any device can have moved from its filed position by
    /// `now`: the drift possible since the last sweep at the fleet's top
    /// speed, plus a metre of rounding slack.
    fn drift_bound(&self, now: SimTime) -> f64 {
        now.saturating_since(self.last_sweep()).as_secs_f64() * self.max_speed_mps + 1.0
    }

    /// Re-locates every active device and rebuilds the cell list from
    /// the active set when the periodic drift sweep is due.
    fn refresh_grid_if_due(&mut self, now: SimTime) {
        if now < self.grid_refresh_due {
            return;
        }
        debug_assert_eq!(self.check(now), Ok(()));
        self.grid_refresh_due = now + self.grid_refresh_every;
        let World {
            net,
            devices,
            active,
            pos_hints,
            cells,
            ..
        } = self;
        cells.rebuild(active.iter().map(|&n| {
            let pos = net.position_hinted(n, now, &mut pos_hints[n.index()]);
            let dev = devices.get_mut(n).expect("active device exists");
            dev.grid_pos = pos;
            (n.raw(), pos)
        }));
    }

    /// The premises of the world's state at `now`, which a resume
    /// relies on and every drift sweep re-checks in debug builds: the
    /// next sweep is due within one period, so the queries' drift pad
    /// covers the drift since the last one; every device's traffic
    /// profile is in the mix; every device's queue
    /// [`is_well_formed`](mlora_mac::DataQueue::is_well_formed); every
    /// device's offer bit is its row's [`Device::may_offer`]; the
    /// cell list files exactly the active set, each device at its
    /// `grid_pos`; and no active device lies farther from its `grid_pos`
    /// than the drift bound, or the queries' pad would miss it.
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
        if self.grid_refresh_due > now + self.grid_refresh_every {
            return Err("drift sweep due past one period");
        }
        // One pass over the rows, each row's premises in turn.
        for (i, dev) in self.devices.iter() {
            let profile = dev.traffic.as_ref().map(|t| t.profile as usize);
            if profile.is_some_and(|p| p >= self.profiles) {
                return Err("traffic profile past the mix");
            }
            if !dev.queue.is_well_formed() {
                return Err("device queue over capacity or out of order");
            }
            if self.hot.flags.get(i).map(|f| f.may_offer()) != Some(dev.may_offer()) {
                return Err("offer bit disagrees with the queue and the armed offer");
            }
        }
        // `active` holds each id once, so equal counts and every active
        // device filed where it should be leave no other entry.
        let filed = self.cells.len() == self.active.len()
            && self.active.iter().all(|&n| {
                let grid_pos = self.devices.get(n).map(|dev| dev.grid_pos);
                grid_pos.is_some() && self.cells.get(n.raw()) == grid_pos
            });
        if !filed {
            return Err("cell list membership differs from the active set");
        }
        // `<=` is false for NaN as well.
        let drift = self.drift_bound(now);
        let near = self.active.iter().all(|&n| {
            let filed = self.devices.get(n).map(|dev| dev.grid_pos);
            filed.is_some_and(|at| self.net.position(n, now).distance(at) <= drift)
        });
        if !near {
            return Err("device drifted past the bound from its filed position");
        }
        Ok(())
    }

    /// Writes `(id, exact position)` of every active device other than
    /// `sender` truly within the d2d range of `center` into `out`, sorted
    /// ascending by id.
    ///
    /// The drift sweep runs first if it is due. The query then visits the
    /// cell list's slices around `center` — one per cell row, plus the
    /// overflow run — and screens each entry's filed position against
    /// `radius` padded by the drift possible since the last sweep
    /// (capped at [`GRID_MARGIN_M`]). Every entry was filed at that
    /// sweep or later and no route is faster than `max_speed_mps`, so
    /// the screen drops only devices truly out of range. Each survivor's
    /// exact position is computed once through its polyline cursor and
    /// kept when its squared distance is within the range's exact bound
    /// ([`Reach`]: the answer of `distance <= range`, without the
    /// square root), so the caller receives the final
    /// candidate set and never touches the cell list. Position values are
    /// cursor-order-independent, so locating in cell order instead of id
    /// order changes nothing downstream.
    pub(super) fn batched_candidates(
        &mut self,
        now: SimTime,
        sender: NodeId,
        center: Point,
        out: &mut Vec<(NodeId, Point)>,
    ) {
        self.refresh_grid_if_due(now);
        out.clear();
        let reach = self.reach;
        let coarse = reach.range() + self.drift_bound(now).min(GRID_MARGIN_M);
        // Through the shared handle once, not once per candidate.
        let net: &mlora_mobility::BusNetwork = &self.net;
        let hints = &mut self.pos_hints;
        let coarse_sq = coarse * coarse;
        let sender = sender.raw();
        let (mut screened, mut located) = (0, 0);
        self.cells.for_each_slice_within(center, coarse, |run| {
            screened += run.len();
            for &(id, filed) in run {
                // Tombstones sit at infinity and fail the screen.
                if id == sender || filed.distance_sq(center) > coarse_sq {
                    continue;
                }
                located += 1;
                let n = NodeId::new(id);
                let pos = net.position_hinted(n, now, &mut hints[n.index()]);
                if reach.contains_sq(pos.distance_sq(center)) {
                    out.push((n, pos));
                }
            }
        });
        out.sort_unstable_by_key(|&(n, _)| n);
        self.grid_entries += screened as u64;
        self.positions_located += located;
        self.candidates += out.len() as u64;
    }

    /// `(grid_entries, positions_located, candidates)`: the neighbour
    /// queries' work so far (see [`EngineStats`](super::EngineStats)).
    pub(super) fn candidate_counts(&self) -> (u64, u64, u64) {
        (self.grid_entries, self.positions_located, self.candidates)
    }

    /// Activates a device whose row is open ([`World::open_row`]): files
    /// it in the device map, the sorted active set and the cell list's
    /// overflow run at `pos`, and resets its hot columns to the
    /// fresh-activation state (the offer bit clear: a departing bus
    /// holds no data).
    pub(super) fn activate(&mut self, n: NodeId, device: Device, pos: Point) {
        self.hot.set(
            n.index(),
            DeviceHot {
                active: true,
                transmitting: false,
                tx_window: None,
                last_tx_end: None,
                gamma: 0.0,
            },
        );
        self.devices.insert(n, device);
        if let Err(i) = self.active.binary_search(&n) {
            self.active.insert(i, n);
        }
        self.cells.insert(n.raw(), pos);
    }

    /// Retires a device at `now`: removes it from the active set,
    /// tombstones its cell-list entry and reconstructs its whole-service
    /// energy spend under the fleet's `class`. Returns `None` when the
    /// device never existed or already retired.
    pub(super) fn retire(
        &mut self,
        n: NodeId,
        now: SimTime,
        class: DeviceClass,
    ) -> Option<Retirement> {
        let dev = self.devices.get(n)?;
        if !self.hot.active[n.index()] {
            return None;
        }
        self.hot.active[n.index()] = false;
        if let Ok(i) = self.active.binary_search(&n) {
            self.active.remove(i);
        }
        let removed = self.cells.remove(n.raw());
        debug_assert!(removed, "retired device missing from the cell list");
        // Energy: time-in-state reconstruction for the whole service window.
        let active_dur = now.saturating_since(self.net.trips()[n.index()].depart());
        let tx = dev.duty.total_airtime().min(active_dur);
        let non_tx = active_dur.saturating_sub(tx);
        let rx = match class {
            DeviceClass::ModifiedClassC => non_tx,
            DeviceClass::QueueBasedClassA => dev.rx_window_time.min(non_tx),
        };
        let sleep = non_tx.saturating_sub(rx);
        let mut acct = EnergyAccount::new();
        acct.add(RadioState::Tx, tx);
        acct.add(RadioState::Rx, rx);
        acct.add(RadioState::Sleep, sleep);
        let energy_mj = acct.energy_mj(&EnergyModel::sx1276());
        Some(Retirement {
            energy_mj,
            active: active_dur,
        })
    }

    /// Selects a deterministic random `count`-strong subset of the
    /// active fleet for withdrawal: the sorted active set is shuffled
    /// with `rng` (so the subset is a pure function of the plan and
    /// seed), truncated and re-sorted. Return the buffer through
    /// [`World::return_withdraw_pool`] when done.
    pub(super) fn take_withdraw_pool(&mut self, count: usize, rng: &mut SimRng) -> Vec<NodeId> {
        let mut pool = std::mem::take(&mut self.scratch_withdraw);
        pool.clear();
        pool.extend_from_slice(&self.active);
        rng.shuffle(&mut pool);
        pool.truncate(count);
        pool.sort_unstable();
        pool
    }

    /// Returns the withdrawal scratch buffer for reuse.
    pub(super) fn return_withdraw_pool(&mut self, pool: Vec<NodeId>) {
        self.scratch_withdraw = pool;
    }

    /// Truncates a withdrawn bus's trip in the mobility substrate. The
    /// first withdrawal takes this engine's private copy of a shared
    /// network; an undisrupted run never copies it.
    pub(super) fn withdraw_trip(&mut self, n: NodeId, now: SimTime) {
        Arc::make_mut(&mut self.net).withdraw(n, now);
    }

    /// When the next periodic drift sweep is due — checkpoint
    /// counterpart of [`World::restore_runtime`].
    pub(super) fn grid_refresh_due(&self) -> SimTime {
        self.grid_refresh_due
    }

    /// Restores snapshot-captured runtime state once the caller has
    /// filed every device ([`World::activate`] rebuilt the active set):
    /// builds the cell list once from the active set at each device's
    /// captured `grid_pos`, and pins the drift-sweep schedule where the
    /// checkpoint left it. The overflow run and the tombstones of the
    /// captured engine are not rebuilt: they are layout, and the live
    /// entries — the only thing a query reads — are the same. Position-hint
    /// cursors are deliberately *not* checkpointed either: they are pure
    /// lookup accelerators that never change a position value, so fresh
    /// zeros resume bit-identically.
    pub(super) fn restore_runtime(&mut self, grid_refresh_due: SimTime) {
        self.grid_refresh_due = grid_refresh_due;
        let devices = &self.devices;
        self.cells.rebuild(self.active.iter().map(|&n| {
            let dev = devices.get(n).expect("active device exists");
            (n.raw(), dev.grid_pos)
        }));
    }
}

#[cfg(test)]
mod tests {
    use mlora_core::Scheme;

    use super::*;
    use crate::engine::Engine;
    use crate::{Scenario, TrafficModel, TrafficProfile};

    /// Each premise of [`World::check`] on its own, broken in the world
    /// of a rural ROBC run under a two-profile mix, resumed from a
    /// checkpoint. Every site that sets an offer bit has set some by
    /// then, and a debug run checks them all. (An urban run at this
    /// seed showed no missed update at the acceptor.)
    #[test]
    fn check_refuses_each_broken_premise() {
        let cfg = Scenario::rural()
            .smoke()
            .scheme(Scheme::Robc)
            .traffic(TrafficModel::mix([
                TrafficProfile::telemetry(),
                TrafficProfile::alerts(),
            ]))
            .build()
            .unwrap();
        let mut engine = Engine::new(cfg, 7);
        engine.run_until(SimTime::from_secs(3_600));
        let mut engine = Engine::resume(&engine.snapshot().unwrap()).unwrap();
        let (now, world) = (engine.now, &mut engine.world);
        assert_eq!(world.check(now), Ok(()));

        let due = world.grid_refresh_due;
        world.grid_refresh_due = now + world.grid_refresh_every + SimDuration::from_millis(1);
        assert_eq!(world.check(now), Err("drift sweep due past one period"));
        world.grid_refresh_due = due;

        // A retired row counts as much as an active one.
        let (retired, _) = world
            .devices
            .iter()
            .find(|&(i, _)| !world.hot.active[i])
            .unwrap();
        let set_profile = |world: &mut World, profile| {
            let row = world.devices.get_mut(NodeId::new(retired as u32)).unwrap();
            row.traffic.as_mut().unwrap().profile = profile;
        };
        set_profile(world, 2);
        assert_eq!(world.check(now), Err("traffic profile past the mix"));
        set_profile(world, 0);

        // A stale offer bit: the first active row's, flipped.
        let i = world.active[0].index();
        let offers = world.hot.may_offer(i);
        world.hot.set_may_offer(i, !offers);
        assert_eq!(
            world.check(now),
            Err("offer bit disagrees with the queue and the armed offer")
        );
        world.hot.set_may_offer(i, offers);

        // Filed 2 km from where it is, consistently: the cell list
        // agrees with the row.
        let n = world.active[0];
        let at = world.devices.get(n).unwrap().grid_pos;
        world.devices.get_mut(n).unwrap().grid_pos = Point::new(at.x + 2_000.0, at.y);
        world.restore_runtime(world.grid_refresh_due);
        assert_eq!(
            world.check(now),
            Err("device drifted past the bound from its filed position")
        );
        world.devices.get_mut(n).unwrap().grid_pos = at;
        world.restore_runtime(world.grid_refresh_due);
        assert_eq!(world.check(now), Ok(()));

        let filed = world.active[0].raw();
        assert!(world.cells.remove(filed));
        assert_eq!(
            world.check(now),
            Err("cell list membership differs from the active set")
        );
    }

    /// A device row stores each fact once. It was 488 bytes on x86-64
    /// while it kept copies of its trip's service window, of its duty
    /// cycle's airtime and frame count, and (in both estimators) of
    /// `PACKET_BITS`; a copy that comes back grows it past the bound.
    #[test]
    fn device_row_keeps_no_copies() {
        let size = std::mem::size_of::<Device>();
        assert!(size <= 432, "a device row is {size} bytes");
    }

    /// Queues that overflow still meet [`World::check`]'s queue premise.
    /// A debug build checks it at every drift sweep of the run, so a
    /// `push` that lets a queue grow past its capacity fails here.
    #[test]
    fn overflowing_queues_stay_well_formed() {
        let cfg = Scenario::urban().smoke().queue_capacity(2).build().unwrap();
        let mut engine = Engine::new(cfg, 7);
        engine.run_until(SimTime::from_secs(3_600));
        assert_eq!(engine.world.check(engine.now), Ok(()));
        assert!(engine.finish().queue_drops > 0, "no queue overflowed");
    }
}
