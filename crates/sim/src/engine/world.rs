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
use mlora_geo::{CellList, Point};
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
/// hot fields moved into [`HotColumns`] (see the module docs).
#[derive(Debug, Clone)]
pub(super) struct Device {
    pub(super) activated_at: SimTime,
    pub(super) retired_at: Option<SimTime>,
    pub(super) queue: DataQueue,
    pub(super) duty: DutyCycleTracker,
    pub(super) retransmit: RetransmitPolicy,
    pub(super) routing: RoutingState,
    pub(super) tx_scheduled: bool,
    pub(super) pending_handover: Option<(NodeId, usize)>,
    /// Cumulative transmit airtime.
    pub(super) tx_time: SimDuration,
    /// Cumulative Queue-based Class-A listening time.
    pub(super) rx_window_time: SimDuration,
    /// Uplink frames sent.
    pub(super) frames_sent: u64,
    /// The position this device is filed under in the neighbour cell
    /// list: where it stood at the last drift sweep, or at activation.
    pub(super) grid_pos: Point,
    /// Traffic-model state; `None` under the paper's default workload.
    pub(super) traffic: Option<DeviceTraffic>,
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

/// Struct-of-arrays columns for the per-event hot fields, indexed by
/// [`NodeId::index`]. Rows exist for every id up to the latest
/// departure (see the module docs), like the position-hint cursors.
#[derive(Debug)]
pub(super) struct HotColumns {
    /// In service right now.
    pub(super) active: Vec<bool>,
    /// A frame from this device is on the air right now.
    pub(super) transmitting: Vec<bool>,
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
            transmitting: Vec::with_capacity(n),
            tx_window: Vec::with_capacity(n),
            last_tx_end: Vec::with_capacity(n),
            gamma: Vec::with_capacity(n),
        }
    }

    /// Extends every column to `rows` rows of inert defaults.
    fn grow_to(&mut self, rows: usize) {
        self.active.resize(rows, false);
        self.transmitting.resize(rows, false);
        self.tx_window.resize(rows, None);
        self.last_tx_end.resize(rows, None);
        self.gamma.resize(rows, 0.0);
    }

    /// Gathers one device's row across the columns.
    pub(super) fn device_hot(&self, i: usize) -> DeviceHot {
        DeviceHot {
            active: self.active[i],
            transmitting: self.transmitting[i],
            tx_window: self.tx_window[i],
            last_tx_end: self.last_tx_end[i],
            gamma: self.gamma[i],
        }
    }

    /// Scatters one device's row across the columns (snapshot restore).
    pub(super) fn set(&mut self, i: usize, h: DeviceHot) {
        self.active[i] = h.active;
        self.transmitting[i] = h.transmitting;
        self.tx_window[i] = h.tx_window;
        self.last_tx_end[i] = h.last_tx_end;
        self.gamma[i] = h.gamma;
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
    /// When the next periodic drift sweep is due.
    grid_refresh_due: SimTime,
    /// Sweep period: chosen so no stored position can drift more than
    /// [`GRID_MARGIN_M`] between sweeps at the fleet's top speed.
    grid_refresh_every: SimDuration,
    /// The fleet's top service speed, which bounds drift since a sweep.
    max_speed_mps: f64,
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
    /// Builds the world over a generated bus network. `cell_m` sizes the
    /// neighbour cells and `max_speed_mps` paces the drift sweep.
    pub(super) fn new(
        net: Arc<mlora_mobility::BusNetwork>,
        cell_m: f64,
        max_speed_mps: f64,
    ) -> Self {
        let num_trips = net.trips().len();
        // Sweep early enough that drift at the fastest service speed stays
        // inside the query margin (0.95: headroom for rounding to ms).
        let grid_refresh_every = SimDuration::from_secs_f64(GRID_MARGIN_M / max_speed_mps * 0.95);
        World {
            devices: DenseMap::with_capacity(num_trips),
            hot: HotColumns::with_capacity(num_trips),
            active: Vec::new(),
            cells: CellList::new(net.area(), cell_m),
            grid_refresh_due: SimTime::ZERO,
            grid_refresh_every,
            max_speed_mps,
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

    /// When the last drift sweep ran: every filed position dates from
    /// then or later.
    pub(super) fn last_sweep(&self) -> SimTime {
        self.grid_refresh_due - self.grid_refresh_every
    }

    /// How far ahead a drift sweep schedules the next one.
    pub(super) fn sweep_period(&self) -> SimDuration {
        self.grid_refresh_every
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
        #[cfg(debug_assertions)]
        self.assert_filed_as_active();
        let drift = self.drift_bound(now);
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
            debug_assert!(
                pos.distance(dev.grid_pos) <= drift,
                "{n} drifted {} m from its filed position, past the {drift} m bound",
                pos.distance(dev.grid_pos)
            );
            dev.grid_pos = pos;
            (n.raw(), pos)
        }));
    }

    /// Runtime invariant (ROADMAP 2(3)): the cell list files exactly the
    /// active set, each device at its `grid_pos`.
    #[cfg(debug_assertions)]
    fn assert_filed_as_active(&self) {
        let mut filed: Vec<(u32, Point)> = self.cells.iter().collect();
        filed.sort_unstable_by_key(|&(id, _)| id);
        let expected = self.active.iter().map(|&n| {
            (
                n.raw(),
                self.devices.get(n).expect("active device exists").grid_pos,
            )
        });
        assert!(
            filed.iter().copied().eq(expected),
            "cell list membership differs from the active set"
        );
    }

    /// Writes `(id, exact position)` of every active device other than
    /// `sender` truly within `radius` of `center` into `out`, sorted
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
    /// tested with `distance <= radius`, so the caller receives the final
    /// candidate set and never touches the cell list. Position values are
    /// cursor-order-independent, so locating in cell order instead of id
    /// order changes nothing downstream.
    pub(super) fn batched_candidates(
        &mut self,
        now: SimTime,
        sender: NodeId,
        center: Point,
        radius: f64,
        out: &mut Vec<(NodeId, Point)>,
    ) {
        self.refresh_grid_if_due(now);
        out.clear();
        let coarse = radius + self.drift_bound(now).min(GRID_MARGIN_M);
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
                if pos.distance(center) <= radius {
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
    /// fresh-activation state.
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
        let dev = self.devices.get_mut(n)?;
        if dev.retired_at.is_some() {
            return None;
        }
        self.hot.active[n.index()] = false;
        dev.retired_at = Some(now);
        if let Ok(i) = self.active.binary_search(&n) {
            self.active.remove(i);
        }
        let removed = self.cells.remove(n.raw());
        debug_assert!(removed, "retired device missing from the cell list");
        // Energy: time-in-state reconstruction for the whole service window.
        let active_dur = now.saturating_since(dev.activated_at);
        let tx = dev.tx_time.min(active_dur);
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
        #[cfg(debug_assertions)]
        self.assert_filed_as_active();
    }
}
