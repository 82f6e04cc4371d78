//! The shard broker: edge messages, the barrier protocol and the
//! in-process [`LocalCommunicator`] transport (threads + channels).
//!
//! # Architecture
//!
//! The parallel engine keeps **one commit thread** — the ordinary event
//! loop, which owns all mutable simulation state, every RNG draw and
//! every policy decision, processed in canonical `(time, seq)` event
//! order exactly as the serial engine does. What it offloads to the
//! shard workers is the *draw-free spatial work* of transmission-end
//! resolution:
//!
//! * each worker owns the [tile region](super::partition::Partition) of
//!   one shard: a halo-extended device membership grid (kept current by
//!   exchanging boundary-crossing buses with peer workers at
//!   synchronized time-step barriers) and a tile-local table of frames
//!   in flight (fed by [`EdgeMessage::FlightLaunched`] broadcasts);
//! * when a frame launches inside a worker's own tiles, the worker
//!   computes its [`FlightPlan`]: the exact in-range gateway and
//!   neighbour-candidate sets at the transmission-end instant, plus the
//!   distance of every in-range interfering flight from each receiver —
//!   everything `Channel::receive` needs except the shadowing draws.
//!   (Distances, not mean strengths: the commit thread bounds a
//!   strength from its distance by table and evaluates a mean for the
//!   few percent of frames whose comparison is close, so a logarithm
//!   per planned pair would be computed here to be read there almost
//!   never.)
//!
//! The commit thread consumes the plan at the transmission-end event
//! through the resolve step a serial run uses — a serial run is the
//! case where nothing was precomputed: state-dependent filters (device
//! liveness, half-duplex, device class, gateway outages), the per-pair
//! shadowing draws in the canonical receiver × flight order, capture
//! resolution and all mutation. A planned distance is the float the
//! serial scan computes from the same two positions (`Channel::receive`'s
//! split-point unit test), and the draws leave the same stream in the
//! same order, so a sharded run is **bit-identical to the serial engine
//! for any shard count** — the property `tests/partition_properties.rs`
//! and the golden fixtures pin.
//!
//! Plans reference only launches the commit thread dispatched *before*
//! the subject's own launch (channel FIFO order); frames launched in
//! the window between a flight's start and its end are merged back at
//! commit from a small "recent launches" ring, in sequence order, so
//! the canonical interferer order never diverges.
//!
//! The transport is message-based: the commit thread only ever `send`s
//! plain-data [`EdgeMessage`]s and receives [`FlightPlan`]s. There is
//! one transport, held by value; a process- or TCP-backed one (in the
//! style of petri / parallel_qsim) would move the same messages behind
//! the same five methods, and is the moment to put a trait over them.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use mlora_geo::{GridIndex, Point};
use mlora_mobility::BusNetwork;
use mlora_simcore::{NodeId, SimDuration, SimTime};

use super::partition::Partition;

/// How long transport receives wait before concluding a shard worker
/// died (a worker panic would otherwise deadlock the commit thread).
const RECV_TIMEOUT: Duration = Duration::from_secs(300);

/// A message on a shard edge: commit → worker, or worker → worker at a
/// membership barrier. Plain data, so any transport can carry it.
#[derive(Debug, Clone)]
pub enum EdgeMessage {
    /// A frame went on the air within the receiving shard's flight halo.
    FlightLaunched {
        /// Canonical flight sequence number.
        seq: u64,
        /// Transmitting device.
        sender: NodeId,
        /// Sender position at transmission start.
        pos: Point,
        /// Transmission start time.
        start: SimTime,
        /// Transmission end time.
        end: SimTime,
        /// True on the copy sent to the shard owning the launch tile:
        /// that worker must answer with the flight's [`FlightPlan`].
        wants_plan: bool,
    },
    /// A membership barrier: advance device membership to `until` and
    /// exchange boundary-crossing buses with every peer worker.
    Barrier {
        /// The time-step boundary to advance to.
        until: SimTime,
    },
    /// One worker's batch of boundary-crossing buses for a barrier:
    /// every tracked device the sender *owns* (by tile) whose position
    /// lies within the receiver's halo region. Sent to every peer at
    /// every barrier, empty or not, so receivers can count batches.
    Crossing {
        /// Barrier index the batch belongs to.
        barrier: u64,
        /// `(device, position-at-barrier)` pairs.
        devices: Vec<(NodeId, Point)>,
    },
    /// Orderly end of the run.
    Shutdown,
}

/// An in-range interferer of one planned receiver: the flight's
/// canonical sequence number and its sender's distance from the
/// receiver, metres.
pub type PlannedInterferer = (u64, f64);

/// One in-range gateway in a [`FlightPlan`], with its interferer slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedGateway {
    /// Gateway index.
    pub gateway: u32,
    /// Start of this receiver's slice in [`FlightPlan::interferers`].
    pub start: u32,
    /// Length of the slice.
    pub len: u32,
}

/// One in-range neighbour candidate in a [`FlightPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCandidate {
    /// Candidate device.
    pub node: NodeId,
    /// Its exact position at the transmission-end instant (the value
    /// the serial engine would compute; the commit thread uses it for
    /// regional-noise lookup).
    pub pos: Point,
    /// Start of this receiver's slice in [`FlightPlan::interferers`].
    pub start: u32,
    /// Length of the slice.
    pub len: u32,
}

/// The precomputed, draw-free part of one flight's transmission-end
/// resolution (see the module docs). Pure geometry over launch history
/// and the static world: identical whichever shard computes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightPlan {
    /// The subject flight's sequence number.
    pub seq: u64,
    /// In-range gateways, ascending by index, outage state *not*
    /// applied (workers don't track outages; the commit thread filters).
    pub gateways: Vec<PlannedGateway>,
    /// Exact-distance-filtered neighbour candidates, ascending by id.
    /// A superset of the live receivers: the commit thread applies the
    /// state-dependent filters (activity, half-duplex, device class).
    pub candidates: Vec<PlannedCandidate>,
    /// Flat per-receiver interferer storage, each slice in ascending
    /// sequence order.
    pub interferers: Vec<PlannedInterferer>,
}

impl FlightPlan {
    /// The interferer slice of one planned receiver.
    pub fn slice(&self, start: u32, len: u32) -> &[PlannedInterferer] {
        &self.interferers[start as usize..(start + len) as usize]
    }
}

/// Commit-side transport to the shard workers, in process: one OS
/// thread per shard, `std::sync::mpsc` channels for commit → worker and
/// worker → worker edges, one shared channel funnelling plans back to
/// the commit thread.
#[derive(Debug)]
pub struct LocalCommunicator {
    to_shards: Vec<mpsc::Sender<EdgeMessage>>,
    plans: mpsc::Receiver<FlightPlan>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LocalCommunicator {
    /// Spawns one worker thread per shard and wires the full channel
    /// mesh (commit→worker, worker→worker, worker→commit plans).
    pub(crate) fn launch(workers: Vec<ShardWorker>) -> LocalCommunicator {
        let n = workers.len();
        let (plan_tx, plan_rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            rxs.push(Some(rx));
        }
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| {
                let rx = rxs[i].take().expect("one receiver per worker");
                let peers: Vec<Option<mpsc::Sender<EdgeMessage>>> = txs
                    .iter()
                    .enumerate()
                    .map(|(j, tx)| (j != i).then(|| tx.clone()))
                    .collect();
                let plan_tx = plan_tx.clone();
                std::thread::Builder::new()
                    .name(format!("mlora-shard-{i}"))
                    .spawn(move || worker.run(rx, peers, plan_tx))
                    .expect("spawn shard worker")
            })
            .collect();
        LocalCommunicator {
            to_shards: txs,
            plans: plan_rx,
            handles,
        }
    }

    /// Number of shards behind this transport.
    pub(crate) fn num_shards(&self) -> usize {
        self.to_shards.len()
    }

    /// Sends one message to one shard. Per-shard FIFO ordering is part
    /// of the contract: plans are computed against exactly the launches
    /// sent before the planned flight's own launch message.
    pub(crate) fn send(&mut self, shard: usize, msg: EdgeMessage) {
        // A send to a dead worker surfaces on the next recv_plan.
        let _ = self.to_shards[shard].send(msg);
    }

    /// Blocks for the next flight plan, in whatever order workers
    /// finish them (the engine reorders by sequence number).
    ///
    /// # Panics
    ///
    /// Panics if a worker died — determinism is unrecoverable then.
    pub(crate) fn recv_plan(&mut self) -> FlightPlan {
        self.plans
            .recv_timeout(RECV_TIMEOUT)
            .expect("shard worker died or stalled; cannot preserve determinism")
    }

    /// Non-blocking: the next finished plan, if one is already queued.
    /// Lets the commit thread fold plan buffering into the gaps between
    /// events instead of paying it on the transmission-end critical
    /// path.
    pub(crate) fn try_recv_plan(&mut self) -> Option<FlightPlan> {
        self.plans.try_recv().ok()
    }

    /// Shuts the workers down and reclaims their resources. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        for tx in &self.to_shards {
            let _ = tx.send(EdgeMessage::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LocalCommunicator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A frame in a worker's tile-local flight table.
#[derive(Debug, Clone, Copy)]
struct LocalFlight {
    seq: u64,
    pos: Point,
    start: SimTime,
    end: SimTime,
}

/// Static, read-only parameters a shard worker plans against.
#[derive(Debug, Clone)]
pub(crate) struct ShardParams {
    /// Device-to-device range, metres.
    pub(crate) d2d_range_m: f64,
    /// Device-to-gateway range, metres.
    pub(crate) gateway_range_m: f64,
    /// How long an ended flight stays interference-relevant.
    pub(crate) flight_retention: SimDuration,
}

/// One shard's worker: the tile-local membership grid and flight table,
/// and the plan computation (see the module docs). Runs on its own
/// thread under [`LocalCommunicator`].
#[derive(Debug)]
pub(crate) struct ShardWorker {
    id: usize,
    part: Arc<Partition>,
    /// The worker's own immutable copy of the mobility substrate.
    /// Withdrawals truncate trips only on the commit thread; a
    /// withdrawn bus may therefore linger in candidate supersets with a
    /// stale position, which the commit thread's liveness filter
    /// removes before any RNG draw.
    net: Arc<BusNetwork>,
    params: ShardParams,
    /// Gateways within `gateway_range + 1 m` of this shard's region,
    /// ascending by index (static superset; exact range re-checked per
    /// plan).
    gateways: Vec<(u32, Point)>,
    /// Trips below this index (the network sorts them by departure and
    /// numbers them in that order) are folded into `tracked`; the tail
    /// up to the query instant is side-scanned per plan, so membership
    /// never misses a bus that activated since the last barrier.
    cursor: usize,
    /// Barriers completed so far.
    barrier: u64,
    /// Tracked device positions as of the last barrier (`None` =
    /// untracked), indexed by node. Like `hints`, rows open on demand
    /// ([`ShardWorker::open_row`]): trips are numbered by departure and
    /// a worker only touches ids departed by the instant it is asked
    /// about, so both tables follow departures, not the timetable.
    tracked_pos: Vec<Option<Point>>,
    /// Tracked device ids (unordered; plans sort their candidates).
    tracked_ids: Vec<NodeId>,
    /// Spatial index over `tracked_ids` at barrier positions.
    grid: GridIndex<NodeId>,
    /// Per-device polyline cursors (worker-local; hints never change
    /// position values).
    hints: Vec<u32>,
    /// Tile-local flights, ascending by sequence (insertion order).
    flights: Vec<LocalFlight>,
    /// Early-arrived crossing batches for future barriers.
    stash: Vec<(u64, Vec<(NodeId, Point)>)>,
    scratch_overlaps: Vec<(u64, Point)>,
    /// Once-per-plan near-overlap cut for gateway receivers (within
    /// 2 × gateway range of the sender).
    scratch_near_gw: Vec<(u64, Point)>,
    /// Once-per-plan near-overlap cut for device receivers (within
    /// 2 × device range of the sender).
    scratch_near_dev: Vec<(u64, Point)>,
    scratch_ids: Vec<NodeId>,
}

impl ShardWorker {
    pub(crate) fn new(
        id: usize,
        part: Arc<Partition>,
        net: Arc<BusNetwork>,
        gateways: Vec<(u32, Point)>,
        params: ShardParams,
    ) -> ShardWorker {
        ShardWorker {
            id,
            part,
            net,
            params,
            gateways,
            cursor: 0,
            barrier: 0,
            tracked_pos: Vec::new(),
            tracked_ids: Vec::new(),
            grid: GridIndex::new(200.0_f64.max(0.0)),
            hints: Vec::new(),
            flights: Vec::new(),
            stash: Vec::new(),
            scratch_overlaps: Vec::new(),
            scratch_near_gw: Vec::new(),
            scratch_near_dev: Vec::new(),
            scratch_ids: Vec::new(),
        }
    }

    /// The worker thread body: drain edge messages until shutdown.
    fn run(
        mut self,
        rx: mpsc::Receiver<EdgeMessage>,
        peers: Vec<Option<mpsc::Sender<EdgeMessage>>>,
        plans: mpsc::Sender<FlightPlan>,
    ) {
        // Messages that arrived while a barrier was synchronizing, to be
        // replayed in order afterwards.
        let mut backlog: VecDeque<EdgeMessage> = VecDeque::new();
        loop {
            let msg = match backlog.pop_front() {
                Some(m) => m,
                None => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => return,
                },
            };
            match msg {
                EdgeMessage::FlightLaunched {
                    seq,
                    sender,
                    pos,
                    start,
                    end,
                    wants_plan,
                } => {
                    self.file_flight(seq, pos, start, end);
                    if wants_plan {
                        let mut plan = FlightPlan::default();
                        self.plan_into(&mut plan, seq, sender, pos, start, end);
                        if plans.send(plan).is_err() {
                            return;
                        }
                    }
                }
                EdgeMessage::Barrier { until } => {
                    if !self.advance_to(until, &peers, &rx, &mut backlog) {
                        return;
                    }
                }
                EdgeMessage::Crossing { barrier, devices } => {
                    // A peer raced ahead into a barrier this worker has
                    // not reached yet; hold the batch.
                    debug_assert!(barrier >= self.barrier);
                    self.stash.push((barrier, devices));
                }
                EdgeMessage::Shutdown => return,
            }
        }
    }

    /// Whether trip `k` exists and has departed by `t`.
    fn departs_by(&self, k: usize, t: SimTime) -> bool {
        self.net
            .trips()
            .get(k)
            .is_some_and(|trip| trip.depart() <= t)
    }

    /// Opens the per-id rows (untracked, a fresh polyline cursor) up to
    /// and including `n`, as `World::open_row` does on the commit side.
    fn open_row(&mut self, n: NodeId) {
        let rows = n.index() + 1;
        if rows > self.hints.len() {
            self.tracked_pos.resize(rows, None);
            self.hints.resize(rows, 0);
        }
    }

    /// Files a launched frame in the tile-local flight table.
    pub(crate) fn file_flight(&mut self, seq: u64, pos: Point, start: SimTime, end: SimTime) {
        debug_assert!(self.flights.last().is_none_or(|f| f.seq < seq));
        self.flights.push(LocalFlight {
            seq,
            pos,
            start,
            end,
        });
    }

    /// Starts tracking `n` at `pos`.
    pub(crate) fn track(&mut self, n: NodeId, pos: Point) {
        self.open_row(n);
        if self.tracked_pos[n.index()].is_some() {
            return;
        }
        self.tracked_pos[n.index()] = Some(pos);
        self.tracked_ids.push(n);
        self.grid.insert(n, pos);
    }

    /// Advances membership to the barrier time `until` and exchanges
    /// boundary-crossing buses with every peer. Returns `false` when
    /// the run is over (channels torn down).
    fn advance_to(
        &mut self,
        until: SimTime,
        peers: &[Option<mpsc::Sender<EdgeMessage>>],
        rx: &mpsc::Receiver<EdgeMessage>,
        backlog: &mut VecDeque<EdgeMessage>,
    ) -> bool {
        let halo = self.part.device_halo_m();
        // 1. Fold activations up to the barrier into the tracked set.
        while self.departs_by(self.cursor, until) {
            let n = NodeId::new(self.cursor as u32);
            self.cursor += 1;
            if self.net.trip(n).end() <= until {
                continue;
            }
            self.open_row(n);
            let pos = self
                .net
                .position_hinted(n, until, &mut self.hints[n.index()]);
            if self.part.shard_in_range(self.id, pos, halo) {
                self.track(n, pos);
            }
        }
        // 2. Refresh tracked positions; drop departures from the halo
        // region and statically ended trips; collect the crossing
        // announcement for every peer whose halo now contains a bus
        // whose tile this shard owns.
        let mut announce: Vec<Vec<(NodeId, Point)>> = vec![Vec::new(); peers.len()];
        let mut i = 0;
        while i < self.tracked_ids.len() {
            let n = self.tracked_ids[i];
            let old = self.tracked_pos[n.index()].expect("tracked device has a position");
            let ended = self.net.trip(n).end() <= until;
            let pos = self
                .net
                .position_hinted(n, until, &mut self.hints[n.index()]);
            if ended || !self.part.shard_in_range(self.id, pos, halo) {
                let removed = self.grid.remove(n, old);
                debug_assert!(removed, "tracked device missing from shard grid");
                self.tracked_pos[n.index()] = None;
                self.tracked_ids.swap_remove(i);
                continue;
            }
            let moved = self.grid.relocate(n, old, pos);
            debug_assert!(moved, "tracked device missing from shard grid");
            self.tracked_pos[n.index()] = Some(pos);
            if self.part.shard_of(pos) == self.id {
                for (s, peer) in peers.iter().enumerate() {
                    if peer.is_some() && self.part.shard_in_range(s, pos, halo) {
                        announce[s].push((n, pos));
                    }
                }
            }
            i += 1;
        }
        // 3. Flights that can no longer overlap any future subject are
        // done (every future subject starts at or after this barrier).
        let retention = self.params.flight_retention;
        self.flights.retain(|f| f.end + retention >= until);
        // 4. Exchange crossings: send one batch to every peer (empty or
        // not, so batches are countable), then collect one from each.
        for (s, peer) in peers.iter().enumerate() {
            if let Some(tx) = peer {
                let _ = tx.send(EdgeMessage::Crossing {
                    barrier: self.barrier,
                    devices: std::mem::take(&mut announce[s]),
                });
            }
        }
        let need = peers.iter().flatten().count();
        let mut got = 0;
        // Batches that arrived before this worker reached the barrier.
        let mut k = 0;
        while k < self.stash.len() {
            if self.stash[k].0 == self.barrier {
                let (_, devices) = self.stash.swap_remove(k);
                self.apply_crossing(devices);
                got += 1;
            } else {
                k += 1;
            }
        }
        while got < need {
            match rx.recv_timeout(RECV_TIMEOUT) {
                Ok(EdgeMessage::Crossing { barrier, devices }) => {
                    if barrier == self.barrier {
                        self.apply_crossing(devices);
                        got += 1;
                    } else {
                        self.stash.push((barrier, devices));
                    }
                }
                // Anything else replays in order once the barrier is
                // synchronized (plans must not be computed against
                // pre-barrier membership).
                Ok(other) => backlog.push_back(other),
                Err(_) => return false,
            }
        }
        self.barrier += 1;
        true
    }

    /// Applies one peer's crossing batch.
    fn apply_crossing(&mut self, devices: Vec<(NodeId, Point)>) {
        for (n, pos) in devices {
            self.track(n, pos);
        }
    }

    /// Fills the interferer scratches for one plan: `scratch_overlaps`
    /// holds the temporal overlaps, ascending by sequence (table
    /// insertion order) — the same predicate as
    /// `Channel::overlaps_into` — and `scratch_near_gw` /
    /// `scratch_near_dev` hold its once-per-plan near cuts: the
    /// overlaps close enough to the sender to be audible at *some*
    /// in-range gateway (2 × gateway range) or device receiver
    /// (2 × device range), by the triangle inequality (+1 m float
    /// margin). The per-receiver exact range check is unchanged, so
    /// consuming a cut is bit-identical to walking the full list; the
    /// subsets keep creation order, so interferer-slice order is
    /// untouched.
    fn collect_interferers(&mut self, pos: Point, start: SimTime, end: SimTime) {
        let mut overlaps = std::mem::take(&mut self.scratch_overlaps);
        overlaps.clear();
        overlaps.extend(
            self.flights
                .iter()
                .filter(|f| f.start < end && f.end > start)
                .map(|f| (f.seq, f.pos)),
        );
        let gw_reach = 2.0 * self.params.gateway_range_m + 1.0;
        let dev_reach = 2.0 * self.params.d2d_range_m + 1.0;
        let (gw_reach_sq, dev_reach_sq) = (gw_reach * gw_reach, dev_reach * dev_reach);
        let mut near_gw = std::mem::take(&mut self.scratch_near_gw);
        let mut near_dev = std::mem::take(&mut self.scratch_near_dev);
        near_gw.clear();
        near_dev.clear();
        for &(fseq, fpos) in &overlaps {
            let d_sq = fpos.distance_sq(pos);
            if d_sq <= gw_reach_sq {
                near_gw.push((fseq, fpos));
            }
            if d_sq <= dev_reach_sq {
                near_dev.push((fseq, fpos));
            }
        }
        self.scratch_overlaps = overlaps;
        self.scratch_near_gw = near_gw;
        self.scratch_near_dev = near_dev;
    }

    /// Fills `scratch_ids` with the sorted, deduped candidate-id
    /// superset: one batched sweep over the barrier-snapshot grid cells
    /// — the worker-side port of the serial engine's
    /// `World::batched_candidates`, running the coarse circle screen
    /// per contiguous bucket slice instead of materializing a
    /// `(id, position)` list first — plus the departures tail since the
    /// last barrier (buses that activated after the snapshot). The
    /// sort + dedup puts the union in canonical ascending-id order.
    fn collect_candidate_ids(&mut self, pos: Point, end: SimTime) {
        let r = self.params.d2d_range_m + self.part.query_slack_m();
        let r_sq = r * r;
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        self.grid.for_each_bucket_within(pos, r, |bucket| {
            for &(n, p) in bucket {
                if p.distance_sq(pos) <= r_sq {
                    ids.push(n);
                }
            }
        });
        let mut k = self.cursor;
        while self.departs_by(k, end) {
            ids.push(NodeId::new(k as u32));
            k += 1;
        }
        ids.sort_unstable();
        ids.dedup();
        self.scratch_ids = ids;
    }

    /// Computes the [`FlightPlan`] of a flight launched in this shard's
    /// tiles into `plan`, clearing whatever it held (see the module docs
    /// for why every filter below matches the serial engine's bit for
    /// bit). Interferer walks consume the once-per-plan near cuts;
    /// candidate discovery is one batched grid sweep
    /// ([`ShardWorker::collect_candidate_ids`]).
    pub(crate) fn plan_into(
        &mut self,
        plan: &mut FlightPlan,
        seq: u64,
        sender: NodeId,
        pos: Point,
        start: SimTime,
        end: SimTime,
    ) {
        let (d2d, gw_range) = (self.params.d2d_range_m, self.params.gateway_range_m);
        self.collect_interferers(pos, start, end);
        plan.seq = seq;
        plan.gateways.clear();
        plan.candidates.clear();
        plan.interferers.clear();
        // Gateways: static superset, ascending by index, exact range
        // re-check — the sequence `Delivery::gateways_in_range` yields
        // (outages are the commit thread's to filter). The near-gateway
        // cut is a superset of every in-range gateway's audible set.
        for &(gi, gw) in &self.gateways {
            if gw.distance(pos) > gw_range {
                continue;
            }
            let s = plan.interferers.len() as u32;
            for &(fseq, fpos) in &self.scratch_near_gw {
                let dist = gw.distance(fpos);
                if dist <= gw_range {
                    plan.interferers.push((fseq, dist));
                }
            }
            plan.gateways.push(PlannedGateway {
                gateway: gi,
                start: s,
                len: plan.interferers.len() as u32 - s,
            });
        }
        // Neighbour candidates: the barrier-snapshot grid (slack covers
        // drift since the barrier) plus buses that activated after it.
        self.collect_candidate_ids(pos, end);
        if let Some(&last) = self.scratch_ids.last() {
            self.open_row(last);
        }
        for i in 0..self.scratch_ids.len() {
            let n = self.scratch_ids[i];
            if n == sender {
                continue;
            }
            let pos_n = self.net.position_hinted(n, end, &mut self.hints[n.index()]);
            if pos_n.distance(pos) > d2d {
                continue;
            }
            let s = plan.interferers.len() as u32;
            for &(fseq, fpos) in &self.scratch_near_dev {
                let dist = pos_n.distance(fpos);
                if dist <= d2d {
                    plan.interferers.push((fseq, dist));
                }
            }
            plan.candidates.push(PlannedCandidate {
                node: n,
                pos: pos_n,
                start: s,
                len: plan.interferers.len() as u32 - s,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_slices_index_flat_storage() {
        let plan = FlightPlan {
            seq: 7,
            gateways: vec![PlannedGateway {
                gateway: 2,
                start: 1,
                len: 2,
            }],
            candidates: Vec::new(),
            interferers: vec![(5, 80.0), (6, 90.0), (7, 100.0)],
        };
        assert_eq!(plan.slice(1, 2), &[(6, 90.0), (7, 100.0)]);
        assert_eq!(plan.slice(0, 0), &[] as &[PlannedInterferer]);
    }

    #[test]
    fn local_communicator_shuts_down_cleanly_with_no_work() {
        let mut comm = LocalCommunicator::launch(Vec::new());
        assert_eq!(comm.num_shards(), 0);
        comm.shutdown();
        comm.shutdown(); // idempotent
    }

    #[test]
    fn worker_tables_follow_departures_not_the_timetable() {
        use mlora_mobility::{BusNetworkConfig, DiurnalProfile};
        let cfg = BusNetworkConfig {
            area_side_m: 10_000.0,
            num_routes: 24,
            max_active_buses: 200,
            horizon: SimDuration::from_hours(24),
            profile: DiurnalProfile::flat(1.0),
            ..BusNetworkConfig::default()
        };
        let net = Arc::new(BusNetwork::generate(&cfg, 2020));
        let airtime = SimDuration::from_millis(370);
        let part = Arc::new(Partition::new(
            net.area(),
            1,
            500.0,
            2_000.0,
            cfg.max_speed_mps,
            airtime,
        ));
        let params = ShardParams {
            d2d_range_m: 500.0,
            gateway_range_m: 2_000.0,
            flight_retention: SimDuration::from_secs(2),
        };
        let mut worker = ShardWorker::new(0, part, Arc::clone(&net), Vec::new(), params);
        assert!(worker.tracked_pos.is_empty() && worker.hints.is_empty());

        // A membership barrier at minute 20 (a lone shard has no peer
        // to wait for), then a plan for the last bus it tracked.
        let t = SimTime::from_secs(20 * 60);
        let (_tx, rx) = mpsc::channel();
        assert!(worker.advance_to(t, &[None], &rx, &mut VecDeque::new()));
        let sender = *worker.tracked_ids.last().expect("a bus is on the road");
        let pos = worker.tracked_pos[sender.index()].expect("tracked");
        let mut plan = FlightPlan::default();
        worker.plan_into(&mut plan, 0, sender, pos, t, t + airtime);

        let departed = net
            .trips()
            .partition_point(|trip| trip.depart() <= t + airtime);
        assert!(departed > 0 && departed < net.trips().len() / 10);
        assert!(worker.tracked_pos.len() <= departed, "tracked_pos rows");
        assert!(worker.hints.len() <= departed, "hint rows");
    }
}
