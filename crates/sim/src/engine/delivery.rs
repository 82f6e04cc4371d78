//! The sink side: gateway deployment, outage state, server-side
//! delivery and the run's metric collector.
//!
//! [`Delivery`] owns the static gateway grid (incrementally mutated by
//! scripted outages/recoveries), the per-gateway outage depths and the
//! [`Collector`] every metric funnels into. Gateway-side reception
//! resolves through the shared [`Channel`] so the RNG draw order matches
//! the historical full-scan engine bit for bit.

use mlora_geo::{BBox, GridIndex, Point};
use mlora_mac::AppMessage;
use mlora_simcore::SimTime;

use super::channel::{Channel, Flight};
use crate::metrics::Collector;
use crate::observer::{GatewayOutageChanged, MessageDelivered, SimObserver};

/// The sink side of the world (see the module docs).
#[derive(Debug)]
pub(super) struct Delivery {
    /// The run's metric funnel.
    pub(super) collector: Collector,
    /// Gateway positions (index-stable for the whole run).
    gateways: Vec<Point>,
    /// Static spatial index over gateway positions (by gateway index);
    /// downed gateways are removed and re-inserted on recovery.
    gateway_grid: GridIndex<u32>,
    /// Per-gateway outage depth: 0 = in service. A depth (not a flag)
    /// so overlapping outage windows on one gateway compose.
    gateway_down_depth: Vec<u32>,
    /// Device-to-gateway range, metres.
    gateway_range_m: f64,
    /// Scratch: raw gateway-grid query output.
    scratch_within_gw: Vec<(u32, Point)>,
}

impl Delivery {
    pub(super) fn new(gateways: Vec<Point>, gateway_range_m: f64, collector: Collector) -> Self {
        let gateway_grid = GridIndex::build(
            gateways.iter().enumerate().map(|(i, &p)| (i as u32, p)),
            gateway_range_m.max(200.0),
        );
        let num_gateways = gateways.len();
        Delivery {
            collector,
            gateways,
            gateway_grid,
            gateway_down_depth: vec![0; num_gateways],
            gateway_range_m,
            scratch_within_gw: Vec::new(),
        }
    }

    /// The gateway positions in use.
    pub(super) fn gateways(&self) -> &[Point] {
        &self.gateways
    }

    /// Which gateways are in service: `true` means up.
    pub(super) fn gateways_up(&self) -> Vec<bool> {
        self.gateway_down_depth.iter().map(|&d| d == 0).collect()
    }

    /// Applies a scripted gateway failure; depth counting makes
    /// overlapping windows compose.
    pub(super) fn gateway_down(
        &mut self,
        gateway: u32,
        now: SimTime,
        observer: &mut dyn SimObserver,
    ) {
        let g = gateway as usize;
        self.gateway_down_depth[g] += 1;
        if self.gateway_down_depth[g] == 1 {
            let removed = self.gateway_grid.remove(gateway, self.gateways[g]);
            debug_assert!(removed, "downed gateway missing from grid");
            self.collector.on_gateway_down(now);
            observer.on_gateway_outage(&GatewayOutageChanged {
                time: now,
                gateway,
                down: true,
            });
        }
    }

    /// Applies a scripted gateway recovery.
    pub(super) fn gateway_up(
        &mut self,
        gateway: u32,
        now: SimTime,
        observer: &mut dyn SimObserver,
    ) {
        let g = gateway as usize;
        // A plan never schedules a recovery without its outage; a forged
        // snapshot can file one twice, and the second is a no-op.
        let Some(depth) = self.gateway_down_depth[g].checked_sub(1) else {
            return;
        };
        self.gateway_down_depth[g] = depth;
        if depth == 0 {
            self.gateway_grid.insert(gateway, self.gateways[g]);
            self.collector.on_gateway_up(now);
            observer.on_gateway_outage(&GatewayOutageChanged {
                time: now,
                gateway,
                down: false,
            });
        }
    }

    /// Gateway discovery: fills `out` with the in-service gateways
    /// within range of `pos`, ascending by index.
    pub(super) fn gateways_in_range(&mut self, pos: Point, out: &mut Vec<u32>) {
        let range = self.gateway_range_m;
        // Gateways are static: the grid narrows the scan to the cells
        // around the sender. Grid order is (cell key, id) — id-sorted
        // only *within* each cell — so the explicit sort below restores
        // the historical full-scan iteration order (and the exact range
        // check re-applies); RNG draw order matches a full scan bit for
        // bit. Do not remove the sort.
        self.gateway_grid
            .within_into(pos, range + 1.0, &mut self.scratch_within_gw);
        out.clear();
        out.extend(self.scratch_within_gw.iter().map(|&(i, _)| i));
        out.sort_unstable();
        out.retain(|&gi| self.gateways[gi as usize].distance(pos) <= range);
    }

    /// Resolves reception at every gateway of `receivers` — the output
    /// of [`Delivery::gateways_in_range`]; see [`Channel::receive`] for
    /// `overlaps`. Returns the best RSSI among gateways that decoded
    /// this flight, if any. Lost-to-interference receptions are counted
    /// on the collector.
    pub(super) fn resolve_gateways(
        &mut self,
        channel: &mut Channel,
        receivers: &[u32],
        overlaps: &[(u64, Point)],
        flight: &Flight,
    ) -> Option<f64> {
        let range = self.gateway_range_m;
        let mut best: Option<f64> = None;
        for &gi in receivers {
            let gw = self.gateways[gi as usize];
            let reception = channel.receive(overlaps, gw, range, flight.seq);
            match reception.rssi {
                // The best decoder's strength sets the sender's observed
                // capacity, so a gateway always reads the value.
                Some(strength) => {
                    let rssi = channel.rssi(strength).dbm();
                    best = Some(best.map_or(rssi, |b: f64| b.max(rssi)));
                }
                None if reception.interfered => self.collector.on_collision(),
                None => {}
            }
        }
        best
    }

    /// Records server reception of a decoded bundle (instant backhaul):
    /// one delivery event per unique message, duplicates filtered by the
    /// collector.
    pub(super) fn deliver(
        &mut self,
        messages: &[AppMessage],
        now: SimTime,
        observer: &mut dyn SimObserver,
    ) {
        for msg in messages {
            if let Some((delay, hops)) = self.collector.on_delivered(msg, now) {
                observer.on_delivery(&MessageDelivered {
                    time: now,
                    message: msg.id,
                    origin: msg.origin,
                    delay,
                    hops,
                });
            }
        }
    }

    /// Per-gateway outage depths — checkpoint counterpart of
    /// [`Delivery::restore_outages`].
    pub(super) fn outage_depths(&self) -> &[u32] {
        &self.gateway_down_depth
    }

    /// Restores checkpointed outage depths, pulling downed gateways out
    /// of the grid *silently* — no collector bookkeeping, no observer
    /// events: the checkpoint's collector already carries the outage
    /// history, and the outage-start events fired before the snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `depths` does not cover every gateway.
    pub(super) fn restore_outages(&mut self, depths: Vec<u32>) {
        assert_eq!(depths.len(), self.gateways.len(), "outage depth count");
        for (g, &depth) in depths.iter().enumerate() {
            if depth > 0 {
                let removed = self.gateway_grid.remove(g as u32, self.gateways[g]);
                debug_assert!(removed, "downed gateway missing from grid");
            }
        }
        self.gateway_down_depth = depths;
    }

    /// Verifies that the incrementally maintained gateway grid matches a
    /// from-scratch rebuild over the gateways currently in service —
    /// the invariant the outage/recovery mutation paths preserve.
    pub(super) fn grid_matches_rebuild(&self, area: BBox) -> bool {
        let cell = self.gateway_range_m.max(200.0);
        let rebuilt = GridIndex::build(
            self.gateways
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.gateway_down_depth[i] == 0)
                .map(|(i, &p)| (i as u32, p)),
            cell,
        );
        // A query covering the whole area yields membership in canonical
        // (cell key, id) order for both grids.
        let radius = area.width().max(area.height()) + cell;
        let mut live: Vec<(u32, Point)> = Vec::new();
        let mut fresh: Vec<(u32, Point)> = Vec::new();
        self.gateway_grid
            .within_into(area.center(), radius, &mut live);
        rebuilt.within_into(area.center(), radius, &mut fresh);
        live == fresh && self.gateway_grid.len() == rebuilt.len()
    }
}
