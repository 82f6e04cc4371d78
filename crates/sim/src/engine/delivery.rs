//! The sink side: gateway deployment, outage state, server-side
//! delivery and the run's metric collector.
//!
//! [`Delivery`] owns the gateways, filed once in a cell list that never
//! changes, the per-gateway outage depths (the only record of which
//! gateways are up) and the [`Collector`] every metric funnels into.
//! Gateway-side reception resolves through the shared [`Channel`] in
//! ascending gateway order, so the RNG draw order matches the
//! historical full-scan engine bit for bit.

use mlora_geo::{BBox, CellList, Point, Reach};
use mlora_mac::AppMessage;
use mlora_simcore::SimTime;

use super::channel::{Channel, Flight};
use super::EngineStats;
use crate::metrics::Collector;
use crate::observer::{GatewayOutageChanged, MessageDelivered, SimObserver};

/// The sink side of the world (see the module docs).
#[derive(Debug)]
pub(super) struct Delivery {
    /// The run's metric funnel.
    pub(super) collector: Collector,
    /// Gateway positions (index-stable for the whole run).
    gateways: Vec<Point>,
    /// Every gateway at its position, by gateway index, filed once at
    /// construction; outages leave it alone.
    cells: CellList,
    /// Per-gateway outage depth: 0 = in service. A depth (not a flag)
    /// so overlapping outage windows on one gateway compose.
    gateway_down_depth: Vec<u32>,
    /// Device-to-gateway range, with its exact squared bound.
    reach: Reach,
    /// Scratch: in-range gateway indices, ascending.
    scratch_gateways: Vec<u32>,
}

impl Delivery {
    /// The sink side of a network over `area`, every gateway in service.
    pub(super) fn new(
        gateways: Vec<Point>,
        area: BBox,
        gateway_range_m: f64,
        collector: Collector,
    ) -> Self {
        let mut cells = CellList::new(area, gateway_range_m.max(200.0));
        cells.rebuild((0u32..).zip(gateways.iter().copied()));
        let num_gateways = gateways.len();
        Delivery {
            collector,
            gateways,
            cells,
            gateway_down_depth: vec![0; num_gateways],
            reach: Reach::new(gateway_range_m),
            scratch_gateways: Vec::new(),
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
    pub(super) fn gateways_in_range(&self, pos: Point, out: &mut Vec<u32>) {
        let reach = self.reach;
        out.clear();
        // The metre of slack keeps rounding at a cell edge from hiding a
        // gateway the exact test below keeps.
        self.cells
            .for_each_slice_within(pos, reach.range() + 1.0, |run| {
                out.extend(
                    run.iter()
                        .filter(|&&(g, gw)| {
                            self.gateway_down_depth[g as usize] == 0
                                && reach.contains_sq(gw.distance_sq(pos))
                        })
                        .map(|&(g, _)| g),
                );
            });
        // Ascending index is the historical full scan's order, and with
        // it the order of the RNG draws. Do not remove the sort.
        out.sort_unstable();
    }

    /// Resolves reception of `flight` at every in-service gateway in
    /// range of its sender; see [`Channel::receive`] for `overlaps` and
    /// `stats`.
    /// Returns the best RSSI among gateways that decoded this flight, if
    /// any. Lost-to-interference receptions are counted on the
    /// collector.
    pub(super) fn resolve_gateways(
        &mut self,
        channel: &mut Channel,
        overlaps: &[(u64, Point)],
        flight: &Flight,
        stats: &mut EngineStats,
    ) -> Option<f64> {
        let mut receivers = std::mem::take(&mut self.scratch_gateways);
        self.gateways_in_range(flight.pos, &mut receivers);
        let mut best: Option<f64> = None;
        for &gi in &receivers {
            let gw = self.gateways[gi as usize];
            let reception = channel.receive(overlaps, gw, self.reach, flight.seq, stats);
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
        self.scratch_gateways = receivers;
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

    /// Restores checkpointed outage depths *silently* — no collector
    /// bookkeeping, no observer events: the checkpoint's collector
    /// already carries the outage history, and the outage-start events
    /// fired before the snapshot.
    pub(super) fn restore_outages(&mut self, depths: Vec<u32>) {
        self.gateway_down_depth = depths;
    }

    /// The premises of the sink side's state, which a resume relies on:
    /// one outage depth per gateway; the collector counting as many
    /// outages open as there are gateways down (it counts a gateway when
    /// it goes down and when it comes back); and its counts of messages
    /// delivered and generated during an outage being the sizes of the
    /// sets it keeps of them.
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
    pub(super) fn check(&self) -> Result<(), &'static str> {
        if self.gateway_down_depth.len() != self.gateways.len() {
            return Err("gateway count mismatch");
        }
        let down = self.gateway_down_depth.iter().filter(|&&d| d > 0).count();
        let c = &self.collector;
        if c.outage_depth as usize != down {
            return Err("outage depth is not the gateways down");
        }
        if c.report.delivered != c.arrived.len() as u64 {
            return Err("delivered count is not the messages arrived");
        }
        if c.report.generated_during_outage != c.outage_generated.len() as u64 {
            return Err("outage count is not the messages generated during outages");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::TrafficModel;
    use mlora_simcore::{SimDuration, SimRng};
    use proptest::prelude::*;

    fn collector() -> Collector {
        Collector::new(
            "test".to_string(),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            &TrafficModel::default(),
        )
    }

    /// Each premise of [`Delivery::check`] on its own.
    #[test]
    fn check_refuses_depths_the_collector_does_not_count() {
        let area = BBox::square(Point::ORIGIN, 1_000.0);
        let mut delivery = Delivery::new(vec![Point::ORIGIN; 3], area, 500.0, collector());
        delivery.gateway_down(1, SimTime::ZERO, &mut NullObserver);
        assert_eq!(delivery.check(), Ok(()));
        delivery.restore_outages(vec![0, 1]);
        assert_eq!(delivery.check(), Err("gateway count mismatch"));
        delivery.restore_outages(vec![1, 1, 0]);
        assert_eq!(
            delivery.check(),
            Err("outage depth is not the gateways down")
        );
    }

    proptest! {
        /// The gateway query against brute force: over arbitrary layouts
        /// (points inside the area, on cell edges and outside it),
        /// arbitrary outage depths — restored from a checkpoint, then
        /// raised and lowered by outages and recoveries — and query
        /// points anywhere, `gateways_in_range` returns exactly the
        /// in-service gateways in range, ascending.
        #[test]
        fn gateway_query_matches_brute_force(
            seed in 0u64..1 << 48,
            side in 500.0f64..30_000.0,
            range_m in 50.0f64..3_000.0,
            count in 0usize..60,
            down_share in 0.0f64..1.0,
        ) {
            let mut pick = SimRng::new(seed);
            let cell = range_m.max(200.0);
            let edges = (side / cell) as u64 + 2;
            // Inside the area, on a cell edge, or up to two ranges outside.
            let coord = |pick: &mut SimRng| match pick.gen_range_u64(0, 3) {
                0 => pick.gen_range_f64(0.0, side),
                1 => cell * pick.gen_range_u64(0, edges) as f64,
                _ => {
                    let beyond = pick.gen_range_f64(0.0, 2.0 * range_m);
                    if pick.gen_bool(0.5) { -beyond } else { side + beyond }
                }
            };
            let gateways: Vec<Point> = (0..count)
                .map(|_| Point::new(coord(&mut pick), coord(&mut pick)))
                .collect();
            let mut depths: Vec<u32> = (0..count)
                .map(|_| if pick.gen_bool(down_share) { pick.gen_range_u64(1, 3) as u32 } else { 0 })
                .collect();
            let area = BBox::square(Point::ORIGIN, side);
            let mut delivery = Delivery::new(gateways.clone(), area, range_m, collector());
            delivery.restore_outages(depths.clone());
            // Outages on top, and recoveries from about half of them, as
            // a plan would schedule them.
            let downed: Vec<u32> = (0..count.min(10))
                .map(|_| pick.gen_range_u64(0, count as u64) as u32)
                .collect();
            for &g in &downed {
                delivery.gateway_down(g, SimTime::ZERO, &mut NullObserver);
                depths[g as usize] += 1;
            }
            for &g in downed.iter().filter(|_| pick.gen_bool(0.5)) {
                delivery.gateway_up(g, SimTime::ZERO, &mut NullObserver);
                depths[g as usize] -= 1;
            }
            let mut got = Vec::new();
            for _ in 0..40 {
                // Anywhere, or exactly one range east of a gateway.
                let p = if count > 0 && pick.gen_bool(0.2) {
                    let gw = gateways[pick.gen_range_u64(0, count as u64) as usize];
                    Point::new(gw.x + range_m, gw.y)
                } else {
                    Point::new(coord(&mut pick), coord(&mut pick))
                };
                delivery.gateways_in_range(p, &mut got);
                let want: Vec<u32> = (0u32..)
                    .zip(&gateways)
                    .filter(|&(g, gw)| depths[g as usize] == 0 && gw.distance(p) <= range_m)
                    .map(|(g, _)| g)
                    .collect();
                prop_assert_eq!(&got, &want, "query at {:?}", p);
            }
            prop_assert_eq!(delivery.outage_depths(), &depths[..]);
        }
    }
}
