//! The forwarding layer: beacon overhearing, policy dispatch, handover
//! acceptance and sender settlement.
//!
//! Every decision here goes through the device's
//! [`RoutingState`](mlora_core::RoutingState), which dispatches to the
//! pluggable [`ForwardingPolicy`](mlora_core::ForwardingPolicy) the
//! scenario configured — the paper's built-in schemes and user-defined
//! policies ride exactly the same code path.
//!
//! `Engine::on_tx_end` finds the receivers with a cell-list query and hands
//! them to [`Engine::resolve_neighbours`] in canonical order; from
//! there the state-dependent admission filters
//! ([`Engine::neighbour_admitted`]), the reception itself
//! ([`Channel::receive`](super::channel::Channel::receive)), the policy
//! dispatch ([`Engine::apply_reception`]) and the sender's settlement
//! ([`Engine::settle_sender`]) follow.
//!
//! Policy dispatch is screened. A decoded beacon can make its receiver
//! offer data only while the receiver's queue is non-empty and no offer
//! is armed: otherwise `RoutingState::decide` keeps without a policy
//! hook, or the armed offer wins. The world's hot columns hold that
//! condition as a derived bit, so a receiver whose bit is clear returns
//! before its device row is fetched. The skipped path drew no RNG,
//! called no hook and wrote nothing, so the screen is invisible to
//! reports and to custom policies alike. `EngineStats` counts the
//! beacons decoded and the decisions that passed the screen.
//!
//! A reception says whether the frame decoded; how strongly is a
//! deferred value ([`Strength`](super::channel::Strength)) that
//! `apply_reception` hands to the policy as an unevaluated
//! [`Rssi`](mlora_phy::Rssi). Whether the channel model's logarithms
//! are ever taken for an overheard beacon is therefore the policy's
//! choice: the greedy schemes read the value for Eq. 5–6, ROBC and the
//! baseline do not.

use mlora_core::{Beacon, ForwardDecision};
use mlora_geo::Point;
use mlora_simcore::NodeId;

use super::channel::{Flight, Reception};
use super::Engine;
use crate::observer::{HandoverAccepted, SimObserver};

impl Engine {
    /// Resolves overhearing at every active neighbour. `receivers` is
    /// the geometric prefilter's output — sender-excluded,
    /// exact-range-filtered `(id, position)` pairs in ascending id order
    /// (see [`World::batched_candidates`](super::world::World); see
    /// [`Channel::receive`](super::channel::Channel::receive) for
    /// `overlaps`) — so this loop is pure admission + collision
    /// resolution. Returns whether the handover target decoded the
    /// frame; devices that need a new transmission opportunity are
    /// appended to `to_schedule`.
    pub(super) fn resolve_neighbours(
        &mut self,
        flight: &Flight,
        receivers: &[(NodeId, Point)],
        overlaps: &[(u64, Point)],
        to_schedule: &mut Vec<NodeId>,
        observer: &mut dyn SimObserver,
    ) -> bool {
        let d2d = self.world.reach();
        let mut accepted = false;

        for &(x, pos_x) in receivers {
            if !self.neighbour_admitted(x, flight) {
                continue;
            }
            // Collision resolution at x, under any regional noise at
            // its position.
            let reception = self
                .channel
                .receive(overlaps, pos_x, d2d, flight.seq, &mut self.stats);
            self.apply_reception(flight, x, reception, to_schedule, observer, &mut accepted);
        }
        accepted
    }

    /// The state-dependent admission filters every reception candidate
    /// passes after the geometric prefilter: liveness, half-duplex and
    /// device-class receive windows. Draw-free, so rejected candidates
    /// leave no trace on the RNG stream.
    ///
    /// Reads only the world's hot columns — a handful of contiguous
    /// loads per candidate, no device-map lookup. The device class is
    /// scenario-uniform, so it comes from the configuration rather than
    /// a per-device field.
    fn neighbour_admitted(&self, x: NodeId, flight: &Flight) -> bool {
        let i = x.index();
        let hot = &self.world.hot;
        if !hot.active[i] {
            return false;
        }
        // Half-duplex: a device transmitting during any part of the
        // frame cannot receive it.
        if let Some((s, e)) = hot.tx_window[i] {
            if s < flight.end && e > flight.start {
                return false;
            }
        }
        self.cfg.device_class.overhears(
            self.now,
            hot.last_tx_end[i],
            self.cfg.gen_interval,
            hot.gamma[i],
        )
    }

    /// Applies one neighbour's reception outcome: handover acceptance
    /// when `x` is the flight's target, beacon-driven policy dispatch
    /// otherwise, collision accounting when the frame was lost to
    /// interference.
    fn apply_reception(
        &mut self,
        flight: &Flight,
        x: NodeId,
        reception: Reception,
        to_schedule: &mut Vec<NodeId>,
        observer: &mut dyn SimObserver,
        accepted: &mut bool,
    ) {
        let now = self.now;
        let Some(strength) = reception.rssi else {
            if reception.interfered {
                self.delivery.collector.on_collision();
            }
            return;
        };

        if flight.target == Some(x) {
            // Accept the handover: enqueue the bundle, bar the donor,
            // try to move the data onwards.
            let dev = self.world.devices.get_mut(x).expect("neighbour exists");
            let dropped = dev.queue.push_bundle(&flight.frame.messages);
            self.world.hot.set_may_offer(x.index(), dev.may_offer());
            if dropped > 0 {
                self.delivery.collector.on_queue_drop(dropped);
            }
            dev.routing.on_received_data(flight.sender);
            self.delivery
                .collector
                .on_handover_accepted(&flight.frame.messages);
            observer.on_forward(&HandoverAccepted {
                time: now,
                donor: flight.sender,
                acceptor: x,
                messages: flight.frame.messages.len(),
            });
            *accepted = true;
            // The acceptor holds the data until its own next slot
            // (§V.B.2); it does not transmit reactively.
        } else {
            // Treat as a beacon: should x hand its own data to the
            // flight's sender? Only if x may offer (see the module
            // docs): an empty queue keeps, and an already-armed offer
            // wins, so stateful policies never spend budget on a
            // decision that would be discarded. (Built-in policies are
            // pure and draw no RNG, so skipping the call is
            // bit-identical to the historical always-decide path.)
            self.stats.beacons_decoded += 1;
            if !self.world.hot.may_offer(x.index()) {
                return;
            }
            self.stats.policy_decisions += 1;
            let beacon = Beacon {
                sender: flight.sender,
                rca_etx: flight.frame.rca_etx,
                queue_len: flight.frame.queue_len,
            };
            let dev = self.world.devices.get_mut(x).expect("neighbour exists");
            let wait_s = dev
                .duty
                .next_opportunity(now)
                .saturating_since(now)
                .as_secs_f64();
            // Handed over unevaluated: only a policy that reads the
            // strength pays for its logarithms (see the module docs).
            let rssi = self.channel.rssi(strength);
            let decision = dev
                .routing
                .decide(now, wait_s, dev.queue.len(), &beacon, rssi);
            if let ForwardDecision::Forward { target, count } = decision {
                dev.pending_handover = Some((target, count));
                self.world.hot.set_may_offer(x.index(), false);
                to_schedule.push(x);
            }
        }
    }

    /// Applies the transmission outcome to the sender: queue updates,
    /// metric observation, retransmission bookkeeping, follow-up
    /// scheduling.
    pub(super) fn settle_sender(
        &mut self,
        flight: &Flight,
        gateway_rssi: Option<f64>,
        accepted_by_target: bool,
        observer: &mut dyn SimObserver,
    ) {
        // Deliver to the server first (instant backhaul).
        if gateway_rssi.is_some() {
            self.delivery
                .deliver(&flight.frame.messages, self.now, observer);
        }
        let capacity = gateway_rssi.map(|r| self.cfg.capacity.capacity_bps(r));
        let sender = flight.sender;
        let Some(dev) = self.world.devices.get_mut(sender) else {
            return;
        };
        let wait_s = dev
            .duty
            .next_opportunity(self.now)
            .saturating_since(self.now)
            .as_secs_f64();

        let is_handover = flight.target.is_some();
        let delivered_somewhere = gateway_rssi.is_some() || accepted_by_target;
        if delivered_somewhere {
            // Instant-ACK assumption (§VII.A.5): remove the bundle.
            dev.queue.remove(&flight.frame.messages);
            self.world
                .hot
                .set_may_offer(sender.index(), dev.may_offer());
        }

        if is_handover {
            // Handover slots are not device-to-sink slots; only a lucky
            // gateway decode counts as contact (and clears the ledger).
            if let Some(cap) = capacity {
                dev.routing.on_sink_slot(self.now, Some(cap), wait_s);
                dev.retransmit.reset();
            }
        } else {
            dev.routing.on_sink_slot(self.now, capacity, wait_s);
            if gateway_rssi.is_some() {
                dev.retransmit.reset();
            } else if !dev.retransmit.record_failure() {
                // Retransmission budget exhausted (§VII.A.5): the backlog
                // holds until the next generation resets the counter.
                return;
            }
        }
        // Anything still queued — a failed bundle awaiting its duty-timer
        // retry, or backlog beyond the 12-message bundle — goes out at the
        // next legal opportunity. Draining at the duty-cycle service rate
        // (not the generation rate) is what gives well-connected relays
        // their higher RGQ service rate φ.
        if self.world.hot.active[sender.index()] && !dev.queue.is_empty() {
            self.maybe_schedule_tx(sender);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use mlora_core::{Beacon, ForwardingPolicy, PolicyContext, PolicySpec, Rssi, Scheme};
    use mlora_simcore::{NodeId, SimTime};

    use crate::engine::Engine;
    use crate::Scenario;

    /// A scheme's policy that counts the `forwards` calls it answers.
    #[derive(Debug)]
    struct Counting {
        inner: Box<dyn ForwardingPolicy>,
        calls: Arc<AtomicU64>,
    }

    impl ForwardingPolicy for Counting {
        fn label(&self) -> &str {
            self.inner.label()
        }

        fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
            Box::new(Counting {
                inner: self.inner.clone_box(),
                calls: Arc::clone(&self.calls),
            })
        }

        fn beacon_metric(&self, ctx: &PolicyContext<'_>) -> f64 {
            self.inner.beacon_metric(ctx)
        }

        fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, rssi: Rssi<'_>) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.forwards(ctx, beacon, rssi)
        }

        fn transfer_amount(&self, ctx: &PolicyContext<'_>, beacon: &Beacon) -> usize {
            self.inner.transfer_amount(ctx, beacon)
        }

        fn on_sink_slot(&mut self, t: SimTime, capacity_bps: Option<f64>, wait_s: f64) {
            self.inner.on_sink_slot(t, capacity_bps, wait_s);
        }

        fn on_received_data(&mut self, donor: NodeId) {
            self.inner.on_received_data(donor);
        }
    }

    /// The offer-bit screen is invisible to policies: a custom policy
    /// is asked `forwards` exactly once per decision that passed the
    /// screen, and a run through it reports what the built-in scheme
    /// does.
    #[test]
    fn screen_is_invisible_to_policies() {
        for scheme in [Scheme::Robc, Scheme::NoRouting] {
            let calls = Arc::new(AtomicU64::new(0));
            let counting = PolicySpec::of(Counting {
                inner: scheme.policy(),
                calls: Arc::clone(&calls),
            });
            let cfg = Scenario::urban().smoke().scheme(counting).build().unwrap();
            let mut engine = Engine::new(cfg, 7);
            engine.run_until(SimTime::MAX);
            let stats = engine.stats();
            let report = engine.finish();
            let builtin = Scenario::urban().smoke().scheme(scheme).build().unwrap();
            assert_eq!(report, Engine::new(builtin, 7).run(), "{scheme:?}");

            assert!(stats.policy_decisions > 0, "{scheme:?}: no decision taken");
            assert_eq!(calls.load(Ordering::Relaxed), stats.policy_decisions);
            assert!(stats.policy_decisions <= stats.beacons_decoded);
        }
    }
}
