//! Per-device routing state and the three forwarding schemes (§VII.A.7).

use mlora_phy::{CapacityModel, Rssi};
use mlora_simcore::{NodeId, SimTime};

use mlora_mac::MAX_BUNDLE;

use crate::{CaEtxEstimator, DonorLedger, ForwardingPolicy, PolicyContext, RcaEtxEstimator, Rgq};

/// The three data-forwarding schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain LoRaWAN with the application-layer queue but no
    /// device-to-device forwarding — the paper's baseline.
    NoRouting,
    /// Greedy handover by the Eq. 1 RCA-ETX comparison (§IV).
    RcaEtx,
    /// Real-time opportunistic backpressure collection (§V).
    Robc,
    /// The prior-work CA-ETX comparator (§III.C): the same greedy rule as
    /// [`Scheme::RcaEtx`] but driven by long-term contact statistics that
    /// cannot react to the current disconnection gap.
    CaEtx,
}

impl Scheme {
    /// The paper's three evaluated schemes, in figure order.
    pub const ALL: [Scheme; 3] = [Scheme::NoRouting, Scheme::RcaEtx, Scheme::Robc];

    /// The evaluated schemes plus the CA-ETX comparator, for the
    /// staleness ablation.
    pub const WITH_CA_ETX: [Scheme; 4] = [
        Scheme::NoRouting,
        Scheme::CaEtx,
        Scheme::RcaEtx,
        Scheme::Robc,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::NoRouting => "LoRaWAN",
            Scheme::RcaEtx => "RCA-ETX",
            Scheme::Robc => "ROBC",
            Scheme::CaEtx => "CA-ETX",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The routing metadata a device piggybacks on every uplink and that
/// neighbours overhear (§IV.A, §V.B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beacon {
    /// The broadcasting device.
    pub sender: NodeId,
    /// Sender's node-to-sink RCA-ETX, seconds.
    pub rca_etx: f64,
    /// Sender's queue length, messages.
    pub queue_len: usize,
}

/// What a device does with its queue after overhearing a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Hold the data until the next own opportunity.
    Keep,
    /// Hand over `count` messages to `target`.
    Forward {
        /// The opportunistic next hop.
        target: NodeId,
        /// Messages to transfer (bounded by the backlog and by
        /// [`MAX_BUNDLE`]).
        count: usize,
    },
}

/// What a scenario sets for every device's [`RoutingState`]. The rest
/// is fixed: frames of [`PACKET_BITS`](crate::PACKET_BITS), the [`Rgq::PAPER`] bounds, and
/// handovers of at most [`MAX_BUNDLE`] messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// EWMA smoothing factor α of Eq. 4 (paper evaluation: 0.5).
    pub alpha: f64,
    /// The Eq. 5 RSSI→capacity map.
    pub capacity: CapacityModel,
}

impl RoutingConfig {
    /// The paper's evaluation setting: α = 0.5 and the default capacity
    /// map.
    pub fn paper_default() -> Self {
        RoutingConfig {
            alpha: 0.5,
            capacity: CapacityModel::paper_default(),
        }
    }
}

/// One device's complete routing brain: the RCA-ETX and CA-ETX
/// estimators, the ROBC donor ledger, and the pluggable
/// [`ForwardingPolicy`] whose hooks its decisions call.
///
/// [`RoutingState::new`] plugs in any policy — a paper scheme's
/// ([`Scheme::policy`]) or a user-defined one. The shared machinery
/// (estimators, ledger) is owned here and updated on every hook *before*
/// the policy sees it, so every policy — built-in or custom — observes
/// the same world.
///
/// The embedding simulator calls:
///
/// * [`RoutingState::on_sink_slot`] after every device-to-sink uplink
///   attempt (success or failure) — updates the metric and clears the
///   anti-loop ledger (a sink-forwarding opportunity occurred);
/// * [`RoutingState::on_received_data`] when accepting a handover;
/// * [`RoutingState::decide`] when overhearing a neighbour's beacon —
///   the one place the policy's predicate and amount are composed into
///   a [`ForwardDecision`].
#[derive(Debug)]
pub struct RoutingState {
    /// The scenario's capacity map; `alpha` lives in the estimator.
    capacity: CapacityModel,
    estimator: RcaEtxEstimator,
    ca_estimator: CaEtxEstimator,
    ledger: DonorLedger,
    policy: Box<dyn ForwardingPolicy>,
}

impl Clone for RoutingState {
    fn clone(&self) -> Self {
        RoutingState {
            capacity: self.capacity,
            estimator: self.estimator,
            ca_estimator: self.ca_estimator,
            ledger: self.ledger.clone(),
            policy: self.policy.clone_box(),
        }
    }
}

impl RoutingState {
    /// Creates the routing state for one device running `policy` under
    /// `config`.
    pub fn new(config: RoutingConfig, policy: Box<dyn ForwardingPolicy>) -> Self {
        RoutingState {
            estimator: RcaEtxEstimator::new(config.alpha),
            ca_estimator: CaEtxEstimator::new(),
            ledger: DonorLedger::new(),
            policy,
            capacity: config.capacity,
        }
    }

    /// The active forwarding policy.
    pub fn policy(&self) -> &dyn ForwardingPolicy {
        self.policy.as_ref()
    }

    /// The routing brain's raw state `(estimator, ca_estimator, ledger)`
    /// — the checkpoint counterpart of [`RoutingState::from_raw_parts`].
    /// The config and policy are not included: built-in policies are
    /// stateless values reconstructible from the scheme, so a checkpoint
    /// stores only the scenario configuration they derive from.
    pub fn raw_parts(&self) -> (RcaEtxEstimator, CaEtxEstimator, &DonorLedger) {
        (self.estimator, self.ca_estimator, &self.ledger)
    }

    /// Rebuilds a routing state running `policy` under `config`, with
    /// the estimator/ledger state captured by
    /// [`RoutingState::raw_parts`].
    pub fn from_raw_parts(
        config: RoutingConfig,
        policy: Box<dyn ForwardingPolicy>,
        estimator: RcaEtxEstimator,
        ca_estimator: CaEtxEstimator,
        ledger: DonorLedger,
    ) -> Self {
        RoutingState {
            capacity: config.capacity,
            estimator,
            ca_estimator,
            ledger,
            policy,
        }
    }

    /// Records the outcome of a device-to-sink slot: `capacity_bps` is
    /// `Some` with the observed capacity when a gateway acknowledged,
    /// `None` otherwise. `wait_s` is the duty-cycle wait an immediate
    /// retry would face. Clears the donor ledger — this slot *was* the
    /// next sink-forwarding opportunity — then forwards the observation
    /// to the policy's own hook.
    pub fn on_sink_slot(&mut self, t: SimTime, capacity_bps: Option<f64>, wait_s: f64) {
        self.estimator.observe(t, capacity_bps, wait_s);
        self.ca_estimator.observe(t, capacity_bps);
        self.ledger.clear_on_sink_opportunity();
        self.policy.on_sink_slot(t, capacity_bps, wait_s);
    }

    /// Records acceptance of a handover from `donor` (anti-loop rule),
    /// then forwards the event to the policy's own hook.
    pub fn on_received_data(&mut self, donor: NodeId) {
        self.ledger.record_donor(donor);
        self.policy.on_received_data(donor);
    }

    /// The metric this device piggybacks on its uplinks, as chosen by
    /// the policy's [`beacon_metric`](ForwardingPolicy::beacon_metric)
    /// hook: CA-ETX under [`Scheme::CaEtx`], RCA-ETX for the other
    /// built-ins. `now` is the composition time and `queue_len` the
    /// device's backlog, for policies whose beaconed metric is time- or
    /// queue-dependent.
    pub fn beacon_metric_at(&self, now: SimTime, queue_len: usize) -> f64 {
        self.policy.beacon_metric(&PolicyContext::new(
            now,
            0.0,
            queue_len,
            &self.capacity,
            &self.estimator,
            &self.ca_estimator,
            &self.ledger,
        ))
    }

    /// The device's committed bounded gateway quality φ.
    fn phi(&self) -> f64 {
        Rgq::PAPER.phi(self.estimator.rca_etx())
    }

    /// The Eq. 11 receive-window fraction for Queue-based Class-A.
    pub fn gamma(&self, queue_len: usize, queue_max: usize) -> f64 {
        mlora_mac::queue_based_window_fraction(
            self.phi(),
            Rgq::PAPER.phi_max(),
            queue_len,
            queue_max,
        )
    }

    /// Decides whether to hand queued data to the beacon's sender. This
    /// is the one composition of the policy's hooks:
    ///
    /// * an empty queue keeps, and no hook is called;
    /// * otherwise [`forwards`](ForwardingPolicy::forwards) gates the
    ///   handover;
    /// * [`transfer_amount`](ForwardingPolicy::transfer_amount) sizes
    ///   it, capped at the backlog and at [`MAX_BUNDLE`];
    /// * a zero amount keeps.
    ///
    /// `now` and `wait_s` (the duty-cycle wait an immediate transmission
    /// would face) feed the real-time metric preview; `queue_len` is the
    /// device's current backlog and `rssi` the received strength of the
    /// overheard frame (driving the Eq. 5–6 link metric) — a plain dBm
    /// figure, or the channel's deferred [`Rssi`], which is evaluated
    /// only if the policy reads it. Takes `&mut self` because policies
    /// may carry mutable per-device state (spray budgets, timers); the
    /// shared estimators and ledger are never mutated here.
    pub fn decide<'r>(
        &mut self,
        now: SimTime,
        wait_s: f64,
        queue_len: usize,
        beacon: &Beacon,
        rssi: impl Into<Rssi<'r>>,
    ) -> ForwardDecision {
        if queue_len == 0 {
            return ForwardDecision::Keep;
        }
        let RoutingState {
            capacity,
            estimator,
            ca_estimator,
            ledger,
            policy,
        } = self;
        let ctx = PolicyContext::new(
            now,
            wait_s,
            queue_len,
            capacity,
            estimator,
            ca_estimator,
            ledger,
        );
        if !policy.forwards(&ctx, beacon, rssi.into()) {
            return ForwardDecision::Keep;
        }
        let count = policy
            .transfer_amount(&ctx, beacon)
            .min(queue_len)
            .min(MAX_BUNDLE);
        if count == 0 {
            ForwardDecision::Keep
        } else {
            ForwardDecision::Forward {
                target: beacon.sender,
                count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(scheme: Scheme) -> RoutingState {
        RoutingState::new(RoutingConfig::paper_default(), scheme.policy())
    }

    /// Gives `s` a contact history: `good` devices reach the gateway every
    /// slot, others only once at t=0 then decay.
    fn warm_up(s: &mut RoutingState, good: bool) {
        for i in 0..8u64 {
            let t = SimTime::from_secs(i * 180);
            let cap = if good || i == 0 { Some(4_000.0) } else { None };
            s.on_sink_slot(t, cap, 0.0);
        }
    }

    #[test]
    fn no_routing_always_keeps() {
        let mut s = state(Scheme::NoRouting);
        warm_up(&mut s, false);
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 0.001,
            queue_len: 0,
        };
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 10, &beacon, -80.0),
            ForwardDecision::Keep
        );
    }

    #[test]
    fn rca_etx_forwards_to_better_neighbour() {
        let mut s = state(Scheme::RcaEtx);
        warm_up(&mut s, false); // poorly connected
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 1.0, // well connected neighbour
            queue_len: 3,
        };
        match s.decide(SimTime::from_secs(1260), 0.0, 5, &beacon, -85.0) {
            ForwardDecision::Forward { target, count } => {
                assert_eq!(target, NodeId::new(2));
                assert_eq!(count, 5);
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn rca_etx_keeps_when_neighbour_worse() {
        let mut s = state(Scheme::RcaEtx);
        warm_up(&mut s, true); // well connected
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 5_000.0, // poorly connected neighbour
            queue_len: 3,
        };
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 5, &beacon, -85.0),
            ForwardDecision::Keep
        );
    }

    #[test]
    fn rca_etx_keeps_on_dead_link() {
        let mut s = state(Scheme::RcaEtx);
        warm_up(&mut s, false);
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 1.0,
            queue_len: 0,
        };
        // RSSI below γ_min: the link metric hits the ceiling.
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 5, &beacon, -140.0),
            ForwardDecision::Keep
        );
    }

    #[test]
    fn empty_queue_never_forwards() {
        let mut s = state(Scheme::Robc);
        warm_up(&mut s, false);
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 0.5,
            queue_len: 0,
        };
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 0, &beacon, -70.0),
            ForwardDecision::Keep
        );
    }

    #[test]
    fn robc_forwards_down_pressure_gradient() {
        let mut s = state(Scheme::Robc);
        warm_up(&mut s, false); // poorly connected, so low φ
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 1.0, // φy near max
            queue_len: 0,
        };
        match s.decide(SimTime::from_secs(1260), 0.0, 10, &beacon, -85.0) {
            ForwardDecision::Forward { count, .. } => {
                assert!(count > 0 && count <= mlora_mac::MAX_BUNDLE);
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn robc_respects_reverse_pressure() {
        let mut s = state(Scheme::Robc);
        warm_up(&mut s, true); // well connected
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 5_000.0, // poorly connected, heavy queue
            queue_len: 50,
        };
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 2, &beacon, -85.0),
            ForwardDecision::Keep
        );
    }

    #[test]
    fn robc_anti_loop_bars_donor_until_sink_slot() {
        let mut s = state(Scheme::Robc);
        warm_up(&mut s, false);
        s.on_received_data(NodeId::new(2));
        let beacon = Beacon {
            sender: NodeId::new(2),
            rca_etx: 0.5,
            queue_len: 0,
        };
        assert_eq!(
            s.decide(SimTime::from_secs(1260), 0.0, 10, &beacon, -85.0),
            ForwardDecision::Keep
        );
        // The next sink slot clears the bar.
        s.on_sink_slot(SimTime::from_secs(10_000), None, 0.0);
        assert!(matches!(
            s.decide(SimTime::from_secs(1260), 0.0, 10, &beacon, -85.0),
            ForwardDecision::Forward { .. }
        ));
    }

    #[test]
    fn default_decide_composes_predicate_and_amount() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        /// Forwards a fixed amount to anyone, counting its predicate calls.
        #[derive(Debug, Clone)]
        struct Fixed {
            amount: usize,
            asked: Arc<AtomicU32>,
        }
        impl ForwardingPolicy for Fixed {
            fn label(&self) -> &str {
                "fixed"
            }
            fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
                Box::new(self.clone())
            }
            fn forwards(
                &mut self,
                _ctx: &PolicyContext<'_>,
                _beacon: &Beacon,
                _rssi: Rssi<'_>,
            ) -> bool {
                self.asked.fetch_add(1, Ordering::Relaxed);
                true
            }
            fn transfer_amount(&self, _ctx: &PolicyContext<'_>, _beacon: &Beacon) -> usize {
                self.amount
            }
        }
        let beacon = Beacon {
            sender: NodeId::new(9),
            rca_etx: 1.0,
            queue_len: 0,
        };
        let forward = |count| ForwardDecision::Forward {
            target: NodeId::new(9),
            count,
        };
        for (amount, queue_len, expected, asked) in [
            // An empty queue keeps before the predicate is asked.
            (2, 0, ForwardDecision::Keep, 0),
            (2, 10, forward(2), 1),
            // Never more than the backlog, never more than one bundle.
            (5, 3, forward(3), 1),
            (40, 30, forward(MAX_BUNDLE), 1),
            // A zero amount keeps.
            (0, 10, ForwardDecision::Keep, 1),
        ] {
            let policy = Fixed {
                amount,
                asked: Arc::default(),
            };
            let calls = Arc::clone(&policy.asked);
            let mut state = RoutingState::new(RoutingConfig::paper_default(), Box::new(policy));
            assert_eq!(
                state.decide(SimTime::ZERO, 0.0, queue_len, &beacon, -80.0),
                expected,
                "amount {amount}, backlog {queue_len}"
            );
            assert_eq!(calls.load(Ordering::Relaxed), asked);
        }
    }

    #[test]
    fn gamma_uses_eq11() {
        let mut s = state(Scheme::Robc);
        warm_up(&mut s, true);
        let g_empty = s.gamma(0, 100);
        let g_half = s.gamma(50, 100);
        let g_full = s.gamma(100, 100);
        assert_eq!(g_empty, 0.0);
        assert!(g_half > 0.0 && g_half <= 1.0);
        assert!(g_full >= g_half);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::NoRouting.label(), "LoRaWAN");
        assert_eq!(Scheme::RcaEtx.to_string(), "RCA-ETX");
        assert_eq!(Scheme::ALL.len(), 3);
    }
}
