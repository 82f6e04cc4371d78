//! The pluggable forwarding-policy layer.
//!
//! The paper evaluates a *family* of forwarding schemes under one
//! simulated world, and the schemes differ in two things: a forwarding
//! predicate (Eq. 1, or ROBC's Eq. 10 weight) and an amount (the whole
//! backlog, or ROBC's partial transfer δ). [`ForwardingPolicy`] opens
//! that family up: a policy is an object-safe strategy plugged into a
//! device's [`RoutingState`](crate::RoutingState), deciding what metric
//! the device beacons, whether an overheard beacon triggers a handover,
//! and how much of the queue moves.
//! [`RoutingState::decide`](crate::RoutingState::decide) alone composes
//! the predicate and the amount into a decision. The four paper schemes
//! are built-in policies ([`NoRoutingPolicy`], [`CaEtxPolicy`],
//! [`RcaEtxPolicy`], [`RobcPolicy`]); [`Scheme`] names them —
//! [`Scheme::policy`] builds one, and `PolicySpec::from(scheme)` is the
//! handle configurations and sweep axes carry. User-defined policies
//! (epidemic or spray-and-wait-style DTN baselines, queue-aware hybrids,
//! learned heuristics) implement the same trait and ride the identical
//! engine path.
//!
//! The shared routing machinery — the RCA-ETX/CA-ETX estimators and the
//! anti-loop [`DonorLedger`](crate::DonorLedger) — stays owned by
//! `RoutingState`; policies read it through the borrowed
//! [`PolicyContext`] passed into every hook, so stateless policies stay
//! zero-cost and stateful ones (copy budgets, timers) carry their own
//! fields.
//!
//! # A custom policy
//!
//! ```
//! use mlora_core::{
//!     Beacon, ForwardingPolicy, PolicyContext, RoutingConfig, RoutingState, Rssi,
//! };
//!
//! /// Forward a fixed quota to any strictly better-connected neighbour.
//! #[derive(Debug, Clone)]
//! struct Quota(usize);
//!
//! impl ForwardingPolicy for Quota {
//!     fn label(&self) -> &str {
//!         "quota"
//!     }
//!     fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
//!         Box::new(self.clone())
//!     }
//!     fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, _rssi: Rssi<'_>) -> bool {
//!         beacon.rca_etx < ctx.rca_etx()
//!     }
//!     fn transfer_amount(&self, _ctx: &PolicyContext<'_>, _beacon: &Beacon) -> usize {
//!         self.0
//!     }
//! }
//!
//! // The beacon's strength arrives unevaluated; a policy that wants it
//! // (for `ctx.link_rca_etx(rssi)`, say) pays for its logarithms by
//! // reading `rssi.dbm()`, and one that ignores it, like this one, pays
//! // nothing.
//! let state = RoutingState::new(RoutingConfig::paper_default(), Box::new(Quota(3)));
//! assert_eq!(state.policy().label(), "quota");
//! ```

use mlora_phy::{CapacityModel, Rssi};
use mlora_simcore::{NodeId, SimTime};

use crate::{
    greedy_forward_rule, link_rca_etx, robc_transfer_amount, robc_weight, Beacon, CaEtxEstimator,
    DonorLedger, RcaEtxEstimator, Rgq, Scheme, PACKET_BITS,
};

/// A policy's read-only window into its device's routing machinery.
///
/// Borrowed views over the state a [`RoutingState`](crate::RoutingState)
/// owns — the estimators, the anti-loop ledger and the scenario's
/// capacity map — plus the real-time inputs of the current hook
/// invocation (`now`, the duty-cycle wait, the queue backlog). φ is
/// bounded by [`Rgq::PAPER`], and link metrics are for frames of
/// [`PACKET_BITS`].
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    now: SimTime,
    wait_s: f64,
    queue_len: usize,
    capacity: &'a CapacityModel,
    estimator: &'a RcaEtxEstimator,
    ca_estimator: &'a CaEtxEstimator,
    ledger: &'a DonorLedger,
}

impl<'a> PolicyContext<'a> {
    pub(crate) fn new(
        now: SimTime,
        wait_s: f64,
        queue_len: usize,
        capacity: &'a CapacityModel,
        estimator: &'a RcaEtxEstimator,
        ca_estimator: &'a CaEtxEstimator,
        ledger: &'a DonorLedger,
    ) -> Self {
        PolicyContext {
            now,
            wait_s,
            queue_len,
            capacity,
            estimator,
            ca_estimator,
            ledger,
        }
    }

    /// Simulation time of the hook invocation.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The duty-cycle wait an immediate transmission would face, seconds.
    pub fn wait_s(&self) -> f64 {
        self.wait_s
    }

    /// The device's current application backlog, messages.
    pub fn queue_len(&self) -> usize {
        self.queue_len
    }

    /// The committed node-to-sink RCA-ETX (as of the last slot), seconds.
    pub fn rca_etx(&self) -> f64 {
        self.estimator.rca_etx()
    }

    /// The node-to-sink RCA-ETX previewed against real time: a
    /// disconnection gap grown since the last slot raises the cost
    /// (Eq. 1 / Eq. 10 are evaluated on this).
    pub fn rca_etx_now(&self) -> f64 {
        self.estimator.rca_etx_at(self.now, self.wait_s)
    }

    /// The prior-work CA-ETX comparator value (§III.C), seconds.
    pub fn ca_etx(&self) -> f64 {
        self.ca_estimator.ca_etx()
    }

    /// The committed bounded gateway quality φ.
    pub fn phi(&self) -> f64 {
        Rgq::PAPER.phi(self.rca_etx())
    }

    /// The bounded gateway quality φ previewed against real time.
    pub fn phi_now(&self) -> f64 {
        Rgq::PAPER.phi(self.rca_etx_now())
    }

    /// The bounded gateway quality φ of an arbitrary metric — e.g. a
    /// neighbour's beaconed value.
    pub fn phi_of(&self, metric_s: f64) -> f64 {
        Rgq::PAPER.phi(metric_s)
    }

    /// The Eq. 5–6 device-to-device link metric for a frame received at
    /// `rssi` (a deferred [`Rssi`], evaluated here, or a plain dBm
    /// figure), seconds.
    pub fn link_rca_etx<'r>(&self, rssi: impl Into<Rssi<'r>>) -> f64 {
        link_rca_etx(rssi.into().dbm(), self.capacity, PACKET_BITS)
    }

    /// True if the anti-loop ledger currently bars `node` as a target.
    pub fn is_barred(&self, node: NodeId) -> bool {
        self.ledger.is_barred(node)
    }
}

/// An object-safe forwarding strategy plugged into a device's
/// [`RoutingState`](crate::RoutingState).
///
/// Required: an identity ([`ForwardingPolicy::label`],
/// [`ForwardingPolicy::clone_box`]) and the forwarding predicate
/// ([`ForwardingPolicy::forwards`]). Everything else has defaults
/// reproducing the common scheme shape: beacon the committed RCA-ETX,
/// move the whole backlog when forwarding, no extra per-slot state.
///
/// A policy supplies the hooks; it does not decide.
/// [`RoutingState::decide`](crate::RoutingState::decide) composes them
/// for every policy alike: an empty queue keeps without calling a hook,
/// the predicate gates the handover,
/// [`ForwardingPolicy::transfer_amount`] sizes it (capped at the backlog
/// and at [`MAX_BUNDLE`](mlora_mac::MAX_BUNDLE)), and a zero amount
/// keeps.
pub trait ForwardingPolicy: std::fmt::Debug + Send + Sync {
    /// The label identifying this policy in figures, reports and sweep
    /// cells.
    fn label(&self) -> &str;

    /// Clones the policy into a fresh box — the per-device instantiation
    /// primitive (each device carries its own policy state).
    fn clone_box(&self) -> Box<dyn ForwardingPolicy>;

    /// The metric this device piggybacks on its uplinks for neighbours
    /// to compare against. Defaults to the committed RCA-ETX.
    fn beacon_metric(&self, ctx: &PolicyContext<'_>) -> f64 {
        ctx.rca_etx()
    }

    /// Whether an overheard `beacon` (received at strength `rssi`)
    /// should trigger a handover to its sender. Called only with a
    /// non-empty queue.
    ///
    /// The strength is a deferred value: [`Rssi::dbm`] (or
    /// [`PolicyContext::link_rca_etx`], which calls it) evaluates the
    /// channel model for this frame; a policy that decides without it
    /// leaves it unevaluated.
    fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, rssi: Rssi<'_>) -> bool;

    /// How many queued messages to move once
    /// [`ForwardingPolicy::forwards`] fired.
    /// [`RoutingState::decide`](crate::RoutingState::decide) caps the
    /// result at the backlog and at the frame bundle limit. Defaults to
    /// the whole backlog.
    fn transfer_amount(&self, ctx: &PolicyContext<'_>, _beacon: &Beacon) -> usize {
        ctx.queue_len()
    }

    /// Hook: the device finished a device-to-sink slot (`capacity_bps`
    /// is `Some` when a gateway acknowledged). The shared estimators and
    /// ledger are updated by `RoutingState` before this fires; override
    /// to advance policy-private state (timers, spray budgets).
    fn on_sink_slot(&mut self, _t: SimTime, _capacity_bps: Option<f64>, _wait_s: f64) {}

    /// Hook: the device accepted a handover from `donor`. The ledger has
    /// already recorded the donor.
    fn on_received_data(&mut self, _donor: NodeId) {}
}

/// Plain LoRaWAN: never forwards — the paper's baseline as a policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoRoutingPolicy;

impl ForwardingPolicy for NoRoutingPolicy {
    fn label(&self) -> &str {
        Scheme::NoRouting.label()
    }

    fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
        Box::new(*self)
    }

    fn forwards(&mut self, _ctx: &PolicyContext<'_>, _beacon: &Beacon, _rssi: Rssi<'_>) -> bool {
        false
    }
}

/// The prior-work CA-ETX comparator (§III.C): the greedy Eq. 1 rule
/// driven by long-term contact statistics that cannot react to the
/// current disconnection gap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaEtxPolicy;

impl ForwardingPolicy for CaEtxPolicy {
    fn label(&self) -> &str {
        Scheme::CaEtx.label()
    }

    fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
        Box::new(*self)
    }

    fn beacon_metric(&self, ctx: &PolicyContext<'_>) -> f64 {
        ctx.ca_etx()
    }

    fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, rssi: Rssi<'_>) -> bool {
        // Long-term statistics only: no real-time preview.
        greedy_forward_rule(ctx.ca_etx(), beacon.rca_etx, ctx.link_rca_etx(rssi))
    }
}

/// Greedy handover by the Eq. 1 RCA-ETX comparison (§IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RcaEtxPolicy;

impl ForwardingPolicy for RcaEtxPolicy {
    fn label(&self) -> &str {
        Scheme::RcaEtx.label()
    }

    fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
        Box::new(*self)
    }

    fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, rssi: Rssi<'_>) -> bool {
        greedy_forward_rule(ctx.rca_etx_now(), beacon.rca_etx, ctx.link_rca_etx(rssi))
    }
}

/// Real-time opportunistic backpressure collection (§V): forward down
/// the RGQ-corrected pressure gradient, moving only the equalising
/// partial transfer δ, with the §V.B.2 anti-loop rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobcPolicy;

impl ForwardingPolicy for RobcPolicy {
    fn label(&self) -> &str {
        Scheme::Robc.label()
    }

    fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
        Box::new(*self)
    }

    fn forwards(&mut self, ctx: &PolicyContext<'_>, beacon: &Beacon, _rssi: Rssi<'_>) -> bool {
        if ctx.is_barred(beacon.sender) {
            return false;
        }
        let weight = robc_weight(
            ctx.queue_len(),
            ctx.phi_now(),
            beacon.queue_len,
            ctx.phi_of(beacon.rca_etx),
        );
        weight > 0.0
    }

    fn transfer_amount(&self, ctx: &PolicyContext<'_>, beacon: &Beacon) -> usize {
        robc_transfer_amount(
            ctx.queue_len(),
            ctx.phi_now(),
            beacon.queue_len,
            ctx.phi_of(beacon.rca_etx),
        )
    }
}

impl Scheme {
    /// The built-in policy implementing this scheme.
    pub fn policy(self) -> Box<dyn ForwardingPolicy> {
        match self {
            Scheme::NoRouting => Box::new(NoRoutingPolicy),
            Scheme::CaEtx => Box::new(CaEtxPolicy),
            Scheme::RcaEtx => Box::new(RcaEtxPolicy),
            Scheme::Robc => Box::new(RobcPolicy),
        }
    }
}

/// A cloneable, comparable handle around a boxed policy *prototype* —
/// the form forwarding policies take inside configurations and sweep
/// axes, where the surrounding types need `Clone` and `PartialEq`.
///
/// Cloning a spec clones the prototype ([`ForwardingPolicy::clone_box`]);
/// [`PolicySpec::build`] instantiates a fresh per-device policy the same
/// way. Two specs compare **equal when their labels match** — the label
/// is the policy's identity throughout reports and experiment cells, so
/// distinct policies must carry distinct labels.
///
/// A spec built from a [`Scheme`] (`PolicySpec::from(Scheme::Robc)`, or
/// a bare `Scheme` wherever `impl Into<PolicySpec>` is taken) remembers
/// it: [`PolicySpec::scheme`] is what a scenario file stores.
#[derive(Debug)]
pub struct PolicySpec {
    prototype: Box<dyn ForwardingPolicy>,
    scheme: Option<Scheme>,
}

impl PolicySpec {
    /// Wraps a boxed policy prototype.
    pub fn new(prototype: Box<dyn ForwardingPolicy>) -> Self {
        PolicySpec {
            prototype,
            scheme: None,
        }
    }

    /// Wraps a policy value (`PolicySpec::of(RobcPolicy)`).
    pub fn of(policy: impl ForwardingPolicy + 'static) -> Self {
        PolicySpec::new(Box::new(policy))
    }

    /// The policy's identifying label.
    pub fn label(&self) -> &str {
        self.prototype.label()
    }

    /// Instantiates a fresh policy for one device.
    pub fn build(&self) -> Box<dyn ForwardingPolicy> {
        self.prototype.clone_box()
    }

    /// The paper scheme this spec was built from, if it was — `None`
    /// for any policy wrapped directly, a built-in one included.
    pub fn scheme(&self) -> Option<Scheme> {
        self.scheme
    }
}

impl Clone for PolicySpec {
    fn clone(&self) -> Self {
        PolicySpec {
            prototype: self.prototype.clone_box(),
            scheme: self.scheme,
        }
    }
}

impl PartialEq for PolicySpec {
    /// Label equality — the label is the policy's identity.
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

impl From<Scheme> for PolicySpec {
    fn from(scheme: Scheme) -> Self {
        PolicySpec {
            prototype: scheme.policy(),
            scheme: Some(scheme),
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoutingConfig, RoutingState};

    #[test]
    fn builtin_labels_match_schemes() {
        for scheme in Scheme::WITH_CA_ETX {
            assert_eq!(scheme.policy().label(), scheme.label());
            assert_eq!(PolicySpec::from(scheme).label(), scheme.label());
        }
    }

    #[test]
    fn spec_compares_and_clones_by_label() {
        let a = PolicySpec::of(RobcPolicy);
        let b = PolicySpec::from(Scheme::Robc);
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        assert_ne!(a, PolicySpec::of(RcaEtxPolicy));
        assert_eq!(a.to_string(), "ROBC");
        // Equal by label, though only one came from the scheme.
        assert_eq!((a.scheme(), b.scheme()), (None, Some(Scheme::Robc)));
        assert_eq!(b.clone().scheme(), Some(Scheme::Robc));
    }

    #[test]
    fn stateful_policy_hooks_fire() {
        /// Counts its own hook invocations.
        #[derive(Debug, Clone, Default)]
        struct Counting {
            sink_slots: u32,
            receptions: u32,
        }
        impl ForwardingPolicy for Counting {
            fn label(&self) -> &str {
                "counting"
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
                false
            }
            fn on_sink_slot(&mut self, _t: SimTime, _cap: Option<f64>, _wait_s: f64) {
                self.sink_slots += 1;
            }
            fn on_received_data(&mut self, _donor: NodeId) {
                self.receptions += 1;
            }
        }
        let mut state =
            RoutingState::new(RoutingConfig::paper_default(), Box::<Counting>::default());
        state.on_sink_slot(SimTime::ZERO, None, 0.0);
        state.on_received_data(NodeId::new(1));
        state.on_received_data(NodeId::new(2));
        // The shared ledger recorded both donors alongside the policy.
        assert!(state.raw_parts().2.is_barred(NodeId::new(1)));
        let dump = format!("{:?}", state.policy());
        assert!(
            dump.contains("sink_slots: 1") && dump.contains("receptions: 2"),
            "policy state not advanced: {dump}"
        );
    }
}
