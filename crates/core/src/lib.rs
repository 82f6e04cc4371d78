//! RCA-ETX and ROBC — the paper's core contribution.
//!
//! This crate implements *Real-Time Contact-Aware Expected Transmission
//! Count* (RCA-ETX) and *Real-Time Opportunistic Backpressure Collection*
//! (ROBC) exactly as specified in §IV–§V of the paper:
//!
//! * [`Ewma`] — the exponentially weighted moving average of Eq. 4.
//! * [`ContactTracker`] — per-device bookkeeping of gateway contacts,
//!   yielding the real-time packet service time (RPST) of Eq. 3.
//! * [`RcaEtxEstimator`] — combines the two into the node-to-sink metric
//!   `RCA-ETX_{x,S}(t) = E[µ′_{x,S}(t)]`.
//! * [`link_rca_etx`] — the device-to-device metric of Eq. 6 over the
//!   Eq. 5 RSSI→capacity map, for frames of [`PACKET_BITS`].
//! * [`greedy_forward_rule`] — the handover predicate of Eq. 1.
//! * [`Rgq`] — real-time gateway quality `φ = 1/RCA-ETX` with the
//!   stability bounds of §V.B.1 ([`Rgq::PAPER`] on every device).
//! * [`robc_weight`] / [`robc_transfer_amount`] — Eq. 10 and the partial
//!   transfer `δ = Qx − Qy·φx/φy`.
//! * [`DonorLedger`] — the §V.B.2 anti-loop rule.
//! * [`ForwardingPolicy`] — the open, object-safe forwarding-strategy
//!   layer: the hooks a scheme differs in (its predicate, its transfer
//!   amount, its beaconed metric), with the paper schemes as built-in
//!   policies and [`PolicySpec`] as their configuration-level handle.
//! * [`RoutingState`] + [`Scheme`] — one device's complete routing brain;
//!   [`RoutingState::decide`] is the one place a policy's hooks become a
//!   [`ForwardDecision`], and `Scheme` is a thin constructor over the
//!   built-in policies.
//! * [`CaEtxEstimator`] — the prior-work CA-ETX comparator of §III.C,
//!   exposing the staleness problem RCA-ETX fixes.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod ca_etx;
mod contact;
mod ewma;
mod forwarding;
mod metric;
mod policy;
mod rgq;
mod robc;

pub use ca_etx::CaEtxEstimator;
pub use contact::{ContactTracker, RcaEtxEstimator};
pub use ewma::Ewma;
pub use forwarding::{Beacon, ForwardDecision, RoutingConfig, RoutingState, Scheme};
pub use metric::{
    greedy_forward_rule, link_rca_etx, packet_service_time, PACKET_BITS, RCA_ETX_CEILING,
};
/// The deferred received-strength value [`ForwardingPolicy`] hooks take.
pub use mlora_phy::Rssi;
pub use policy::{
    CaEtxPolicy, ForwardingPolicy, NoRoutingPolicy, PolicyContext, PolicySpec, RcaEtxPolicy,
    RobcPolicy,
};
pub use rgq::Rgq;
pub use robc::{robc_transfer_amount, robc_weight, DonorLedger};
