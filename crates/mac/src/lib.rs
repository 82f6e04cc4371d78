//! LoRaWAN MAC substrate for MLoRa-SS.
//!
//! Implements the medium-access behaviour the paper's §III.B and §VI rely
//! on:
//!
//! * [`AppMessage`] / [`UplinkFrame`] — application readings (20-byte
//!   default, arbitrary per-profile sizes), bundled up to twelve per
//!   frame — within the 255-byte PHY budget — with the sender's RCA-ETX
//!   and queue length piggybacked (§VII.A.5). Frames report their
//!   *actual* payload size, so airtime downstream is byte-true.
//! * [`DataQueue`] — the per-device application buffer: [`Priority`]
//!   classes ahead of each other, FIFO within a class.
//! * [`DutyCycleTracker`] — EU868 1 % duty-cycle enforcement.
//! * [`RetransmitPolicy`] — up to eight attempts, reset when a new packet
//!   is generated.
//! * [`DeviceClass`] — the paper's **Modified Class-C** (always
//!   listening on the uplink channel) and **Queue-based Class-A**
//!   (receive window scaled by normalised backlog, Eq. 11).
//! * [`EnergyModel`] / [`EnergyAccount`] — time-in-state energy
//!   accounting for the class comparison (§VII.C).

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod class;
mod dutycycle;
mod energy;
mod frame;
mod queue;
mod retransmit;

pub use class::{queue_based_window_fraction, DeviceClass};
pub use dutycycle::DutyCycleTracker;
pub use energy::{EnergyAccount, EnergyModel, RadioState};
pub use frame::{
    AppMessage, Priority, UplinkFrame, APP_MESSAGE_BYTES, FRAME_HEADER_BYTES, MAX_BUNDLE,
    MAX_BUNDLE_BYTES, MAX_FRAME_BYTES, METADATA_BYTES,
};
pub use queue::DataQueue;
pub use retransmit::RetransmitPolicy;
