//! LoRa physical-layer substrate.
//!
//! Everything the MLoRa-SS simulation needs from the radio:
//!
//! * [`SpreadingFactor`], [`Bandwidth`], [`CodingRate`], [`PhyParams`] —
//!   LoRa modulation parameters (the paper fixes SF7/125 kHz, CR 4/5).
//! * [`time_on_air`] — the Semtech airtime formula, feeding the EU868
//!   1 % duty-cycle arithmetic in [`duty_cycle_wait`].
//! * [`LogDistanceModel`] — log-distance path loss with shadowing
//!   (path-loss exponent 2.32 per Petäjäjärvi et al., §VII.A.5).
//! * [`RssiModel`] / [`Rssi`] — the same model for a receiver that
//!   decides before it computes: table-bounded strengths, exact values
//!   on demand.
//! * [`CapacityModel`] — the RSSI→link-capacity mapping of Eq. 5.
//! * [`resolve_collision`] — same-channel/same-SF collision with a 6 dB
//!   capture margin.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod airtime;
mod capacity;
mod channel;
mod params;
mod pathloss;

pub use airtime::{duty_cycle_wait, time_on_air, AirtimeTable, LORA_MAX_PAYLOAD_BYTES};
pub use capacity::CapacityModel;
pub use channel::{resolve_collision, CAPTURE_MARGIN_DB};
pub use params::{Bandwidth, CodingRate, PhyParams, SpreadingFactor};
pub use pathloss::{LogDistanceModel, Rssi, RssiModel};
