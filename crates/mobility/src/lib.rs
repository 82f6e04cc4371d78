//! Trace-style mobility substrate: a synthetic London bus network.
//!
//! The paper drives its evaluation with Transport-for-London timetables
//! replayed through SUMO. That dataset is not redistributable, so this
//! crate generates a statistically equivalent network from a seed (see
//! DESIGN.md for the substitution argument):
//!
//! * [`DiurnalProfile`] — the time-of-day activity curve of Fig. 7(a)
//!   (night trough, morning/evening commuter peaks).
//! * [`Route`] — a bus line: a polyline with a service speed drawn from
//!   the paper's 5.4–23.1 mph range.
//! * [`Trip`] — one vehicle serving a route for a number of laps; its
//!   position at any instant is computed analytically (no tick stepping).
//! * [`BusNetwork`] — the full generated network: routes + trips, with
//!   O(1) position queries and the Fig. 7 statistics.
//! * [`MetroWorld`] — the metro-scale generator: radial + ring arterial
//!   lines with depots, per-line vehicle rosters and staggered headway
//!   schedules, emitting a city-sized [`BusNetwork`] in seconds.
//!
//! # Example
//!
//! ```
//! use mlora_mobility::{BusNetwork, BusNetworkConfig};
//! use mlora_simcore::SimTime;
//!
//! let cfg = BusNetworkConfig {
//!     max_active_buses: 40, // keep the doctest fast
//!     num_routes: 8,
//!     ..BusNetworkConfig::default()
//! };
//! let net = BusNetwork::generate(&cfg, 42);
//! let noon = SimTime::from_secs(12 * 3600);
//! assert!(net.active_trips(noon).count() > 0);
//! ```

#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod diurnal;
mod metro;
mod network;
mod route;
mod stats;
mod trip;

pub use diurnal::DiurnalProfile;
pub use metro::{LineKind, MetroConfig, MetroLine, MetroWorld};
pub use network::{BusNetwork, BusNetworkConfig, NetworkConfigError, NetworkError};
pub use route::{Route, RouteId};
pub use stats::{active_bus_series, trip_duration_histogram};
pub use trip::Trip;

/// Converts miles per hour to metres per second.
///
/// The paper quotes London bus speeds of 5.4–23.1 mph.
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * 0.44704
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mph_conversion() {
        assert!((mph_to_mps(5.4) - 2.414).abs() < 1e-3);
        assert!((mph_to_mps(23.1) - 10.327).abs() < 1e-3);
    }
}
