//! Packet service times and the RCA-ETX metrics (paper Eq. 2–6).

use mlora_phy::CapacityModel;

/// Upper bound applied to every RCA-ETX value, in seconds.
///
/// A device that has never reached a gateway would otherwise report an
/// unbounded metric; capping keeps the RGQ bounds of §V.B.1 meaningful
/// (`0 < φ_min ≤ φ ≤ φ_max < ∞`).
pub const RCA_ETX_CEILING: f64 = 1.0e6;

/// The frame size every device's metrics are normalised to, bits: a full
/// uplink bundle (header, routing metadata and
/// [`MAX_BUNDLE`](mlora_mac::MAX_BUNDLE) application messages, 255 bytes).
pub const PACKET_BITS: f64 = ((mlora_mac::FRAME_HEADER_BYTES
    + mlora_mac::METADATA_BYTES
    + mlora_mac::MAX_BUNDLE * mlora_mac::APP_MESSAGE_BYTES)
    * 8) as f64;

/// Time to push one packet of `packet_bits` through a link of
/// `capacity_bps` — the `1/c` term of Eq. 2–3 and Eq. 6, in seconds.
///
/// Returns [`RCA_ETX_CEILING`] for a dead link (`capacity_bps <= 0`).
pub fn packet_service_time(capacity_bps: f64, packet_bits: f64) -> f64 {
    if capacity_bps <= 0.0 {
        return RCA_ETX_CEILING;
    }
    (packet_bits / capacity_bps).min(RCA_ETX_CEILING)
}

/// The device-to-device metric `RCA-ETX_{x,y}(t) = 1/c_{x,y}(t)` (Eq. 6),
/// with the capacity derived from the overheard frame's RSSI through the
/// Eq. 5 map.
///
/// # Example
///
/// ```
/// use mlora_core::link_rca_etx;
/// use mlora_phy::CapacityModel;
///
/// let cap = CapacityModel::paper_default();
/// // A strong overhear is cheap, a marginal one expensive:
/// let strong = link_rca_etx(-85.0, &cap, 2048.0);
/// let weak = link_rca_etx(-120.0, &cap, 2048.0);
/// assert!(strong < weak);
/// ```
pub fn link_rca_etx(rssi_dbm: f64, capacity: &CapacityModel, packet_bits: f64) -> f64 {
    packet_service_time(capacity.capacity_bps(rssi_dbm), packet_bits)
}

/// The greedy handover predicate of Eq. 1: device `x` hands its queue to
/// `y` iff
///
/// ```text
/// RCA-ETX_{x,S}(t) > RCA-ETX_{y,S}(t) + RCA-ETX_{x,y}(t)
/// ```
///
/// i.e. relaying through `y` promises a strictly earlier gateway
/// delivery than waiting for `x`'s own next contact.
pub fn greedy_forward_rule(rca_x_sink: f64, rca_y_sink: f64, rca_link: f64) -> bool {
    rca_x_sink > rca_y_sink + rca_link
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_phy::CapacityModel;

    #[test]
    fn service_time_inverse_in_capacity() {
        assert_eq!(packet_service_time(1000.0, 2000.0), 2.0);
        assert_eq!(packet_service_time(2000.0, 2000.0), 1.0);
    }

    #[test]
    fn dead_link_hits_ceiling() {
        assert_eq!(packet_service_time(0.0, 100.0), RCA_ETX_CEILING);
        assert_eq!(packet_service_time(-5.0, 100.0), RCA_ETX_CEILING);
    }

    #[test]
    fn tiny_capacity_clamped_to_ceiling() {
        assert_eq!(packet_service_time(1e-9, 1e6), RCA_ETX_CEILING);
    }

    #[test]
    fn link_metric_monotone_in_rssi() {
        let cap = CapacityModel::paper_default();
        let mut last = f64::INFINITY;
        for rssi in [-122.0, -110.0, -100.0, -90.0, -80.0] {
            let m = link_rca_etx(rssi, &cap, PACKET_BITS);
            assert!(m <= last, "metric rose at {rssi}");
            last = m;
        }
    }

    #[test]
    fn below_floor_link_is_ceiling() {
        let cap = CapacityModel::paper_default();
        assert_eq!(link_rca_etx(-140.0, &cap, 100.0), RCA_ETX_CEILING);
    }

    #[test]
    fn greedy_rule_strict_inequality() {
        assert!(greedy_forward_rule(10.0, 4.0, 5.0));
        assert!(!greedy_forward_rule(9.0, 4.0, 5.0)); // equal: keep
        assert!(!greedy_forward_rule(8.0, 4.0, 5.0));
    }

    #[test]
    fn greedy_rule_never_fires_towards_worse_node() {
        // y's own metric already exceeds x's: no link quality can help.
        assert!(!greedy_forward_rule(10.0, 11.0, 0.0));
    }
}
