//! LoRaWAN device classes, including the paper's two new classes (§VI).

use mlora_simcore::{SimDuration, SimTime};

/// Which of the paper's two device classes a fleet runs, governing when
/// the radio listens.
///
/// Standard LoRaWAN classes listen on the *downlink* channel, so they can
/// hear gateways but never overhear peers. The paper's two classes retune
/// reception to the shared uplink channel to enable device-to-device
/// forwarding (Fig. 5):
///
/// * [`DeviceClass::ModifiedClassC`] — always listening on the uplink
///   channel (except while transmitting); maximum overhearing, maximum
///   energy.
/// * [`DeviceClass::QueueBasedClassA`] — after each uplink, listens on
///   the uplink channel for `Δt · γ` where `γ` is the Eq. 11 normalised
///   backlog (see [`queue_based_window_fraction`]); heavier queues buy
///   longer windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// The paper's Modified Class-C: continuously listening on the
    /// **uplink** channel, switching away only to receive gateway
    /// acknowledgements.
    ModifiedClassC,
    /// The paper's Queue-based Class-A: uplink-channel receive window of
    /// length `Δt · γ` after each transmission (Eq. 11).
    QueueBasedClassA,
}

impl DeviceClass {
    /// Whether this device can overhear a peer's uplink at `now`.
    ///
    /// `last_tx_end` is the end of the device's most recent uplink,
    /// `comm_interval` is the device-to-sink interval `Δt`, and `gamma`
    /// the Eq. 11 window fraction (ignored by Modified Class-C). Transmission
    /// time itself is excluded by the caller (half-duplex radio).
    pub fn overhears(
        &self,
        now: SimTime,
        last_tx_end: Option<SimTime>,
        comm_interval: SimDuration,
        gamma: f64,
    ) -> bool {
        match self {
            DeviceClass::ModifiedClassC => true,
            DeviceClass::QueueBasedClassA => {
                let Some(end) = last_tx_end else {
                    return false;
                };
                let window = comm_interval.mul_f64(gamma.clamp(0.0, 1.0));
                now >= end && now < end + window
            }
        }
    }
}

/// The Eq. 11 receive-window fraction of Queue-based Class-A:
///
/// ```text
/// γx(t) = φ_max · Qx(t) / (φx(t) · Q_max)   clamped to ≤ 1
/// ```
///
/// Devices with heavier (RGQ-corrected) backlogs open longer windows,
/// raising their chance of hearing a neighbour they could offload to.
///
/// # Panics
///
/// Panics if `phi` or `phi_max` is not strictly positive, or if
/// `queue_max` is zero.
pub fn queue_based_window_fraction(
    phi: f64,
    phi_max: f64,
    queue_len: usize,
    queue_max: usize,
) -> f64 {
    assert!(phi > 0.0 && phi_max > 0.0, "RGQ must be positive");
    assert!(queue_max > 0, "queue capacity must be positive");
    let gamma = phi_max * queue_len as f64 / (phi * queue_max as f64);
    gamma.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: SimDuration = SimDuration::from_mins(3);

    #[test]
    fn modified_class_c_always_overhears() {
        let c = DeviceClass::ModifiedClassC;
        assert!(c.overhears(SimTime::ZERO, None, DT, 0.0));
        assert!(c.overhears(SimTime::from_secs(9999), Some(SimTime::ZERO), DT, 0.0));
    }

    #[test]
    fn queue_based_window_gates_on_gamma() {
        let c = DeviceClass::QueueBasedClassA;
        let end = SimTime::from_secs(60);
        // γ = 0.5 of a 180 s interval: listening for 90 s after the uplink.
        assert!(c.overhears(end, Some(end), DT, 0.5));
        assert!(c.overhears(end + SimDuration::from_secs(89), Some(end), DT, 0.5));
        assert!(!c.overhears(end + SimDuration::from_secs(90), Some(end), DT, 0.5));
        // Never transmitted yet: no window.
        assert!(!c.overhears(end, None, DT, 1.0));
        // Zero backlog: no window.
        assert!(!c.overhears(end, Some(end), DT, 0.0));
    }

    #[test]
    fn window_fraction_eq11() {
        // φ = φ_max and a half-full queue: γ = 0.5.
        assert_eq!(queue_based_window_fraction(1.0, 1.0, 5, 10), 0.5);
        // Worse gateway quality (smaller φ) lengthens the window.
        assert_eq!(queue_based_window_fraction(0.5, 1.0, 5, 10), 1.0);
        // Clamped at 1.
        assert_eq!(queue_based_window_fraction(0.1, 1.0, 10, 10), 1.0);
        // Empty queue: no window.
        assert_eq!(queue_based_window_fraction(1.0, 1.0, 0, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "RGQ must be positive")]
    fn zero_phi_rejected() {
        let _ = queue_based_window_fraction(0.0, 1.0, 1, 10);
    }
}
