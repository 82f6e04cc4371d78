//! RSSI-to-capacity mapping (paper Eq. 5).

/// The piecewise-linear RSSI→capacity mapping of Eq. 5:
///
/// ```text
///           ⎧ c_max · (γ − γ_min)/(γ_max − γ_min)   γ_min ≤ γ ≤ γ_max
/// c(γ)  =   ⎨ c_max                                  γ > γ_max
///           ⎩ 0                                      γ < γ_min
/// ```
///
/// The paper keeps this linear "as a proof of concept" and notes users may
/// substitute e.g. a hyperbolic map; [`CapacityModel::capacity_bps`] is the
/// single place to swap that in.
///
/// # Example
///
/// ```
/// use mlora_phy::CapacityModel;
///
/// let m = CapacityModel::paper_default();
/// assert_eq!(m.capacity_bps(-200.0), 0.0);             // below γ_min
/// assert_eq!(m.capacity_bps(0.0), m.max_capacity_bps()); // above γ_max
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    gamma_min_dbm: f64,
    gamma_max_dbm: f64,
    c_max_bps: f64,
}

impl CapacityModel {
    /// Creates a capacity model.
    ///
    /// # Panics
    ///
    /// Panics if `gamma_min_dbm >= gamma_max_dbm` or `c_max_bps <= 0`.
    pub fn new(gamma_min_dbm: f64, gamma_max_dbm: f64, c_max_bps: f64) -> Self {
        assert!(
            gamma_min_dbm < gamma_max_dbm,
            "need γ_min < γ_max, got [{gamma_min_dbm}, {gamma_max_dbm}]"
        );
        assert!(c_max_bps > 0.0, "c_max must be positive, got {c_max_bps}");
        CapacityModel {
            gamma_min_dbm,
            gamma_max_dbm,
            c_max_bps,
        }
    }

    /// Defaults for the paper's SF7/125 kHz single-channel setting:
    /// `γ_min` at the SF7 sensitivity floor (−123 dBm), `γ_max` at
    /// −80 dBm (strong urban signal), and `c_max` = 5 469 bit/s, the SF7
    /// LoRa PHY bit rate `SF·BW/2^SF·CR`.
    pub fn paper_default() -> Self {
        CapacityModel::new(-123.0, -80.0, 5_469.0)
    }

    /// The RSSI below which capacity is zero, in dBm.
    pub fn gamma_min_dbm(&self) -> f64 {
        self.gamma_min_dbm
    }

    /// The RSSI above which capacity saturates, in dBm.
    pub fn gamma_max_dbm(&self) -> f64 {
        self.gamma_max_dbm
    }

    /// The saturation capacity, in bits per second.
    pub fn max_capacity_bps(&self) -> f64 {
        self.c_max_bps
    }

    /// Link capacity for a received signal strength, in bits per second
    /// (Eq. 5).
    pub fn capacity_bps(&self, rssi_dbm: f64) -> f64 {
        if rssi_dbm < self.gamma_min_dbm {
            0.0
        } else if rssi_dbm > self.gamma_max_dbm {
            self.c_max_bps
        } else {
            self.c_max_bps * (rssi_dbm - self.gamma_min_dbm)
                / (self.gamma_max_dbm - self.gamma_min_dbm)
        }
    }
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piecewise_regions() {
        let m = CapacityModel::new(-120.0, -80.0, 1_000.0);
        assert_eq!(m.capacity_bps(-130.0), 0.0);
        assert_eq!(m.capacity_bps(-120.0), 0.0);
        assert_eq!(m.capacity_bps(-100.0), 500.0);
        assert_eq!(m.capacity_bps(-80.0), 1_000.0);
        assert_eq!(m.capacity_bps(-10.0), 1_000.0);
    }

    #[test]
    fn monotonic_nondecreasing() {
        let m = CapacityModel::paper_default();
        let mut last = -1.0;
        let mut rssi = -150.0;
        while rssi <= -40.0 {
            let c = m.capacity_bps(rssi);
            assert!(c >= last, "capacity decreased at {rssi}");
            last = c;
            rssi += 0.5;
        }
    }

    #[test]
    fn bounded_by_c_max() {
        let m = CapacityModel::paper_default();
        for rssi in [-140.0, -123.0, -100.0, -80.0, 0.0] {
            let c = m.capacity_bps(rssi);
            assert!((0.0..=m.max_capacity_bps()).contains(&c));
        }
    }

    #[test]
    fn boundary_rssi_values_are_exact() {
        let m = CapacityModel::paper_default();
        // Exactly at γ_min the linear branch evaluates to exactly zero…
        assert_eq!(m.capacity_bps(m.gamma_min_dbm()), 0.0);
        // …and exactly at γ_max to exactly c_max (no rounding slop at
        // either end of the piecewise map).
        assert_eq!(m.capacity_bps(m.gamma_max_dbm()), m.max_capacity_bps());
    }

    #[test]
    fn extreme_rssi_saturates_cleanly() {
        let m = CapacityModel::paper_default();
        // A dead channel (no audible devices at all) and an arbitrarily
        // strong one both stay finite and bounded.
        assert_eq!(m.capacity_bps(f64::NEG_INFINITY), 0.0);
        assert_eq!(m.capacity_bps(f64::INFINITY), m.max_capacity_bps());
        assert_eq!(m.capacity_bps(f64::MIN), 0.0);
        assert_eq!(m.capacity_bps(f64::MAX), m.max_capacity_bps());
    }

    #[test]
    fn degenerate_narrow_interval_still_interpolates() {
        // A model whose linear region is a sliver: values inside stay
        // within [0, c_max] and the midpoint lands at half capacity.
        let m = CapacityModel::new(-100.0, -100.0 + 1e-9, 1_000.0);
        let mid = m.capacity_bps(-100.0 + 5e-10);
        // The sliver-wide division loses a few ulps; only the order of
        // magnitude is meaningful here.
        assert!((mid - 500.0).abs() < 1.0, "midpoint {mid}");
        assert_eq!(m.capacity_bps(-100.0), 0.0);
        assert_eq!(m.capacity_bps(-100.0 + 1e-9), 1_000.0);
    }

    #[test]
    #[should_panic(expected = "γ_min < γ_max")]
    fn inverted_thresholds_rejected() {
        let _ = CapacityModel::new(-80.0, -120.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "c_max must be positive")]
    fn zero_capacity_rejected() {
        let _ = CapacityModel::new(-120.0, -80.0, 0.0);
    }
}
