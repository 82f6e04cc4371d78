//! Real-time gateway quality (RGQ, §V.B.1).

/// Real-time gateway quality:
///
/// ```text
/// φx(t) = 1 / RCA-ETX_{x,S}(t),    0 < φ_min ≤ φx ≤ φ_max < ∞
/// ```
///
/// RGQ is the average rate at which a device drains data towards the
/// sinks; ROBC uses it to correct raw queue lengths into *expected
/// waiting times*. The bounds guarantee ROBC stability (§V.B.1, following
/// Yang et al.).
///
/// # Example
///
/// ```
/// use mlora_core::Rgq;
///
/// let rgq = Rgq::new(1e-5, 10.0);
/// assert_eq!(rgq.phi(0.5), 2.0);      // 1/0.5
/// assert_eq!(rgq.phi(0.01), 10.0);    // clamped to φ_max
/// assert_eq!(rgq.phi(1e9), 1e-5);     // clamped to φ_min
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rgq {
    phi_min: f64,
    phi_max: f64,
}

impl Rgq {
    /// Creates RGQ bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < phi_min <= phi_max < ∞`.
    pub fn new(phi_min: f64, phi_max: f64) -> Self {
        assert!(
            phi_min > 0.0 && phi_min <= phi_max && phi_max.is_finite(),
            "need 0 < φ_min ≤ φ_max < ∞, got [{phi_min}, {phi_max}]"
        );
        Rgq { phi_min, phi_max }
    }

    /// The bounds every device runs with, matched to the paper's scales:
    /// `φ_min` corresponds to one packet per [`crate::RCA_ETX_CEILING`]
    /// (a device that has never met a gateway) and `φ_max` to the fastest
    /// service rate the 1 % duty cycle physically allows — one full SF7
    /// bundle every ≈37 s (0.368 s time-on-air × 100). Keeping `φ_max` at
    /// the physical ceiling also keeps Eq. 11's window fraction
    /// meaningful: a γ computed against an unreachable rate would clamp
    /// to 1 for every backlogged device.
    pub const PAPER: Rgq = Rgq {
        phi_min: 1.0 / crate::RCA_ETX_CEILING,
        phi_max: 1.0 / 37.0,
    };

    /// Lower bound `φ_min`.
    pub fn phi_min(&self) -> f64 {
        self.phi_min
    }

    /// Upper bound `φ_max`.
    pub fn phi_max(&self) -> f64 {
        self.phi_max
    }

    /// The bounded gateway quality for a node-to-sink RCA-ETX value.
    ///
    /// Non-positive or non-finite metrics clamp to `φ_max` / `φ_min`
    /// respectively rather than panicking: they arise transiently from
    /// ceiling-capped metrics.
    pub fn phi(&self, rca_etx_s: f64) -> f64 {
        if !rca_etx_s.is_finite() || rca_etx_s <= 0.0 {
            return if rca_etx_s <= 0.0 {
                self.phi_max
            } else {
                self.phi_min
            };
        }
        (1.0 / rca_etx_s).clamp(self.phi_min, self.phi_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_inside_bounds() {
        let rgq = Rgq::new(0.001, 100.0);
        assert_eq!(rgq.phi(2.0), 0.5);
        assert_eq!(rgq.phi(0.1), 10.0);
    }

    #[test]
    fn clamps_at_bounds() {
        let rgq = Rgq::new(0.01, 1.0);
        assert_eq!(rgq.phi(0.001), 1.0);
        assert_eq!(rgq.phi(1e6), 0.01);
    }

    #[test]
    fn pathological_inputs_stay_bounded() {
        let rgq = Rgq::PAPER;
        for x in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let phi = rgq.phi(x);
            assert!(
                phi >= rgq.phi_min() && phi <= rgq.phi_max(),
                "phi({x}) = {phi} out of bounds"
            );
        }
    }

    #[test]
    fn monotone_nonincreasing_in_metric() {
        let rgq = Rgq::PAPER;
        let mut last = f64::INFINITY;
        for rca in [0.1, 1.0, 10.0, 1e3, 1e5, 1e7] {
            let phi = rgq.phi(rca);
            assert!(phi <= last);
            last = phi;
        }
    }

    #[test]
    fn paper_bounds_are_what_the_constructor_builds() {
        let built = Rgq::new(1.0 / crate::RCA_ETX_CEILING, 1.0 / 37.0);
        assert_eq!(Rgq::PAPER.phi_min().to_bits(), built.phi_min().to_bits());
        assert_eq!(Rgq::PAPER.phi_max().to_bits(), built.phi_max().to_bits());
    }

    #[test]
    #[should_panic(expected = "φ_min")]
    fn inverted_bounds_rejected() {
        let _ = Rgq::new(2.0, 1.0);
    }
}
