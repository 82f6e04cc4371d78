//! CA-ETX — the prior-work comparator (§III.C).
//!
//! Contact-Aware ETX (Yang et al., IEEE TMC 2017) is the metric RCA-ETX
//! extends. It estimates the node-to-sink cost from the *long-term
//! statistics* of inter-contact gaps — mean and variance accumulated over
//! the device's history — rather than from real-time observations. The
//! paper argues (§III.C) that under MLoRa-SS duty cycles those statistics
//! go stale and degrade scheduling; implementing CA-ETX lets the
//! evaluation quantify that claim.

use mlora_simcore::stats::Welford;
use mlora_simcore::SimTime;

use crate::metric::{packet_service_time, PACKET_BITS, RCA_ETX_CEILING};

/// The CA-ETX estimator: long-term mean (and variance) of inter-contact
/// gaps plus the transmission term of a [`PACKET_BITS`] frame.
///
/// The node-to-sink cost is estimated as
///
/// ```text
/// CA-ETX_{x,S} = 1/c̄ + E[gap]/2
/// ```
///
/// — the mean transmission time plus the expected residual wait until
/// the next contact under a renewal assumption (half the mean
/// inter-contact gap). Unlike [`crate::RcaEtxEstimator`], nothing here
/// reacts to *how long ago* the last contact happened: two devices with
/// identical histories report identical costs even if one has been dark
/// for an hour. That staleness is exactly the §III.C critique.
///
/// # Example
///
/// ```
/// use mlora_core::CaEtxEstimator;
/// use mlora_simcore::SimTime;
///
/// let mut est = CaEtxEstimator::new();
/// est.observe(SimTime::from_secs(0), Some(2_000.0));
/// est.observe(SimTime::from_secs(600), Some(2_000.0));
/// // Mean gap 600 s → expected residual wait 300 s (+ ~1 s tx time).
/// assert!((est.ca_etx() - 301.02).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaEtxEstimator {
    gaps: Welford,
    capacities: Welford,
    last_contact: Option<SimTime>,
}

impl CaEtxEstimator {
    /// Creates an estimator with no contact history.
    pub fn new() -> Self {
        CaEtxEstimator {
            gaps: Welford::new(),
            capacities: Welford::new(),
            last_contact: None,
        }
    }

    /// Records the outcome of a device-to-sink slot at `t`:
    /// `capacity_bps` is `Some` with the observed capacity on success,
    /// `None` on failure. Failures do not update the statistics — CA-ETX
    /// only learns from contacts.
    pub fn observe(&mut self, t: SimTime, capacity_bps: Option<f64>) {
        let Some(cap) = capacity_bps else {
            return;
        };
        if let Some(prev) = self.last_contact {
            self.gaps.push(t.saturating_since(prev).as_secs_f64());
        }
        self.capacities.push(cap.max(0.0));
        self.last_contact = Some(t);
    }

    /// The CA-ETX node-to-sink cost, seconds. Devices with no contact
    /// history report [`RCA_ETX_CEILING`].
    pub fn ca_etx(&self) -> f64 {
        if self.capacities.count() == 0 {
            return RCA_ETX_CEILING;
        }
        let tx = packet_service_time(self.capacities.mean(), PACKET_BITS);
        let wait = if self.gaps.count() == 0 {
            // One contact ever: no gap statistics yet; be optimistic about
            // the wait (the device is presumably still in contact).
            0.0
        } else {
            self.gaps.mean() / 2.0
        };
        (tx + wait).min(RCA_ETX_CEILING)
    }

    /// Number of successful contacts observed.
    pub fn contacts(&self) -> u64 {
        self.capacities.count()
    }

    /// The estimator's raw state `(gaps, capacities, last_contact)` —
    /// the checkpoint counterpart of [`CaEtxEstimator::from_raw_parts`].
    pub fn raw_parts(&self) -> (Welford, Welford, Option<SimTime>) {
        (self.gaps, self.capacities, self.last_contact)
    }

    /// Rebuilds an estimator from state captured by
    /// [`CaEtxEstimator::raw_parts`].
    pub fn from_raw_parts(
        gaps: Welford,
        capacities: Welford,
        last_contact: Option<SimTime>,
    ) -> Self {
        CaEtxEstimator {
            gaps,
            capacities,
            last_contact,
        }
    }
}

impl Default for CaEtxEstimator {
    fn default() -> Self {
        CaEtxEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_is_ceiling() {
        assert_eq!(CaEtxEstimator::new().ca_etx(), RCA_ETX_CEILING);
    }

    #[test]
    fn single_contact_only_tx_term() {
        let mut e = CaEtxEstimator::new();
        e.observe(SimTime::from_secs(10), Some(2_040.0));
        assert!((e.ca_etx() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_gap_drives_wait_term() {
        let mut e = CaEtxEstimator::new();
        for i in 0..5u64 {
            e.observe(SimTime::from_secs(i * 400), Some(2_040.0));
        }
        assert!((e.ca_etx() - (1.0 + 200.0)).abs() < 1e-9);
    }

    #[test]
    fn failures_are_invisible() {
        let mut with_failures = CaEtxEstimator::new();
        let mut without = CaEtxEstimator::new();
        for i in 0..5u64 {
            let t = SimTime::from_secs(i * 400);
            with_failures.observe(t, Some(2_040.0));
            without.observe(t, Some(2_040.0));
            // Interleave failures; CA-ETX must not notice.
            with_failures.observe(t + mlora_simcore::SimDuration::from_secs(100), None);
        }
        assert_eq!(with_failures.ca_etx(), without.ca_etx());
    }

    #[test]
    fn staleness_blind_spot() {
        // The §III.C critique in miniature: after the same history, the
        // CA-ETX of a device dark for an hour equals its fresh value,
        // while RCA-ETX's real-time preview diverges.
        let mut ca = CaEtxEstimator::new();
        let mut rca = crate::RcaEtxEstimator::new(0.5);
        for i in 0..5u64 {
            let t = SimTime::from_secs(i * 300);
            ca.observe(t, Some(2_040.0));
            rca.observe(t, Some(2_040.0), 0.0);
        }
        // Both devices then lose the gateway and go dark for an hour.
        let t_fail = SimTime::from_secs(5 * 300);
        ca.observe(t_fail, None);
        rca.observe(t_fail, None, 0.0);
        let fresh_ca = ca.ca_etx();
        let hour_later = t_fail + mlora_simcore::SimDuration::from_hours(1);
        assert_eq!(ca.ca_etx(), fresh_ca); // blind to elapsed time
        assert!(rca.rca_etx_at(hour_later, 0.0) > rca.rca_etx());
    }

    #[test]
    fn variance_tracked() {
        let mut e = CaEtxEstimator::new();
        for t in [0u64, 100, 500, 600, 1_400] {
            e.observe(SimTime::from_secs(t), Some(2_040.0));
        }
        let (gaps, _, _) = e.raw_parts();
        assert!(gaps.std_dev() > 0.0);
        assert_eq!(e.contacts(), 5);
    }
}
