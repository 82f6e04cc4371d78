//! Gateway-contact bookkeeping and the real-time PST of Eq. 3.

use mlora_simcore::SimTime;

use crate::metric::{packet_service_time, PACKET_BITS, RCA_ETX_CEILING};
use crate::Ewma;

/// Tracks a device's contacts with the gateway set `S` and computes the
/// real-time packet service time (RPST, Eq. 3):
///
/// ```text
/// µ′(t) = 1/c(t_last_slot) + t_Δ                     while in contact
/// µ′(t) = 1/c(ẗⁿ) + (t − ẗⁿ) + t_Δ                  while disconnected
/// ```
///
/// where `ẗⁿ` is the end of the last contact, `c(·)` the capacity
/// observed at the most recent *successful* slot, and `t_Δ` the wait
/// until the device may next transmit. The paper replaces the
/// non-causal "time until next contact" of Eq. 2 with the observable
/// "time since last contact" — the estimator is deliberately
/// backward-looking.
///
/// # Example
///
/// ```
/// use mlora_core::ContactTracker;
/// use mlora_simcore::SimTime;
///
/// let mut ct = ContactTracker::new();
/// ct.record_success(SimTime::from_secs(100), 2_000.0);
/// // In contact: service time is just the transmission time (+ wait).
/// let connected = ct.rpst(SimTime::from_secs(100), 0.0, 2_000.0);
/// assert_eq!(connected, 1.0);
/// ct.record_failure(SimTime::from_secs(280));
/// // Disconnected: the elapsed gap is added.
/// let gap = ct.rpst(SimTime::from_secs(400), 0.0, 2_000.0);
/// assert_eq!(gap, 1.0 + 300.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContactTracker {
    /// End time and capacity (bit/s) of the most recent successful slot.
    last_success: Option<(SimTime, f64)>,
    /// Whether the most recent slot succeeded (device "in contact").
    in_contact: bool,
    successes: u64,
    failures: u64,
}

impl ContactTracker {
    /// Creates a tracker that has never seen a gateway.
    pub fn new() -> Self {
        ContactTracker::default()
    }

    /// Records a successful device-to-sink slot at `t` with the observed
    /// link capacity.
    pub fn record_success(&mut self, t: SimTime, capacity_bps: f64) {
        self.last_success = Some((t, capacity_bps.max(0.0)));
        self.in_contact = true;
        self.successes += 1;
    }

    /// Records a failed device-to-sink slot at `t`; the device leaves
    /// contact (the `n`-th contact window closed at the last success).
    pub fn record_failure(&mut self, _t: SimTime) {
        self.in_contact = false;
        self.failures += 1;
    }

    /// True if the last slot reached a gateway.
    pub fn in_contact(&self) -> bool {
        self.in_contact
    }

    /// Successful slots seen.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Failed slots seen.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// The tracker's raw state `(last_success, in_contact, successes,
    /// failures)` — the checkpoint counterpart of
    /// [`ContactTracker::from_raw_parts`]. Unlike the individual
    /// accessors this exposes the capacity observed at the last
    /// successful slot, which the RPST of Eq. 3 depends on.
    pub fn raw_parts(&self) -> (Option<(SimTime, f64)>, bool, u64, u64) {
        (
            self.last_success,
            self.in_contact,
            self.successes,
            self.failures,
        )
    }

    /// Rebuilds a tracker from state captured by
    /// [`ContactTracker::raw_parts`].
    pub fn from_raw_parts(
        last_success: Option<(SimTime, f64)>,
        in_contact: bool,
        successes: u64,
        failures: u64,
    ) -> Self {
        ContactTracker {
            last_success,
            in_contact,
            successes,
            failures,
        }
    }

    /// The real-time packet service time µ′(t) of Eq. 3, in seconds.
    ///
    /// `wait_s` is `t_Δ`, the time before the device may next transmit
    /// (duty-cycle gate); `packet_bits` scales the `1/c` transmission
    /// term to a full frame. A device that has never reached any gateway
    /// reports [`RCA_ETX_CEILING`].
    pub fn rpst(&self, now: SimTime, wait_s: f64, packet_bits: f64) -> f64 {
        let Some((t_last, cap)) = self.last_success else {
            return RCA_ETX_CEILING;
        };
        let tx_time = packet_service_time(cap, packet_bits);
        let value = if self.in_contact {
            tx_time + wait_s
        } else {
            tx_time + now.saturating_since(t_last).as_secs_f64() + wait_s
        };
        value.min(RCA_ETX_CEILING)
    }
}

/// The complete node-to-sink metric: RPST observations smoothed by the
/// Eq. 4 EWMA, i.e. `RCA-ETX_{x,S}(t) = E[µ′_{x,S}(t)]`.
///
/// Call [`RcaEtxEstimator::observe`] at every device-to-sink slot
/// (§IV.B: "computed at the beginning of every time slot reserved for
/// its device-to-sink communication") and read
/// [`RcaEtxEstimator::rca_etx`] whenever a forwarding decision is made.
/// Frames are [`PACKET_BITS`] long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcaEtxEstimator {
    tracker: ContactTracker,
    ewma: Ewma,
}

impl RcaEtxEstimator {
    /// Creates an estimator with EWMA factor `alpha` (paper default 0.5).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        RcaEtxEstimator {
            tracker: ContactTracker::new(),
            ewma: Ewma::new(alpha),
        }
    }

    /// Records the outcome of a device-to-sink slot at `t` and folds the
    /// resulting RPST into the EWMA. `capacity_bps` is `Some` with the
    /// observed capacity on success, `None` on failure. `wait_s` is the
    /// duty-cycle wait the device would face for an immediate retry.
    pub fn observe(&mut self, t: SimTime, capacity_bps: Option<f64>, wait_s: f64) -> f64 {
        match capacity_bps {
            Some(c) => self.tracker.record_success(t, c),
            None => self.tracker.record_failure(t),
        }
        let rpst = self.tracker.rpst(t, wait_s, PACKET_BITS);
        self.ewma.push(rpst)
    }

    /// The current `RCA-ETX_{x,S}`, in seconds. Devices with no
    /// observations yet report [`RCA_ETX_CEILING`].
    pub fn rca_etx(&self) -> f64 {
        self.ewma.value().unwrap_or(RCA_ETX_CEILING)
    }

    /// The metric *previewed at `now`*: the Eq. 4 update evaluated against
    /// the instantaneous RPST without committing it to the EWMA.
    ///
    /// Forwarding decisions happen between slots (Eq. 1 compares
    /// `RCA-ETX_{x,S}(t)` at overhear time `t`), when a disconnection gap
    /// may have grown well past the last slot's estimate; previewing keeps
    /// the decision real-time while leaving slot bookkeeping untouched.
    pub fn rca_etx_at(&self, now: SimTime, wait_s: f64) -> f64 {
        let rpst = self.tracker.rpst(now, wait_s, PACKET_BITS);
        match self.ewma.value() {
            None => rpst,
            Some(prev) => (1.0 - self.ewma.alpha()) * prev + self.ewma.alpha() * rpst,
        }
    }

    /// The underlying contact tracker.
    pub fn tracker(&self) -> &ContactTracker {
        &self.tracker
    }

    /// The EWMA smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.ewma.alpha()
    }

    /// The estimator's raw state `(tracker, ewma)` — the checkpoint
    /// counterpart of [`RcaEtxEstimator::from_raw_parts`].
    pub fn raw_parts(&self) -> (ContactTracker, Ewma) {
        (self.tracker, self.ewma)
    }

    /// Rebuilds an estimator from state captured by
    /// [`RcaEtxEstimator::raw_parts`].
    pub fn from_raw_parts(tracker: ContactTracker, ewma: Ewma) -> Self {
        RcaEtxEstimator { tracker, ewma }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BITS: f64 = 2_000.0;

    #[test]
    fn never_contacted_is_ceiling() {
        let ct = ContactTracker::new();
        assert_eq!(ct.rpst(SimTime::from_secs(999), 0.0, BITS), RCA_ETX_CEILING);
    }

    #[test]
    fn in_contact_uses_tx_time_plus_wait() {
        let mut ct = ContactTracker::new();
        ct.record_success(SimTime::from_secs(10), 1_000.0);
        assert_eq!(ct.rpst(SimTime::from_secs(10), 3.0, BITS), 2.0 + 3.0);
    }

    #[test]
    fn disconnected_adds_elapsed_gap() {
        let mut ct = ContactTracker::new();
        ct.record_success(SimTime::from_secs(10), 1_000.0);
        ct.record_failure(SimTime::from_secs(100));
        // Gap measured from the last success, not the failure.
        assert_eq!(ct.rpst(SimTime::from_secs(110), 0.0, BITS), 2.0 + 100.0);
    }

    #[test]
    fn regaining_contact_resets_gap() {
        let mut ct = ContactTracker::new();
        ct.record_success(SimTime::from_secs(10), 1_000.0);
        ct.record_failure(SimTime::from_secs(100));
        ct.record_success(SimTime::from_secs(200), 2_000.0);
        assert_eq!(ct.rpst(SimTime::from_secs(200), 0.0, BITS), 1.0);
        assert!(ct.in_contact());
        assert_eq!(ct.successes(), 2);
        assert_eq!(ct.failures(), 1);
    }

    #[test]
    fn rpst_capped_at_ceiling() {
        let mut ct = ContactTracker::new();
        ct.record_success(SimTime::ZERO, 1_000.0);
        ct.record_failure(SimTime::from_secs(1));
        let far_future = SimTime::from_secs(2_000_000_000);
        assert_eq!(ct.rpst(far_future, 0.0, BITS), RCA_ETX_CEILING);
    }

    #[test]
    fn estimator_smooths_with_alpha() {
        let mut est = RcaEtxEstimator::new(0.5);
        // A full frame at 1 020 bit/s takes 2 s.
        est.observe(SimTime::from_secs(0), Some(1_020.0), 0.0); // RPST 2
        assert_eq!(est.rca_etx(), 2.0);
        est.observe(SimTime::from_secs(180), None, 0.0); // RPST 2 + 180
        assert_eq!(est.rca_etx(), 0.5 * 2.0 + 0.5 * 182.0);
    }

    #[test]
    fn estimator_unobserved_reports_ceiling() {
        let est = RcaEtxEstimator::new(0.5);
        assert_eq!(est.rca_etx(), RCA_ETX_CEILING);
    }

    #[test]
    fn good_contact_beats_bad_contact() {
        let mut good = RcaEtxEstimator::new(0.5);
        let mut bad = RcaEtxEstimator::new(0.5);
        for i in 0..10u64 {
            let t = SimTime::from_secs(i * 180);
            good.observe(t, Some(4_000.0), 0.0);
            bad.observe(t, if i % 4 == 0 { Some(4_000.0) } else { None }, 0.0);
        }
        assert!(good.rca_etx() < bad.rca_etx());
    }
}
