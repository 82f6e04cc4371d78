//! ROBC weights, partial transfers, and the anti-loop ledger (§V.B).

use std::collections::HashSet;

use mlora_simcore::NodeId;

/// The ROBC scheduling weight of Eq. 10:
///
/// ```text
/// ω_{x,y}(t) = Qx(t)/φx(t) − Qy(t)/φy(t)
/// ```
///
/// `Q/φ` is the *expected waiting time* of the backlog: raw queue lengths
/// corrected by each device's gateway quality. `x` forwards to `y` only
/// when `ω > 0`, i.e. its backlog would drain strictly faster through
/// `y`.
pub fn robc_weight(queue_x: usize, phi_x: f64, queue_y: usize, phi_y: f64) -> f64 {
    debug_assert!(phi_x > 0.0 && phi_y > 0.0, "RGQ must be positive");
    queue_x as f64 / phi_x - queue_y as f64 / phi_y
}

/// The partial transfer size of §V.B.2:
///
/// ```text
/// δ_{x,y}(t) = Qx(t) − Qy(t)·φx/φy
/// ```
///
/// Unlike classic backpressure, which saturates the link, ROBC moves only
/// the amount that equalises RGQ-corrected backlogs — transferring more
/// would immediately create reverse pressure and ping-pong packets under
/// the sparse transmission opportunities of MLoRa-SS. Returns 0 when the
/// weight is non-positive.
pub fn robc_transfer_amount(queue_x: usize, phi_x: f64, queue_y: usize, phi_y: f64) -> usize {
    let delta = queue_x as f64 - queue_y as f64 * phi_x / phi_y;
    if delta <= 0.0 {
        return 0;
    }
    // Never hand over more than we hold.
    (delta.floor() as usize).min(queue_x)
}

/// The anti-loop rule of §V.B.2: "device y will not send data received
/// from x back even if y hears from x before its next forwarding
/// opportunity to the sinks."
///
/// A device records every donor it accepted data from; donors are barred
/// as forwarding targets until the device next gets a chance to push data
/// towards the sinks (its next own uplink slot), at which point the
/// ledger clears.
///
/// # Example
///
/// ```
/// use mlora_core::DonorLedger;
/// use mlora_simcore::NodeId;
///
/// let mut ledger = DonorLedger::new();
/// ledger.record_donor(NodeId::new(7));
/// assert!(ledger.is_barred(NodeId::new(7)));
/// ledger.clear_on_sink_opportunity();
/// assert!(!ledger.is_barred(NodeId::new(7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DonorLedger {
    donors: HashSet<NodeId>,
}

impl DonorLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        DonorLedger::default()
    }

    /// Records that data was accepted from `donor`.
    pub fn record_donor(&mut self, donor: NodeId) {
        self.donors.insert(donor);
    }

    /// True if forwarding to `node` is currently barred.
    pub fn is_barred(&self, node: NodeId) -> bool {
        self.donors.contains(&node)
    }

    /// Clears the ledger — called at the device's next opportunity to
    /// forward towards the sinks (its own uplink slot).
    pub fn clear_on_sink_opportunity(&mut self) {
        self.donors.clear();
    }

    /// Number of barred donors.
    pub fn len(&self) -> usize {
        self.donors.len()
    }

    /// True if no donors are barred.
    pub fn is_empty(&self) -> bool {
        self.donors.is_empty()
    }

    /// The barred donors in ascending id order — a deterministic view of
    /// the internal set, the checkpoint counterpart of
    /// [`DonorLedger::from_donors`].
    pub fn donors_sorted(&self) -> Vec<NodeId> {
        let mut donors: Vec<NodeId> = self.donors.iter().copied().collect();
        donors.sort_unstable();
        donors
    }

    /// Rebuilds a ledger barring exactly `donors`.
    pub fn from_donors(donors: impl IntoIterator<Item = NodeId>) -> Self {
        DonorLedger {
            donors: donors.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_sign_drives_decision() {
        // Equal quality: heavier queue pushes towards lighter.
        assert!(robc_weight(10, 1.0, 2, 1.0) > 0.0);
        assert!(robc_weight(2, 1.0, 10, 1.0) < 0.0);
        // Equal queues, better-connected neighbour attracts data.
        assert!(robc_weight(5, 0.1, 5, 1.0) > 0.0);
        // Zero either side.
        assert_eq!(robc_weight(0, 1.0, 0, 1.0), 0.0);
    }

    #[test]
    fn transfer_equalises_corrected_backlogs() {
        // Same φ: transfer half the difference... δ = Qx − Qy = 8.
        assert_eq!(robc_transfer_amount(10, 1.0, 2, 1.0), 8);
        // After moving 8, weights reverse direction — no further motion:
        assert_eq!(robc_transfer_amount(2, 1.0, 10, 1.0), 0);
    }

    #[test]
    fn transfer_zero_when_weight_nonpositive() {
        assert_eq!(robc_transfer_amount(5, 1.0, 5, 1.0), 0);
        assert_eq!(robc_transfer_amount(3, 1.0, 4, 1.0), 0);
    }

    #[test]
    fn transfer_scales_with_quality_ratio() {
        // x poorly connected (φx=0.1), y well connected (φy=1.0): x keeps
        // almost nothing. δ = 10 − 3·0.1 = 9.7 → 9.
        assert_eq!(robc_transfer_amount(10, 0.1, 3, 1.0), 9);
        // Reverse: x well connected; δ = 10 − 3·10 < 0 → 0.
        assert_eq!(robc_transfer_amount(10, 1.0, 3, 0.1), 0);
    }

    #[test]
    fn transfer_never_exceeds_own_queue() {
        for qx in 0..20 {
            for qy in 0..20 {
                let d = robc_transfer_amount(qx, 1.0, qy, 0.01);
                assert!(d <= qx, "δ {d} exceeds queue {qx}");
            }
        }
    }

    #[test]
    fn ledger_bars_until_sink_opportunity() {
        let mut l = DonorLedger::new();
        assert!(l.is_empty());
        l.record_donor(NodeId::new(1));
        l.record_donor(NodeId::new(2));
        l.record_donor(NodeId::new(1));
        assert_eq!(l.len(), 2);
        assert!(l.is_barred(NodeId::new(1)));
        assert!(!l.is_barred(NodeId::new(3)));
        l.clear_on_sink_opportunity();
        assert!(l.is_empty());
    }

    #[test]
    fn ledger_bars_immediately_after_record() {
        // The §V.B.2 boundary: the bar must hold from the instant of
        // acceptance — there is no grace window.
        let mut l = DonorLedger::new();
        assert!(!l.is_barred(NodeId::new(7)), "fresh ledger bars nobody");
        l.record_donor(NodeId::new(7));
        assert!(l.is_barred(NodeId::new(7)));
        assert_eq!(l.len(), 1);
        // Only the recorded donor is barred, not neighbours of it.
        assert!(!l.is_barred(NodeId::new(6)));
        assert!(!l.is_barred(NodeId::new(8)));
    }

    #[test]
    fn ledger_clears_completely_on_sink_opportunity() {
        let mut l = DonorLedger::new();
        for i in 0..16 {
            l.record_donor(NodeId::new(i));
        }
        assert_eq!(l.len(), 16);
        l.clear_on_sink_opportunity();
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        for i in 0..16 {
            assert!(!l.is_barred(NodeId::new(i)), "donor {i} survived clear");
        }
        // The ledger is reusable after clearing.
        l.record_donor(NodeId::new(3));
        assert!(l.is_barred(NodeId::new(3)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn ledger_empty_and_len_invariants() {
        let mut l = DonorLedger::default();
        // Default and new are indistinguishable, and emptiness tracks len.
        assert_eq!(l, DonorLedger::new());
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        // Clearing an empty ledger is a harmless no-op.
        l.clear_on_sink_opportunity();
        assert!(l.is_empty());
        // Re-recording the same donor is idempotent: len counts distinct
        // donors, and is_empty tracks len through every transition.
        l.record_donor(NodeId::new(5));
        l.record_donor(NodeId::new(5));
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
        l.clear_on_sink_opportunity();
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
    }
}
