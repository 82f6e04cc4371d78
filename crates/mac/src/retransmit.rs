//! Retransmission policy.

/// The paper's retransmission rule (§VII.A.5): a device retries an
/// unacknowledged frame once its duty-cycle timer expires, up to eight
/// attempts, and the counter resets whenever a new packet is generated.
///
/// # Example
///
/// ```
/// use mlora_mac::RetransmitPolicy;
///
/// let mut rt = RetransmitPolicy::paper_default();
/// for _ in 0..7 {
///     assert!(rt.record_failure());
/// }
/// assert!(!rt.record_failure()); // eighth failure: give up
/// rt.reset();                    // new packet generated
/// assert!(rt.record_failure());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    max_attempts: u32,
    attempts: u32,
}

impl RetransmitPolicy {
    /// Creates a policy allowing `max_attempts` transmissions per frame.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        RetransmitPolicy {
            max_attempts,
            attempts: 0,
        }
    }

    /// The paper's setting: eight attempts.
    pub fn paper_default() -> Self {
        RetransmitPolicy::new(8)
    }

    /// Records a failed attempt; returns `true` if another retry is
    /// permitted.
    pub fn record_failure(&mut self) -> bool {
        self.attempts += 1;
        self.attempts < self.max_attempts
    }

    /// Resets the attempt counter (new packet generated, or a success).
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Maximum attempts per frame.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// True when no retries remain.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.max_attempts
    }

    /// Rebuilds a policy from `(max_attempts, attempts)` parts — the
    /// checkpoint counterpart of [`RetransmitPolicy::max_attempts`] and
    /// [`RetransmitPolicy::attempts`]. `attempts` may exceed
    /// `max_attempts`: denied post-exhaustion failures still count.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn from_parts(max_attempts: u32, attempts: u32) -> Self {
        let mut rt = RetransmitPolicy::new(max_attempts);
        rt.attempts = attempts;
        rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_attempts_then_exhausted() {
        let mut rt = RetransmitPolicy::paper_default();
        let mut allowed = 0;
        while rt.record_failure() {
            allowed += 1;
        }
        assert_eq!(allowed, 7); // 8th failure exhausts
        assert!(rt.exhausted());
    }

    #[test]
    fn reset_restores_budget() {
        let mut rt = RetransmitPolicy::new(2);
        assert!(rt.record_failure());
        assert!(!rt.record_failure());
        rt.reset();
        assert_eq!(rt.attempts(), 0);
        assert!(!rt.exhausted());
        assert!(rt.record_failure());
    }

    #[test]
    fn failures_past_exhaustion_stay_denied() {
        // Once the budget is spent, further failures keep reporting
        // "give up" (the engine may race one more settle in) and the
        // policy stays exhausted until an explicit reset.
        let mut rt = RetransmitPolicy::new(3);
        while rt.record_failure() {}
        assert!(rt.exhausted());
        for _ in 0..4 {
            assert!(!rt.record_failure());
            assert!(rt.exhausted());
        }
        assert_eq!(rt.attempts(), 7); // 3 to exhaust + 4 denied
    }

    #[test]
    fn single_attempt_policy_exhausts_immediately() {
        let mut rt = RetransmitPolicy::new(1);
        assert!(!rt.exhausted());
        assert!(!rt.record_failure()); // the only attempt fails: give up
        assert!(rt.exhausted());
    }

    #[test]
    fn accessors_track_configuration() {
        let rt = RetransmitPolicy::paper_default();
        assert_eq!(rt.max_attempts(), 8);
        assert_eq!(rt.attempts(), 0);
        assert!(!rt.exhausted());
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetransmitPolicy::new(0);
    }
}
