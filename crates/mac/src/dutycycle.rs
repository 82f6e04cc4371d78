//! EU868 duty-cycle enforcement.

use mlora_phy::duty_cycle_wait;
use mlora_simcore::{SimDuration, SimTime};

/// Tracks when a device may next transmit under a duty-cycle cap.
///
/// EU868 general data channels allow 1 % duty cycle (§III.B): after a
/// transmission of airtime *T*, the device must stay silent for *99 T*.
///
/// # Example
///
/// ```
/// use mlora_mac::DutyCycleTracker;
/// use mlora_simcore::{SimDuration, SimTime};
///
/// let mut dc = DutyCycleTracker::new(0.01);
/// let t0 = SimTime::from_secs(100);
/// assert!(dc.can_transmit(t0));
/// dc.record_tx(t0, SimDuration::from_millis(400));
/// assert!(!dc.can_transmit(SimTime::from_secs(120)));
/// assert!(dc.can_transmit(t0 + SimDuration::from_millis(40_000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleTracker {
    duty_cycle: f64,
    next_allowed: SimTime,
    total_airtime: SimDuration,
    tx_count: u64,
}

impl DutyCycleTracker {
    /// Creates a tracker for the given duty cycle (e.g. `0.01` for 1 %).
    ///
    /// # Panics
    ///
    /// Panics if `duty_cycle` is not in `(0, 1]`.
    pub fn new(duty_cycle: f64) -> Self {
        assert!(
            duty_cycle > 0.0 && duty_cycle <= 1.0,
            "duty cycle must be in (0, 1], got {duty_cycle}"
        );
        DutyCycleTracker {
            duty_cycle,
            next_allowed: SimTime::ZERO,
            total_airtime: SimDuration::ZERO,
            tx_count: 0,
        }
    }

    /// True if the device may start a transmission at `t`.
    pub fn can_transmit(&self, t: SimTime) -> bool {
        t >= self.next_allowed
    }

    /// Earliest instant at or after `t` when transmission is allowed.
    pub fn next_opportunity(&self, t: SimTime) -> SimTime {
        t.max(self.next_allowed)
    }

    /// Records a transmission starting at `t` lasting `airtime`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the transmission violates the duty cycle
    /// (the caller should have gated on [`DutyCycleTracker::can_transmit`]).
    pub fn record_tx(&mut self, t: SimTime, airtime: SimDuration) {
        debug_assert!(self.can_transmit(t), "duty-cycle violation at {t}");
        self.next_allowed = t + airtime + duty_cycle_wait(airtime, self.duty_cycle);
        self.total_airtime += airtime;
        self.tx_count += 1;
    }

    /// The configured duty cycle.
    pub fn duty_cycle(&self) -> f64 {
        self.duty_cycle
    }

    /// Cumulative airtime used.
    pub fn total_airtime(&self) -> SimDuration {
        self.total_airtime
    }

    /// Number of transmissions recorded.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// The tracker's raw state `(duty_cycle, next_allowed, total_airtime,
    /// tx_count)` — the checkpoint counterpart of
    /// [`DutyCycleTracker::from_raw_parts`]. Unlike the individual
    /// accessors this exposes `next_allowed`, the silent-until instant the
    /// duty-cycle gate turns on.
    pub fn raw_parts(&self) -> (f64, SimTime, SimDuration, u64) {
        (
            self.duty_cycle,
            self.next_allowed,
            self.total_airtime,
            self.tx_count,
        )
    }

    /// Rebuilds a tracker from state captured by
    /// [`DutyCycleTracker::raw_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `duty_cycle` is not in `(0, 1]`.
    pub fn from_raw_parts(
        duty_cycle: f64,
        next_allowed: SimTime,
        total_airtime: SimDuration,
        tx_count: u64,
    ) -> Self {
        let mut dc = DutyCycleTracker::new(duty_cycle);
        dc.next_allowed = next_allowed;
        dc.total_airtime = total_airtime;
        dc.tx_count = tx_count;
        dc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforces_one_percent() {
        let mut dc = DutyCycleTracker::new(0.01);
        let toa = SimDuration::from_millis(100);
        dc.record_tx(SimTime::ZERO, toa);
        // Busy until 100 ms + 9 900 ms.
        assert!(!dc.can_transmit(SimTime::from_millis(9_999)));
        assert!(dc.can_transmit(SimTime::from_millis(10_000)));
        assert_eq!(
            dc.next_opportunity(SimTime::ZERO),
            SimTime::from_millis(10_000)
        );
    }

    #[test]
    fn full_duty_cycle_only_waits_airtime() {
        let mut dc = DutyCycleTracker::new(1.0);
        dc.record_tx(SimTime::ZERO, SimDuration::from_millis(100));
        assert!(dc.can_transmit(SimTime::from_millis(100)));
    }

    #[test]
    fn accumulates_airtime_and_count() {
        let mut dc = DutyCycleTracker::new(0.01);
        dc.record_tx(SimTime::ZERO, SimDuration::from_millis(50));
        dc.record_tx(
            dc.next_opportunity(SimTime::ZERO),
            SimDuration::from_millis(70),
        );
        assert_eq!(dc.total_airtime(), SimDuration::from_millis(120));
        assert_eq!(dc.tx_count(), 2);
    }

    #[test]
    fn long_run_respects_cap() {
        // Transmit greedily for a simulated hour; airtime share must stay
        // at or below 1 %.
        let mut dc = DutyCycleTracker::new(0.01);
        let toa = SimDuration::from_millis(400);
        let horizon = SimTime::from_secs(3600);
        let mut t = SimTime::ZERO;
        while t < horizon {
            t = dc.next_opportunity(t);
            if t >= horizon {
                break;
            }
            dc.record_tx(t, toa);
            t += toa;
        }
        let share = dc.total_airtime().as_secs_f64() / 3600.0;
        assert!(share <= 0.0101, "duty share {share}");
        assert!(share > 0.009, "duty share suspiciously low {share}");
    }

    #[test]
    fn window_boundary_is_inclusive() {
        // The first legal instant after a transmission is exactly
        // `t + airtime + wait`: one millisecond earlier is refused, the
        // boundary itself is accepted, and transmitting at the boundary
        // does not trip the debug-mode violation check.
        let mut dc = DutyCycleTracker::new(0.01);
        let t0 = SimTime::from_secs(10);
        dc.record_tx(t0, SimDuration::from_millis(100));
        let boundary = t0 + SimDuration::from_millis(10_000);
        assert!(!dc.can_transmit(boundary - SimDuration::from_millis(1)));
        assert!(dc.can_transmit(boundary));
        assert_eq!(dc.next_opportunity(boundary), boundary);
        // A query from beyond the boundary never moves backwards in time.
        let later = boundary + SimDuration::from_secs(5);
        assert_eq!(dc.next_opportunity(later), later);
        dc.record_tx(boundary, SimDuration::from_millis(100));
        assert_eq!(dc.tx_count(), 2);
    }

    #[test]
    fn zero_airtime_leaves_window_open() {
        // A degenerate zero-length transmission consumes no budget: the
        // device may transmit again at the same instant.
        let mut dc = DutyCycleTracker::new(0.01);
        let t0 = SimTime::from_secs(3);
        dc.record_tx(t0, SimDuration::ZERO);
        assert!(dc.can_transmit(t0));
        assert_eq!(dc.next_opportunity(t0), t0);
        assert_eq!(dc.total_airtime(), SimDuration::ZERO);
    }

    #[test]
    fn fresh_tracker_allows_time_zero() {
        let dc = DutyCycleTracker::new(0.01);
        assert!(dc.can_transmit(SimTime::ZERO));
        assert_eq!(dc.next_opportunity(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(dc.tx_count(), 0);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn invalid_duty_cycle_rejected() {
        let _ = DutyCycleTracker::new(1.5);
    }
}
