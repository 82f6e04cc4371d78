//! Radio energy accounting.

use mlora_simcore::SimDuration;

/// Radio operating states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Transmitting.
    Tx,
    /// Receiving / listening.
    Rx,
    /// Awake but radio idle.
    Idle,
    /// Deep sleep.
    Sleep,
}

/// Per-state power draw of the radio, in milliwatts.
///
/// Defaults approximate an SX1276 at +14 dBm on a 3.3 V supply:
/// TX ≈ 120 mA, RX ≈ 12 mA, idle ≈ 2 mA, sleep ≈ 1 µA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Transmit power draw, mW.
    pub tx_mw: f64,
    /// Receive/listen power draw, mW.
    pub rx_mw: f64,
    /// Idle power draw, mW.
    pub idle_mw: f64,
    /// Sleep power draw, mW.
    pub sleep_mw: f64,
}

impl EnergyModel {
    /// SX1276-style defaults at +14 dBm / 3.3 V.
    pub const fn sx1276() -> Self {
        EnergyModel {
            tx_mw: 396.0,
            rx_mw: 39.6,
            idle_mw: 6.6,
            sleep_mw: 0.0033,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::sx1276()
    }
}

/// Accumulates time in each radio state and converts to energy.
///
/// # Example
///
/// ```
/// use mlora_mac::{EnergyAccount, EnergyModel, RadioState};
/// use mlora_simcore::SimDuration;
///
/// let mut acct = EnergyAccount::new();
/// acct.add(RadioState::Tx, SimDuration::from_secs(1));
/// acct.add(RadioState::Sleep, SimDuration::from_secs(99));
/// let mj = acct.energy_mj(&EnergyModel::sx1276());
/// assert!(mj > 396.0 && mj < 397.0); // dominated by the 1 s of TX
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyAccount {
    tx: SimDuration,
    rx: SimDuration,
    idle: SimDuration,
    sleep: SimDuration,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Adds `dur` spent in `state`.
    pub fn add(&mut self, state: RadioState, dur: SimDuration) {
        match state {
            RadioState::Tx => self.tx += dur,
            RadioState::Rx => self.rx += dur,
            RadioState::Idle => self.idle += dur,
            RadioState::Sleep => self.sleep += dur,
        }
    }

    /// Total energy in millijoules under `model`.
    pub fn energy_mj(&self, model: &EnergyModel) -> f64 {
        self.tx.as_secs_f64() * model.tx_mw
            + self.rx.as_secs_f64() * model.rx_mw
            + self.idle.as_secs_f64() * model.idle_mw
            + self.sleep.as_secs_f64() * model.sleep_mw
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        self.tx += other.tx;
        self.rx += other.rx;
        self.idle += other.idle;
        self.sleep += other.sleep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_state() {
        let mut a = EnergyAccount::new();
        a.add(RadioState::Tx, SimDuration::from_secs(2));
        a.add(RadioState::Rx, SimDuration::from_secs(3));
        a.add(RadioState::Tx, SimDuration::from_secs(1));
        let mut expected = EnergyAccount::new();
        expected.add(RadioState::Tx, SimDuration::from_secs(3));
        expected.add(RadioState::Rx, SimDuration::from_secs(3));
        assert_eq!(a, expected);
    }

    #[test]
    fn energy_weighted_by_power() {
        let model = EnergyModel {
            tx_mw: 100.0,
            rx_mw: 10.0,
            idle_mw: 1.0,
            sleep_mw: 0.0,
        };
        let mut a = EnergyAccount::new();
        a.add(RadioState::Tx, SimDuration::from_secs(1));
        a.add(RadioState::Rx, SimDuration::from_secs(10));
        a.add(RadioState::Sleep, SimDuration::from_hours(10));
        assert_eq!(a.energy_mj(&model), 200.0);
    }

    #[test]
    fn rx_dominates_always_on_listener() {
        // A Modified Class-C day is RX-dominated; a Queue-based Class-A
        // day with γ=0.2 saves roughly 80 % of that RX energy.
        let model = EnergyModel::sx1276();
        let mut class_c = EnergyAccount::new();
        class_c.add(RadioState::Rx, SimDuration::from_hours(24));
        let mut class_qa = EnergyAccount::new();
        class_qa.add(RadioState::Rx, SimDuration::from_hours(24).mul_f64(0.2));
        class_qa.add(RadioState::Sleep, SimDuration::from_hours(24).mul_f64(0.8));
        assert!(class_qa.energy_mj(&model) < 0.25 * class_c.energy_mj(&model));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = EnergyAccount::new();
        a.add(RadioState::Idle, SimDuration::from_secs(5));
        let mut b = EnergyAccount::new();
        b.add(RadioState::Idle, SimDuration::from_secs(7));
        a.merge(&b);
        let mut expected = EnergyAccount::new();
        expected.add(RadioState::Idle, SimDuration::from_secs(12));
        assert_eq!(a, expected);
    }
}
