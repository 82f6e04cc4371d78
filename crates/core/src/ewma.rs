//! Exponentially weighted moving average (paper Eq. 4).

/// The EWMA of Eq. 4:
///
/// ```text
/// E[µ′(t)] = (1 − α)·E[µ′(t − Δt)] + α·µ′(t)    t > 0
/// E[µ′(0)] = µ′(0)
/// ```
///
/// Because MLoRa-SS devices transmit rarely (1 % duty cycle) while the
/// topology changes quickly, a long-term mean would be stale; the EWMA
/// weights recent service times by `α`. Higher `α` adapts faster at the
/// cost of scheduling stability (§IV.B); the paper's evaluation uses
/// `α = 0.5`.
///
/// # Example
///
/// ```
/// use mlora_core::Ewma;
///
/// let mut e = Ewma::new(0.5);
/// assert_eq!(e.value(), None);     // no observation yet
/// e.push(10.0);
/// assert_eq!(e.value(), Some(10.0)); // first sample taken as-is
/// e.push(20.0);
/// assert_eq!(e.value(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` lies in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Adds an observation and returns the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let next = match self.value {
            None => x,
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * x,
        };
        self.value = Some(next);
        next
    }

    /// The current average, or `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Discards all history.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// Rebuilds an average from `(alpha, value)` parts — the checkpoint
    /// counterpart of [`Ewma::alpha`] and [`Ewma::value`].
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` lies in `(0, 1]`.
    pub fn from_raw_parts(alpha: f64, value: Option<f64>) -> Self {
        let mut ewma = Ewma::new(alpha);
        ewma.value = value;
        ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_taken_verbatim() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.push(7.0), 7.0);
    }

    #[test]
    fn alpha_one_tracks_last_sample() {
        let mut e = Ewma::new(1.0);
        e.push(5.0);
        e.push(9.0);
        assert_eq!(e.value(), Some(9.0));
    }

    #[test]
    fn small_alpha_is_sluggish() {
        let mut slow = Ewma::new(0.1);
        let mut fast = Ewma::new(0.9);
        slow.push(0.0);
        fast.push(0.0);
        slow.push(100.0);
        fast.push(100.0);
        assert!(slow.value().unwrap() < fast.value().unwrap());
        assert_eq!(slow.value(), Some(10.0));
        assert_eq!(fast.value(), Some(90.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.5);
        for _ in 0..64 {
            e.push(42.0);
        }
        assert!((e.value().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(0.5);
        e.push(1.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.push(3.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }
}
