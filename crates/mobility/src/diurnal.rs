//! Time-of-day activity profiles (Fig. 7a).

use mlora_simcore::SimTime;

/// A 24-hour activity curve: the fraction of the peak fleet that is on the
/// road at each time of day.
///
/// The default reproduces the shape of Fig. 7(a) in the paper — a deep
/// night trough, a steep morning ramp, a daytime plateau with morning and
/// evening commuter peaks, and an evening wind-down. The curve is
/// piecewise-linear between hourly control points and wraps around
/// midnight.
///
/// # Example
///
/// ```
/// use mlora_mobility::DiurnalProfile;
/// use mlora_simcore::SimTime;
///
/// let p = DiurnalProfile::london_buses();
/// let night = p.level(SimTime::from_secs(3 * 3600));
/// let rush = p.level(SimTime::from_secs(8 * 3600));
/// assert!(rush > 3.0 * night);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    /// Activity level at each hour 0..24, in `[0, 1]`.
    hourly: Vec<f64>,
}

impl DiurnalProfile {
    /// Builds a profile from 24 hourly levels.
    ///
    /// # Panics
    ///
    /// Panics unless exactly 24 values are given, all within `[0, 1]`.
    pub fn from_hourly(hourly: Vec<f64>) -> Self {
        assert_eq!(hourly.len(), 24, "need 24 hourly levels");
        assert!(
            hourly.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "levels must lie in [0, 1]"
        );
        DiurnalProfile { hourly }
    }

    /// A flat profile pinned at `level`; useful for tests and ablations.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    pub fn flat(level: f64) -> Self {
        DiurnalProfile::from_hourly(vec![level; 24])
    }

    /// The Fig. 7(a)-shaped London bus profile: ~12 % of peak at night,
    /// commuter peaks around 08:00 and 17:00–18:00.
    pub fn london_buses() -> Self {
        DiurnalProfile::from_hourly(vec![
            0.22, 0.15, 0.12, 0.12, 0.14, 0.30, // 00–05: night service
            0.60, 0.90, 1.00, 0.92, 0.88, 0.88, // 06–11: morning ramp + peak
            0.88, 0.88, 0.90, 0.94, 0.98, 1.00, // 12–17: plateau to evening peak
            0.95, 0.85, 0.70, 0.55, 0.42, 0.30, // 18–23: wind-down
        ])
    }

    /// Activity level in `[0, 1]` at `time` (time of day wraps every 24 h),
    /// linearly interpolated between hourly control points.
    pub fn level(&self, time: SimTime) -> f64 {
        let day_s = 86_400.0;
        let t = (time.as_secs_f64() % day_s + day_s) % day_s;
        let h = t / 3_600.0;
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = h - h.floor();
        self.hourly[i] + (self.hourly[j] - self.hourly[i]) * frac
    }

    /// The hourly control points.
    pub fn hourly(&self) -> &[f64] {
        &self.hourly
    }
}

impl Default for DiurnalProfile {
    fn default() -> Self {
        DiurnalProfile::london_buses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_hours() {
        let p =
            DiurnalProfile::from_hourly((0..24).map(|h| if h == 6 { 1.0 } else { 0.0 }).collect());
        assert_eq!(p.level(SimTime::from_secs(6 * 3600)), 1.0);
        assert_eq!(p.level(SimTime::from_secs(5 * 3600 + 1800)), 0.5);
        assert_eq!(p.level(SimTime::from_secs(6 * 3600 + 1800)), 0.5);
    }

    #[test]
    fn wraps_midnight() {
        let p = DiurnalProfile::london_buses();
        assert_eq!(p.level(SimTime::ZERO), p.level(SimTime::from_secs(86_400)));
        // Interpolation from hour 23 wraps to hour 0.
        let h23_30 = p.level(SimTime::from_secs(23 * 3600 + 1800));
        let expect = (p.hourly()[23] + p.hourly()[0]) / 2.0;
        assert!((h23_30 - expect).abs() < 1e-12);
    }

    #[test]
    fn london_shape_has_night_trough_and_peaks() {
        let p = DiurnalProfile::london_buses();
        let night = p.level(SimTime::from_secs(3 * 3600));
        let morning = p.level(SimTime::from_secs(8 * 3600));
        let midday = p.level(SimTime::from_secs(13 * 3600));
        let evening = p.level(SimTime::from_secs(17 * 3600));
        assert!(night < 0.2);
        assert!(morning >= 0.9);
        assert!(evening >= 0.9);
        assert!(midday > night && midday < morning.max(evening) + 1e-9);
    }

    #[test]
    fn flat_profile() {
        let p = DiurnalProfile::flat(0.5);
        for h in 0..48 {
            assert_eq!(p.level(SimTime::from_secs(h * 1800)), 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "24 hourly levels")]
    fn wrong_length_rejected() {
        let _ = DiurnalProfile::from_hourly(vec![0.5; 23]);
    }

    #[test]
    #[should_panic(expected = "levels must lie")]
    fn out_of_range_rejected() {
        let mut v = vec![0.5; 24];
        v[3] = 1.5;
        let _ = DiurnalProfile::from_hourly(v);
    }
}
