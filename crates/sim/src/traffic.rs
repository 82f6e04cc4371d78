//! Heterogeneous traffic models: who sends what, when, and how big.
//!
//! The paper's evaluation runs one homogeneous workload — every device
//! generates a fixed 20-byte reading every 3 minutes. A [`TrafficModel`]
//! makes the demand side a first-class, pluggable scenario axis, the way
//! large traffic simulators treat demand generation as a model rather
//! than a constant: a mix of [`TrafficProfile`]s, each naming an
//! [`ArrivalProcess`] (when messages are born), a [`PayloadModel`] (how
//! big they are), a [`Priority`] class and a share of the fleet. Devices
//! are assigned a profile deterministically from the run seed, and every
//! per-device draw comes from a dedicated RNG stream, so traffic never
//! perturbs the channel/shadowing randomness of the rest of the engine.
//!
//! An **empty model is the paper's workload**: no profiles means every
//! device runs the §VII.A periodic generator off
//! [`SimConfig`](crate::SimConfig)'s `gen_interval`, consuming no extra
//! randomness — runs are bit-identical to a build without this
//! subsystem (`tests/golden_determinism.rs` pins this).
//!
//! # Example
//!
//! ```
//! use mlora_sim::prelude::*;
//!
//! let cfg = Scenario::urban()
//!     .smoke()
//!     .profile(TrafficProfile::telemetry().weight(3.0))
//!     .profile(TrafficProfile::alerts())
//!     .build()?;
//! assert_eq!(cfg.traffic.profiles.len(), 2);
//! # Ok::<(), mlora_sim::ConfigError>(())
//! ```

use mlora_mac::{Priority, MAX_BUNDLE_BYTES};
use mlora_mobility::DiurnalProfile;
use mlora_simcore::{SimDuration, SimRng, SimTime};

use crate::ConfigError;

/// When a device's application generates its next message.
///
/// All processes are sampled from a per-device RNG stream derived from
/// the run seed, so the arrival sequence of one device never depends on
/// any other device or on event-processing order.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// A fixed interval between messages — the paper's generator.
    Periodic {
        /// Gap between consecutive messages.
        interval: SimDuration,
    },
    /// A fixed interval with multiplicative uniform jitter: each gap is
    /// `interval × (1 + U(-jitter, +jitter))`.
    Jittered {
        /// Nominal gap between consecutive messages.
        interval: SimDuration,
        /// Relative jitter amplitude, in `(0, 1)`.
        jitter: f64,
    },
    /// A memoryless Poisson process: exponential inter-arrival gaps.
    Poisson {
        /// Mean gap between consecutive messages.
        mean_interval: SimDuration,
    },
    /// A periodic process whose rate follows a 24-hour activity curve:
    /// the gap at time *t* is `base_interval / level(t)` (levels are
    /// floored at [`ArrivalProcess::DIURNAL_LEVEL_FLOOR`] so the night
    /// trough slows generation rather than stopping it).
    Diurnal {
        /// Gap at full activity (level 1.0).
        base_interval: SimDuration,
        /// The 24-hour activity curve modulating the rate.
        profile: DiurnalProfile,
    },
    /// An on/off process: bursts of messages at a fast `interval`,
    /// separated by exponential idle gaps. Burst lengths are exponential
    /// with mean `mean_burst` messages.
    Bursty {
        /// Gap between messages inside a burst.
        interval: SimDuration,
        /// Mean number of messages per burst (≥ 1).
        mean_burst: f64,
        /// Mean idle gap between bursts (added on top of `interval`).
        mean_idle: SimDuration,
    },
}

impl ArrivalProcess {
    /// Lowest diurnal activity level applied to the rate: the night
    /// trough stretches gaps by at most `1 / 0.05 = 20×`.
    pub const DIURNAL_LEVEL_FLOOR: f64 = 0.05;

    /// The delay from trip start to the first message — a uniform phase
    /// over one nominal interval (exponential for Poisson), so a fleet
    /// sharing a profile does not transmit in lockstep.
    pub(crate) fn first_gap(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            ArrivalProcess::Periodic { interval }
            | ArrivalProcess::Jittered { interval, .. }
            | ArrivalProcess::Bursty { interval, .. } => uniform_phase(*interval, rng),
            ArrivalProcess::Poisson { mean_interval } => exponential_gap(*mean_interval, rng),
            ArrivalProcess::Diurnal { base_interval, .. } => uniform_phase(*base_interval, rng),
        }
    }

    /// The gap from the message just generated at `now` to the next one.
    /// `burst_left` is the per-device burst state (unused by the other
    /// processes). Never returns zero, so generation cannot collapse
    /// into a same-instant event storm.
    pub(crate) fn next_gap(
        &self,
        now: SimTime,
        burst_left: &mut u32,
        rng: &mut SimRng,
    ) -> SimDuration {
        let gap = match self {
            ArrivalProcess::Periodic { interval } => *interval,
            ArrivalProcess::Jittered { interval, jitter } => {
                interval.mul_f64(1.0 + rng.gen_range_f64(-jitter, *jitter))
            }
            ArrivalProcess::Poisson { mean_interval } => exponential_gap(*mean_interval, rng),
            ArrivalProcess::Diurnal {
                base_interval,
                profile,
            } => {
                let level = profile.level(now).max(Self::DIURNAL_LEVEL_FLOOR);
                base_interval.mul_f64(1.0 / level)
            }
            ArrivalProcess::Bursty {
                interval,
                mean_burst,
                mean_idle,
            } => {
                if *burst_left > 0 {
                    *burst_left -= 1;
                    *interval
                } else {
                    // Burst exhausted: idle, then open the next burst.
                    // Lengths are exponential with the configured mean;
                    // the cap only guards against pathological draws.
                    let extra = rng.exponential(1.0 / mean_burst).min(100_000.0) as u32;
                    *burst_left = extra;
                    *interval + exponential_gap(*mean_idle, rng)
                }
            }
        };
        gap.max(SimDuration::from_millis(1))
    }

    /// Validates the process parameters; `field` prefixes error paths.
    fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalProcess::Periodic { interval } => {
                check_interval("traffic.profiles.arrivals.interval", *interval)
            }
            ArrivalProcess::Jittered { interval, jitter } => {
                check_interval("traffic.profiles.arrivals.interval", *interval)?;
                if !jitter.is_finite() {
                    return Err(ConfigError::NotFinite {
                        field: "traffic.profiles.arrivals.jitter",
                        value: *jitter,
                    });
                }
                if !(*jitter > 0.0 && *jitter < 1.0) {
                    return Err(ConfigError::OutOfRange {
                        field: "traffic.profiles.arrivals.jitter",
                        value: *jitter,
                        lo: 0.0,
                        hi: 1.0,
                    });
                }
                Ok(())
            }
            ArrivalProcess::Poisson { mean_interval } => {
                check_interval("traffic.profiles.arrivals.mean_interval", *mean_interval)
            }
            ArrivalProcess::Diurnal { base_interval, .. } => {
                check_interval("traffic.profiles.arrivals.base_interval", *base_interval)
            }
            ArrivalProcess::Bursty {
                interval,
                mean_burst,
                mean_idle,
            } => {
                check_interval("traffic.profiles.arrivals.interval", *interval)?;
                check_interval("traffic.profiles.arrivals.mean_idle", *mean_idle)?;
                if !mean_burst.is_finite() {
                    return Err(ConfigError::NotFinite {
                        field: "traffic.profiles.arrivals.mean_burst",
                        value: *mean_burst,
                    });
                }
                if *mean_burst < 1.0 {
                    return Err(ConfigError::OutOfRange {
                        field: "traffic.profiles.arrivals.mean_burst",
                        value: *mean_burst,
                        lo: 1.0,
                        hi: f64::INFINITY,
                    });
                }
                Ok(())
            }
        }
    }
}

/// A uniform phase in `[0, interval)`, mirroring the legacy per-device
/// start-up phase draw (millisecond resolution).
fn uniform_phase(interval: SimDuration, rng: &mut SimRng) -> SimDuration {
    SimDuration::from_millis(rng.gen_range_u64(0, interval.as_millis().max(1)))
}

/// An exponential gap with the given mean.
fn exponential_gap(mean: SimDuration, rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(1.0 / mean.as_secs_f64()))
}

fn check_interval(field: &'static str, interval: SimDuration) -> Result<(), ConfigError> {
    if interval.is_zero() {
        return Err(ConfigError::Zero { field });
    }
    Ok(())
}

/// How large each generated reading is, bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadModel {
    /// Every reading is exactly `bytes` long — the paper's 20-byte
    /// default.
    Fixed {
        /// Payload size, bytes.
        bytes: usize,
    },
    /// Reading sizes are uniform over `[min_bytes, max_bytes]`.
    Uniform {
        /// Smallest payload, bytes.
        min_bytes: usize,
        /// Largest payload, bytes (inclusive).
        max_bytes: usize,
    },
}

impl PayloadModel {
    /// Samples one payload size.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> u16 {
        match self {
            PayloadModel::Fixed { bytes } => *bytes as u16,
            PayloadModel::Uniform {
                min_bytes,
                max_bytes,
            } => rng.gen_range_u64(*min_bytes as u64, *max_bytes as u64 + 1) as u16,
        }
    }

    /// The largest size this model can produce, bytes.
    pub fn max_bytes(&self) -> usize {
        match self {
            PayloadModel::Fixed { bytes } => *bytes,
            PayloadModel::Uniform { max_bytes, .. } => *max_bytes,
        }
    }

    /// The smallest size this model can produce, bytes.
    pub fn min_bytes(&self) -> usize {
        match self {
            PayloadModel::Fixed { bytes } => *bytes,
            PayloadModel::Uniform { min_bytes, .. } => *min_bytes,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        let (lo, hi) = (self.min_bytes(), self.max_bytes());
        if lo == 0 {
            return Err(ConfigError::Zero {
                field: "traffic.profiles.payload.bytes",
            });
        }
        if hi > MAX_BUNDLE_BYTES {
            return Err(ConfigError::OutOfRange {
                field: "traffic.profiles.payload.bytes",
                value: hi as f64,
                lo: 0.0,
                hi: MAX_BUNDLE_BYTES as f64,
            });
        }
        if lo > hi {
            return Err(ConfigError::Invalid(
                "traffic.profiles.payload: min_bytes exceeds max_bytes",
            ));
        }
        Ok(())
    }
}

/// One application class: its arrival process, payload sizes, priority
/// and share of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficProfile {
    /// Human-readable name, carried into per-profile report rows.
    pub name: String,
    /// When this application generates messages.
    pub arrivals: ArrivalProcess,
    /// How large its readings are.
    pub payload: PayloadModel,
    /// Link-layer priority class of its readings.
    pub priority: Priority,
    /// Relative share of the fleet running this profile (any positive
    /// weight; shares are normalised over the model's profiles).
    pub weight: f64,
}

impl TrafficProfile {
    /// A profile with the given name, arrivals and payload model, at
    /// [`Priority::Normal`] and weight 1.
    pub fn new(name: impl Into<String>, arrivals: ArrivalProcess, payload: PayloadModel) -> Self {
        TrafficProfile {
            name: name.into(),
            arrivals,
            payload,
            priority: Priority::Normal,
            weight: 1.0,
        }
    }

    /// Sets the priority class (consuming builder style).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the fleet-share weight (consuming builder style).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// The paper's exact workload as an explicit profile: a fixed
    /// 20-byte reading every `interval` (§VII.A.4 uses 3 minutes).
    pub fn paper(interval: SimDuration) -> Self {
        TrafficProfile::new(
            "paper",
            ArrivalProcess::Periodic { interval },
            PayloadModel::Fixed {
                bytes: mlora_mac::APP_MESSAGE_BYTES,
            },
        )
    }

    /// Vehicle telemetry: a 20-byte reading roughly every 3 minutes,
    /// ±20 % jitter so the fleet decorrelates.
    pub fn telemetry() -> Self {
        TrafficProfile::new(
            "telemetry",
            ArrivalProcess::Jittered {
                interval: SimDuration::from_mins(3),
                jitter: 0.2,
            },
            PayloadModel::Fixed {
                bytes: mlora_mac::APP_MESSAGE_BYTES,
            },
        )
    }

    /// Asset tracking: Poisson position fixes (mean 2 minutes) with
    /// variable 12–32-byte fixes depending on constellation state.
    pub fn tracking() -> Self {
        TrafficProfile::new(
            "tracking",
            ArrivalProcess::Poisson {
                mean_interval: SimDuration::from_mins(2),
            },
            PayloadModel::Uniform {
                min_bytes: 12,
                max_bytes: 32,
            },
        )
    }

    /// Passenger-counting sensors: generation follows the diurnal
    /// service curve (busy at rush hour, quiet at night), 24-byte
    /// summaries at a 5-minute full-activity cadence.
    pub fn passenger_counts() -> Self {
        TrafficProfile::new(
            "passenger-counts",
            ArrivalProcess::Diurnal {
                base_interval: SimDuration::from_mins(5),
                profile: DiurnalProfile::london_buses(),
            },
            PayloadModel::Fixed { bytes: 24 },
        )
    }

    /// Alerting: rare, urgent, tiny. Bursts of ~3 eight-byte alerts at
    /// 20-second spacing, separated by half-hour idle gaps, jumping
    /// every queue at [`Priority::High`]. Weighted at a twentieth of
    /// the fleet by default.
    pub fn alerts() -> Self {
        TrafficProfile::new(
            "alerts",
            ArrivalProcess::Bursty {
                interval: SimDuration::from_secs(20),
                mean_burst: 3.0,
                mean_idle: SimDuration::from_mins(30),
            },
            PayloadModel::Fixed { bytes: 8 },
        )
        .priority(Priority::High)
        .weight(0.05)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.name.is_empty() {
            return Err(ConfigError::Invalid("traffic.profiles.name is empty"));
        }
        self.arrivals.validate()?;
        self.payload.validate()?;
        if !self.weight.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "traffic.profiles.weight",
                value: self.weight,
            });
        }
        if self.weight <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "traffic.profiles.weight",
                value: self.weight,
                lo: 0.0,
                hi: f64::INFINITY,
            });
        }
        Ok(())
    }
}

/// The demand side of a scenario: a weighted mix of traffic profiles.
///
/// The default model is **empty** and costs nothing: every device runs
/// the paper's periodic generator (driven by [`SimConfig`]'s
/// `gen_interval`), no extra RNG stream is consumed, and runs are
/// bit-identical to a build without the subsystem.
///
/// [`SimConfig`]: crate::SimConfig
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrafficModel {
    /// The profile mix. Empty means the paper's homogeneous workload.
    pub profiles: Vec<TrafficProfile>,
}

impl TrafficModel {
    /// Largest number of profiles one model may mix (profile indices are
    /// carried as a byte in every message).
    pub const MAX_PROFILES: usize = 256;

    /// A model running `profiles`.
    pub fn mix(profiles: impl IntoIterator<Item = TrafficProfile>) -> Self {
        TrafficModel {
            profiles: profiles.into_iter().collect(),
        }
    }

    /// True when the model is the paper's homogeneous default.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Assigns a profile index by weighted draw from `rng` (the first
    /// draw on a device's traffic stream).
    pub(crate) fn pick_profile(&self, rng: &mut SimRng) -> usize {
        debug_assert!(!self.profiles.is_empty());
        if self.profiles.len() == 1 {
            return 0;
        }
        let total: f64 = self.profiles.iter().map(|p| p.weight).sum();
        let x = rng.gen_range_f64(0.0, total);
        let mut cum = 0.0;
        for (i, p) in self.profiles.iter().enumerate() {
            cum += p.weight;
            if x < cum {
                return i;
            }
        }
        self.profiles.len() - 1
    }

    /// Validates every profile.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] naming the first offending
    /// field: an empty profile name, a zero interval, a payload outside
    /// `[1, 240]` bytes, a non-finite weight, too many profiles, …
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.profiles.len() > Self::MAX_PROFILES {
            return Err(ConfigError::OutOfRange {
                field: "traffic.profiles",
                value: self.profiles.len() as f64,
                lo: 0.0,
                hi: Self::MAX_PROFILES as f64,
            });
        }
        for profile in &self.profiles {
            profile.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(7)
    }

    #[test]
    fn default_model_is_empty_and_valid() {
        let model = TrafficModel::default();
        assert!(model.is_empty());
        assert_eq!(model.validate(), Ok(()));
    }

    #[test]
    fn presets_are_valid() {
        for profile in [
            TrafficProfile::paper(SimDuration::from_mins(3)),
            TrafficProfile::telemetry(),
            TrafficProfile::tracking(),
            TrafficProfile::passenger_counts(),
            TrafficProfile::alerts(),
        ] {
            assert_eq!(profile.validate(), Ok(()), "{} invalid", profile.name);
        }
    }

    #[test]
    fn periodic_gaps_are_exact() {
        let p = ArrivalProcess::Periodic {
            interval: SimDuration::from_mins(3),
        };
        let mut burst = 0;
        assert_eq!(
            p.next_gap(SimTime::ZERO, &mut burst, &mut rng()),
            SimDuration::from_mins(3)
        );
    }

    #[test]
    fn jittered_gaps_stay_in_band() {
        let p = ArrivalProcess::Jittered {
            interval: SimDuration::from_secs(100),
            jitter: 0.2,
        };
        let mut r = rng();
        let mut burst = 0;
        for _ in 0..200 {
            let gap = p.next_gap(SimTime::ZERO, &mut burst, &mut r).as_secs_f64();
            assert!((80.0..120.0).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn poisson_mean_roughly_right() {
        let p = ArrivalProcess::Poisson {
            mean_interval: SimDuration::from_secs(60),
        };
        let mut r = rng();
        let mut burst = 0;
        let n = 5_000;
        let total: f64 = (0..n)
            .map(|_| p.next_gap(SimTime::ZERO, &mut burst, &mut r).as_secs_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 60.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn diurnal_slows_at_night_speeds_at_rush() {
        let p = ArrivalProcess::Diurnal {
            base_interval: SimDuration::from_mins(5),
            profile: DiurnalProfile::london_buses(),
        };
        let mut r = rng();
        let mut burst = 0;
        let night = p.next_gap(SimTime::from_secs(3 * 3600), &mut burst, &mut r);
        let rush = p.next_gap(SimTime::from_secs(8 * 3600), &mut burst, &mut r);
        assert!(night > rush * 2, "night {night} vs rush {rush}");
        // The floor caps the slowdown at 20x.
        assert!(night <= SimDuration::from_mins(5).mul_f64(20.0));
    }

    #[test]
    fn bursty_alternates_fast_and_idle_gaps() {
        let p = ArrivalProcess::Bursty {
            interval: SimDuration::from_secs(10),
            mean_burst: 4.0,
            mean_idle: SimDuration::from_mins(10),
        };
        let mut r = rng();
        let mut burst = 0;
        let mut fast = 0;
        let mut idle = 0;
        for _ in 0..2_000 {
            let gap = p.next_gap(SimTime::ZERO, &mut burst, &mut r);
            if gap == SimDuration::from_secs(10) {
                fast += 1;
            } else {
                assert!(gap > SimDuration::from_secs(10));
                idle += 1;
            }
        }
        assert!(fast > idle, "bursts should dominate: {fast} vs {idle}");
        assert!(idle > 100, "idle gaps must occur: {idle}");
    }

    #[test]
    fn gaps_never_zero() {
        let p = ArrivalProcess::Poisson {
            mean_interval: SimDuration::from_millis(1),
        };
        let mut r = rng();
        let mut burst = 0;
        for _ in 0..1_000 {
            assert!(!p.next_gap(SimTime::ZERO, &mut burst, &mut r).is_zero());
        }
    }

    #[test]
    fn payload_samples_respect_bounds() {
        let m = PayloadModel::Uniform {
            min_bytes: 12,
            max_bytes: 32,
        };
        let mut r = rng();
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let b = m.sample(&mut r);
            assert!((12..=32).contains(&b), "payload {b}");
            seen_lo |= b == 12;
            seen_hi |= b == 32;
        }
        assert!(seen_lo && seen_hi, "inclusive bounds never drawn");
        assert_eq!(PayloadModel::Fixed { bytes: 20 }.sample(&mut r), 20);
    }

    #[test]
    fn pick_profile_follows_weights() {
        let model = TrafficModel::mix([
            TrafficProfile::telemetry().weight(9.0),
            TrafficProfile::alerts().weight(1.0),
        ]);
        let mut r = rng();
        let n = 10_000;
        let alerts = (0..n).filter(|_| model.pick_profile(&mut r) == 1).count();
        let share = alerts as f64 / n as f64;
        assert!((share - 0.1).abs() < 0.02, "alert share {share}");
        // A single profile needs no draw at all.
        let single = TrafficModel::mix([TrafficProfile::telemetry()]);
        assert_eq!(single.pick_profile(&mut r), 0);
    }

    #[test]
    fn validation_names_offending_fields() {
        let zero_interval = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Periodic {
                interval: SimDuration::ZERO,
            },
            PayloadModel::Fixed { bytes: 20 },
        )]);
        assert_eq!(
            zero_interval.validate().unwrap_err().field(),
            "traffic.profiles.arrivals.interval"
        );

        let bad_jitter = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Jittered {
                interval: SimDuration::from_mins(1),
                jitter: 1.5,
            },
            PayloadModel::Fixed { bytes: 20 },
        )]);
        assert_eq!(
            bad_jitter.validate().unwrap_err().field(),
            "traffic.profiles.arrivals.jitter"
        );

        let oversized = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Periodic {
                interval: SimDuration::from_mins(1),
            },
            PayloadModel::Fixed {
                bytes: MAX_BUNDLE_BYTES + 1,
            },
        )]);
        assert_eq!(
            oversized.validate().unwrap_err().field(),
            "traffic.profiles.payload.bytes"
        );

        let zero_payload = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Periodic {
                interval: SimDuration::from_mins(1),
            },
            PayloadModel::Fixed { bytes: 0 },
        )]);
        assert_eq!(
            zero_payload.validate().unwrap_err().field(),
            "traffic.profiles.payload.bytes"
        );

        let bad_weight = TrafficModel::mix([TrafficProfile::telemetry().weight(0.0)]);
        assert_eq!(
            bad_weight.validate().unwrap_err().field(),
            "traffic.profiles.weight"
        );

        let inverted = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Periodic {
                interval: SimDuration::from_mins(1),
            },
            PayloadModel::Uniform {
                min_bytes: 30,
                max_bytes: 20,
            },
        )]);
        assert!(inverted.validate().is_err());

        let small_burst = TrafficModel::mix([TrafficProfile::new(
            "t",
            ArrivalProcess::Bursty {
                interval: SimDuration::from_secs(10),
                mean_burst: 0.5,
                mean_idle: SimDuration::from_mins(1),
            },
            PayloadModel::Fixed { bytes: 20 },
        )]);
        assert_eq!(
            small_burst.validate().unwrap_err().field(),
            "traffic.profiles.arrivals.mean_burst"
        );

        let unnamed = TrafficModel::mix([TrafficProfile::new(
            "",
            ArrivalProcess::Periodic {
                interval: SimDuration::from_mins(1),
            },
            PayloadModel::Fixed { bytes: 20 },
        )]);
        assert!(unnamed.validate().is_err());
    }
}
