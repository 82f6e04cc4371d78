//! Scripted world disruptions: the timeline of things that go wrong.
//!
//! The paper's evaluation assumes a static world — gateways never fail,
//! buses never break down, the channel noise floor never moves. A
//! [`DisruptionPlan`] makes those failure modes first-class scenario
//! axes: a seeded, deterministic timeline of world events that the
//! engine compiles into ordered discrete events and applies mid-run,
//! the way large mobility simulators script service disruptions as
//! replayable world events rather than config constants.
//!
//! Three disruption kinds are modelled:
//!
//! * [`GatewayOutage`] — a gateway leaves service for a window (or for
//!   the rest of the run) and later recovers; while down it decodes
//!   nothing and the engine's gateway grid is updated incrementally.
//! * [`BusWithdrawal`] — at an instant, a fraction of the currently
//!   active fleet is withdrawn (trip cancellation / early retirement);
//!   selection draws from a dedicated RNG stream so the channel
//!   randomness of the surviving fleet is untouched.
//! * [`NoiseBurst`] — a regional channel impairment: every receiver
//!   inside a disc loses `extra_loss_db` of RSSI on every frame while
//!   the burst is active (a raised noise floor, subtracted after the
//!   shadowing draw, as in
//!   [`mlora_phy::LogDistanceModel::sample_rssi_dbm_attenuated`]).
//!
//! An **empty plan is free**: no events are scheduled, no RNG stream is
//! consumed, and runs are bit-identical to a build without the
//! subsystem (`tests/golden_determinism.rs` pins this).
//!
//! # Example
//!
//! ```
//! use mlora_sim::prelude::*;
//! use mlora_simcore::{SimDuration, SimTime};
//!
//! let plan = DisruptionPlan {
//!     outages: vec![GatewayOutage {
//!         gateway: 3,
//!         start: SimTime::from_secs(1_800),
//!         duration: Some(SimDuration::from_secs(1_800)),
//!     }],
//!     ..DisruptionPlan::default()
//! };
//! let config = Scenario::urban().smoke().disruptions(plan).build()?;
//! assert_eq!(config.disruptions.outages.len(), 1);
//! # Ok::<(), mlora_sim::ConfigError>(())
//! ```

use mlora_geo::Point;
use mlora_simcore::{SimDuration, SimTime};

use crate::ConfigError;

/// One gateway leaving service and (optionally) recovering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayOutage {
    /// Index of the affected gateway (must be below the scenario's
    /// gateway count).
    pub gateway: usize,
    /// When the gateway goes down.
    pub start: SimTime,
    /// How long the outage lasts; `None` means it runs to the horizon.
    pub duration: Option<SimDuration>,
}

/// An instantaneous withdrawal of part of the active fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusWithdrawal {
    /// When the withdrawal happens.
    pub at: SimTime,
    /// Fraction of the then-active fleet withdrawn, in `(0, 1]`. The
    /// count is rounded to the nearest whole bus; the buses themselves
    /// are picked from a dedicated deterministic RNG stream.
    pub fraction: f64,
}

/// A regional channel impairment: receivers inside the disc lose RSSI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBurst {
    /// Centre of the affected disc.
    pub center: Point,
    /// Radius of the affected disc, metres.
    pub radius_m: f64,
    /// When the burst begins.
    pub start: SimTime,
    /// How long the burst lasts; `None` means it runs to the horizon.
    pub duration: Option<SimDuration>,
    /// RSSI penalty applied to every reception inside the disc, dB.
    /// Overlapping bursts stack additively.
    pub extra_loss_db: f64,
}

/// A deterministic timeline of world disruptions for one run.
///
/// The default plan is empty and costs nothing: the engine schedules no
/// extra events and consumes no extra randomness, so an undisrupted run
/// is bit-identical to one configured before this subsystem existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DisruptionPlan {
    /// Gateway outage/recovery windows.
    pub outages: Vec<GatewayOutage>,
    /// Fleet withdrawals.
    pub withdrawals: Vec<BusWithdrawal>,
    /// Regional noise-burst windows.
    pub noise_bursts: Vec<NoiseBurst>,
}

/// One compiled engine-facing disruption event.
///
/// Indices refer back into the owning [`DisruptionPlan`]'s vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisruptionEvent {
    /// Gateway `gateway` recovers (paired with an earlier
    /// [`DisruptionEvent::GatewayDown`] for the same gateway).
    GatewayUp {
        /// Index of the recovering gateway.
        gateway: u32,
    },
    /// The noise burst `burst` ends.
    NoiseEnd {
        /// Index into [`DisruptionPlan::noise_bursts`].
        burst: u32,
    },
    /// Gateway `gateway` goes down.
    GatewayDown {
        /// Index of the failing gateway.
        gateway: u32,
    },
    /// The noise burst `burst` begins.
    NoiseStart {
        /// Index into [`DisruptionPlan::noise_bursts`].
        burst: u32,
    },
    /// The withdrawal `withdrawal` fires.
    Withdraw {
        /// Index into [`DisruptionPlan::withdrawals`].
        withdrawal: u32,
    },
}

impl DisruptionEvent {
    /// Tie-break rank for events at the same instant: recoveries resolve
    /// before new failures so back-to-back windows on the same resource
    /// compose, and withdrawals see the settled gateway state.
    fn rank(self) -> u8 {
        match self {
            DisruptionEvent::GatewayUp { .. } => 0,
            DisruptionEvent::NoiseEnd { .. } => 1,
            DisruptionEvent::GatewayDown { .. } => 2,
            DisruptionEvent::NoiseStart { .. } => 3,
            DisruptionEvent::Withdraw { .. } => 4,
        }
    }
}

impl DisruptionPlan {
    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty() && self.withdrawals.is_empty() && self.noise_bursts.is_empty()
    }

    /// Validates the plan against a scenario deploying `num_gateways`
    /// gateways.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] naming the first offending
    /// field: an outage naming a gateway the scenario does not deploy, a
    /// zero-length window, a withdrawal fraction outside `(0, 1]`, or a
    /// non-finite/non-positive noise geometry or penalty.
    pub fn validate(&self, num_gateways: usize) -> Result<(), ConfigError> {
        for outage in &self.outages {
            if outage.gateway >= num_gateways {
                return Err(ConfigError::OutOfRange {
                    field: "disruptions.outages.gateway",
                    value: outage.gateway as f64,
                    lo: -1.0,
                    hi: num_gateways as f64 - 1.0,
                });
            }
            if outage.duration.is_some_and(|d| d.is_zero()) {
                return Err(ConfigError::Zero {
                    field: "disruptions.outages.duration",
                });
            }
        }
        for withdrawal in &self.withdrawals {
            crate::config::check_unit_interval(
                "disruptions.withdrawals.fraction",
                withdrawal.fraction,
                0.0,
                1.0,
            )?;
        }
        for burst in &self.noise_bursts {
            if !burst.radius_m.is_finite() {
                return Err(ConfigError::NotFinite {
                    field: "disruptions.noise_bursts.radius_m",
                    value: burst.radius_m,
                });
            }
            if burst.radius_m <= 0.0 {
                return Err(ConfigError::OutOfRange {
                    field: "disruptions.noise_bursts.radius_m",
                    value: burst.radius_m,
                    lo: 0.0,
                    hi: f64::INFINITY,
                });
            }
            if !(burst.center.x.is_finite() && burst.center.y.is_finite()) {
                return Err(ConfigError::NotFinite {
                    field: "disruptions.noise_bursts.center",
                    value: if burst.center.x.is_finite() {
                        burst.center.y
                    } else {
                        burst.center.x
                    },
                });
            }
            if !burst.extra_loss_db.is_finite() {
                return Err(ConfigError::NotFinite {
                    field: "disruptions.noise_bursts.extra_loss_db",
                    value: burst.extra_loss_db,
                });
            }
            if burst.extra_loss_db <= 0.0 {
                return Err(ConfigError::OutOfRange {
                    field: "disruptions.noise_bursts.extra_loss_db",
                    value: burst.extra_loss_db,
                    lo: 0.0,
                    hi: f64::INFINITY,
                });
            }
            if burst.duration.is_some_and(|d| d.is_zero()) {
                return Err(ConfigError::Zero {
                    field: "disruptions.noise_bursts.duration",
                });
            }
        }
        Ok(())
    }

    /// Compiles the plan into the ordered engine event timeline for a
    /// run of length `horizon`.
    ///
    /// Events at or past the horizon are dropped: a window that never
    /// closes before the horizon simply runs to the end of the
    /// simulation (its `…Up`/`…End` event is omitted). The result is
    /// sorted by time; simultaneous events resolve recoveries first,
    /// then failures, then withdrawals, each kind in declaration order —
    /// a pure function of the plan, never of construction order.
    pub fn compile(&self, horizon: SimDuration) -> Vec<(SimTime, DisruptionEvent)> {
        let end_of_run = SimTime::ZERO + horizon;
        let mut out = Vec::new();
        for outage in &self.outages {
            if outage.start >= end_of_run {
                continue;
            }
            let gateway = outage.gateway as u32;
            out.push((outage.start, DisruptionEvent::GatewayDown { gateway }));
            if let Some(d) = outage.duration {
                let up = outage.start + d;
                if up < end_of_run {
                    out.push((up, DisruptionEvent::GatewayUp { gateway }));
                }
            }
        }
        for (i, withdrawal) in self.withdrawals.iter().enumerate() {
            if withdrawal.at < end_of_run {
                out.push((
                    withdrawal.at,
                    DisruptionEvent::Withdraw {
                        withdrawal: i as u32,
                    },
                ));
            }
        }
        for (i, burst) in self.noise_bursts.iter().enumerate() {
            if burst.start >= end_of_run {
                continue;
            }
            out.push((burst.start, DisruptionEvent::NoiseStart { burst: i as u32 }));
            if let Some(d) = burst.duration {
                let end = burst.start + d;
                if end < end_of_run {
                    out.push((end, DisruptionEvent::NoiseEnd { burst: i as u32 }));
                }
            }
        }
        out.sort_by_key(|&(t, ev)| {
            let index = match ev {
                DisruptionEvent::GatewayUp { gateway }
                | DisruptionEvent::GatewayDown { gateway } => gateway,
                DisruptionEvent::NoiseStart { burst } | DisruptionEvent::NoiseEnd { burst } => {
                    burst
                }
                DisruptionEvent::Withdraw { withdrawal } => withdrawal,
            };
            (t, ev.rank(), index)
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: u64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        let plan = DisruptionPlan::default();
        assert!(plan.is_empty());
        assert!(plan.compile(hours(24)).is_empty());
        assert_eq!(plan.validate(1), Ok(()));
    }

    #[test]
    fn outage_compiles_to_down_up_pair() {
        let plan = DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 2,
                start: SimTime::from_secs(100),
                duration: Some(SimDuration::from_secs(50)),
            }],
            ..DisruptionPlan::default()
        };
        let events = plan.compile(hours(1));
        assert_eq!(
            events,
            vec![
                (
                    SimTime::from_secs(100),
                    DisruptionEvent::GatewayDown { gateway: 2 }
                ),
                (
                    SimTime::from_secs(150),
                    DisruptionEvent::GatewayUp { gateway: 2 }
                ),
            ]
        );
    }

    #[test]
    fn open_ended_and_post_horizon_windows_truncate() {
        let plan = DisruptionPlan {
            outages: vec![
                // No duration: runs to horizon, no Up event.
                GatewayOutage {
                    gateway: 0,
                    start: SimTime::from_secs(10),
                    duration: None,
                },
                // Recovery would land past the horizon: dropped.
                GatewayOutage {
                    gateway: 1,
                    start: SimTime::from_secs(3_000),
                    duration: Some(hours(2)),
                },
                // Starts past the horizon entirely: dropped.
                GatewayOutage {
                    gateway: 2,
                    start: SimTime::from_secs(10_000),
                    duration: Some(SimDuration::from_secs(5)),
                },
            ],
            ..DisruptionPlan::default()
        };
        let events = plan.compile(hours(1));
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|(_, ev)| matches!(ev, DisruptionEvent::GatewayDown { .. })));
    }

    #[test]
    fn simultaneous_events_order_recoveries_first() {
        let t = SimTime::from_secs(500);
        let plan = DisruptionPlan {
            outages: vec![
                GatewayOutage {
                    gateway: 0,
                    start: SimTime::ZERO,
                    duration: Some(SimDuration::from_secs(500)),
                },
                GatewayOutage {
                    gateway: 1,
                    start: t,
                    duration: None,
                },
            ],
            withdrawals: vec![BusWithdrawal {
                at: t,
                fraction: 0.5,
            }],
            ..DisruptionPlan::default()
        };
        let events = plan.compile(hours(1));
        let at_t: Vec<DisruptionEvent> = events
            .iter()
            .filter(|&&(time, _)| time == t)
            .map(|&(_, ev)| ev)
            .collect();
        assert_eq!(
            at_t,
            vec![
                DisruptionEvent::GatewayUp { gateway: 0 },
                DisruptionEvent::GatewayDown { gateway: 1 },
                DisruptionEvent::Withdraw { withdrawal: 0 },
            ]
        );
    }

    #[test]
    fn validation_names_offending_fields() {
        let bad_gateway = DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 9,
                start: SimTime::ZERO,
                duration: None,
            }],
            ..DisruptionPlan::default()
        };
        assert_eq!(
            bad_gateway.validate(9).unwrap_err().field(),
            "disruptions.outages.gateway"
        );

        let bad_fraction = DisruptionPlan {
            withdrawals: vec![BusWithdrawal {
                at: SimTime::ZERO,
                fraction: 1.5,
            }],
            ..DisruptionPlan::default()
        };
        assert_eq!(
            bad_fraction.validate(9).unwrap_err().field(),
            "disruptions.withdrawals.fraction"
        );

        let bad_radius = DisruptionPlan {
            noise_bursts: vec![NoiseBurst {
                center: Point::new(0.0, 0.0),
                radius_m: f64::NAN,
                start: SimTime::ZERO,
                duration: None,
                extra_loss_db: 6.0,
            }],
            ..DisruptionPlan::default()
        };
        assert_eq!(
            bad_radius.validate(9).unwrap_err().field(),
            "disruptions.noise_bursts.radius_m"
        );

        let zero_window = DisruptionPlan {
            outages: vec![GatewayOutage {
                gateway: 0,
                start: SimTime::ZERO,
                duration: Some(SimDuration::ZERO),
            }],
            ..DisruptionPlan::default()
        };
        assert_eq!(
            zero_window.validate(9).unwrap_err().field(),
            "disruptions.outages.duration"
        );
    }
}
