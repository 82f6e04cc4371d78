//! Simulation configuration.

use std::sync::Arc;

use mlora_core::{PolicySpec, RoutingConfig, RoutingState};
use mlora_mac::DeviceClass;
use mlora_mobility::{BusNetwork, BusNetworkConfig};
use mlora_phy::{CapacityModel, LogDistanceModel, PhyParams};
use mlora_simcore::SimDuration;

use crate::disruption::DisruptionPlan;
use crate::metrics::SimReport;
use crate::traffic::TrafficModel;

/// Radio environment, setting the device-to-device range (§VII.A.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Urban: buildings block signals; device↔device range 500 m.
    Urban,
    /// Rural: open terrain; device↔device range 1000 m.
    Rural,
}

impl Environment {
    /// The device-to-device communication range, metres.
    pub const fn d2d_range_m(self) -> f64 {
        match self {
            Environment::Urban => 500.0,
            Environment::Rural => 1_000.0,
        }
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Environment::Urban => "urban",
            Environment::Rural => "rural",
        }
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How gateways are placed over the area (§VII.A.6 uses a uniform grid;
/// §VII.C discusses random placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayPlacement {
    /// Uniform grid (the paper's main setting).
    Grid,
    /// Uniformly random positions (the §VII.C ablation).
    Random,
}

/// Full configuration of one simulation run.
///
/// [`SimConfig::paper_default`] reproduces §VII.A; named constructors
/// derive the scaled-down variants used by tests and `repro --quick`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Mobility substrate configuration.
    pub network: BusNetworkConfig,
    /// A prebuilt world overriding seeded generation. `None` (the
    /// default) regenerates the network from [`SimConfig::network`] and
    /// the run seed; `Some` runs on exactly this network — the path
    /// metro-scale worlds loaded from a scenario file
    /// ([`crate::io`]) enter the engine through. Shared by `Arc` so
    /// sweeps and replicated runs never clone a 100 000-bus world per
    /// cell.
    pub world: Option<Arc<BusNetwork>>,
    /// Number of gateways (the paper sweeps 40–100).
    pub num_gateways: usize,
    /// Gateway placement strategy.
    pub placement: GatewayPlacement,
    /// Device-to-gateway communication range, metres (paper: 1 km).
    pub gateway_range_m: f64,
    /// Radio environment (device-to-device range).
    pub environment: Environment,
    /// The forwarding policy under test: one of the paper's schemes
    /// (`Scheme::Robc.into()`) or a user-defined
    /// [`ForwardingPolicy`](mlora_core::ForwardingPolicy)
    /// ([`PolicySpec::of`]). Every device instantiates its own copy of
    /// this prototype, and its label is the run's
    /// [`SimReport::scheme`](crate::SimReport).
    pub policy: PolicySpec,
    /// EWMA smoothing factor α (paper evaluation: 0.5).
    pub alpha: f64,
    /// Device class for the fleet (§VI).
    pub device_class: DeviceClass,
    /// Application message generation interval (paper: 3 min). Drives
    /// the paper-exact periodic generator whenever [`SimConfig::traffic`]
    /// is empty; heterogeneous models carry their own intervals.
    pub gen_interval: SimDuration,
    /// The demand-side traffic model: a weighted mix of application
    /// profiles (arrival process × payload distribution × priority).
    /// Empty by default; an empty model runs the paper's homogeneous
    /// workload bit-identically to a build without the subsystem.
    pub traffic: TrafficModel,
    /// Per-device application queue capacity, messages.
    pub queue_capacity: usize,
    /// Duty cycle cap (paper: 1 %).
    pub duty_cycle: f64,
    /// Maximum transmissions per frame (paper: 8).
    pub max_attempts: u32,
    /// LoRa modulation parameters.
    pub phy: PhyParams,
    /// Path-loss model.
    pub path_loss: LogDistanceModel,
    /// RSSI→capacity map (Eq. 5).
    pub capacity: CapacityModel,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Width of the throughput time-series buckets (paper: 10 min).
    pub series_bucket: SimDuration,
    /// Scripted world disruptions (gateway outages, fleet withdrawals,
    /// noise bursts). Empty by default; an empty plan is bit-identical
    /// to a run without the subsystem.
    pub disruptions: DisruptionPlan,
}

/// Error returned when a [`SimConfig`] is internally inconsistent.
///
/// Variants are typed so callers can react to the failure mode (and the
/// offending field is always named); [`ConfigError::Invalid`] remains for
/// constraints that do not fit the structured shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field failed validation; the message names it.
    Invalid(&'static str),
    /// A field that must be positive was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// A numeric field was NaN or infinite.
    NotFinite {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A numeric field fell outside its legal interval.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Inclusive-or-exclusive lower bound, as documented on the field.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A derived quantity overflowed the machine word; the field names
    /// the computation.
    Overflow {
        /// The offending computation.
        field: &'static str,
    },
}

impl ConfigError {
    /// The name of the field that failed validation.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::Invalid(what) => what,
            ConfigError::Zero { field }
            | ConfigError::NotFinite { field, .. }
            | ConfigError::OutOfRange { field, .. }
            | ConfigError::Overflow { field } => field,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Invalid(what) => write!(f, "invalid configuration: {what}"),
            ConfigError::Zero { field } => {
                write!(f, "invalid configuration: {field} must be positive")
            }
            ConfigError::NotFinite { field, value } => {
                write!(
                    f,
                    "invalid configuration: {field} must be finite, got {value}"
                )
            }
            ConfigError::OutOfRange {
                field,
                value,
                lo,
                hi,
            } => {
                if hi.is_infinite() {
                    write!(
                        f,
                        "invalid configuration: {field} = {value} must be greater than {lo}"
                    )
                } else {
                    write!(
                        f,
                        "invalid configuration: {field} = {value} outside ({lo}, {hi}]"
                    )
                }
            }
            ConfigError::Overflow { field } => {
                write!(f, "invalid configuration: {field} overflows a machine word")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Longest accepted forwarding-policy label, in characters — labels
/// must stay printable inside the fixed-width report tables.
const MAX_POLICY_LABEL: usize = 48;

/// The most gateways [`SimConfig::validate`] accepts: ten thousand times
/// the paper's densest deployment (100).
const MAX_GATEWAYS: usize = 1_000_000;

/// Validates that `value` is finite and within `(lo, hi]`.
pub(crate) fn check_unit_interval(
    field: &'static str,
    value: f64,
    lo: f64,
    hi: f64,
) -> Result<(), ConfigError> {
    if !value.is_finite() {
        return Err(ConfigError::NotFinite { field, value });
    }
    if !(value > lo && value <= hi) {
        return Err(ConfigError::OutOfRange {
            field,
            value,
            lo,
            hi,
        });
    }
    Ok(())
}

impl SimConfig {
    /// The paper's §VII.A setting for a policy/environment pair: 600 km²,
    /// 24 h, grid gateways at 1 km range, 3-minute 20-byte messages, SF7,
    /// 1 % duty cycle, α = 0.5, Modified Class-C. A bare
    /// [`Scheme`](mlora_core::Scheme) is a policy.
    pub fn paper_default(policy: impl Into<PolicySpec>, environment: Environment) -> Self {
        SimConfig {
            network: BusNetworkConfig::default(),
            world: None,
            num_gateways: 60,
            placement: GatewayPlacement::Grid,
            gateway_range_m: 1_000.0,
            environment,
            policy: policy.into(),
            alpha: 0.5,
            device_class: DeviceClass::ModifiedClassC,
            gen_interval: SimDuration::from_mins(3),
            traffic: TrafficModel::default(),
            queue_capacity: 256,
            duty_cycle: 0.01,
            max_attempts: 8,
            phy: PhyParams::paper_default(),
            path_loss: LogDistanceModel::paper_default(),
            capacity: CapacityModel::paper_default(),
            horizon: SimDuration::from_hours(24),
            series_bucket: SimDuration::from_mins(10),
            disruptions: DisruptionPlan::default(),
        }
    }

    /// A small, fast configuration for unit/integration tests and micro
    /// benches: 100 km², 2 simulated hours, a few dozen buses.
    pub fn smoke_test(policy: impl Into<PolicySpec>, environment: Environment) -> Self {
        let mut cfg = SimConfig::paper_default(policy, environment);
        cfg.network.area_side_m = 10_000.0;
        cfg.network.num_routes = 12;
        cfg.network.max_active_buses = 40;
        cfg.network.min_route_length_m = 2_000.0;
        cfg.network.horizon = SimDuration::from_hours(2);
        cfg.horizon = SimDuration::from_hours(2);
        cfg.num_gateways = 9;
        cfg
    }

    /// The mid-scale configuration behind `repro --quick` and the engine
    /// microbenches: the full 600 km² area and fleet profile shape, but a
    /// 6-hour horizon spanning the morning ramp so runs finish in seconds.
    pub fn bench_scale(policy: impl Into<PolicySpec>, environment: Environment) -> Self {
        let mut cfg = SimConfig::paper_default(policy, environment);
        cfg.network.max_active_buses = 800;
        cfg.network.num_routes = 80;
        cfg.network.horizon = SimDuration::from_hours(6);
        cfg.horizon = SimDuration::from_hours(6);
        cfg
    }

    /// The frame size (bits) used for metric normalisation: a full bundle.
    pub fn packet_bits(&self) -> f64 {
        let bytes = mlora_mac::FRAME_HEADER_BYTES
            + mlora_mac::METADATA_BYTES
            + mlora_mac::MAX_BUNDLE * mlora_mac::APP_MESSAGE_BYTES;
        (bytes * 8) as f64
    }

    /// The routing configuration devices run.
    pub fn routing_config(&self) -> RoutingConfig {
        RoutingConfig {
            alpha: self.alpha,
            packet_bits: self.packet_bits(),
            rgq: mlora_core::Rgq::paper_default(),
            capacity: self.capacity,
            max_bundle: mlora_mac::MAX_BUNDLE,
        }
    }

    /// Instantiates one device's routing brain: a fresh instance of the
    /// [`SimConfig::policy`] prototype over the shared machinery.
    pub fn routing_state(&self) -> RoutingState {
        RoutingState::new(self.routing_config(), self.policy.build())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ConfigError`] variant
    /// ([`Zero`](ConfigError::Zero), [`NotFinite`](ConfigError::NotFinite)
    /// or [`OutOfRange`](ConfigError::OutOfRange)) naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_gateways == 0 {
            return Err(ConfigError::Zero {
                field: "num_gateways",
            });
        }
        if self.num_gateways > MAX_GATEWAYS {
            return Err(ConfigError::OutOfRange {
                field: "num_gateways",
                value: self.num_gateways as f64,
                lo: 0.0,
                hi: MAX_GATEWAYS as f64,
            });
        }
        self.network
            .validate()
            .map_err(|e| ConfigError::Invalid(e.0))?;
        if let Some(world) = &self.world {
            // The engine sizes its neighbour-grid drift bound from
            // `network.max_speed_mps`; a prebuilt world with faster
            // routes would let buses outrun their grid cell.
            let fastest = world
                .routes()
                .iter()
                .map(|r| r.speed_mps())
                .fold(0.0_f64, f64::max);
            if fastest > self.network.max_speed_mps {
                return Err(ConfigError::Invalid(
                    "prebuilt world has routes faster than network.max_speed_mps",
                ));
            }
        }
        if !self.gateway_range_m.is_finite() {
            return Err(ConfigError::NotFinite {
                field: "gateway_range_m",
                value: self.gateway_range_m,
            });
        }
        if self.gateway_range_m <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "gateway_range_m",
                value: self.gateway_range_m,
                lo: 0.0,
                hi: f64::INFINITY,
            });
        }
        check_unit_interval("alpha", self.alpha, 0.0, 1.0)?;
        self.validate_channel_model()?;
        // Labels are the policy's identity in reports and sweep cells;
        // an empty one would collapse table rows.
        if self.policy.label().is_empty() {
            return Err(ConfigError::Invalid("policy label must not be empty"));
        }
        if self.policy.label().chars().count() > MAX_POLICY_LABEL {
            return Err(ConfigError::Invalid(
                "policy label exceeds the report-table width limit",
            ));
        }
        if self.gen_interval.is_zero() {
            return Err(ConfigError::Zero {
                field: "gen_interval",
            });
        }
        self.traffic.validate()?;
        if self.queue_capacity == 0 {
            return Err(ConfigError::Zero {
                field: "queue_capacity",
            });
        }
        check_unit_interval("duty_cycle", self.duty_cycle, 0.0, 1.0)?;
        if self.max_attempts == 0 {
            return Err(ConfigError::Zero {
                field: "max_attempts",
            });
        }
        if self.horizon.is_zero() {
            return Err(ConfigError::Zero { field: "horizon" });
        }
        if self.series_bucket.is_zero() {
            return Err(ConfigError::Zero {
                field: "series_bucket",
            });
        }
        self.disruptions.validate(self.num_gateways)?;
        Ok(())
    }

    /// The channel model's part of [`SimConfig::validate`]: the engine
    /// tabulates these fields and compares what it computes from them,
    /// so a NaN would panic the first reception and a negative σ would
    /// silently disable shadowing.
    fn validate_channel_model(&self) -> Result<(), ConfigError> {
        let model = &self.path_loss;
        for (field, value) in [
            ("phy.tx_power_dbm", self.phy.tx_power_dbm),
            ("path_loss.pl0_db", model.pl0_db),
            ("path_loss.shadowing_sigma_db", model.shadowing_sigma_db),
        ] {
            if !value.is_finite() {
                return Err(ConfigError::NotFinite { field, value });
            }
        }
        check_unit_interval("path_loss.d0_m", model.d0_m, 0.0, f64::INFINITY)?;
        check_unit_interval("path_loss.exponent", model.exponent, 0.0, f64::INFINITY)?;
        if model.shadowing_sigma_db < 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "path_loss.shadowing_sigma_db",
                value: model.shadowing_sigma_db,
                lo: 0.0,
                hi: f64::INFINITY,
            });
        }
        Ok(())
    }

    /// Runs the simulation with `seed` and returns the report.
    ///
    /// Identical `(config, seed)` pairs produce identical reports.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn run(&self, seed: u64) -> Result<SimReport, ConfigError> {
        self.validate()?;
        Ok(crate::Engine::new(self.clone(), seed).run())
    }

    /// Runs the simulation with `seed`, streaming events to `observer`.
    ///
    /// The returned report is identical to [`SimConfig::run`] with the
    /// same seed — observers never perturb the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn run_with_observer(
        &self,
        seed: u64,
        observer: &mut dyn crate::SimObserver,
    ) -> Result<SimReport, ConfigError> {
        self.validate()?;
        Ok(crate::Engine::new(self.clone(), seed).run_with_observer(observer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_core::Scheme;

    #[test]
    fn environment_ranges() {
        assert_eq!(Environment::Urban.d2d_range_m(), 500.0);
        assert_eq!(Environment::Rural.d2d_range_m(), 1_000.0);
        assert_eq!(Environment::Urban.to_string(), "urban");
    }

    #[test]
    fn paper_default_is_valid() {
        for scheme in Scheme::ALL {
            for env in [Environment::Urban, Environment::Rural] {
                assert_eq!(SimConfig::paper_default(scheme, env).validate(), Ok(()));
            }
        }
    }

    #[test]
    fn packet_bits_full_bundle() {
        let cfg = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        assert_eq!(cfg.packet_bits(), 255.0 * 8.0);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let base = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);

        let mut c = base.clone();
        c.num_gateways = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "num_gateways"
            })
        );
        c.num_gateways = MAX_GATEWAYS + 1;
        assert_eq!(c.validate().unwrap_err().field(), "num_gateways");

        let mut c = base.clone();
        c.alpha = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "alpha",
                value: 0.0,
                lo: 0.0,
                hi: 1.0
            })
        );

        let mut c = base.clone();
        c.alpha = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotFinite { field: "alpha", .. })
        ));

        let mut c = base.clone();
        c.gateway_range_m = f64::INFINITY;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotFinite {
                field: "gateway_range_m",
                ..
            })
        ));

        let mut c = base.clone();
        c.gateway_range_m = -500.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "gateway_range_m",
                value: -500.0,
                lo: 0.0,
                hi: f64::INFINITY,
            })
        );

        let mut c = base.clone();
        c.duty_cycle = 2.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::OutOfRange {
                field: "duty_cycle",
                ..
            })
        ));

        let mut c = base.clone();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = base;
        c.horizon = SimDuration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "horizon" }));
    }

    #[test]
    fn validation_covers_the_channel_model() {
        let base = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        type Field = fn(&mut SimConfig) -> &mut f64;
        let fields: [(&str, Field); 5] = [
            ("phy.tx_power_dbm", |c| &mut c.phy.tx_power_dbm),
            ("path_loss.pl0_db", |c| &mut c.path_loss.pl0_db),
            ("path_loss.d0_m", |c| &mut c.path_loss.d0_m),
            ("path_loss.exponent", |c| &mut c.path_loss.exponent),
            ("path_loss.shadowing_sigma_db", |c| {
                &mut c.path_loss.shadowing_sigma_db
            }),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut c = base.clone();
                *field(&mut c) = bad;
                assert!(
                    matches!(c.validate(), Err(ConfigError::NotFinite { field, .. }) if field == name),
                    "{name} = {bad}: {:?}",
                    c.validate()
                );
            }
        }
        // A reference distance and an exponent must be positive; σ may
        // be zero (shadowing off) but not negative.
        for (name, field, bad) in [
            (fields[2].0, fields[2].1, 0.0),
            (fields[2].0, fields[2].1, -1_000.0),
            (fields[3].0, fields[3].1, 0.0),
            (fields[3].0, fields[3].1, -2.32),
            (fields[4].0, fields[4].1, -3.0),
        ] {
            let mut c = base.clone();
            *field(&mut c) = bad;
            assert_eq!(
                c.validate(),
                Err(ConfigError::OutOfRange {
                    field: name,
                    value: bad,
                    lo: 0.0,
                    hi: f64::INFINITY,
                })
            );
        }
        let mut c = base.clone();
        c.path_loss.shadowing_sigma_db = 0.0;
        c.phy.tx_power_dbm = -4.0;
        c.path_loss.pl0_db = -10.0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validation_covers_traffic_model() {
        let mut c = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        c.traffic = crate::TrafficModel::mix([crate::TrafficProfile::telemetry().weight(-1.0)]);
        assert_eq!(c.validate().unwrap_err().field(), "traffic.profiles.weight");
        c.traffic = crate::TrafficModel::mix([crate::TrafficProfile::telemetry()]);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validation_covers_policy_labels() {
        use mlora_core::{Beacon, ForwardingPolicy, PolicyContext, PolicySpec, Rssi};

        /// A policy whose label is whatever the test wants.
        #[derive(Debug, Clone)]
        struct Labelled(String);
        impl ForwardingPolicy for Labelled {
            fn label(&self) -> &str {
                &self.0
            }
            fn clone_box(&self) -> Box<dyn ForwardingPolicy> {
                Box::new(self.clone())
            }
            fn forwards(&mut self, _: &PolicyContext<'_>, _: &Beacon, _: Rssi<'_>) -> bool {
                false
            }
        }

        let mut c = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        c.policy = PolicySpec::of(Labelled(String::new()));
        assert_eq!(
            c.validate().unwrap_err().field(),
            "policy label must not be empty"
        );
        c.policy = PolicySpec::of(Labelled("x".repeat(49)));
        assert!(c.validate().is_err());
        c.policy = PolicySpec::of(Labelled("flood-fill".into()));
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.policy.label(), "flood-fill");
    }

    #[test]
    fn validation_covers_disruption_plan() {
        let mut c = SimConfig::smoke_test(Scheme::NoRouting, Environment::Urban);
        // An outage naming a gateway the scenario does not deploy.
        c.disruptions.outages.push(crate::GatewayOutage {
            gateway: c.num_gateways,
            start: mlora_simcore::SimTime::ZERO,
            duration: None,
        });
        assert_eq!(
            c.validate().unwrap_err().field(),
            "disruptions.outages.gateway"
        );
        c.disruptions.outages[0].gateway = 0;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError::Invalid("x must be y");
        assert_eq!(e.to_string(), "invalid configuration: x must be y");
        let e = ConfigError::Zero { field: "horizon" };
        assert_eq!(
            e.to_string(),
            "invalid configuration: horizon must be positive"
        );
        assert_eq!(e.field(), "horizon");
        let e = ConfigError::OutOfRange {
            field: "alpha",
            value: 2.0,
            lo: 0.0,
            hi: 1.0,
        };
        assert!(e.to_string().contains("alpha"), "{e}");
    }
}
