//! Fluent scenario construction.
//!
//! [`Scenario`] is the front door of the simulator: it names an
//! environment, [`ScenarioBuilder`] tweaks whatever the experiment needs,
//! and [`ScenarioBuilder::build`] validates eagerly into a ready
//! [`SimConfig`]. The builder subsumes the older ad-hoc constructors
//! (`SimConfig::paper_default` / `smoke_test` / `bench_scale`), which
//! remain as thin presets behind [`ScenarioBuilder::smoke`] and
//! [`ScenarioBuilder::bench`].
//!
//! The builder also removes the paired-field footgun of raw
//! [`SimConfig`]: the simulation horizon and the mobility-schedule
//! horizon are always set together.
//!
//! # Example
//!
//! ```
//! use mlora_core::Scheme;
//! use mlora_sim::Scenario;
//!
//! let config = Scenario::urban()
//!     .gateways(80)
//!     .scheme(Scheme::Robc)
//!     .duration_h(24)
//!     .build()?;
//! assert_eq!(config.num_gateways, 80);
//! # Ok::<(), mlora_sim::ConfigError>(())
//! ```

use std::sync::Arc;

use mlora_core::{PolicySpec, Scheme};
use mlora_geo::Point;
use mlora_mobility::{BusNetwork, MetroConfig, MetroWorld};
use mlora_simcore::{SimDuration, SimTime};

use crate::{
    BusWithdrawal, ConfigError, DeviceClassChoice, DisruptionPlan, Environment, GatewayOutage,
    GatewayPlacement, NoiseBurst, SimConfig, SimObserver, SimReport, TrafficModel, TrafficProfile,
};

/// Entry points for building simulation scenarios.
///
/// Each constructor yields a [`ScenarioBuilder`] seeded with the paper's
/// §VII.A configuration for that environment (600 km², 24 h, 60 grid
/// gateways, ROBC disabled until a scheme is chosen — the default scheme
/// is [`Scheme::NoRouting`]).
#[derive(Debug, Clone, Copy)]
pub struct Scenario;

impl Scenario {
    /// An urban scenario: buildings block signals, 500 m device-to-device
    /// range.
    pub fn urban() -> ScenarioBuilder {
        Scenario::custom(Environment::Urban)
    }

    /// A rural scenario: open terrain, 1 km device-to-device range.
    pub fn rural() -> ScenarioBuilder {
        Scenario::custom(Environment::Rural)
    }

    /// A scenario for an explicit environment.
    pub fn custom(environment: Environment) -> ScenarioBuilder {
        ScenarioBuilder {
            config: SimConfig::paper_default(Scheme::NoRouting, environment),
        }
    }
}

/// Fluent builder over [`SimConfig`].
///
/// Setters are chainable and order-independent; [`ScenarioBuilder::build`]
/// validates the result eagerly and returns a typed [`ConfigError`] naming
/// the first offending field.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBuilder {
    config: SimConfig,
}

impl ScenarioBuilder {
    /// Applies the small, fast smoke-test preset (100 km², 2 h, ~40
    /// buses, 9 gateways) used by unit and integration tests.
    ///
    /// Scale presets overwrite area, fleet, horizon and gateway-count
    /// fields (environment and scheme are kept), so apply them *before*
    /// per-field setters.
    pub fn smoke(self) -> Self {
        SimConfig::smoke_test(self.config.policy, self.config.environment).into()
    }

    /// Applies the mid-scale bench preset (full 600 km² area, 6 h
    /// spanning the morning ramp, ~800-bus peak).
    ///
    /// Scale presets overwrite area, fleet, horizon and gateway-count
    /// fields (environment and scheme are kept), so apply them *before*
    /// per-field setters.
    pub fn bench(self) -> Self {
        SimConfig::bench_scale(self.config.policy, self.config.environment).into()
    }

    /// Sets the radio environment (device-to-device range follows).
    pub fn environment(mut self, environment: Environment) -> Self {
        self.config.environment = environment;
        self
    }

    /// Sets the number of gateways (the paper sweeps 40–100).
    pub fn gateways(mut self, count: usize) -> Self {
        self.config.num_gateways = count;
        self
    }

    /// Sets the gateway placement strategy.
    pub fn placement(mut self, placement: GatewayPlacement) -> Self {
        self.config.placement = placement;
        self
    }

    /// Sets the device-to-gateway range, metres (paper: 1 km).
    pub fn gateway_range_m(mut self, range_m: f64) -> Self {
        self.config.gateway_range_m = range_m;
        self
    }

    /// Sets the forwarding policy under test: one of the paper's schemes
    /// (a bare [`Scheme`]) or a user-defined
    /// [`ForwardingPolicy`](mlora_core::ForwardingPolicy) wrapped by
    /// [`PolicySpec::of`].
    ///
    /// The spec acts as a prototype: every device instantiates its own
    /// copy through
    /// [`ForwardingPolicy::clone_box`](mlora_core::ForwardingPolicy::clone_box),
    /// and the policy's label flows into
    /// [`SimReport::scheme`](crate::SimReport) and every table keyed by
    /// scheme.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_core::{PolicySpec, RobcPolicy};
    /// use mlora_sim::Scenario;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .scheme(PolicySpec::of(RobcPolicy))
    ///     .build()?;
    /// assert_eq!(cfg.policy.label(), "ROBC");
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn scheme(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.config.policy = policy.into();
        self
    }

    /// Sets the EWMA smoothing factor α of Eq. 4 (paper: 0.5).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the device class for the whole fleet.
    pub fn device_class(mut self, class: DeviceClassChoice) -> Self {
        self.config.device_class = class;
        self
    }

    /// Sets the simulated horizon in whole hours.
    ///
    /// Keeps the mobility schedule horizon in lock-step — the two fields
    /// that had to be updated together on a raw [`SimConfig`].
    pub fn duration_h(self, hours: u64) -> Self {
        self.duration(SimDuration::from_hours(hours))
    }

    /// Sets the simulated horizon.
    pub fn duration(mut self, horizon: SimDuration) -> Self {
        self.config.horizon = horizon;
        self.config.network.horizon = horizon;
        self
    }

    /// Sets the application message generation interval (paper: 3 min).
    ///
    /// Drives the paper-exact periodic generator while the scenario's
    /// traffic model is empty; profiles attached through
    /// [`ScenarioBuilder::traffic`] / [`ScenarioBuilder::profile`] carry
    /// their own intervals.
    pub fn gen_interval(mut self, interval: SimDuration) -> Self {
        self.config.gen_interval = interval;
        self
    }

    /// Replaces the scenario's traffic model wholesale.
    ///
    /// The default model is empty — the paper's homogeneous periodic
    /// workload, bit-identical to a build without the traffic subsystem.
    /// Individual profiles append through [`ScenarioBuilder::profile`].
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::prelude::*;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .traffic(TrafficModel::mix([
    ///         TrafficProfile::telemetry().weight(4.0),
    ///         TrafficProfile::alerts(),
    ///     ]))
    ///     .build()?;
    /// assert_eq!(cfg.traffic.profiles.len(), 2);
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn traffic(mut self, model: TrafficModel) -> Self {
        self.config.traffic = model;
        self
    }

    /// Appends one traffic profile to the scenario's model.
    ///
    /// Repeated calls build up a heterogeneous mix; fleet shares follow
    /// the profiles' weights.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::prelude::*;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .profile(TrafficProfile::tracking())
    ///     .profile(TrafficProfile::alerts())
    ///     .build()?;
    /// assert_eq!(cfg.traffic.profiles[1].name, "alerts");
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn profile(mut self, profile: TrafficProfile) -> Self {
        self.config.traffic.profiles.push(profile);
        self
    }

    /// Sets the per-device application queue capacity, messages.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the duty-cycle cap (paper: 1 %).
    pub fn duty_cycle(mut self, fraction: f64) -> Self {
        self.config.duty_cycle = fraction;
        self
    }

    /// Sets the maximum transmissions per frame (paper: 8).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.config.max_attempts = attempts;
        self
    }

    /// Sets the width of the throughput time-series buckets.
    pub fn series_bucket(mut self, bucket: SimDuration) -> Self {
        self.config.series_bucket = bucket;
        self
    }

    /// Sets the side of the square simulation area, metres.
    pub fn area_side_m(mut self, side_m: f64) -> Self {
        self.config.network.area_side_m = side_m;
        self
    }

    /// Sets the peak number of simultaneously active buses.
    pub fn buses(mut self, peak: usize) -> Self {
        self.config.network.max_active_buses = peak;
        self
    }

    /// Sets the number of bus routes.
    pub fn routes(mut self, routes: usize) -> Self {
        self.config.network.num_routes = routes;
        self
    }

    /// Replaces the scenario's disruption timeline wholesale.
    ///
    /// The default plan is empty; an empty plan is bit-identical to an
    /// undisrupted run. Individual events append through
    /// [`ScenarioBuilder::gateway_outage`],
    /// [`ScenarioBuilder::withdraw_buses`] and
    /// [`ScenarioBuilder::noise_burst`].
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::prelude::*;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .disruptions(DisruptionPlan::default())
    ///     .build()?;
    /// assert!(cfg.disruptions.is_empty());
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn disruptions(mut self, plan: DisruptionPlan) -> Self {
        self.config.disruptions = plan;
        self
    }

    /// Schedules a gateway outage: gateway `gateway` goes down `start`
    /// into the run and recovers after `duration` (pass
    /// [`ScenarioBuilder::gateway_outage_to_horizon`] for one that never
    /// recovers). Repeated calls append further outages.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::Scenario;
    /// use mlora_simcore::SimDuration;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .gateway_outage(4, SimDuration::from_mins(30), SimDuration::from_mins(30))
    ///     .build()?;
    /// assert_eq!(cfg.disruptions.outages.len(), 1);
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn gateway_outage(
        mut self,
        gateway: usize,
        start: SimDuration,
        duration: SimDuration,
    ) -> Self {
        self.config.disruptions.outages.push(GatewayOutage {
            gateway,
            start: SimTime::ZERO + start,
            duration: Some(duration),
        });
        self
    }

    /// Schedules a gateway outage that runs from `start` to the end of
    /// the simulation — a permanent failure.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::Scenario;
    /// use mlora_simcore::SimDuration;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .gateway_outage_to_horizon(0, SimDuration::from_hours(1))
    ///     .build()?;
    /// assert_eq!(cfg.disruptions.outages[0].duration, None);
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn gateway_outage_to_horizon(mut self, gateway: usize, start: SimDuration) -> Self {
        self.config.disruptions.outages.push(GatewayOutage {
            gateway,
            start: SimTime::ZERO + start,
            duration: None,
        });
        self
    }

    /// Schedules a fleet withdrawal: `fraction` of the then-active buses
    /// (rounded to whole vehicles, drawn from a dedicated deterministic
    /// RNG stream) retire early `at` into the run.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_sim::Scenario;
    /// use mlora_simcore::SimDuration;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .withdraw_buses(SimDuration::from_mins(45), 0.25)
    ///     .build()?;
    /// assert_eq!(cfg.disruptions.withdrawals[0].fraction, 0.25);
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn withdraw_buses(mut self, at: SimDuration, fraction: f64) -> Self {
        self.config.disruptions.withdrawals.push(BusWithdrawal {
            at: SimTime::ZERO + at,
            fraction,
        });
        self
    }

    /// Schedules a regional noise burst: for `duration` starting `start`
    /// into the run, every reception at a position within `radius_m` of
    /// `center` loses `extra_loss_db` of RSSI (a raised noise floor).
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_geo::Point;
    /// use mlora_sim::Scenario;
    /// use mlora_simcore::SimDuration;
    ///
    /// let cfg = Scenario::urban()
    ///     .smoke()
    ///     .noise_burst(
    ///         Point::new(5_000.0, 5_000.0),
    ///         3_000.0,
    ///         SimDuration::from_mins(20),
    ///         SimDuration::from_mins(40),
    ///         12.0,
    ///     )
    ///     .build()?;
    /// assert_eq!(cfg.disruptions.noise_bursts.len(), 1);
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn noise_burst(
        mut self,
        center: Point,
        radius_m: f64,
        start: SimDuration,
        duration: SimDuration,
        extra_loss_db: f64,
    ) -> Self {
        self.config.disruptions.noise_bursts.push(NoiseBurst {
            center,
            radius_m,
            start: SimTime::ZERO + start,
            duration: Some(duration),
            extra_loss_db,
        });
        self
    }

    /// Attaches a prebuilt world, bypassing seeded network generation.
    ///
    /// The scenario then runs on exactly this network regardless of the
    /// run seed — the path for metro-scale worlds built with
    /// [`ScenarioBuilder::metro`] or loaded from a scenario file. The
    /// builder keeps the dependent configuration fields in sync: the
    /// simulated horizon, the area side and the mobility speed ceiling
    /// (which sizes the engine's neighbour-grid drift bound) all follow
    /// the attached world.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_mobility::{BusNetwork, BusNetworkConfig};
    /// use mlora_sim::Scenario;
    ///
    /// let net = BusNetwork::generate(
    ///     &BusNetworkConfig {
    ///         area_side_m: 10_000.0,
    ///         num_routes: 8,
    ///         max_active_buses: 40,
    ///         min_route_length_m: 2_000.0,
    ///         ..BusNetworkConfig::default()
    ///     },
    ///     1,
    /// );
    /// let cfg = Scenario::urban().smoke().world(net).build()?;
    /// assert!(cfg.world.is_some());
    /// # Ok::<(), mlora_sim::ConfigError>(())
    /// ```
    pub fn world(mut self, world: impl Into<Arc<BusNetwork>>) -> Self {
        let world = world.into();
        let fastest = world
            .routes()
            .iter()
            .map(|r| r.speed_mps())
            .fold(0.0_f64, f64::max);
        self.config.network.max_speed_mps = self.config.network.max_speed_mps.max(fastest);
        self.config.network.area_side_m = world.area().width().max(world.area().height());
        self.config.horizon = world.horizon();
        self.config.network.horizon = world.horizon();
        self.config.world = Some(world);
        self
    }

    /// Generates a metro-scale world from `config` and `seed` and
    /// attaches it (see [`ScenarioBuilder::world`]). Identical
    /// `(config, seed)` pairs attach identical worlds.
    pub fn metro(self, config: &MetroConfig, seed: u64) -> Self {
        self.world(MetroWorld::generate(config, seed).into_network())
    }

    /// Applies an arbitrary tweak to the underlying [`SimConfig`] — the
    /// escape hatch for fields without a dedicated setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// The configuration as built so far, not yet validated.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] naming the first offending field
    /// (zero gateways, NaN ranges, α ∉ (0, 1], …).
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }

    /// Builds and runs with `seed` in one step.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scenario is invalid.
    pub fn run(self, seed: u64) -> Result<SimReport, ConfigError> {
        self.build()?.run(seed)
    }

    /// Builds and runs with `seed`, streaming events to `observer`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scenario is invalid.
    pub fn run_with_observer(
        self,
        seed: u64,
        observer: &mut dyn SimObserver,
    ) -> Result<SimReport, ConfigError> {
        self.build()?.run_with_observer(seed, observer)
    }
}

impl From<SimConfig> for ScenarioBuilder {
    /// Wraps an existing configuration for further fluent adjustment.
    fn from(config: SimConfig) -> Self {
        ScenarioBuilder { config }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_paper_default() {
        let built = Scenario::urban()
            .scheme(Scheme::Robc)
            .build()
            .expect("paper defaults are valid");
        assert_eq!(
            built,
            SimConfig::paper_default(Scheme::Robc, Environment::Urban)
        );
    }

    #[test]
    fn smoke_preset_matches_constructor() {
        let built = Scenario::rural()
            .scheme(Scheme::RcaEtx)
            .smoke()
            .build()
            .unwrap();
        assert_eq!(
            built,
            SimConfig::smoke_test(Scheme::RcaEtx, Environment::Rural)
        );
    }

    #[test]
    fn duration_keeps_network_horizon_in_sync() {
        let cfg = Scenario::urban().duration_h(6).build().unwrap();
        assert_eq!(cfg.horizon, SimDuration::from_hours(6));
        assert_eq!(cfg.network.horizon, cfg.horizon);
    }

    #[test]
    fn build_rejects_invalid_scenarios_eagerly() {
        assert_eq!(
            Scenario::urban().gateways(0).build(),
            Err(ConfigError::Zero {
                field: "num_gateways"
            })
        );
        assert!(matches!(
            Scenario::urban().alpha(1.5).build(),
            Err(ConfigError::OutOfRange { field: "alpha", .. })
        ));
        assert!(matches!(
            Scenario::urban().gateway_range_m(f64::NAN).build(),
            Err(ConfigError::NotFinite {
                field: "gateway_range_m",
                ..
            })
        ));
    }

    #[test]
    fn builder_run_equals_config_run() {
        let seed = 77;
        let by_builder = Scenario::urban()
            .smoke()
            .scheme(Scheme::Robc)
            .run(seed)
            .unwrap();
        let by_config = SimConfig::smoke_test(Scheme::Robc, Environment::Urban)
            .run(seed)
            .unwrap();
        assert_eq!(by_builder, by_config);
    }

    #[test]
    fn disruption_setters_append_and_validate() {
        let cfg = Scenario::urban()
            .smoke()
            .gateway_outage(1, SimDuration::from_mins(10), SimDuration::from_mins(5))
            .gateway_outage_to_horizon(2, SimDuration::from_mins(20))
            .withdraw_buses(SimDuration::from_mins(30), 0.5)
            .noise_burst(
                Point::new(1_000.0, 1_000.0),
                500.0,
                SimDuration::from_mins(5),
                SimDuration::from_mins(10),
                6.0,
            )
            .build()
            .expect("valid disruptions");
        assert_eq!(cfg.disruptions.outages.len(), 2);
        assert_eq!(cfg.disruptions.withdrawals.len(), 1);
        assert_eq!(cfg.disruptions.noise_bursts.len(), 1);

        // Invalid entries surface through build() with the typed error.
        let err = Scenario::urban()
            .smoke()
            .withdraw_buses(SimDuration::from_mins(1), 0.0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "disruptions.withdrawals.fraction");
        let err = Scenario::urban()
            .smoke()
            .gateway_outage(99, SimDuration::from_mins(1), SimDuration::from_mins(1))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "disruptions.outages.gateway");
    }

    #[test]
    fn traffic_setters_append_and_validate() {
        let cfg = Scenario::urban()
            .smoke()
            .profile(TrafficProfile::telemetry())
            .profile(TrafficProfile::alerts())
            .build()
            .expect("valid traffic mix");
        assert_eq!(cfg.traffic.profiles.len(), 2);
        assert_eq!(cfg.traffic.profiles[0].name, "telemetry");

        // traffic() replaces whatever profile() accumulated.
        let cfg = Scenario::urban()
            .smoke()
            .profile(TrafficProfile::telemetry())
            .traffic(TrafficModel::default())
            .build()
            .unwrap();
        assert!(cfg.traffic.is_empty());

        // Invalid profiles surface through build() with the typed error.
        let err = Scenario::urban()
            .smoke()
            .profile(TrafficProfile::telemetry().weight(f64::NAN))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "traffic.profiles.weight");
    }

    #[test]
    fn scale_presets_keep_a_plugged_in_policy() {
        use mlora_core::RobcPolicy;

        // Not built from `Scheme::Robc`, so only the spec itself can
        // carry it through the preset.
        let cfg = Scenario::urban()
            .scheme(PolicySpec::of(RobcPolicy))
            .smoke()
            .build()
            .unwrap();
        assert_eq!(cfg.policy.label(), "ROBC");
        let report = cfg.run(77).unwrap();
        assert_eq!(report.scheme, "ROBC");
        assert!(report.handover_messages > 0, "ran as the baseline");
        let cfg = Scenario::rural().scheme(PolicySpec::of(RobcPolicy)).bench();
        assert_eq!(cfg.config().policy.label(), "ROBC");
    }

    #[test]
    fn tweak_reaches_any_field() {
        let cfg = Scenario::urban()
            .tweak(|c| c.network.center_bias = 0.9)
            .build()
            .unwrap();
        assert_eq!(cfg.network.center_bias, 0.9);
    }
}
