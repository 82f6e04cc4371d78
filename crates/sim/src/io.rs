//! Scenario files: saving and loading full simulation setups.
//!
//! Lays out every section of the `.mlsc` format — the mobility config,
//! a prebuilt world (header, routes, fleet), parameters, gateways,
//! traffic and disruptions — on top of the `mlora-scenario-io`
//! container, giving [`SimConfig`] a complete on-disk form:
//!
//! * [`SimConfig::to_file`] / [`SimConfig::to_writer`] — stream a
//!   configuration (and its prebuilt world, when one is attached) into
//!   the versioned `.mlsc` binary format, record by record, without
//!   re-buffering the network.
//! * [`SimConfig::from_file`] / [`SimConfig::from_reader`] — the
//!   inverse; a loaded configuration runs bit-identically to the
//!   in-memory original.
//!
//! The forwarding policy is stored as the tag of the
//! [`Scheme`] its [`PolicySpec`] was built from. A
//! [`ForwardingPolicy`](mlora_core::ForwardingPolicy) wrapped directly
//! is live code and cannot be serialized; saving a config with one
//! returns [`ScenarioFileError::UnsupportedPolicy`].
//!
//! Reading never panics on file content: clippy holds this module, like
//! `crate::persist` under it, to no indexing, `unwrap`, `expect` or
//! `panic!` outside its tests.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use mlora_core::{PolicySpec, Scheme};
use mlora_geo::{BBox, Point, Polyline};
use mlora_mac::Priority;
use mlora_mobility::{
    BusNetwork, BusNetworkConfig, DiurnalProfile, NetworkError, Route, RouteId, Trip,
};
use mlora_phy::{
    Bandwidth, CapacityModel, CodingRate, LogDistanceModel, PhyParams, SpreadingFactor,
};
use mlora_scenario_io::{section, Enc, ScenarioIoError, ScenarioReader, ScenarioWriter};
use mlora_simcore::{NodeId, SimDuration, SimTime};

use crate::disruption::{BusWithdrawal, GatewayOutage, NoiseBurst};
use crate::persist::{
    ensure, persist_enum, persist_struct, put_slice, read_each, read_record, read_records,
    write_each, write_record, write_records, Persist,
};
use crate::traffic::{ArrivalProcess, PayloadModel, TrafficProfile};
use crate::{
    ConfigError, DeviceClass, DisruptionPlan, Environment, GatewayPlacement, Scenario,
    ScenarioBuilder, SimConfig, TrafficModel,
};

/// Error saving or loading a scenario file.
#[derive(Debug)]
pub enum ScenarioFileError {
    /// The underlying container failed (IO, corruption, truncation).
    Io(ScenarioIoError),
    /// The file decoded cleanly but the resulting configuration is
    /// invalid.
    Config(ConfigError),
    /// The configuration plugs in a live
    /// [`ForwardingPolicy`](mlora_core::ForwardingPolicy), which cannot
    /// be serialized. Save the built-in scheme instead and re-attach the
    /// policy after loading.
    UnsupportedPolicy,
}

impl std::fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioFileError::Io(e) => write!(f, "{e}"),
            ScenarioFileError::Config(e) => write!(f, "loaded scenario is invalid: {e}"),
            ScenarioFileError::UnsupportedPolicy => {
                write!(f, "explicit forwarding policies cannot be serialized")
            }
        }
    }
}

impl std::error::Error for ScenarioFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioFileError::Io(e) => Some(e),
            ScenarioFileError::Config(e) => Some(e),
            ScenarioFileError::UnsupportedPolicy => None,
        }
    }
}

impl From<ScenarioIoError> for ScenarioFileError {
    fn from(e: ScenarioIoError) -> Self {
        ScenarioFileError::Io(e)
    }
}

impl From<std::io::Error> for ScenarioFileError {
    fn from(e: std::io::Error) -> Self {
        ScenarioFileError::Io(ScenarioIoError::from(e))
    }
}

impl From<ConfigError> for ScenarioFileError {
    fn from(e: ConfigError) -> Self {
        ScenarioFileError::Config(e)
    }
}

impl SimConfig {
    /// Streams this configuration (and its prebuilt world, if attached)
    /// into `out` in the `.mlsc` binary format.
    ///
    /// # Errors
    ///
    /// [`ScenarioFileError::UnsupportedPolicy`] when the policy was not
    /// built from a [`Scheme`], [`ScenarioFileError::Config`] when the
    /// configuration is invalid, IO errors otherwise.
    pub fn to_writer<W: Write>(&self, out: W) -> Result<(), ScenarioFileError> {
        if self.policy.scheme().is_none() {
            return Err(ScenarioFileError::UnsupportedPolicy);
        }
        self.validate()?;
        let mut w = ScenarioWriter::new(out)?;
        write_record(&mut w, section::NETWORK_CONFIG, |enc| self.network.put(enc))?;
        write_record(&mut w, section::SIM_PARAMS, |enc| self.put_sim_params(enc))?;
        write_record(&mut w, section::GATEWAYS, |enc| self.put_gateways(enc))?;
        if !self.traffic.profiles.is_empty() {
            write_records(&mut w, section::TRAFFIC, &self.traffic.profiles)?;
        }
        if !self.disruptions.is_empty() {
            write_disruptions(&mut w, &self.disruptions)?;
        }
        if let Some(world) = &self.world {
            write_world(&mut w, world)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Saves this configuration to `path` (see [`SimConfig::to_writer`]).
    ///
    /// # Errors
    ///
    /// As [`SimConfig::to_writer`], plus filesystem errors.
    pub fn to_file(&self, path: impl AsRef<Path>) -> Result<(), ScenarioFileError> {
        let file = std::fs::File::create(path)?;
        self.to_writer(std::io::BufWriter::new(file))
    }

    /// Reads a configuration from a `.mlsc` stream.
    ///
    /// Unknown sections are skipped, so files written by newer builds
    /// load as long as the container version matches. The returned
    /// configuration is validated.
    ///
    /// # Errors
    ///
    /// [`ScenarioFileError::Io`] on container-level failures (including
    /// missing required sections), [`ScenarioFileError::Config`] when
    /// the decoded configuration fails validation.
    pub fn from_reader<R: Read>(input: R) -> Result<Self, ScenarioFileError> {
        let mut r = ScenarioReader::new(input)?;
        let mut network = None;
        let mut params = None;
        let mut gateways = None;
        let mut traffic = TrafficModel::default();
        let mut disruptions = DisruptionPlan::default();
        let (mut header, mut routes, mut trips) = (None, None, None);
        while let Some((id, count)) = r.next_section()? {
            match id {
                section::NETWORK_CONFIG => network = Some(read_record(&mut r)?),
                section::SIM_PARAMS => params = Some(read_record::<_, SimParams>(&mut r)?),
                section::GATEWAYS => gateways = Some(read_record::<_, Gateways>(&mut r)?),
                section::TRAFFIC => traffic.profiles = read_records(&mut r, count)?,
                section::DISRUPTIONS => disruptions = read_disruptions(&mut r, count)?,
                section::WORLD => header = Some(read_record(&mut r)?),
                section::ROUTES => routes = Some(read_each(&mut r, count, get_route)?),
                section::FLEET => {
                    let routes = routes
                        .as_deref()
                        .ok_or(ScenarioIoError::Corrupt("fleet before routes"))?;
                    trips = Some(read_each(&mut r, count, |r, i| get_trip(r, i, routes))?);
                }
                _ => r.skip_section()?,
            }
        }
        let network = network.ok_or(ScenarioIoError::MissingSection("network config"))?;
        let params = params.ok_or(ScenarioIoError::MissingSection("simulation parameters"))?;
        let gateways = gateways.ok_or(ScenarioIoError::MissingSection("gateways"))?;
        let world = world_from(header, routes, trips)?.map(Arc::new);
        let cfg = SimConfig {
            network,
            world,
            num_gateways: gateways.num_gateways,
            placement: gateways.placement,
            gateway_range_m: gateways.gateway_range_m,
            environment: params.environment,
            policy: params.policy,
            alpha: params.alpha,
            device_class: params.device_class,
            gen_interval: params.gen_interval,
            traffic,
            queue_capacity: params.queue_capacity,
            duty_cycle: params.duty_cycle,
            max_attempts: params.max_attempts,
            phy: params.phy,
            path_loss: params.path_loss,
            capacity: params.capacity,
            horizon: params.horizon,
            series_bucket: params.series_bucket,
            disruptions,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Loads a configuration from `path` (see [`SimConfig::from_reader`]).
    ///
    /// # Errors
    ///
    /// As [`SimConfig::from_reader`], plus filesystem errors.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioFileError> {
        let file = std::fs::File::open(path)?;
        SimConfig::from_reader(std::io::BufReader::new(file))
    }
}

impl Scenario {
    /// Loads a scenario file into a builder for further fluent
    /// adjustment before running.
    ///
    /// # Errors
    ///
    /// As [`SimConfig::from_file`].
    pub fn from_file(path: impl AsRef<Path>) -> Result<ScenarioBuilder, ScenarioFileError> {
        Ok(ScenarioBuilder::from(SimConfig::from_file(path)?))
    }
}

impl ScenarioBuilder {
    /// Validates and saves the scenario to `path` without consuming the
    /// builder.
    ///
    /// # Errors
    ///
    /// As [`SimConfig::to_file`].
    pub fn to_file(&self, path: impl AsRef<Path>) -> Result<(), ScenarioFileError> {
        self.config().to_file(path)
    }
}

// ---------------------------------------------------------------------
// Record layouts, each written once (see `crate::persist`)
// ---------------------------------------------------------------------

persist_enum!(Environment, "bad environment tag" {
    Environment::Urban => 0,
    Environment::Rural => 1,
});
persist_enum!(Scheme, "bad scheme tag" {
    Scheme::NoRouting => 0,
    Scheme::RcaEtx => 1,
    Scheme::Robc => 2,
    Scheme::CaEtx => 3,
});

/// A forwarding policy travels as the tag of the [`Scheme`] it was built
/// from; [`SimConfig::to_writer`], the only writer, has refused any
/// other — the writing side's own invariant, not file content.
impl Persist for PolicySpec {
    #[allow(clippy::expect_used)]
    fn put(&self, enc: &mut Enc) {
        let scheme = self.scheme().expect("to_writer checked the scheme");
        scheme.put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        Scheme::get(r).map(PolicySpec::from)
    }
}
persist_enum!(DeviceClass, "bad device class tag" {
    DeviceClass::ModifiedClassC => 0,
    DeviceClass::QueueBasedClassA => 1,
});
persist_enum!(SpreadingFactor, "bad spreading factor" {
    SpreadingFactor::Sf7 => 7,
    SpreadingFactor::Sf8 => 8,
    SpreadingFactor::Sf9 => 9,
    SpreadingFactor::Sf10 => 10,
    SpreadingFactor::Sf11 => 11,
    SpreadingFactor::Sf12 => 12,
});
persist_enum!(Bandwidth, "bad bandwidth tag" {
    Bandwidth::Khz125 => 0,
    Bandwidth::Khz250 => 1,
    Bandwidth::Khz500 => 2,
});
persist_enum!(CodingRate, "bad coding rate tag" {
    CodingRate::Cr4of5 => 0,
    CodingRate::Cr4of6 => 1,
    CodingRate::Cr4of7 => 2,
    CodingRate::Cr4of8 => 3,
});
persist_enum!(GatewayPlacement, "bad placement tag" {
    GatewayPlacement::Grid => 0,
    GatewayPlacement::Random => 1,
});
persist_enum!(Priority, "bad priority tag" {
    Priority::Low => 0,
    Priority::Normal => 1,
    Priority::High => 2,
});

persist_struct!(PhyParams {
    sf: SpreadingFactor,
    bandwidth: Bandwidth,
    coding_rate: CodingRate,
    preamble_symbols: u32,
    explicit_header: bool,
    crc: bool,
    tx_power_dbm: f64,
});
persist_struct!(LogDistanceModel {
    pl0_db: f64,
    d0_m: f64,
    exponent: f64,
    shadowing_sigma_db: f64,
});

impl Persist for CapacityModel {
    fn put(&self, enc: &mut Enc) {
        self.gamma_min_dbm().put(enc);
        self.gamma_max_dbm().put(enc);
        self.max_capacity_bps().put(enc);
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let (gamma_min, gamma_max, c_max): (f64, f64, f64) = Persist::get(r)?;
        // CapacityModel::new panics on bad ranges; reject them as
        // corruption instead.
        let finite = gamma_min.is_finite() && gamma_max.is_finite() && c_max.is_finite();
        ensure(
            finite && gamma_min < gamma_max && c_max > 0.0,
            "bad capacity model",
        )?;
        Ok(CapacityModel::new(gamma_min, gamma_max, c_max))
    }
}

persist_struct! {
    /// The [`section::SIM_PARAMS`] record: the scalar fields of a
    /// [`SimConfig`], under their names there.
    struct SimParams, written from SimConfig as put_sim_params {
        environment: Environment,
        policy: PolicySpec,
        alpha: f64,
        device_class: DeviceClass,
        gen_interval: SimDuration,
        queue_capacity: usize,
        duty_cycle: f64,
        max_attempts: u32,
        phy: PhyParams,
        path_loss: LogDistanceModel,
        capacity: CapacityModel,
        horizon: SimDuration,
        series_bucket: SimDuration,
    }
}

persist_struct! {
    /// The [`section::GATEWAYS`] record, likewise.
    struct Gateways, written from SimConfig as put_gateways {
        num_gateways: usize,
        placement: GatewayPlacement,
        gateway_range_m: f64,
    }
}

/// The 24 hourly levels, uncounted.
impl Persist for DiurnalProfile {
    fn put(&self, enc: &mut Enc) {
        for level in self.hourly() {
            level.put(enc);
        }
    }

    fn get<R: Read>(r: &mut ScenarioReader<R>) -> Result<Self, ScenarioIoError> {
        let hourly = (0..24).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
        // `from_hourly` asserts what is checked here. (NaN is in no range.)
        let in_range = hourly.iter().all(|level| (0.0..=1.0).contains(level));
        ensure(in_range, "diurnal level outside [0, 1]")?;
        Ok(DiurnalProfile::from_hourly(hourly))
    }
}

// The `section::NETWORK_CONFIG` record, in wire order: the centre bias
// comes before the profile. `SimConfig::validate` holds it to what the
// generator can build.
persist_struct!(BusNetworkConfig {
    area_side_m: f64,
    num_routes: usize,
    waypoints_per_route: usize,
    min_route_length_m: f64,
    min_speed_mps: f64,
    max_speed_mps: f64,
    max_active_buses: usize,
    min_legs: u32,
    max_legs: u32,
    horizon: SimDuration,
    center_bias: f64,
    profile: DiurnalProfile,
});

/// A prebuilt world is three sections: [`section::WORLD`], one record
/// `(min corner, max corner, horizon)`; [`section::ROUTES`], a `(speed,
/// points)` record per route; and [`section::FLEET`], a `(route,
/// departure, legs, duration)` record per trip. Routes and trips are
/// numbered by their place in the section.
fn write_world<W: Write>(w: &mut ScenarioWriter<W>, world: &BusNetwork) -> std::io::Result<()> {
    let (area, horizon) = (world.area(), world.horizon());
    write_record(w, section::WORLD, |enc| {
        (area.min(), area.max(), horizon).put(enc)
    })?;
    write_each(w, section::ROUTES, world.routes(), |route, enc| {
        route.speed_mps().put(enc);
        put_slice(route.path().points(), enc);
    })?;
    write_each(w, section::FLEET, world.trips(), |trip, enc| {
        let route = trip.route().index();
        (route, trip.depart(), trip.legs(), trip.duration()).put(enc);
    })
}

/// One [`section::ROUTES`] record: route `i`.
fn get_route<R: Read>(r: &mut ScenarioReader<R>, i: usize) -> Result<Route, ScenarioIoError> {
    let (speed, points): (f64, Vec<Point>) = Persist::get(r)?;
    let path = Polyline::new(points).map_err(|_| ScenarioIoError::Corrupt("bad route path"))?;
    // `Route::new` asserts a positive finite speed and a positive length,
    // `Trip::new` a finite one-way time; a positive finite one-way time
    // has all three.
    let secs = path.length() / speed;
    ensure(secs > 0.0 && secs.is_finite(), "bad route speed or length")?;
    Ok(Route::new(RouteId::new(i as u32), path, speed))
}

/// One [`section::FLEET`] record: the trip of node `i`, on one of
/// `routes`. A duration shorter than the schedule is a withdrawal at
/// `departure + duration`, so withdrawn trips roundtrip exactly.
fn get_trip<R: Read>(
    r: &mut ScenarioReader<R>,
    i: usize,
    routes: &[Route],
) -> Result<Trip, ScenarioIoError> {
    let (route, depart, legs, duration): (usize, SimTime, u32, SimDuration) = Persist::get(r)?;
    let route = routes
        .get(route)
        .ok_or(ScenarioIoError::Corrupt("trip names a missing route"))?;
    ensure(legs > 0, "trip without legs")?;
    let mut trip = Trip::new(NodeId::new(i as u32), route, depart, legs);
    ensure(duration <= trip.duration(), "trip outlasts its schedule")?;
    if duration < trip.duration() {
        trip.withdraw(depart + duration);
    }
    Ok(trip)
}

/// The world a file's WORLD, ROUTES and FLEET sections describe, if it
/// has any of them. [`get_trip`] resolves every route a trip names, so
/// what [`BusNetwork::from_parts`] can still refuse is an empty route
/// set, trips out of departure order, or ids a section of more than
/// 2³² records wrapped.
fn world_from(
    header: Option<(Point, Point, SimDuration)>,
    routes: Option<Vec<Route>>,
    trips: Option<Vec<Trip>>,
) -> Result<Option<BusNetwork>, ScenarioIoError> {
    if header.is_none() && routes.is_none() && trips.is_none() {
        return Ok(None);
    }
    let (min, max, horizon) = header.ok_or(ScenarioIoError::MissingSection("world header"))?;
    // What `BBox::new` asserts.
    let finite = min.is_finite() && max.is_finite();
    ensure(finite && min.x <= max.x && min.y <= max.y, "bad world box")?;
    let (routes, trips) = (routes.unwrap_or_default(), trips.unwrap_or_default());
    let world = BusNetwork::from_parts(routes, trips, BBox::new(min, max), horizon);
    world.map(Some).map_err(|e| {
        ScenarioIoError::Corrupt(match e {
            NetworkError::NoRoutes => "world without routes",
            NetworkError::UnsortedTrips { .. } => "trips out of departure order",
            _ => "world ids out of place",
        })
    })
}

persist_enum!(ArrivalProcess, "bad arrival process tag" {
    ArrivalProcess::Periodic { interval } => 0,
    ArrivalProcess::Jittered { interval, jitter } => 1,
    ArrivalProcess::Poisson { mean_interval } => 2,
    ArrivalProcess::Diurnal { base_interval, profile } => 3,
    ArrivalProcess::Bursty { interval, mean_burst, mean_idle } => 4,
});
persist_enum!(PayloadModel, "bad payload model tag" {
    PayloadModel::Fixed { bytes } => 0,
    PayloadModel::Uniform { min_bytes, max_bytes } => 1,
});
persist_struct!(TrafficProfile {
    name: String,
    arrivals: ArrivalProcess,
    payload: PayloadModel,
    priority: Priority,
    weight: f64,
});
persist_struct!(GatewayOutage {
    gateway: usize,
    start: SimTime,
    duration: Option<SimDuration>,
});
persist_struct!(BusWithdrawal {
    at: SimTime,
    fraction: f64,
});
persist_struct!(NoiseBurst {
    center: Point,
    radius_m: f64,
    start: SimTime,
    duration: Option<SimDuration>,
    extra_loss_db: f64,
});

/// The disruption plan is one section of tagged records: outages (0),
/// withdrawals (1), noise bursts (2).
fn write_disruptions<W: Write>(
    w: &mut ScenarioWriter<W>,
    plan: &DisruptionPlan,
) -> std::io::Result<()> {
    fn tagged<W: Write>(
        w: &mut ScenarioWriter<W>,
        tag: u8,
        record: &impl Persist,
    ) -> std::io::Result<()> {
        tag.put(w.enc());
        record.put(w.enc());
        w.end_record()
    }
    let (outages, withdrawals, bursts) = (&plan.outages, &plan.withdrawals, &plan.noise_bursts);
    let records = outages.len() + withdrawals.len() + bursts.len();
    w.begin_section(section::DISRUPTIONS, records as u64)?;
    outages.iter().try_for_each(|o| tagged(w, 0, o))?;
    withdrawals.iter().try_for_each(|b| tagged(w, 1, b))?;
    bursts.iter().try_for_each(|n| tagged(w, 2, n))?;
    w.end_section()
}

fn read_disruptions<R: Read>(
    r: &mut ScenarioReader<R>,
    count: u64,
) -> Result<DisruptionPlan, ScenarioIoError> {
    let mut plan = DisruptionPlan::default();
    for _ in 0..count {
        r.begin_record()?;
        match r.u8()? {
            0 => plan.outages.push(Persist::get(r)?),
            1 => plan.withdrawals.push(Persist::get(r)?),
            2 => plan.noise_bursts.push(Persist::get(r)?),
            _ => return Err(ScenarioIoError::Corrupt("bad disruption tag")),
        }
    }
    Ok(plan)
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;
    use mlora_scenario_io::MAGIC;

    fn rich_config() -> SimConfig {
        Scenario::urban()
            .smoke()
            .scheme(Scheme::Robc)
            .gateways(12)
            .placement(GatewayPlacement::Random)
            .profile(TrafficProfile::telemetry())
            .profile(TrafficProfile::tracking())
            .profile(TrafficProfile::passenger_counts())
            .profile(TrafficProfile::alerts())
            .gateway_outage(2, SimDuration::from_mins(10), SimDuration::from_mins(20))
            .gateway_outage_to_horizon(3, SimDuration::from_mins(40))
            .withdraw_buses(SimDuration::from_mins(30), 0.2)
            .noise_burst(
                Point::new(4_000.0, 4_000.0),
                2_000.0,
                SimDuration::from_mins(15),
                SimDuration::from_mins(30),
                9.0,
            )
            .build()
            .expect("valid scenario")
    }

    fn roundtrip(cfg: &SimConfig) -> SimConfig {
        let mut bytes = Vec::new();
        cfg.to_writer(&mut bytes).expect("serialize");
        SimConfig::from_reader(&bytes[..]).expect("deserialize")
    }

    #[test]
    fn rich_config_roundtrips_exactly() {
        let cfg = rich_config();
        assert_eq!(roundtrip(&cfg), cfg);
    }

    #[test]
    fn loaded_config_runs_bit_identically() {
        let cfg = rich_config();
        let loaded = roundtrip(&cfg);
        assert_eq!(loaded.run(2020).unwrap(), cfg.run(2020).unwrap());
    }

    #[test]
    fn prebuilt_world_roundtrips_and_runs() {
        let cfg = Scenario::urban()
            .smoke()
            .scheme(Scheme::RcaEtx)
            .metro(
                &mlora_mobility::MetroConfig {
                    num_radials: 8,
                    num_rings: 4,
                    peak_active_buses: 60,
                    area_side_m: 10_000.0,
                    horizon: SimDuration::from_hours(2),
                    ..mlora_mobility::MetroConfig::default()
                },
                77,
            )
            .build()
            .expect("valid metro scenario");
        assert!(cfg.world.is_some());
        let loaded = roundtrip(&cfg);
        assert_eq!(loaded, cfg);
        assert_eq!(loaded.run(5).unwrap(), cfg.run(5).unwrap());
    }

    /// `tests/fixtures/metro_world.mlsc`: the smoke preset on a small
    /// prebuilt metro world (6 km square, four radials, two rings, 30
    /// buses, one hour), world seed 5. Written by the last build that
    /// encoded the world records outside this module.
    const METRO_WORLD: &[u8] = include_bytes!("../../../tests/fixtures/metro_world.mlsc");

    #[test]
    fn metro_world_fixture_rewrites_byte_for_byte() {
        let cfg = SimConfig::from_reader(METRO_WORLD).unwrap();
        let world = cfg.world.as_deref().expect("a prebuilt world");
        assert_eq!(world.routes().len(), 6);
        let mut again = Vec::new();
        cfg.to_writer(&mut again).unwrap();
        assert!(again == METRO_WORLD, "scenario bytes changed");
        assert!(cfg.run(5).unwrap().generated > 0);
    }

    #[test]
    fn rewrite_is_byte_identical() {
        let cfg = rich_config();
        let mut bytes = Vec::new();
        cfg.to_writer(&mut bytes).unwrap();
        let mut again = Vec::new();
        SimConfig::from_reader(&bytes[..])
            .unwrap()
            .to_writer(&mut again)
            .unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn policies_are_rejected() {
        let cfg = Scenario::urban()
            .smoke()
            .scheme(PolicySpec::of(mlora_core::RobcPolicy))
            .build()
            .unwrap();
        let mut bytes = Vec::new();
        assert!(matches!(
            cfg.to_writer(&mut bytes),
            Err(ScenarioFileError::UnsupportedPolicy)
        ));
    }

    #[test]
    fn missing_sections_are_reported() {
        // A file with only a network config lacks params and gateways.
        let cfg = rich_config();
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        write_record(&mut w, section::NETWORK_CONFIG, |enc| cfg.network.put(enc)).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            SimConfig::from_reader(&bytes[..]),
            Err(ScenarioFileError::Io(ScenarioIoError::MissingSection(_)))
        ));
    }

    #[test]
    fn inflated_traffic_count_is_corrupt_not_an_abort() {
        let mut bytes = Vec::new();
        rich_config().to_writer(&mut bytes).unwrap();
        // Section headers are framing metadata outside the checksummed
        // blocks: every checksum of the result still holds.
        let hostile = crate::framing::splice(&bytes, MAGIC, section::TRAFFIC, |s| {
            s.count = 1 << 60;
        });
        assert!(matches!(
            SimConfig::from_reader(&hostile[..]),
            Err(ScenarioFileError::Io(ScenarioIoError::Corrupt(
                "section ended before its records"
            )))
        ));
    }

    /// A well-formed file, every checksum valid, whose channel model
    /// holds a NaN: it used to load, validate, and panic the first
    /// reception of the run.
    #[test]
    fn nan_channel_model_is_a_typed_error_at_load() {
        let mut cfg = rich_config();
        cfg.path_loss.pl0_db = f64::NAN;
        // The section writers, without `to_writer`'s own validation.
        let mut w = ScenarioWriter::new(Vec::new()).unwrap();
        write_record(&mut w, section::NETWORK_CONFIG, |enc| cfg.network.put(enc)).unwrap();
        write_record(&mut w, section::SIM_PARAMS, |enc| cfg.put_sim_params(enc)).unwrap();
        write_record(&mut w, section::GATEWAYS, |enc| cfg.put_gateways(enc)).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            SimConfig::from_reader(&bytes[..]),
            Err(ScenarioFileError::Config(ConfigError::NotFinite {
                field: "path_loss.pl0_db",
                ..
            }))
        ));
    }

    #[test]
    fn file_roundtrip_via_scenario_front_door() {
        let dir = std::env::temp_dir().join("mlora-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.mlsc");
        let cfg = rich_config();
        cfg.to_file(&path).unwrap();
        let report = Scenario::from_file(&path).unwrap().run(7).unwrap();
        assert_eq!(report, cfg.run(7).unwrap());
        std::fs::remove_file(&path).ok();
    }
}
