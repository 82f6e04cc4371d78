//! Scenario files: saving and loading full simulation setups.
//!
//! Layers the simulation-level sections (parameters, gateways, traffic,
//! disruptions) on top of the `mlora-scenario-io` container and its
//! world sections, giving [`SimConfig`] a complete on-disk form:
//!
//! * [`SimConfig::to_file`] / [`SimConfig::to_writer`] — stream a
//!   configuration (and its prebuilt world, when one is attached) into
//!   the versioned `.mlsc` binary format, record by record, without
//!   re-buffering the network.
//! * [`SimConfig::from_file`] / [`SimConfig::from_reader`] — the
//!   inverse; a loaded configuration runs bit-identically to the
//!   in-memory original.
//!
//! Explicit [`ForwardingPolicy`](mlora_core::ForwardingPolicy) plug-ins
//! are live code and cannot be serialized; saving a config with one
//! returns [`ScenarioFileError::UnsupportedPolicy`].

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use mlora_core::Scheme;
use mlora_geo::Point;
use mlora_mac::Priority;
use mlora_mobility::DiurnalProfile;
use mlora_phy::{
    Bandwidth, CapacityModel, CodingRate, LogDistanceModel, PhyParams, SpreadingFactor,
};
use mlora_scenario_io::{
    read_network_config, section, write_network_config, write_world, ScenarioIoError,
    ScenarioReader, ScenarioWriter, WorldAssembler,
};
use mlora_simcore::{SimDuration, SimTime};

use crate::disruption::{BusWithdrawal, GatewayOutage, NoiseBurst};
use crate::traffic::{ArrivalProcess, PayloadModel, TrafficProfile};
use crate::{
    ConfigError, DeviceClassChoice, DisruptionPlan, Environment, GatewayPlacement, Scenario,
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
    /// [`ScenarioFileError::UnsupportedPolicy`] when an explicit policy
    /// is plugged in, [`ScenarioFileError::Config`] when the
    /// configuration is invalid, IO errors otherwise.
    pub fn to_writer<W: Write>(&self, out: W) -> Result<(), ScenarioFileError> {
        if self.policy.is_some() {
            return Err(ScenarioFileError::UnsupportedPolicy);
        }
        self.validate()?;
        let mut w = ScenarioWriter::new(out)?;
        write_network_config(&mut w, &self.network)?;
        write_sim_params(&mut w, self)?;
        write_gateways(&mut w, self)?;
        if !self.traffic.profiles.is_empty() {
            write_traffic(&mut w, &self.traffic)?;
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
        let mut assembler = WorldAssembler::new();
        while let Some((id, count)) = r.next_section()? {
            match id {
                section::NETWORK_CONFIG => network = Some(read_network_config(&mut r)?),
                section::SIM_PARAMS => params = Some(read_sim_params(&mut r)?),
                section::GATEWAYS => gateways = Some(read_gateways(&mut r)?),
                section::TRAFFIC => traffic = read_traffic(&mut r, count)?,
                section::DISRUPTIONS => disruptions = read_disruptions(&mut r, count)?,
                section::WORLD => assembler.read_world_header(&mut r)?,
                section::ROUTES => assembler.read_routes(&mut r, count)?,
                section::FLEET => assembler.read_fleet(&mut r, count)?,
                _ => r.skip_section()?,
            }
        }
        let network = network.ok_or(ScenarioIoError::MissingSection("network config"))?;
        let params = params.ok_or(ScenarioIoError::MissingSection("simulation parameters"))?;
        let gateways = gateways.ok_or(ScenarioIoError::MissingSection("gateways"))?;
        let world = if assembler.started() {
            Some(Arc::new(assembler.finish()?))
        } else {
            None
        };
        let cfg = SimConfig {
            network,
            world,
            num_gateways: gateways.count,
            placement: gateways.placement,
            gateway_range_m: gateways.range_m,
            environment: params.environment,
            scheme: params.scheme,
            policy: None,
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
            // A host-execution knob, not scenario content: files carry
            // no shard count, and loaded configs default to serial.
            shards: 1,
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
// SIM_PARAMS
// ---------------------------------------------------------------------

/// Decoded [`section::SIM_PARAMS`] record.
struct SimParams {
    environment: Environment,
    scheme: Scheme,
    alpha: f64,
    device_class: DeviceClassChoice,
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

fn write_sim_params<W: Write>(w: &mut ScenarioWriter<W>, cfg: &SimConfig) -> std::io::Result<()> {
    w.begin_section(section::SIM_PARAMS, 1)?;
    let enc = w.enc();
    enc.put_u8(match cfg.environment {
        Environment::Urban => 0,
        Environment::Rural => 1,
    });
    enc.put_u8(match cfg.scheme {
        Scheme::NoRouting => 0,
        Scheme::RcaEtx => 1,
        Scheme::Robc => 2,
        Scheme::CaEtx => 3,
    });
    enc.put_f64(cfg.alpha);
    enc.put_u8(match cfg.device_class {
        DeviceClassChoice::ModifiedClassC => 0,
        DeviceClassChoice::QueueBasedClassA => 1,
    });
    enc.put_varint(cfg.gen_interval.as_millis());
    enc.put_varint(cfg.queue_capacity as u64);
    enc.put_f64(cfg.duty_cycle);
    enc.put_varint(u64::from(cfg.max_attempts));
    enc.put_u8(cfg.phy.sf.value() as u8);
    enc.put_u8(match cfg.phy.bandwidth {
        Bandwidth::Khz125 => 0,
        Bandwidth::Khz250 => 1,
        Bandwidth::Khz500 => 2,
    });
    enc.put_u8(match cfg.phy.coding_rate {
        CodingRate::Cr4of5 => 0,
        CodingRate::Cr4of6 => 1,
        CodingRate::Cr4of7 => 2,
        CodingRate::Cr4of8 => 3,
    });
    enc.put_varint(u64::from(cfg.phy.preamble_symbols));
    enc.put_bool(cfg.phy.explicit_header);
    enc.put_bool(cfg.phy.crc);
    enc.put_f64(cfg.phy.tx_power_dbm);
    enc.put_f64(cfg.path_loss.pl0_db);
    enc.put_f64(cfg.path_loss.d0_m);
    enc.put_f64(cfg.path_loss.exponent);
    enc.put_f64(cfg.path_loss.shadowing_sigma_db);
    enc.put_f64(cfg.capacity.gamma_min_dbm());
    enc.put_f64(cfg.capacity.gamma_max_dbm());
    enc.put_f64(cfg.capacity.max_capacity_bps());
    enc.put_varint(cfg.horizon.as_millis());
    enc.put_varint(cfg.series_bucket.as_millis());
    w.end_record()?;
    w.end_section()
}

fn read_sim_params<R: Read>(r: &mut ScenarioReader<R>) -> Result<SimParams, ScenarioIoError> {
    r.begin_record()?;
    let environment = match r.u8()? {
        0 => Environment::Urban,
        1 => Environment::Rural,
        _ => return Err(ScenarioIoError::Corrupt("bad environment tag")),
    };
    let scheme = match r.u8()? {
        0 => Scheme::NoRouting,
        1 => Scheme::RcaEtx,
        2 => Scheme::Robc,
        3 => Scheme::CaEtx,
        _ => return Err(ScenarioIoError::Corrupt("bad scheme tag")),
    };
    let alpha = r.f64()?;
    let device_class = match r.u8()? {
        0 => DeviceClassChoice::ModifiedClassC,
        1 => DeviceClassChoice::QueueBasedClassA,
        _ => return Err(ScenarioIoError::Corrupt("bad device class tag")),
    };
    let gen_interval = SimDuration::from_millis(r.varint()?);
    let queue_capacity = r.varint()? as usize;
    let duty_cycle = r.f64()?;
    let max_attempts = u32::try_from(r.varint()?)
        .map_err(|_| ScenarioIoError::Corrupt("max attempts out of range"))?;
    let sf = match r.u8()? {
        7 => SpreadingFactor::Sf7,
        8 => SpreadingFactor::Sf8,
        9 => SpreadingFactor::Sf9,
        10 => SpreadingFactor::Sf10,
        11 => SpreadingFactor::Sf11,
        12 => SpreadingFactor::Sf12,
        _ => return Err(ScenarioIoError::Corrupt("bad spreading factor")),
    };
    let bandwidth = match r.u8()? {
        0 => Bandwidth::Khz125,
        1 => Bandwidth::Khz250,
        2 => Bandwidth::Khz500,
        _ => return Err(ScenarioIoError::Corrupt("bad bandwidth tag")),
    };
    let coding_rate = match r.u8()? {
        0 => CodingRate::Cr4of5,
        1 => CodingRate::Cr4of6,
        2 => CodingRate::Cr4of7,
        3 => CodingRate::Cr4of8,
        _ => return Err(ScenarioIoError::Corrupt("bad coding rate tag")),
    };
    let preamble_symbols = u32::try_from(r.varint()?)
        .map_err(|_| ScenarioIoError::Corrupt("preamble length out of range"))?;
    let explicit_header = r.bool()?;
    let crc = r.bool()?;
    let tx_power_dbm = r.f64()?;
    let path_loss = LogDistanceModel {
        pl0_db: r.f64()?,
        d0_m: r.f64()?,
        exponent: r.f64()?,
        shadowing_sigma_db: r.f64()?,
    };
    let gamma_min = r.f64()?;
    let gamma_max = r.f64()?;
    let c_max = r.f64()?;
    // CapacityModel::new panics on bad ranges; reject them as corruption
    // instead.
    if !(gamma_min.is_finite() && gamma_max.is_finite() && c_max.is_finite())
        || gamma_min >= gamma_max
        || c_max <= 0.0
    {
        return Err(ScenarioIoError::Corrupt("bad capacity model"));
    }
    let capacity = CapacityModel::new(gamma_min, gamma_max, c_max);
    let horizon = SimDuration::from_millis(r.varint()?);
    let series_bucket = SimDuration::from_millis(r.varint()?);
    Ok(SimParams {
        environment,
        scheme,
        alpha,
        device_class,
        gen_interval,
        queue_capacity,
        duty_cycle,
        max_attempts,
        phy: PhyParams {
            sf,
            bandwidth,
            coding_rate,
            preamble_symbols,
            explicit_header,
            crc,
            tx_power_dbm,
        },
        path_loss,
        capacity,
        horizon,
        series_bucket,
    })
}

// ---------------------------------------------------------------------
// GATEWAYS
// ---------------------------------------------------------------------

/// Decoded [`section::GATEWAYS`] record.
struct Gateways {
    count: usize,
    placement: GatewayPlacement,
    range_m: f64,
}

fn write_gateways<W: Write>(w: &mut ScenarioWriter<W>, cfg: &SimConfig) -> std::io::Result<()> {
    w.begin_section(section::GATEWAYS, 1)?;
    let enc = w.enc();
    enc.put_varint(cfg.num_gateways as u64);
    enc.put_u8(match cfg.placement {
        GatewayPlacement::Grid => 0,
        GatewayPlacement::Random => 1,
    });
    enc.put_f64(cfg.gateway_range_m);
    w.end_record()?;
    w.end_section()
}

fn read_gateways<R: Read>(r: &mut ScenarioReader<R>) -> Result<Gateways, ScenarioIoError> {
    r.begin_record()?;
    let count = r.varint()? as usize;
    let placement = match r.u8()? {
        0 => GatewayPlacement::Grid,
        1 => GatewayPlacement::Random,
        _ => return Err(ScenarioIoError::Corrupt("bad placement tag")),
    };
    let range_m = r.f64()?;
    Ok(Gateways {
        count,
        placement,
        range_m,
    })
}

// ---------------------------------------------------------------------
// TRAFFIC
// ---------------------------------------------------------------------

fn write_traffic<W: Write>(w: &mut ScenarioWriter<W>, model: &TrafficModel) -> std::io::Result<()> {
    w.begin_section(section::TRAFFIC, model.profiles.len() as u64)?;
    for profile in &model.profiles {
        let enc = w.enc();
        enc.put_str(&profile.name);
        match &profile.arrivals {
            ArrivalProcess::Periodic { interval } => {
                enc.put_u8(0);
                enc.put_varint(interval.as_millis());
            }
            ArrivalProcess::Jittered { interval, jitter } => {
                enc.put_u8(1);
                enc.put_varint(interval.as_millis());
                enc.put_f64(*jitter);
            }
            ArrivalProcess::Poisson { mean_interval } => {
                enc.put_u8(2);
                enc.put_varint(mean_interval.as_millis());
            }
            ArrivalProcess::Diurnal {
                base_interval,
                profile: curve,
            } => {
                enc.put_u8(3);
                enc.put_varint(base_interval.as_millis());
                for &level in curve.hourly() {
                    enc.put_f64(level);
                }
            }
            ArrivalProcess::Bursty {
                interval,
                mean_burst,
                mean_idle,
            } => {
                enc.put_u8(4);
                enc.put_varint(interval.as_millis());
                enc.put_f64(*mean_burst);
                enc.put_varint(mean_idle.as_millis());
            }
        }
        match &profile.payload {
            PayloadModel::Fixed { bytes } => {
                enc.put_u8(0);
                enc.put_varint(*bytes as u64);
            }
            PayloadModel::Uniform {
                min_bytes,
                max_bytes,
            } => {
                enc.put_u8(1);
                enc.put_varint(*min_bytes as u64);
                enc.put_varint(*max_bytes as u64);
            }
        }
        enc.put_u8(match profile.priority {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        });
        enc.put_f64(profile.weight);
        w.end_record()?;
    }
    w.end_section()
}

fn read_traffic<R: Read>(
    r: &mut ScenarioReader<R>,
    count: u64,
) -> Result<TrafficModel, ScenarioIoError> {
    let mut profiles = Vec::with_capacity((count as usize).min(1 << 16));
    for _ in 0..count {
        r.begin_record()?;
        let name = r.string()?;
        let arrivals = match r.u8()? {
            0 => ArrivalProcess::Periodic {
                interval: SimDuration::from_millis(r.varint()?),
            },
            1 => ArrivalProcess::Jittered {
                interval: SimDuration::from_millis(r.varint()?),
                jitter: r.f64()?,
            },
            2 => ArrivalProcess::Poisson {
                mean_interval: SimDuration::from_millis(r.varint()?),
            },
            3 => {
                let base_interval = SimDuration::from_millis(r.varint()?);
                let mut hourly = Vec::with_capacity(24);
                for _ in 0..24 {
                    let level = r.f64()?;
                    if !level.is_finite() || !(0.0..=1.0).contains(&level) {
                        return Err(ScenarioIoError::Corrupt("diurnal level outside [0, 1]"));
                    }
                    hourly.push(level);
                }
                ArrivalProcess::Diurnal {
                    base_interval,
                    profile: DiurnalProfile::from_hourly(hourly),
                }
            }
            4 => ArrivalProcess::Bursty {
                interval: SimDuration::from_millis(r.varint()?),
                mean_burst: r.f64()?,
                mean_idle: SimDuration::from_millis(r.varint()?),
            },
            _ => return Err(ScenarioIoError::Corrupt("bad arrival process tag")),
        };
        let payload = match r.u8()? {
            0 => PayloadModel::Fixed {
                bytes: r.varint()? as usize,
            },
            1 => PayloadModel::Uniform {
                min_bytes: r.varint()? as usize,
                max_bytes: r.varint()? as usize,
            },
            _ => return Err(ScenarioIoError::Corrupt("bad payload model tag")),
        };
        let priority = match r.u8()? {
            0 => Priority::Low,
            1 => Priority::Normal,
            2 => Priority::High,
            _ => return Err(ScenarioIoError::Corrupt("bad priority tag")),
        };
        let weight = r.f64()?;
        profiles.push(TrafficProfile {
            name,
            arrivals,
            payload,
            priority,
            weight,
        });
    }
    Ok(TrafficModel { profiles })
}

// ---------------------------------------------------------------------
// DISRUPTIONS
// ---------------------------------------------------------------------

fn write_disruptions<W: Write>(
    w: &mut ScenarioWriter<W>,
    plan: &DisruptionPlan,
) -> std::io::Result<()> {
    let records = plan.outages.len() + plan.withdrawals.len() + plan.noise_bursts.len();
    w.begin_section(section::DISRUPTIONS, records as u64)?;
    for outage in &plan.outages {
        let enc = w.enc();
        enc.put_u8(0);
        enc.put_varint(outage.gateway as u64);
        enc.put_varint(outage.start.as_millis());
        put_opt_duration(enc, outage.duration);
        w.end_record()?;
    }
    for withdrawal in &plan.withdrawals {
        let enc = w.enc();
        enc.put_u8(1);
        enc.put_varint(withdrawal.at.as_millis());
        enc.put_f64(withdrawal.fraction);
        w.end_record()?;
    }
    for burst in &plan.noise_bursts {
        let enc = w.enc();
        enc.put_u8(2);
        enc.put_f64(burst.center.x);
        enc.put_f64(burst.center.y);
        enc.put_f64(burst.radius_m);
        enc.put_varint(burst.start.as_millis());
        put_opt_duration(enc, burst.duration);
        enc.put_f64(burst.extra_loss_db);
        w.end_record()?;
    }
    w.end_section()
}

fn put_opt_duration(enc: &mut mlora_scenario_io::Enc, duration: Option<SimDuration>) {
    match duration {
        Some(d) => {
            enc.put_bool(true);
            enc.put_varint(d.as_millis());
        }
        None => enc.put_bool(false),
    }
}

fn read_opt_duration<R: Read>(
    r: &mut ScenarioReader<R>,
) -> Result<Option<SimDuration>, ScenarioIoError> {
    if r.bool()? {
        Ok(Some(SimDuration::from_millis(r.varint()?)))
    } else {
        Ok(None)
    }
}

fn read_disruptions<R: Read>(
    r: &mut ScenarioReader<R>,
    count: u64,
) -> Result<DisruptionPlan, ScenarioIoError> {
    let mut plan = DisruptionPlan::default();
    for _ in 0..count {
        r.begin_record()?;
        match r.u8()? {
            0 => plan.outages.push(GatewayOutage {
                gateway: r.varint()? as usize,
                start: SimTime::from_millis(r.varint()?),
                duration: read_opt_duration(r)?,
            }),
            1 => plan.withdrawals.push(BusWithdrawal {
                at: SimTime::from_millis(r.varint()?),
                fraction: r.f64()?,
            }),
            2 => plan.noise_bursts.push(NoiseBurst {
                center: Point::new(r.f64()?, r.f64()?),
                radius_m: r.f64()?,
                start: SimTime::from_millis(r.varint()?),
                duration: read_opt_duration(r)?,
                extra_loss_db: r.f64()?,
            }),
            _ => return Err(ScenarioIoError::Corrupt("bad disruption tag")),
        }
    }
    Ok(plan)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mlora_scenario_io::{Enc, MAGIC};

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
            .policy(Box::new(mlora_core::RobcPolicy))
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
        write_network_config(&mut w, &cfg.network).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            SimConfig::from_reader(&bytes[..]),
            Err(ScenarioFileError::Io(ScenarioIoError::MissingSection(_)))
        ));
    }

    /// `bytes` with the record count in section `id`'s header raised to
    /// 2^60. Section headers are framing metadata outside the
    /// checksummed blocks, so every checksum of the result still holds.
    pub(crate) fn with_inflated_section(bytes: &[u8], magic: [u8; 4], id: u8) -> Vec<u8> {
        let mut cursor = std::io::Cursor::new(bytes);
        let mut r = ScenarioReader::with_magic(&mut cursor, magic).unwrap();
        let mut old = Enc::default();
        loop {
            let (section, records) = r.next_section().unwrap().expect("section present");
            if section == id {
                old.put_varint(records);
                break;
            }
            r.skip_section().unwrap();
        }
        // The reader has consumed the header up to the end of its count.
        let end = cursor.position() as usize;
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];
        [&bytes[..end - old.len()], &huge, &bytes[end..]].concat()
    }

    #[test]
    fn inflated_traffic_count_is_corrupt_not_an_abort() {
        let mut bytes = Vec::new();
        rich_config().to_writer(&mut bytes).unwrap();
        let hostile = with_inflated_section(&bytes, MAGIC, section::TRAFFIC);
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
        write_network_config(&mut w, &cfg.network).unwrap();
        write_sim_params(&mut w, &cfg).unwrap();
        write_gateways(&mut w, &cfg).unwrap();
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
