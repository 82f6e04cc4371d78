//! The four workloads: what each simulates and how its inputs are made
//! from the seed. Shapes are re-declared here rather than imported from
//! `mlora-bench`, which later changes remain free to edit.

use std::sync::Arc;
use std::time::Duration;

use mlora_geo::Point;
use mlora_mobility::{BusNetwork, BusNetworkConfig, DiurnalProfile};
use mlora_sim::prelude::*;
use mlora_simcore::{SimDuration, SimRng, SimTime};

use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UrbanRobc,
    UrbanLorawan,
    Metro20k,
    WhatifRural,
}

/// The seed both worlds are generated from. The city is part of the
/// workload, as London is in the paper: route layout alone moved the
/// cost of a run by a fifth from one seed to the next, which no bound
/// survives. `--seed` drives everything that happens in the city:
/// gateway placement, traffic, the channel, policy draws, disruptions.
const WORLD_SEED: u64 = 2020;
/// Fleet of the paper network (peak simultaneously active buses).
const PAPER_FLEET: usize = 2_000;
/// Fleet of the metro world.
const METRO_FLEET: usize = 20_000;
/// Timetable of the metro world. Far longer than the span a repetition
/// runs, so trips ≫ active buses and set-up, checkpoint, resume and
/// memory are paid at day scale. Six hours is the longest timetable
/// whose resume time repeats on the reference box: at eight hours the
/// same input resumed in 0.24–1.7 s, at twelve in 14.6 s.
const METRO_TIMETABLE: SimDuration = SimDuration::from_hours(6);

/// Simulated minutes after which `whatif_rural` forks its trunk.
pub const WHATIF_FORK_MINUTES: [u64; 2] = [96, 108];
/// Branches per fork: control, 5 gateways down, 15 gateways down, a
/// 20 % withdrawal.
pub const WHATIF_BRANCHES: usize = 4;
/// Overlay events fire this long after the fork instant (they must lie
/// strictly after the snapshot).
const OVERLAY_DELAY: SimDuration = SimDuration::from_mins(1);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UrbanRobc,
        Workload::UrbanLorawan,
        Workload::Metro20k,
        Workload::WhatifRural,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UrbanRobc => "urban_robc",
            Workload::UrbanLorawan => "urban_lorawan",
            Workload::Metro20k => "metro_20k",
            Workload::WhatifRural => "whatif_rural",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (mirrored in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::UrbanRobc => {
                "paper network under ROBC, the headline scheme: a quarter of frames are \
                 handovers, so policy decisions, handover acceptance and queue transfers work hardest"
            }
            Workload::UrbanLorawan => {
                "same network and seed with no forwarding: zero handovers, cheapest events; \
                 the bypass workload for any forwarding or policy change (prediction: no movement)"
            }
            Workload::Metro20k => {
                "ten times the fleet at 15x the density on a day-scale timetable read from a \
                 scenario file: flight-overlap scan, capture, set-up, resume and memory dominate"
            }
            Workload::WhatifRural => {
                "minute-by-minute stepping with a checkpoint each minute and what-if forks, under \
                 RCA-ETX, mixed traffic, disruptions and rural range: persistence beside running"
            }
        }
    }

    /// Simulated span one repetition runs.
    pub fn run_span(self) -> SimDuration {
        match self {
            Workload::UrbanRobc => SimDuration::from_hours(3),
            Workload::UrbanLorawan => SimDuration::from_hours(4),
            Workload::Metro20k => SimDuration::from_mins(10),
            Workload::WhatifRural => SimDuration::from_hours(2),
        }
    }

    /// Simulated time one `run_until` call advances. A slice is the unit
    /// the host's speed is probed around and whose median over the
    /// repetitions is kept, so it has to be short beside the host's
    /// changes of speed: 10–25 ms of host time on every workload.
    pub fn slice(self) -> SimDuration {
        match self {
            Workload::Metro20k => SimDuration::from_secs(10),
            _ => SimDuration::from_mins(1),
        }
    }

    /// Whether a repetition runs to the configured horizon and so ends
    /// in a `SimReport`. `metro_20k` stops ten minutes into a six-hour
    /// day: its repetitions are compared by final checkpoint bytes, and
    /// its counters come from [`Workload::reference_config`].
    pub fn reaches_horizon(self) -> bool {
        self != Workload::Metro20k
    }

    pub fn fleet(self) -> usize {
        match self {
            Workload::Metro20k => METRO_FLEET,
            _ => PAPER_FLEET,
        }
    }

    /// Builds the workload's configuration from `seed`, timing each
    /// step that calls into the program.
    pub fn config(self, seed: u64, tracer: &mut Tracer) -> Result<Built, String> {
        let paper = |env, scheme| paper_network(env, scheme, self.run_span());
        match self {
            Workload::UrbanRobc => paper_config(paper(Environment::Urban, Scheme::Robc), tracer),
            Workload::UrbanLorawan => {
                paper_config(paper(Environment::Urban, Scheme::NoRouting), tracer)
            }
            Workload::WhatifRural => paper_config(
                paper(Environment::Rural, Scheme::RcaEtx)
                    .traffic(TrafficModel::mix([
                        TrafficProfile::tracking(),
                        TrafficProfile::alerts(),
                        TrafficProfile::paper(SimDuration::from_mins(3)),
                    ]))
                    .tweak(|c| c.disruptions = whatif_base_plan(seed, c.network.area_side_m)),
                tracer,
            ),
            Workload::Metro20k => metro_config(METRO_TIMETABLE, tracer),
        }
    }

    /// `metro_20k` only: the same world with the horizon cut to the run
    /// span, so that a run can be finished into a `SimReport`. What is
    /// transmitted in the first ten minutes is the same either way:
    /// trips departing later fire nothing before then, and the cut only
    /// adds the fleet's retirement at the horizon.
    pub fn reference_config(self, seed: u64) -> Result<SimConfig, String> {
        let mut cfg = self.config(seed, &mut Tracer::new(false))?.cfg;
        cfg.horizon = self.run_span();
        Ok(cfg)
    }
}

/// A built configuration and what building it cost.
pub struct Built {
    pub cfg: SimConfig,
    /// World generation.
    pub worldgen: Duration,
    /// Scenario-file round trip, where the workload makes one.
    pub file: Option<ScenarioFile>,
}

pub struct ScenarioFile {
    pub write: Duration,
    pub read: Duration,
    pub bytes: usize,
}

/// The shape `engine_events` uses for its 2 000-bus tier: the paper's
/// 600 km², 80 routes, 60 gateways, the whole fleet in service all day
/// (flat profile, so load does not depend on time of day) and a
/// timetable exactly as long as the run.
fn paper_network(env: Environment, scheme: Scheme, horizon: SimDuration) -> ScenarioBuilder {
    Scenario::custom(env)
        .scheme(scheme)
        .bench()
        .buses(PAPER_FLEET)
        .duration(horizon)
        .tweak(|c| c.network.profile = DiurnalProfile::flat(1.0))
}

/// Builds `scenario` with its network generated here from
/// [`WORLD_SEED`], the way `Engine::new` would generate it from the
/// engine seed were the world left out.
fn paper_config(scenario: ScenarioBuilder, tracer: &mut Tracer) -> Result<Built, String> {
    let (cfg, worldgen) = tracer.timed("setup.worldgen", |_| {
        scenario
            .tweak(|c| {
                let timetable = BusNetworkConfig {
                    horizon: c.horizon,
                    ..c.network.clone()
                };
                c.world = Some(Arc::new(BusNetwork::generate(&timetable, WORLD_SEED)));
            })
            .build()
    });
    Ok(Built {
        cfg: cfg.map_err(|e| e.to_string())?,
        worldgen,
        file: None,
    })
}

/// `metro_throughput_config`'s world at 20 000 buses (20 km × 20 km, 48
/// radials, 24 rings, brisk single-leg lines) on a `timetable`-long
/// service day, generated, written to a `.mlsc` buffer and streamed
/// back, running ROBC urban.
fn metro_config(timetable: SimDuration, tracer: &mut Tracer) -> Result<Built, String> {
    let metro = MetroConfig {
        area_side_m: 20_000.0,
        num_radials: 48,
        num_rings: 24,
        min_speed_mps: 8.0,
        max_speed_mps: 12.0,
        peak_active_buses: METRO_FLEET,
        min_legs: 1,
        max_legs: 1,
        horizon: timetable,
        profile: DiurnalProfile::flat(1.0),
        ..MetroConfig::default()
    };
    let (generated, worldgen) = tracer.timed("setup.worldgen", |_| {
        Scenario::custom(Environment::Urban)
            .scheme(Scheme::Robc)
            .bench()
            .metro(&metro, WORLD_SEED)
            .build()
    });
    let generated = generated.map_err(|e| e.to_string())?;
    let (buf, write) = tracer.timed_ops(
        "setup.scenario_write",
        |_| {
            let mut buf = Vec::new();
            generated.to_writer(&mut buf).map(|()| buf)
        },
        |buf| buf.as_ref().map_or(0, |b| b.len() as u64),
    );
    let buf = buf.map_err(|e| e.to_string())?;
    let (cfg, read) = tracer.timed("setup.scenario_read", |_| {
        SimConfig::from_reader(buf.as_slice())
    });
    Ok(Built {
        cfg: cfg.map_err(|e| e.to_string())?,
        worldgen,
        file: Some(ScenarioFile {
            write,
            read,
            bytes: buf.len(),
        }),
    })
}

/// The 60 gateway indices in a seed-determined order: the base plan
/// takes the first five, the fork overlays the next fifteen.
fn gateway_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..60).collect();
    SimRng::new(seed).fork(901).shuffle(&mut order);
    order
}

/// The disruptions every `whatif_rural` run carries: five 30-minute
/// gateway outages staggered over the run, one 5 % withdrawal and one
/// noise burst, placed by `seed`.
fn whatif_base_plan(seed: u64, area_side_m: f64) -> DisruptionPlan {
    let mut rng = SimRng::new(seed).fork(902);
    let outages = gateway_order(seed)[..5]
        .iter()
        .enumerate()
        .map(|(i, &gateway)| GatewayOutage {
            gateway,
            start: SimTime::ZERO + SimDuration::from_mins(10 + 18 * i as u64),
            duration: Some(SimDuration::from_mins(30)),
        })
        .collect();
    DisruptionPlan {
        outages,
        withdrawals: vec![BusWithdrawal {
            at: SimTime::ZERO + SimDuration::from_mins(45),
            fraction: 0.05,
        }],
        noise_bursts: vec![NoiseBurst {
            center: Point::new(
                rng.gen_range_f64(0.25, 0.75) * area_side_m,
                rng.gen_range_f64(0.25, 0.75) * area_side_m,
            ),
            radius_m: 3_000.0,
            start: SimTime::ZERO + SimDuration::from_mins(30),
            duration: Some(SimDuration::from_mins(40)),
            extra_loss_db: 10.0,
        }],
    }
}

/// The four what-if overlays of a fork taken at `at`: control first.
pub fn whatif_overlays(seed: u64, at: SimTime) -> Vec<DisruptionPlan> {
    let order = gateway_order(seed);
    let start = at + OVERLAY_DELAY;
    let down = |gateways: &[usize]| DisruptionPlan {
        outages: gateways
            .iter()
            .map(|&gateway| GatewayOutage {
                gateway,
                start,
                duration: None,
            })
            .collect(),
        ..DisruptionPlan::default()
    };
    let overlays = vec![
        DisruptionPlan::default(),
        down(&order[5..10]),
        down(&order[5..20]),
        DisruptionPlan {
            withdrawals: vec![BusWithdrawal {
                at: start,
                fraction: 0.2,
            }],
            ..DisruptionPlan::default()
        },
    ];
    debug_assert_eq!(overlays.len(), WHATIF_BRANCHES);
    overlays
}
