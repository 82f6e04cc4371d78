//! Metro-scale world generation: city-sized route graphs with
//! depot/line/headway/fleet structure.
//!
//! [`BusNetwork::generate`] draws every route independently, which is
//! fine for the paper's 2 000-bus evaluation but produces structureless
//! geometry and one scheduling loop per route at city scale. The
//! [`MetroWorld`] generator instead lays out a metropolitan arterial
//! plan — radial lines fanning out of the centre plus concentric ring
//! lines — and staffs each line with an explicit vehicle roster sized in
//! proportion to its cycle time, the way a real operator allocates a
//! fleet. Departures are staggered per line at the steady-state headway,
//! so a 100 000-bus day builds in seconds and the resulting
//! [`BusNetwork`] drops into the engine unchanged.
//!
//! Generation is a pure function of `(config, seed)`; the emitted
//! network satisfies every [`BusNetwork::from_parts`] invariant by
//! construction.
//!
//! # Example
//!
//! ```
//! use mlora_mobility::{MetroConfig, MetroWorld};
//! use mlora_simcore::SimDuration;
//!
//! let cfg = MetroConfig {
//!     peak_active_buses: 200, // keep the doctest fast
//!     num_radials: 8,
//!     num_rings: 4,
//!     horizon: SimDuration::from_hours(2),
//!     ..MetroConfig::default()
//! };
//! let world = MetroWorld::generate(&cfg, 7);
//! assert_eq!(world.lines().len(), 12);
//! assert!(world.network().trips().len() >= 12);
//! ```

use mlora_geo::{Point, Polyline};
use mlora_simcore::{NodeId, SimDuration, SimRng, SimTime};

use crate::{BusNetwork, DiurnalProfile, Route, RouteId, Trip};

/// Parameters of a metro-scale world.
///
/// Defaults describe a large metropolitan network: a 40 km square, 96
/// radial arterials and 48 ring lines, a 20 000-bus peak fleet and a
/// 24-hour service day under the London diurnal profile. Scale the
/// fleet with [`MetroConfig::peak_active_buses`]; everything else
/// follows.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroConfig {
    /// Side of the square service area, metres.
    pub area_side_m: f64,
    /// Number of radial (centre-to-edge) lines.
    pub num_radials: usize,
    /// Number of concentric ring lines.
    pub num_rings: usize,
    /// Intermediate waypoints per radial line (ring lines use twice as
    /// many vertices to stay round).
    pub waypoints_per_line: usize,
    /// Slowest line service speed, m/s.
    pub min_speed_mps: f64,
    /// Fastest line service speed, m/s.
    pub max_speed_mps: f64,
    /// Peak number of simultaneously active buses across the fleet.
    pub peak_active_buses: usize,
    /// Fewest one-way legs a vehicle serves before returning to depot.
    pub min_legs: u32,
    /// Most one-way legs a vehicle serves.
    pub max_legs: u32,
    /// Service day to schedule departures over.
    pub horizon: SimDuration,
    /// Time-of-day activity profile.
    pub profile: DiurnalProfile,
    /// Distance from the city centre to a radial line's depot, metres.
    pub depot_spur_m: f64,
}

impl Default for MetroConfig {
    fn default() -> Self {
        MetroConfig {
            area_side_m: 40_000.0,
            num_radials: 96,
            num_rings: 48,
            waypoints_per_line: 8,
            min_speed_mps: crate::mph_to_mps(5.4),
            max_speed_mps: crate::mph_to_mps(23.1),
            peak_active_buses: 20_000,
            min_legs: 1,
            max_legs: 4,
            horizon: SimDuration::from_hours(24),
            profile: DiurnalProfile::london_buses(),
            depot_spur_m: 400.0,
        }
    }
}

impl MetroConfig {
    /// Total number of lines (radials plus rings).
    pub fn num_lines(&self) -> usize {
        self.num_radials + self.num_rings
    }

    fn validate(&self) {
        assert!(self.area_side_m > 0.0, "area side must be positive");
        assert!(self.num_lines() > 0, "need at least one line");
        assert!(
            self.min_speed_mps > 0.0 && self.min_speed_mps <= self.max_speed_mps,
            "bad speed range"
        );
        assert!(
            self.min_legs >= 1 && self.min_legs <= self.max_legs,
            "bad leg range"
        );
        assert!(self.peak_active_buses > 0, "need at least one bus");
        assert!(
            self.depot_spur_m >= 0.0 && self.depot_spur_m < self.area_side_m / 2.0,
            "bad depot spur"
        );
    }
}

/// The kind of arterial a metro line is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// A centre-to-edge radial arterial.
    Radial,
    /// A concentric ring line.
    Ring,
}

/// Operator-level metadata for one metro line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetroLine {
    /// The route this line serves.
    pub route: RouteId,
    /// Radial or ring.
    pub kind: LineKind,
    /// Where the line's vehicles pull out from (the first path vertex).
    pub depot: Point,
    /// Vehicles allocated to the line's roster.
    pub fleet: usize,
    /// Steady-state headway between departures at full service level.
    pub peak_headway: SimDuration,
}

/// A generated metro world: the runnable [`BusNetwork`] plus per-line
/// operator metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct MetroWorld {
    network: BusNetwork,
    lines: Vec<MetroLine>,
}

impl MetroWorld {
    /// Generates a metro world from a configuration and a seed.
    ///
    /// Identical `(config, seed)` pairs generate identical worlds. Cost
    /// is `O(lines + trips + trips log trips)` — a 100 000-bus day is a
    /// few million trips and builds in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-positive area,
    /// no lines, inverted speed or leg ranges).
    pub fn generate(config: &MetroConfig, seed: u64) -> Self {
        config.validate();
        let mut geom_rng = SimRng::new(seed).fork(3);
        let mut sched_rng = SimRng::new(seed).fork(4);

        let mut routes = Vec::with_capacity(config.num_lines());
        let mut kinds = Vec::with_capacity(config.num_lines());
        for i in 0..config.num_radials {
            let id = RouteId::new(routes.len() as u32);
            routes.push(generate_radial(config, id, i, &mut geom_rng));
            kinds.push(LineKind::Radial);
        }
        for j in 0..config.num_rings {
            let id = RouteId::new(routes.len() as u32);
            routes.push(generate_ring(config, id, j, &mut geom_rng));
            kinds.push(LineKind::Ring);
        }

        let fleets = allocate_fleet(&routes, config.peak_active_buses);
        let mean_legs = f64::from(config.min_legs + config.max_legs) / 2.0;

        let mut raw = Vec::new();
        let mut lines = Vec::with_capacity(routes.len());
        for (route, &fleet) in routes.iter().zip(&fleets) {
            let cycle = route.one_way_duration().as_secs_f64() * mean_legs;
            lines.push(MetroLine {
                route: route.id(),
                kind: kinds[route.id().index()],
                depot: route.path().start(),
                fleet,
                peak_headway: SimDuration::from_secs_f64(cycle / fleet as f64),
            });
            schedule_line(config, route, fleet, &mut sched_rng, &mut raw);
        }

        raw.sort_by_key(|t: &RawDeparture| (t.depart, t.route_idx));
        let trips = raw
            .into_iter()
            .enumerate()
            .map(|(i, rt)| {
                Trip::new(
                    NodeId::new(i as u32),
                    &routes[rt.route_idx],
                    rt.depart,
                    rt.legs,
                )
            })
            .collect();

        let area = mlora_geo::BBox::square(Point::ORIGIN, config.area_side_m);
        let network = BusNetwork::from_parts(routes, trips, area, config.horizon)
            .expect("generated metro parts satisfy the network invariants");
        MetroWorld { network, lines }
    }

    /// The runnable mobility network.
    pub fn network(&self) -> &BusNetwork {
        &self.network
    }

    /// Per-line operator metadata, indexed like the network's routes.
    pub fn lines(&self) -> &[MetroLine] {
        &self.lines
    }

    /// Consumes the world, keeping only the network the engine needs.
    pub fn into_network(self) -> BusNetwork {
        self.network
    }
}

struct RawDeparture {
    route_idx: usize,
    depart: SimTime,
    legs: u32,
}

/// A radial arterial: depot near the centre, fanning out to the edge at
/// a jittered bearing with laterally jittered waypoints.
fn generate_radial(config: &MetroConfig, id: RouteId, index: usize, rng: &mut SimRng) -> Route {
    let area = mlora_geo::BBox::square(Point::ORIGIN, config.area_side_m);
    let c = area.center();
    let base_angle = index as f64 / config.num_radials.max(1) as f64 * std::f64::consts::TAU;
    let angle = base_angle + rng.normal(0.0, 0.35 / config.num_radials.max(1) as f64);
    let dir = Point::new(angle.cos(), angle.sin());
    let perp = Point::new(-dir.y, dir.x);
    let r_max = config.area_side_m * 0.48;
    let r_out = r_max * rng.gen_range_f64(0.55, 1.0);

    let n = config.waypoints_per_line;
    let mut points = Vec::with_capacity(n + 2);
    // Depot spur just off the centre, then waypoints out to the edge.
    points.push(area.clamp(
        c + dir
            * rng.gen_range_f64(
                config.depot_spur_m * 0.5,
                config.depot_spur_m.max(1.0) * 1.5,
            ),
    ));
    for i in 1..=n {
        let t = i as f64 / (n + 1) as f64;
        let lateral = rng.normal(0.0, r_out * 0.05);
        points.push(area.clamp(c + dir * (r_out * t) + perp * lateral));
    }
    points.push(area.clamp(c + dir * r_out));
    let path = Polyline::new(points).expect("radial has >= 2 finite points");
    let speed = rng.gen_range_f64(config.min_speed_mps, config.max_speed_mps + f64::EPSILON);
    Route::new(id, path, speed)
}

/// A ring line: a closed polygon around the centre. A vehicle serving it
/// ping-pongs around the loop, so one "leg" is one full circuit.
fn generate_ring(config: &MetroConfig, id: RouteId, index: usize, rng: &mut SimRng) -> Route {
    let area = mlora_geo::BBox::square(Point::ORIGIN, config.area_side_m);
    let c = area.center();
    let r_max = config.area_side_m * 0.45;
    let base_r = r_max * (index as f64 + 1.0) / (config.num_rings.max(1) as f64 + 1.0);
    let r = (base_r * rng.gen_range_f64(0.92, 1.08)).max(config.area_side_m * 0.02);

    let vertices = (config.waypoints_per_line * 2).max(6);
    let phase = rng.gen_range_f64(0.0, std::f64::consts::TAU);
    let mut points = Vec::with_capacity(vertices + 1);
    for k in 0..vertices {
        let angle = phase + k as f64 / vertices as f64 * std::f64::consts::TAU;
        let jitter = rng.normal(0.0, r * 0.03);
        let radius = (r + jitter).max(config.area_side_m * 0.01);
        points.push(area.clamp(c + Point::new(angle.cos(), angle.sin()) * radius));
    }
    points.push(points[0]); // close the loop
    let path = Polyline::new(points).expect("ring has >= 2 finite points");
    let speed = rng.gen_range_f64(config.min_speed_mps, config.max_speed_mps + f64::EPSILON);
    Route::new(id, path, speed)
}

/// Allocates the peak fleet across lines in proportion to cycle time
/// (largest-remainder rounding, at least one vehicle per line).
///
/// Longer lines need proportionally more vehicles to hold the same
/// headway — exactly the steady-state relation `fleet = cycle / headway`.
fn allocate_fleet(routes: &[Route], peak: usize) -> Vec<usize> {
    let weights: Vec<f64> = routes
        .iter()
        .map(|r| r.one_way_duration().as_secs_f64())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut fleets: Vec<usize> = Vec::with_capacity(routes.len());
    let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(routes.len());
    let mut assigned = 0usize;
    for (i, w) in weights.iter().enumerate() {
        let quota = peak as f64 * w / total;
        let base = quota.floor() as usize;
        fleets.push(base);
        assigned += base;
        fractions.push((i, quota - base as f64));
    }
    // Hand the leftover vehicles to the largest fractional remainders;
    // ties break on line index so allocation is deterministic.
    fractions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut leftover = peak.saturating_sub(assigned);
    for &(i, _) in fractions.iter().cycle().take(leftover.min(peak)) {
        fleets[i] += 1;
        leftover -= 1;
        if leftover == 0 {
            break;
        }
    }
    // Every line runs at least one vehicle, even on tiny fleets.
    for f in &mut fleets {
        *f = (*f).max(1);
    }
    fleets
}

/// Schedules one line's departures: staggered pull-outs at the
/// steady-state headway for the current service level, mirroring
/// [`BusNetwork::generate`]'s per-route loop but sized by the line's
/// explicit roster.
fn schedule_line(
    config: &MetroConfig,
    route: &Route,
    fleet: usize,
    rng: &mut SimRng,
    out: &mut Vec<RawDeparture>,
) {
    let mean_legs = f64::from(config.min_legs + config.max_legs) / 2.0;
    let cycle = route.one_way_duration().as_secs_f64() * mean_legs;
    let horizon = config.horizon.as_secs_f64();

    // Pull out staggered across one peak headway, starting one cycle
    // before t = 0 so the line is populated at the day boundary.
    let peak_headway = cycle / fleet as f64;
    let mut t = -cycle + rng.gen_range_f64(0.0, peak_headway.clamp(1.0, 900.0));
    while t < horizon {
        let now = SimTime::from_secs_f64(t.max(0.0));
        let target_active = (config.profile.level(now) * fleet as f64).max(1e-3);
        let headway = (cycle / target_active).min(4.0 * 3600.0);
        t += headway * rng.gen_range_f64(0.9, 1.1);
        if t >= horizon {
            break;
        }
        if t < 0.0 {
            continue;
        }
        let legs =
            rng.gen_range_u64(u64::from(config.min_legs), u64::from(config.max_legs) + 1) as u32;
        out.push(RawDeparture {
            route_idx: route.id().index(),
            depart: SimTime::from_secs_f64(t),
            legs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MetroConfig {
        MetroConfig {
            area_side_m: 12_000.0,
            num_radials: 10,
            num_rings: 5,
            waypoints_per_line: 4,
            peak_active_buses: 300,
            horizon: SimDuration::from_hours(6),
            ..MetroConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = MetroWorld::generate(&cfg, 7);
        let b = MetroWorld::generate(&cfg, 7);
        assert_eq!(a, b);
        assert_ne!(a, MetroWorld::generate(&cfg, 8));
    }

    #[test]
    fn line_structure_matches_config() {
        let cfg = small_config();
        let world = MetroWorld::generate(&cfg, 1);
        assert_eq!(world.lines().len(), cfg.num_lines());
        assert_eq!(world.network().routes().len(), cfg.num_lines());
        let radials = world
            .lines()
            .iter()
            .filter(|l| l.kind == LineKind::Radial)
            .count();
        assert_eq!(radials, cfg.num_radials);
        for (i, line) in world.lines().iter().enumerate() {
            assert_eq!(line.route.index(), i);
            assert!(world.network().area().contains(line.depot));
            assert!(line.fleet >= 1);
            assert!(!line.peak_headway.is_zero());
        }
    }

    #[test]
    fn fleet_allocation_sums_to_peak() {
        let cfg = small_config();
        let world = MetroWorld::generate(&cfg, 2);
        let total: usize = world.lines().iter().map(|l| l.fleet).sum();
        // Largest-remainder allocation hits the peak exactly unless the
        // at-least-one floor forces a small overshoot.
        assert!(total >= cfg.peak_active_buses);
        assert!(total <= cfg.peak_active_buses + cfg.num_lines());
    }

    #[test]
    fn active_fleet_tracks_peak() {
        let cfg = MetroConfig {
            profile: DiurnalProfile::flat(1.0),
            ..small_config()
        };
        let world = MetroWorld::generate(&cfg, 3);
        let net = world.network();
        let mid = SimTime::from_secs(3 * 3600);
        let active = net.active_trips(mid).count();
        assert!(
            active >= cfg.peak_active_buses / 2 && active <= cfg.peak_active_buses * 2,
            "active fleet {active} far from target {}",
            cfg.peak_active_buses
        );
    }

    #[test]
    fn network_satisfies_from_parts_invariants() {
        let world = MetroWorld::generate(&small_config(), 4);
        let net = world.network();
        let rebuilt = BusNetwork::from_parts(
            net.routes().to_vec(),
            net.trips().to_vec(),
            net.area(),
            net.horizon(),
        )
        .expect("metro network is consistent");
        assert_eq!(*net, rebuilt);
    }

    #[test]
    fn positions_resolve_inside_area() {
        let world = MetroWorld::generate(&small_config(), 5);
        let net = world.network();
        let t = SimTime::from_secs(2 * 3600);
        for trip in net.active_trips(t).take(200) {
            let p = net.position(trip.node(), t);
            assert!(net.area().contains(p), "bus at {p} outside area");
        }
    }

    #[test]
    fn into_network_drops_metadata_only() {
        let world = MetroWorld::generate(&small_config(), 6);
        let net = world.network().clone();
        assert_eq!(world.into_network(), net);
    }
}
