//! Seeded generation of the synthetic bus network.

use mlora_geo::{BBox, Point, Polyline};
use mlora_simcore::{NodeId, SimDuration, SimRng, SimTime};

use crate::{DiurnalProfile, Route, RouteId, Trip};

/// The widest area [`BusNetworkConfig::validate`] accepts, metres: ten
/// times the Earth's circumference is past any ground network, and every
/// squared distance the generator takes over it stays far inside `f64`.
const MAX_AREA_SIDE_M: f64 = 4.0e8;

/// The most route points [`BusNetworkConfig::validate`] accepts, over
/// all routes and terminals included: the default network has 960.
const MAX_ROUTE_POINTS: usize = 1 << 20;

/// The largest `max_active_buses × max_legs` it accepts, which bounds
/// both the fleet the generator schedules and how many legs one trip
/// runs: the default network asks for 8 000.
const MAX_BUS_LEGS: usize = 1 << 22;

/// Parameters of the synthetic London-scale bus network.
///
/// Defaults reproduce the paper's setting at a tractable scale: a 600 km²
/// square area, service speeds spanning the quoted 5.4–23.1 mph, a
/// Fig. 7(a)-shaped diurnal fleet profile, and trip durations distributed
/// like Fig. 7(b). `max_active_buses` scales the whole fleet; the paper's
/// full TfL replay runs thousands of buses, which simulates fine but slows
/// parameter sweeps, so experiments default to a few hundred (documented
/// in EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct BusNetworkConfig {
    /// Side of the square simulation area, metres (default 24 495 m ≈ 600 km²).
    pub area_side_m: f64,
    /// Number of bus routes.
    pub num_routes: usize,
    /// Intermediate waypoints per route (plus the two terminals).
    pub waypoints_per_route: usize,
    /// Minimum one-way route length, metres.
    pub min_route_length_m: f64,
    /// Slowest route service speed, m/s (paper: 5.4 mph ≈ 2.41 m/s).
    pub min_speed_mps: f64,
    /// Fastest route service speed, m/s (paper: 23.1 mph ≈ 10.33 m/s).
    pub max_speed_mps: f64,
    /// Peak number of simultaneously active buses.
    pub max_active_buses: usize,
    /// Fewest one-way legs a vehicle serves before leaving service.
    pub min_legs: u32,
    /// Most one-way legs a vehicle serves.
    pub max_legs: u32,
    /// Time horizon to schedule departures over.
    pub horizon: SimDuration,
    /// Time-of-day activity profile.
    pub profile: DiurnalProfile,
    /// Fraction of terminals biased towards the city centre.
    pub center_bias: f64,
}

impl Default for BusNetworkConfig {
    fn default() -> Self {
        BusNetworkConfig {
            area_side_m: 24_495.0,
            num_routes: 120,
            waypoints_per_route: 6,
            min_route_length_m: 4_000.0,
            min_speed_mps: crate::mph_to_mps(5.4),
            max_speed_mps: crate::mph_to_mps(23.1),
            max_active_buses: 2_000,
            min_legs: 1,
            max_legs: 4,
            horizon: SimDuration::from_hours(24),
            profile: DiurnalProfile::london_buses(),
            center_bias: 0.5,
        }
    }
}

impl BusNetworkConfig {
    /// The simulation area as a bounding box anchored at the origin.
    pub fn area(&self) -> BBox {
        BBox::square(Point::ORIGIN, self.area_side_m)
    }

    /// Checks that [`BusNetwork::generate`] can build this network.
    ///
    /// # Errors
    ///
    /// [`NetworkConfigError`] naming the first rule broken: the area
    /// side must lie in (0, 4 × 10⁸ m], and there must be a route, a
    /// bus, a positive finite speed range and a leg range starting at
    /// one; the shortest route must be finite and fit the area, and the
    /// centre bias lie in `[0, 1]`. Nor may the network ask for more
    /// than 2²⁰ route points or 2²² bus-legs (`max_active_buses ×
    /// max_legs`).
    pub fn validate(&self) -> Result<(), NetworkConfigError> {
        let points_per_route = self.waypoints_per_route.saturating_add(2);
        let rules = [
            (
                self.area_side_m > 0.0 && self.area_side_m <= MAX_AREA_SIDE_M,
                "network area side must be positive and at most 4e8 m",
            ),
            (self.num_routes > 0, "network needs at least one route"),
            (
                self.num_routes.saturating_mul(points_per_route) <= MAX_ROUTE_POINTS,
                "network asks for more than 2^20 route points",
            ),
            (
                self.min_speed_mps > 0.0
                    && self.min_speed_mps <= self.max_speed_mps
                    && self.max_speed_mps.is_finite(),
                "network speed range must be positive, finite and not inverted",
            ),
            (
                self.min_legs >= 1 && self.min_legs <= self.max_legs,
                "network leg range must start at one and not be inverted",
            ),
            (self.max_active_buses > 0, "network needs at least one bus"),
            (
                self.max_active_buses.saturating_mul(self.max_legs as usize) <= MAX_BUS_LEGS,
                "network asks for more than 2^22 bus-legs",
            ),
            (
                self.min_route_length_m.is_finite()
                    && self.min_route_length_m < self.area_side_m * 2.0,
                "network minimum route length must be finite and fit the area",
            ),
            (
                (0.0..=1.0).contains(&self.center_bias),
                "network centre bias must lie in [0, 1]",
            ),
        ];
        match rules.into_iter().find(|&(holds, _)| !holds) {
            Some((_, rule)) => Err(NetworkConfigError(rule)),
            None => Ok(()),
        }
    }
}

/// Error returned by [`BusNetworkConfig::validate`]: the rule a
/// configuration breaks, in words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfigError(pub &'static str);

impl std::fmt::Display for NetworkConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for NetworkConfigError {}

/// A fully generated bus network: routes plus the day's trips.
///
/// Trips are sorted by departure time and indexed by [`NodeId`]; each trip
/// is one LoRa device for its service window.
#[derive(Debug, Clone, PartialEq)]
pub struct BusNetwork {
    routes: Vec<Route>,
    trips: Vec<Trip>,
    area: BBox,
    horizon: SimDuration,
}

/// Error returned when externally supplied network parts (a deserialized
/// or hand-assembled world) are internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// The route set was empty.
    NoRoutes,
    /// Route at position `index` does not carry `RouteId(index)`.
    RouteIdMismatch {
        /// Position in the route vector.
        index: usize,
    },
    /// A trip references a route the network does not contain.
    UnknownRoute {
        /// Position of the offending trip.
        trip: usize,
    },
    /// Trip at position `index` does not carry `NodeId(index)`.
    NodeIdMismatch {
        /// Position in the trip vector.
        index: usize,
    },
    /// Trips are not sorted by departure time.
    UnsortedTrips {
        /// Position of the first out-of-order trip.
        trip: usize,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::NoRoutes => write!(f, "network has no routes"),
            NetworkError::RouteIdMismatch { index } => {
                write!(f, "route at position {index} does not carry id {index}")
            }
            NetworkError::UnknownRoute { trip } => {
                write!(f, "trip {trip} references a route outside the network")
            }
            NetworkError::NodeIdMismatch { index } => {
                write!(f, "trip at position {index} does not carry node id {index}")
            }
            NetworkError::UnsortedTrips { trip } => {
                write!(f, "trip {trip} departs before its predecessor")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

impl BusNetwork {
    /// Assembles a network from externally supplied parts — the seam the
    /// metro generator and the binary scenario reader build worlds
    /// through.
    ///
    /// The parts must satisfy the invariants [`BusNetwork::generate`]
    /// guarantees by construction: route `i` carries `RouteId(i)`, trip
    /// `i` carries `NodeId(i)`, every trip references a contained route,
    /// and trips are sorted by departure time.
    ///
    /// # Errors
    ///
    /// Returns the [`NetworkError`] naming the first violated invariant.
    pub fn from_parts(
        routes: Vec<Route>,
        trips: Vec<Trip>,
        area: BBox,
        horizon: SimDuration,
    ) -> Result<Self, NetworkError> {
        if routes.is_empty() {
            return Err(NetworkError::NoRoutes);
        }
        for (index, route) in routes.iter().enumerate() {
            if route.id().index() != index {
                return Err(NetworkError::RouteIdMismatch { index });
            }
        }
        let mut last_depart = SimTime::ZERO;
        for (index, trip) in trips.iter().enumerate() {
            if trip.route().index() >= routes.len() {
                return Err(NetworkError::UnknownRoute { trip: index });
            }
            if trip.node().index() != index {
                return Err(NetworkError::NodeIdMismatch { index });
            }
            if trip.depart() < last_depart {
                return Err(NetworkError::UnsortedTrips { trip: index });
            }
            last_depart = trip.depart();
        }
        Ok(BusNetwork {
            routes,
            trips,
            area,
            horizon,
        })
    }

    /// Generates a network from a configuration and a seed.
    ///
    /// Identical `(config, seed)` pairs generate identical networks.
    ///
    /// # Panics
    ///
    /// Panics if [`BusNetworkConfig::validate`] refuses the
    /// configuration.
    pub fn generate(config: &BusNetworkConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid network configuration: {e}");
        }
        let mut route_rng = SimRng::new(seed).fork(1);
        let mut sched_rng = SimRng::new(seed).fork(2);

        let routes: Vec<Route> = (0..config.num_routes)
            .map(|i| generate_route(config, RouteId::new(i as u32), &mut route_rng))
            .collect();

        let mut raw_trips = Vec::new();
        for route in &routes {
            schedule_route(config, route, &mut sched_rng, &mut raw_trips);
        }
        // Sort by departure (then route) and assign stable NodeIds.
        raw_trips.sort_by_key(|t: &RawTrip| (t.depart, t.route_idx));
        let trips = raw_trips
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

        BusNetwork {
            routes,
            trips,
            area: config.area(),
            horizon: config.horizon,
        }
    }

    /// All routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Looks up a route.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn route(&self, id: RouteId) -> &Route {
        &self.routes[id.index()]
    }

    /// All trips, sorted by departure time; index `i` is `NodeId(i)`.
    pub fn trips(&self) -> &[Trip] {
        &self.trips
    }

    /// Looks up a trip by device identity.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network.
    pub fn trip(&self, node: NodeId) -> &Trip {
        &self.trips[node.index()]
    }

    /// The device's position at time `t`.
    pub fn position(&self, node: NodeId, t: SimTime) -> Point {
        let trip = self.trip(node);
        trip.position(self.route(trip.route()), t)
    }

    /// [`BusNetwork::position`] with a per-device segment cursor.
    ///
    /// `hint` is the opaque cursor for `node` (start at 0, keep one per
    /// device); results are bit-identical to [`BusNetwork::position`] and
    /// O(1) amortised when each device's queries advance monotonically in
    /// time — the access pattern of a discrete-event hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network.
    pub fn position_hinted(&self, node: NodeId, t: SimTime, hint: &mut u32) -> Point {
        let trip = self.trip(node);
        trip.position_hinted(self.route(trip.route()), t, hint)
    }

    /// Withdraws `node`'s trip from service at `at` (see
    /// [`Trip::withdraw`]): the service window truncates to `at` and the
    /// vehicle parks at its withdrawal position for all later queries.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this network.
    pub fn withdraw(&mut self, node: NodeId, at: SimTime) {
        self.trips[node.index()].withdraw(at);
    }

    /// Trips in service at time `t`.
    pub fn active_trips(&self, t: SimTime) -> impl Iterator<Item = &Trip> + '_ {
        self.trips.iter().filter(move |trip| trip.is_active(t))
    }

    /// The simulation area.
    pub fn area(&self) -> BBox {
        self.area
    }

    /// The scheduling horizon.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }
}

struct RawTrip {
    route_idx: usize,
    depart: SimTime,
    legs: u32,
}

fn sample_terminal(config: &BusNetworkConfig, rng: &mut SimRng) -> Point {
    let area = config.area();
    if rng.gen_bool(config.center_bias) {
        let c = area.center();
        let sigma = config.area_side_m / 8.0;
        area.clamp(Point::new(rng.normal(c.x, sigma), rng.normal(c.y, sigma)))
    } else {
        Point::new(
            rng.gen_range_f64(0.0, config.area_side_m),
            rng.gen_range_f64(0.0, config.area_side_m),
        )
    }
}

fn generate_route(config: &BusNetworkConfig, id: RouteId, rng: &mut SimRng) -> Route {
    // Draw terminals until the route is long enough (bounded retries so a
    // tiny test area cannot loop forever).
    let (a, b) = {
        let mut best = (sample_terminal(config, rng), sample_terminal(config, rng));
        for _ in 0..64 {
            if best.0.distance(best.1) >= config.min_route_length_m {
                break;
            }
            best = (sample_terminal(config, rng), sample_terminal(config, rng));
        }
        best
    };
    let area = config.area();
    let n = config.waypoints_per_route;
    let span = a.distance(b).max(1.0);
    let mut points = Vec::with_capacity(n + 2);
    points.push(a);
    // Perpendicular unit vector for lateral jitter around the main axis.
    let dir = Point::new((b.x - a.x) / span, (b.y - a.y) / span);
    let perp = Point::new(-dir.y, dir.x);
    for i in 1..=n {
        let t = i as f64 / (n + 1) as f64;
        let lateral = rng.normal(0.0, span * 0.08);
        let base = a.lerp(b, t);
        points.push(area.clamp(base + perp * lateral));
    }
    points.push(b);
    let path = Polyline::new(points).expect("route has >= 2 finite points");
    let speed = rng.gen_range_f64(config.min_speed_mps, config.max_speed_mps + f64::EPSILON);
    Route::new(id, path, speed)
}

fn schedule_route(
    config: &BusNetworkConfig,
    route: &Route,
    rng: &mut SimRng,
    out: &mut Vec<RawTrip>,
) {
    let one_way = route.one_way_duration().as_secs_f64();
    let mean_legs = f64::from(config.min_legs + config.max_legs) / 2.0;
    let mean_duration = one_way * mean_legs;
    let per_route_peak = config.max_active_buses as f64 / config.num_routes as f64;
    let horizon = config.horizon.as_secs_f64();

    // Start slightly before 0 so the network is already populated at t=0,
    // mirroring a day boundary in a continuously running service.
    let mut t = -mean_duration;
    // Random phase so routes do not all depart in lockstep.
    t += rng.gen_range_f64(0.0, 600.0);
    while t < horizon {
        let now = SimTime::from_secs_f64(t.max(0.0));
        let target_active = (config.profile.level(now) * per_route_peak).max(1e-3);
        // Steady state: active = duration / headway  =>  headway = duration / target.
        let headway = (mean_duration / target_active).min(4.0 * 3600.0);
        let jitter = rng.gen_range_f64(0.8, 1.2);
        t += headway * jitter;
        if t >= horizon {
            break;
        }
        if t < 0.0 {
            continue;
        }
        let legs =
            rng.gen_range_u64(u64::from(config.min_legs), u64::from(config.max_legs) + 1) as u32;
        out.push(RawTrip {
            route_idx: route.id().index(),
            depart: SimTime::from_secs_f64(t),
            legs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> BusNetworkConfig {
        BusNetworkConfig {
            area_side_m: 10_000.0,
            num_routes: 10,
            max_active_buses: 50,
            min_route_length_m: 2_000.0,
            ..BusNetworkConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = BusNetwork::generate(&cfg, 7);
        let b = BusNetwork::generate(&cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = small_config();
        let a = BusNetwork::generate(&cfg, 1);
        let b = BusNetwork::generate(&cfg, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn routes_stay_in_area_and_meet_length() {
        let cfg = small_config();
        let net = BusNetwork::generate(&cfg, 3);
        assert_eq!(net.routes().len(), cfg.num_routes);
        for route in net.routes() {
            for p in route.path().points() {
                assert!(net.area().contains(*p), "waypoint {p} outside area");
            }
            assert!(
                route.speed_mps() >= cfg.min_speed_mps
                    && route.speed_mps() <= cfg.max_speed_mps + 1e-9
            );
        }
    }

    #[test]
    fn trips_sorted_and_ids_sequential() {
        let net = BusNetwork::generate(&small_config(), 4);
        assert!(!net.trips().is_empty());
        for (i, w) in net.trips().windows(2).enumerate() {
            assert!(w[0].depart() <= w[1].depart(), "unsorted at {i}");
        }
        for (i, trip) in net.trips().iter().enumerate() {
            assert_eq!(trip.node().index(), i);
        }
    }

    #[test]
    fn daytime_activity_tracks_profile() {
        let net = BusNetwork::generate(&BusNetworkConfig::default(), 5);
        let night = net.active_trips(SimTime::from_secs(3 * 3600)).count();
        let noon = net.active_trips(SimTime::from_secs(12 * 3600)).count();
        assert!(
            noon > 2 * night,
            "expected daytime ({noon}) well above night ({night})"
        );
        // Near the configured ceiling (2000) at the busiest hour but not
        // far above it.
        let peak = net.active_trips(SimTime::from_secs(8 * 3600)).count();
        assert!(peak <= 2_600, "peak {peak} exploded past ceiling");
        assert!(peak >= 1_000, "peak {peak} far below target 2000");
    }

    #[test]
    fn positions_resolve_for_all_active_trips() {
        let net = BusNetwork::generate(&small_config(), 6);
        let t = SimTime::from_secs(10 * 3600);
        for trip in net.active_trips(t) {
            let p = net.position(trip.node(), t);
            assert!(net.area().contains(p), "bus at {p} outside area");
        }
    }

    #[test]
    fn hinted_positions_match_bitwise() {
        use mlora_simcore::SimRng;
        let net = BusNetwork::generate(&small_config(), 11);
        let mut rng = SimRng::new(5);
        let mut hints = vec![0u32; net.trips().len()];
        // Per-device monotone time sweeps with occasional cross-device
        // interleaving — the engine's access pattern.
        for step in 0..2_000u64 {
            let t = SimTime::from_millis(step * 7_321);
            let node = NodeId::new(rng.gen_range_u64(0, net.trips().len() as u64) as u32);
            let want = net.position(node, t);
            let got = net.position_hinted(node, t, &mut hints[node.index()]);
            assert_eq!(want.x.to_bits(), got.x.to_bits(), "x at {t} for {node}");
            assert_eq!(want.y.to_bits(), got.y.to_bits(), "y at {t} for {node}");
        }
    }

    #[test]
    fn withdraw_removes_bus_from_active_set() {
        let mut net = BusNetwork::generate(&small_config(), 9);
        let t = SimTime::from_secs(10 * 3600);
        let node = net.active_trips(t).next().expect("daytime bus").node();
        let before = net.active_trips(t).count();
        let pos = net.position(node, t);
        net.withdraw(node, t);
        assert_eq!(net.active_trips(t).count(), before - 1);
        assert!(!net.trip(node).is_active(t));
        // Position queries stay valid and pinned to the parking spot.
        assert_eq!(net.position(node, t + SimDuration::from_hours(1)), pos);
    }

    #[test]
    fn from_parts_roundtrips_generated_network() {
        let net = BusNetwork::generate(&small_config(), 12);
        let rebuilt = BusNetwork::from_parts(
            net.routes().to_vec(),
            net.trips().to_vec(),
            net.area(),
            net.horizon(),
        )
        .expect("generated parts are consistent");
        assert_eq!(net, rebuilt);
    }

    #[test]
    fn from_parts_rejects_inconsistencies() {
        let net = BusNetwork::generate(&small_config(), 13);
        let (routes, trips) = (net.routes().to_vec(), net.trips().to_vec());

        assert_eq!(
            BusNetwork::from_parts(Vec::new(), Vec::new(), net.area(), net.horizon()),
            Err(NetworkError::NoRoutes)
        );

        let mut swapped = trips.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            BusNetwork::from_parts(routes.clone(), swapped, net.area(), net.horizon()),
            Err(NetworkError::NodeIdMismatch { .. } | NetworkError::UnsortedTrips { .. })
        ));

        let mut missing_route = routes.clone();
        missing_route.truncate(1);
        assert!(matches!(
            BusNetwork::from_parts(missing_route, trips, net.area(), net.horizon()),
            Err(NetworkError::UnknownRoute { .. })
        ));
    }

    #[test]
    fn validate_refuses_what_the_generator_cannot_build() {
        let widest = BusNetworkConfig {
            area_side_m: MAX_AREA_SIDE_M,
            ..small_config()
        };
        assert_eq!(widest.validate(), Ok(()));
        assert!(!BusNetwork::generate(&widest, 1).routes().is_empty());
        let broken: [fn(&mut BusNetworkConfig); 17] = [
            |c| c.area_side_m = 0.0,
            |c| c.area_side_m = f64::NAN,
            |c| c.area_side_m = MAX_AREA_SIDE_M.next_up(),
            |c| c.num_routes = 0,
            |c| c.num_routes = MAX_ROUTE_POINTS / 2,
            |c| c.waypoints_per_route = usize::MAX,
            |c| c.min_speed_mps = 0.0,
            |c| c.max_speed_mps = c.min_speed_mps / 2.0,
            |c| c.max_speed_mps = f64::INFINITY,
            |c| c.min_legs = 0,
            |c| c.max_legs = c.min_legs - 1,
            |c| c.max_legs = u32::MAX,
            |c| c.max_active_buses = 0,
            |c| c.max_active_buses = MAX_BUS_LEGS,
            |c| c.min_route_length_m = 2.0 * c.area_side_m,
            |c| c.min_route_length_m = f64::NEG_INFINITY,
            |c| c.center_bias = 1.5,
        ];
        for (i, break_rule) in broken.iter().enumerate() {
            let mut cfg = small_config();
            break_rule(&mut cfg);
            assert!(cfg.validate().is_err(), "rule {i}: {cfg:?}");
        }
    }

    #[test]
    fn legs_within_bounds() {
        let cfg = small_config();
        let net = BusNetwork::generate(&cfg, 8);
        for trip in net.trips() {
            assert!(trip.legs() >= cfg.min_legs && trip.legs() <= cfg.max_legs);
        }
    }
}
