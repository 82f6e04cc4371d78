//! Individual vehicle trips.

use mlora_simcore::{NodeId, SimDuration, SimTime};

use crate::{Route, RouteId};

/// One vehicle serving a route: it departs, ping-pongs along the path for
/// a number of one-way legs, then leaves service.
///
/// A trip *is* a LoRa device for the duration of its service window — the
/// paper's Fig. 7(b) "bus active duration" is exactly this window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    node: NodeId,
    route: RouteId,
    depart: SimTime,
    legs: u32,
    /// Cached duration so callers do not need the route to ask for it.
    duration: SimDuration,
}

impl Trip {
    /// Creates a trip for `node` on `route`, departing at `depart` and
    /// serving `legs` one-way traversals.
    ///
    /// # Panics
    ///
    /// Panics if `legs == 0`.
    pub fn new(node: NodeId, route: &Route, depart: SimTime, legs: u32) -> Self {
        assert!(legs > 0, "a trip needs at least one leg");
        Trip {
            node,
            route: route.id(),
            depart,
            legs,
            duration: route.one_way_duration() * u64::from(legs),
        }
    }

    /// The device identity of this vehicle.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The route served.
    pub fn route(&self) -> RouteId {
        self.route
    }

    /// Service start.
    pub fn depart(&self) -> SimTime {
        self.depart
    }

    /// Number of one-way legs served.
    pub fn legs(&self) -> u32 {
        self.legs
    }

    /// Total time in service.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Service end (exclusive).
    pub fn end(&self) -> SimTime {
        self.depart + self.duration
    }

    /// Withdraws the vehicle from service at `at`, truncating the
    /// service window in place.
    ///
    /// After withdrawal the trip ends at `at` (clamped into the original
    /// window, so a withdrawal before departure leaves a zero-length
    /// window and one after the scheduled end is a no-op), and position
    /// queries for any later instant clamp to the withdrawal point — the
    /// roadside where the vehicle parked. The scheduled leg count is kept
    /// for bookkeeping; only the cached duration shrinks.
    ///
    /// # Example
    ///
    /// ```
    /// use mlora_geo::{Point, Polyline};
    /// use mlora_mobility::{Route, RouteId, Trip};
    /// use mlora_simcore::{NodeId, SimTime};
    ///
    /// let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)]).unwrap();
    /// let route = Route::new(RouteId::new(0), path, 10.0);
    /// let mut trip = Trip::new(NodeId::new(1), &route, SimTime::ZERO, 2);
    /// trip.withdraw(SimTime::from_secs(50));
    /// assert_eq!(trip.end(), SimTime::from_secs(50));
    /// assert!(!trip.is_active(SimTime::from_secs(60)));
    /// // The bus stays parked where it was withdrawn.
    /// assert_eq!(trip.position(&route, SimTime::from_secs(90)), Point::new(500.0, 0.0));
    /// ```
    pub fn withdraw(&mut self, at: SimTime) {
        let at = at.max(self.depart).min(self.end());
        self.duration = at - self.depart;
    }

    /// True if the vehicle is in service at `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        t >= self.depart && t < self.end()
    }

    /// Position at time `t`.
    ///
    /// Outside the service window the position clamps to the nearest
    /// endpoint of the window (the terminus where the bus parks).
    ///
    /// # Panics
    ///
    /// Panics if `route` is not the route this trip serves.
    pub fn position(&self, route: &Route, t: SimTime) -> mlora_geo::Point {
        route.position_after(self.travelled_m(route, t))
    }

    /// [`Trip::position`] with a per-trip segment cursor: bit-identical
    /// results, O(1) amortised when `t` advances monotonically (see
    /// [`mlora_geo::Polyline::point_at_hinted`]).
    ///
    /// # Panics
    ///
    /// Panics if `route` is not the route this trip serves.
    pub fn position_hinted(&self, route: &Route, t: SimTime, hint: &mut u32) -> mlora_geo::Point {
        route.position_after_hinted(self.travelled_m(route, t), hint)
    }

    /// Distance travelled along the route at time `t` (clamped to the
    /// service window): the shared arithmetic behind both position
    /// queries.
    fn travelled_m(&self, route: &Route, t: SimTime) -> f64 {
        assert_eq!(route.id(), self.route, "position queried with wrong route");
        let t = t.max(self.depart).min(self.end());
        route.speed_mps() * (t - self.depart).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlora_geo::{Point, Polyline};

    fn route() -> Route {
        let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)]).unwrap();
        Route::new(RouteId::new(0), path, 10.0)
    }

    #[test]
    fn window_and_duration() {
        let r = route();
        let t = Trip::new(NodeId::new(1), &r, SimTime::from_secs(100), 3);
        assert_eq!(t.duration(), SimDuration::from_secs(300));
        assert_eq!(t.end(), SimTime::from_secs(400));
        assert!(!t.is_active(SimTime::from_secs(99)));
        assert!(t.is_active(SimTime::from_secs(100)));
        assert!(t.is_active(SimTime::from_secs(399)));
        assert!(!t.is_active(SimTime::from_secs(400)));
    }

    #[test]
    fn positions_along_legs() {
        let r = route();
        let t = Trip::new(NodeId::new(1), &r, SimTime::from_secs(0), 2);
        assert_eq!(
            t.position(&r, SimTime::from_secs(50)),
            Point::new(500.0, 0.0)
        );
        assert_eq!(
            t.position(&r, SimTime::from_secs(100)),
            Point::new(1000.0, 0.0)
        );
        // Second leg runs back towards the start.
        assert_eq!(
            t.position(&r, SimTime::from_secs(150)),
            Point::new(500.0, 0.0)
        );
        assert_eq!(
            t.position(&r, SimTime::from_secs(200)),
            Point::new(0.0, 0.0)
        );
    }

    #[test]
    fn position_clamps_outside_window() {
        let r = route();
        let t = Trip::new(NodeId::new(1), &r, SimTime::from_secs(100), 1);
        assert_eq!(t.position(&r, SimTime::ZERO), Point::new(0.0, 0.0));
        assert_eq!(
            t.position(&r, SimTime::from_secs(10_000)),
            Point::new(1000.0, 0.0)
        );
    }

    #[test]
    fn withdraw_truncates_window_and_parks() {
        let r = route();
        let mut t = Trip::new(NodeId::new(1), &r, SimTime::from_secs(100), 3);
        t.withdraw(SimTime::from_secs(250));
        assert_eq!(t.end(), SimTime::from_secs(250));
        assert_eq!(t.duration(), SimDuration::from_secs(150));
        assert!(t.is_active(SimTime::from_secs(249)));
        assert!(!t.is_active(SimTime::from_secs(250)));
        // 150 s into the trip: one full leg out (100 s) plus 50 s back.
        let parked = t.position(&r, SimTime::from_secs(250));
        assert_eq!(parked, Point::new(500.0, 0.0));
        // Later queries keep returning the parking spot.
        assert_eq!(t.position(&r, SimTime::from_secs(10_000)), parked);
        // Leg count is bookkeeping, not the live window.
        assert_eq!(t.legs(), 3);
    }

    #[test]
    fn withdraw_clamps_to_service_window() {
        let r = route();
        // Before departure: zero-length window at the origin terminal.
        let mut early = Trip::new(NodeId::new(1), &r, SimTime::from_secs(100), 1);
        early.withdraw(SimTime::from_secs(10));
        assert_eq!(early.end(), early.depart());
        assert!(!early.is_active(early.depart()));
        assert_eq!(
            early.position(&r, SimTime::from_secs(500)),
            Point::new(0.0, 0.0)
        );
        // After the scheduled end: a no-op.
        let mut late = Trip::new(NodeId::new(1), &r, SimTime::from_secs(100), 1);
        late.withdraw(SimTime::from_secs(9_999));
        assert_eq!(late.end(), SimTime::from_secs(200));
    }

    #[test]
    #[should_panic(expected = "at least one leg")]
    fn zero_legs_rejected() {
        let _ = Trip::new(NodeId::new(1), &route(), SimTime::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "wrong route")]
    fn wrong_route_rejected() {
        let r = route();
        let other = Route::new(
            RouteId::new(9),
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap(),
            1.0,
        );
        let t = Trip::new(NodeId::new(1), &r, SimTime::ZERO, 1);
        let _ = t.position(&other, SimTime::ZERO);
    }
}
