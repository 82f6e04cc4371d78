//! Bus routes.

use mlora_geo::{Point, Polyline};
use mlora_simcore::SimDuration;
use std::fmt;

/// Identifier of a bus route within a [`crate::BusNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouteId(u32);

impl RouteId {
    /// Creates a route identifier from its raw index.
    pub const fn new(raw: u32) -> Self {
        RouteId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as `usize` for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route-{}", self.0)
    }
}

/// A bus line: a fixed path served at a fixed nominal speed.
///
/// Vehicles ping-pong along the path (out-and-back), exactly like a
/// bidirectional bus line. Positions are resolved analytically from the
/// distance travelled, so there is no per-tick state.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    id: RouteId,
    path: Polyline,
    speed_mps: f64,
}

impl Route {
    /// Creates a route.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive and finite, or if the
    /// path has zero length.
    pub fn new(id: RouteId, path: Polyline, speed_mps: f64) -> Self {
        assert!(
            speed_mps.is_finite() && speed_mps > 0.0,
            "bad speed {speed_mps}"
        );
        assert!(path.length() > 0.0, "route path must have positive length");
        Route {
            id,
            path,
            speed_mps,
        }
    }

    /// The route identifier.
    pub fn id(&self) -> RouteId {
        self.id
    }

    /// The route path.
    pub fn path(&self) -> &Polyline {
        &self.path
    }

    /// Nominal service speed, metres per second.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// One-way route length in metres.
    pub fn length_m(&self) -> f64 {
        self.path.length()
    }

    /// Time to traverse the route once, end to end.
    pub fn one_way_duration(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.length_m() / self.speed_mps)
    }

    /// Position after travelling `travelled_m` metres from the start,
    /// ping-ponging at the terminals.
    pub fn position_after(&self, travelled_m: f64) -> Point {
        self.path.point_at(self.fold_distance(travelled_m))
    }

    /// [`Route::position_after`] with a segment cursor (see
    /// [`Polyline::point_at_hinted`]): bit-identical results, O(1)
    /// amortised when consecutive queries are close in time.
    pub fn position_after_hinted(&self, travelled_m: f64, hint: &mut u32) -> Point {
        self.path
            .point_at_hinted(self.fold_distance(travelled_m), hint)
    }

    /// Folds a raw travelled distance onto the out-and-back path: the
    /// shared ping-pong arithmetic behind both position queries.
    fn fold_distance(&self, travelled_m: f64) -> f64 {
        let len = self.length_m();
        let d = travelled_m.max(0.0) % (2.0 * len);
        if d <= len {
            d
        } else {
            2.0 * len - d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight() -> Route {
        let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1000.0, 0.0)]).unwrap();
        Route::new(RouteId::new(0), path, 10.0)
    }

    #[test]
    fn one_way_duration() {
        assert_eq!(straight().one_way_duration(), SimDuration::from_secs(100));
    }

    #[test]
    fn ping_pong_positions() {
        let r = straight();
        assert_eq!(r.position_after(0.0), Point::new(0.0, 0.0));
        assert_eq!(r.position_after(250.0), Point::new(250.0, 0.0));
        assert_eq!(r.position_after(1000.0), Point::new(1000.0, 0.0));
        // Past the far terminal the bus turns back.
        assert_eq!(r.position_after(1200.0), Point::new(800.0, 0.0));
        assert_eq!(r.position_after(2000.0), Point::new(0.0, 0.0));
        // And starts over.
        assert_eq!(r.position_after(2300.0), Point::new(300.0, 0.0));
    }

    #[test]
    fn negative_distance_clamps_to_start() {
        assert_eq!(straight().position_after(-5.0), Point::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "bad speed")]
    fn zero_speed_rejected() {
        let path = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).unwrap();
        let _ = Route::new(RouteId::new(0), path, 0.0);
    }

    #[test]
    fn route_id_display() {
        assert_eq!(RouteId::new(3).to_string(), "route-3");
    }
}
