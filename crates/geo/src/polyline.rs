//! Polylines with arc-length parameterisation.

use crate::Point;

/// A piecewise-linear path (a bus route) supporting O(log n) queries of
/// "where am I after travelling `d` metres?".
///
/// # Example
///
/// ```
/// use mlora_geo::{Point, Polyline};
///
/// let route = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(100.0, 0.0),
///     Point::new(100.0, 50.0),
/// ]).unwrap();
/// assert_eq!(route.length(), 150.0);
/// assert_eq!(route.point_at(125.0), Point::new(100.0, 25.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Point>,
    /// Cumulative arc length at each vertex; `cum[0] == 0`.
    cum: Vec<f64>,
}

/// Error returned when constructing a [`Polyline`] from invalid vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolylineError {
    /// Fewer than two vertices were supplied.
    TooFewPoints,
    /// A vertex coordinate was NaN or infinite.
    NonFinitePoint,
}

impl std::fmt::Display for PolylineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolylineError::TooFewPoints => write!(f, "polyline needs at least two points"),
            PolylineError::NonFinitePoint => write!(f, "polyline point is not finite"),
        }
    }
}

impl std::error::Error for PolylineError {}

impl Polyline {
    /// Builds a polyline from its vertices.
    ///
    /// # Errors
    ///
    /// Returns [`PolylineError::TooFewPoints`] with fewer than two vertices
    /// and [`PolylineError::NonFinitePoint`] if any coordinate is NaN or
    /// infinite. Repeated vertices (zero-length segments) are allowed.
    pub fn new(points: Vec<Point>) -> Result<Self, PolylineError> {
        if points.len() < 2 {
            return Err(PolylineError::TooFewPoints);
        }
        if points.iter().any(|p| !p.is_finite()) {
            return Err(PolylineError::NonFinitePoint);
        }
        let mut cum = Vec::with_capacity(points.len());
        cum.push(0.0);
        for w in points.windows(2) {
            let last = *cum.last().expect("cum is non-empty");
            cum.push(last + w[0].distance(w[1]));
        }
        Ok(Polyline { points, cum })
    }

    /// Total length in metres.
    pub fn length(&self) -> f64 {
        *self.cum.last().expect("cum is non-empty")
    }

    /// The vertices.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// First vertex.
    pub fn start(&self) -> Point {
        self.points[0]
    }

    /// Last vertex.
    pub fn end(&self) -> Point {
        *self.points.last().expect("points is non-empty")
    }

    /// The position after travelling `distance` metres from the start.
    ///
    /// Distances are clamped to `[0, length()]`, so callers can feed raw
    /// `speed × elapsed` products without range checks.
    pub fn point_at(&self, distance: f64) -> Point {
        let d = distance.clamp(0.0, self.length());
        // Find the segment containing d: first index with cum[i] >= d.
        let i = self.cum.partition_point(|&c| c < d);
        self.interpolate(i, d)
    }

    /// [`Polyline::point_at`] with a segment cursor.
    ///
    /// `hint` is an opaque cursor (start it at 0) remembering the segment
    /// the previous query landed on; when consecutive distances are close
    /// — a vehicle advancing along its route — the containing segment is
    /// found by a short local walk instead of a binary search, making
    /// repeated position queries O(1) amortised.
    ///
    /// The returned point is bit-identical to [`Polyline::point_at`] for
    /// any `hint` value (out-of-range hints are clamped).
    pub fn point_at_hinted(&self, distance: f64, hint: &mut u32) -> Point {
        let d = distance.clamp(0.0, self.length());
        // Walk the cursor to the first index with cum[i] >= d — the same
        // index `point_at`'s partition_point finds.
        let mut i = (*hint as usize).min(self.cum.len() - 1);
        while self.cum[i] < d {
            i += 1;
        }
        while i > 0 && self.cum[i - 1] >= d {
            i -= 1;
        }
        *hint = i as u32;
        self.interpolate(i, d)
    }

    /// Interpolates within segment `i` (the first index with
    /// `cum[i] >= d`) — the shared arithmetic behind
    /// [`Polyline::point_at`] and [`Polyline::point_at_hinted`], so the
    /// two stay bit-identical by construction.
    fn interpolate(&self, i: usize, d: f64) -> Point {
        if i == 0 {
            return self.points[0];
        }
        let seg_start = self.cum[i - 1];
        let seg_len = self.cum[i] - seg_start;
        if seg_len <= 0.0 {
            return self.points[i];
        }
        let t = (d - seg_start) / seg_len;
        self.points[i - 1].lerp(self.points[i], t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 50.0),
        ])
        .unwrap()
    }

    #[test]
    fn length_sums_segments() {
        assert_eq!(l_shape().length(), 150.0);
    }

    #[test]
    fn point_at_interpolates() {
        let p = l_shape();
        assert_eq!(p.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(50.0), Point::new(50.0, 0.0));
        assert_eq!(p.point_at(100.0), Point::new(100.0, 0.0));
        assert_eq!(p.point_at(150.0), Point::new(100.0, 50.0));
    }

    #[test]
    fn point_at_clamps() {
        let p = l_shape();
        assert_eq!(p.point_at(-10.0), p.start());
        assert_eq!(p.point_at(1e9), p.end());
    }

    #[test]
    fn zero_length_segments_allowed() {
        let p = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
        ])
        .unwrap();
        assert_eq!(p.length(), 10.0);
        assert_eq!(p.point_at(5.0), Point::new(5.0, 0.0));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(
            Polyline::new(vec![Point::ORIGIN]).unwrap_err(),
            PolylineError::TooFewPoints
        );
        assert_eq!(
            Polyline::new(vec![Point::ORIGIN, Point::new(f64::NAN, 0.0)]).unwrap_err(),
            PolylineError::NonFinitePoint
        );
    }

    #[test]
    fn hinted_matches_point_at_bitwise() {
        // A path with a zero-length segment and uneven spacing.
        let p = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 37.5),
            Point::new(-4.0, 37.5),
        ])
        .unwrap();
        let mut hint = 0u32;
        // Monotone forward, then jumps backwards, then out-of-range hint.
        let mut ds: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.37).collect();
        ds.extend((0..50).map(|i| 40.0 - f64::from(i)));
        ds.extend([0.0, p.length(), -3.0, 1e9]);
        for d in ds {
            let want = p.point_at(d);
            let got = p.point_at_hinted(d, &mut hint);
            assert_eq!(want.x.to_bits(), got.x.to_bits(), "x differs at d={d}");
            assert_eq!(want.y.to_bits(), got.y.to_bits(), "y differs at d={d}");
        }
        // A stale hint far past the end is clamped.
        let mut bad = 999u32;
        assert_eq!(p.point_at_hinted(5.0, &mut bad), p.point_at(5.0));
        assert!(bad <= 4);
    }
}
