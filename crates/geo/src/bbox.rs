//! Axis-aligned bounding boxes.

use crate::Point;

/// An axis-aligned rectangle, used for the simulation area.
///
/// # Example
///
/// ```
/// use mlora_geo::{BBox, Point};
///
/// // The paper's 600 km² London area as a square.
/// let area = BBox::square(Point::ORIGIN, 24_495.0);
/// assert!(area.contains(Point::new(10_000.0, 20_000.0)));
/// assert!((area.area() / 1e6 - 600.0).abs() < 1.0); // ~600 km²
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    min: Point,
    max: Point,
}

impl BBox {
    /// Creates a box from two opposite corners.
    ///
    /// # Panics
    ///
    /// Panics if any corner coordinate is not finite or if `min` exceeds
    /// `max` on either axis.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(min.is_finite() && max.is_finite(), "non-finite bbox corner");
        assert!(
            min.x <= max.x && min.y <= max.y,
            "inverted bbox {min} .. {max}"
        );
        BBox { min, max }
    }

    /// Creates a square with the given lower-left `origin` and side length.
    ///
    /// # Panics
    ///
    /// Panics if `side` is negative or not finite.
    pub fn square(origin: Point, side: f64) -> Self {
        assert!(side.is_finite() && side >= 0.0, "bad side {side}");
        BBox::new(origin, Point::new(origin.x + side, origin.y + side))
    }

    /// The lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// The upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width along x, in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y, in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The centre point.
    pub fn center(&self) -> Point {
        self.min.lerp(self.max, 0.5)
    }

    /// True if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the box.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions() {
        let b = BBox::new(Point::new(1.0, 2.0), Point::new(4.0, 6.0));
        assert_eq!(b.width(), 3.0);
        assert_eq!(b.height(), 4.0);
        assert_eq!(b.area(), 12.0);
        assert_eq!(b.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn containment_and_clamp() {
        let b = BBox::square(Point::ORIGIN, 10.0);
        assert!(b.contains(Point::new(0.0, 0.0)));
        assert!(b.contains(Point::new(10.0, 10.0)));
        assert!(!b.contains(Point::new(10.1, 5.0)));
        assert_eq!(b.clamp(Point::new(-5.0, 20.0)), Point::new(0.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "inverted bbox")]
    fn inverted_rejected() {
        let _ = BBox::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }
}
