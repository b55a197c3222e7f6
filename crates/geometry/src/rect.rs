//! Axis-aligned rectangles, used as the geometric footprint of index blocks.

use crate::{GeomResult, GeometryError, Point};

/// An axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// In the paper, hierarchical indexes (grid, quadtree, R-tree) partition the
/// space into *blocks*; each block's spatial footprint is a rectangle. All the
/// per-block quantities used by the algorithms — center, diagonal length,
/// MINDIST/MAXDIST from a query point — are derived from this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners,
    /// validating the inputs.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvertedRect`] if `min > max` on either axis
    /// and [`GeometryError::NonFiniteCoordinate`] for NaN/infinite inputs.
    pub fn try_new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> GeomResult<Self> {
        for value in [min_x, min_y, max_x, max_y] {
            if !value.is_finite() {
                return Err(GeometryError::NonFiniteCoordinate { value });
            }
        }
        if min_x > max_x || min_y > max_y {
            return Err(GeometryError::InvertedRect {
                min: (min_x, min_y),
                max: (max_x, max_y),
            });
        }
        Ok(Self {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// Creates a rectangle without validation (debug-asserted).
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rect");
        Self {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The smallest rectangle enclosing a non-empty set of points.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyPointSet`] for an empty slice.
    pub fn bounding(points: &[Point]) -> GeomResult<Self> {
        let first = points.first().ok_or(GeometryError::EmptyPointSet)?;
        let mut rect = Self::new(first.x, first.y, first.x, first.y);
        for p in &points[1..] {
            rect.min_x = rect.min_x.min(p.x);
            rect.min_y = rect.min_y.min(p.y);
            rect.max_x = rect.max_x.max(p.x);
            rect.max_y = rect.max_y.max(p.y);
        }
        Ok(rect)
    }

    /// Width of the rectangle (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center of the rectangle.
    ///
    /// Theorem 1 of the paper proves the center is the reference location that
    /// minimises the Block-Marking search threshold, which is why the
    /// preprocessing phase computes the neighborhood of the block *center*.
    #[inline]
    pub fn center(&self) -> Point {
        Point::anonymous(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Length of the rectangle's diagonal (`d` in Procedure 3).
    #[inline]
    pub fn diagonal(&self) -> f64 {
        let w = self.width();
        let h = self.height();
        (w * w + h * h).sqrt()
    }

    /// Whether the point lies inside the rectangle (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether this rectangle intersects another (boundary touching counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Whether `other` is fully contained in this rectangle.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// The smallest rectangle containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Expands the rectangle by `margin` on every side.
    #[inline]
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// The four corners of the rectangle, counter-clockwise from the
    /// lower-left corner.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::anonymous(self.min_x, self.min_y),
            Point::anonymous(self.max_x, self.min_y),
            Point::anonymous(self.max_x, self.max_y),
            Point::anonymous(self.min_x, self.max_y),
        ]
    }
}

/// A point is the degenerate rectangle `[x, x] × [y, y]`.
impl From<Point> for Rect {
    #[inline]
    fn from(p: Point) -> Self {
        Self::new(p.x, p.y, p.x, p.y)
    }
}

impl std::fmt::Display for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.3},{:.3}]x[{:.3},{:.3}]",
            self.min_x, self.max_x, self.min_y, self.max_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn try_new_validates() {
        assert!(Rect::try_new(0.0, 0.0, 1.0, 1.0).is_ok());
        assert!(matches!(
            Rect::try_new(2.0, 0.0, 1.0, 1.0),
            Err(GeometryError::InvertedRect { .. })
        ));
        assert!(matches!(
            Rect::try_new(f64::NAN, 0.0, 1.0, 1.0),
            Err(GeometryError::NonFiniteCoordinate { .. })
        ));
    }

    #[test]
    fn bounding_box_of_points() {
        let pts = vec![
            Point::new(1, 1.0, 5.0),
            Point::new(2, -2.0, 3.0),
            Point::new(3, 4.0, -1.0),
        ];
        let r = Rect::bounding(&pts).unwrap();
        assert_eq!(r, Rect::new(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::bounding(&[]).is_err());
    }

    #[test]
    fn dimensions_and_center() {
        let r = Rect::new(0.0, 0.0, 4.0, 3.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 3.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.diagonal(), 5.0);
        let c = r.center();
        assert_eq!((c.x, c.y), (2.0, 1.5));
    }

    #[test]
    fn containment_is_boundary_inclusive() {
        let r = unit();
        assert!(r.contains(&Point::anonymous(0.0, 0.0)));
        assert!(r.contains(&Point::anonymous(1.0, 1.0)));
        assert!(r.contains(&Point::anonymous(0.5, 0.5)));
        assert!(!r.contains(&Point::anonymous(1.0001, 0.5)));
    }

    #[test]
    fn intersection_and_union() {
        let a = unit();
        let b = Rect::new(0.5, 0.5, 2.0, 2.0);
        let c = Rect::new(3.0, 3.0, 4.0, 4.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Touching boundaries intersect.
        let d = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&d));
        assert_eq!(a.union(&c), Rect::new(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn contains_rect_and_expand() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert_eq!(inner.expanded(2.0), Rect::new(0.0, 0.0, 5.0, 5.0));
    }

    #[test]
    fn corners_are_ccw() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        let c = r.corners();
        assert_eq!((c[0].x, c[0].y), (0.0, 0.0));
        assert_eq!((c[1].x, c[1].y), (2.0, 0.0));
        assert_eq!((c[2].x, c[2].y), (2.0, 1.0));
        assert_eq!((c[3].x, c[3].y), (0.0, 1.0));
    }
}
