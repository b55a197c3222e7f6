//! Distance metrics: Euclidean, MINDIST, and MAXDIST.
//!
//! MINDIST and MAXDIST between a point `p` and a block `b` are the minimum and
//! maximum possible distance between `p` and *any* point inside `b`
//! (Roussopoulos, Kelley, Vincent — SIGMOD 1995; Section 2 of the paper). The
//! paper's algorithms scan blocks in MINDIST or MAXDIST order from a query
//! point, and use MAXDIST to decide whether a block is *completely included*
//! within a search threshold.

use crate::{Point, Rect};

/// Squared Euclidean distance between two points.
#[inline]
pub fn euclidean_sq(a: &Point, b: &Point) -> f64 {
    a.distance_sq(b)
}

/// Batched squared Euclidean distances from `(px, py)` to a column of points.
///
/// `xs`/`ys` are the coordinate columns of an SoA point block; `out[i]`
/// receives the squared distance to `(xs[i], ys[i])`. The loop is a straight
/// zip over the three slices — branch-free except for the trip count — so the
/// compiler can vectorize it, which is the point of storing blocks as columns
/// instead of `Vec<Point>`. Slices longer than the shortest input are left
/// untouched.
#[inline]
pub fn euclidean_sq_batch(px: f64, py: f64, xs: &[f64], ys: &[f64], out: &mut [f64]) {
    debug_assert_eq!(xs.len(), ys.len(), "coordinate columns must match");
    debug_assert_eq!(xs.len(), out.len(), "output buffer must match columns");
    for ((d, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - px;
        let dy = y - py;
        *d = dx * dx + dy * dy;
    }
}

/// Euclidean distance between two points.
#[inline]
pub fn euclidean(a: &Point, b: &Point) -> f64 {
    a.distance(b)
}

/// Squared MINDIST between a point and a rectangle.
///
/// Zero when the point lies inside (or on the boundary of) the rectangle;
/// otherwise the squared distance to the closest point of the rectangle.
#[inline]
pub fn mindist_sq(p: &Point, r: &Rect) -> f64 {
    let dx = axis_gap(p.x, r.min_x, r.max_x);
    let dy = axis_gap(p.y, r.min_y, r.max_y);
    dx * dx + dy * dy
}

/// MINDIST between a point and a rectangle.
#[inline]
pub fn mindist(p: &Point, r: &Rect) -> f64 {
    mindist_sq(p, r).sqrt()
}

/// Squared MAXDIST between a point and a rectangle: the squared distance from
/// the point to the farthest corner of the rectangle.
#[inline]
pub fn maxdist_sq(p: &Point, r: &Rect) -> f64 {
    let dx = (p.x - r.min_x).abs().max((p.x - r.max_x).abs());
    let dy = (p.y - r.min_y).abs().max((p.y - r.max_y).abs());
    dx * dx + dy * dy
}

/// MAXDIST between a point and a rectangle.
#[inline]
pub fn maxdist(p: &Point, r: &Rect) -> f64 {
    maxdist_sq(p, r).sqrt()
}

/// Squared MINDIST between two rectangles: the smallest squared distance
/// between a point of `a` and a point of `b` — zero when they overlap or
/// touch.
///
/// A degenerate `a` (a point) gives exactly [`mindist_sq`]: the axis gap is
/// the same `max(lo − v, v − hi, 0)` expression. Every operation rounds
/// monotonically, so for any `p` in `a` the result never exceeds
/// `mindist_sq(p, b)`, in floating point as well as in the reals.
#[inline]
pub fn rect_mindist_sq(a: &Rect, b: &Rect) -> f64 {
    let dx = (b.min_x - a.max_x).max(a.min_x - b.max_x).max(0.0);
    let dy = (b.min_y - a.max_y).max(a.min_y - b.max_y).max(0.0);
    dx * dx + dy * dy
}

/// Squared MAXDIST between two rectangles: the largest squared distance
/// between a point of `a` and a point of `b` (per axis, the farther pair of
/// opposite edges).
///
/// A degenerate `a` gives exactly [`maxdist_sq`], and for any `p` in `a` and
/// `q` in `b` the result is at least `p.distance_sq(&q)` in floating point
/// too — every operation rounds monotonically.
#[inline]
pub fn rect_maxdist_sq(a: &Rect, b: &Rect) -> f64 {
    let dx = (b.max_x - a.min_x).max(a.max_x - b.min_x);
    let dy = (b.max_y - a.min_y).max(a.max_y - b.min_y);
    dx * dx + dy * dy
}

/// Distance from coordinate `v` to the interval `[lo, hi]` (0 when inside).
///
/// Branchless: `max(lo - v, v - hi, 0)` — when `v` is inside the interval
/// both differences are ≤ 0 and the result clamps to 0; outside, exactly one
/// difference is positive. Compiles to two `maxsd`s instead of two compare
/// branches, so MINDIST scans over many blocks stay pipelined.
#[inline]
fn axis_gap(v: f64, lo: f64, hi: f64) -> f64 {
    (lo - v).max(v - hi).max(0.0)
}

/// Scalar/branchy reference implementations the unit tests below hold the
/// batched/branchless kernels to. These are the pre-SoA kernels.
#[cfg(test)]
mod baseline {
    use crate::{Point, Rect};

    /// The branchy `axis_gap` the branchless clamp replaced.
    #[inline]
    pub fn axis_gap_branchy(v: f64, lo: f64, hi: f64) -> f64 {
        if v < lo {
            lo - v
        } else if v > hi {
            v - hi
        } else {
            0.0
        }
    }

    /// Squared MINDIST via the branchy axis gap.
    #[inline]
    pub fn mindist_sq_branchy(p: &Point, r: &Rect) -> f64 {
        let dx = axis_gap_branchy(p.x, r.min_x, r.max_x);
        let dy = axis_gap_branchy(p.y, r.min_y, r.max_y);
        dx * dx + dy * dy
    }

    /// Per-point squared distances over an AoS `&[Point]` block — the scan
    /// loop the columnar [`euclidean_sq_batch`](super::euclidean_sq_batch)
    /// replaced. The 24-byte row stride defeats vectorization; the tests
    /// hold the columnar kernel to it.
    #[inline]
    pub fn euclidean_sq_scalar(q: &Point, points: &[Point], out: &mut [f64]) {
        for (d, p) in out.iter_mut().zip(points) {
            *d = q.distance_sq(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Rect {
        Rect::new(2.0, 2.0, 4.0, 6.0)
    }

    #[test]
    fn mindist_is_zero_inside_and_on_boundary() {
        let r = block();
        assert_eq!(mindist(&Point::anonymous(3.0, 4.0), &r), 0.0);
        assert_eq!(mindist(&Point::anonymous(2.0, 2.0), &r), 0.0);
        assert_eq!(mindist(&Point::anonymous(4.0, 6.0), &r), 0.0);
    }

    #[test]
    fn mindist_outside_is_distance_to_nearest_edge_or_corner() {
        let r = block();
        // Directly left of the rectangle: nearest point is on the left edge.
        assert_eq!(mindist(&Point::anonymous(0.0, 4.0), &r), 2.0);
        // Below-left: nearest point is the (2,2) corner, distance sqrt(2).
        let d = mindist(&Point::anonymous(1.0, 1.0), &r);
        assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn maxdist_is_distance_to_farthest_corner() {
        let r = block();
        // From the center, the farthest corner is any corner: dx=1, dy=2.
        let d = maxdist(&Point::anonymous(3.0, 4.0), &r);
        assert!((d - (1.0f64 + 4.0).sqrt()).abs() < 1e-12);
        // From far left, the farthest corner is (4, 6) or (4, 2).
        let d = maxdist(&Point::anonymous(0.0, 2.0), &r);
        assert!((d - (16.0f64 + 16.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mindist_never_exceeds_maxdist() {
        let r = block();
        for (x, y) in [(0.0, 0.0), (3.0, 4.0), (10.0, -3.0), (2.0, 6.0)] {
            let p = Point::anonymous(x, y);
            assert!(mindist(&p, &r) <= maxdist(&p, &r) + 1e-12);
        }
    }

    #[test]
    fn squared_variants_are_consistent() {
        let r = block();
        let p = Point::anonymous(-1.0, 8.0);
        assert!((mindist_sq(&p, &r).sqrt() - mindist(&p, &r)).abs() < 1e-12);
        assert!((maxdist_sq(&p, &r).sqrt() - maxdist(&p, &r)).abs() < 1e-12);
    }

    /// The branchless clamp-based `axis_gap` must agree with the branchy
    /// reference on every region: inside, outside each side, and exactly on
    /// the boundaries and corners (where `<` vs `<=` bugs would hide).
    #[test]
    fn branchless_mindist_matches_branchy_on_boundaries_and_corners() {
        let r = block(); // [2,4] x [2,6]
        let edge_values = [
            1.0, 1.999999, 2.0, 2.000001, 3.0, 4.0, 4.000001, 5.9, 6.0, 6.1, -7.0, 100.0,
        ];
        for &x in &edge_values {
            for &y in &edge_values {
                let p = Point::anonymous(x, y);
                assert_eq!(
                    mindist_sq(&p, &r),
                    baseline::mindist_sq_branchy(&p, &r),
                    "mismatch at ({x}, {y})"
                );
            }
        }
        // Degenerate rect (a single point): gap is a plain |v - c| distance.
        let degenerate = Rect::new(3.0, 3.0, 3.0, 3.0);
        for &x in &edge_values {
            let p = Point::anonymous(x, 3.0);
            assert_eq!(
                mindist_sq(&p, &degenerate),
                baseline::mindist_sq_branchy(&p, &degenerate)
            );
        }
        // Pseudo-random sweep over a wider range, including negative zeros.
        for i in 0..4096u64 {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            let x = ((h % 2_000) as f64 - 1_000.0) * 0.01;
            let y = (((h >> 20) % 2_000) as f64 - 1_000.0) * 0.01;
            let p = Point::anonymous(x, y);
            assert_eq!(mindist_sq(&p, &r), baseline::mindist_sq_branchy(&p, &r));
        }
        assert_eq!(mindist_sq(&Point::anonymous(-0.0, 3.0), &r), 4.0);
    }

    /// The batched column kernel computes exactly the same squared distances
    /// as the per-point scalar loop (identical expression, identical results).
    #[test]
    fn batched_distances_equal_scalar_distances() {
        let q = Point::anonymous(3.7, -1.2);
        let points: Vec<Point> = (0..257)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x2545F4914F6CDD1D);
                Point::new(
                    i as u64,
                    (h % 1000) as f64 * 0.07 - 30.0,
                    ((h >> 24) % 1000) as f64 * 0.07 - 30.0,
                )
            })
            .collect();
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        let mut batched = vec![0.0; points.len()];
        let mut scalar = vec![0.0; points.len()];
        euclidean_sq_batch(q.x, q.y, &xs, &ys, &mut batched);
        baseline::euclidean_sq_scalar(&q, &points, &mut scalar);
        assert_eq!(batched, scalar, "bit-identical distances");
        for (d, p) in batched.iter().zip(&points) {
            assert_eq!(*d, q.distance_sq(p));
        }
    }

    /// Rect-to-rect MINDIST²/MAXDIST² bound the squared distance of every
    /// sampled pair `p ∈ a`, `q ∈ b` — corners, edges and interior — and are
    /// attained: by the pair of clamped nearest points and by a pair of
    /// corners. The layouts cover disjoint, overlapping, touching (on an edge
    /// and on a corner), nested and identical rects, plus zero-width ones.
    #[test]
    fn rect_distances_bound_and_attain_sampled_pair_distances() {
        let b = block(); // [2,4] x [2,6]
        let layouts = [
            Rect::new(7.0, -3.0, 9.5, 0.5),  // disjoint, diagonal
            Rect::new(-5.0, 3.0, -1.0, 4.0), // disjoint, left
            Rect::new(3.0, 5.0, 8.0, 9.0),   // overlapping
            Rect::new(4.0, 0.0, 5.0, 3.0),   // touching along an edge
            Rect::new(4.0, 6.0, 5.5, 7.25),  // touching at a corner
            Rect::new(2.5, 3.0, 3.5, 4.0),   // nested inside b
            Rect::new(0.0, 0.0, 10.0, 10.0), // b nested inside
            b,                               // identical
            Rect::new(3.0, -2.0, 3.0, 8.0),  // zero width, crossing
            Rect::new(-1.5, 7.0, -1.5, 7.0), // a point
        ];
        let samples = |r: &Rect| -> Vec<Point> {
            let mut pts: Vec<Point> = r.corners().to_vec();
            for i in 0..64u64 {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                let (u, v) = (
                    (h % 1001) as f64 / 1000.0,
                    ((h >> 20) % 1001) as f64 / 1000.0,
                );
                pts.push(Point::anonymous(
                    (r.min_x + u * r.width()).min(r.max_x),
                    (r.min_y + v * r.height()).min(r.max_y),
                ));
            }
            pts
        };
        let clamp = |p: &Point, r: &Rect| {
            Point::anonymous(p.x.clamp(r.min_x, r.max_x), p.y.clamp(r.min_y, r.max_y))
        };
        for a in layouts {
            let (lo, hi) = (rect_mindist_sq(&a, &b), rect_maxdist_sq(&a, &b));
            assert_eq!(lo, rect_mindist_sq(&b, &a), "{a}: symmetric");
            assert_eq!(hi, rect_maxdist_sq(&b, &a), "{a}: symmetric");
            assert_eq!(
                lo == 0.0,
                a.intersects(&b),
                "{a}: zero exactly when touching"
            );
            let (mut nearest, mut farthest) = (f64::INFINITY, 0.0f64);
            for p in samples(&a) {
                assert!(lo <= mindist_sq(&p, &b), "{a}: {p}");
                assert!(maxdist_sq(&p, &b) <= hi, "{a}: {p}");
                for q in samples(&b) {
                    let d = p.distance_sq(&q);
                    assert!(lo <= d && d <= hi, "{a}: {p} {q}");
                    farthest = farthest.max(d);
                }
                nearest = nearest.min(p.distance_sq(&clamp(&p, &b)));
            }
            // The nearest pair: a corner of the overlap (or gap) of a and b
            // clamped into b.
            let gap_corner = clamp(&clamp(&b.center(), &a), &b);
            let from = clamp(&gap_corner, &a);
            nearest = nearest.min(from.distance_sq(&gap_corner));
            assert_eq!(nearest, lo, "{a}: MINDIST attained");
            assert_eq!(farthest, hi, "{a}: MAXDIST attained at corners");
        }
    }

    /// A point is the degenerate rect: the rect-to-rect helpers give the
    /// point-to-rect MINDIST² and MAXDIST² bit for bit, inside, outside and
    /// on the boundary, so a cursor keyed by rect origins orders point
    /// queries exactly as before.
    #[test]
    fn degenerate_rect_equals_point_distances_bit_for_bit() {
        let r = block();
        let edge_values = [
            -7.0, 1.0, 1.999999, 2.0, 2.000001, 3.0, 4.0, 5.9, 6.0, 6.1, 100.0,
        ];
        let mut pts: Vec<Point> = Vec::new();
        for &x in &edge_values {
            for &y in &edge_values {
                pts.push(Point::anonymous(x, y));
            }
        }
        for i in 0..4096u64 {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            pts.push(Point::anonymous(
                ((h % 2_000) as f64 - 1_000.0) * 0.0137,
                (((h >> 20) % 2_000) as f64 - 1_000.0) * 0.0091,
            ));
        }
        for p in pts {
            let at = Rect::new(p.x, p.y, p.x, p.y);
            assert_eq!(
                rect_mindist_sq(&at, &r).to_bits(),
                mindist_sq(&p, &r).to_bits(),
                "{p}"
            );
            assert_eq!(
                rect_maxdist_sq(&at, &r).to_bits(),
                maxdist_sq(&p, &r).to_bits(),
                "{p}"
            );
        }
    }

    #[test]
    fn point_inside_block_bounds_hold_for_contained_points() {
        // MINDIST <= d(p, q) <= MAXDIST for any q inside the block.
        let r = block();
        let p = Point::anonymous(9.0, 9.0);
        for (qx, qy) in [(2.0, 2.0), (3.3, 5.1), (4.0, 6.0), (2.5, 4.4)] {
            let q = Point::anonymous(qx, qy);
            assert!(r.contains(&q));
            let d = euclidean(&p, &q);
            assert!(mindist(&p, &r) <= d + 1e-12);
            assert!(d <= maxdist(&p, &r) + 1e-12);
        }
    }
}
