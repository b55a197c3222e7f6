//! The clamped uniform grid every space decomposition of the workspace cuts
//! with: the grid index recipe's cells, a sharded relation's shards, the
//! delta overlay's cells and the standing-query guard registry's buckets.

use std::ops::RangeInclusive;

use crate::{Point, Rect};

/// An `n × n` uniform grid over `bounds`, cells numbered row-major.
///
/// A coordinate outside `bounds` clamps into the nearest edge cell, so every
/// point — and every rectangle, through [`CellGrid::span`] — maps to cells
/// of the grid. Clamping is monotone per axis: a point inside a rectangle
/// lands in a cell of the rectangle's span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    bounds: Rect,
    per_axis: usize,
    cell_w: f64,
    cell_h: f64,
}

impl CellGrid {
    /// A `per_axis × per_axis` grid over `bounds` (`per_axis` clamped to
    /// ≥ 1). `bounds` is used as given: on a zero-width or zero-height
    /// extent every coordinate of that axis clamps into the first or last
    /// cell.
    pub fn new(bounds: Rect, per_axis: usize) -> Self {
        let per_axis = per_axis.max(1);
        Self {
            bounds,
            per_axis,
            cell_w: bounds.width() / per_axis as f64,
            cell_h: bounds.height() / per_axis as f64,
        }
    }

    /// The extent the grid divides.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cells along each axis.
    pub fn per_axis(&self) -> usize {
        self.per_axis
    }

    /// Number of cells, `per_axis²`.
    pub fn num_cells(&self) -> usize {
        self.per_axis * self.per_axis
    }

    /// The clamped index along one axis of the cell holding `offset`
    /// (a coordinate minus the axis minimum) for cells `size` wide.
    #[inline]
    fn axis(&self, offset: f64, size: f64) -> usize {
        ((offset / size).floor() as isize).clamp(0, self.per_axis as isize - 1) as usize
    }

    #[inline]
    fn column(&self, x: f64) -> usize {
        self.axis(x - self.bounds.min_x, self.cell_w)
    }

    #[inline]
    fn row(&self, y: f64) -> usize {
        self.axis(y - self.bounds.min_y, self.cell_h)
    }

    /// The row-major cell `p` falls in, clamped into the edge cells.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> usize {
        self.row(p.y) * self.per_axis + self.column(p.x)
    }

    /// The clamped columns and rows of the cells `r` overlaps: every point
    /// inside `r` falls in a cell `row * per_axis + column` of them.
    pub fn span(&self, r: &Rect) -> (RangeInclusive<usize>, RangeInclusive<usize>) {
        (
            self.column(r.min_x)..=self.column(r.max_x),
            self.row(r.min_y)..=self.row(r.max_y),
        )
    }

    /// The footprint of cell `cell`. Edge `i` along an axis is
    /// `min + i × width / n`, except the last one, which is exactly the
    /// bound — so the cells tile `bounds` and a point on the max edge lies
    /// in its (clamped) cell despite rounding.
    pub fn cell_rect(&self, cell: usize) -> Rect {
        let n = self.per_axis;
        let edge = |i: usize, min: f64, max: f64, size: f64| {
            if i == n {
                max
            } else {
                min + i as f64 * size
            }
        };
        let b = &self.bounds;
        let x = |i| edge(i, b.min_x, b.max_x, self.cell_w);
        let y = |i| edge(i, b.min_y, b.max_y, self.cell_h);
        let (ix, iy) = (cell % n, cell / n);
        Rect::new(x(ix), y(iy), x(ix + 1), y(iy + 1))
    }
}

/// Cells per axis for `count` items at about `per_cell` items a cell:
/// `⌈√(count / per_cell)⌉`, between 1 and `cap`.
pub fn fanout(count: usize, per_cell: usize, cap: usize) -> usize {
    ((count as f64 / per_cell.max(1) as f64).sqrt().ceil() as usize).clamp(1, cap.max(1))
}

/// Whether a grid of `current` cells per axis is off by 2× or more from the
/// `desired` fanout, either way — when a growing or shrinking population
/// re-anchors its grid. Re-anchoring only then keeps the rebuilds' cost
/// amortized O(1) per item. A grid of 0 cells (none yet) is always
/// outgrown.
pub fn outgrown(current: usize, desired: usize) -> bool {
    desired >= current.saturating_mul(2) || desired.saturating_mul(2) <= current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_row_major_and_clamped() {
        let g = CellGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 2);
        assert_eq!(g.num_cells(), 4);
        assert_eq!(g.cell_of(&Point::anonymous(1.0, 1.0)), 0);
        assert_eq!(g.cell_of(&Point::anonymous(9.0, 1.0)), 1);
        assert_eq!(g.cell_of(&Point::anonymous(1.0, 9.0)), 2);
        assert_eq!(g.cell_of(&Point::anonymous(10.0, 10.0)), 3);
        assert_eq!(g.cell_of(&Point::anonymous(-5.0, -5.0)), 0);
        assert_eq!(g.cell_of(&Point::anonymous(100.0, 100.0)), 3);
        assert_eq!(g.cell_rect(3), Rect::new(5.0, 5.0, 10.0, 10.0));
        assert_eq!(
            g.span(&Rect::new(-1.0, 6.0, 4.0, 60.0)),
            (0..=0, 1..=1),
            "spans clamp too"
        );
        assert_eq!(
            CellGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0).per_axis(),
            1
        );
    }

    #[test]
    fn fanout_and_outgrown_follow_the_square_root_and_the_2x_rule() {
        assert_eq!(fanout(0, 32, 32), 1);
        assert_eq!(fanout(32, 32, 32), 1);
        assert_eq!(fanout(33, 32, 32), 2);
        assert_eq!(fanout(10_000, 32, 32), 18);
        assert_eq!(fanout(10_000_000, 32, 32), 32, "capped");
        assert_eq!(fanout(10, 0, 0), 1, "zero target and cap act as 1");
        assert!(outgrown(0, 1));
        assert!(outgrown(2, 4) && outgrown(4, 2));
        assert!(!outgrown(2, 3) && !outgrown(3, 2));
    }
}
