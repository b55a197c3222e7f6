//! Structure-of-arrays (SoA) block storage: [`PointBlock`] and its borrowed
//! view [`BlockPoints`].
//!
//! Every algorithm in this workspace bottoms out in per-block point scans.
//! Storing a block as `Vec<Point>` (array-of-structs) interleaves the 8-byte
//! id between the coordinates, giving the distance loop a 24-byte stride that
//! defeats auto-vectorization. A [`PointBlock`] stores the same points as
//! three parallel columns — `ids`, `xs`, `ys` — so the hot kernels
//! ([`twoknn_geometry::euclidean_sq_batch`], the kth-distance scan in
//! [`crate::scratch`]) run over contiguous `&[f64]` slices the compiler can
//! vectorize.
//!
//! [`BlockPoints`] is the `&[Point]`-shaped borrow of a block that
//! [`crate::SpatialIndex::block_points`] hands out: a `Copy` view over the
//! three columns. Its iterator yields [`Point`]s **by value** (reassembled
//! from the columns), so row-oriented consumers — result pair construction,
//! invariant checks — read exactly what they read before the layout change,
//! while column-oriented kernels grab `xs()`/`ys()` directly.

use twoknn_geometry::{GeomResult, GeometryError, Point, PointId, Rect};

/// An owned block of points in structure-of-arrays layout.
///
/// Invariant: the three columns always have identical lengths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointBlock {
    ids: Vec<PointId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PointBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty block with room for `n` points per column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ids: Vec::with_capacity(n),
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// Columnarizes a row-oriented slice of points.
    pub fn from_points(points: &[Point]) -> Self {
        let mut block = Self::with_capacity(points.len());
        for p in points {
            block.push(*p);
        }
        block
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends a point to the columns.
    #[inline]
    pub fn push(&mut self, p: Point) {
        self.ids.push(p.id);
        self.xs.push(p.x);
        self.ys.push(p.y);
    }

    /// Appends every point of `points`, one slice copy per column.
    pub fn extend_from(&mut self, points: BlockPoints<'_>) {
        self.ids.extend_from_slice(points.ids());
        self.xs.extend_from_slice(points.xs());
        self.ys.extend_from_slice(points.ys());
    }

    /// The point at row `i`, reassembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.ids[i], self.xs[i], self.ys[i])
    }

    /// Removes the point at row `i` by swapping in the last row (O(1), does
    /// not preserve order) and returns it.
    pub fn swap_remove(&mut self, i: usize) -> Point {
        Point::new(
            self.ids.swap_remove(i),
            self.xs.swap_remove(i),
            self.ys.swap_remove(i),
        )
    }

    /// The row storing the point with `id`, if any (linear scan over the
    /// contiguous id column).
    #[inline]
    pub fn position_by_id(&self, id: PointId) -> Option<usize> {
        self.ids.iter().position(|&q| q == id)
    }

    /// The borrowed SoA view of the block.
    #[inline]
    pub fn view(&self) -> BlockPoints<'_> {
        BlockPoints {
            ids: &self.ids,
            xs: &self.xs,
            ys: &self.ys,
        }
    }

    /// Iterator over the points, reassembled by value.
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.view().iter()
    }

    /// The points as a row-oriented `Vec` (tests, compaction gather).
    pub fn to_vec(&self) -> Vec<Point> {
        self.iter().collect()
    }

    /// Tight bounding box of the block's points.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyPointSet`] for an empty block.
    pub fn bounding(&self) -> GeomResult<Rect> {
        self.view().bounding()
    }
}

impl FromIterator<Point> for PointBlock {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut block = Self::with_capacity(iter.size_hint().0);
        for p in iter {
            block.push(p);
        }
        block
    }
}

impl From<Vec<Point>> for PointBlock {
    fn from(points: Vec<Point>) -> Self {
        Self::from_points(&points)
    }
}

/// A borrowed, `Copy` view of a block's point columns — what
/// [`crate::SpatialIndex::block_points`] returns.
#[derive(Debug, Clone, Copy)]
pub struct BlockPoints<'a> {
    ids: &'a [PointId],
    xs: &'a [f64],
    ys: &'a [f64],
}

impl<'a> BlockPoints<'a> {
    /// A view over three parallel columns.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the columns' lengths differ.
    pub fn from_columns(ids: &'a [PointId], xs: &'a [f64], ys: &'a [f64]) -> Self {
        debug_assert!(
            ids.len() == xs.len() && xs.len() == ys.len(),
            "SoA columns must have equal lengths"
        );
        Self { ids, xs, ys }
    }

    /// The empty view.
    pub const fn empty() -> Self {
        Self {
            ids: &[],
            xs: &[],
            ys: &[],
        }
    }

    /// Number of points in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id column.
    #[inline]
    pub fn ids(&self) -> &'a [PointId] {
        self.ids
    }

    /// The x-coordinate column.
    #[inline]
    pub fn xs(&self) -> &'a [f64] {
        self.xs
    }

    /// The y-coordinate column.
    #[inline]
    pub fn ys(&self) -> &'a [f64] {
        self.ys
    }

    /// The point at row `i`, reassembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.ids[i], self.xs[i], self.ys[i])
    }

    /// Iterator over the points, reassembled by value.
    pub fn iter(&self) -> BlockPointsIter<'a> {
        BlockPointsIter {
            view: *self,
            front: 0,
        }
    }

    /// Tight bounding box of the viewed points.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyPointSet`] for an empty view.
    pub fn bounding(&self) -> GeomResult<Rect> {
        if self.is_empty() {
            return Err(GeometryError::EmptyPointSet);
        }
        // Column-wise min/max folds — branch-light and vectorizable, unlike
        // the row-at-a-time `Rect::bounding`.
        let fold = |col: &[f64]| {
            col.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                })
        };
        let (min_x, max_x) = fold(self.xs);
        let (min_y, max_y) = fold(self.ys);
        Ok(Rect::new(min_x, min_y, max_x, max_y))
    }
}

impl<'a> IntoIterator for BlockPoints<'a> {
    type Item = Point;
    type IntoIter = BlockPointsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`BlockPoints`] view, yielding [`Point`]s by value.
#[derive(Debug, Clone)]
pub struct BlockPointsIter<'a> {
    view: BlockPoints<'a>,
    front: usize,
}

impl Iterator for BlockPointsIter<'_> {
    type Item = Point;

    #[inline]
    fn next(&mut self) -> Option<Point> {
        if self.front < self.view.len() {
            let p = self.view.get(self.front);
            self.front += 1;
            Some(p)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.view.len() - self.front;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BlockPointsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as u64, i as f64 * 1.5, 10.0 - i as f64))
            .collect()
    }

    #[test]
    fn columns_roundtrip_points() {
        let input = pts(7);
        let block = PointBlock::from_points(&input);
        assert_eq!(block.len(), 7);
        assert_eq!(block.to_vec(), input);
        for (i, p) in input.iter().enumerate() {
            assert_eq!(block.get(i), *p);
            assert_eq!(block.view().get(i), *p);
        }
        let collected: PointBlock = input.iter().copied().collect();
        assert_eq!(collected, block);
    }

    #[test]
    fn view_exposes_raw_columns() {
        let block = PointBlock::from_points(&pts(4));
        let v = block.view();
        assert_eq!(v.ids(), &[0, 1, 2, 3]);
        assert_eq!(v.xs(), &[0.0, 1.5, 3.0, 4.5]);
        assert_eq!(v.ys(), &[10.0, 9.0, 8.0, 7.0]);
        assert_eq!(v.iter().len(), 4);
    }

    #[test]
    fn swap_remove_and_position_by_id() {
        let mut block = PointBlock::from_points(&pts(5));
        assert_eq!(block.position_by_id(3), Some(3));
        let removed = block.swap_remove(1);
        assert_eq!(removed.id, 1);
        assert_eq!(block.len(), 4);
        // Row 1 now holds the former last point; columns stay aligned.
        assert_eq!(block.get(1), Point::new(4, 6.0, 6.0));
        assert_eq!(block.position_by_id(1), None);
    }

    #[test]
    fn bounding_matches_row_oriented_rect_bounding() {
        let input = pts(9);
        let block = PointBlock::from_points(&input);
        assert_eq!(block.bounding().unwrap(), Rect::bounding(&input).unwrap());
        assert!(PointBlock::new().bounding().is_err());
        assert!(BlockPoints::empty().bounding().is_err());
    }

    #[test]
    fn empty_view_iterates_nothing() {
        assert_eq!(BlockPoints::empty().iter().count(), 0);
        assert!(BlockPoints::empty().is_empty());
    }
}
