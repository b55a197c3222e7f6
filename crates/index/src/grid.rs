//! A uniform grid index.
//!
//! Section 6 of the paper: "We index the data points into a simple grid.
//! Since our algorithms are independent of a specific indexing structure, we
//! choose a grid in order to be able to see the effectiveness of our
//! algorithms even with simple structures." Each grid cell is a block that
//! stores its points and its point count.

use twoknn_geometry::{CellGrid, GeomResult, GeometryError, Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::BlockDirectory;
use crate::packed::{IndexConfig, Layout, PackedIndex};

/// The uniform-grid recipe: an `n × n` grid over the bounding rectangle of
/// the indexed points, each cell one block, cells numbered row-major. Its
/// directory is 4×4 cell tiles, recursively tiled.
///
/// A recipe has no values; its constructors return the [`PackedIndex`].
#[derive(Debug)]
pub enum GridIndex {}

impl GridIndex {
    /// Builds a grid over the bounding box of `points` with
    /// `cells_per_axis × cells_per_axis` cells.
    ///
    /// # Errors
    ///
    /// Returns an error if `points` is empty, `cells_per_axis` is zero or a
    /// coordinate is not finite.
    pub fn build(points: Vec<Point>, cells_per_axis: usize) -> GeomResult<PackedIndex> {
        PackedIndex::pack(IndexConfig::Grid { cells_per_axis }, points, Rect::bounding)
    }

    /// Builds a grid over an explicit bounding rectangle.
    ///
    /// Useful when several relations must share the same space decomposition
    /// (e.g. the unchained-joins algorithm marks *regions* of the space as
    /// Candidate or Safe) or when a relation is empty.
    ///
    /// Points falling outside `bounds` are clamped to the boundary cells so
    /// that no data is silently dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if `cells_per_axis` is zero or a coordinate is not
    /// finite.
    pub fn build_with_bounds(
        points: Vec<Point>,
        bounds: Rect,
        cells_per_axis: usize,
    ) -> GeomResult<PackedIndex> {
        PackedIndex::pack(IndexConfig::Grid { cells_per_axis }, points, |_| Ok(bounds))
    }

    /// Builds a grid choosing the number of cells per axis so that the
    /// *average* occupied cell holds roughly `target_points_per_block` points.
    ///
    /// This mirrors the paper's setup where block granularity is a fixed
    /// index parameter independent of the algorithms.
    ///
    /// # Errors
    ///
    /// As [`GridIndex::build`].
    pub fn build_with_target_occupancy(
        points: Vec<Point>,
        target_points_per_block: usize,
    ) -> GeomResult<PackedIndex> {
        let n = points.len().max(1);
        let target = target_points_per_block.max(1);
        let cells = ((n as f64 / target as f64).sqrt().ceil() as usize).max(1);
        Self::build(points, cells)
    }
}

/// [`SpatialIndex::locate`](crate::SpatialIndex::locate) on a grid by cell
/// arithmetic, in O(1) where a directory descent tests every tile child on
/// its way down: `p`'s cell, or `None` outside the grid.
pub(crate) fn locate(bounds: &Rect, n: usize, p: &Point) -> Option<BlockId> {
    bounds
        .expanded(1e-9)
        .contains(p)
        .then(|| CellGrid::new(*bounds, n).cell_of(p) as BlockId)
}

/// Buckets `points` into the row-major cells of a `cells_per_axis²` grid
/// over `bounds`, keeping input order within each cell. A point outside
/// `bounds` clamps into an edge cell. Every block's rectangle contains its
/// points.
pub(crate) fn partition(
    points: Vec<Point>,
    bounds: Rect,
    cells_per_axis: usize,
) -> GeomResult<Layout> {
    if cells_per_axis == 0 {
        return Err(GeometryError::EmptyPointSet);
    }
    // Degenerate extents (all points identical on an axis) get a minimal
    // positive extent so that cell widths stay positive. The original max
    // coordinates are kept exactly (not recomputed as min + extent) so
    // that boundary points stay inside the last row/column of cells.
    let pad = |min: f64, max: f64| if max > min { max } else { min + 1.0 };
    let bounds = Rect::new(
        bounds.min_x,
        bounds.min_y,
        pad(bounds.min_x, bounds.max_x),
        pad(bounds.min_y, bounds.max_y),
    );
    let grid = CellGrid::new(bounds, cells_per_axis);
    let mut cells: Vec<Vec<Point>> = vec![Vec::new(); grid.num_cells()];
    for p in points {
        cells[grid.cell_of(&p)].push(p);
    }
    // A block's rectangle is its cell's footprint grown to its points' box:
    // `cell_of` can floor a point one ulp past an interior edge into the cell
    // before it, and a point outside `bounds` clamps into an edge cell, so
    // the footprint alone need not contain every point the block stores.
    let blocks: Vec<BlockMeta> = (0..grid.num_cells())
        .map(|id| {
            let footprint = grid.cell_rect(id);
            let mbr = Rect::bounding(&cells[id]).map_or(footprint, |b| footprint.union(&b));
            BlockMeta::new(id as BlockId, mbr, cells[id].len())
        })
        .collect();
    Ok(Layout {
        bounds,
        directory: BlockDirectory::grid_tiles(&blocks, cells_per_axis),
        blocks,
        points: cells.concat(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_index_invariants, SpatialIndex};

    fn sample_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64 * 0.37;
                let y = (i % 23) as f64 * 0.61;
                Point::new(i as u64, x, y)
            })
            .collect()
    }

    #[test]
    fn build_produces_dense_block_ids_and_counts() {
        let g = GridIndex::build(sample_points(500), 8).unwrap();
        assert_eq!(g.num_blocks(), 64);
        assert_eq!(g.num_points(), 500);
        check_index_invariants(&g).unwrap();
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(GridIndex::build(vec![], 4).is_err());
        assert!(GridIndex::build(sample_points(10), 0).is_err());
    }

    #[test]
    fn locate_returns_containing_block() {
        let g = GridIndex::build(sample_points(300), 5).unwrap();
        for p in g.all_points() {
            let id = g.locate(&p).expect("point must be locatable");
            assert!(g.blocks()[id as usize].mbr.contains(&p));
            assert!(g.block_points(id).iter().any(|q| q.id == p.id));
        }
        // Far away points are not located.
        assert_eq!(g.locate(&Point::anonymous(1e9, 1e9)), None);
    }

    #[test]
    fn boundary_points_are_clamped_into_edge_cells() {
        let pts = vec![
            Point::new(0, 0.0, 0.0),
            Point::new(1, 10.0, 10.0), // exactly the max corner
            Point::new(2, 5.0, 5.0),
        ];
        let g = GridIndex::build(pts, 4).unwrap();
        check_index_invariants(&g).unwrap();
        assert_eq!(g.num_points(), 3);
        let id = g.locate(&Point::anonymous(10.0, 10.0)).unwrap();
        assert_eq!(id as usize, g.num_blocks() - 1);
    }

    #[test]
    fn degenerate_extent_still_builds() {
        // All points on a vertical line: zero width bounding box.
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i, 3.0, i as f64)).collect();
        let g = GridIndex::build(pts, 4).unwrap();
        check_index_invariants(&g).unwrap();
        assert_eq!(g.num_points(), 20);
    }

    #[test]
    fn identical_points_build() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i, 1.0, 1.0)).collect();
        let g = GridIndex::build(pts, 3).unwrap();
        check_index_invariants(&g).unwrap();
    }

    #[test]
    fn target_occupancy_controls_granularity() {
        let coarse = GridIndex::build_with_target_occupancy(sample_points(1000), 200).unwrap();
        let fine = GridIndex::build_with_target_occupancy(sample_points(1000), 5).unwrap();
        assert!(fine.num_blocks() > coarse.num_blocks());
    }

    #[test]
    fn shared_bounds_allow_empty_relations() {
        let bounds = Rect::new(0.0, 0.0, 100.0, 100.0);
        let g = GridIndex::build_with_bounds(vec![], bounds, 4).unwrap();
        assert_eq!(g.num_points(), 0);
        assert_eq!(g.num_blocks(), 16);
        check_index_invariants(&g).unwrap();
    }

    #[test]
    fn points_outside_explicit_bounds_are_clamped() {
        let bounds = Rect::new(0.0, 0.0, 10.0, 10.0);
        let pts = vec![Point::new(0, -5.0, 5.0), Point::new(1, 15.0, 5.0)];
        let g = GridIndex::build_with_bounds(pts, bounds, 2).unwrap();
        assert_eq!(g.num_points(), 2);
        // Clamped points may violate the "inside footprint" invariant check,
        // so we only assert they are stored and locatable by count here.
        let total: usize = g.blocks().iter().map(|b| b.count).sum();
        assert_eq!(total, 2);
    }
}
