//! A uniform grid index.
//!
//! Section 6 of the paper: "We index the data points into a simple grid.
//! Since our algorithms are independent of a specific indexing structure, we
//! choose a grid in order to be able to see the effectiveness of our
//! algorithms even with simple structures." Each grid cell is a block that
//! stores its points and its point count.

use twoknn_geometry::{GeomResult, GeometryError, Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::BlockDirectory;
use crate::points::{BlockPoints, PointBlock};
use crate::traits::SpatialIndex;

/// A uniform `n × n` grid over the bounding rectangle of the indexed points.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    cells_per_axis: usize,
    cell_w: f64,
    cell_h: f64,
    blocks: Vec<BlockMeta>,
    /// 4×4 cell tiles, recursively tiled, over `blocks`.
    directory: BlockDirectory,
    /// Points of each cell in SoA layout, indexed by block id.
    cell_points: Vec<PointBlock>,
    num_points: usize,
}

impl GridIndex {
    /// Builds a grid over the bounding box of `points` with
    /// `cells_per_axis × cells_per_axis` cells.
    ///
    /// # Errors
    ///
    /// Returns an error if `points` is empty or `cells_per_axis` is zero.
    pub fn build(points: Vec<Point>, cells_per_axis: usize) -> GeomResult<Self> {
        let bounds = Rect::bounding(&points)?;
        Self::build_with_bounds(points, bounds, cells_per_axis)
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
    /// Returns an error if `cells_per_axis` is zero or `bounds` is degenerate
    /// in a way that prevents cell construction (NaN handled upstream).
    pub fn build_with_bounds(
        points: Vec<Point>,
        bounds: Rect,
        cells_per_axis: usize,
    ) -> GeomResult<Self> {
        if cells_per_axis == 0 {
            return Err(GeometryError::EmptyPointSet);
        }
        // Degenerate extents (all points identical on an axis) get a minimal
        // positive extent so that cell widths stay positive. The original max
        // coordinates are kept exactly (not recomputed as min + extent) so
        // that boundary points stay inside the last row/column of cells.
        let bounds = Rect::new(
            bounds.min_x,
            bounds.min_y,
            if bounds.width() > 0.0 {
                bounds.max_x
            } else {
                bounds.min_x + 1.0
            },
            if bounds.height() > 0.0 {
                bounds.max_y
            } else {
                bounds.min_y + 1.0
            },
        );
        let cell_w = bounds.width() / cells_per_axis as f64;
        let cell_h = bounds.height() / cells_per_axis as f64;

        let n_cells = cells_per_axis * cells_per_axis;
        let mut cell_points: Vec<PointBlock> = vec![PointBlock::new(); n_cells];
        let num_points = points.len();
        for p in points {
            let (ix, iy) = cell_of(&bounds, cell_w, cell_h, cells_per_axis, &p);
            cell_points[iy * cells_per_axis + ix].push(p);
        }

        let mut blocks = Vec::with_capacity(n_cells);
        for iy in 0..cells_per_axis {
            for ix in 0..cells_per_axis {
                let id = (iy * cells_per_axis + ix) as BlockId;
                // The last row/column ends exactly at the grid bounds so that
                // boundary points (clamped into the edge cells) are contained
                // in their cell's footprint despite floating-point rounding.
                let max_x = if ix + 1 == cells_per_axis {
                    bounds.max_x
                } else {
                    bounds.min_x + (ix + 1) as f64 * cell_w
                };
                let max_y = if iy + 1 == cells_per_axis {
                    bounds.max_y
                } else {
                    bounds.min_y + (iy + 1) as f64 * cell_h
                };
                let mbr = Rect::new(
                    bounds.min_x + ix as f64 * cell_w,
                    bounds.min_y + iy as f64 * cell_h,
                    max_x,
                    max_y,
                );
                blocks.push(BlockMeta::new(id, mbr, cell_points[id as usize].len()));
            }
        }

        Ok(Self {
            bounds,
            cells_per_axis,
            cell_w,
            cell_h,
            directory: BlockDirectory::grid_tiles(&blocks, cells_per_axis),
            blocks,
            cell_points,
            num_points,
        })
    }

    /// Builds a grid choosing the number of cells per axis so that the
    /// *average* occupied cell holds roughly `target_points_per_block` points.
    ///
    /// This mirrors the paper's setup where block granularity is a fixed
    /// index parameter independent of the algorithms.
    pub fn build_with_target_occupancy(
        points: Vec<Point>,
        target_points_per_block: usize,
    ) -> GeomResult<Self> {
        let n = points.len().max(1);
        let target = target_points_per_block.max(1);
        let cells = ((n as f64 / target as f64).sqrt().ceil() as usize).max(1);
        Self::build(points, cells)
    }

    /// The number of cells along each axis.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    /// The grid-cell coordinates (column, row) of the block containing `p`.
    pub fn cell_coords(&self, p: &Point) -> (usize, usize) {
        cell_of(
            &self.bounds,
            self.cell_w,
            self.cell_h,
            self.cells_per_axis,
            p,
        )
    }
}

fn cell_of(bounds: &Rect, cell_w: f64, cell_h: f64, n: usize, p: &Point) -> (usize, usize) {
    let ix = ((p.x - bounds.min_x) / cell_w).floor() as isize;
    let iy = ((p.y - bounds.min_y) / cell_h).floor() as isize;
    let clamp = |v: isize| v.clamp(0, n as isize - 1) as usize;
    (clamp(ix), clamp(iy))
}

impl SpatialIndex for GridIndex {
    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn num_points(&self) -> usize {
        self.num_points
    }

    fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        self.cell_points[id as usize].view()
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        if !self.bounds.expanded(1e-9).contains(p) {
            return None;
        }
        let (ix, iy) = self.cell_coords(p);
        Some((iy * self.cells_per_axis + ix) as BlockId)
    }

    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_index_invariants;

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
