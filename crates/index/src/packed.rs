//! The one block store every index family builds: [`PackedIndex`], and the
//! [`IndexConfig`] recipe that says how its points were partitioned.
//!
//! The paper's algorithms need blocks with footprints and counts, the points
//! of a block, and `locate` — nothing that depends on how the blocks were
//! found. So the grid, the quadtree and the STR R-tree are *recipes*: each
//! partitions the points into blocks and builds a directory over them
//! ([`crate::GridIndex`], [`crate::QuadtreeIndex`], [`crate::StrRTree`]),
//! then hands both to one packing step that lays every block's points out
//! in a single `ids`/`xs`/`ys` arena, block after block in block-id order.
//! A block is a range of that arena; a block file opens straight into it.

use twoknn_geometry::{GeomResult, Point, PointId, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::BlockDirectory;
use crate::points::BlockPoints;
use crate::traits::SpatialIndex;
use crate::{grid, quadtree, rtree};

/// How an index's points are partitioned into blocks: the family and its
/// granularity. Every [`PackedIndex`] records the recipe that built it, and
/// a store rebuilds a relation's base with [`IndexConfig::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexConfig {
    /// A uniform grid ([`crate::GridIndex`]) with `cells_per_axis` cells
    /// along each axis.
    Grid {
        /// Cells along each axis.
        cells_per_axis: usize,
    },
    /// A PR-quadtree ([`crate::QuadtreeIndex`]) with the given leaf capacity
    /// and subdivision depth limit.
    Quadtree {
        /// Leaf split threshold.
        capacity: usize,
        /// Maximum subdivision depth ([`crate::DEFAULT_MAX_DEPTH`]
        /// reproduces [`crate::QuadtreeIndex::build`]).
        max_depth: usize,
    },
    /// An STR-packed R-tree ([`crate::StrRTree`]) with the given leaf
    /// capacity.
    RTree {
        /// Points per leaf.
        leaf_capacity: usize,
    },
}

impl IndexConfig {
    /// Builds a fresh index of this family over `points`.
    ///
    /// `bounds_hint` (a previous index's extent) keeps the space
    /// decomposition meaningful when `points` is empty or degenerate: grid
    /// and quadtree cover the points' bounding box extended to the hint. An
    /// empty R-tree cannot be represented, so that corner case falls back to
    /// a single-cell grid over the hint bounds — a store restores the family
    /// at its next rebuild once the relation has points again.
    ///
    /// # Errors
    ///
    /// As the family's own constructor: a zero granularity, or a point with
    /// a NaN or infinite coordinate
    /// ([`twoknn_geometry::GeometryError::NonFiniteCoordinate`]).
    pub fn build(&self, points: Vec<Point>, bounds_hint: Rect) -> GeomResult<PackedIndex> {
        let hinted =
            |pts: &[Point]| Ok(Rect::bounding(pts).map_or(bounds_hint, |b| b.union(&bounds_hint)));
        match self {
            IndexConfig::RTree { .. } if points.is_empty() => {
                PackedIndex::pack(IndexConfig::Grid { cells_per_axis: 1 }, points, |_| {
                    Ok(bounds_hint)
                })
            }
            // STR leaves are tight: the hint would only pad the extent.
            IndexConfig::RTree { .. } => PackedIndex::pack(*self, points, Rect::bounding),
            _ => PackedIndex::pack(*self, points, hinted),
        }
    }
}

/// What a recipe hands to the packing step: the index extent, the blocks
/// (dense ids, footprints, counts), every point in block-id order, and the
/// directory over the blocks.
pub(crate) struct Layout {
    pub(crate) bounds: Rect,
    pub(crate) blocks: Vec<BlockMeta>,
    pub(crate) points: Vec<Point>,
    pub(crate) directory: BlockDirectory,
}

/// A block-based spatial index whose points live in one structure-of-arrays
/// arena: block `b`'s points are rows `offsets[b]..offsets[b + 1]` of the
/// `ids`, `xs` and `ys` columns.
///
/// Built by a recipe ([`crate::GridIndex`], [`crate::QuadtreeIndex`],
/// [`crate::StrRTree`], [`IndexConfig::build`]) or assembled from decoded
/// columns with [`PackedIndex::from_columns`]. Immutable once built.
#[derive(Debug, Clone)]
pub struct PackedIndex {
    bounds: Rect,
    blocks: Vec<BlockMeta>,
    directory: BlockDirectory,
    /// Per block, its first arena row; one trailing entry holds the point
    /// count.
    offsets: Vec<usize>,
    ids: Vec<PointId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    recipe: IndexConfig,
}

impl PackedIndex {
    /// The shared build path of every recipe: rejects non-finite
    /// coordinates, partitions `points` as `recipe` says over the extent
    /// `bounds` computes from them, and packs the result.
    pub(crate) fn pack(
        recipe: IndexConfig,
        points: Vec<Point>,
        bounds: impl FnOnce(&[Point]) -> GeomResult<Rect>,
    ) -> GeomResult<Self> {
        for p in &points {
            Point::try_new(p.id, p.x, p.y)?;
        }
        let bounds = bounds(&points)?;
        let Layout {
            bounds,
            blocks,
            points,
            directory,
        } = match recipe {
            IndexConfig::Grid { cells_per_axis } => grid::partition(points, bounds, cells_per_axis),
            IndexConfig::Quadtree {
                capacity,
                max_depth,
            } => quadtree::partition(points, bounds, capacity, max_depth),
            IndexConfig::RTree { leaf_capacity } => rtree::partition(points, bounds, leaf_capacity),
        }?;
        let ids = points.iter().map(|p| p.id).collect();
        let xs = points.iter().map(|p| p.x).collect();
        let ys = points.iter().map(|p| p.y).collect();
        Ok(Self::assemble(
            recipe, bounds, blocks, directory, ids, xs, ys,
        ))
    }

    /// An index over blocks that are already partitioned and columnarized —
    /// how a block file opens: `blocks` in id order with their counts, and
    /// the three columns holding every block's points, block after block.
    /// Each block's rectangle grows to cover its points (a file written by
    /// an older grid build may hold a footprint that misses a point by an
    /// ulp), and the directory is packed from the grown rectangles.
    ///
    /// # Panics
    ///
    /// Panics when the columns' lengths differ from each other or from the
    /// sum of the block counts, or when a grid `recipe` does not have one
    /// block per cell (a grid locates by cell arithmetic).
    pub fn from_columns(
        recipe: IndexConfig,
        bounds: Rect,
        blocks: Vec<BlockMeta>,
        ids: Vec<PointId>,
        xs: Vec<f64>,
        ys: Vec<f64>,
    ) -> Self {
        let mut blocks = blocks;
        let mut rows = xs.iter().zip(&ys);
        for b in &mut blocks {
            for (&x, &y) in rows.by_ref().take(b.count) {
                b.mbr = b.mbr.union(&Rect::new(x, y, x, y));
            }
        }
        let directory = BlockDirectory::packed(&blocks);
        Self::assemble(recipe, bounds, blocks, directory, ids, xs, ys)
    }

    fn assemble(
        recipe: IndexConfig,
        bounds: Rect,
        blocks: Vec<BlockMeta>,
        directory: BlockDirectory,
        ids: Vec<PointId>,
        xs: Vec<f64>,
        ys: Vec<f64>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        let mut at = 0;
        offsets.push(at);
        for b in &blocks {
            at += b.count;
            offsets.push(at);
        }
        assert!(
            ids.len() == at && xs.len() == at && ys.len() == at,
            "the columns hold exactly the blocks' points"
        );
        if let IndexConfig::Grid { cells_per_axis: n } = recipe {
            assert_eq!(blocks.len(), n * n, "a grid's blocks are its cells");
        }
        Self {
            bounds,
            blocks,
            directory,
            offsets,
            ids,
            xs,
            ys,
            recipe,
        }
    }

    /// The recipe that partitioned this index's points.
    pub fn recipe(&self) -> IndexConfig {
        self.recipe
    }
}

impl SpatialIndex for PackedIndex {
    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn num_points(&self) -> usize {
        self.ids.len()
    }

    fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    #[inline]
    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        let rows = self.offsets[id as usize]..self.offsets[id as usize + 1];
        BlockPoints::from_columns(
            &self.ids[rows.clone()],
            &self.xs[rows.clone()],
            &self.ys[rows],
        )
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        match self.recipe {
            IndexConfig::Grid { cells_per_axis } => grid::locate(&self.bounds, cells_per_axis, p),
            _ => self
                .directory
                .locate(&self.blocks, p, |id| self.block_points(id)),
        }
    }

    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_index_invariants;
    use crate::{GridIndex, QuadtreeIndex, StrRTree, DEFAULT_MAX_DEPTH};

    fn scattered(n: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point::new(
                    i,
                    (h % 1013) as f64 * 0.11,
                    ((h / 1013) % 1013) as f64 * 0.11,
                )
            })
            .collect()
    }

    #[test]
    fn every_recipe_records_itself_on_its_index() {
        let pts = scattered(80);
        assert_eq!(
            GridIndex::build(pts.clone(), 7).unwrap().recipe(),
            IndexConfig::Grid { cells_per_axis: 7 }
        );
        assert_eq!(
            QuadtreeIndex::build(pts.clone(), 12).unwrap().recipe(),
            IndexConfig::Quadtree {
                capacity: 12,
                max_depth: DEFAULT_MAX_DEPTH,
            }
        );
        assert_eq!(
            StrRTree::build(pts, 9).unwrap().recipe(),
            IndexConfig::RTree { leaf_capacity: 9 }
        );
    }

    #[test]
    fn blocks_are_consecutive_ranges_of_one_arena() {
        let index = QuadtreeIndex::build(scattered(500), 16).unwrap();
        check_index_invariants(&index).unwrap();
        let mut rows = 0;
        for b in index.blocks() {
            let view = index.block_points(b.id);
            assert_eq!(view.ids(), &index.ids[rows..rows + b.count]);
            assert_eq!(view.xs(), &index.xs[rows..rows + b.count]);
            rows += b.count;
        }
        assert_eq!(rows, index.num_points());
        let rebuilt = PackedIndex::from_columns(
            index.recipe(),
            index.bounds(),
            index.blocks().to_vec(),
            index.ids.clone(),
            index.xs.clone(),
            index.ys.clone(),
        );
        check_index_invariants(&rebuilt).unwrap();
        assert_eq!(rebuilt.all_points(), index.all_points());
    }
}
