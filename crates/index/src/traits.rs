//! The [`SpatialIndex`] abstraction shared by all index implementations.
//!
//! Section 2 of the paper: "The algorithms we present do not assume a
//! specific indexing structure. The algorithms can be applied to a quadtree,
//! an R-tree, or any of their variants." The only capabilities the algorithms
//! need are captured by this trait: enumerate blocks with their point counts,
//! read the points inside a block, and locate the block containing a point.

use twoknn_geometry::{Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::BlockDirectory;
use crate::ordering::{DistanceCursor, OrderMetric};
use crate::points::BlockPoints;
use crate::scratch::ScratchSpace;

/// A block-based, in-memory spatial index over a set of 2-D points.
///
/// Implemented by [`crate::PackedIndex`], whichever recipe built it
/// ([`crate::GridIndex`], the structure used in the paper's evaluation,
/// [`crate::QuadtreeIndex`] or [`crate::StrRTree`]), and by views composed
/// over it, such as a store's snapshots.
pub trait SpatialIndex {
    /// The spatial extent covered by the index.
    fn bounds(&self) -> Rect;

    /// Total number of indexed points.
    fn num_points(&self) -> usize;

    /// Metadata (footprint + point count) for every block of the index.
    ///
    /// Block ids are dense in `0..blocks().len()`.
    fn blocks(&self) -> &[BlockMeta];

    /// The points stored in a block, as a borrowed SoA column view.
    ///
    /// Row-oriented consumers iterate the view (it yields [`Point`]s by
    /// value); the batched distance kernels read the `xs()`/`ys()` columns
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid block id of this index.
    fn block_points(&self, id: BlockId) -> BlockPoints<'_>;

    /// The block whose footprint contains `p`, if any.
    ///
    /// Used by Procedure 4 to mark the blocks that contain join-result points
    /// as *Candidate* blocks. When footprints overlap (R-tree leaves, cells
    /// sharing an edge), the block that stores `p` itself — same id and
    /// coordinates — is preferred; otherwise any containing block may be
    /// returned.
    fn locate(&self, p: &Point) -> Option<BlockId>;

    /// Number of blocks in the index.
    fn num_blocks(&self) -> usize {
        self.blocks().len()
    }

    /// The block directory of this index: a small tree over the block-id
    /// space that lets a [`DistanceCursor`] order blocks around a point
    /// without looking at every block. It must cover exactly
    /// `0..num_blocks()`; an index that has no structure of its own to offer
    /// returns [`BlockDirectory::packed`] over its blocks.
    fn directory(&self) -> &BlockDirectory;

    /// Convenience: all indexed points, flattened. Mainly for tests and
    /// brute-force baselines; order is unspecified.
    fn all_points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.num_points());
        for b in self.blocks() {
            out.extend(self.block_points(b.id));
        }
        out
    }

    /// An incremental ordering of this index's blocks by increasing MAXDIST
    /// from `p`, its frontier borrowed from `scratch`.
    fn maxdist_order<'a>(&'a self, p: &Point, scratch: &'a mut ScratchSpace) -> DistanceCursor<'a> {
        DistanceCursor::new(self, p, OrderMetric::MaxDist, scratch)
    }
}

/// Checks the structural invariants every implementation must maintain:
/// dense ids, per-block counts consistent with stored points, points inside
/// their block's footprint, and the total count matching `num_points`.
///
/// Exposed so that integration and property tests can validate any index.
pub fn check_index_invariants<I: SpatialIndex + ?Sized>(index: &I) -> Result<(), String> {
    let blocks = index.blocks();
    let mut total = 0usize;
    for (i, b) in blocks.iter().enumerate() {
        if b.id as usize != i {
            return Err(format!("block at position {i} has id {}", b.id));
        }
        let pts = index.block_points(b.id);
        if pts.len() != b.count {
            return Err(format!(
                "block {} count {} != stored points {}",
                b.id,
                b.count,
                pts.len()
            ));
        }
        for p in pts {
            if !b.mbr.contains(&p) {
                return Err(format!("point {p} outside block {} mbr {}", b.id, b.mbr));
            }
            if !index.bounds().contains(&p) {
                return Err(format!("point {p} outside index bounds"));
            }
        }
        total += pts.len();
    }
    if total != index.num_points() {
        return Err(format!(
            "sum of block counts {total} != num_points {}",
            index.num_points()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;

    #[test]
    fn default_methods_operate_on_blocks() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(i, (i % 10) as f64, (i / 10) as f64))
            .collect();
        let g = GridIndex::build(pts.clone(), 4).unwrap();
        assert_eq!(g.num_points(), 100);
        assert_eq!(g.num_blocks(), g.blocks().len());
        assert_eq!(g.all_points().len(), 100);
        check_index_invariants(&g).unwrap();

        let origin = Point::anonymous(0.0, 0.0);
        let mut scratch = ScratchSpace::new();
        let first = DistanceCursor::new(&g, &origin, OrderMetric::MinDist, &mut scratch)
            .next()
            .unwrap();
        assert_eq!(first.distance, 0.0);
        let mut max_order = g.maxdist_order(&origin, &mut scratch);
        let first_max = max_order.next().unwrap();
        assert!(first_max.distance > 0.0);
    }
}
