//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! The paper notes its algorithms apply to "an R-tree, or any of their
//! variants" (Section 2). For the purposes of the two-kNN algorithms, only
//! the *leaf level* matters: leaves are the blocks that carry point counts
//! and footprints. This implementation bulk-loads the data with the classic
//! STR packing (Leutenegger et al.): sort by x, slice into vertical strips,
//! sort each strip by y, and cut into leaves of at most `leaf_capacity`
//! points. Leaf MBRs are tight (unlike grid/quadtree cells, they do not tile
//! the space), which exercises the algorithms' independence from the block
//! geometry.
//!
//! The upper levels of the tree are packed over the leaves by the same
//! sort-and-tile recipe and kept as the index's [`BlockDirectory`], which
//! both the distance cursor and [`crate::SpatialIndex::locate`] descend.

use twoknn_geometry::{GeomResult, GeometryError, Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::BlockDirectory;
use crate::packed::{IndexConfig, Layout, PackedIndex};

/// The STR R-tree recipe: the leaves are the blocks, in strip order, and the
/// STR-packed upper levels are the directory.
///
/// A recipe has no values; its constructor returns the [`PackedIndex`].
#[derive(Debug)]
pub enum StrRTree {}

impl StrRTree {
    /// Bulk-loads an STR R-tree with leaves of at most `leaf_capacity` points.
    ///
    /// # Errors
    ///
    /// Returns an error when `points` is empty, `leaf_capacity` is zero or a
    /// coordinate is not finite.
    pub fn build(points: Vec<Point>, leaf_capacity: usize) -> GeomResult<PackedIndex> {
        PackedIndex::pack(IndexConfig::RTree { leaf_capacity }, points, Rect::bounding)
    }
}

/// Sorts `points` by x into vertical strips, each strip by y, and cuts the
/// strips into leaves of at most `leaf_capacity` points.
pub(crate) fn partition(
    mut points: Vec<Point>,
    bounds: Rect,
    leaf_capacity: usize,
) -> GeomResult<Layout> {
    if leaf_capacity == 0 {
        return Err(GeometryError::EmptyPointSet);
    }
    let n = points.len();
    let leaves_needed = n.div_ceil(leaf_capacity);
    let strips = (leaves_needed as f64).sqrt().ceil() as usize;
    let points_per_strip = n.div_ceil(strips);

    // The packing step admits finite coordinates only, so these compare.
    points.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap());
    let mut blocks = Vec::with_capacity(leaves_needed);
    for strip in points.chunks_mut(points_per_strip.max(1)) {
        strip.sort_by(|a, b| a.y.partial_cmp(&b.y).unwrap());
        for leaf in strip.chunks(leaf_capacity) {
            let mbr = Rect::bounding(leaf).expect("leaf chunks are non-empty");
            blocks.push(BlockMeta::new(blocks.len() as BlockId, mbr, leaf.len()));
        }
    }
    Ok(Layout {
        bounds,
        directory: BlockDirectory::packed(&blocks),
        blocks,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_index_invariants, SpatialIndex};

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    ((i * 37) % 101) as f64 * 1.7,
                    ((i * 61) % 89) as f64 * 2.3,
                )
            })
            .collect()
    }

    #[test]
    fn build_and_invariants() {
        let t = StrRTree::build(pts(1234), 32).unwrap();
        assert_eq!(t.num_points(), 1234);
        check_index_invariants(&t).unwrap();
        for b in t.blocks() {
            assert!(b.count <= 32);
            assert!(b.count > 0, "STR leaves are never empty");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(StrRTree::build(vec![], 16).is_err());
        assert!(StrRTree::build(pts(10), 0).is_err());
    }

    #[test]
    fn locate_prefers_the_storing_leaf() {
        let t = StrRTree::build(pts(500), 16).unwrap();
        for p in t.all_points().iter().take(200) {
            let id = t.locate(p).expect("indexed point is locatable");
            assert!(t
                .block_points(id)
                .iter()
                .any(|q| q.id == p.id && q.x == p.x && q.y == p.y));
        }
    }

    /// Leaves that overlap: every point is duplicated at the same position
    /// under a far-apart id, so equal coordinates land in different leaves
    /// whose MBRs all contain the shared position.
    #[test]
    fn locate_on_overlapping_leaves_finds_the_leaf_storing_the_id() {
        let mut input = pts(300);
        input.extend(
            pts(300)
                .into_iter()
                .map(|p| Point::new(p.id + 10_000, p.x, p.y)),
        );
        // Many points on one spot force neighboring leaves to share it.
        input.extend((0..40).map(|i| Point::new(20_000 + i, 50.0, 50.0)));
        let t = StrRTree::build(input.clone(), 8).unwrap();
        let overlapping = t
            .blocks()
            .iter()
            .filter(|b| b.mbr.contains(&Point::anonymous(50.0, 50.0)))
            .count();
        assert!(
            overlapping > 1,
            "the layout must produce overlapping leaves"
        );
        for p in &input {
            let id = t.locate(p).expect("indexed point is locatable");
            assert!(t.block_points(id).iter().any(|q| q.id == p.id), "{p}");
        }
        // An unknown id at a stored position still locates to a leaf
        // containing it; a position outside every leaf does not locate.
        let stranger = Point::new(99_999, 50.0, 50.0);
        let at = t.locate(&stranger).unwrap();
        assert!(t.blocks()[at as usize].mbr.contains(&stranger));
        assert_eq!(t.locate(&Point::anonymous(-5.0, -5.0)), None);
    }

    #[test]
    fn all_points_preserved() {
        let input = pts(777);
        let t = StrRTree::build(input.clone(), 25).unwrap();
        let mut got: Vec<u64> = t.all_points().iter().map(|p| p.id).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = input.iter().map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn single_point_tree() {
        let t = StrRTree::build(vec![Point::new(9, 1.0, 2.0)], 8).unwrap();
        assert_eq!(t.num_blocks(), 1);
        assert_eq!(t.blocks()[0].count, 1);
        assert_eq!(t.locate(&Point::new(9, 1.0, 2.0)), Some(0));
    }
}
