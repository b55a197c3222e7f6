//! A point-region (PR) quadtree index.
//!
//! Section 2 of the paper: "The quadtree and its variants are hierarchical
//! spatial data structures that recursively partition the underlying space
//! into blocks until the number of points inside a block satisfies some
//! criterion (being less/greater than some threshold)." This implementation
//! splits a quadrant whenever it holds more than `capacity` points (up to a
//! maximum depth, to stay robust against duplicate points), and exposes its
//! **leaves** as the blocks consumed by the paper's algorithms.

use twoknn_geometry::{GeomResult, GeometryError, Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::directory::{DirChild, DirectoryBuilder};
use crate::packed::{IndexConfig, Layout, PackedIndex};

/// The subdivision depth limit [`QuadtreeIndex::build`] uses; bounds the
/// tree in the presence of duplicate or near-duplicate points. Exposed so
/// that callers reconstructing a quadtree with explicit bounds (e.g. a store
/// compaction rebuilding an index family-preservingly) can reproduce the
/// default build exactly.
pub const DEFAULT_MAX_DEPTH: usize = 16;

/// The PR-quadtree recipe: the leaves are the blocks, numbered depth-first
/// in quadrant order, and the internal nodes are the directory.
///
/// A recipe has no values; its constructors return the [`PackedIndex`].
#[derive(Debug)]
pub enum QuadtreeIndex {}

/// Intermediate node used only during construction.
enum BuildNode {
    Leaf(Vec<Point>),
    Internal(Box<[BuildNode; 4]>),
}

impl QuadtreeIndex {
    /// Builds a quadtree splitting quadrants that hold more than `capacity`
    /// points.
    ///
    /// # Errors
    ///
    /// Returns an error when `points` is empty, `capacity` is zero or a
    /// coordinate is not finite.
    pub fn build(points: Vec<Point>, capacity: usize) -> GeomResult<PackedIndex> {
        let recipe = IndexConfig::Quadtree {
            capacity,
            max_depth: DEFAULT_MAX_DEPTH,
        };
        PackedIndex::pack(recipe, points, Rect::bounding)
    }

    /// Builds a quadtree over an explicit bounding rectangle with an explicit
    /// maximum depth.
    ///
    /// # Errors
    ///
    /// Returns an error when `capacity` is zero or a coordinate is not
    /// finite.
    pub fn build_with_bounds(
        points: Vec<Point>,
        bounds: Rect,
        capacity: usize,
        max_depth: usize,
    ) -> GeomResult<PackedIndex> {
        let recipe = IndexConfig::Quadtree {
            capacity,
            max_depth,
        };
        PackedIndex::pack(recipe, points, |_| Ok(bounds))
    }
}

/// Splits every quadrant of `bounds` holding more than `capacity` points,
/// up to `max_depth` levels.
pub(crate) fn partition(
    points: Vec<Point>,
    bounds: Rect,
    capacity: usize,
    max_depth: usize,
) -> GeomResult<Layout> {
    if capacity == 0 {
        return Err(GeometryError::EmptyPointSet);
    }
    // Guard against degenerate extents, as in the grid.
    let bounds = Rect::new(
        bounds.min_x,
        bounds.min_y,
        bounds.max_x.max(bounds.min_x + f64::EPSILON),
        bounds.max_y.max(bounds.min_y + f64::EPSILON),
    );
    let root = build_node(points, &bounds, capacity, max_depth, 0);
    let mut blocks = Vec::new();
    let mut points = Vec::new();
    collect_leaves(&root, &bounds, &mut blocks, &mut points);
    let mut builder = DirectoryBuilder::new(&blocks);
    let top = directory_node(&root, &mut 0, &mut builder);
    let directory = builder.finish(Some(top));
    Ok(Layout {
        bounds,
        blocks,
        points,
        directory,
    })
}

fn quadrants(r: &Rect) -> [Rect; 4] {
    let cx = (r.min_x + r.max_x) * 0.5;
    let cy = (r.min_y + r.max_y) * 0.5;
    [
        Rect::new(r.min_x, r.min_y, cx, cy),
        Rect::new(cx, r.min_y, r.max_x, cy),
        Rect::new(r.min_x, cy, cx, r.max_y),
        Rect::new(cx, cy, r.max_x, r.max_y),
    ]
}

/// Index (0..4) of the quadrant of `r` that point `p` belongs to.
/// Points on the split lines go to the upper/right quadrant, except points on
/// the outer boundary which stay inside `r` by construction.
fn quadrant_of(r: &Rect, p: &Point) -> usize {
    let cx = (r.min_x + r.max_x) * 0.5;
    let cy = (r.min_y + r.max_y) * 0.5;
    let right = usize::from(p.x >= cx);
    let top = usize::from(p.y >= cy);
    top * 2 + right
}

fn build_node(
    points: Vec<Point>,
    bounds: &Rect,
    capacity: usize,
    max_depth: usize,
    depth: usize,
) -> BuildNode {
    if points.len() <= capacity || depth >= max_depth {
        return BuildNode::Leaf(points);
    }
    let quads = quadrants(bounds);
    let mut children: [Vec<Point>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for p in points {
        children[quadrant_of(bounds, &p)].push(p);
    }
    let [c0, c1, c2, c3] = children;
    BuildNode::Internal(Box::new([
        build_node(c0, &quads[0], capacity, max_depth, depth + 1),
        build_node(c1, &quads[1], capacity, max_depth, depth + 1),
        build_node(c2, &quads[2], capacity, max_depth, depth + 1),
        build_node(c3, &quads[3], capacity, max_depth, depth + 1),
    ]))
}

/// Collects the leaves below `node` as blocks, depth-first in quadrant
/// order: a leaf's block id is its visiting rank.
fn collect_leaves(
    node: &BuildNode,
    bounds: &Rect,
    blocks: &mut Vec<BlockMeta>,
    points: &mut Vec<Point>,
) {
    match node {
        BuildNode::Leaf(leaf) => {
            blocks.push(BlockMeta::new(blocks.len() as BlockId, *bounds, leaf.len()));
            points.extend_from_slice(leaf);
        }
        BuildNode::Internal(children) => {
            for (child, quad) in children.iter().zip(quadrants(bounds)) {
                collect_leaves(child, &quad, blocks, points);
            }
        }
    }
}

/// Mirrors the tree below `node` into the directory builder: one directory
/// node per internal node, leaves as blocks numbered in the same depth-first
/// order as [`collect_leaves`] (`next_block` is the next leaf's id).
fn directory_node(
    node: &BuildNode,
    next_block: &mut BlockId,
    builder: &mut DirectoryBuilder<'_>,
) -> DirChild {
    match node {
        BuildNode::Leaf(_) => {
            *next_block += 1;
            DirChild::Block(*next_block - 1)
        }
        BuildNode::Internal(children) => {
            let mut nodes = [DirChild::Block(0); 4];
            for (slot, child) in nodes.iter_mut().zip(children.iter()) {
                *slot = directory_node(child, next_block, builder);
            }
            builder.node(&nodes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_index_invariants, SpatialIndex};

    fn skewed_points(n: usize) -> Vec<Point> {
        // Half the points in a tiny corner region, half spread out: forces an
        // unbalanced tree.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Point::new(i as u64, (i % 13) as f64 * 0.01, (i % 7) as f64 * 0.01)
                } else {
                    Point::new(i as u64, (i % 97) as f64, (i % 89) as f64)
                }
            })
            .collect()
    }

    #[test]
    fn build_and_invariants() {
        let q = QuadtreeIndex::build(skewed_points(2000), 32).unwrap();
        assert_eq!(q.num_points(), 2000);
        assert!(q.num_blocks() > 4);
        check_index_invariants(&q).unwrap();
    }

    #[test]
    fn leaves_respect_capacity_unless_max_depth_reached() {
        let q = QuadtreeIndex::build(skewed_points(5000), 64).unwrap();
        for b in q.blocks() {
            // Blocks at max depth may exceed capacity; they must be small.
            if b.count > 64 {
                assert!(b.mbr.diagonal() < q.bounds().diagonal() / 2f64.powi(8));
            }
        }
    }

    #[test]
    fn rejects_empty_and_zero_capacity() {
        assert!(QuadtreeIndex::build(vec![], 8).is_err());
        assert!(QuadtreeIndex::build(skewed_points(10), 0).is_err());
    }

    /// Deterministic clustered layout: dense clouds around a few centers plus
    /// background noise — the worst case for the old linear leaf scan (many
    /// leaves) and for descent (deep, unbalanced tree).
    fn clustered_points(n: usize) -> Vec<Point> {
        let centers = [(12.0, 80.0), (55.0, 20.0), (83.0, 67.0), (40.0, 45.0)];
        (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(0x2545F4914F6CDD1D);
                let (cx, cy) = centers[i % centers.len()];
                if i % 11 == 0 {
                    // Background noise spread over the whole domain.
                    Point::new(
                        i as u64,
                        (h % 9_700) as f64 * 0.01,
                        ((h >> 20) % 9_700) as f64 * 0.01,
                    )
                } else {
                    // Tight cloud around the cluster center.
                    Point::new(
                        i as u64,
                        cx + (h % 400) as f64 * 0.003,
                        cy + ((h >> 24) % 400) as f64 * 0.003,
                    )
                }
            })
            .collect()
    }

    /// The directory descent must agree with an O(num_blocks) linear scan —
    /// on every indexed point and on arbitrary probe locations.
    #[test]
    fn locate_descent_agrees_with_linear_scan_on_clustered_data() {
        let q = QuadtreeIndex::build(clustered_points(4_000), 16).unwrap();
        assert!(q.num_blocks() > 16, "layout must actually split");
        let scan_locate = |p: &Point| -> Option<BlockId> {
            if !q.bounds().expanded(1e-9).contains(p) {
                return None;
            }
            q.blocks().iter().find(|b| b.mbr.contains(p)).map(|b| b.id)
        };
        for p in q.all_points() {
            assert_eq!(q.locate(&p), scan_locate(&p), "indexed point {p:?}");
        }
        // Probe points off the data distribution, including out-of-bounds.
        for i in 0..2_000u64 {
            let probe = Point::anonymous((i % 120) as f64 - 10.0, (i / 17) as f64 - 10.0);
            let by_descent = q.locate(&probe);
            let by_scan = scan_locate(&probe);
            // On split boundaries the closed leaf rectangles overlap: the
            // scan reports the lowest id, the descent the first leaf in
            // depth-first order. Both answers must contain the probe.
            match (by_descent, by_scan) {
                (Some(d), Some(s)) => {
                    assert!(q.blocks()[d as usize].mbr.contains(&probe));
                    assert!(q.blocks()[s as usize].mbr.contains(&probe));
                }
                (d, s) => assert_eq!(d, s, "probe {probe:?}"),
            }
        }
    }

    #[test]
    fn locate_finds_a_containing_leaf() {
        let q = QuadtreeIndex::build(skewed_points(1000), 16).unwrap();
        for p in q.all_points().iter().take(100) {
            let id = q.locate(p).expect("point inside bounds");
            assert!(q.blocks()[id as usize].mbr.contains(p));
        }
        assert_eq!(q.locate(&Point::anonymous(1e12, 0.0)), None);
    }

    #[test]
    fn duplicate_points_terminate_via_max_depth() {
        let pts: Vec<Point> = (0..500).map(|i| Point::new(i, 5.0, 5.0)).collect();
        let q = QuadtreeIndex::build(pts, 4).unwrap();
        check_index_invariants(&q).unwrap();
        assert_eq!(q.num_points(), 500);
    }

    #[test]
    fn small_input_is_single_leaf() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i, i as f64, 0.0)).collect();
        let q = QuadtreeIndex::build(pts, 10).unwrap();
        assert_eq!(q.num_blocks(), 1);
        assert_eq!(q.blocks()[0].count, 5);
    }
}
