//! Range selection on the inner relation of a kNN-join.
//!
//! Footnote 1 of the paper: "Notice that the same challenge exists if the
//! selection is a spatial range (e.g., rectangle), or a relational
//! attribute-based selection." This module carries the paper's machinery over
//! to that case: the query
//!
//! ```text
//! (E1 ⋈kNN E2) ∩ (E1 × σ_R(E2))
//! ```
//!
//! returns the pairs `(e1, e2)` where `e2` is among the `k⋈` nearest inner
//! points of `e1` **and** lies inside the rectangle `R`. Pushing `σ_R` below
//! the join's inner relation is just as invalid as pushing a kNN-select, and
//! the same two pruning ideas apply:
//!
//! * **Counting** (per outer point): if more than `k⋈` inner points are
//!   strictly closer to `e1` than `MINDIST(e1, R)`, none of `e1`'s neighbors
//!   can be inside `R`, so `e1` is skipped without a neighborhood
//!   computation.
//! * **Block-Marking** (per outer block): with `r` the radius of the
//!   `k⋈`-neighborhood of the block center and `d` the block diagonal, the
//!   block cannot contribute when `MINDIST(center, R) > r + d`, because then
//!   every point in the block has `k⋈` inner points closer than anything
//!   inside `R`.

use twoknn_geometry::{mindist, Rect};
use twoknn_index::{get_knn, Metrics, SpatialIndex};

use crate::join::knn_join_rows;
use crate::output::{Pair, QueryOutput};

use super::counting::count_within;

/// Parameters of a query with a range selection on the **inner** relation of
/// a kNN-join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeInnerJoinQuery {
    /// `k⋈`: the k value of the kNN-join predicate.
    pub k_join: usize,
    /// The selection rectangle applied to the inner relation.
    pub range: Rect,
}

impl RangeInnerJoinQuery {
    /// Creates a query description.
    pub fn new(k_join: usize, range: Rect) -> Self {
        Self { k_join, range }
    }
}

/// The conceptually correct QEP: evaluate the full kNN-join and keep the
/// pairs whose inner point falls inside the range.
pub fn range_inner_conceptual<O, I>(
    outer: &O,
    inner: &I,
    query: &RangeInnerJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let join_pairs = knn_join_rows(outer, inner, query.k_join, &mut metrics);
    let rows: Vec<Pair> = join_pairs
        .into_iter()
        .filter(|pair| query.range.contains(&pair.right))
        .collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// The **invalid** pushdown: join each outer point against only the inner
/// points inside the range. Provided to demonstrate the non-equivalence
/// (footnote 1); never use it to answer the query.
pub fn range_inner_invalid_pushdown<O, I>(
    outer: &O,
    inner: &I,
    query: &RangeInnerJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    // Materialize σ_R(E2).
    let mut selected = Vec::new();
    for block in inner.blocks() {
        if !block.mbr.intersects(&query.range) {
            continue;
        }
        metrics.blocks_scanned += 1;
        for p in inner.block_points(block.id) {
            metrics.points_scanned += 1;
            if query.range.contains(&p) {
                selected.push(p);
            }
        }
    }
    let mut rows = Vec::new();
    for block in outer.blocks() {
        for e1 in outer.block_points(block.id) {
            let mut ranked: Vec<(f64, twoknn_geometry::Point)> = selected
                .iter()
                .map(|q| {
                    metrics.distance_computations += 1;
                    (e1.distance(q), *q)
                })
                .collect();
            ranked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite distances")
                    .then(a.1.id.cmp(&b.1.id))
            });
            for (_, q) in ranked.into_iter().take(query.k_join) {
                rows.push(Pair::new(e1, q));
            }
        }
    }
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Counting-style evaluation: per outer point, count the inner points in
/// blocks strictly closer than `MINDIST(e1, R)`; only survivors pay for a
/// neighborhood computation.
pub fn range_inner_counting<O, I>(
    outer: &O,
    inner: &I,
    query: &RangeInnerJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let mut rows = Vec::new();
    for block in outer.blocks() {
        for e1 in outer.block_points(block.id) {
            let search_threshold = mindist(&e1, &query.range);
            let count = count_within(inner, &e1, search_threshold, query.k_join, &mut metrics);
            if count <= query.k_join {
                let nbr = get_knn(inner, &e1, query.k_join, &mut metrics);
                for n in nbr.members() {
                    if query.range.contains(&n.point) {
                        rows.push(Pair::new(e1, n.point));
                    }
                }
            } else {
                metrics.points_pruned += 1;
            }
        }
    }
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Block-Marking-style evaluation: classify every outer block with a single
/// neighborhood computation at its center, then join only the points of the
/// Contributing blocks.
pub fn range_inner_block_marking<O, I>(
    outer: &O,
    inner: &I,
    query: &RangeInnerJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let mut rows = Vec::new();
    for block in outer.blocks() {
        if block.count == 0 {
            continue;
        }
        metrics.blocks_scanned += 1;
        let center = block.center();
        let range_dist = mindist(&center, &query.range);
        // Cheap accept: a block overlapping (or touching) the range always
        // needs per-point processing.
        let non_contributing = if range_dist <= block.diagonal() {
            false
        } else {
            let nbr_center = get_knn(inner, &center, query.k_join, &mut metrics);
            nbr_center.len() >= query.k_join && nbr_center.radius() + block.diagonal() < range_dist
        };
        if non_contributing {
            metrics.blocks_pruned += 1;
            continue;
        }
        for e1 in outer.block_points(block.id) {
            let nbr = get_knn(inner, &e1, query.k_join, &mut metrics);
            for n in nbr.members() {
                if query.range.contains(&n.point) {
                    rows.push(Pair::new(e1, n.point));
                }
            }
        }
    }
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use twoknn_geometry::Point;
    use twoknn_index::{GridIndex, PackedIndex};

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                    ^ seed.wrapping_mul(0xC2B2AE3D27D4EB4F);
                Point::new(
                    i as u64,
                    (h % 1009) as f64 * 0.1,
                    ((h / 1009) % 1009) as f64 * 0.1,
                )
            })
            .collect()
    }

    fn grid(points: Vec<Point>) -> PackedIndex {
        GridIndex::build(points, 9).unwrap()
    }

    #[test]
    fn counting_and_block_marking_match_conceptual() {
        let outer = grid(scattered(200, 51));
        let inner = grid(scattered(400, 52));
        for (k, range) in [
            (2, Rect::new(10.0, 10.0, 30.0, 30.0)),
            (4, Rect::new(0.0, 0.0, 100.0, 100.0)),
            (3, Rect::new(80.0, 80.0, 95.0, 95.0)),
            (1, Rect::new(49.0, 49.0, 51.0, 51.0)),
        ] {
            let query = RangeInnerJoinQuery::new(k, range);
            let reference = pair_id_set(&range_inner_conceptual(&outer, &inner, &query).rows);
            assert_eq!(
                pair_id_set(&range_inner_counting(&outer, &inner, &query).rows),
                reference,
                "counting, k={k}"
            );
            assert_eq!(
                pair_id_set(&range_inner_block_marking(&outer, &inner, &query).rows),
                reference,
                "block-marking, k={k}"
            );
        }
    }

    #[test]
    fn pushdown_changes_the_result() {
        let outer = grid(scattered(100, 53));
        let inner = grid(scattered(200, 54));
        // A small range far from most outer points: the pushdown pairs every
        // outer point with in-range hotels, the correct plan only keeps outer
        // points whose own neighborhood reaches the range.
        let query = RangeInnerJoinQuery::new(2, Rect::new(5.0, 5.0, 15.0, 15.0));
        let correct = pair_id_set(&range_inner_conceptual(&outer, &inner, &query).rows);
        let wrong = pair_id_set(&range_inner_invalid_pushdown(&outer, &inner, &query).rows);
        assert_ne!(correct, wrong);
        assert!(correct.len() < wrong.len());
        assert!(correct.is_subset(&wrong));
    }

    #[test]
    fn far_away_range_prunes_most_of_the_outer_relation() {
        let outer = grid(scattered(300, 55));
        let inner = grid(scattered(600, 56));
        // The range sits in one corner; outer points elsewhere are pruned.
        let query = RangeInnerJoinQuery::new(2, Rect::new(0.0, 0.0, 8.0, 8.0));
        let counting = range_inner_counting(&outer, &inner, &query);
        let marking = range_inner_block_marking(&outer, &inner, &query);
        let reference = range_inner_conceptual(&outer, &inner, &query);
        assert_eq!(pair_id_set(&counting.rows), pair_id_set(&reference.rows));
        assert_eq!(pair_id_set(&marking.rows), pair_id_set(&reference.rows));
        assert!(counting.metrics.points_pruned > 200, "{}", counting.metrics);
        assert!(marking.metrics.blocks_pruned > 0, "{}", marking.metrics);
        assert!(marking.metrics.neighborhoods_computed < reference.metrics.neighborhoods_computed);
    }

    #[test]
    fn empty_range_yields_empty_result() {
        let outer = grid(scattered(50, 57));
        let inner = grid(scattered(80, 58));
        // A degenerate range containing no inner point.
        let query = RangeInnerJoinQuery::new(3, Rect::new(-10.0, -10.0, -5.0, -5.0));
        assert!(range_inner_conceptual(&outer, &inner, &query).is_empty());
        assert!(range_inner_counting(&outer, &inner, &query).is_empty());
        assert!(range_inner_block_marking(&outer, &inner, &query).is_empty());
    }
}
