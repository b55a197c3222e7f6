//! The **Block-Marking** algorithm (Procedures 2 and 3, Section 3.2).
//!
//! Instead of testing every outer point like the Counting algorithm, the
//! Block-Marking algorithm first classifies every *block* of the outer
//! relation as *Contributing* or *Non-Contributing*:
//!
//! * the neighborhood (over the inner relation, with `k⋈`) of the block's
//!   **center** is computed; `r` is the distance from the center to its
//!   farthest neighbor;
//! * with `d` the block's diagonal and `f_farthest` the radius of the focal
//!   neighborhood, the block is Non-Contributing when
//!   `r + d + f_farthest < f_center`, where `f_center` is the distance from
//!   the focal point to the block center (Figure 5). Theorem 1 shows the
//!   center is the reference point that makes this test tightest.
//!
//! Every non-empty block is tested on its own, through the same partitioned
//! classifier the unchained Block-Marking uses. The paper's Procedure 3 also
//! stops its MINDIST-ordered scan from `f` once a *contour* of
//! Non-Contributing blocks has closed (Figure 6) and marks every block
//! beyond it Non-Contributing untested. That stop is left out because it
//! returned wrong rows: it is sound only when block rectangles cover a
//! whole circle around `f`'s neighborhood, and STR leaves, overlay blocks
//! and the outer relation's bounds do not guarantee that. Against the conceptual QEP, in
//! 400 seeds × grid/quadtree/STR × plain/ingested/3×3-sharded catalogs, the
//! contour scan differed in 21 of 3 600 `Database` runs (STR 3/1/11,
//! quadtree 1/0/3, grid 0/0/2), and in 40 of 3 000 STR and 4 of 3 000
//! quadtree direct calls with a clustered inner relation; the per-block
//! test alone differed in none. The price is one centre neighborhood per
//! non-empty block: on a BerlinMOD outer relation over a plain grid (k = 10,
//! 64 k inner points) neighborhoods rose 1 399 → 1 625, 1 791 → 2 781 and
//! 2 374 → 6 147 at 16 k, 64 k and 256 k outer points.
//!
//! After preprocessing, only the points inside Contributing blocks pay for a
//! neighborhood computation — off one candidate list of inner blocks per
//! Contributing block ([`BlockKnn`]) — and their neighborhoods are
//! intersected with the focal neighborhood exactly as in the conceptual
//! plan.

use twoknn_index::{get_knn, BlockKnn, Metrics, Neighbor, SpatialIndex};

use crate::exec::run_into_shares;
use crate::join::contributing_blocks;
use crate::output::{Pair, QueryOutput};

use super::{intersect_into, SelectInnerJoinQuery};

/// Evaluates `(E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))` with the Block-Marking
/// algorithm.
///
/// Both phases are partitioned across the pool the calling thread is bound
/// to: the classification of the outer relation's blocks, then the join of
/// the Contributing ones. Rows come block after block, in the outer
/// relation's block order, and they and the merged work counters are the
/// same on every pool size.
pub fn block_marking<O, I>(outer: &O, inner: &I, query: &SelectInnerJoinQuery) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();

    // Procedure 2, line 1: the neighborhood of f.
    let nbr_f = get_knn(inner, &query.focal, query.k_select, &mut metrics);
    if nbr_f.is_empty() {
        return QueryOutput::new(Vec::new(), metrics);
    }

    // Procedure 2, line 2 / Procedure 3: classify the outer blocks.
    let f_farthest = nbr_f.radius();
    let contributing = contributing_blocks(
        outer.blocks(),
        inner,
        query.k_join,
        |_| false,
        |block, nbr_center| {
            // Procedure 3, line 14: the Non-Contributing test.
            let (r, d) = (nbr_center.radius(), block.diagonal());
            let f_center = query.focal.distance(&block.center());
            let non_contributing =
                nbr_center.len() >= query.k_join && r + d + f_farthest < f_center;
            !non_contributing
        },
        &mut metrics,
    );

    // Procedure 2, lines 4–12: join only the points of Contributing blocks,
    // partitioned across workers, each point's rows into its slots of the
    // calling thread's buffer.
    let per_point = query.k_join.min(inner.num_points()).min(nbr_f.len());
    let slots = run_into_shares(
        &contributing,
        |block| block.count * per_point,
        None,
        &mut metrics,
        |block, slots, metrics| {
            let points = outer.block_points(block.id);
            let region = points
                .bounding()
                .expect("a Contributing block holds points");
            let mut knn = BlockKnn::prepare(inner, &region, query.k_join, metrics);
            let mut members = vec![Neighbor::UNSET; knn.neighborhood_len()];
            for (j, e1) in points.iter().enumerate() {
                knn.get(&e1, &mut members, metrics);
                let mine = &mut slots[j * per_point..(j + 1) * per_point];
                intersect_into(e1, &members, &nbr_f, mine);
            }
        },
    );
    let rows: Vec<Pair> = slots.into_iter().flatten().collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use crate::select_join::{conceptual, counting};
    use twoknn_geometry::Point;
    use twoknn_index::{GridIndex, PackedIndex};

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(
                    i as u64,
                    (h % 997) as f64 * 0.1,
                    ((h / 997) % 997) as f64 * 0.1,
                )
            })
            .collect()
    }

    fn grid(points: Vec<Point>) -> PackedIndex {
        GridIndex::build(points, 10).unwrap()
    }

    #[test]
    fn block_marking_matches_conceptual_and_counting() {
        let outer = grid(scattered(250, 21));
        let inner = grid(scattered(500, 22));
        for (k_join, k_select) in [(1, 1), (2, 2), (3, 6), (6, 2)] {
            let query = SelectInnerJoinQuery::new(k_join, k_select, Point::anonymous(20.0, 70.0));
            let bm = block_marking(&outer, &inner, &query);
            let cn = counting(&outer, &inner, &query);
            let cc = conceptual(&outer, &inner, &query);
            assert_eq!(pair_id_set(&bm.rows), pair_id_set(&cc.rows));
            assert_eq!(pair_id_set(&cn.rows), pair_id_set(&cc.rows));
        }
    }

    #[test]
    fn block_marking_prunes_blocks_on_skewed_data() {
        // Dense outer cluster far from the focal point with plenty of inner
        // points around it: its blocks must be marked Non-Contributing.
        let mut outer_pts = Vec::new();
        let mut inner_pts = Vec::new();
        for i in 0..400 {
            outer_pts.push(Point::new(
                i,
                80.0 + (i % 20) as f64 * 0.1,
                80.0 + (i / 20) as f64 * 0.1,
            ));
            inner_pts.push(Point::new(
                i,
                80.0 + (i % 20) as f64 * 0.1 + 0.05,
                80.0 + (i / 20) as f64 * 0.1 + 0.05,
            ));
        }
        // A few inner points near the focal point to form nbr_f.
        for i in 0..5 {
            inner_pts.push(Point::new(400 + i, 1.0 + i as f64 * 0.1, 1.0));
        }
        // And a couple of outer points near the focal point that do contribute.
        outer_pts.push(Point::new(400, 1.2, 1.1));
        outer_pts.push(Point::new(401, 0.8, 0.9));

        let outer = grid(outer_pts);
        let inner = grid(inner_pts);
        let query = SelectInnerJoinQuery::new(2, 3, Point::anonymous(1.0, 1.0));

        let bm = block_marking(&outer, &inner, &query);
        let cc = conceptual(&outer, &inner, &query);
        assert_eq!(pair_id_set(&bm.rows), pair_id_set(&cc.rows));
        assert!(bm.metrics.blocks_pruned > 0, "{}", bm.metrics);
        assert!(
            bm.metrics.neighborhoods_computed < cc.metrics.neighborhoods_computed,
            "block-marking {} vs conceptual {}",
            bm.metrics.neighborhoods_computed,
            cc.metrics.neighborhoods_computed
        );
        // The near-focal outer points must be in the result.
        assert!(bm.rows.iter().any(|p| p.left.id == 400 || p.left.id == 401));
    }

    #[test]
    fn empty_focal_neighborhood_short_circuits() {
        let outer = grid(scattered(50, 41));
        let inner =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(0.5, 0.5));
        let out = block_marking(&outer, &inner, &query);
        assert!(out.is_empty());
        assert_eq!(out.metrics.neighborhoods_computed, 1); // only nbr_f
    }
}
