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
//! The preprocessing scan visits blocks in MINDIST order from the focal point
//! and stops early once a full *contour* of Non-Contributing blocks has been
//! closed (Figure 6): when a Non-Contributing block is found, its MAXDIST `M`
//! from `f` is recorded; if every subsequently scanned block is also
//! Non-Contributing, the scan stops at the first block whose MINDIST reaches
//! `M`, and all remaining blocks are treated as Non-Contributing without any
//! work.
//!
//! After preprocessing, only the points inside Contributing blocks pay for a
//! neighborhood computation — off one candidate list of inner blocks per
//! Contributing block ([`BlockKnn`]) — and their neighborhoods are
//! intersected with the focal neighborhood exactly as in the conceptual
//! plan.

use twoknn_index::{get_knn, BlockKnn, BlockMeta, Metrics, Neighbor, ScratchSpace, SpatialIndex};

use crate::exec::run_into_shares;
use crate::output::{Pair, QueryOutput};
use crate::select::knn_select_neighborhood;

use super::{intersect_into, SelectInnerJoinQuery};

/// Tuning knobs of the Block-Marking algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMarkingConfig {
    /// Enable the contour-based early termination of the preprocessing scan
    /// (Figure 6). When disabled, every outer block is tested individually;
    /// the per-block test is unconditionally sound, so disabling the contour
    /// gives a conservative variant useful for verification.
    pub contour_pruning: bool,
}

impl Default for BlockMarkingConfig {
    fn default() -> Self {
        Self {
            contour_pruning: true,
        }
    }
}

/// Evaluates `(E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))` with the Block-Marking
/// algorithm (the paper's configuration is [`BlockMarkingConfig::default`]:
/// contour pruning enabled).
///
/// The preprocessing scan (Procedure 3) is inherently sequential — the
/// contour-based early stop depends on the order blocks are visited — so it
/// always runs on the calling thread. The join phase over the Contributing
/// blocks, which dominates the cost, is partitioned across the pool the
/// calling thread is bound to. Rows (in order) and merged work counters are
/// the same on every pool size.
pub fn block_marking<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectInnerJoinQuery,
    config: &BlockMarkingConfig,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();

    // Procedure 2, line 1: the neighborhood of f.
    let nbr_f = knn_select_neighborhood(inner, &query.focal, query.k_select, &mut metrics);
    if nbr_f.is_empty() {
        return QueryOutput::new(Vec::new(), metrics);
    }

    // Procedure 2, line 2 / Procedure 3: preprocessing.
    let contributing = preprocess_blocks(outer, inner, query, nbr_f.radius(), config, &mut metrics);

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

/// Procedure 3: classify the outer relation's blocks, returning the
/// Contributing ones. `f_farthest` is the radius of the focal neighborhood.
fn preprocess_blocks<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectInnerJoinQuery,
    f_farthest: f64,
    config: &BlockMarkingConfig,
    metrics: &mut Metrics,
) -> Vec<BlockMeta>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut contributing = Vec::new();
    // `cycle_maxdist` is `M` in Procedure 3: the MAXDIST (from f) of the first
    // Non-Contributing block of the currently open contour cycle; `None`
    // means no cycle is open.
    let mut cycle_maxdist: Option<f64> = None;
    // The ordering stays open across the per-block `get_knn` calls below,
    // which use the thread's scratch; it gets a frontier of its own.
    let mut order_scratch = ScratchSpace::new();
    let mut min_order = outer.mindist_order(&query.focal, &mut order_scratch);
    let mut remaining_unscanned = 0u64;

    while let Some(ob) = min_order.next() {
        // Line 7: once a full cycle of Non-Contributing blocks separates the
        // remaining blocks from f, stop scanning.
        if config.contour_pruning {
            if let Some(m) = cycle_maxdist {
                if ob.distance >= m {
                    remaining_unscanned = 1 + min_order.remaining() as u64;
                    break;
                }
            }
        }
        metrics.blocks_scanned += 1;
        let block = ob.block;

        // Empty outer blocks trivially cannot contribute, but for the contour
        // logic they must still be classified geometrically (a block with no
        // outer points can still be Contributing in the geometric sense and
        // would then break a contour). We classify them exactly like the
        // paper does — the test only depends on the block's geometry and the
        // inner relation.
        let is_non_contributing = {
            // Line 10: neighborhood of the block center over the inner
            // relation with the join's k.
            let center = block.center();
            let nbr_center = get_knn(inner, &center, query.k_join, metrics);
            let r = nbr_center.radius();
            let f_center = query.focal.distance(&center);
            metrics.distance_computations += 1;
            // Line 14: the Non-Contributing test.
            nbr_center.len() >= query.k_join && r + block.diagonal() + f_farthest < f_center
        };

        if is_non_contributing {
            metrics.blocks_pruned += 1;
            // Line 16–18: first Non-Contributing block of a new cycle records
            // its MAXDIST from f.
            if cycle_maxdist.is_none() {
                cycle_maxdist = Some(block.maxdist(&query.focal));
            }
        } else {
            // Lines 20–22: a Contributing block interrupts the cycle.
            if block.count > 0 {
                contributing.push(block);
            }
            cycle_maxdist = None;
        }
    }
    metrics.blocks_pruned += remaining_unscanned;
    metrics.blocks_ordered += min_order.blocks_ordered();
    contributing
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
            let config = BlockMarkingConfig::default();
            let bm = block_marking(&outer, &inner, &query, &config);
            let cn = counting(&outer, &inner, &query);
            let cc = conceptual(&outer, &inner, &query);
            assert_eq!(pair_id_set(&bm.rows), pair_id_set(&cc.rows));
            assert_eq!(pair_id_set(&cn.rows), pair_id_set(&cc.rows));
        }
    }

    #[test]
    fn contour_disabled_variant_also_matches() {
        let outer = grid(scattered(200, 31));
        let inner = grid(scattered(300, 32));
        let query = SelectInnerJoinQuery::new(4, 4, Point::anonymous(50.0, 50.0));
        let safe = block_marking(
            &outer,
            &inner,
            &query,
            &BlockMarkingConfig {
                contour_pruning: false,
            },
        );
        let cc = conceptual(&outer, &inner, &query);
        assert_eq!(pair_id_set(&safe.rows), pair_id_set(&cc.rows));
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
        let config = BlockMarkingConfig::default();

        let bm = block_marking(&outer, &inner, &query, &config);
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
        let config = BlockMarkingConfig::default();
        let out = block_marking(&outer, &inner, &query, &config);
        assert!(out.is_empty());
        assert_eq!(out.metrics.neighborhoods_computed, 1); // only nbr_f
    }
}
