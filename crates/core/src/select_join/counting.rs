//! The **Counting** algorithm (Procedure 1, Section 3.1).
//!
//! For each outer point `e1`, the algorithm decides *without computing e1's
//! neighborhood* whether that neighborhood could possibly intersect the
//! neighborhood of the focal point `f`:
//!
//! 1. the *search threshold* is the distance from `e1` to the nearest point
//!    of `nbr_f`;
//! 2. blocks of the inner relation are scanned in increasing MAXDIST order
//!    from `e1`, accumulating their point counts, as long as they are
//!    *completely included* within the search threshold (MAXDIST ≤ threshold);
//! 3. if more than `k⋈` points are found this way, then `e1` already has more
//!    than `k⋈` inner points strictly closer than any member of `nbr_f`, so
//!    its neighborhood cannot intersect `nbr_f` and `e1` is skipped.
//!
//! Only the surviving outer points pay for a neighborhood computation, and
//! an outer block's survivors share one candidate list of inner blocks
//! ([`BlockKnn`]), found at the block's first survivor.

use twoknn_geometry::Point;
use twoknn_index::{
    get_knn, with_thread_scratch, BlockKnn, Metrics, Neighbor, Neighborhood, SpatialIndex,
};

use crate::exec::run_into_shares;
use crate::output::{Pair, QueryOutput};

use super::{intersect_into, SelectInnerJoinQuery};

/// Evaluates `(E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))` with the Counting
/// algorithm (Procedure 1).
///
/// The per-outer-point test is independent of every other point, so the
/// outer relation's blocks are partitioned across the pool the calling
/// thread is bound to. The result rows (in order) and the merged work
/// counters are the same on every pool size.
pub fn counting<O, I>(outer: &O, inner: &I, query: &SelectInnerJoinQuery) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();

    // Line 1: the neighborhood of f (the kNN-select side).
    let nbr_f = get_knn(inner, &query.focal, query.k_select, &mut metrics);
    if nbr_f.is_empty() {
        // An empty select result can never intersect any join neighborhood.
        return QueryOutput::new(Vec::new(), metrics);
    }

    // Lines 3–22: per outer tuple, partitioned by outer block, each point's
    // rows into its slots of the calling thread's buffer.
    let per_point = query.k_join.min(inner.num_points()).min(nbr_f.len());
    let slots = run_into_shares(
        outer.blocks(),
        |block| block.count * per_point,
        None,
        &mut metrics,
        |block, slots, metrics| {
            let points = outer.block_points(block.id);
            // The block's candidate inner blocks, found at its first
            // survivor: a block whose points are all pruned pays for none.
            let mut knn = None;
            for (j, e1) in points.iter().enumerate() {
                if !counting_test_point(&e1, inner, &nbr_f, query, metrics) {
                    metrics.points_pruned += 1;
                    continue;
                }
                let (knn, members) = knn.get_or_insert_with(|| {
                    let region = points.bounding().expect("the block holds e1");
                    let knn = BlockKnn::prepare(inner, &region, query.k_join, metrics);
                    let members = vec![Neighbor::UNSET; knn.neighborhood_len()];
                    (knn, members)
                });
                knn.get(&e1, members, metrics);
                let mine = &mut slots[j * per_point..(j + 1) * per_point];
                intersect_into(e1, members, &nbr_f, mine);
            }
        },
    );
    let rows: Vec<Pair> = slots.into_iter().flatten().collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Procedure 1, lines 5–21, for a single outer point: whether `e1`'s
/// neighborhood must be computed — `false` when the count proves it cannot
/// intersect `nbr_f`.
fn counting_test_point<I>(
    e1: &Point,
    inner: &I,
    nbr_f: &Neighborhood,
    query: &SelectInnerJoinQuery,
    metrics: &mut Metrics,
) -> bool
where
    I: SpatialIndex + ?Sized,
{
    // Line 5: distance from e1 to the nearest member of nbr_f.
    let search_threshold = nbr_f
        .nearest_distance_from(e1)
        .expect("nbr_f is non-empty here");
    metrics.distance_computations += nbr_f.len() as u64;

    // Lines 6–14: count inner points in blocks completely included
    // within the search threshold, scanning in MAXDIST order from e1.
    // Lines 15–21: only e1's neighborhood is left to compute when the count
    // did not prove the intersection impossible.
    count_within(inner, e1, search_threshold, query.k_join, metrics) <= query.k_join
}

/// The counting scan of Procedure 1 (lines 6–14): the number of `inner` points in blocks whose
/// MAXDIST from `e1` is *strictly* below `search_threshold`, scanning in
/// MAXDIST order and stopping once the count exceeds `limit`.
///
/// Strictness (`>=` ends the scan) keeps the pruning sound even when an
/// inner point lies at exactly the threshold distance — a tie the paper's
/// pseudocode ignores. The ordering's frontier lives in the thread's
/// scratch, so a per-outer-point loop allocates nothing after the first call.
fn count_within<I: SpatialIndex + ?Sized>(
    inner: &I,
    e1: &Point,
    search_threshold: f64,
    limit: usize,
    metrics: &mut Metrics,
) -> usize {
    with_thread_scratch(|scratch| {
        let mut count = 0usize;
        let mut max_order = inner.maxdist_order(e1, scratch);
        while count <= limit {
            let Some(ob) = max_order.next() else {
                break;
            };
            metrics.blocks_scanned += 1;
            if ob.distance >= search_threshold {
                break;
            }
            count += ob.block.count;
        }
        metrics.blocks_ordered += max_order.blocks_ordered();
        count
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use crate::select_join::conceptual;
    use twoknn_geometry::Point;
    use twoknn_index::{GridIndex, PackedIndex};

    fn grid(points: Vec<Point>) -> PackedIndex {
        GridIndex::build(points, 8).unwrap()
    }

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64 * 2654435761) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(
                    i as u64,
                    (h % 1000) as f64 * 0.1,
                    ((h / 1000) % 1000) as f64 * 0.1,
                )
            })
            .collect()
    }

    #[test]
    fn counting_matches_conceptual_plan() {
        let outer = grid(scattered(150, 1));
        let inner = grid(scattered(400, 2));
        for (k_join, k_select) in [(1, 1), (2, 2), (4, 8), (8, 3)] {
            let query = SelectInnerJoinQuery::new(k_join, k_select, Point::anonymous(30.0, 40.0));
            let fast = counting(&outer, &inner, &query);
            let slow = conceptual(&outer, &inner, &query);
            assert_eq!(
                pair_id_set(&fast.rows),
                pair_id_set(&slow.rows),
                "k_join={k_join} k_select={k_select}"
            );
        }
    }

    #[test]
    fn counting_prunes_far_outer_points() {
        // Outer points far from the focal point with plenty of inner points
        // around them must be pruned without neighborhood computations.
        let mut inner_pts = scattered(500, 3);
        // Dense inner cloud near (90, 90) so that far outer points are
        // surrounded by many closer inner points.
        for i in 0..200 {
            inner_pts.push(Point::new(
                500 + i,
                90.0 + (i % 20) as f64 * 0.05,
                90.0 + (i / 20) as f64 * 0.05,
            ));
        }
        let inner = grid(inner_pts);
        let outer = grid(vec![
            Point::new(0, 90.2, 90.2),
            Point::new(1, 90.4, 90.4),
            Point::new(2, 5.0, 5.0),
        ]);
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(5.0, 5.0));
        let out = counting(&outer, &inner, &query);
        assert!(out.metrics.points_pruned >= 2, "{}", out.metrics);
        // Correctness still holds.
        let slow = conceptual(&outer, &inner, &query);
        assert_eq!(pair_id_set(&out.rows), pair_id_set(&slow.rows));
    }

    #[test]
    fn counting_does_fewer_neighborhood_computations_than_conceptual() {
        let outer = grid(scattered(300, 7));
        let inner = grid(scattered(600, 8));
        let query = SelectInnerJoinQuery::new(3, 3, Point::anonymous(10.0, 10.0));
        let fast = counting(&outer, &inner, &query);
        let slow = conceptual(&outer, &inner, &query);
        assert!(
            fast.metrics.neighborhoods_computed < slow.metrics.neighborhoods_computed,
            "counting {} vs conceptual {}",
            fast.metrics.neighborhoods_computed,
            slow.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn empty_inner_relation_yields_empty_result() {
        let outer = grid(scattered(10, 1));
        let inner =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(0.0, 0.0));
        assert!(counting(&outer, &inner, &query).is_empty());
    }
}
