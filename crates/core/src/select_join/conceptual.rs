//! The conceptually correct QEP (Figure 1) and the invalid pushdown plan
//! (Figure 2) for a kNN-select on the inner relation of a kNN-join.

use twoknn_index::{get_knn, Metrics, SpatialIndex};

use crate::join::knn_join_rows;
use crate::output::{Pair, QueryOutput};

use super::SelectInnerJoinQuery;

/// The conceptually correct QEP of Figure 1: evaluate the full kNN-join
/// `E1 ⋈kNN E2`, evaluate the kNN-select `σ_{kσ,f}(E2)` independently, and
/// keep the join pairs whose inner point belongs to the select's result.
///
/// This plan is correct for any input but computes the neighborhood of every
/// outer point — the cost the Counting and Block-Marking algorithms avoid.
/// The full kNN-join is block-partitioned over the current pool.
pub fn conceptual<O, I>(outer: &O, inner: &I, query: &SelectInnerJoinQuery) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let nbr_f = get_knn(inner, &query.focal, query.k_select, &mut metrics);
    let join_pairs = knn_join_rows(outer, inner, query.k_join, &mut metrics);
    let rows: Vec<Pair> = join_pairs
        .into_iter()
        .filter(|pair| nbr_f.contains_id(pair.right.id))
        .collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// The **invalid** plan of Figure 2: push the kNN-select below the inner
/// relation of the kNN-join, i.e. evaluate `E1 ⋈kNN (σ_{kσ,f}(E2))`.
///
/// "Pushing a kNN-select under the inner relation of a kNN-join ... reduces
/// the scope of the points being considered in the inner relation ... and
/// hence, the kNN-join will not be performed correctly." This function exists
/// so that tests, examples and documentation can *demonstrate* the
/// non-equivalence; it must not be used to answer the query.
pub fn invalid_inner_pushdown<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectInnerJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let nbr_f = get_knn(inner, &query.focal, query.k_select, &mut metrics);

    // Join the outer relation against only the selected points: for each
    // outer point, its k⋈ nearest among the selected ones.
    let mut rows = Vec::new();
    for block in outer.blocks() {
        for e1 in outer.block_points(block.id) {
            let mut candidates: Vec<(f64, twoknn_geometry::Point)> = nbr_f
                .points()
                .map(|p| {
                    metrics.distance_computations += 1;
                    (e1.distance(p), *p)
                })
                .collect();
            candidates.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite distances")
                    .then(a.1.id.cmp(&b.1.id))
            });
            for (_, p) in candidates.into_iter().take(query.k_join) {
                rows.push(Pair::new(e1, p));
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

    /// A layout in the spirit of Figures 1 and 2: hotels near the shopping
    /// center plus hotels far from it; mechanics spread around. The invalid
    /// pushdown reports every mechanic paired with a selected hotel, the
    /// correct plan only keeps mechanics whose own neighborhood reaches the
    /// selected hotels.
    fn setup() -> (PackedIndex, PackedIndex, SelectInnerJoinQuery) {
        let mechanics = GridIndex::build(
            vec![
                Point::new(1, 1.0, 1.0),
                Point::new(2, 2.0, 2.0),
                Point::new(3, 9.0, 9.0),
                Point::new(4, 10.0, 10.0),
            ],
            4,
        )
        .unwrap();
        let hotels = GridIndex::build(
            vec![
                Point::new(1, 1.5, 1.0),
                Point::new(2, 2.5, 2.0),
                Point::new(3, 9.5, 9.0),
                Point::new(4, 10.5, 10.0),
            ],
            4,
        )
        .unwrap();
        // Shopping center near the (1,1) corner: selects hotels 1 and 2.
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(1.0, 0.5));
        (mechanics, hotels, query)
    }

    #[test]
    fn conceptual_keeps_only_reachable_selected_hotels() {
        let (mechanics, hotels, query) = setup();
        let out = conceptual(&mechanics, &hotels, &query);
        let ids = pair_id_set(&out.rows);
        // Mechanics 1 and 2 are near hotels 1/2 (the selected ones); mechanics
        // 3 and 4 have hotels 3/4 as their neighborhood, which are not
        // selected, so they contribute nothing.
        let expected: std::collections::BTreeSet<(u64, u64)> =
            [(1, 1), (1, 2), (2, 1), (2, 2)].into_iter().collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn invalid_pushdown_differs_from_correct_plan() {
        let (mechanics, hotels, query) = setup();
        let correct = pair_id_set(&conceptual(&mechanics, &hotels, &query).rows);
        let wrong = pair_id_set(&invalid_inner_pushdown(&mechanics, &hotels, &query).rows);
        assert_ne!(correct, wrong);
        // The invalid plan pairs *every* mechanic with the selected hotels.
        assert!(wrong.contains(&(3, 1)));
        assert!(wrong.contains(&(4, 2)));
        // And the correct result is a subset of the wrong one in this layout.
        assert!(correct.is_subset(&wrong));
    }

    #[test]
    fn conceptual_with_empty_inner_is_empty() {
        let (mechanics, _, query) = setup();
        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        assert!(conceptual(&mechanics, &empty, &query).is_empty());
    }
}
