//! kNN-select on the **outer** relation of a kNN-join (Figure 3).
//!
//! Unlike the inner-relation case, pushing the selection below the *outer*
//! relation of a kNN-join is valid:
//!
//! ```text
//! (E1 ⋈kNN E2) ∩ ((σ_{kσ,f}(E1)) × E2)  ≡  (σ_{kσ,f}(E1)) ⋈kNN E2
//! ```
//!
//! because excluding outer points that the selection would discard anyway
//! cannot change which inner points the surviving outer points join with.
//! Both QEPs of Figure 3 are implemented so the equivalence can be tested and
//! so the plan layer can expose the pushdown as a legal transformation.

use twoknn_index::{get_knn, Metrics, SpatialIndex};

use crate::join::{knn_join_points, knn_join_rows};
use crate::output::{Pair, QueryOutput};

use super::SelectOuterJoinQuery;

/// QEP1 of Figure 3: push the selection below the outer relation, i.e.
/// evaluate `(σ_{kσ,f}(E1)) ⋈kNN E2`. This is the *efficient* plan: only the
/// `kσ` selected outer points are joined, partitioned over the current pool
/// (one work item per point).
pub fn select_on_outer_pushdown<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectOuterJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let selected = get_knn(outer, &query.focal, query.k_select, &mut metrics);
    let selected_points: Vec<_> = selected.points().copied().collect();
    let rows = knn_join_points(&selected_points, inner, query.k_join, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// QEP2 of Figure 3: evaluate the full join `E1 ⋈kNN E2` first and apply the
/// selection on the outer attribute of the result afterwards. Same result as
/// [`select_on_outer_pushdown`], but the join is computed for every outer
/// point, block-partitioned over the current pool.
pub fn select_on_outer_after_join<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectOuterJoinQuery,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let selected = get_knn(outer, &query.focal, query.k_select, &mut metrics);
    let join_pairs = knn_join_rows(outer, inner, query.k_join, &mut metrics);
    let rows: Vec<Pair> = join_pairs
        .into_iter()
        .filter(|pair| selected.contains_id(pair.left.id))
        .collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use twoknn_geometry::Point;
    use twoknn_index::GridIndex;

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(6364136223846793005) ^ seed;
                Point::new(
                    i as u64,
                    (h % 887) as f64 * 0.11,
                    ((h / 887) % 887) as f64 * 0.12,
                )
            })
            .collect()
    }

    #[test]
    fn pushdown_is_equivalent_to_select_after_join() {
        let outer = GridIndex::build(scattered(200, 5), 8).unwrap();
        let inner = GridIndex::build(scattered(300, 6), 8).unwrap();
        for (k_join, k_select) in [(1, 1), (2, 2), (3, 10), (8, 4)] {
            let query = SelectOuterJoinQuery::new(k_join, k_select, Point::anonymous(40.0, 40.0));
            let a = select_on_outer_pushdown(&outer, &inner, &query);
            let b = select_on_outer_after_join(&outer, &inner, &query);
            assert_eq!(
                pair_id_set(&a.rows),
                pair_id_set(&b.rows),
                "k_join={k_join} k_select={k_select}"
            );
        }
    }

    #[test]
    fn pushdown_is_much_cheaper() {
        let outer = GridIndex::build(scattered(400, 7), 10).unwrap();
        let inner = GridIndex::build(scattered(400, 8), 10).unwrap();
        let query = SelectOuterJoinQuery::new(2, 5, Point::anonymous(10.0, 90.0));
        let fast = select_on_outer_pushdown(&outer, &inner, &query);
        let slow = select_on_outer_after_join(&outer, &inner, &query);
        assert!(
            fast.metrics.neighborhoods_computed < slow.metrics.neighborhoods_computed / 10,
            "pushdown {} vs after-join {}",
            fast.metrics.neighborhoods_computed,
            slow.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn result_cardinality_is_bounded_by_k_select_times_k_join() {
        let outer = GridIndex::build(scattered(100, 9), 6).unwrap();
        let inner = GridIndex::build(scattered(100, 10), 6).unwrap();
        let query = SelectOuterJoinQuery::new(3, 4, Point::anonymous(50.0, 50.0));
        let out = select_on_outer_pushdown(&outer, &inner, &query);
        assert!(out.len() <= query.k_join * query.k_select);
        assert_eq!(out.len(), query.k_join * query.k_select);
    }
}
