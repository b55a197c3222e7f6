//! Conceptually correct and deliberately wrong plans for two kNN-selects.

use twoknn_geometry::Point;
use twoknn_index::{get_knn, Metrics, Neighborhood, SpatialIndex};

use crate::output::QueryOutput;

use super::TwoSelectsQuery;

/// The correct QEP of Figure 16: evaluate `σ_{k1,f1}(E)` and `σ_{k2,f2}(E)`
/// independently over the full relation and intersect the two results.
pub fn two_selects_conceptual<I>(relation: &I, query: &TwoSelectsQuery) -> QueryOutput<Point>
where
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let nbr1 = get_knn(relation, &query.f1, query.k1, &mut metrics);
    let nbr2 = get_knn(relation, &query.f2, query.k2, &mut metrics);
    intersect_output(&nbr1, &nbr2, metrics)
}

/// The **wrong** sequential plan of Figures 14 / 15: evaluate one select and
/// feed only its `k` survivors to the other. Included to demonstrate the
/// non-equivalence in tests and examples; never use it to answer the query.
///
/// When `f1_first` is true the `(k1, f1)` predicate runs first (Figure 14
/// flavor), otherwise the `(k2, f2)` predicate runs first (Figure 15 flavor).
pub fn two_selects_wrong_sequential<I>(
    relation: &I,
    query: &TwoSelectsQuery,
    f1_first: bool,
) -> QueryOutput<Point>
where
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let (first_k, first_f, second_k, second_f) = if f1_first {
        (query.k1, query.f1, query.k2, query.f2)
    } else {
        (query.k2, query.f2, query.k1, query.f1)
    };
    let first = get_knn(relation, &first_f, first_k, &mut metrics);

    // Second select evaluated only over the survivors of the first.
    let survivors: Vec<Point> = first.points().copied().collect();
    let mut ranked: Vec<(f64, Point)> = survivors
        .iter()
        .map(|p| {
            metrics.distance_computations += 1;
            (second_f.distance(p), *p)
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite distances")
            .then(a.1.id.cmp(&b.1.id))
    });
    let rows: Vec<Point> = ranked.into_iter().take(second_k).map(|(_, p)| p).collect();
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Helper shared with the 2-kNN-select algorithm: intersects two
/// neighborhoods and wraps the outcome into a [`QueryOutput`].
pub(crate) fn intersect_output(
    nbr1: &Neighborhood,
    nbr2: &Neighborhood,
    mut metrics: Metrics,
) -> QueryOutput<Point> {
    let rows = nbr1.intersect(nbr2);
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::point_id_set;
    use twoknn_index::{GridIndex, PackedIndex};

    fn houses() -> PackedIndex {
        // A line of houses between two focal points plus scattered ones.
        let mut pts = Vec::new();
        for i in 0..30u64 {
            pts.push(Point::new(i, i as f64, 0.0));
        }
        for i in 30..60u64 {
            pts.push(Point::new(i, (i % 10) as f64 * 3.0, 5.0 + (i % 7) as f64));
        }
        GridIndex::build(pts, 6).unwrap()
    }

    #[test]
    fn sequential_evaluation_differs_from_conceptual() {
        let e = houses();
        // Work at the left end, school at the right end.
        let q = TwoSelectsQuery::new(
            5,
            Point::anonymous(0.0, 0.0),
            5,
            Point::anonymous(29.0, 0.0),
        );
        let correct = point_id_set(&two_selects_conceptual(&e, &q).rows);
        let wrong_a = point_id_set(&two_selects_wrong_sequential(&e, &q, true).rows);
        let wrong_b = point_id_set(&two_selects_wrong_sequential(&e, &q, false).rows);
        // With the focal points far apart and k small, the true intersection
        // is empty but each sequential plan still reports k houses.
        assert!(correct.is_empty());
        assert_eq!(wrong_a.len(), 5);
        assert_eq!(wrong_b.len(), 5);
        assert_ne!(correct, wrong_a);
        assert_ne!(wrong_a, wrong_b);
    }

    #[test]
    fn conceptual_intersection_is_symmetric_in_the_predicates() {
        let e = houses();
        let q = TwoSelectsQuery::new(
            8,
            Point::anonymous(10.0, 1.0),
            12,
            Point::anonymous(14.0, 2.0),
        );
        let swapped = TwoSelectsQuery::new(
            12,
            Point::anonymous(14.0, 2.0),
            8,
            Point::anonymous(10.0, 1.0),
        );
        assert_eq!(
            point_id_set(&two_selects_conceptual(&e, &q).rows),
            point_id_set(&two_selects_conceptual(&e, &swapped).rows)
        );
    }

    #[test]
    fn overlapping_predicates_return_the_overlap() {
        let e = houses();
        let q = TwoSelectsQuery::new(
            4,
            Point::anonymous(5.0, 0.0),
            20,
            Point::anonymous(6.0, 0.0),
        );
        let out = two_selects_conceptual(&e, &q);
        // Every member of the smaller-k neighborhood near (5,0) is also among
        // the 20 nearest of (6,0), so the intersection equals the k1 set.
        assert_eq!(out.len(), 4);
    }
}
