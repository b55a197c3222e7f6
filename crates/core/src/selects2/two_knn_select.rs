//! The **2-kNN-select** algorithm (Procedure 5, Section 5.2).
//!
//! When the two predicates have very different `k` values, the conceptual QEP
//! wastes most of its time building the locality of the larger-`k` predicate:
//! with `k2 ≫ k1` that locality covers almost the whole space. Because the
//! final result can only contain members of the smaller-`k` neighborhood, the
//! larger predicate's locality can be truncated: after computing `nbr1`, the
//! *search threshold* is the distance from `f2` to the farthest member of
//! `nbr1`, and a block enters `f2`'s locality only if its MINDIST from `f2`
//! is within that threshold.

use twoknn_geometry::Point;
use twoknn_index::{get_knn, get_knn_bounded, Metrics, SpatialIndex};

use crate::output::QueryOutput;

use super::conceptual::intersect_output;
use super::TwoSelectsQuery;

/// Evaluates a query with two kNN-select predicates using the 2-kNN-select
/// algorithm (Procedure 5).
///
/// The predicate with the smaller `k` is evaluated first (lines 1–5 swap the
/// predicates if needed); the other predicate's locality is then bounded by
/// the search threshold derived from the first neighborhood.
pub fn two_knn_select<I>(relation: &I, query: &TwoSelectsQuery) -> QueryOutput<Point>
where
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();

    // Lines 1–4: make (k1, f1) the smaller-k predicate.
    let (k1, f1, k2, f2) = if query.k1 > query.k2 {
        (query.k2, query.f2, query.k1, query.f1)
    } else {
        (query.k1, query.f1, query.k2, query.f2)
    };

    // Line 5: the smaller-k neighborhood.
    let nbr1 = get_knn(relation, &f1, k1, &mut metrics);
    if nbr1.is_empty() {
        return QueryOutput::new(Vec::new(), metrics);
    }

    // Line 6: search threshold = distance from f2 to the farthest member of
    // nbr1 (so that the bounded locality of f2 is guaranteed to cover nbr1).
    let search_threshold = nbr1.farthest_distance_from(&f2).expect("nbr1 is non-empty");
    metrics.distance_computations += nbr1.len() as u64;

    // Lines 7–32: bounded locality of f2 and its neighborhood.
    let nbr2 = get_knn_bounded(relation, &f2, k2, search_threshold, &mut metrics);

    // Line 33: intersect.
    intersect_output(&nbr1, &nbr2, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::point_id_set;
    use crate::selects2::two_selects_conceptual;
    use twoknn_index::{GridIndex, PackedIndex};

    fn relation(n: usize, seed: u64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0xFF51AFD7ED558CCD) ^ seed.wrapping_mul(31);
                Point::new(
                    i as u64,
                    (h % 1013) as f64 * 0.1,
                    ((h / 1013) % 1013) as f64 * 0.1,
                )
            })
            .collect();
        GridIndex::build(pts, 16).unwrap()
    }

    #[test]
    fn matches_conceptual_for_equal_and_unequal_k() {
        let e = relation(2000, 1);
        let f1 = Point::anonymous(30.0, 40.0);
        let f2 = Point::anonymous(60.0, 55.0);
        for (k1, k2) in [(5, 5), (10, 10), (5, 50), (10, 320), (64, 8)] {
            let q = TwoSelectsQuery::new(k1, f1, k2, f2);
            let fast = two_knn_select(&e, &q);
            let slow = two_selects_conceptual(&e, &q);
            assert_eq!(
                point_id_set(&fast.rows),
                point_id_set(&slow.rows),
                "k1={k1} k2={k2}"
            );
        }
    }

    #[test]
    fn result_is_subset_of_smaller_k_neighborhood() {
        let e = relation(1500, 2);
        let q = TwoSelectsQuery::new(
            8,
            Point::anonymous(10.0, 10.0),
            200,
            Point::anonymous(90.0, 15.0),
        );
        let out = two_knn_select(&e, &q);
        assert!(out.len() <= 8);
    }

    #[test]
    fn scans_fewer_blocks_than_conceptual_for_large_k2() {
        // The two focal points are close together (the paper's house-hunting
        // scenario: work and school in the same part of town) while k2 is
        // large, so the bounded locality of f2 covers a small disk around the
        // focal pair instead of a third of the city.
        let e = relation(4000, 3);
        let q = TwoSelectsQuery::new(
            10,
            Point::anonymous(30.0, 30.0),
            1280,
            Point::anonymous(40.0, 35.0),
        );
        let fast = two_knn_select(&e, &q);
        let slow = two_selects_conceptual(&e, &q);
        assert_eq!(point_id_set(&fast.rows), point_id_set(&slow.rows));
        assert!(
            fast.metrics.points_scanned < slow.metrics.points_scanned,
            "2-kNN-select {} vs conceptual {} points scanned",
            fast.metrics.points_scanned,
            slow.metrics.points_scanned
        );
    }

    #[test]
    fn swapped_k_values_are_handled() {
        // k1 > k2 triggers the swap at the top of Procedure 5.
        let e = relation(1000, 4);
        let q = TwoSelectsQuery::new(
            500,
            Point::anonymous(50.0, 50.0),
            5,
            Point::anonymous(52.0, 48.0),
        );
        let fast = two_knn_select(&e, &q);
        let slow = two_selects_conceptual(&e, &q);
        assert_eq!(point_id_set(&fast.rows), point_id_set(&slow.rows));
    }

    #[test]
    fn empty_relation_returns_empty() {
        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let q = TwoSelectsQuery::new(3, Point::anonymous(0.0, 0.0), 5, Point::anonymous(1.0, 1.0));
        assert!(two_knn_select(&empty, &q).is_empty());
    }
}
