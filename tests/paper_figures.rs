//! Integration tests reproducing the paper's *conceptual* figures: each test
//! builds the exact (or an equivalent) point layout of a figure and asserts
//! the result sets stated in the figure captions.

use std::collections::BTreeSet;

use two_knn::core::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_conceptual, unchained_wrong_sequential, ChainedJoinQuery,
    UnchainedJoinQuery,
};
use two_knn::core::output::{pair_id_set, point_id_set, triplet_id_set};
use two_knn::core::select_join::{
    block_marking, conceptual, counting, invalid_inner_pushdown, select_on_outer_after_join,
    select_on_outer_pushdown, SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use two_knn::core::selects2::{
    two_knn_select, two_selects_conceptual, two_selects_wrong_sequential, TwoSelectsQuery,
};
use two_knn::{GridIndex, PackedIndex, Point};

fn grid(points: Vec<Point>) -> PackedIndex {
    GridIndex::build(points, 4).expect("non-empty test relation")
}

/// Figures 1 and 2: a kNN-select on the inner relation of a kNN-join, k = 2
/// in both predicates. Mechanics m1..m4, hotels h1..h3, one shopping center.
///
/// The caption of Figure 1 (the correct QEP) lists the pairs
/// (m1,h1), (m2,h1), (m2,h2), (m3,h2), (m4,h1); the caption of Figure 2 (the
/// invalid pushdown) lists every mechanic paired with h1 or h2.
#[test]
fn figures_1_and_2_select_inner_of_join() {
    // Shopping center at the origin; h1 and h2 are its two nearest hotels.
    let shopping_center = Point::anonymous(0.0, 0.0);
    let hotels = grid(vec![
        Point::new(1, 1.0, 0.0),  // h1
        Point::new(2, 0.0, 1.0),  // h2
        Point::new(3, 10.0, 5.0), // h3 (far from the shopping center)
    ]);
    let mechanics = grid(vec![
        Point::new(1, 6.0, 1.0), // m1: 2-NN hotels = {h1, h3}
        Point::new(2, 0.5, 0.5), // m2: 2-NN hotels = {h1, h2}
        Point::new(3, 4.0, 7.0), // m3: 2-NN hotels = {h2, h3}
        Point::new(4, 7.0, 0.0), // m4: 2-NN hotels = {h1, h3}
    ]);
    let query = SelectInnerJoinQuery::new(2, 2, shopping_center);

    let expected_correct: BTreeSet<(u64, u64)> = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 1)]
        .into_iter()
        .collect();
    let expected_wrong: BTreeSet<(u64, u64)> = [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 2),
    ]
    .into_iter()
    .collect();

    // Figure 1: the conceptually correct QEP and both efficient algorithms.
    assert_eq!(
        pair_id_set(&conceptual(&mechanics, &hotels, &query).rows),
        expected_correct
    );
    assert_eq!(
        pair_id_set(&counting(&mechanics, &hotels, &query).rows),
        expected_correct
    );
    assert_eq!(
        pair_id_set(&block_marking(&mechanics, &hotels, &query).rows),
        expected_correct
    );

    // Figure 2: the invalid pushdown produces the wrong, larger result.
    assert_eq!(
        pair_id_set(&invalid_inner_pushdown(&mechanics, &hotels, &query).rows),
        expected_wrong
    );
}

/// Figure 3: a kNN-select on the *outer* relation of a kNN-join. Pushing the
/// selection below the join is valid — both QEPs give the same pairs.
#[test]
fn figure_3_select_outer_of_join_pushdown_is_valid() {
    let shopping_center = Point::anonymous(0.0, 0.0);
    let mechanics = grid(vec![
        Point::new(1, 1.0, 0.5),
        Point::new(2, 0.5, 1.5),
        Point::new(3, 6.0, 6.0),
        Point::new(4, 8.0, 2.0),
    ]);
    let hotels = grid(vec![
        Point::new(1, 1.0, 1.0),
        Point::new(2, 2.0, 0.0),
        Point::new(3, 7.0, 5.0),
        Point::new(4, 9.0, 1.0),
    ]);
    let query = SelectOuterJoinQuery::new(2, 2, shopping_center);
    let pushed = select_on_outer_pushdown(&mechanics, &hotels, &query);
    let after = select_on_outer_after_join(&mechanics, &hotels, &query);
    assert_eq!(pair_id_set(&pushed.rows), pair_id_set(&after.rows));
    // The selection keeps mechanics 1 and 2 (closest to the shopping center),
    // so every output pair's outer component is one of them.
    assert!(pushed.rows.iter().all(|p| p.left.id == 1 || p.left.id == 2));
    assert_eq!(pushed.len(), 4);
}

/// Figures 8, 9 and 10: two unchained kNN-joins, k = 2 in both. Evaluating
/// either join first gives the wrong triplets; the correct QEP evaluates both
/// joins independently and intersects on B, keeping only b2.
#[test]
fn figures_8_9_10_unchained_joins() {
    let a = grid(vec![Point::new(1, 1.0, 1.0), Point::new(2, 2.0, -1.0)]);
    let b = grid(vec![
        Point::new(1, 0.0, 0.0),  // b1: neighbor of A only
        Point::new(2, 5.0, 0.0),  // b2: neighbor of both A and C
        Point::new(3, 10.0, 0.0), // b3: neighbor of C only
    ]);
    let c = grid(vec![Point::new(1, 8.0, 1.0), Point::new(2, 9.0, -1.0)]);
    let query = UnchainedJoinQuery::new(2, 2);

    // Figure 10: the correct result keeps only triplets through b2.
    let expected: BTreeSet<(u64, u64, u64)> = [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
        .into_iter()
        .collect();
    assert_eq!(
        triplet_id_set(&unchained_conceptual(&a, &b, &c, &query).rows),
        expected
    );
    assert_eq!(
        triplet_id_set(&unchained_block_marking(&a, &b, &c, &query).rows),
        expected
    );

    // Figure 8: (A ⋈ B) evaluated first filters b3 out — every triplet goes
    // through b1 or b2 and the result has 8 triplets, not 4.
    let fig8 = triplet_id_set(&unchained_wrong_sequential(&a, &b, &c, &query, true).rows);
    assert_eq!(fig8.len(), 8);
    assert!(fig8.iter().all(|(_, b_id, _)| *b_id == 1 || *b_id == 2));
    assert_ne!(fig8, expected);

    // Figure 9: (C ⋈ B) evaluated first filters b1 out.
    let fig9 = triplet_id_set(&unchained_wrong_sequential(&a, &b, &c, &query, false).rows);
    assert_eq!(fig9.len(), 8);
    assert!(fig9.iter().all(|(_, b_id, _)| *b_id == 2 || *b_id == 3));
    assert_ne!(fig9, expected);
    assert_ne!(fig8, fig9);
}

/// Figure 13: two chained kNN-joins, k = 2 in both. All three QEPs (and the
/// cached variant of QEP3) produce the same eight triplets listed in the
/// caption; b1 never appears because it is not a neighbor of any a.
#[test]
fn figure_13_chained_joins() {
    let a = grid(vec![Point::new(1, 1.5, 0.5), Point::new(2, 2.0, -0.5)]);
    let b = grid(vec![
        Point::new(1, 0.0, 10.0), // b1: far from A, never joined
        Point::new(2, 1.0, 0.0),  // b2
        Point::new(3, 3.0, 0.0),  // b3
    ]);
    let c = grid(vec![
        Point::new(1, 0.5, 0.0),   // c1: near b2
        Point::new(2, 2.0, 0.0),   // c2: between b2 and b3
        Point::new(3, 10.0, 10.0), // c3: far from everything
        Point::new(4, 3.5, 0.0),   // c4: near b3
    ]);
    let query = ChainedJoinQuery::new(2, 2);

    let expected: BTreeSet<(u64, u64, u64)> = [
        (1, 2, 1),
        (1, 2, 2),
        (2, 2, 1),
        (2, 2, 2),
        (1, 3, 2),
        (1, 3, 4),
        (2, 3, 2),
        (2, 3, 4),
    ]
    .into_iter()
    .collect();

    assert_eq!(
        triplet_id_set(&chained_right_deep(&a, &b, &c, &query).rows),
        expected
    );
    assert_eq!(
        triplet_id_set(&chained_join_intersection(&a, &b, &c, &query).rows),
        expected
    );
    assert_eq!(
        triplet_id_set(&chained_nested(&a, &b, &c, &query).rows),
        expected
    );
    assert_eq!(
        triplet_id_set(&chained_nested_cached(&a, &b, &c, &query).rows),
        expected
    );
}

/// Figures 14, 15 and 16: two kNN-selects, k = 5 each. The sequential plans
/// return five houses each (the survivors of whichever select ran first); the
/// correct plan returns only the two houses near both focal points.
#[test]
fn figures_14_15_16_two_selects() {
    let work = Point::anonymous(0.0, 0.0);
    let school = Point::anonymous(10.0, 0.0);
    let houses = grid(vec![
        Point::new(1, 5.0, 0.5),    // x: near both
        Point::new(2, 5.0, -0.5),   // y: near both
        Point::new(3, 1.0, 0.0),    // l: near work
        Point::new(4, 0.0, 1.0),    // m: near work
        Point::new(5, 1.0, 1.0),    // z: near work
        Point::new(6, 9.0, 0.0),    // n: near school
        Point::new(7, 10.0, 1.0),   // p: near school
        Point::new(8, 9.0, 1.0),    // o: near school
        Point::new(9, 20.0, 20.0),  // distant filler
        Point::new(10, -15.0, 8.0), // distant filler
    ]);
    let query = TwoSelectsQuery::new(5, work, 5, school);

    // Figure 16: the correct QEP returns {x, y}.
    let expected_correct: BTreeSet<u64> = [1, 2].into_iter().collect();
    assert_eq!(
        point_id_set(&two_selects_conceptual(&houses, &query).rows),
        expected_correct
    );
    assert_eq!(
        point_id_set(&two_knn_select(&houses, &query).rows),
        expected_correct
    );

    // Figure 14: work-select first → {x, y, l, m, z}.
    let fig14 = point_id_set(&two_selects_wrong_sequential(&houses, &query, true).rows);
    assert_eq!(fig14, [1, 2, 3, 4, 5].into_iter().collect::<BTreeSet<_>>());

    // Figure 15: school-select first → {x, y, n, p, o}.
    let fig15 = point_id_set(&two_selects_wrong_sequential(&houses, &query, false).rows);
    assert_eq!(fig15, [1, 2, 6, 7, 8].into_iter().collect::<BTreeSet<_>>());

    assert_ne!(fig14, expected_correct);
    assert_ne!(fig15, expected_correct);
    assert_ne!(fig14, fig15);
}
