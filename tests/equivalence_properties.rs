//! Property-style equivalence tests: on arbitrary random inputs, every
//! efficient algorithm of the paper must return exactly the same result set
//! as its conceptually correct QEP. Inputs are generated by the workspace's own
//! deterministic RNG (`proptest` is not available offline); every case is
//! reproducible from its printed case number.

use two_knn::core::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_conceptual, ChainedJoinQuery, UnchainedJoinQuery,
};
use two_knn::core::output::{pair_id_set, point_id_set, triplet_id_set};
use two_knn::core::select_join::{
    block_marking, conceptual, counting, select_on_outer_after_join, select_on_outer_pushdown,
    SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use two_knn::core::selects2::{two_knn_select, two_selects_conceptual, TwoSelectsQuery};
use two_knn::datagen::rng::StdRng;
use two_knn::{GridIndex, PackedIndex, Point, QuadtreeIndex, Rect, StrRTree};

const CASES: u64 = 48;

/// `1..=max_n` points with coordinates in `[0, 100)²`.
fn uniform_points(rng: &mut StdRng, max_n: usize) -> Vec<Point> {
    let n = rng.gen_range(1..max_n + 1);
    (0..n)
        .map(|i| {
            Point::new(
                i as u64,
                rng.gen_range(0.0f64..100.0),
                rng.gen_range(0.0f64..100.0),
            )
        })
        .collect()
}

/// `1..=max_n` points in one to three squares of side 12 centred in
/// `[10, 90)²`.
fn clustered_points(rng: &mut StdRng, max_n: usize) -> Vec<Point> {
    let n = rng.gen_range(1..max_n + 1);
    let centres: Vec<(f64, f64)> = (0..rng.gen_range(1..4usize))
        .map(|_| (rng.gen_range(10.0f64..90.0), rng.gen_range(10.0f64..90.0)))
        .collect();
    (0..n)
        .map(|i| {
            let (x, y) = centres[i % centres.len()];
            Point::new(
                i as u64,
                x + rng.gen_range(-6.0f64..6.0),
                y + rng.gen_range(-6.0f64..6.0),
            )
        })
        .collect()
}

/// Indexes `points` with one of the three index families: a grid over
/// fixed bounds, or a quadtree or an STR R-tree whose leaves hold at most
/// four points and so do not tile the space the way grid cells do.
fn index(family: &str, points: Vec<Point>) -> PackedIndex {
    match family {
        "grid" => GridIndex::build_with_bounds(points, Rect::new(0.0, 0.0, 100.0, 100.0), 7),
        "quadtree" => QuadtreeIndex::build(points, 4),
        _ => StrRTree::build(points, 4),
    }
    .expect("a valid index over finite points")
}

/// A relation of `1..=max_n` uniform points, indexed into a grid over fixed
/// bounds.
fn relation(rng: &mut StdRng, max_n: usize) -> PackedIndex {
    index("grid", uniform_points(rng, max_n))
}

fn focal(rng: &mut StdRng) -> Point {
    Point::anonymous(rng.gen_range(0.0f64..100.0), rng.gen_range(0.0f64..100.0))
}

/// Invariant 1: Counting ≡ Block-Marking ≡ conceptual QEP for the
/// select-inner-of-join query, on every index family, with a uniform and
/// with a clustered inner relation.
#[test]
fn select_inner_algorithms_are_equivalent() {
    for family in ["grid", "quadtree", "str"] {
        for clustered_inner in [false, true] {
            for case in 0..CASES {
                let mut rng = StdRng::seed_from_u64(case);
                let outer = index(family, uniform_points(&mut rng, 120));
                let inner = index(
                    family,
                    if clustered_inner {
                        clustered_points(&mut rng, 160)
                    } else {
                        uniform_points(&mut rng, 160)
                    },
                );
                let f = focal(&mut rng);
                let k_join = rng.gen_range(1..6usize);
                let k_select = rng.gen_range(1..8usize);
                let query = SelectInnerJoinQuery::new(k_join, k_select, f);
                let context = format!("{family}, clustered inner {clustered_inner}, case {case}");
                let reference = pair_id_set(&conceptual(&outer, &inner, &query).rows);
                assert_eq!(
                    pair_id_set(&counting(&outer, &inner, &query).rows),
                    reference,
                    "counting, {context}"
                );
                assert_eq!(
                    pair_id_set(&block_marking(&outer, &inner, &query).rows),
                    reference,
                    "block-marking, {context}"
                );
            }
        }
    }
}

/// Invariant 2: pushing a kNN-select below the *outer* relation of a kNN-join
/// does not change the result (Figure 3).
#[test]
fn outer_select_pushdown_is_an_equivalence() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + case);
        let outer = relation(&mut rng, 120);
        let inner = relation(&mut rng, 120);
        let f = focal(&mut rng);
        let k_join = rng.gen_range(1..5usize);
        let k_select = rng.gen_range(1..10usize);
        let query = SelectOuterJoinQuery::new(k_join, k_select, f);
        assert_eq!(
            pair_id_set(&select_on_outer_pushdown(&outer, &inner, &query).rows),
            pair_id_set(&select_on_outer_after_join(&outer, &inner, &query).rows),
            "case {case}"
        );
    }
}

/// Invariant 3: the unchained Block-Marking algorithm (either join first)
/// matches the conceptual independent-joins-plus-∩B plan.
#[test]
fn unchained_algorithms_are_equivalent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + case);
        let a = relation(&mut rng, 80);
        let b = relation(&mut rng, 120);
        let c = relation(&mut rng, 80);
        let k_ab = rng.gen_range(1..4usize);
        let k_cb = rng.gen_range(1..4usize);
        let query = UnchainedJoinQuery::new(k_ab, k_cb);
        let reference = triplet_id_set(&unchained_conceptual(&a, &b, &c, &query).rows);
        assert_eq!(
            triplet_id_set(&unchained_block_marking(&a, &b, &c, &query).rows),
            reference,
            "case {case}"
        );
        // Starting with the other join answers the symmetric query
        // (C ⋈ B) ∩_B (A ⋈ B); swap the components to compare.
        let swapped = UnchainedJoinQuery::new(k_cb, k_ab);
        let other_order: std::collections::BTreeSet<_> =
            unchained_block_marking(&c, &b, &a, &swapped)
                .rows
                .iter()
                .map(|t| (t.c.id, t.b.id, t.a.id))
                .collect();
        assert_eq!(other_order, reference, "swapped order, case {case}");
    }
}

/// Invariant 4: the four chained-join QEPs are equivalent.
#[test]
fn chained_plans_are_equivalent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + case);
        let a = relation(&mut rng, 60);
        let b = relation(&mut rng, 90);
        let c = relation(&mut rng, 90);
        let k_ab = rng.gen_range(1..4usize);
        let k_bc = rng.gen_range(1..4usize);
        let query = ChainedJoinQuery::new(k_ab, k_bc);
        let reference = triplet_id_set(&chained_right_deep(&a, &b, &c, &query).rows);
        assert_eq!(
            triplet_id_set(&chained_join_intersection(&a, &b, &c, &query).rows),
            reference,
            "join-intersection, case {case}"
        );
        assert_eq!(
            triplet_id_set(&chained_nested(&a, &b, &c, &query).rows),
            reference,
            "nested, case {case}"
        );
        assert_eq!(
            triplet_id_set(&chained_nested_cached(&a, &b, &c, &query).rows),
            reference,
            "nested-cached, case {case}"
        );
    }
}

/// Invariant 5: the 2-kNN-select algorithm matches the conceptual
/// independent-selects-plus-intersection plan, for any k1/k2 relation.
#[test]
fn two_selects_algorithms_are_equivalent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + case);
        let relation = relation(&mut rng, 200);
        let f1 = focal(&mut rng);
        let f2 = focal(&mut rng);
        let k1 = rng.gen_range(1..30usize);
        let k2 = rng.gen_range(1..150usize);
        let query = TwoSelectsQuery::new(k1, f1, k2, f2);
        assert_eq!(
            point_id_set(&two_knn_select(&relation, &query).rows),
            point_id_set(&two_selects_conceptual(&relation, &query).rows),
            "case {case}"
        );
    }
}

/// The result of the select-inner-of-join query is always a subset of the
/// full kNN-join and of the cross product of the outer relation with the
/// focal neighborhood (the formal definition in Section 3).
#[test]
fn select_inner_result_is_bounded_by_both_predicates() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5_000 + case);
        let outer = relation(&mut rng, 60);
        let inner = relation(&mut rng, 90);
        let f = focal(&mut rng);
        let k_join = rng.gen_range(1..4usize);
        let k_select = rng.gen_range(1..6usize);
        let query = SelectInnerJoinQuery::new(k_join, k_select, f);
        let result = block_marking(&outer, &inner, &query);
        // Bound 1: at most k_join pairs per outer point and k_select distinct
        // inner points overall.
        let mut per_outer = std::collections::HashMap::new();
        let mut inner_ids = std::collections::BTreeSet::new();
        for p in &result.rows {
            *per_outer.entry(p.left.id).or_insert(0usize) += 1;
            inner_ids.insert(p.right.id);
        }
        assert!(per_outer.values().all(|&c| c <= k_join), "case {case}");
        assert!(inner_ids.len() <= k_select, "case {case}");
    }
}
