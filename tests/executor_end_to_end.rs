//! End-to-end tests of the catalog / optimizer / executor layer on realistic
//! (BerlinMOD-like and clustered) workloads, plus the pooled join operator.

use two_knn::core::join::knn_join;
use two_knn::core::joins2::ChainedJoinQuery;
use two_knn::core::joins2::UnchainedJoinQuery;
use two_knn::core::output::pair_id_set;
use two_knn::core::plan::{
    ChainedStrategy, Database, QueryResult, QuerySpec, RelationProfile, SelectInnerStrategy,
    Strategy, TwoSelectsStrategy, UnchainedStrategy,
};
use two_knn::core::select_join::SelectInnerJoinQuery;
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::{GridIndex, Point, WorkerPool};

fn build_db() -> Database {
    let mut db = Database::new();
    db.register(
        "Restaurants",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(6_000, 71)),
            64,
        )
        .unwrap(),
    );
    db.register(
        "Hotels",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(4_000, 72)),
            64,
        )
        .unwrap(),
    );
    db.register(
        "Attractions",
        GridIndex::build_with_target_occupancy(
            clustered(&ClusterConfig {
                num_clusters: 2,
                points_per_cluster: 1_500,
                cluster_radius: 2_000.0,
                extent: two_knn::datagen::default_extent(),
                seed: 73,
            }),
            64,
        )
        .unwrap(),
    );
    db
}

fn center() -> Point {
    Point::anonymous(50_000.0, 50_000.0)
}

#[test]
fn optimizer_prefers_block_marking_for_large_outer_and_counting_for_small() {
    let db = build_db();
    // "Restaurants" has 6k points, ~64 to an occupied block: dense enough
    // for Block-Marking to exclude whole blocks, whatever its size.
    let spec = QuerySpec::SelectInnerOfJoin {
        outer: "Restaurants".into(),
        inner: "Hotels".into(),
        query: SelectInnerJoinQuery::new(2, 4, center()),
    };
    assert_eq!(
        db.plan(&spec).unwrap(),
        Strategy::SelectInner(SelectInnerStrategy::BlockMarking)
    );

    // A sparse outer, under 8 points to an occupied block, plans to
    // Counting: per-block work has little to exclude there.
    let sparse =
        GridIndex::build(berlinmod(&BerlinModConfig::with_points(6_000, 71)), 120).unwrap();
    assert!(RelationProfile::compute(&sparse).avg_points_per_occupied_block < 8.0);
    let mut small = Database::new();
    small.register("Restaurants", sparse);
    small.register(
        "Hotels",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(4_000, 72)),
            64,
        )
        .unwrap(),
    );
    assert_eq!(
        small.plan(&spec).unwrap(),
        Strategy::SelectInner(SelectInnerStrategy::Counting)
    );
}

#[test]
fn optimizer_starts_unchained_joins_with_the_clustered_relation() {
    let db = build_db();
    let spec = QuerySpec::UnchainedJoins {
        a: "Attractions".into(),
        b: "Hotels".into(),
        c: "Restaurants".into(),
        query: UnchainedJoinQuery::new(2, 2),
    };
    assert_eq!(
        db.plan(&spec).unwrap(),
        Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA)
    );
    // Swapping the roles swaps the decision.
    let swapped = QuerySpec::UnchainedJoins {
        a: "Restaurants".into(),
        b: "Hotels".into(),
        c: "Attractions".into(),
        query: UnchainedJoinQuery::new(2, 2),
    };
    assert_eq!(
        db.plan(&swapped).unwrap(),
        Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC)
    );
}

#[test]
fn every_query_shape_executes_and_strategies_agree_on_results() {
    let db = build_db();

    // Select-inner-of-join: optimizer choice vs conceptual reference.
    let spec = QuerySpec::SelectInnerOfJoin {
        outer: "Restaurants".into(),
        inner: "Hotels".into(),
        query: SelectInnerJoinQuery::new(2, 6, center()),
    };
    let auto = db.execute(&spec).unwrap();
    let reference = db
        .execute_with(
            &spec,
            Strategy::SelectInner(SelectInnerStrategy::Conceptual),
        )
        .unwrap();
    assert_eq!(auto.num_rows(), reference.num_rows());

    // Chained joins: cached nested join vs right-deep reference.
    let chained = QuerySpec::ChainedJoins {
        a: "Attractions".into(),
        b: "Hotels".into(),
        c: "Restaurants".into(),
        query: ChainedJoinQuery::new(2, 2),
    };
    let fast = db.execute(&chained).unwrap();
    assert_eq!(
        fast.strategy(),
        Strategy::Chained(ChainedStrategy::NestedJoinCached)
    );
    let slow = db
        .execute_with(&chained, Strategy::Chained(ChainedStrategy::RightDeep))
        .unwrap();
    assert_eq!(fast.num_rows(), slow.num_rows());
    assert!(fast.metrics().neighborhoods_computed <= slow.metrics().neighborhoods_computed);

    // Two selects: the auto strategy is the 2-kNN-select algorithm.
    let selects = QuerySpec::TwoSelects {
        relation: "Hotels".into(),
        query: TwoSelectsQuery::new(8, center(), 512, Point::anonymous(52_000.0, 51_000.0)),
    };
    let fast = db.execute(&selects).unwrap();
    assert_eq!(
        fast.strategy(),
        Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect)
    );
    let slow = db
        .execute_with(
            &selects,
            Strategy::TwoSelects(TwoSelectsStrategy::Conceptual),
        )
        .unwrap();
    match (fast, slow) {
        (QueryResult::Points { output: f, .. }, QueryResult::Points { output: s, .. }) => {
            assert_eq!(
                two_knn::core::output::point_id_set(&f.rows),
                two_knn::core::output::point_id_set(&s.rows)
            );
        }
        _ => panic!("expected point results"),
    }
}

#[test]
fn pooled_knn_join_matches_sequential_on_city_data() {
    let outer = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(3_000, 81)),
        64,
    )
    .unwrap();
    let inner = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(5_000, 82)),
        64,
    )
    .unwrap();
    let seq = WorkerPool::new(1).bind(|| knn_join(&outer, &inner, 3));
    for threads in [2, 4, 8] {
        let par = WorkerPool::new(threads).bind(|| knn_join(&outer, &inner, 3));
        assert_eq!(pair_id_set(&seq.rows), pair_id_set(&par.rows));
    }
}
