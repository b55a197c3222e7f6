//! Using the plan layer: a relation catalog, the paper's Figure 2 run on
//! real data (a kNN-select may not be pushed below a join's inner
//! relation, and neither may a filter), EXPLAIN, statistics-driven strategy
//! selection, and execution.
//!
//! Run with: `cargo run --release --example plan_optimizer`

use two_knn::core::joins2::UnchainedJoinQuery;
use two_knn::core::output::pair_id_set;
use two_knn::core::plan::{Database, QueryFilters, QuerySpec, Strategy};
use two_knn::core::select_join::{conceptual, invalid_inner_pushdown, SelectInnerJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::geometry::Predicate;
use two_knn::{GridIndex, Point, QueryError};

fn main() {
    let shopping_center = Point::anonymous(52_000.0, 49_000.0);
    let mut db = Database::new();
    db.register(
        "Mechanics",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(60_000, 41)),
            64,
        )
        .unwrap(),
    );
    db.register(
        "Hotels",
        GridIndex::build_with_target_occupancy(
            berlinmod(&BerlinModConfig::with_points(20_000, 42)),
            64,
        )
        .unwrap(),
    );
    db.register(
        "Attractions",
        GridIndex::build_with_target_occupancy(
            clustered(&ClusterConfig {
                num_clusters: 3,
                points_per_cluster: 2_000,
                cluster_radius: 2_000.0,
                extent: two_knn::datagen::default_extent(),
                seed: 43,
            }),
            64,
        )
        .unwrap(),
    );

    // ----- 1. Figure 2: the invalid inner pushdown ---------------------------
    println!("== Figure 2: a kNN-select below a join's inner relation ==");
    // Each mechanic's 2 nearest hotels, kept when the hotel is one of the 2
    // nearest to the shopping center (the conceptual QEP), against the join
    // run over only those 2 hotels (the pushdown).
    let query = SelectInnerJoinQuery::new(2, 2, shopping_center);
    let snapshot = db.snapshot();
    let mechanics = snapshot.snapshot("Mechanics").unwrap();
    let hotels = snapshot.snapshot("Hotels").unwrap();
    let correct = pair_id_set(&conceptual(&**mechanics, &**hotels, &query).rows);
    let pushed = pair_id_set(&invalid_inner_pushdown(&**mechanics, &**hotels, &query).rows);
    assert_ne!(correct, pushed, "the inner pushdown must change the answer");
    println!(
        "conceptual QEP: {} pairs; inner pushdown: {} pairs, {} of them wrong",
        correct.len(),
        pushed.len(),
        pushed.difference(&correct).count()
    );

    // The same argument holds for a filter: a pre-kNN filter on the join's
    // inner relation changes every mechanic's neighborhood, so it is refused.
    let select_inner = QuerySpec::SelectInnerOfJoin {
        outer: "Mechanics".into(),
        inner: "Hotels".into(),
        query,
    };
    let pre_on_inner = select_inner
        .clone()
        .with_filters(QueryFilters::none().pre("Hotels", Predicate::IdRange { lo: 0, hi: 9_999 }));
    match db.execute(&pre_on_inner) {
        Err(err @ QueryError::InvalidTransformation { .. }) => {
            println!("pre-kNN filter on `Hotels` refused: {err}")
        }
        other => panic!("a pre-kNN filter on the join's inner must be refused, got {other:?}"),
    }

    // EXPLAIN prints the lowered query in the algebra (`logical:`).
    let explain = db
        .explain("FIND (Hotels WHERE ID BETWEEN 0 AND 9000) WHERE KNN(8, 52000, 49000)")
        .unwrap();
    assert!(
        explain.logical.is_some(),
        "a textual query has a logical line"
    );
    println!("\n{explain}\n");

    // ----- 2. Statistics-driven strategy selection ---------------------------
    println!("== optimizer ==");
    for name in ["Mechanics", "Hotels", "Attractions"] {
        println!("profile[{name}]: {}", db.profile(name).unwrap());
    }

    let unchained = QuerySpec::UnchainedJoins {
        a: "Attractions".into(),
        b: "Hotels".into(),
        c: "Mechanics".into(),
        query: UnchainedJoinQuery::new(2, 2),
    };
    let two_selects = QuerySpec::TwoSelects {
        relation: "Hotels".into(),
        query: TwoSelectsQuery::new(
            10,
            shopping_center,
            640,
            Point::anonymous(47_000.0, 51_000.0),
        ),
    };

    for (label, spec) in [
        ("select-inner-of-join", &select_inner),
        ("unchained-joins", &unchained),
        ("two-selects", &two_selects),
    ] {
        let strategy: Strategy = db.plan(spec).unwrap();
        let result = db.execute(spec).unwrap();
        println!(
            "{label:>22}: strategy = {strategy}, rows = {}, work = {}",
            result.num_rows(),
            result.metrics()
        );
    }
}
