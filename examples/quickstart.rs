//! Quick start: build spatial indexes over synthetic city data and run each
//! of the five two-kNN-predicate query shapes once.
//!
//! Run with: `cargo run --release --example quickstart`

use two_knn::core::joins2::{
    chained_nested_cached, unchained_block_marking, ChainedJoinQuery, UnchainedJoinQuery,
};
use two_knn::core::select_join::{
    block_marking, select_on_outer_pushdown, SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use two_knn::core::selects2::{two_knn_select, TwoSelectsQuery};
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::{GridIndex, PackedIndex, Point, SpatialIndex};

fn city_relation(n: usize, seed: u64) -> PackedIndex {
    GridIndex::build_with_target_occupancy(berlinmod(&BerlinModConfig::with_points(n, seed)), 64)
        .expect("non-empty relation")
}

fn main() {
    println!("two-knn quickstart: five query shapes over a synthetic city\n");

    // Three relations over the same 100 km x 100 km city extent.
    let restaurants = city_relation(20_000, 1);
    let hotels = city_relation(15_000, 2);
    let parking = city_relation(10_000, 3);
    println!(
        "relations: restaurants={} pts/{} blocks, hotels={} pts, parking={} pts\n",
        restaurants.num_points(),
        restaurants.num_blocks(),
        hotels.num_points(),
        parking.num_points()
    );

    let city_center = Point::anonymous(50_000.0, 50_000.0);
    let office = Point::anonymous(47_500.0, 52_500.0);

    // 1. kNN-select on the inner relation of a kNN-join (Section 3), by
    //    Block-Marking: one neighborhood per restaurant block's centre marks
    //    the blocks that cannot contribute, and only the others are joined.
    let q = SelectInnerJoinQuery::new(3, 8, city_center);
    let out = block_marking(&restaurants, &hotels, &q);
    println!(
        "1. restaurants ⋈ 3-nearest hotels, hotel among 8 closest to the city center:\n   {} pairs   [{}]",
        out.len(),
        out.metrics
    );

    // 2. kNN-select on the outer relation (pushdown is valid).
    let q = SelectOuterJoinQuery::new(3, 5, office);
    let out = select_on_outer_pushdown(&restaurants, &hotels, &q);
    println!(
        "2. 5 restaurants closest to the office ⋈ their 3 nearest hotels:\n   {} pairs   [{}]",
        out.len(),
        out.metrics
    );

    // 3. Two unchained kNN-joins: restaurants and parking both matched to hotels.
    let q = UnchainedJoinQuery::new(2, 2);
    let out = unchained_block_marking(&restaurants, &hotels, &parking, &q);
    println!(
        "3. (restaurants ⋈ hotels) ∩_hotel (parking ⋈ hotels):\n   {} triplets   [{}]",
        out.len(),
        out.metrics
    );

    // 4. Two chained kNN-joins: restaurant -> hotel -> parking.
    let q = ChainedJoinQuery::new(2, 2);
    let out = chained_nested_cached(&restaurants, &hotels, &parking, &q);
    println!(
        "4. restaurants ⋈ hotels ⋈ parking (chained, cached nested join):\n   {} triplets   [{}]",
        out.len(),
        out.metrics
    );

    // 5. Two kNN-selects over one relation.
    let q = TwoSelectsQuery::new(10, city_center, 200, office);
    let out = two_knn_select(&hotels, &q);
    println!(
        "5. hotels among the 10 closest to the center AND the 200 closest to the office:\n   {} hotels   [{}]",
        out.len(),
        out.metrics
    );

    // 6. The same machinery through the Database driver: EXPLAIN the
    //    decision chain for one query, run it, and report the metrics the
    //    session accumulated.
    let mut db = two_knn::core::plan::Database::new();
    db.register("Hotels", city_relation(15_000, 2));
    let text = "FIND (Hotels WHERE INSIDE(RECT(40000, 40000, 60000, 60000))) \
                WHERE KNN(8, 50000, 50000)";
    println!("\n6. EXPLAIN of a filtered kNN-select:");
    println!("{}", db.explain(text).expect("valid query"));
    let result = db.query(text).expect("valid query");
    println!("   -> executed: {} rows\n", result.num_rows());
    println!("metrics report:\n{}", db.metrics_report());
}
