//! Two kNN-join queries over three relations (Section 4): planning a trip
//! that combines attractions, restaurants and parking garages.
//!
//! * **Unchained** joins: "attractions with their 2 nearest restaurants, and
//!   parking garages with their 2 nearest restaurants — report (attraction,
//!   restaurant, parking) combinations that share the restaurant." Both joins
//!   target the restaurants relation; the paper shows they must be evaluated
//!   independently and intersected on the shared component, and that marking
//!   Candidate/Safe restaurant blocks prunes most of the second join.
//!
//! * **Chained** joins: "attractions with their 2 nearest restaurants, and
//!   for each such restaurant its 2 nearest parking garages." The nested QEP3
//!   with a neighborhood cache avoids expanding restaurants nobody visits.
//!
//! Run with: `cargo run --release --example trip_planning`

use two_knn::core::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_conceptual, ChainedJoinQuery, UnchainedJoinQuery,
};
use two_knn::core::output::triplet_id_set;
use two_knn::core::plan::{Optimizer, RelationProfile, UnchainedStrategy};
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::{GridIndex, Point, SpatialIndex};

fn main() {
    // Restaurants and parking cover the whole city (BerlinMOD-like);
    // attractions are clustered in a handful of touristic areas.
    let attractions = GridIndex::build_with_target_occupancy(
        clustered(&ClusterConfig {
            num_clusters: 4,
            points_per_cluster: 1_000,
            cluster_radius: 2_500.0,
            extent: two_knn::datagen::default_extent(),
            seed: 31,
        }),
        64,
    )
    .unwrap();
    let restaurants = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(40_000, 32)),
        64,
    )
    .unwrap();
    let parking = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(30_000, 33)),
        64,
    )
    .unwrap();

    println!(
        "attractions={} (clustered), restaurants={}, parking={}\n",
        attractions.num_points(),
        restaurants.num_points(),
        parking.num_points()
    );

    // ----- Unchained joins -------------------------------------------------
    let q = UnchainedJoinQuery::new(2, 2);
    let decision = Optimizer.choose_unchained(
        &RelationProfile::compute(&attractions),
        &RelationProfile::compute(&parking),
    );
    println!(
        "unchained join order heuristic (Section 4.1.2): {:?}",
        decision
    );
    assert_eq!(
        decision,
        UnchainedStrategy::BlockMarkingStartWithA,
        "the clustered relation's join should go first"
    );

    let slow = unchained_conceptual(&attractions, &restaurants, &parking, &q);
    let fast = unchained_block_marking(&attractions, &restaurants, &parking, &q);
    assert_eq!(triplet_id_set(&slow.rows), triplet_id_set(&fast.rows));
    println!(
        "unchained: {} triplets; conceptual {} neighborhoods vs block-marking {} ({} parking blocks pruned)\n",
        fast.len(),
        slow.metrics.neighborhoods_computed,
        fast.metrics.neighborhoods_computed,
        fast.metrics.blocks_pruned
    );

    // ----- Chained joins ----------------------------------------------------
    let q = ChainedJoinQuery::new(2, 2);
    let p1 = chained_right_deep(&attractions, &restaurants, &parking, &q);
    let p2 = chained_join_intersection(&attractions, &restaurants, &parking, &q);
    let p3 = chained_nested(&attractions, &restaurants, &parking, &q);
    let p3c = chained_nested_cached(&attractions, &restaurants, &parking, &q);
    assert_eq!(triplet_id_set(&p1.rows), triplet_id_set(&p2.rows));
    assert_eq!(triplet_id_set(&p2.rows), triplet_id_set(&p3.rows));
    assert_eq!(triplet_id_set(&p3.rows), triplet_id_set(&p3c.rows));

    println!(
        "chained: {} triplets; neighborhoods computed per plan:",
        p3c.len()
    );
    println!(
        "  QEP1 right-deep          : {:>8}",
        p1.metrics.neighborhoods_computed
    );
    println!(
        "  QEP2 join-intersection   : {:>8}",
        p2.metrics.neighborhoods_computed
    );
    println!(
        "  QEP3 nested (no cache)   : {:>8}",
        p3.metrics.neighborhoods_computed
    );
    println!(
        "  QEP3 nested + cache      : {:>8}   ({} cache hits)",
        p3c.metrics.neighborhoods_computed, p3c.metrics.cache_hits
    );

    // An anonymous inline use of Point to show coordinates of one result.
    if let Some(t) = p3c.rows.first() {
        let a: Point = t.a;
        println!(
            "\nexample itinerary: attraction ({:.0},{:.0}) -> restaurant ({:.0},{:.0}) -> parking ({:.0},{:.0})",
            a.x, a.y, t.b.x, t.b.y, t.c.x, t.c.y
        );
    }
}
