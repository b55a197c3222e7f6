//! The paper's motivating scenario (Section 1): a car breaks down, the driver
//! needs a mechanic shop and a hotel close to each other, and the hotel must
//! also be close to a specific shopping center.
//!
//! Query: "From the list of mechanic shops and the two closest hotels to each
//! mechanic shop, report the (mechanic shop, hotel) pairs, where the hotel is
//! amongst the two closest neighbors of the shopping center."
//!
//! This example shows (a) that pushing the kNN-select below the join's inner
//! relation silently changes the answer, and (b) how much work the Counting
//! and Block-Marking algorithms save relative to the conceptually correct
//! plan.
//!
//! Run with: `cargo run --release --example roadside_assistance`

use two_knn::core::output::pair_id_set;
use two_knn::core::select_join::{
    block_marking, conceptual, counting, invalid_inner_pushdown, SelectInnerJoinQuery,
};
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::{GridIndex, Point, SpatialIndex};

fn main() {
    // Mechanics are sparse; hotels are denser and skewed towards the center.
    let mechanics = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(30_000, 11)),
        64,
    )
    .unwrap();
    let hotels = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(8_000, 12)),
        64,
    )
    .unwrap();
    let shopping_center = Point::anonymous(52_000.0, 49_000.0);

    println!(
        "mechanics: {} points, hotels: {} points, shopping center at ({:.0}, {:.0})\n",
        mechanics.num_points(),
        hotels.num_points(),
        shopping_center.x,
        shopping_center.y
    );

    let query = SelectInnerJoinQuery::new(2, 2, shopping_center);

    // The three correct plans.
    let correct = conceptual(&mechanics, &hotels, &query);
    let fast_counting = counting(&mechanics, &hotels, &query);
    // Block-Marking tests every non-empty mechanic-shop block from its
    // centre's neighborhood and joins only the shops of the blocks that can
    // contribute. It tests them all: the paper's contour early stop is left
    // out, because off a plain grid it can drop rows.
    let fast_marking = block_marking(&mechanics, &hotels, &query);

    // The classical (and wrong) relational optimization.
    let wrong = invalid_inner_pushdown(&mechanics, &hotels, &query);

    println!("correct answer: {} (mechanic, hotel) pairs", correct.len());
    println!(
        "invalid select-pushdown answer: {} pairs  <-- {}",
        wrong.len(),
        if pair_id_set(&wrong.rows) == pair_id_set(&correct.rows) {
            "coincidentally equal"
        } else {
            "WRONG (different result set)"
        }
    );
    assert_eq!(
        pair_id_set(&fast_counting.rows),
        pair_id_set(&correct.rows),
        "Counting must match the conceptual plan"
    );
    assert_eq!(
        pair_id_set(&fast_marking.rows),
        pair_id_set(&correct.rows),
        "Block-Marking must match the conceptual plan"
    );

    println!("\nwork comparison (neighborhood computations are the dominant cost):");
    println!(
        "  conceptual QEP : {:>8} neighborhoods, {:>9} points scanned",
        correct.metrics.neighborhoods_computed, correct.metrics.points_scanned
    );
    println!(
        "  Counting       : {:>8} neighborhoods, {:>9} points scanned ({} outer points pruned)",
        fast_counting.metrics.neighborhoods_computed,
        fast_counting.metrics.points_scanned,
        fast_counting.metrics.points_pruned
    );
    println!(
        "  Block-Marking  : {:>8} neighborhoods, {:>9} points scanned ({} blocks pruned)",
        fast_marking.metrics.neighborhoods_computed,
        fast_marking.metrics.points_scanned,
        fast_marking.metrics.blocks_pruned
    );

    let speedup = correct.metrics.neighborhoods_computed as f64
        / fast_marking.metrics.neighborhoods_computed.max(1) as f64;
    println!(
        "\nBlock-Marking does {speedup:.0}x fewer neighborhood computations than the conceptual QEP."
    );
}
