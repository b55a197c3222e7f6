//! The paper's two-kNN-select scenario (Section 5): a person moving to a new
//! city wants candidate houses that are among the k closest to their new
//! workplace **and** among the k closest to their children's school.
//!
//! This example shows that evaluating the two selects one after the other
//! produces wrong answers (Figures 14–15), and how the 2-kNN-select algorithm
//! (Procedure 5) avoids the cost of the larger-k predicate when the two k
//! values differ.
//!
//! Run with: `cargo run --release --example house_hunting`

use two_knn::core::output::point_id_set;
use two_knn::core::selects2::{
    two_knn_select, two_selects_conceptual, two_selects_wrong_sequential, TwoSelectsQuery,
};
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::{GridIndex, Point, SpatialIndex};

fn main() {
    let houses = GridIndex::build_with_target_occupancy(
        berlinmod(&BerlinModConfig::with_points(100_000, 21)),
        64,
    )
    .unwrap();
    // Work and school sit in the same (sparser, suburban) part of town, a
    // couple of kilometers apart — the setting where bounding the larger
    // predicate's locality pays off most.
    let work = Point::anonymous(30_000.0, 68_000.0);
    let school = Point::anonymous(31_500.0, 68_800.0);
    println!(
        "houses: {} points; work at ({:.0},{:.0}); school at ({:.0},{:.0})\n",
        houses.num_points(),
        work.x,
        work.y,
        school.x,
        school.y
    );

    // Equal k: the scenario from the paper's example (5 and 5).
    let q = TwoSelectsQuery::new(5, work, 5, school);
    let correct = two_selects_conceptual(&houses, &q);
    let wrong_work_first = two_selects_wrong_sequential(&houses, &q, true);
    let wrong_school_first = two_selects_wrong_sequential(&houses, &q, false);
    println!("k_work = k_school = 5:");
    println!("  correct intersection       : {} houses", correct.len());
    println!(
        "  work-select evaluated first : {} houses ({})",
        wrong_work_first.len(),
        if point_id_set(&wrong_work_first.rows) == point_id_set(&correct.rows) {
            "same by coincidence"
        } else {
            "WRONG"
        }
    );
    println!(
        "  school-select evaluated first: {} houses ({})",
        wrong_school_first.len(),
        if point_id_set(&wrong_school_first.rows) == point_id_set(&correct.rows) {
            "same by coincidence"
        } else {
            "WRONG"
        }
    );

    // Unequal k: where the 2-kNN-select algorithm shines.
    println!("\nk_work = 10 fixed, increasing k_school (the paper's Figure 26 setup):");
    println!(
        "{:>10} {:>22} {:>22}",
        "k_school", "conceptual pts scanned", "2-kNN-select pts scanned"
    );
    for exp in 0..=8 {
        let k_school = 10usize << exp;
        let q = TwoSelectsQuery::new(10, work, k_school, school);
        let slow = two_selects_conceptual(&houses, &q);
        let fast = two_knn_select(&houses, &q);
        assert_eq!(
            point_id_set(&slow.rows),
            point_id_set(&fast.rows),
            "2-kNN-select must match the conceptual plan"
        );
        println!(
            "{:>10} {:>22} {:>22}",
            k_school, slow.metrics.points_scanned, fast.metrics.points_scanned
        );
    }
    println!("\nThe 2-kNN-select cost stays flat because the larger predicate's locality is\nbounded by the smaller predicate's neighborhood (Procedure 5).");
}
