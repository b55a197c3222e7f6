//! Join-order heuristics for unchained kNN-joins (Section 4.1.2).
//!
//! Both unchained joins are evaluated independently, so either can go first —
//! but the choice determines how many `B` blocks end up *Safe* and therefore
//! how much of the second join's outer relation can be pruned. The paper's
//! guidance:
//!
//! * if either outer relation (`A` or `C`) is clustered, start with the join
//!   of the clustered one;
//! * if both are clustered, start with the relation whose clusters cover the
//!   *smaller* area;
//! * if both are uniformly distributed, skip the Block-Marking machinery and
//!   use the plain conceptual QEP (the preprocessing would have no payoff).
//!
//! Cluster coverage is estimated here as the fraction of the index's spatial
//! extent covered by its non-empty blocks — a cheap statistic available from
//! block metadata alone.

use twoknn_index::SpatialIndex;

/// Which unchained join the optimizer decides to evaluate first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrderDecision {
    /// Start with `A ⋈kNN B` and prune blocks of `C` in the second join.
    StartWithA,
    /// Start with `C ⋈kNN B` and prune blocks of `A` in the second join.
    StartWithC,
    /// Both outer relations look uniform: evaluate the conceptual QEP without
    /// Candidate/Safe preprocessing.
    Conceptual,
}

/// Fraction of the relation's extent covered by non-empty blocks, in `[0, 1]`.
///
/// A uniformly distributed relation occupies almost every block (fraction
/// close to 1); a clustered relation leaves most of its extent empty.
pub fn coverage_fraction<I: SpatialIndex + ?Sized>(index: &I) -> f64 {
    let total_area = index.bounds().area();
    if total_area <= 0.0 {
        return 1.0;
    }
    let covered: f64 = index
        .blocks()
        .iter()
        .filter(|b| b.count > 0)
        .map(|b| b.mbr.area())
        .sum();
    (covered / total_area).clamp(0.0, 1.0)
}

/// Chooses which unchained join to evaluate first per Section 4.1.2.
///
/// `uniform_threshold` is the coverage fraction above which a relation is
/// considered uniformly distributed; the paper does not give a number, so the
/// default used by the optimizer is 0.6.
pub fn choose_unchained_order<A, C>(a: &A, c: &C, uniform_threshold: f64) -> JoinOrderDecision
where
    A: SpatialIndex + ?Sized,
    C: SpatialIndex + ?Sized,
{
    let cov_a = coverage_fraction(a);
    let cov_c = coverage_fraction(c);
    let a_uniform = cov_a >= uniform_threshold;
    let c_uniform = cov_c >= uniform_threshold;
    match (a_uniform, c_uniform) {
        (true, true) => JoinOrderDecision::Conceptual,
        (false, true) => JoinOrderDecision::StartWithA,
        (true, false) => JoinOrderDecision::StartWithC,
        (false, false) => {
            // Both clustered: start with the smaller coverage.
            if cov_a <= cov_c {
                JoinOrderDecision::StartWithA
            } else {
                JoinOrderDecision::StartWithC
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::{Point, Rect};
    use twoknn_index::{GridIndex, PackedIndex};

    fn uniform_grid(n: usize, seed: u64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
                Point::new(i as u64, (h % 100) as f64, ((h / 100) % 100) as f64)
            })
            .collect();
        GridIndex::build_with_bounds(pts, Rect::new(0.0, 0.0, 100.0, 100.0), 8).unwrap()
    }

    fn clustered_grid(n: usize, corner: f64, spread: f64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    corner + (i % 10) as f64 * spread,
                    corner + (i / 10) as f64 * spread,
                )
            })
            .collect();
        GridIndex::build_with_bounds(pts, Rect::new(0.0, 0.0, 100.0, 100.0), 8).unwrap()
    }

    #[test]
    fn coverage_distinguishes_uniform_from_clustered() {
        let u = uniform_grid(2000, 3);
        let c = clustered_grid(200, 5.0, 0.3);
        assert!(coverage_fraction(&u) > 0.8);
        assert!(coverage_fraction(&c) < 0.2);
    }

    #[test]
    fn both_uniform_falls_back_to_conceptual() {
        let a = uniform_grid(1000, 1);
        let c = uniform_grid(1000, 2);
        assert_eq!(
            choose_unchained_order(&a, &c, 0.6),
            JoinOrderDecision::Conceptual
        );
    }

    #[test]
    fn the_clustered_relation_goes_first() {
        let a = clustered_grid(300, 10.0, 0.2);
        let c = uniform_grid(1000, 4);
        assert_eq!(
            choose_unchained_order(&a, &c, 0.6),
            JoinOrderDecision::StartWithA
        );
        assert_eq!(
            choose_unchained_order(&c, &a, 0.6),
            JoinOrderDecision::StartWithC
        );
    }

    #[test]
    fn both_clustered_picks_the_smaller_coverage() {
        let small = clustered_grid(100, 5.0, 0.1); // tiny footprint
        let large = clustered_grid(400, 20.0, 2.0); // larger footprint
        assert_eq!(
            choose_unchained_order(&small, &large, 0.6),
            JoinOrderDecision::StartWithA
        );
        assert_eq!(
            choose_unchained_order(&large, &small, 0.6),
            JoinOrderDecision::StartWithC
        );
    }
}
