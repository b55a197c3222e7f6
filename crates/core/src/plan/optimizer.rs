//! The optimizer: mapping relation statistics to a physical strategy using
//! the paper's own guidance.
//!
//! * **Counting vs Block-Marking** (Section 3.3): "when the number of points
//!   in the outer relation is small, the Counting algorithm has better
//!   performance ... when the number of points in the outer relation is
//!   relatively high, i.e., high density, the Block-Marking algorithm has
//!   better performance because entire blocks will be excluded from the
//!   join." The engine keeps the density half of that rule and not the
//!   size half. Counting tests every outer point; Block-Marking pays one
//!   centre kNN per non-empty outer block and joins the Contributing
//!   blocks a block at a time. On one thread (`experiments --scale quick`)
//!   Block-Marking ties Counting at 1 000–2 000 low-density outer points
//!   (fig 20: 0.9–1.0×), wins 1.3× at 4 000 and 2.8× at 8 000, and wins
//!   7.8–11.6× on dense outers (fig 21). On `join_shapes`' 6 000-point
//!   outer, ≈ 64 points to an occupied block, on a pool of two, Counting
//!   took 1.9–2.1 ms a query and Block-Marking 0.48–0.53 ms, at 6 767
//!   against 2 140 units of `Metrics::work`. So only a sparse outer, under
//!   8 points to an occupied block, keeps Counting.
//! * **Unchained join order** (Section 4.1.2): start with the clustered
//!   relation's join; with two clustered relations start with the one with
//!   smaller cluster coverage; with two uniform relations use the conceptual
//!   QEP (the preprocessing has no payoff).
//! * **Chained joins** (Section 4.2.1): the nested QEP3 with the neighborhood
//!   cache dominates; the join-intersection QEP only matches it for uniform
//!   data, so the cached nested join is always chosen.
//! * **Two kNN-selects** (Section 5.2): the 2-kNN-select algorithm is chosen
//!   whenever the two k values differ; with equal k the conceptual QEP does
//!   the same work, so either is fine.

use crate::plan::stats::RelationProfile;
use crate::plan::strategy::{
    ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, TwoSelectsStrategy,
    UnchainedStrategy,
};
use crate::selects2::TwoSelectsQuery;

/// Outer relations whose average occupied-block population is below this
/// use Counting for the select-inner-join query (low density = little
/// payoff from per-block work); denser ones use Block-Marking.
const COUNTING_DENSITY_LIMIT: f64 = 8.0;

/// Coverage fraction above which a relation is treated as uniformly
/// distributed for the unchained-join heuristics.
const UNIFORM_COVERAGE_THRESHOLD: f64 = 0.6;

/// The strategy chooser. The paper gives qualitative guidance only; the
/// thresholds behind it are constants calibrated on the benchmark harness,
/// so the type has no fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Optimizer;

impl Optimizer {
    /// Chooses between Counting and Block-Marking for a kNN-select on the
    /// inner relation of a kNN-join, by the density of the *outer*
    /// relation's occupied blocks.
    pub fn choose_select_inner(&self, outer: &RelationProfile) -> SelectInnerStrategy {
        if outer.avg_points_per_occupied_block < COUNTING_DENSITY_LIMIT {
            SelectInnerStrategy::Counting
        } else {
            SelectInnerStrategy::BlockMarking
        }
    }

    /// The select-on-outer case: pushdown is always valid and always at least
    /// as cheap, so it is always chosen.
    pub fn choose_select_outer(&self, _outer: &RelationProfile) -> SelectOuterStrategy {
        SelectOuterStrategy::Pushdown
    }

    /// Chooses the unchained-join strategy given the profiles of the two
    /// outer relations `A` and `C` (Section 4.1.2).
    pub fn choose_unchained(&self, a: &RelationProfile, c: &RelationProfile) -> UnchainedStrategy {
        let a_uniform = a.looks_uniform(UNIFORM_COVERAGE_THRESHOLD);
        let c_uniform = c.looks_uniform(UNIFORM_COVERAGE_THRESHOLD);
        match (a_uniform, c_uniform) {
            (true, true) => UnchainedStrategy::Conceptual,
            (false, true) => UnchainedStrategy::BlockMarkingStartWithA,
            (true, false) => UnchainedStrategy::BlockMarkingStartWithC,
            (false, false) => {
                if a.coverage_fraction <= c.coverage_fraction {
                    UnchainedStrategy::BlockMarkingStartWithA
                } else {
                    UnchainedStrategy::BlockMarkingStartWithC
                }
            }
        }
    }

    /// Chooses the chained-join strategy. The cached nested join dominates or
    /// matches the alternatives on every workload in the paper, so it is the
    /// unconditional choice.
    pub fn choose_chained(&self, _b: &RelationProfile) -> ChainedStrategy {
        ChainedStrategy::NestedJoinCached
    }

    /// Chooses the two-selects strategy. The 2-kNN-select algorithm reduces
    /// work whenever `k1 != k2` and never does more work than the conceptual
    /// plan, so it is always chosen.
    pub fn choose_two_selects(&self, _query: &TwoSelectsQuery) -> TwoSelectsStrategy {
        TwoSelectsStrategy::TwoKnnSelect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::{Point, Rect};
    use twoknn_index::{GridIndex, PackedIndex};

    fn profile(points: Vec<Point>) -> RelationProfile {
        let g =
            GridIndex::build_with_bounds(points, Rect::new(0.0, 0.0, 100.0, 100.0), 10).unwrap();
        RelationProfile::compute(&g)
    }

    fn uniform(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(i as u64, (h % 100) as f64, ((h / 100) % 100) as f64)
            })
            .collect()
    }

    fn clustered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    3.0 + (i % 40) as f64 * 0.02,
                    3.0 + (i as u64 / 40) as f64 * 0.02,
                )
            })
            .collect()
    }

    #[test]
    fn small_or_sparse_outer_prefers_counting() {
        let opt = Optimizer;
        let small = profile(uniform(500));
        assert_eq!(
            opt.choose_select_inner(&small),
            SelectInnerStrategy::Counting
        );
    }

    #[test]
    fn large_dense_outer_prefers_block_marking() {
        // More points than the Counting limit, packed into a few blocks.
        let opt = Optimizer;
        let dense = profile(clustered(60_000));
        assert_eq!(
            opt.choose_select_inner(&dense),
            SelectInnerStrategy::BlockMarking
        );
    }

    #[test]
    fn unchained_heuristics_follow_the_paper() {
        let opt = Optimizer;
        let u = profile(uniform(5_000));
        let c = profile(clustered(5_000));
        assert_eq!(opt.choose_unchained(&u, &u), UnchainedStrategy::Conceptual);
        assert_eq!(
            opt.choose_unchained(&c, &u),
            UnchainedStrategy::BlockMarkingStartWithA
        );
        assert_eq!(
            opt.choose_unchained(&u, &c),
            UnchainedStrategy::BlockMarkingStartWithC
        );
        // Both clustered: the one with smaller coverage goes first.
        let tight = profile(clustered(2_000));
        let wide = profile(
            (0..2_000u64)
                .map(|i| Point::new(i, (i % 200) as f64 * 0.5, (i / 200) as f64 * 5.0))
                .collect(),
        );
        assert_eq!(
            opt.choose_unchained(&tight, &wide),
            UnchainedStrategy::BlockMarkingStartWithA
        );
    }

    #[test]
    fn chained_and_two_selects_defaults() {
        let opt = Optimizer;
        let p = profile(uniform(100));
        assert_eq!(opt.choose_chained(&p), ChainedStrategy::NestedJoinCached);
        let q = TwoSelectsQuery::new(
            5,
            Point::anonymous(0.0, 0.0),
            50,
            Point::anonymous(1.0, 1.0),
        );
        assert_eq!(opt.choose_two_selects(&q), TwoSelectsStrategy::TwoKnnSelect);
        assert_eq!(opt.choose_select_outer(&p), SelectOuterStrategy::Pushdown);
    }

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

    /// The unchained choice between the relations `a` and `c`.
    fn unchained(a: &PackedIndex, c: &PackedIndex) -> UnchainedStrategy {
        Optimizer.choose_unchained(&RelationProfile::compute(a), &RelationProfile::compute(c))
    }

    #[test]
    fn coverage_distinguishes_uniform_from_clustered() {
        let u = uniform_grid(2000, 3);
        let c = clustered_grid(200, 5.0, 0.3);
        assert!(RelationProfile::compute(&u).coverage_fraction > 0.8);
        assert!(RelationProfile::compute(&c).coverage_fraction < 0.2);
    }

    #[test]
    fn both_uniform_falls_back_to_conceptual() {
        let a = uniform_grid(1000, 1);
        let c = uniform_grid(1000, 2);
        assert_eq!(unchained(&a, &c), UnchainedStrategy::Conceptual);
    }

    #[test]
    fn the_clustered_relation_goes_first() {
        let a = clustered_grid(300, 10.0, 0.2);
        let c = uniform_grid(1000, 4);
        assert_eq!(unchained(&a, &c), UnchainedStrategy::BlockMarkingStartWithA);
        assert_eq!(unchained(&c, &a), UnchainedStrategy::BlockMarkingStartWithC);
    }

    #[test]
    fn both_clustered_picks_the_smaller_coverage() {
        let small = clustered_grid(100, 5.0, 0.1); // tiny footprint
        let large = clustered_grid(400, 20.0, 2.0); // larger footprint
        assert_eq!(
            unchained(&small, &large),
            UnchainedStrategy::BlockMarkingStartWithA
        );
        assert_eq!(
            unchained(&large, &small),
            UnchainedStrategy::BlockMarkingStartWithC
        );
    }
}
