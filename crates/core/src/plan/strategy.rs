//! Physical strategies available for each two-predicate query shape.

/// Strategy for a kNN-select on the inner relation of a kNN-join (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectInnerStrategy {
    /// The conceptually correct QEP: full join, then intersect.
    Conceptual,
    /// The Counting algorithm (Procedure 1): per-outer-point count test.
    Counting,
    /// The Block-Marking algorithm (Procedures 2–3): every non-empty outer
    /// block is tested from its centre's neighborhood and only the points of
    /// Contributing blocks are joined. The paper's contour early stop is left
    /// out: it returned wrong rows on blocks that do not tile the space. The
    /// paper's default for dense outer relations.
    #[default]
    BlockMarking,
}

/// Strategy for a kNN-select on the outer relation of a kNN-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectOuterStrategy {
    /// Evaluate the join for every outer point, select afterwards.
    SelectAfterJoin,
    /// Push the select below the outer relation (valid, and much cheaper).
    #[default]
    Pushdown,
}

/// Strategy for two unchained kNN-joins (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnchainedStrategy {
    /// Evaluate both joins independently and intersect on B (Figure 10).
    Conceptual,
    /// Procedure 4: evaluate `A ⋈ B` first, mark Candidate/Safe blocks, prune
    /// Non-Contributing blocks of `C`.
    BlockMarkingStartWithA,
    /// Procedure 4 with the joins swapped: evaluate `C ⋈ B` first and prune
    /// blocks of `A`.
    BlockMarkingStartWithC,
}

/// Strategy for two chained kNN-joins (Section 4.2, Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainedStrategy {
    /// QEP1: right-deep plan, `B ⋈ C` materialized first.
    RightDeep,
    /// QEP2: both joins evaluated independently, intersected on B.
    JoinIntersection,
    /// QEP3: nested join without caching.
    NestedJoin,
    /// QEP3 with the per-`b` neighborhood cache (the paper's recommendation).
    #[default]
    NestedJoinCached,
}

/// Strategy for two kNN-selects (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TwoSelectsStrategy {
    /// Evaluate both selects in full and intersect (Figure 16).
    Conceptual,
    /// Procedure 5: bound the larger-k predicate's locality by the smaller-k
    /// neighborhood.
    #[default]
    TwoKnnSelect,
}

/// A strategy for any of the supported query shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Strategy for [`crate::select_join::SelectInnerJoinQuery`].
    SelectInner(SelectInnerStrategy),
    /// Strategy for [`crate::select_join::SelectOuterJoinQuery`].
    SelectOuter(SelectOuterStrategy),
    /// Strategy for [`crate::joins2::UnchainedJoinQuery`].
    Unchained(UnchainedStrategy),
    /// Strategy for [`crate::joins2::ChainedJoinQuery`].
    Chained(ChainedStrategy),
    /// Strategy for [`crate::selects2::TwoSelectsQuery`].
    TwoSelects(TwoSelectsStrategy),
    /// The single (optionally filtered) kNN-select of
    /// [`crate::select::KnnSelectQuery`]: one strategy, the predicate-masked
    /// block kernel — blocks in MINDIST order, the batched distance pass
    /// masked by the predicate, τ-pruning against the k-th *matching*
    /// distance.
    Select,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::SelectInner(s) => write!(f, "select-inner/{s:?}"),
            Strategy::SelectOuter(s) => write!(f, "select-outer/{s:?}"),
            Strategy::Unchained(s) => write!(f, "unchained/{s:?}"),
            Strategy::Chained(s) => write!(f, "chained/{s:?}"),
            Strategy::TwoSelects(s) => write!(f, "two-selects/{s:?}"),
            Strategy::Select => f.write_str("select"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendations() {
        assert_eq!(
            SelectInnerStrategy::default(),
            SelectInnerStrategy::BlockMarking
        );
        assert_eq!(
            SelectOuterStrategy::default(),
            SelectOuterStrategy::Pushdown
        );
        assert_eq!(
            ChainedStrategy::default(),
            ChainedStrategy::NestedJoinCached
        );
        assert_eq!(
            TwoSelectsStrategy::default(),
            TwoSelectsStrategy::TwoKnnSelect
        );
    }

    #[test]
    fn display_is_informative() {
        let s = Strategy::Chained(ChainedStrategy::NestedJoinCached);
        assert!(s.to_string().contains("chained"));
        assert!(s.to_string().contains("NestedJoinCached"));
    }
}
