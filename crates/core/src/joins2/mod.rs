//! Queries with two kNN-join predicates (Section 4 of the paper).
//!
//! The kNN-join is not symmetric, so two joins over three relations come in
//! two flavors:
//!
//! * **Unchained** joins share the *inner* relation:
//!   `(A ⋈kNN B) ∩_B (C ⋈kNN B)` — both `A` and `C` look for their nearest
//!   `B` points, and the results are matched on the shared `B` component.
//!   Evaluating either join "first" and feeding its output to the other is
//!   wrong (Figures 8 and 9); the correct conceptual QEP evaluates both joins
//!   independently and intersects on `B` (Figure 10). The efficient
//!   evaluation ([`unchained_block_marking`]) prunes blocks of the second
//!   join's outer relation using Candidate/Safe block marking (Procedure 4).
//!
//! * **Chained** joins form a path `A → B → C`:
//!   `(A ⋈kNN B) ∩ (B ⋈kNN C)` — the `B` points are both the neighbors of
//!   `A` points and the query points of the second join. All three QEPs of
//!   Figure 13 are equivalent; the *nested* QEP3 avoids computing the
//!   neighborhoods of `B` points that never appear as neighbors of `A`, and a
//!   per-`b` neighborhood cache removes its repeated computations.
//!
//! Which unchained join goes first (Section 4.1.2) is the optimizer's
//! choice: [`Optimizer::choose_unchained`](crate::plan::Optimizer::choose_unchained).
//!
//! Every plan ends in the same `∩_B` (the private `on_b` module): one side's
//! points grouped by their `b` in one flat buffer, and the other side's
//! blocks writing the triplets into their shares of one output buffer on
//! the current pool. A kNN-join gives each outer point exactly
//! `min(k, |inner|)` members, so each block's share is counted from the
//! groups before any row is written. The rows come in role order,
//! `(a, b, c)`, whichever unchained join runs first.

mod chained;
mod on_b;
mod unchained;

pub use chained::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    ChainedJoinQuery,
};
pub(crate) use unchained::unchained_block_marking_from;
pub use unchained::{
    unchained_block_marking, unchained_conceptual, unchained_wrong_sequential, UnchainedJoinQuery,
};

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::Point;

    #[test]
    fn query_descriptors_expose_parameters() {
        let u = UnchainedJoinQuery::new(2, 3);
        assert_eq!((u.k_ab, u.k_cb), (2, 3));
        let c = ChainedJoinQuery::new(4, 5);
        assert_eq!((c.k_ab, c.k_bc), (4, 5));
        // silence unused import in cfg(test)
        let _ = Point::anonymous(0.0, 0.0);
    }
}
