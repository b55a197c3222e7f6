//! Queries with two kNN-select predicates (Section 5 of the paper).
//!
//! Example (Section 5.1): select the houses that are among the five closest
//! to the workplace **and** among the five closest to the school. Evaluating
//! the two selects one after the other is wrong — whichever runs second only
//! sees the `k` points that survived the first (Figures 14 and 15). The
//! correct conceptual QEP evaluates both selects independently against the
//! full relation and intersects their results (Figure 16).
//!
//! The efficient **2-kNN-select** algorithm (Procedure 5) exploits the fact
//! that the final result is a subset of the smaller-`k` predicate's
//! neighborhood: after computing that neighborhood, the locality of the
//! larger-`k` predicate only needs to cover it, so its locality is bounded by
//! a search threshold instead of growing with `k`.

mod conceptual;
mod two_knn_select;

pub(crate) use conceptual::intersect_output;
pub use conceptual::{two_selects_conceptual, two_selects_wrong_sequential};
pub use two_knn_select::two_knn_select;

use twoknn_geometry::Point;

/// Parameters of a query with two kNN-select predicates over one relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSelectsQuery {
    /// `k1`: the k of the first predicate.
    pub k1: usize,
    /// `f1`: the focal point of the first predicate (e.g. the workplace).
    pub f1: Point,
    /// `k2`: the k of the second predicate.
    pub k2: usize,
    /// `f2`: the focal point of the second predicate (e.g. the school).
    pub f2: Point,
}

impl TwoSelectsQuery {
    /// Creates a query description.
    pub fn new(k1: usize, f1: Point, k2: usize, f2: Point) -> Self {
        Self { k1, f1, k2, f2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_holds_parameters() {
        let q = TwoSelectsQuery::new(
            5,
            Point::anonymous(0.0, 0.0),
            100,
            Point::anonymous(1.0, 1.0),
        );
        assert_eq!(q.k1, 5);
        assert_eq!(q.k2, 100);
    }
}
