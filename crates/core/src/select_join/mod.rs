//! Queries combining a kNN-join with a kNN-select (Section 3 of the paper).
//!
//! The query evaluated by this module is, formally,
//!
//! ```text
//! (E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))
//! ```
//!
//! i.e. the pairs `(e1, e2)` such that `e2` is among the `k⋈` nearest
//! neighbors of `e1` **and** among the `kσ` nearest neighbors of the focal
//! point `f`. The motivating example of the paper: mechanic shops joined with
//! their two closest hotels, keeping only hotels that are among the two
//! closest to a given shopping center.
//!
//! The naive relational optimization — pushing the kNN-select below the
//! *inner* relation of the join — is **invalid** (it changes the result,
//! Figures 1 and 2); [`invalid_inner_pushdown`] implements that wrong plan so
//! tests and examples can demonstrate the non-equivalence. Pushing a select
//! below the *outer* relation is valid (Figure 3) and implemented in
//! [`select_on_outer_pushdown`] / [`select_on_outer_after_join`].
//!
//! The efficient algorithms that preserve the correct semantics are
//! [`counting`] (Procedure 1) and [`block_marking`] (Procedures 2–3).

mod block_marking;
mod conceptual;
mod counting;
mod outer_pushdown;

pub use block_marking::block_marking;
pub use conceptual::{conceptual, invalid_inner_pushdown};
pub use counting::counting;
pub use outer_pushdown::{select_on_outer_after_join, select_on_outer_pushdown};

use twoknn_geometry::Point;
use twoknn_index::{Neighbor, Neighborhood};

use crate::output::Pair;

/// The rows an outer point `e1` with neighborhood `members` contributes to
/// the select-inner query — the pairs `(e1, n)` whose `n` is also in
/// `nbr_f`, in member order — written into `e1`'s slots, of which there are
/// `min(|members|, |nbr_f|)`, enough for every row. Slots past the rows
/// stay `None`.
fn intersect_into(
    e1: Point,
    members: &[Neighbor],
    nbr_f: &Neighborhood,
    slots: &mut [Option<Pair>],
) {
    let hits = members.iter().filter(|n| nbr_f.contains_id(n.point.id));
    for (slot, n) in slots.iter_mut().zip(hits) {
        *slot = Some(Pair::new(e1, n.point));
    }
}

/// Parameters of a query with a kNN-select on the **inner** relation of a
/// kNN-join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectInnerJoinQuery {
    /// `k⋈`: the k value of the kNN-join predicate.
    pub k_join: usize,
    /// `kσ`: the k value of the kNN-select predicate.
    pub k_select: usize,
    /// The focal point of the kNN-select (e.g. the shopping center).
    pub focal: Point,
}

impl SelectInnerJoinQuery {
    /// Creates a query description.
    pub fn new(k_join: usize, k_select: usize, focal: Point) -> Self {
        Self {
            k_join,
            k_select,
            focal,
        }
    }
}

/// Parameters of a query with a kNN-select on the **outer** relation of a
/// kNN-join (the completeness case of Section 3; pushdown is valid here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectOuterJoinQuery {
    /// `k⋈`: the k value of the kNN-join predicate.
    pub k_join: usize,
    /// `kσ`: the k value of the kNN-select predicate applied to the outer
    /// relation.
    pub k_select: usize,
    /// The focal point of the kNN-select.
    pub focal: Point,
}

impl SelectOuterJoinQuery {
    /// Creates a query description.
    pub fn new(k_join: usize, k_select: usize, focal: Point) -> Self {
        Self {
            k_join,
            k_select,
            focal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_constructors_store_parameters() {
        let f = Point::anonymous(1.0, 2.0);
        let q = SelectInnerJoinQuery::new(2, 3, f);
        assert_eq!((q.k_join, q.k_select), (2, 3));
        assert_eq!(q.focal, f);
        let q = SelectOuterJoinQuery::new(4, 5, f);
        assert_eq!((q.k_join, q.k_select), (4, 5));
    }
}
