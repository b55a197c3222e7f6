//! The *neighborhood* of a point: its `k` nearest neighbors.
//!
//! Definition 1 of the paper: "The neighborhood of a point, say p, is the set
//! of the k nearest neighboring points to p." The two-predicate algorithms
//! constantly need the *nearest* and the *farthest* member of a neighborhood
//! (search thresholds in Procedures 1, 3 and 5) and need to intersect two
//! neighborhoods, so [`Neighborhood`] keeps its members sorted by distance
//! from the query point and provides those operations directly.

use twoknn_geometry::{Point, PointId};

/// A neighbor: a point together with its distance from the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The neighboring point.
    pub point: Point,
    /// Euclidean distance from the query point.
    pub distance: f64,
}

impl Neighbor {
    /// A placeholder for the slots of a members buffer sized in advance,
    /// before [`BlockKnn::get`](crate::BlockKnn::get) writes them.
    pub const UNSET: Neighbor = Neighbor {
        point: Point::anonymous(0.0, 0.0),
        distance: f64::INFINITY,
    };
}

/// The order members of a neighborhood are kept in: by distance, then by
/// point id.
pub(crate) fn nearer_first(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .expect("distances must not be NaN")
        .then_with(|| a.point.id.cmp(&b.point.id))
}

/// The `k` nearest neighbors of a query point, sorted by increasing distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighborhood {
    /// The query (focal) point this neighborhood belongs to.
    query: Point,
    /// Requested `k`.
    k: usize,
    /// Members, sorted by increasing distance from `query`; ties broken by
    /// point id so results are deterministic.
    members: Vec<Neighbor>,
}

impl Neighborhood {
    /// Builds a neighborhood from an unsorted list of neighbors.
    ///
    /// The list is sorted by `(distance, point id)` and truncated to `k`
    /// entries. Fewer than `k` members are kept when the relation holds fewer
    /// than `k` points, mirroring the set semantics of the paper.
    pub fn from_unsorted(query: Point, k: usize, mut members: Vec<Neighbor>) -> Self {
        members.sort_by(nearer_first);
        members.truncate(k);
        Self { query, k, members }
    }

    /// An empty neighborhood (used when the inner relation is empty).
    pub fn empty(query: Point, k: usize) -> Self {
        Self {
            query,
            k,
            members: Vec::new(),
        }
    }

    /// The query point.
    pub fn query(&self) -> Point {
        self.query
    }

    /// The requested `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of members actually present (≤ `k`).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the neighborhood has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members sorted by increasing distance from the query point.
    pub fn members(&self) -> &[Neighbor] {
        &self.members
    }

    /// Iterator over the member points (without distances).
    pub fn points(&self) -> impl Iterator<Item = &Point> {
        self.members.iter().map(|n| &n.point)
    }

    /// The member nearest to the query point.
    pub fn nearest(&self) -> Option<&Neighbor> {
        self.members.first()
    }

    /// The member farthest from the query point.
    pub fn farthest(&self) -> Option<&Neighbor> {
        self.members.last()
    }

    /// Distance from the query point to the farthest member (0 when empty).
    ///
    /// This is `f_farthest` in Procedure 3 and the radius of the circle that
    /// "confines the neighborhood" in the paper's figures.
    pub fn radius(&self) -> f64 {
        self.farthest().map_or(0.0, |n| n.distance)
    }

    /// Whether the neighborhood contains a point with the given id.
    pub fn contains_id(&self, id: PointId) -> bool {
        self.members.iter().any(|n| n.point.id == id)
    }

    /// Distance from an arbitrary point `p` to the *nearest* member.
    ///
    /// This is the Counting algorithm's *search threshold*:
    /// "the distance between e1 and the nearest point to e1 in the
    /// neighborhood of f" (Section 3.1).
    pub fn nearest_distance_from(&self, p: &Point) -> Option<f64> {
        self.members
            .iter()
            .map(|n| p.distance(&n.point))
            .min_by(|a, b| a.partial_cmp(b).expect("distance must not be NaN"))
    }

    /// Distance from an arbitrary point `p` to the *farthest* member.
    ///
    /// This is the 2-kNN-select search threshold: "the distance between f2 and
    /// the farthest to it in the neighborhood of f1" (Section 5.2).
    pub fn farthest_distance_from(&self, p: &Point) -> Option<f64> {
        self.members
            .iter()
            .map(|n| p.distance(&n.point))
            .max_by(|a, b| a.partial_cmp(b).expect("distance must not be NaN"))
    }

    /// Set-intersection of two neighborhoods by point id, in the sense of the
    /// paper's `intersect(P, Q)` helper. Returns the points of `self` whose
    /// ids also occur in `other`, preserving `self`'s distance order.
    pub fn intersect(&self, other: &Neighborhood) -> Vec<Point> {
        self.members
            .iter()
            .filter(|n| other.contains_id(n.point.id))
            .map(|n| n.point)
            .collect()
    }

    /// Ids of the members, in distance order.
    pub fn ids(&self) -> Vec<PointId> {
        self.members.iter().map(|n| n.point.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(query: Point, k: usize, pts: &[(PointId, f64, f64)]) -> Neighborhood {
        let members = pts
            .iter()
            .map(|&(id, x, y)| {
                let p = Point::new(id, x, y);
                Neighbor {
                    point: p,
                    distance: query.distance(&p),
                }
            })
            .collect();
        Neighborhood::from_unsorted(query, k, members)
    }

    #[test]
    fn members_are_sorted_and_truncated_to_k() {
        let q = Point::anonymous(0.0, 0.0);
        let n = nb(q, 2, &[(1, 3.0, 0.0), (2, 1.0, 0.0), (3, 2.0, 0.0)]);
        assert_eq!(n.len(), 2);
        assert_eq!(n.ids(), vec![2, 3]);
        assert_eq!(n.nearest().unwrap().point.id, 2);
        assert_eq!(n.farthest().unwrap().point.id, 3);
        assert_eq!(n.radius(), 2.0);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let q = Point::anonymous(0.0, 0.0);
        let n = nb(q, 2, &[(9, 1.0, 0.0), (4, 0.0, 1.0), (7, -1.0, 0.0)]);
        // All three are at distance 1; the two smallest ids are kept.
        assert_eq!(n.ids(), vec![4, 7]);
    }

    #[test]
    fn empty_neighborhood_behaves() {
        let q = Point::anonymous(0.0, 0.0);
        let n = Neighborhood::empty(q, 5);
        assert!(n.is_empty());
        assert_eq!(n.radius(), 0.0);
        assert!(n.nearest().is_none());
        assert!(n.nearest_distance_from(&q).is_none());
    }

    #[test]
    fn nearest_and_farthest_distance_from_external_point() {
        let q = Point::anonymous(0.0, 0.0);
        let n = nb(q, 3, &[(1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]);
        let e = Point::anonymous(5.0, 0.0);
        assert_eq!(n.nearest_distance_from(&e), Some(2.0)); // to (3,0)
        assert_eq!(n.farthest_distance_from(&e), Some(4.0)); // to (1,0)
    }

    #[test]
    fn intersection_is_by_id() {
        let q = Point::anonymous(0.0, 0.0);
        let a = nb(q, 3, &[(1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)]);
        let b = nb(q, 3, &[(3, 3.0, 0.0), (4, 4.0, 0.0), (1, 1.0, 0.0)]);
        let ids: Vec<_> = a.intersect(&b).iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert!(a.contains_id(2));
        assert!(!b.contains_id(2));
    }

    #[test]
    fn keeps_fewer_than_k_when_input_is_small() {
        let q = Point::anonymous(0.0, 0.0);
        let n = nb(q, 10, &[(1, 1.0, 0.0)]);
        assert_eq!(n.len(), 1);
        assert_eq!(n.k(), 10);
    }
}
