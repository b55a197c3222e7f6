//! Deriving guard regions from a standing query's shape, its pinned
//! snapshot, and its current result.
//!
//! The soundness contract (what [`maintain`](super::maintain) relies on):
//! for each referenced relation, a write whose **old and new positions**
//! all fall outside the guard (a) cannot change the query's result, and
//! (b) leaves every guard of the subscription valid. (b) is what lets the
//! maintainer skip a publish without refreshing anything: outside-guard
//! inserts never enter a guarded kNN set and outside-guard removes were
//! never in one, so every kth-NN distance the guard was derived from is
//! unchanged.
//!
//! Three constructions cover the five query shapes:
//!
//! * **Focal circle** — a kNN-select predicate `σ_{k,f}` is guarded by the
//!   circle at `f` with radius the *current* kth-NN distance: only writes
//!   inside it can change the select's membership (or its radius).
//! * **Result circles** — a join side whose outer points are pinned by the
//!   current result (the selected points of a select-on-outer pushdown, the
//!   `b`-points of a chained join) is guarded by one circle per pinned
//!   point with radius its current kth-join distance, read directly off the
//!   result rows. Sound because the pinned set itself can only change via
//!   writes to *other* relations — which trigger a re-evaluation and a
//!   guard refresh.
//! * **Block expansion** — a join inner relation whose outer side is a
//!   whole relation is guarded per outer block `B`: `MBR(B)` expanded by
//!   `kthNNdist(center(B)) + diagonal(B)/2`. By the triangle inequality
//!   every outer point `a ∈ B` has `kthNNdist(a) ≤ kthNNdist(center) +
//!   dist(a, center)`, so any inner write relevant to *some* `a` falls
//!   inside the expansion — the same center-based bound Block-Marking's
//!   preprocessing exploits (Theorem 1 of the paper).
//!
//! Sides where any insert creates result rows (the outer relation of a
//! kNN-join, a relation with fewer points than a predicate's `k`) get
//! [`Guard::Everything`].

use std::collections::HashMap;

use twoknn_geometry::{Point, Predicate, Rect};
use twoknn_index::{get_knn, get_knn_filtered, Metrics, SpatialIndex};

use crate::output::{Pair, Triplet};
use crate::plan::executor::QuerySpec;
use crate::plan::Row;
use crate::store::DbSnapshot;

use super::registry::Guard;

/// The bounding square of a circle — guards are axis-aligned rectangles,
/// so circles are kept conservatively as their bounding boxes.
fn circle(center: &Point, radius: f64) -> Rect {
    let r = radius.max(0.0);
    Rect::new(center.x - r, center.y - r, center.x + r, center.y + r)
}

/// The focal-circle guard of a kNN-select `σ_{k,focal}` over `relation`.
fn select_guard(
    relation: &dyn SpatialIndex,
    focal: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Guard {
    if relation.num_points() < k {
        // Fewer points than k: any insert anywhere joins the select result.
        return Guard::Everything;
    }
    let kth = get_knn(relation, focal, k, metrics).radius();
    Guard::Regions(vec![circle(focal, kth)])
}

/// The focal-circle guard of a **filtered** kNN-select: the radius is the
/// k-th *matching* distance — never smaller than the unfiltered k-th
/// distance, so the circle still covers every position whose write could
/// change the (filtered) membership. Fewer than `k` matching points means
/// any matching insert anywhere joins the result: unbounded.
fn filtered_select_guard(
    relation: &dyn SpatialIndex,
    focal: &Point,
    k: usize,
    predicate: &Predicate,
    metrics: &mut Metrics,
) -> Guard {
    let nbr = get_knn_filtered(relation, focal, k, predicate, metrics);
    if nbr.len() < k {
        return Guard::Everything;
    }
    Guard::Regions(vec![circle(focal, nbr.radius())])
}

/// The block-expansion guard on `inner` for the join `outer ⋈_k inner`:
/// one rectangle per occupied outer block.
fn expansion_guard(
    outer: &dyn SpatialIndex,
    inner: &dyn SpatialIndex,
    k: usize,
    metrics: &mut Metrics,
) -> Guard {
    if inner.num_points() < k {
        return Guard::Everything;
    }
    let mut rects = Vec::new();
    for block in outer.blocks() {
        if block.count == 0 {
            continue;
        }
        let center = block.mbr.center();
        let kth = get_knn(inner, &center, k, metrics).radius();
        rects.push(block.mbr.expanded(kth + block.mbr.diagonal() * 0.5));
    }
    Guard::Regions(rects)
}

/// Result-circle guard on the join's inner relation: one circle per pinned
/// outer point, radius its farthest joined partner in the current rows.
/// `pairs` yields `(outer point, inner point)` per result row.
fn result_circles_guard(
    inner: &dyn SpatialIndex,
    k: usize,
    pairs: impl Iterator<Item = (Point, Point)>,
) -> Guard {
    if inner.num_points() < k {
        return Guard::Everything;
    }
    let mut radii: HashMap<u64, (Point, f64)> = HashMap::new();
    for (outer, joined) in pairs {
        let d = outer.distance(&joined);
        let entry = radii.entry(outer.id).or_insert((outer, d));
        if d > entry.1 {
            entry.1 = d;
        }
    }
    // Rect order within a guard is never observed (containment tests and
    // cell bucketing are order-independent), so HashMap iteration order is
    // fine as-is.
    Guard::Regions(radii.values().map(|(p, r)| circle(p, *r)).collect())
}

fn merge_into(guards: &mut HashMap<String, Guard>, relation: &str, guard: Guard) {
    match guards.remove(relation) {
        Some(existing) => {
            guards.insert(relation.to_string(), existing.merge(guard));
        }
        None => {
            guards.insert(relation.to_string(), guard);
        }
    }
}

/// Extracts the `(outer, inner)` point pairs of pair-valued rows.
fn pair_rows(rows: &[Row]) -> impl Iterator<Item = (Point, Point)> + '_ {
    rows.iter().filter_map(|row| match row {
        Row::Pair(Pair { left, right }) => Some((*left, *right)),
        _ => None,
    })
}

/// Extracts the `(b, c)` point pairs of triplet-valued rows.
fn chained_bc_rows(rows: &[Row]) -> impl Iterator<Item = (Point, Point)> + '_ {
    rows.iter().filter_map(|row| match row {
        Row::Triplet(Triplet { b, c, .. }) => Some((*b, *c)),
        _ => None,
    })
}

/// Computes the guard of every relation a standing query references, from
/// the snapshot it was just evaluated against and its current result rows.
/// kNN work performed for the guards (focal / block-center neighborhoods)
/// is counted into `metrics`.
pub(crate) fn compute_guards(
    spec: &QuerySpec,
    snapshot: &DbSnapshot,
    rows: &[Row],
    metrics: &mut Metrics,
) -> Result<HashMap<String, Guard>, crate::error::QueryError> {
    let mut guards = HashMap::new();
    match spec {
        QuerySpec::SelectInnerOfJoin {
            outer,
            inner,
            query,
        } => {
            let outer_rel = snapshot.relation(outer)?;
            let inner_rel = snapshot.relation(inner)?;
            // Any outer insert gains a joined row that may intersect the
            // select: unbounded.
            merge_into(&mut guards, outer, Guard::Everything);
            // Inner writes matter inside the select circle or wherever they
            // can enter some outer point's k_join neighborhood.
            let select = select_guard(inner_rel, &query.focal, query.k_select, metrics);
            let expansion = expansion_guard(outer_rel, inner_rel, query.k_join, metrics);
            merge_into(&mut guards, inner, select.merge(expansion));
        }
        QuerySpec::SelectOuterOfJoin {
            outer,
            inner,
            query,
        } => {
            let outer_rel = snapshot.relation(outer)?;
            let inner_rel = snapshot.relation(inner)?;
            // Outer writes matter only where they can change the select.
            merge_into(
                &mut guards,
                outer,
                select_guard(outer_rel, &query.focal, query.k_select, metrics),
            );
            // The selected outer points are pinned by the result: the
            // pushdown joins each selected point with its full k_join
            // neighborhood, so the rows carry every per-point radius.
            merge_into(
                &mut guards,
                inner,
                result_circles_guard(inner_rel, query.k_join, pair_rows(rows)),
            );
        }
        QuerySpec::UnchainedJoins { a, b, c, query } => {
            let a_rel = snapshot.relation(a)?;
            let b_rel = snapshot.relation(b)?;
            let c_rel = snapshot.relation(c)?;
            merge_into(&mut guards, a, Guard::Everything);
            merge_into(&mut guards, c, Guard::Everything);
            let from_a = expansion_guard(a_rel, b_rel, query.k_ab, metrics);
            let from_c = expansion_guard(c_rel, b_rel, query.k_cb, metrics);
            merge_into(&mut guards, b, from_a.merge(from_c));
        }
        QuerySpec::ChainedJoins { a, b, c, query } => {
            let a_rel = snapshot.relation(a)?;
            let b_rel = snapshot.relation(b)?;
            let c_rel = snapshot.relation(c)?;
            merge_into(&mut guards, a, Guard::Everything);
            merge_into(
                &mut guards,
                b,
                expansion_guard(a_rel, b_rel, query.k_ab, metrics),
            );
            // The b-points reachable from A are pinned by the result; every
            // result b carries its full k_bc neighborhood in the rows.
            merge_into(
                &mut guards,
                c,
                result_circles_guard(c_rel, query.k_bc, chained_bc_rows(rows)),
            );
        }
        QuerySpec::TwoSelects { relation, query } => {
            let rel = snapshot.relation(relation)?;
            let g1 = select_guard(rel, &query.f1, query.k1, metrics);
            let g2 = select_guard(rel, &query.f2, query.k2, metrics);
            merge_into(&mut guards, relation, g1.merge(g2));
        }
        QuerySpec::KnnSelect { relation, query } => {
            let rel = snapshot.relation(relation)?;
            merge_into(
                &mut guards,
                relation,
                select_guard(rel, &query.focal, query.k, metrics),
            );
        }
        QuerySpec::Filtered { spec, filters } => match spec.as_ref() {
            // A filtered single select keeps a precise guard: the circle at
            // the *filtered* k-th distance. Sound regardless of post
            // filters — a write outside the circle cannot change the
            // filtered kNN set, hence not any residual-filtered subset of
            // it either.
            QuerySpec::KnnSelect { relation, query } => {
                let rel = snapshot.relation(relation)?;
                let predicate = filters
                    .pre
                    .get(relation)
                    .cloned()
                    .unwrap_or(Predicate::True);
                merge_into(
                    &mut guards,
                    relation,
                    filtered_select_guard(rel, &query.focal, query.k, &predicate, metrics),
                );
            }
            // Every other filtered shape falls back to unbounded guards on
            // all referenced relations: always sound (every publish
            // re-evaluates), at the cost of maintenance work. Tightening
            // these is future work.
            inner => {
                for name in inner.role_names() {
                    merge_into(&mut guards, name, Guard::Everything);
                }
            }
        },
    }
    Ok(guards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selects2::TwoSelectsQuery;
    use crate::store::RelationStore;
    use twoknn_index::GridIndex;

    fn store_with(points: Vec<Point>) -> RelationStore {
        let store = RelationStore::default();
        store.register("R", GridIndex::build(points, 5).unwrap());
        store
    }

    fn cloud(n: usize) -> Vec<Point> {
        (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(i, (h % 997) as f64 * 0.1, ((h / 997) % 997) as f64 * 0.1)
            })
            .collect()
    }

    #[test]
    fn two_selects_guard_is_the_pair_of_focal_circles() {
        let store = store_with(cloud(500));
        let snapshot = store.pin_many(["R"]).unwrap();
        let spec = QuerySpec::TwoSelects {
            relation: "R".into(),
            query: TwoSelectsQuery::new(
                4,
                Point::anonymous(20.0, 20.0),
                8,
                Point::anonymous(70.0, 70.0),
            ),
        };
        let mut m = Metrics::default();
        let guards = compute_guards(&spec, &snapshot, &[], &mut m).unwrap();
        let rel = snapshot.relation("R").unwrap();
        match &guards["R"] {
            Guard::Regions(rects) => {
                assert_eq!(rects.len(), 2);
                // Each circle's radius is the kth-NN distance of its focal.
                let r1 = get_knn(rel, &Point::anonymous(20.0, 20.0), 4, &mut m).radius();
                assert!((rects[0].width() * 0.5 - r1).abs() < 1e-9);
                // Guards are tight: far positions are uncovered.
                let far = Point::anonymous(500.0, 500.0);
                assert!(!rects.iter().any(|r| r.contains(&far)));
            }
            g => panic!("expected bounded guard, got {g:?}"),
        }
    }

    #[test]
    fn undersized_relation_forces_an_unbounded_guard() {
        let store = store_with(cloud(3));
        let snapshot = store.pin_many(["R"]).unwrap();
        let spec = QuerySpec::TwoSelects {
            relation: "R".into(),
            query: TwoSelectsQuery::new(
                10,
                Point::anonymous(0.0, 0.0),
                2,
                Point::anonymous(1.0, 1.0),
            ),
        };
        let mut m = Metrics::default();
        let guards = compute_guards(&spec, &snapshot, &[], &mut m).unwrap();
        assert!(matches!(guards["R"], Guard::Everything));
    }
}
