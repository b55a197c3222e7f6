//! Chained kNN-joins: `A → B → C` (Section 4.2).
//!
//! The query retrieves triplets `(a, b, c)` such that `b` is among the
//! `k_{A−B}` nearest `B` neighbors of `a`, and `c` is among the `k_{B−C}`
//! nearest `C` neighbors of `b`. The three QEPs of Figure 13 are all correct:
//!
//! * **QEP1** ([`chained_right_deep`]) — right-deep plan: materialize
//!   `B ⋈kNN C`, then join `A` against `B` and look the `B` results up in the
//!   materialized pairs.
//! * **QEP2** ([`chained_join_intersection`]) — evaluate `A ⋈kNN B` and
//!   `B ⋈kNN C` independently and intersect on `B`.
//! * **QEP3** ([`chained_nested`]) — nested join: compute the neighborhood of
//!   a `B` point only when it is produced as a neighbor of some `a ∈ A`.
//!   [`chained_nested_cached`] adds the hash-table cache of Section 4.2.1 so
//!   that a `b` appearing in several `A` neighborhoods is expanded only once.
//!
//! Every plan partitions its block loops through
//! [`crate::exec::run_into_shares`], so each phase of a multi-phase plan
//! (e.g. QEP2's two joins and its `∩_B`) runs on the pool the calling
//! thread is bound to; the rows of every plan are written one `A` block per
//! share. Neighborhoods are found a block at a time ([`BlockKnn`]): an `A`
//! block's points off one candidate list of `B` blocks and, in QEP3, the
//! `b`s that block produces off one candidate list of `C` blocks. QEP3
//! keeps its neighborhoods between phases in flat buffers the calling
//! thread sizes in advance, and decides which `b`s to expand on the calling
//! thread, so it has one cache whatever the pool size.

use std::collections::hash_map::Entry;
use std::ops::Range;

use twoknn_geometry::{Point, Rect};
use twoknn_index::{BlockKnn, Metrics, Neighbor, SpatialIndex};

use super::on_b::{id_map, triplets_on_b, ByB, Joined};
use crate::exec::run_into_shares;
use crate::output::{QueryOutput, Triplet};

/// Parameters of a query with two chained kNN-joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainedJoinQuery {
    /// `k_{A−B}`: the k of the join `A ⋈kNN B`.
    pub k_ab: usize,
    /// `k_{B−C}`: the k of the join `B ⋈kNN C`.
    pub k_bc: usize,
}

impl ChainedJoinQuery {
    /// Creates a query description.
    pub fn new(k_ab: usize, k_bc: usize) -> Self {
        Self { k_ab, k_bc }
    }
}

/// QEP1 of Figure 13: the right-deep plan. `B ⋈kNN C` is fully materialized
/// before the outer join runs, so every `b ∈ B` pays for a neighborhood
/// computation even if it never appears as a neighbor of any `a`. Both the
/// materializing join and the outer join are block-partitioned over the
/// current pool.
pub fn chained_right_deep<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    // Materialize (B ⋈kNN C), then join A against B and look each b up.
    let bc = ByB::members_by_outer(&Joined::knn(b, b.blocks(), c, query.k_bc, &mut metrics));
    let ab = Joined::knn(a, a.blocks(), b, query.k_ab, &mut metrics);
    let rows = bc.triplets(&ab, true, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// QEP2 of Figure 13: evaluate the two joins independently (each
/// block-partitioned over the current pool) and intersect on the shared `B`
/// component, in `(A ⋈kNN B)` order and then `(B ⋈kNN C)` order.
pub fn chained_join_intersection<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let ab = Joined::knn(a, a.blocks(), b, query.k_ab, &mut metrics);
    let bc = ByB::members_by_outer(&Joined::knn(b, b.blocks(), c, query.k_bc, &mut metrics));
    let rows = bc.triplets(&ab, true, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// QEP3 of Figure 13: the nested-join plan **without** caching. The
/// neighborhood of a `b` point is computed each time `b` is produced as a
/// neighbor of some `a` — so a popular `b` is expanded repeatedly. `A`'s
/// blocks are partitioned over the current pool; rows (in order) and merged
/// work counters are the same on every pool size.
pub fn chained_nested<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    chained_nested_impl(a, b, c, query, false)
}

/// QEP3 with the neighborhood cache of Section 4.2.1: results of the inner
/// join are cached in a hash table keyed by the `b` point, so each distinct
/// `b` is expanded at most once. This is the plan the paper recommends.
///
/// There is one cache whatever the pool size: hits and misses are decided
/// on the calling thread, in row order, between the two partitioned phases,
/// so rows (in order) and every counter — `cache_hits`, `cache_misses` and
/// `neighborhoods_computed` included — are the same on every pool size.
pub fn chained_nested_cached<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    chained_nested_impl(a, b, c, query, true)
}

fn chained_nested_impl<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    use_cache: bool,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let blocks = a.blocks();
    // Members per neighborhood: every b has `kc` cs.
    let kc = query.k_bc.min(c.num_points());

    // Phase 1, partitioned: every a's neighborhood in B, off one candidate
    // list per A block, into the block's share of one flat buffer.
    let ab = Joined::knn(a, blocks, b, query.k_ab, &mut metrics);

    // Phase 2, on the calling thread, per (a, b) in row order: the bs to
    // expand, grouped by the A block that first produced them, and the
    // range of the expansion each (a, b) reads. With the cache a b already
    // seen is a hit and shares the first expansion; without it every (a, b)
    // is expanded.
    let distinct = if use_cache {
        ab.members.len().min(b.num_points())
    } else {
        ab.members.len()
    };
    let mut first = id_map(if use_cache { distinct } else { 0 });
    let mut expand: Vec<Point> = Vec::with_capacity(distinct);
    let mut groups: Vec<Range<usize>> = Vec::with_capacity(blocks.len());
    let mut expansion_of: Vec<Range<usize>> = Vec::with_capacity(ab.members.len());
    let mut rest = ab.members.as_slice();
    for block in blocks {
        let (block_members, tail) = rest.split_at(block.count * ab.len);
        rest = tail;
        let start = expand.len();
        for n in block_members {
            let fresh = expand.len();
            let expansion = if !use_cache {
                fresh
            } else {
                match first.entry(n.point.id) {
                    Entry::Occupied(seen) => {
                        metrics.cache_hits += 1;
                        *seen.get()
                    }
                    Entry::Vacant(slot) => {
                        metrics.cache_misses += 1;
                        *slot.insert(fresh)
                    }
                }
            };
            if expansion == fresh {
                expand.push(n.point);
            }
            expansion_of.push(expansion * kc..(expansion + 1) * kc);
        }
        groups.push(start..expand.len());
    }

    // Phase 3, partitioned: each A block's bs, expanded together off one
    // candidate list of C, into the group's share of a second flat buffer.
    let nbrs_b = run_into_shares(
        &groups,
        |group| group.len() * kc,
        Neighbor::UNSET,
        &mut metrics,
        |group, members, metrics| {
            let bs = &expand[group.clone()];
            let Ok(region) = Rect::bounding(bs) else {
                return;
            };
            let mut knn = BlockKnn::prepare(c, &region, query.k_bc, metrics);
            for (j, b_point) in bs.iter().enumerate() {
                knn.get(b_point, &mut members[j * kc..(j + 1) * kc], metrics);
            }
        },
    );

    // Phase 4, partitioned: rows in (a, b, c) order, one A block per share.
    let rows = triplets_on_b(&ab, &expansion_of, |j| nbrs_b[j].point, true, &mut metrics);
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::triplet_id_set;
    use twoknn_geometry::Point;
    use twoknn_index::{GridIndex, PackedIndex};

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0xD6E8FEB86659FD93)
                    ^ seed.wrapping_mul(0xA3B195354A39B70D);
                Point::new(
                    i as u64,
                    (h % 769) as f64 * 0.13,
                    ((h / 769) % 769) as f64 * 0.13,
                )
            })
            .collect()
    }

    fn grid(pts: Vec<Point>) -> PackedIndex {
        GridIndex::build(pts, 8).unwrap()
    }

    #[test]
    fn all_four_plans_agree() {
        let a = grid(scattered(80, 1));
        let b = grid(scattered(150, 2));
        let c = grid(scattered(120, 3));
        for (k_ab, k_bc) in [(1, 1), (2, 2), (3, 4), (4, 2)] {
            let q = ChainedJoinQuery::new(k_ab, k_bc);
            let p1 = triplet_id_set(&chained_right_deep(&a, &b, &c, &q).rows);
            let p2 = triplet_id_set(&chained_join_intersection(&a, &b, &c, &q).rows);
            let p3 = triplet_id_set(&chained_nested(&a, &b, &c, &q).rows);
            let p4 = triplet_id_set(&chained_nested_cached(&a, &b, &c, &q).rows);
            assert_eq!(p1, p2, "k_ab={k_ab} k_bc={k_bc}");
            assert_eq!(p2, p3, "k_ab={k_ab} k_bc={k_bc}");
            assert_eq!(p3, p4, "k_ab={k_ab} k_bc={k_bc}");
        }
    }

    #[test]
    fn caching_removes_repeated_expansions() {
        let a = grid(scattered(200, 4));
        let b = grid(scattered(60, 5)); // few B points => many repeats
        let c = grid(scattered(200, 6));
        let q = ChainedJoinQuery::new(3, 3);
        let cached = chained_nested_cached(&a, &b, &c, &q);
        let uncached = chained_nested(&a, &b, &c, &q);
        assert_eq!(triplet_id_set(&cached.rows), triplet_id_set(&uncached.rows));
        assert!(cached.metrics.cache_hits > 0);
        assert!(
            cached.metrics.neighborhoods_computed < uncached.metrics.neighborhoods_computed,
            "cached {} vs uncached {}",
            cached.metrics.neighborhoods_computed,
            uncached.metrics.neighborhoods_computed
        );
        // Each distinct matched b is expanded exactly once in the cached plan.
        assert_eq!(
            cached.metrics.cache_misses,
            cached.metrics.cache_misses.min(b.num_points() as u64)
        );
    }

    #[test]
    fn nested_plan_skips_unreachable_b_clusters() {
        // B has a cluster far from every A point; QEP3 never expands it,
        // QEP1/QEP2 do.
        let a = grid(scattered(50, 7));
        let mut b_pts = scattered(100, 8);
        for i in 0..100 {
            b_pts.push(Point::new(
                100 + i,
                500.0 + (i % 10) as f64,
                500.0 + (i / 10) as f64,
            ));
        }
        let b = grid(b_pts);
        let c = grid(scattered(150, 9));
        let q = ChainedJoinQuery::new(2, 2);
        let nested = chained_nested_cached(&a, &b, &c, &q);
        let right_deep = chained_right_deep(&a, &b, &c, &q);
        assert_eq!(
            triplet_id_set(&nested.rows),
            triplet_id_set(&right_deep.rows)
        );
        assert!(
            nested.metrics.neighborhoods_computed < right_deep.metrics.neighborhoods_computed,
            "nested {} vs right-deep {}",
            nested.metrics.neighborhoods_computed,
            right_deep.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn empty_a_relation_gives_empty_result() {
        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let b = grid(scattered(40, 10));
        let c = grid(scattered(40, 11));
        let q = ChainedJoinQuery::new(2, 2);
        assert!(chained_right_deep(&empty, &b, &c, &q).is_empty());
        assert!(chained_nested_cached(&empty, &b, &c, &q).is_empty());
    }
}
