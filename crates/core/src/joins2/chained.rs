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
//! [`crate::exec::run_partitioned`]; under `Pooled` mode a multi-phase plan
//! (e.g. QEP2's two joins) reuses the current persistent worker pool for
//! each phase. Neighborhoods are found a block at a time ([`BlockKnn`]): an
//! `A` block's points off one candidate list of `B` blocks and, in QEP3, the
//! `b`s that block produces off one candidate list of `C` blocks.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use twoknn_geometry::{Point, PointId, Rect};
use twoknn_index::{BlockKnn, Metrics, Neighborhood, SpatialIndex};

use crate::exec::{run_over_blocks, run_partitioned, ExecutionMode};
use crate::join::knn_join_rows;
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
/// materializing join and the outer join are block-partitioned per `mode`.
pub fn chained_right_deep<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    mode: ExecutionMode,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    // Materialize (B ⋈kNN C) into a map keyed by b.
    let bc_pairs = knn_join_rows(b, c, query.k_bc, mode, &mut metrics);
    let mut bc_by_b: HashMap<PointId, Vec<twoknn_geometry::Point>> = HashMap::new();
    for p in &bc_pairs {
        bc_by_b.entry(p.left.id).or_default().push(p.right);
    }

    // Outer join: A against B, then look b up in the materialized result.
    let rows = run_over_blocks(a.blocks(), mode, &mut metrics, |block, rows, metrics| {
        let a_points = a.block_points(block.id);
        let Ok(region) = a_points.bounding() else {
            return;
        };
        let mut knn = BlockKnn::prepare(b, &region, query.k_ab, metrics);
        for a_point in a_points {
            let nbr_a = knn.get(&a_point, metrics);
            for n in nbr_a.members() {
                if let Some(cs) = bc_by_b.get(&n.point.id) {
                    for c_point in cs {
                        rows.push(Triplet::new(a_point, n.point, *c_point));
                    }
                }
            }
        }
    });
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// QEP2 of Figure 13: evaluate the two joins independently (each
/// block-partitioned per `mode`) and intersect on the shared `B` component.
pub fn chained_join_intersection<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    mode: ExecutionMode,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let ab_pairs = knn_join_rows(a, b, query.k_ab, mode, &mut metrics);
    let bc_pairs = knn_join_rows(b, c, query.k_bc, mode, &mut metrics);

    let mut bc_by_b: HashMap<PointId, Vec<twoknn_geometry::Point>> = HashMap::new();
    for p in &bc_pairs {
        bc_by_b.entry(p.left.id).or_default().push(p.right);
    }
    let mut rows = Vec::new();
    for ab in &ab_pairs {
        if let Some(cs) = bc_by_b.get(&ab.right.id) {
            for c_point in cs {
                rows.push(Triplet::new(ab.left, ab.right, *c_point));
            }
        }
    }
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// QEP3 of Figure 13: the nested-join plan **without** caching. The
/// neighborhood of a `b` point is computed each time `b` is produced as a
/// neighbor of some `a` — so a popular `b` is expanded repeatedly. `A`'s
/// blocks are partitioned per `mode`; rows (in order) and merged work
/// counters are identical to the serial run.
pub fn chained_nested<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    mode: ExecutionMode,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    chained_nested_impl(a, b, c, query, false, mode)
}

/// QEP3 with the neighborhood cache of Section 4.2.1: results of the inner
/// join are cached in a hash table keyed by the `b` point, so each distinct
/// `b` is expanded at most once. This is the plan the paper recommends.
///
/// In `Pooled` mode, `A`'s blocks are grouped into contiguous chunks and each
/// chunk gets its **own** neighborhood cache — sharing one cache would either
/// serialize the workers behind a lock or make the hit pattern racy. The
/// result set is identical to the serial run (in order); the *cache* counters
/// (`cache_hits`/`cache_misses`, and hence `neighborhoods_computed`) may be
/// higher than serial, because a popular `b` can be expanded once per chunk
/// instead of once overall.
pub fn chained_nested_cached<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    mode: ExecutionMode,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    chained_nested_impl(a, b, c, query, true, mode)
}

fn chained_nested_impl<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &ChainedJoinQuery,
    use_cache: bool,
    mode: ExecutionMode,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let blocks = a.blocks();

    // One cache per work item. Serial runs use a single chunk spanning every
    // block, so the cache is global exactly as in the paper; pooled runs
    // split the blocks into a few chunks per worker (cheap dynamic load
    // balancing without sacrificing too much cache reuse).
    let threads = mode.effective_threads();
    let chunk_len = if threads <= 1 {
        blocks.len().max(1)
    } else {
        blocks.len().div_ceil(threads * 4).max(1)
    };
    let chunks: Vec<&[twoknn_index::BlockMeta]> = blocks.chunks(chunk_len).collect();

    let rows = run_partitioned(&chunks, mode, &mut metrics, |chunk, rows, metrics| {
        let mut cache: HashMap<PointId, Neighborhood> = HashMap::new();
        // Per A block, reused across the chunk: the a neighborhoods, the b
        // points to expand (cache misses, or every (a, b) without the
        // cache) and, without the cache, their neighborhoods in order.
        let mut nbrs_a: Vec<Neighborhood> = Vec::new();
        let mut expand: Vec<Point> = Vec::new();
        let mut expanded: Vec<Neighborhood> = Vec::new();
        for block in *chunk {
            let a_points = a.block_points(block.id);
            let Ok(region) = a_points.bounding() else {
                continue;
            };
            let mut knn_b = BlockKnn::prepare(b, &region, query.k_ab, metrics);
            nbrs_a.clear();
            nbrs_a.extend(a_points.iter().map(|a_point| knn_b.get(&a_point, metrics)));
            drop(knn_b);

            // Hits and misses are counted per (a, b) in row order; a miss
            // holds an empty placeholder until the block's bs are expanded,
            // so a b repeated within the block is a hit, as before.
            expand.clear();
            for n in nbrs_a.iter().flat_map(Neighborhood::members) {
                if !use_cache {
                    expand.push(n.point);
                } else if let Entry::Vacant(slot) = cache.entry(n.point.id) {
                    metrics.cache_misses += 1;
                    slot.insert(Neighborhood::empty(n.point, query.k_bc));
                    expand.push(n.point);
                } else {
                    metrics.cache_hits += 1;
                }
            }

            // The block's bs, expanded together off one candidate list of C.
            expanded.clear();
            if let Ok(b_region) = Rect::bounding(&expand) {
                let mut knn_c = BlockKnn::prepare(c, &b_region, query.k_bc, metrics);
                for b_point in &expand {
                    let nbr_b = knn_c.get(b_point, metrics);
                    if use_cache {
                        cache.insert(b_point.id, nbr_b);
                    } else {
                        expanded.push(nbr_b);
                    }
                }
            }

            // Rows in (a, b, c) order; cached neighborhoods by reference.
            let mut uncached = expanded.iter();
            for (a_point, nbr_a) in a_points.iter().zip(&nbrs_a) {
                for n in nbr_a.members() {
                    let nbr_b = if use_cache {
                        &cache[&n.point.id]
                    } else {
                        uncached.next().expect("one expansion per (a, b)")
                    };
                    for m in nbr_b.members() {
                        rows.push(Triplet::new(a_point, n.point, m.point));
                    }
                }
            }
        }
    });
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::triplet_id_set;
    use twoknn_geometry::Point;
    use twoknn_index::GridIndex;

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

    fn grid(pts: Vec<Point>) -> GridIndex {
        GridIndex::build(pts, 8).unwrap()
    }

    #[test]
    fn all_four_plans_agree() {
        let a = grid(scattered(80, 1));
        let b = grid(scattered(150, 2));
        let c = grid(scattered(120, 3));
        for (k_ab, k_bc) in [(1, 1), (2, 2), (3, 4), (4, 2)] {
            let q = ChainedJoinQuery::new(k_ab, k_bc);
            let p1 =
                triplet_id_set(&chained_right_deep(&a, &b, &c, &q, ExecutionMode::Serial).rows);
            let p2 = triplet_id_set(
                &chained_join_intersection(&a, &b, &c, &q, ExecutionMode::Serial).rows,
            );
            let p3 = triplet_id_set(&chained_nested(&a, &b, &c, &q, ExecutionMode::Serial).rows);
            let p4 =
                triplet_id_set(&chained_nested_cached(&a, &b, &c, &q, ExecutionMode::Serial).rows);
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
        let cached = chained_nested_cached(&a, &b, &c, &q, ExecutionMode::Serial);
        let uncached = chained_nested(&a, &b, &c, &q, ExecutionMode::Serial);
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
        let nested = chained_nested_cached(&a, &b, &c, &q, ExecutionMode::Serial);
        let right_deep = chained_right_deep(&a, &b, &c, &q, ExecutionMode::Serial);
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
        assert!(chained_right_deep(&empty, &b, &c, &q, ExecutionMode::Serial).is_empty());
        assert!(chained_nested_cached(&empty, &b, &c, &q, ExecutionMode::Serial).is_empty());
    }
}
