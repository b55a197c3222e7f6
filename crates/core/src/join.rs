//! The kNN-join operator `E1 ⋈_kNN E2`.
//!
//! "E1 ⋈kNN E2 returns all the pairs of the form (e1, e2), where e1 ∈ E1 and
//! e2 ∈ E2, and e2 is among the k-closest points to e1." (Section 1.)
//!
//! The kNN-join is evaluated by computing, for every point of the outer
//! relation, its neighborhood in the inner relation — exactly the strategy
//! the paper assumes for its conceptually correct QEPs. The points come an
//! outer block at a time, so the inner blocks they can need are found once
//! per outer block ([`BlockKnn`]: the locality of the block's tight box)
//! and each point's neighborhood is scanned from that candidate list;
//! [`knn_join_points`], whose points need not share a block, runs `getkNN`
//! per point. The outer relation's blocks (or the given points) are the
//! work items of a partitioned run: they spread over the pool the calling
//! thread is bound to, with the same rows (in the same order) and the same
//! merged counters on every pool size.
//!
//! A neighborhood has exactly `min(k, |inner|)` members, so every item's
//! share of the output is known before the run: items write into one
//! buffer the calling thread allocates ([`run_into_shares`]), and a worker
//! thread keeps no allocation past its item.

use twoknn_geometry::Point;
use twoknn_index::{get_knn, BlockKnn, BlockMeta, Metrics, Neighbor, Neighborhood, SpatialIndex};

use crate::exec::run_into_shares;
use crate::output::{Pair, QueryOutput};

/// Evaluates `outer ⋈_kNN inner` with the given `k`.
pub fn knn_join<O, I>(outer: &O, inner: &I, k: usize) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let rows = knn_join_rows(outer, inner, k, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// Evaluates the kNN-join, accumulating work into `metrics` — the building
/// block of every plan that contains a full join.
pub fn knn_join_rows<O, I>(outer: &O, inner: &I, k: usize, metrics: &mut Metrics) -> Vec<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let blocks = outer.blocks();
    let members = block_neighborhoods(outer, blocks, inner, k, metrics);
    let mut rows = Vec::with_capacity(members.len());
    let outer_points = points_repeated(outer, blocks, k.min(inner.num_points()));
    rows.extend(
        outer_points
            .zip(&members)
            .map(|(e1, n)| Pair::new(e1, n.point)),
    );
    metrics.tuples_emitted += rows.len() as u64;
    rows
}

/// The neighborhoods in `inner` of every point of `blocks` (blocks of
/// `outer`): block after block, point after point, `min(k, |inner|)`
/// members each, in one buffer the calling thread allocates before the
/// phase runs. Each block is a work item of the current pool, and finds its
/// points' neighborhoods off one [`BlockKnn`].
pub(crate) fn block_neighborhoods<O, I>(
    outer: &O,
    blocks: &[BlockMeta],
    inner: &I,
    k: usize,
    metrics: &mut Metrics,
) -> Vec<Neighbor>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let len = k.min(inner.num_points());
    run_into_shares(
        blocks,
        |block| block.count * len,
        Neighbor::UNSET,
        metrics,
        |block, members, metrics| {
            let points = outer.block_points(block.id);
            let Ok(region) = points.bounding() else {
                return;
            };
            let mut knn = BlockKnn::prepare(inner, &region, k, metrics);
            for (j, p) in points.iter().enumerate() {
                knn.get(&p, &mut members[j * len..(j + 1) * len], metrics);
            }
        },
    )
}

/// Block-Marking's preprocessing: the blocks of `blocks` (blocks of an
/// outer relation) whose points can add rows, in the order given. An empty
/// block never can. `accept` settles a block as Contributing outright; every
/// other block pays one neighborhood of its centre in `inner`, with `k`
/// members, from which `contributes` decides. Each block is a work item of
/// the current pool with one flag of a buffer the calling thread sizes, so
/// the blocks and the merged counters are the same on every pool size.
pub(crate) fn contributing_blocks<I>(
    blocks: &[BlockMeta],
    inner: &I,
    k: usize,
    accept: impl Fn(&BlockMeta) -> bool + Sync,
    contributes: impl Fn(&BlockMeta, &Neighborhood) -> bool + Sync,
    metrics: &mut Metrics,
) -> Vec<BlockMeta>
where
    I: SpatialIndex + Sync + ?Sized,
{
    let flags = run_into_shares(
        blocks,
        |_| 1,
        false,
        metrics,
        |block, flag, metrics| {
            if block.count == 0 {
                return;
            }
            metrics.blocks_scanned += 1;
            flag[0] = accept(block) || {
                let nbr_center = get_knn(inner, &block.center(), k, metrics);
                contributes(block, &nbr_center)
            };
            if !flag[0] {
                metrics.blocks_pruned += 1;
            }
        },
    );
    blocks
        .iter()
        .zip(flags)
        .filter_map(|(block, contributing)| contributing.then_some(*block))
        .collect()
}

/// Every point of `blocks` (blocks of `index`), each `times` times in a row
/// — the point each member of [`block_neighborhoods`] belongs to.
pub(crate) fn points_repeated<'a, I>(
    index: &'a I,
    blocks: &'a [BlockMeta],
    times: usize,
) -> impl Iterator<Item = Point> + 'a
where
    I: SpatialIndex + ?Sized,
{
    blocks
        .iter()
        .flat_map(move |block| index.block_points(block.id))
        .flat_map(move |p| std::iter::repeat(p).take(times))
}

/// Evaluates the kNN-join for a specific subset of outer points (used by the
/// two-predicate algorithms once pruning has decided which outer points can
/// contribute). Each point is a work item of its own on the current pool,
/// and writes its pairs into its share of the result.
pub fn knn_join_points<I>(
    outer_points: &[Point],
    inner: &I,
    k: usize,
    metrics: &mut Metrics,
) -> Vec<Pair>
where
    I: SpatialIndex + Sync + ?Sized,
{
    let unset = Pair::new(Neighbor::UNSET.point, Neighbor::UNSET.point);
    let len = k.min(inner.num_points());
    let pairs = run_into_shares(
        outer_points,
        |_| len,
        unset,
        metrics,
        |e1, pairs, metrics| {
            let nbr = get_knn(inner, e1, k, metrics);
            debug_assert_eq!(nbr.len(), pairs.len(), "min(k, |inner|) members");
            for (pair, n) in pairs.iter_mut().zip(nbr.members()) {
                *pair = Pair::new(*e1, n.point);
            }
        },
    );
    metrics.tuples_emitted += pairs.len() as u64;
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::WorkerPool;
    use crate::output::pair_id_set;
    use twoknn_index::{brute_force_knn, GridIndex, PackedIndex};

    fn relation(n: usize, stride: f64, offset: f64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    offset + ((i * 13) % 50) as f64 * stride,
                    offset + ((i * 29) % 50) as f64 * stride,
                )
            })
            .collect();
        GridIndex::build(pts, 8).unwrap()
    }

    #[test]
    fn join_emits_k_pairs_per_outer_point() {
        let outer = relation(40, 1.0, 0.0);
        let inner = relation(100, 0.7, 2.0);
        let k = 3;
        let out = knn_join(&outer, &inner, k);
        assert_eq!(out.len(), 40 * k);
        assert_eq!(out.metrics.neighborhoods_computed, 40);
    }

    #[test]
    fn join_matches_brute_force_neighborhoods() {
        let outer = relation(25, 1.3, 0.0);
        let inner = relation(60, 0.9, 1.0);
        let k = 4;
        let got = pair_id_set(&knn_join(&outer, &inner, k).rows);
        let mut want = std::collections::BTreeSet::new();
        for e1 in outer.all_points() {
            for id in brute_force_knn(&inner, &e1, k).ids() {
                want.insert((e1.id, id));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn join_is_not_symmetric() {
        let outer = relation(30, 1.0, 0.0);
        let inner = relation(30, 1.0, 10.0);
        let ab = pair_id_set(&knn_join(&outer, &inner, 2).rows);
        let ba: std::collections::BTreeSet<(u64, u64)> = knn_join(&inner, &outer, 2)
            .rows
            .iter()
            .map(|p| (p.right.id, p.left.id))
            .collect();
        // The same id pairs rarely coincide; assert the operator at least
        // produced different pair sets for this asymmetric layout.
        assert_ne!(ab, ba);
    }

    #[test]
    fn pooled_join_matches_sequential_exactly() {
        let outer = relation(80, 1.1, 0.0);
        let inner = relation(120, 0.8, 0.5);
        let seq = WorkerPool::new(1).bind(|| knn_join(&outer, &inner, 5));
        let pooled = WorkerPool::new(4).bind(|| knn_join(&outer, &inner, 5));
        // Not just the same set: the same rows in the same order, with the
        // same merged work counters.
        assert_eq!(seq.rows, pooled.rows);
        assert_eq!(seq.metrics, pooled.metrics);
    }

    #[test]
    fn join_points_subset_matches_full_join_restriction() {
        let outer = relation(50, 1.0, 0.0);
        let inner = relation(70, 1.0, 0.0);
        let mut m = Metrics::default();
        let subset: Vec<Point> = outer.all_points().into_iter().take(10).collect();
        let partial = WorkerPool::new(1).bind(|| knn_join_points(&subset, &inner, 3, &mut m));
        let mut m_pool = Metrics::default();
        let pooled = WorkerPool::new(3).bind(|| knn_join_points(&subset, &inner, 3, &mut m_pool));
        assert_eq!((&partial, &m), (&pooled, &m_pool));
        let full = knn_join(&outer, &inner, 3);
        let subset_ids: std::collections::BTreeSet<u64> = subset.iter().map(|p| p.id).collect();
        let expected: std::collections::BTreeSet<_> = full
            .rows
            .iter()
            .filter(|p| subset_ids.contains(&p.left.id))
            .map(Pair::ids)
            .collect();
        assert_eq!(pair_id_set(&partial), expected);
    }

    #[test]
    fn empty_inner_relation_produces_no_pairs() {
        let outer = relation(10, 1.0, 0.0);
        let inner =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        assert!(knn_join(&outer, &inner, 3).is_empty());
    }
}
