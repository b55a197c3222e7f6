//! `getkNN`: computing the neighborhood of a point.
//!
//! The paper (Section 2): "One can use any algorithm to compute the
//! neighborhood of a point." There is one here, [`get_knn`]'s, parameterised
//! by an optional distance bound and an optional predicate mask;
//! [`get_knn_bounded`] and [`get_knn_filtered`] are the same walk with one of
//! them set. It pulls blocks off a MINDIST [`DistanceCursor`] over the
//! index's block directory — so it pays for the directory nodes and blocks
//! near `p`, never for every block — and scans each non-empty one as the
//! cursor yields it with the batched SoA kernel: per block, one vectorizable
//! column pass fills the distance buffer, then the buffer folds into a
//! bounded k-heap whose root is the running k-th distance τ. The walk stops
//! at the first block whose MINDIST is strictly greater than τ (or than the
//! bound); the non-empty blocks it never reached are `blocks_pruned`.
//!
//! The blocks the walk scans are a subset of the paper's *locality* of `p`
//! (Definition 2, [`crate::locality`]): τ never exceeds the locality's
//! MAXDIST bound `M` once `k` points are held. [`Locality`](crate::Locality)
//! stays as that definition's reference; the tests compare the walk to it.
//!
//! On a sharded index the directory's first level is the shards, so a shard
//! whose footprint lies beyond the search radius is never descended into
//! (`shards_pruned`); there is no separate scatter-gather path.
//!
//! Every entry point borrows the calling thread's shared [`ScratchSpace`]
//! (see [`crate::scratch`]), so a batch of queries on one worker thread
//! allocates the transient heap and buffers once, not per query.
//! [`brute_force_knn`] is the `O(n log n)` ground truth for tests.

use twoknn_geometry::{Point, Predicate, Rect};

use crate::metrics::Metrics;
use crate::neighborhood::{Neighbor, Neighborhood};
use crate::ordering::{DistanceCursor, OrderMetric};
use crate::scratch::{with_thread_scratch, ScratchSpace};
use crate::traits::SpatialIndex;

/// Computes the neighborhood (the `k` nearest neighbors) of `p`, counting
/// the work into `metrics`.
///
/// When `p` itself is stored in the index (same id and coordinates), it is
/// *not* excluded: the paper's operators query focal points and outer-relation
/// points against *other* relations, so self-exclusion is handled by callers
/// that need it.
pub fn get_knn<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| search(index, p, k, None, None, metrics, scratch))
}

/// Computes the neighborhood of `p` restricted to a search threshold: only
/// blocks with MINDIST ≤ `threshold` are examined (Procedure 5's bounded
/// locality). The result is exact for every member whose distance from `p`
/// is at most `threshold`; members farther than the threshold may be missing.
pub fn get_knn_bounded<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    threshold: f64,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| search(index, p, k, Some(threshold), None, metrics, scratch))
}

/// Computes the `k` nearest points of `p` **matching a predicate** — the
/// "k nearest *matching* points" semantics of a pre-kNN filter placement.
///
/// Blocks are scanned through the predicate-masked batched kernel, so τ is
/// the k-th **matching** distance — never smaller than the unfiltered one —
/// and the walk's stop at the first block beyond τ stays exact: it simply
/// comes later the more the predicate rejects.
pub fn get_knn_filtered<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    predicate: &Predicate,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| search(index, p, k, None, Some(predicate), metrics, scratch))
}

/// The one kNN walk behind every `get_knn*` entry point.
///
/// `bound` restricts the search to blocks with MINDIST ≤ bound; `mask`
/// restricts the candidates to points matching a predicate
/// ([`Predicate::True`] is no mask at all).
///
/// τ-pruning is exact: once the heap holds `k` candidates, every candidate's
/// distance is ≤ τ, so a block with MINDIST **strictly** greater than τ
/// cannot contribute a closer point — and points *at* distance τ (which may
/// still win on id tie-break) live in blocks with MINDIST ≤ τ, which are
/// always scanned. Results are therefore identical to the gather-everything
/// ground truth, including tie resolution.
fn search<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    bound: Option<f64>,
    mask: Option<&Predicate>,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    metrics.neighborhoods_computed += 1;
    if k == 0 || index.num_points() == 0 {
        return Neighborhood::empty(*p, k);
    }
    let mask = mask.filter(|predicate| !matches!(predicate, Predicate::True));
    let ScratchSpace {
        dist,
        kth,
        frontier,
        mask: lanes,
        ..
    } = scratch;
    kth.reset(k);

    let mut order = DistanceCursor::over(
        index.blocks(),
        index.directory(),
        &Rect::from(*p),
        OrderMetric::MinDist,
        frontier,
    );
    while let Some(ob) = order.next() {
        // The stops come before the empty-block skip: a run of empty blocks
        // beyond τ must end the walk, not be pulled (and keyed) one by one.
        if bound.is_some_and(|b| ob.distance > b) {
            break;
        }
        if kth.is_full() && ob.distance_sq > kth.threshold_sq() {
            metrics.blocks_pruned +=
                (ob.block.count > 0) as u64 + order.remaining_nonempty() as u64;
            break;
        }
        if ob.block.count == 0 {
            continue;
        }
        let points = index.block_points(ob.block.id);
        metrics.blocks_scanned += 1;
        metrics.points_scanned += points.len() as u64;
        metrics.distance_computations += points.len() as u64;
        match mask {
            None => kth.scan_block(p, points, dist),
            Some(predicate) => {
                predicate.eval_block(points.ids(), points.xs(), points.ys(), lanes);
                kth.scan_block_masked(p, points, lanes, dist);
            }
        }
    }
    metrics.blocks_ordered += order.blocks_ordered();
    order.record_shards(metrics);
    kth.finish(*p, k)
}

/// Ground-truth filtered kNN: filters every indexed point by the predicate,
/// then sorts. The reference the filtered kernel is tested against.
pub fn brute_force_knn_filtered<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    predicate: &Predicate,
) -> Neighborhood {
    let members = index
        .all_points()
        .into_iter()
        .filter(|q| predicate.matches_point(q))
        .map(|q| Neighbor {
            point: q,
            distance: p.distance(&q),
        })
        .collect();
    Neighborhood::from_unsorted(*p, k, members)
}

/// Ground-truth `k` nearest neighbors by scanning every indexed point.
pub fn brute_force_knn<I: SpatialIndex + ?Sized>(index: &I, p: &Point, k: usize) -> Neighborhood {
    let members = index
        .all_points()
        .into_iter()
        .map(|q| Neighbor {
            point: q,
            distance: p.distance(&q),
        })
        .collect();
    Neighborhood::from_unsorted(*p, k, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::BlockDirectory;
    use crate::grid::GridIndex;
    use crate::packed::PackedIndex;
    use crate::quadtree::QuadtreeIndex;
    use crate::rtree::StrRTree;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    ((i * 7919) % 1009) as f64 * 0.11,
                    ((i * 6131) % 997) as f64 * 0.13,
                )
            })
            .collect()
    }

    fn assert_same_ids(a: &Neighborhood, b: &Neighborhood) {
        let mut ai = a.ids();
        let mut bi = b.ids();
        ai.sort_unstable();
        bi.sort_unstable();
        assert_eq!(ai, bi);
    }

    #[test]
    fn locality_knn_matches_brute_force_on_grid() {
        let g = GridIndex::build(pts(1500), 14).unwrap();
        let mut m = Metrics::default();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
        ] {
            let q = Point::anonymous(x, y);
            let got = get_knn(&g, &q, k, &mut m);
            let want = brute_force_knn(&g, &q, k);
            assert_same_ids(&got, &want);
        }
    }

    #[test]
    fn locality_knn_matches_brute_force_on_quadtree_and_rtree() {
        let data = pts(1200);
        let qt = QuadtreeIndex::build(data.clone(), 24).unwrap();
        let rt = StrRTree::build(data, 24).unwrap();
        let mut m = Metrics::default();
        for (x, y, k) in [(30.0, 30.0, 5), (80.0, 10.0, 17)] {
            let q = Point::anonymous(x, y);
            assert_same_ids(&get_knn(&qt, &q, k, &mut m), &brute_force_knn(&qt, &q, k));
            assert_same_ids(&get_knn(&rt, &q, k, &mut m), &brute_force_knn(&rt, &q, k));
        }
    }

    /// The batched τ-pruned walk must return exactly the ground truth —
    /// members, order, distances, and tie choices — and scan no more points
    /// than the two-phase locality of the same query holds.
    #[test]
    fn batched_knn_is_identical_to_scalar_baseline() {
        let g = GridIndex::build(pts(2000), 12).unwrap();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
            (-30.0, 200.0, 5),
        ] {
            let q = Point::anonymous(x, y);
            let mut m = Metrics::default();
            let batched = get_knn(&g, &q, k, &mut m);
            assert_eq!(batched, brute_force_knn(&g, &q, k), "query ({x},{y}) k={k}");
            let locality = crate::Locality::build(&g, &q, k, &mut Metrics::default());
            assert!(
                m.points_scanned <= locality.point_count() as u64,
                "τ-pruning must never scan more points than the full locality"
            );
        }
    }

    /// A minimal sharded index for driver tests: four quadrant GridIndexes
    /// with concatenated (re-identified) blocks under one sharded directory —
    /// the same shape the store's composed relation snapshot exposes.
    struct ShardedGrid {
        shards: Vec<PackedIndex>,
        blocks: Vec<crate::BlockMeta>,
        /// Per shard, the composed id of its first block.
        first_block: Vec<u32>,
        directory: BlockDirectory,
        bounds: twoknn_geometry::Rect,
        num_points: usize,
    }

    impl ShardedGrid {
        fn build(points: Vec<Point>, cells: usize) -> Self {
            use twoknn_geometry::Rect;
            let bounds = Rect::bounding(&points).unwrap();
            let (cx, cy) = {
                let c = bounds.center();
                (c.x, c.y)
            };
            let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); 4];
            for p in points {
                let q = (p.x >= cx) as usize + 2 * ((p.y >= cy) as usize);
                buckets[q].push(p);
            }
            let rects = [
                Rect::new(bounds.min_x, bounds.min_y, cx, cy),
                Rect::new(cx, bounds.min_y, bounds.max_x, cy),
                Rect::new(bounds.min_x, cy, cx, bounds.max_y),
                Rect::new(cx, cy, bounds.max_x, bounds.max_y),
            ];
            let shards: Vec<PackedIndex> = buckets
                .into_iter()
                .zip(rects)
                .map(|(pts, r)| GridIndex::build_with_bounds(pts, r, cells).unwrap())
                .collect();
            let mut blocks = Vec::new();
            let mut first_block = Vec::new();
            let mut num_points = 0;
            for shard in &shards {
                first_block.push(blocks.len() as u32);
                for b in shard.blocks() {
                    blocks.push(crate::BlockMeta::new(blocks.len() as u32, b.mbr, b.count));
                }
                num_points += shard.num_points();
            }
            let directory = BlockDirectory::sharded(shards.iter().map(|s| s.directory()));
            Self {
                shards,
                blocks,
                first_block,
                directory,
                bounds,
                num_points,
            }
        }
    }

    impl SpatialIndex for ShardedGrid {
        fn bounds(&self) -> twoknn_geometry::Rect {
            self.bounds
        }
        fn num_points(&self) -> usize {
            self.num_points
        }
        fn blocks(&self) -> &[crate::BlockMeta] {
            &self.blocks
        }
        fn block_points(&self, id: u32) -> crate::BlockPoints<'_> {
            let s = self.first_block.partition_point(|&first| first <= id) - 1;
            self.shards[s].block_points(id - self.first_block[s])
        }
        fn locate(&self, p: &Point) -> Option<u32> {
            self.shards
                .iter()
                .zip(&self.first_block)
                .find_map(|(shard, first)| shard.locate(p).map(|local| first + local))
        }
        fn directory(&self) -> &BlockDirectory {
            &self.directory
        }
    }

    #[test]
    fn scatter_gather_matches_brute_force_and_flat_scan() {
        let data = pts(1600);
        let sharded = ShardedGrid::build(data.clone(), 8);
        let flat = GridIndex::build(data, 16).unwrap();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
            (56.0, 65.0, 3),
        ] {
            let q = Point::anonymous(x, y);
            let mut m = Metrics::default();
            let got = get_knn(&sharded, &q, k, &mut m);
            assert_eq!(got, brute_force_knn(&sharded, &q, k), "({x},{y}) k={k}");
            let mut mf = Metrics::default();
            assert_eq!(got, get_knn(&flat, &q, k, &mut mf));
            assert!(m.shards_scanned >= 1);
        }
    }

    /// A dense cluster in one quadrant plus sparse points elsewhere, over
    /// four 6×6 shards whose cells are mostly empty.
    fn clustered_shards() -> ShardedGrid {
        let mut data = Vec::new();
        for i in 0..500u64 {
            data.push(Point::new(
                i,
                10.0 + (i % 25) as f64 * 0.1,
                10.0 + (i / 25) as f64 * 0.1,
            ));
        }
        for i in 0..40u64 {
            data.push(Point::new(
                500 + i,
                80.0 + (i % 8) as f64,
                80.0 + (i / 8) as f64,
            ));
        }
        data.push(Point::new(990, 85.0, 12.0));
        data.push(Point::new(991, 12.0, 85.0));
        ShardedGrid::build(data, 6)
    }

    #[test]
    fn scatter_gather_prunes_shards_beyond_tau() {
        // A small-k query inside the cluster must resolve without visiting
        // the far quadrants.
        let sharded = clustered_shards();
        let q = Point::anonymous(11.0, 11.0);
        let mut m = Metrics::default();
        let got = get_knn(&sharded, &q, 5, &mut m);
        assert_eq!(got, brute_force_knn(&sharded, &q, 5));
        assert!(m.shards_pruned > 0, "{m}");
        assert!(m.shards_scanned < 4, "{m}");
        // Every pruned shard's MINDIST² (to its tight MBR over non-empty
        // blocks) must exceed the final τ².
        let tau_sq = got.radius() * got.radius();
        let visited = m.shards_scanned as usize;
        let mut order: Vec<f64> = sharded
            .shards
            .iter()
            .filter_map(|shard| {
                let mut nonempty = shard.blocks().iter().filter(|b| b.count > 0);
                let first = nonempty.next()?.mbr;
                let mbr = nonempty.fold(first, |m, b| m.union(&b.mbr));
                Some(twoknn_geometry::mindist_sq(&q, &mbr))
            })
            .collect();
        order.sort_by(f64::total_cmp);
        for &mindist_sq in &order[visited..] {
            assert!(mindist_sq > tau_sq, "pruned shard within τ");
        }
    }

    /// The filtered twin of the test above. The stops are tested before the
    /// empty-block skip, so the empty cells between the cluster and the next
    /// populated block end the walk instead of being pulled one by one —
    /// with the skip first, this query ordered every block of every shard.
    #[test]
    fn filtered_walk_stops_at_tau_on_sparse_shards() {
        let sharded = clustered_shards();
        let q = Point::anonymous(11.0, 11.0);
        for pred in [Predicate::True, Predicate::IdRange { lo: 0, hi: 499 }] {
            let mut m = Metrics::default();
            let got = get_knn_filtered(&sharded, &q, 5, &pred, &mut m);
            assert_eq!(got, brute_force_knn_filtered(&sharded, &q, 5, &pred));
            assert!(m.shards_pruned > 0, "{pred}: {m}");
            assert!(
                m.blocks_ordered < sharded.num_blocks() as u64,
                "{pred}: {m}"
            );
            // Every populated block is either scanned or pruned.
            let nonempty = sharded.blocks().iter().filter(|b| b.count > 0).count();
            assert_eq!(m.blocks_scanned + m.blocks_pruned, nonempty as u64);
        }
    }

    #[test]
    fn scatter_gather_bounded_is_exact_within_threshold() {
        let data = pts(1600);
        let sharded = ShardedGrid::build(data, 8);
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 12;
        let exact = brute_force_knn(&sharded, &q, k);
        let wide = get_knn_bounded(&sharded, &q, k, exact.radius() * 2.0 + 1.0, &mut m);
        assert_eq!(wide, exact);
        // Small threshold: every exact member within it must still appear.
        let threshold = 3.0;
        let bounded = get_knn_bounded(&sharded, &q, k, threshold, &mut m);
        let bounded_ids: std::collections::HashSet<u64> = bounded.ids().into_iter().collect();
        for nb in exact.members().iter().filter(|n| n.distance <= threshold) {
            assert!(bounded_ids.contains(&nb.point.id));
        }
    }

    #[test]
    fn k_zero_and_empty_relation_yield_empty_neighborhoods() {
        let g = GridIndex::build(pts(100), 5).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(1.0, 1.0);
        assert!(get_knn(&g, &q, 0, &mut m).is_empty());

        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        assert!(get_knn(&empty, &q, 3, &mut m).is_empty());
    }

    #[test]
    fn k_exceeding_dataset_returns_all_points() {
        let g = GridIndex::build(pts(37), 4).unwrap();
        let mut m = Metrics::default();
        let nbr = get_knn(&g, &Point::anonymous(3.0, 3.0), 100, &mut m);
        assert_eq!(nbr.len(), 37);
    }

    #[test]
    fn bounded_knn_is_exact_within_threshold() {
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 12;
        let exact = brute_force_knn(&g, &q, k);
        // Threshold comfortably larger than the true kNN radius: bounded
        // result must be identical.
        let threshold = exact.radius() * 2.0 + 1.0;
        let bounded = get_knn_bounded(&g, &q, k, threshold, &mut m);
        assert_same_ids(&bounded, &exact);
    }

    #[test]
    fn bounded_knn_members_within_threshold_are_correct() {
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 40;
        let threshold = 3.0; // deliberately small
        let exact = brute_force_knn(&g, &q, k);
        let bounded = get_knn_bounded(&g, &q, k, threshold, &mut m);
        // Every exact member within the threshold must appear in the bounded
        // result (the guarantee Procedure 5 relies on).
        let bounded_ids: std::collections::HashSet<u64> = bounded.ids().into_iter().collect();
        for nb in exact.members().iter().filter(|n| n.distance <= threshold) {
            assert!(bounded_ids.contains(&nb.point.id));
        }
    }

    #[test]
    fn metrics_count_neighborhood_computations() {
        let g = GridIndex::build(pts(200), 6).unwrap();
        let mut m = Metrics::default();
        get_knn(&g, &Point::anonymous(0.0, 0.0), 4, &mut m);
        get_knn(&g, &Point::anonymous(9.0, 9.0), 4, &mut m);
        assert_eq!(m.neighborhoods_computed, 2);
        assert!(m.points_scanned > 0);
        assert!(m.distance_computations >= m.points_scanned);
    }

    #[test]
    fn filtered_knn_matches_brute_force_across_index_families() {
        use twoknn_geometry::Rect;
        let data = pts(1500);
        let g = GridIndex::build(data.clone(), 14).unwrap();
        let qt = QuadtreeIndex::build(data.clone(), 24).unwrap();
        let rt = StrRTree::build(data, 24).unwrap();
        let preds = [
            Predicate::True,
            Predicate::InRect(Rect::new(20.0, 20.0, 70.0, 70.0)),
            Predicate::InCircle {
                center: Point::anonymous(55.0, 64.0),
                radius: 15.0,
            },
            Predicate::IdRange { lo: 100, hi: 700 },
            Predicate::And(vec![
                Predicate::InRect(Rect::new(0.0, 0.0, 90.0, 90.0)),
                Predicate::Not(Box::new(Predicate::IdRange { lo: 0, hi: 50 })),
            ]),
            // Zero-match filter: the neighborhood must come back empty.
            Predicate::False,
        ];
        let mut m = Metrics::default();
        for pred in &preds {
            for (x, y, k) in [(10.0, 20.0, 1), (55.0, 64.0, 7), (0.0, 0.0, 25)] {
                let q = Point::anonymous(x, y);
                let want = brute_force_knn_filtered(&g, &q, k, pred);
                assert_eq!(
                    get_knn_filtered(&g, &q, k, pred, &mut m),
                    want,
                    "{pred} grid"
                );
                assert_eq!(
                    get_knn_filtered(&qt, &q, k, pred, &mut m),
                    want,
                    "{pred} qt"
                );
                assert_eq!(
                    get_knn_filtered(&rt, &q, k, pred, &mut m),
                    want,
                    "{pred} rt"
                );
            }
        }
    }

    #[test]
    fn filtered_knn_matches_brute_force_on_sharded_index() {
        use twoknn_geometry::Rect;
        let data = pts(1600);
        let sharded = ShardedGrid::build(data, 8);
        let pred = Predicate::And(vec![
            Predicate::InRect(Rect::new(10.0, 10.0, 100.0, 100.0)),
            Predicate::IdRange { lo: 0, hi: 1200 },
        ]);
        let mut m = Metrics::default();
        for (x, y, k) in [(10.0, 20.0, 3), (55.0, 64.0, 12), (111.0, 1.0, 40)] {
            let q = Point::anonymous(x, y);
            assert_eq!(
                get_knn_filtered(&sharded, &q, k, &pred, &mut m),
                brute_force_knn_filtered(&sharded, &q, k, &pred),
                "({x},{y}) k={k}"
            );
        }
    }

    #[test]
    fn filtered_knn_with_permissive_filter_prunes_blocks() {
        // Selectivity 1.0: τ converges exactly as in the unfiltered kernel,
        // so the MINDIST-ordered walk must prune far blocks.
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let q = Point::anonymous(50.0, 50.0);
        let mut m = Metrics::default();
        let got = get_knn_filtered(&g, &q, 8, &Predicate::True, &mut m);
        let mut mu = Metrics::default();
        assert_eq!(got, get_knn(&g, &q, 8, &mut mu));
        assert_eq!(m, mu, "the True filter is no mask: same work as get_knn");
        assert!(m.blocks_pruned > 0, "{m}");
        assert!(
            m.points_scanned < g.num_points() as u64,
            "τ-pruning must avoid the full scan: {m}"
        );
    }

    #[test]
    fn filtered_knn_survives_a_filter_eliminating_the_tau_neighborhood() {
        // The filter excludes everything near the query: the k nearest
        // *matching* points are far away, so τ stays wide and the walk must
        // keep going past the (unfiltered) τ-neighborhood without losing
        // exactness.
        let g = GridIndex::build(pts(1500), 14).unwrap();
        let q = Point::anonymous(55.0, 64.0);
        let near = Predicate::InCircle {
            center: q,
            radius: 30.0,
        };
        let pred = Predicate::Not(Box::new(near));
        let mut m = Metrics::default();
        let got = get_knn_filtered(&g, &q, 5, &pred, &mut m);
        assert_eq!(got, brute_force_knn_filtered(&g, &q, 5, &pred));
        assert!(got.radius() > 30.0, "all matches are outside the disk");
    }

    /// Reusing the thread scratch across queries must not leak state between
    /// them: a warm thread and a thread that has never run a query agree.
    #[test]
    fn scratch_reuse_does_not_leak_state_across_queries() {
        let g = GridIndex::build(pts(800), 9).unwrap();
        let mut m = Metrics::default();
        get_knn(&g, &Point::anonymous(50.0, 50.0), 64, &mut m); // warm-up
        let queries = [(3.0, 3.0, 9), (90.0, 90.0, 2), (40.0, 11.0, 30)];
        for &(x, y, k) in &queries {
            let q = Point::anonymous(x, y);
            let shared = get_knn(&g, &q, k, &mut m);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| get_knn(&g, &q, k, &mut Metrics::default()))
                    .join()
                    .unwrap()
            });
            assert_eq!(shared, fresh);
            assert_same_ids(&shared, &brute_force_knn(&g, &q, k));
        }
    }
}
