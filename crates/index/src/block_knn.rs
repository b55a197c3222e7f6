//! One locality per outer region: the neighborhoods of a whole group of
//! nearby points, off one walk of the block directory — see [`BlockKnn`].

use twoknn_geometry::{mindist_sq, rect_maxdist_sq, Point, Rect};

use crate::block::BlockId;
use crate::metrics::Metrics;
use crate::neighborhood::Neighbor;
use crate::ordering::{DistanceCursor, OrderMetric};
use crate::scratch::{with_thread_scratch, ScratchSpace};
use crate::traits::SpatialIndex;

/// A non-empty inner block that may hold a neighbor of some point of the
/// prepared region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    id: BlockId,
    mbr: Rect,
    /// MINDIST² from the region's centre while preparing; MINDIST² from the
    /// point being queried afterwards.
    key: f64,
}

/// The `k` nearest neighbors, over `index`, of any point of a prepared
/// region — the region's locality taken once.
///
/// Every kNN-join the paper evaluates ends in one neighborhood per
/// surviving outer point, and the outer points come a block at a time.
/// Running [`get_knn`](crate::get_knn) per point walks the inner relation's
/// directory once per point, although neighbouring points need nearly the
/// same inner blocks. `BlockKnn` takes the paper's locality (Definition 2)
/// once for the tight box `R` of the points to be queried instead:
///
/// 1. **Prepare.** Inner blocks come off a MINDIST cursor keyed from `R`
///    (rect-to-rect MINDIST). Each pulled non-empty block `B` contributes
///    `(MAXDIST²(R, B), count)`; the covering radius `U` is the smallest
///    MAXDIST whose pulled counts reach `k`. The walk stops at the first
///    block with MINDIST² > U²; the *candidates* are the non-empty pulled
///    blocks with MINDIST² ≤ U², sorted once by MINDIST from `R`'s centre.
/// 2. **Query.** Per point `p`: one pass keys every candidate by
///    MINDIST²(p, ·); the candidate nearest `p` is scanned first, then the
///    others in the prepared order, each skipped when its key exceeds the
///    running τ². Scans go through the same τ-first block kernel as
///    `get_knn`, so results — members, order, distances and tie choices —
///    are `get_knn`'s.
///
/// **Why it is exact.** Every `p ∈ R` has at least `k` inner points within
/// `U` (each block counted into `U` lies wholly within MAXDIST(R, B) ≤ U of
/// every point of `R`), so τ(p) ≤ U. A block holding a point at distance
/// ≤ τ(p) from `p` therefore has MINDIST(R, B) ≤ MINDIST(p, B) ≤ τ(p) ≤ U
/// and is a candidate. All of it holds in floating point as well: the
/// rect-to-rect helpers round monotonically, so they bound the point
/// kernel's squared distances from below and above.
///
/// **Work counters.** `prepare` adds the cursor's `blocks_ordered` (once per
/// region, not per point) and its shard counters. Each query adds one
/// `neighborhoods_computed`, the scanned blocks to `blocks_scanned`, their
/// points to `points_scanned` / `distance_computations`, and — as on the
/// `get_knn` path — the inner relation's non-empty blocks it did not scan to
/// `blocks_pruned`, so `blocks_scanned + blocks_pruned` per query is the
/// number of non-empty inner blocks on both paths. Keying the candidates
/// per point is not counted.
///
/// **Buffers.** The candidate list is taken from the calling thread's
/// [`ScratchSpace`](crate::ScratchSpace) when a `BlockKnn` is prepared and
/// handed back when it is dropped; queries use the scratch's heap and
/// distance buffer and write the members into a slice the caller owns.
/// Every neighborhood has exactly [`neighborhood_len`](Self::neighborhood_len)
/// members, so a caller can size the buffers of a whole phase before it
/// runs. After a warm-up region, preparing and querying allocate nothing.
///
/// ```
/// use twoknn_geometry::{Point, Rect};
/// use twoknn_index::{get_knn, BlockKnn, GridIndex, Metrics, Neighbor};
///
/// let inner: Vec<Point> = (0..500)
///     .map(|i| Point::new(i, (i % 23) as f64, (i % 29) as f64))
///     .collect();
/// let inner = GridIndex::build(inner, 8).unwrap();
/// let outer = [Point::new(1, 4.0, 4.5), Point::new(2, 6.0, 5.0)];
/// let region = Rect::bounding(&outer).unwrap();
/// let mut metrics = Metrics::default();
/// let mut knn = BlockKnn::prepare(&inner, &region, 3, &mut metrics);
/// let mut members = vec![Neighbor::UNSET; knn.neighborhood_len()];
/// for p in &outer {
///     knn.get(p, &mut members, &mut metrics);
///     assert_eq!(members, get_knn(&inner, p, 3, &mut Metrics::default()).members());
/// }
/// ```
#[derive(Debug)]
pub struct BlockKnn<'a, I: SpatialIndex + ?Sized> {
    index: &'a I,
    region: Rect,
    k: usize,
    candidates: Vec<Candidate>,
    /// Non-empty blocks of `index`: what a query's `blocks_pruned` is
    /// counted against.
    nonempty: u64,
}

impl<'a, I: SpatialIndex + ?Sized> BlockKnn<'a, I> {
    /// Finds the candidate blocks of every point of `region` for a
    /// `k`-nearest-neighbor query over `index`.
    pub fn prepare(index: &'a I, region: &Rect, k: usize, metrics: &mut Metrics) -> Self {
        let nonempty = index.directory().nonempty_blocks() as u64;
        let candidates = with_thread_scratch(|scratch| {
            let mut candidates = std::mem::take(&mut scratch.candidates);
            candidates.clear();
            if k > 0 && index.num_points() > 0 {
                walk(index, region, k, scratch, &mut candidates, metrics);
            }
            candidates
        });
        Self {
            index,
            region: *region,
            k,
            candidates,
            nonempty,
        }
    }

    /// The number of members every neighborhood of this `BlockKnn` has:
    /// `min(k, |index|)`. Callers size members buffers with it before a
    /// phase runs.
    pub fn neighborhood_len(&self) -> usize {
        self.k.min(self.index.num_points())
    }

    /// Writes the neighborhood of `p`, which must lie in the prepared
    /// region, into `members`, which must hold exactly
    /// [`neighborhood_len`](Self::neighborhood_len) slots: afterwards they
    /// are [`get_knn`](crate::get_knn)`(index, p, k)`'s members, in its
    /// order.
    pub fn get(&mut self, p: &Point, members: &mut [Neighbor], metrics: &mut Metrics) {
        debug_assert!(self.region.contains(p), "{p} outside the prepared region");
        assert_eq!(
            members.len(),
            self.neighborhood_len(),
            "a neighborhood has min(k, |index|) members"
        );
        metrics.neighborhoods_computed += 1;
        if self.candidates.is_empty() {
            // k = 0 or an empty inner relation: no members to write.
            return;
        }
        let (mut first, mut nearest) = (0, f64::INFINITY);
        for (i, c) in self.candidates.iter_mut().enumerate() {
            c.key = mindist_sq(p, &c.mbr);
            if c.key < nearest {
                (first, nearest) = (i, c.key);
            }
        }
        let (index, k, candidates) = (self.index, self.k, &self.candidates);
        let order = std::iter::once(first).chain((0..candidates.len()).filter(|&i| i != first));
        let scanned = with_thread_scratch(|scratch| {
            let ScratchSpace { dist, kth, .. } = scratch;
            kth.reset(k);
            let mut scanned = 0u64;
            for c in order.map(|i| &candidates[i]) {
                if c.key > kth.threshold_sq() {
                    continue;
                }
                let points = index.block_points(c.id);
                scanned += 1;
                metrics.points_scanned += points.len() as u64;
                metrics.distance_computations += points.len() as u64;
                kth.scan_block(p, points, dist);
            }
            kth.finish_into(members);
            scanned
        });
        metrics.blocks_scanned += scanned;
        metrics.blocks_pruned += self.nonempty.saturating_sub(scanned);
    }
}

/// The prepare walk: fills `candidates` with the non-empty blocks within
/// the covering radius of `region`, sorted by MINDIST from its centre.
fn walk<I: SpatialIndex + ?Sized>(
    index: &I,
    region: &Rect,
    k: usize,
    scratch: &mut ScratchSpace,
    candidates: &mut Vec<Candidate>,
    metrics: &mut Metrics,
) {
    let ScratchSpace {
        frontier, reach, ..
    } = scratch;
    reach.clear();
    // U², the squared covering radius: infinite until the pulled blocks
    // hold k points, and only ever shrinking.
    let mut cover_sq = f64::INFINITY;
    let mut order = DistanceCursor::over(
        index.blocks(),
        index.directory(),
        region,
        OrderMetric::MinDist,
        frontier,
    );
    while let Some(ob) = order.next() {
        if ob.distance_sq > cover_sq {
            break;
        }
        if ob.block.count == 0 {
            continue;
        }
        candidates.push(Candidate {
            id: ob.block.id,
            mbr: ob.block.mbr,
            key: ob.distance_sq,
        });
        // A block reaching no nearer than U cannot lower it.
        let reach_sq = rect_maxdist_sq(region, &ob.block.mbr);
        if reach_sq < cover_sq {
            cover_sq = tighten(reach, reach_sq, ob.block.count, k);
        }
    }
    metrics.blocks_ordered += order.blocks_ordered();
    order.record_shards(metrics);

    // Blocks pulled before U last shrank may lie beyond it.
    candidates.retain(|c| c.key <= cover_sq);
    let centre = region.center();
    for c in candidates.iter_mut() {
        c.key = mindist_sq(&centre, &c.mbr);
    }
    candidates.sort_unstable_by(|a, b| a.key.total_cmp(&b.key).then(a.id.cmp(&b.id)));
}

/// Adds a pulled block's `(MAXDIST², count)` to `reach` (ascending) and
/// returns the smallest MAXDIST² whose blocks hold `k` points — infinite
/// while they hold fewer. Entries past that radius can never matter again,
/// since it only shrinks, and are dropped.
fn tighten(reach: &mut Vec<(f64, usize)>, reach_sq: f64, count: usize, k: usize) -> f64 {
    let at = reach.partition_point(|&(r, _)| r <= reach_sq);
    reach.insert(at, (reach_sq, count));
    let mut held = 0;
    for (i, &(r, c)) in reach.iter().enumerate() {
        held += c;
        if held >= k {
            reach.truncate(i + 1);
            return r;
        }
    }
    f64::INFINITY
}

impl<I: SpatialIndex + ?Sized> Drop for BlockKnn<'_, I> {
    fn drop(&mut self) {
        let buffer = std::mem::take(&mut self.candidates);
        with_thread_scratch(|scratch| {
            if scratch.candidates.capacity() < buffer.capacity() {
                scratch.candidates = buffer;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::knn::get_knn;

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

    #[test]
    fn the_covering_radius_is_the_smallest_maxdist_holding_k_points() {
        let mut reach = Vec::new();
        assert_eq!(tighten(&mut reach, 9.0, 2, 5), f64::INFINITY);
        assert_eq!(tighten(&mut reach, 4.0, 2, 5), f64::INFINITY);
        // 4.0 + 9.0 + 6.0 hold 2 + 2 + 1 = 5 points.
        assert_eq!(tighten(&mut reach, 6.0, 1, 5), 9.0);
        // A nearer block holding 3 more: 1.0 + 4.0 hold 5.
        assert_eq!(tighten(&mut reach, 1.0, 3, 5), 4.0);
        assert_eq!(reach, vec![(1.0, 3), (4.0, 2)], "entries past U dropped");
    }

    /// One walk per region replaces one walk per point: the neighborhoods
    /// are `get_knn`'s and the ordering work is a fraction of theirs.
    #[test]
    fn one_walk_per_region_orders_a_fraction_of_the_per_point_walks() {
        let inner = GridIndex::build(pts(4000), 24).unwrap();
        let outer: Vec<Point> = (0..64u64)
            .map(|i| Point::new(i, 40.0 + (i % 8) as f64 * 0.9, 60.0 + (i / 8) as f64 * 0.8))
            .collect();
        let region = Rect::bounding(&outer).unwrap();
        for k in [1, 4, 30] {
            let (mut block, mut point) = (Metrics::default(), Metrics::default());
            let mut knn = BlockKnn::prepare(&inner, &region, k, &mut block);
            let mut members = vec![Neighbor::UNSET; knn.neighborhood_len()];
            for p in &outer {
                knn.get(p, &mut members, &mut block);
                assert_eq!(members, get_knn(&inner, p, k, &mut point).members());
            }
            assert_eq!(block.neighborhoods_computed, point.neighborhoods_computed);
            assert!(
                block.blocks_ordered * 10 <= point.blocks_ordered,
                "k={k}: {} vs {} blocks ordered",
                block.blocks_ordered,
                point.blocks_ordered
            );
        }
    }

    /// One-point blocks all at exactly distance 5, the larger ids first in
    /// block order: the first block pulled sets U = 5, and every other block
    /// lies at MINDIST exactly U — still a candidate, still scanned at τ —
    /// so ties resolve to the smallest ids as `get_knn`'s do.
    #[test]
    fn blocks_at_exactly_the_covering_radius_stay_candidates() {
        let ring = [
            (-5.0, 0.0, 40),
            (-3.0, 4.0, 30),
            (0.0, 5.0, 20),
            (3.0, 4.0, 10),
        ];
        let points = ring
            .iter()
            .map(|&(x, y, id)| Point::new(id, x, y))
            .collect();
        let inner = crate::rtree::StrRTree::build(points, 1).unwrap();
        let p = Point::anonymous(0.0, 0.0);
        for k in [1, 3] {
            let mut m = Metrics::default();
            let mut got = vec![Neighbor::UNSET; k];
            BlockKnn::prepare(&inner, &Rect::from(p), k, &mut m).get(&p, &mut got, &mut m);
            assert_eq!(got, get_knn(&inner, &p, k, &mut m).members(), "k={k}");
            assert_eq!(got[0].point.id, 10, "k={k}");
        }
    }
}
