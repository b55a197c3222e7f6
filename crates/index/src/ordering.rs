//! MINDIST and MAXDIST orderings of index blocks.
//!
//! Section 2: "In the algorithms we present, we process the blocks in a
//! certain order according to their MINDIST (or MAXDIST) from a certain
//! point. An ordering of the blocks based on the MINDIST or MAXDIST from a
//! certain point is termed a MINDIST or MAXDIST ordering, respectively."
//!
//! Most of the paper's scans stop after a handful of blocks (Procedure 1
//! stops as soon as the accumulated count exceeds `k⋈`; a locality is a few
//! blocks around the query), so an ordering must not pay for the blocks it
//! never reaches. [`DistanceCursor`] is the one way to enumerate blocks in
//! order: a best-first walk over the index's
//! [`BlockDirectory`](crate::BlockDirectory) that yields blocks in ascending
//! `(distance², block id)` and computes a distance only for the directory
//! nodes and blocks on its frontier. A directory node is keyed by a lower
//! bound on the key of every block beneath it, so a node is opened before any
//! block that could follow one of its own. The origin may be a whole
//! rectangle ([`DistanceCursor::around`]): blocks are then keyed by the
//! rect-to-rect distance, and a point origin is the degenerate rectangle —
//! which is how [`BlockKnn`](crate::BlockKnn) finds the inner blocks of a
//! whole outer block in one walk.
//!
//! [`BlockOrder`] is the flat reference: it computes the distance to every
//! block up front. Nothing outside the tests uses it; they compare the
//! cursor against it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use twoknn_geometry::{rect_maxdist_sq, rect_mindist_sq, Point, Rect};

use crate::block::BlockMeta;
use crate::directory::{BlockDirectory, DirChild, Extent};
use crate::metrics::Metrics;
use crate::scratch::ScratchSpace;
use crate::traits::SpatialIndex;

/// A totally-ordered wrapper around a non-NaN `f64`.
///
/// Distances produced by MINDIST/MAXDIST over finite coordinates are always
/// finite, so the total order is well-defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("distance must not be NaN")
    }
}

/// Which distance metric an ordering sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderMetric {
    /// Increasing minimum possible distance from the query point.
    MinDist,
    /// Increasing maximum possible distance from the query point.
    MaxDist,
}

impl OrderMetric {
    /// The squared ordering key of a block. A point origin is the
    /// degenerate rect, for which these are `mindist_sq` / `maxdist_sq` bit
    /// for bit.
    #[inline]
    fn block_key(self, origin: &Rect, block: &BlockMeta) -> f64 {
        match self {
            OrderMetric::MinDist => rect_mindist_sq(origin, &block.mbr),
            OrderMetric::MaxDist => rect_maxdist_sq(origin, &block.mbr),
        }
    }

    /// A lower bound on [`OrderMetric::block_key`] of every block inside
    /// `extent`, never above it in floating point either.
    ///
    /// MINDIST to the enclosing rectangle bounds MINDIST to any block inside
    /// it, and rounds monotonically, so it needs no slack. For MAXDIST, the
    /// farthest corner of a block `[a, b]` is `|p − mid| + (b − a)/2` away
    /// along an axis, which is at least the gap from `p` to the enclosing
    /// rectangle plus the smallest half-extent beneath the node; that sum
    /// takes a different rounding path than `maxdist_sq`, so it is shaved by
    /// a few ulps to stay a bound. A rect origin is keyed from its lower-left
    /// corner `p`: MAXDIST from the rect is at least MAXDIST from any of its
    /// points, so that stays a bound (exact for a point, loose for a wide
    /// rect).
    #[inline]
    fn extent_key(self, origin: &Rect, extent: &Extent) -> f64 {
        match self {
            OrderMetric::MinDist => rect_mindist_sq(origin, &extent.mbr),
            OrderMetric::MaxDist => {
                let r = &extent.mbr;
                let gap = |v: f64, lo: f64, hi: f64| (lo - v).max(v - hi).max(0.0);
                let dx = gap(origin.min_x, r.min_x, r.max_x) + extent.min_half_w;
                let dy = gap(origin.min_y, r.min_y, r.max_y) + extent.min_half_h;
                (dx * dx + dy * dy) * (1.0 - 16.0 * f64::EPSILON)
            }
        }
    }
}

/// An entry yielded by an ordering: the block plus the distance it was
/// ordered by.
#[derive(Debug, Clone, Copy)]
pub struct OrderedBlock {
    /// The block.
    pub block: BlockMeta,
    /// The ordering distance (MINDIST or MAXDIST from the origin, depending
    /// on the ordering's metric).
    pub distance: f64,
    /// The square of [`OrderedBlock::distance`] — the key the ordering
    /// actually sorts by.
    pub distance_sq: f64,
}

impl OrderedBlock {
    fn new(block: BlockMeta, distance_sq: f64) -> Self {
        Self {
            block,
            distance: distance_sq.sqrt(),
            distance_sq,
        }
    }
}

/// An item of an ordering's priority queue: a squared distance plus a rank
/// that identifies the item and breaks ties. Directory nodes rank below
/// blocks, so on equal keys a node is opened before a block is yielded and
/// blocks come out in ascending id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FrontierEntry {
    key: f64,
    rank: u64,
}

/// Rank bit of a block; the low 32 bits are its id.
const BLOCK_RANK: u64 = 1 << 63;
/// Node index that stands for "the shard itself": its tree's root plus its
/// overlay blocks. Node ranks are `shard << 32 | node`.
const SHARD_ROOT: u32 = u32::MAX;

impl FrontierEntry {
    fn block(key: f64, id: u32) -> Self {
        Self {
            key,
            rank: BLOCK_RANK | u64::from(id),
        }
    }

    fn node(key: f64, shard: usize, node: u32) -> Self {
        Self {
            key,
            rank: (shard as u64) << 32 | u64::from(node),
        }
    }
}

impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest key first.
        // Keys are sums of squares, never NaN or negative zero.
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// The flat reference ordering: the distance to **every** block is computed
/// and heapified at construction, then blocks pop in ascending
/// `(distance², block id)`.
///
/// This is what every query paid before the block directory existed. It
/// remains only as the reference implementation the cursor is tested
/// against.
#[derive(Debug)]
pub struct BlockOrder<'a> {
    heap: BinaryHeap<FrontierEntry>,
    keyer: Keyer<'a>,
}

impl<'a> BlockOrder<'a> {
    /// Builds an ordering of `blocks` by increasing distance from `origin`.
    pub fn new(blocks: &'a [BlockMeta], origin: &Point, metric: OrderMetric) -> Self {
        let keyer = Keyer {
            blocks,
            origin: Rect::from(*origin),
            metric,
        };
        let entries: Vec<FrontierEntry> =
            (0..blocks.len() as u32).map(|id| keyer.block(id)).collect();
        Self {
            heap: BinaryHeap::from(entries),
            keyer,
        }
    }

    /// Convenience constructor for a MINDIST ordering.
    pub fn mindist(blocks: &'a [BlockMeta], origin: &Point) -> Self {
        Self::new(blocks, origin, OrderMetric::MinDist)
    }

    /// Convenience constructor for a MAXDIST ordering.
    pub fn maxdist(blocks: &'a [BlockMeta], origin: &Point) -> Self {
        Self::new(blocks, origin, OrderMetric::MaxDist)
    }

    /// The metric this ordering sorts by.
    pub fn metric(&self) -> OrderMetric {
        self.keyer.metric
    }

    /// Number of blocks not yet yielded.
    pub fn remaining(&self) -> usize {
        self.heap.len()
    }

    /// Pops the next block in increasing distance order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<OrderedBlock> {
        self.heap.pop().map(|e| self.keyer.yielded(e))
    }
}

impl Iterator for BlockOrder<'_> {
    type Item = OrderedBlock;

    fn next(&mut self) -> Option<Self::Item> {
        BlockOrder::next(self)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.heap.len(), Some(self.heap.len()))
    }
}

/// What turns blocks and directory nodes into frontier entries and back.
#[derive(Debug, Clone, Copy)]
struct Keyer<'a> {
    blocks: &'a [BlockMeta],
    /// The origin; a point origin is the degenerate rect.
    origin: Rect,
    metric: OrderMetric,
}

impl Keyer<'_> {
    #[inline]
    fn block(&self, id: u32) -> FrontierEntry {
        let key = self
            .metric
            .block_key(&self.origin, &self.blocks[id as usize]);
        FrontierEntry::block(key, id)
    }

    #[inline]
    fn node(&self, shard: usize, node: u32, extent: &Extent) -> FrontierEntry {
        FrontierEntry::node(self.metric.extent_key(&self.origin, extent), shard, node)
    }

    /// The block a popped block entry stands for.
    #[inline]
    fn yielded(&self, entry: FrontierEntry) -> OrderedBlock {
        OrderedBlock::new(self.blocks[entry.rank as u32 as usize], entry.key)
    }
}

/// An incremental MINDIST or MAXDIST ordering of an index's blocks.
///
/// Yields every block of the index (empty ones included) exactly once, in
/// ascending `(distance², block id)`, and stops costing anything the moment
/// the caller stops pulling. The yielded [`BlockMeta`] is the queried
/// index's own (a snapshot's tombstone-adjusted count, not its base's).
///
/// The walk is best-first over the directory: `heap` is the frontier, built
/// on the buffer taken from `home` and handed back on drop.
#[derive(Debug)]
pub struct DistanceCursor<'a> {
    keyer: Keyer<'a>,
    directory: &'a BlockDirectory,
    heap: BinaryHeap<FrontierEntry>,
    home: &'a mut Vec<FrontierEntry>,
    yielded: usize,
    nonempty_remaining: usize,
    shards_reached: usize,
    ordered: u64,
}

impl<'a> DistanceCursor<'a> {
    /// An ordering of `index`'s blocks around `origin`, its frontier
    /// borrowed from `scratch`.
    pub fn new<I: SpatialIndex + ?Sized>(
        index: &'a I,
        origin: &Point,
        metric: OrderMetric,
        scratch: &'a mut ScratchSpace,
    ) -> Self {
        Self::around(index, &Rect::from(*origin), metric, scratch)
    }

    /// An ordering of `index`'s blocks by their distance from a whole
    /// rectangle: MINDIST (or MAXDIST) over every point of `region`. A
    /// degenerate `region` orders exactly as [`DistanceCursor::new`] from
    /// its point.
    pub fn around<I: SpatialIndex + ?Sized>(
        index: &'a I,
        region: &Rect,
        metric: OrderMetric,
        scratch: &'a mut ScratchSpace,
    ) -> Self {
        Self::over(
            index.blocks(),
            index.directory(),
            region,
            metric,
            &mut scratch.frontier,
        )
    }

    /// The cursor over `blocks`, guided by `directory`.
    pub(crate) fn over(
        blocks: &'a [BlockMeta],
        directory: &'a BlockDirectory,
        origin: &Rect,
        metric: OrderMetric,
        frontier: &'a mut Vec<FrontierEntry>,
    ) -> Self {
        debug_assert_eq!(directory.num_blocks(), blocks.len());
        let keyer = Keyer {
            blocks,
            origin: *origin,
            metric,
        };
        let mut buffer = std::mem::take(frontier);
        buffer.clear();
        let mut heap = BinaryHeap::from(buffer);
        heap.extend(
            directory
                .shards
                .iter()
                .enumerate()
                .filter_map(|(s, shard)| Some(keyer.node(s, SHARD_ROOT, shard.extent.as_ref()?))),
        );
        let ordered = heap.len() as u64;
        Self {
            keyer,
            directory,
            heap,
            home: frontier,
            yielded: 0,
            nonempty_remaining: directory.nonempty_blocks(),
            shards_reached: 0,
            ordered,
        }
    }

    /// Number of blocks not yet yielded.
    pub fn remaining(&self) -> usize {
        self.keyer.blocks.len() - self.yielded
    }

    /// Number of blocks holding at least one point that are not yet yielded.
    pub fn remaining_nonempty(&self) -> usize {
        self.nonempty_remaining
    }

    /// Directory nodes and blocks whose distance this cursor has computed so
    /// far — what [`Metrics::blocks_ordered`](crate::Metrics) counts.
    pub fn blocks_ordered(&self) -> u64 {
        self.ordered
    }

    /// Adds this cursor's share to the shard counters of `metrics`: the
    /// populated shards it descended into as scanned, the rest as pruned.
    /// A relation with at most one populated shard has no shard tier to
    /// prune and records nothing.
    pub(crate) fn record_shards(&self, metrics: &mut Metrics) {
        let populated = self.directory.populated_shards();
        if populated > 1 {
            metrics.shards_scanned += self.shards_reached as u64;
            metrics.shards_pruned += (populated - self.shards_reached) as u64;
        }
    }

    /// Pops the next block in increasing distance order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<OrderedBlock> {
        let keyer = self.keyer;
        let entry = loop {
            let entry = self.heap.pop()?;
            if entry.rank & BLOCK_RANK != 0 {
                break entry;
            }
            // A directory node: replace it by its children.
            let s = (entry.rank >> 32) as usize;
            let shard = &self.directory.shards[s];
            let tree = &*shard.tree;
            let node = match entry.rank as u32 {
                SHARD_ROOT => {
                    self.shards_reached += usize::from(shard.populated);
                    self.heap
                        .extend(shard.overlay_range().map(|id| keyer.block(id)));
                    self.ordered += u64::from(shard.overlay_blocks);
                    match tree.root() {
                        Some(root) => root,
                        None => continue,
                    }
                }
                n => tree.node(n),
            };
            let children = tree.children(node);
            self.heap
                .extend(children.iter().map(|&c| match DirChild::decode(c) {
                    DirChild::Block(local) => keyer.block(shard.first_block + local),
                    DirChild::Node(n) => keyer.node(s, n, &tree.node(n).extent),
                }));
            self.ordered += children.len() as u64;
        };
        let next = keyer.yielded(entry);
        self.yielded += 1;
        if next.block.count > 0 {
            self.nonempty_remaining = self.nonempty_remaining.saturating_sub(1);
        }
        Some(next)
    }
}

impl Drop for DistanceCursor<'_> {
    fn drop(&mut self) {
        *self.home = std::mem::take(&mut self.heap).into_vec();
    }
}

impl Iterator for DistanceCursor<'_> {
    type Item = OrderedBlock;

    fn next(&mut self) -> Option<Self::Item> {
        DistanceCursor::next(self)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::packed::PackedIndex;
    use twoknn_geometry::Rect;

    fn blocks() -> Vec<BlockMeta> {
        // Three unit blocks in a row along the x axis.
        (0..3)
            .map(|i| {
                BlockMeta::new(
                    i as u32,
                    Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                    (i + 1) as usize,
                )
            })
            .collect()
    }

    fn grid(n: usize, cells: usize) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    ((i * 37) % 211) as f64 * 0.45,
                    ((i * 59) % 197) as f64 * 0.55,
                )
            })
            .collect();
        GridIndex::build(pts, cells).unwrap()
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v = vec![OrderedF64(3.0), OrderedF64(1.0), OrderedF64(2.0)];
        v.sort();
        assert_eq!(v, vec![OrderedF64(1.0), OrderedF64(2.0), OrderedF64(3.0)]);
    }

    #[test]
    fn mindist_order_yields_nearest_block_first() {
        let blocks = blocks();
        let origin = Point::anonymous(-1.0, 0.5);
        let order: Vec<_> = BlockOrder::mindist(&blocks, &origin)
            .map(|ob| ob.block.id)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn maxdist_order_can_differ_from_mindist_order() {
        // A big far block vs a small near block: the near block has smaller
        // MINDIST, but MAXDIST ordering only looks at the far corner.
        let blocks = vec![
            BlockMeta::new(0, Rect::new(0.0, 0.0, 10.0, 10.0), 5),
            BlockMeta::new(1, Rect::new(11.0, 0.0, 12.0, 1.0), 5),
        ];
        let origin = Point::anonymous(0.0, 0.0);
        let min_first = BlockOrder::mindist(&blocks, &origin).next().unwrap();
        let max_first = BlockOrder::maxdist(&blocks, &origin).next().unwrap();
        assert_eq!(min_first.block.id, 0);
        assert_eq!(max_first.block.id, 1);
    }

    #[test]
    fn distances_are_non_decreasing() {
        let blocks = blocks();
        let origin = Point::anonymous(1.7, 0.3);
        for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
            let mut prev = f64::NEG_INFINITY;
            for ob in BlockOrder::new(&blocks, &origin, metric) {
                assert!(ob.distance >= prev);
                prev = ob.distance;
            }
        }
    }

    #[test]
    fn remaining_counts_down() {
        let blocks = blocks();
        let mut order = BlockOrder::mindist(&blocks, &Point::anonymous(0.0, 0.0));
        assert_eq!(order.remaining(), 3);
        order.next();
        assert_eq!(order.remaining(), 2);
    }

    #[test]
    fn equal_distances_resolve_by_block_id() {
        // Four unit cells around the origin: every MINDIST is 0, every
        // MAXDIST is √2.
        let blocks: Vec<BlockMeta> = [(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| BlockMeta::new(i as u32, Rect::new(x, y, x + 1.0, y + 1.0), 1))
            .collect();
        let origin = Point::anonymous(0.0, 0.0);
        for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
            let ids: Vec<u32> = BlockOrder::new(&blocks, &origin, metric)
                .map(|ob| ob.block.id)
                .collect();
            assert_eq!(ids, vec![0, 1, 2, 3]);
        }
    }

    fn same_sequence(a: &[OrderedBlock], b: &[OrderedBlock]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.block == y.block && x.distance_sq == y.distance_sq)
    }

    #[test]
    fn cursor_matches_the_flat_reference_and_counts_down() {
        let g = grid(900, 13);
        let mut scratch = ScratchSpace::new();
        for (x, y) in [(30.0, 40.0), (-20.0, 300.0), (47.25, 54.0), (0.0, 0.0)] {
            let origin = Point::anonymous(x, y);
            for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
                let reference: Vec<OrderedBlock> =
                    BlockOrder::new(g.blocks(), &origin, metric).collect();
                let mut cursor = DistanceCursor::new(&g, &origin, metric, &mut scratch);
                assert_eq!(cursor.remaining(), g.num_blocks());
                let mut got = Vec::new();
                let mut nonempty = cursor.remaining_nonempty();
                while let Some(ob) = cursor.next() {
                    nonempty -= usize::from(ob.block.count > 0);
                    got.push(ob);
                    assert_eq!(cursor.remaining(), g.num_blocks() - got.len());
                    assert_eq!(cursor.remaining_nonempty(), nonempty);
                }
                assert_eq!(nonempty, 0);
                assert!(same_sequence(&got, &reference), "({x},{y}) {metric:?}");
            }
        }
    }

    #[test]
    fn early_stopped_cursor_orders_a_fraction_of_the_blocks() {
        let g = grid(5000, 64);
        let origin = Point::anonymous(45.0, 52.0);
        let mut scratch = ScratchSpace::new();
        for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
            let reference: Vec<OrderedBlock> = BlockOrder::new(g.blocks(), &origin, metric)
                .take(5)
                .collect();
            let mut cursor = DistanceCursor::new(&g, &origin, metric, &mut scratch);
            let got: Vec<OrderedBlock> = cursor.by_ref().take(5).collect();
            assert!(same_sequence(&got, &reference));
            assert!(
                cursor.blocks_ordered() < g.num_blocks() as u64 / 10,
                "{metric:?}: {} of {} ordered",
                cursor.blocks_ordered(),
                g.num_blocks()
            );
        }
    }

    #[test]
    fn reused_frontier_reproduces_the_same_ordering() {
        let g = grid(400, 9);
        let origin = Point::anonymous(-1.0, 0.5);
        let fresh: Vec<u32> = BlockOrder::mindist(g.blocks(), &origin)
            .map(|ob| ob.block.id)
            .collect();
        let mut scratch = ScratchSpace::new();
        for _ in 0..3 {
            let ids: Vec<u32> =
                DistanceCursor::new(&g, &origin, OrderMetric::MinDist, &mut scratch)
                    .map(|ob| ob.block.id)
                    .collect();
            assert_eq!(ids, fresh);
            assert!(scratch.frontier.capacity() > 0, "the buffer came back");
        }
    }

    /// A directory of a different shape over the same blocks — packed from
    /// the footprints instead of tiled — yields the same sequence.
    #[test]
    fn a_packed_directory_yields_the_same_ordering_as_the_grid_tiles() {
        let g = grid(300, 7);
        let origin = Point::anonymous(12.0, 80.0);
        let packed = BlockDirectory::packed(g.blocks());
        let mut frontier = Vec::new();
        let reference: Vec<OrderedBlock> = BlockOrder::maxdist(g.blocks(), &origin).collect();
        let got: Vec<OrderedBlock> = DistanceCursor::over(
            g.blocks(),
            &packed,
            &Rect::from(origin),
            OrderMetric::MaxDist,
            &mut frontier,
        )
        .collect();
        assert!(same_sequence(&got, &reference));
    }
}
