//! Immutable shard snapshots: a base index plus a materialized delta
//! overlay, presented through the ordinary [`SpatialIndex`] trait.
//!
//! A [`ShardSnapshot`] is the per-shard storage unit of a relation: each
//! spatial shard of a [`super::RelationSnapshot`] is one `ShardSnapshot`
//! (an unsharded relation is simply one shard covering the whole extent).
//! It is immutable — ingest and compaction never mutate a published
//! snapshot, they build a *new* one and atomically swap the shard's current
//! pointer — so a query (or a whole batch) that pinned a composed snapshot
//! keeps a frozen, consistent view no matter what writers do concurrently.
//!
//! The overlay is folded into the block structure the trait exposes:
//!
//! * every **base block** keeps its id and footprint; blocks containing
//!   tombstoned points expose a filtered copy of their point list (the
//!   filtered copies are built once, when the snapshot is created — reads
//!   are plain slice borrows);
//! * the **inserted points** live in the delta's [`OverlayGrid`]: each
//!   occupied grid cell becomes one extra overlay block appended after the
//!   base blocks, with the **tight bounding box of the cell's points** as
//!   its footprint. A small delta degenerates to a single overlay block;
//!   a write burst is partitioned so MINDIST pruning and Block-Marking keep
//!   working instead of degrading toward a scan of the whole burst.
//!
//! Block ids therefore stay dense, counts stay consistent, and every
//! algorithm of the paper runs unmodified on a delta-bearing relation —
//! [`twoknn_index::check_index_invariants`] holds for any snapshot, and
//! [`ShardSnapshot::check_overlay_invariants`] additionally pins the
//! overlay-specific guarantees (exact per-cell counts/MBRs, tombstones
//! filtered everywhere, inserts locatable in O(cell)).
//!
//! # What a publish copies
//!
//! An ingest batch builds each touched shard's successor with
//! [`ShardSnapshot::apply_routed`], at a cost that follows the batch, not
//! the shard:
//!
//! * the delta's two id lists and the overlay grid copy their spines and
//!   then only the chunks and cells the ops edit (see
//!   [`super::delta`]);
//! * the filtered point lists live in a dense table indexed by block id: a
//!   spine of `Arc`'d 16-entry chunks, allocated only where a block holds
//!   tombstones. The successor copies the spine (one pointer per allocated
//!   chunk, 46 at most for a 729-block shard) and the chunks of the blocks
//!   the batch re-filters; every other filtered list is shared;
//! * a re-filtered block is its previous list with this batch's new
//!   tombstones cut out, copied as column runs (`extend_from_slice`)
//!   between the removed lanes.
//!
//! Still O(shard) per publish: one `memcpy` of the previous snapshot's base
//! block metas, whose counts only the re-filtered blocks change. Dropping
//! the previous snapshot releases what it did not share: the chunks, cells
//! and lists the batch replaced, and one reference per spine entry.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use twoknn_geometry::{Point, PointId, Rect};
use twoknn_index::{
    BlockDirectory, BlockId, BlockMeta, BlockPoints, PackedIndex, PointBlock, SpatialIndex,
};

use super::delta::{Delta, WriteOp};

/// A shared, immutable base index: reads through a shard reach its blocks
/// without a virtual call.
pub type BaseIndex = Arc<PackedIndex>;

/// Maps every base point id to the block storing it, so ingest can
/// tombstone by id in O(affected block) instead of scanning the index.
///
/// One map per base, shared by every snapshot over that base. A compaction
/// builds the map of the base it rebuilt before it takes the relation's
/// writer lock to publish ([`BaseIds::indexed`]), so no ingest pays the
/// O(shard) scan after a rebuild. The bases a relation starts from —
/// registration and reopen — build it lazily, on first use (write paths and
/// id lookups): a read-only workload, say after a restart, never pays the
/// scan or the map's memory.
pub(crate) struct BaseIds {
    base: BaseIndex,
    map: OnceLock<HashMap<PointId, BlockId>>,
}

impl BaseIds {
    /// The map of `base`, built on first use.
    pub(crate) fn new(base: &BaseIndex) -> Arc<Self> {
        Arc::new(Self {
            base: Arc::clone(base),
            map: OnceLock::new(),
        })
    }

    /// The map of `base`, built now (one O(n) scan of the base).
    pub(crate) fn indexed(base: &BaseIndex) -> Arc<Self> {
        let ids = Self::new(base);
        ids.get();
        ids
    }

    /// The id → block map, built on first call (one O(n) scan of the base).
    pub(crate) fn get(&self) -> &HashMap<PointId, BlockId> {
        self.map.get_or_init(|| index_ids(self.base.as_ref()))
    }

    /// Whether the map has been built.
    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.map.get().is_some()
    }
}

/// A shared [`BaseIds`] — one per base index, shared by its snapshots.
pub(crate) type BaseIdMap = Arc<BaseIds>;

/// One op of a shard's sub-batch, with the block storing its id in the
/// shard's base (`None`: the base does not store it) — looked up once,
/// while the batch is routed, instead of once per use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardOp {
    pub op: WriteOp,
    pub base: Option<BlockId>,
}

/// Block ids per chunk of a [`Tombstones`] table.
const TABLE_CHUNK: usize = 16;

type TableChunk = [Option<Arc<PointBlock>>; TABLE_CHUNK];

/// The filtered point lists of the base blocks that hold tombstones,
/// indexed by block id: a spine of `Arc`'d fixed-size chunks, `None` where
/// no block of the chunk holds one. A clone copies the spine; setting a
/// block's list copies its chunk only if another version shares it.
#[derive(Clone)]
struct Tombstones {
    chunks: Vec<Option<Arc<TableChunk>>>,
}

impl Tombstones {
    /// An empty table for a base of `num_blocks` blocks.
    fn new(num_blocks: usize) -> Self {
        Self {
            chunks: vec![None; num_blocks.div_ceil(TABLE_CHUNK)],
        }
    }

    /// The filtered list of base block `block`, if it holds tombstones.
    fn get(&self, block: BlockId) -> Option<&Arc<PointBlock>> {
        let b = block as usize;
        self.chunks[b / TABLE_CHUNK].as_ref()?[b % TABLE_CHUNK].as_ref()
    }

    fn set(&mut self, block: BlockId, filtered: PointBlock) {
        let b = block as usize;
        let chunk = self.chunks[b / TABLE_CHUNK].get_or_insert_with(Default::default);
        Arc::make_mut(chunk)[b % TABLE_CHUNK] = Some(Arc::new(filtered));
    }

    /// The indices of this table's allocated chunks that are not the very
    /// `Arc`s `other` holds at the same index.
    #[cfg(test)]
    fn unshared_chunks(&self, other: &Self) -> Vec<usize> {
        (0..self.chunks.len())
            .filter(|&c| match (&self.chunks[c], &other.chunks[c]) {
                (Some(mine), Some(theirs)) => !Arc::ptr_eq(mine, theirs),
                (mine, _) => mine.is_some(),
            })
            .collect()
    }
}

/// `previous` without the points of `removed` (this batch's new tombstones
/// in the block, sorted by id, each stored in `previous` exactly once),
/// copied as the column runs between the removed lanes.
fn without(previous: BlockPoints<'_>, removed: &[(BlockId, PointId)]) -> PointBlock {
    let (ids, xs, ys) = (previous.ids(), previous.xs(), previous.ys());
    let lanes =
        (0..ids.len()).filter(|&i| removed.binary_search_by_key(&ids[i], |&(_, r)| r).is_ok());
    let mut filtered = PointBlock::with_capacity(ids.len() - removed.len());
    let mut from = 0;
    for lane in lanes.chain([ids.len()]) {
        filtered.extend_from(BlockPoints::from_columns(
            &ids[from..lane],
            &xs[from..lane],
            &ys[from..lane],
        ));
        from = lane + 1;
    }
    filtered
}

/// Builds the id → block map of a base index.
fn index_ids(base: &PackedIndex) -> HashMap<PointId, BlockId> {
    let mut ids = HashMap::with_capacity(base.num_points());
    for block in base.blocks() {
        for p in base.block_points(block.id) {
            ids.insert(p.id, block.id);
        }
    }
    ids
}

/// An immutable versioned view of a relation: base index + delta overlay.
///
/// Implements [`SpatialIndex`], so every query algorithm (and
/// [`RelationProfile`](crate::plan::RelationProfile)) consumes it exactly
/// like a plain index.
pub struct ShardSnapshot {
    base: BaseIndex,
    base_ids: BaseIdMap,
    delta: Delta,
    /// Base blocks with tombstone-adjusted counts, plus one overlay block
    /// per occupied overlay-grid cell starting at id `base.num_blocks()`.
    blocks: Vec<BlockMeta>,
    /// The base's directory (its node tree shared, not copied) with the
    /// overlay blocks appended.
    directory: BlockDirectory,
    /// Overlay-block ordinal → overlay-grid cell index, ascending. Maps the
    /// dense block ids the trait exposes back to the grid cells that store
    /// the points.
    overlay_cells: Vec<usize>,
    /// Filtered point lists (SoA blocks) of the base blocks that lost points
    /// to tombstones, by block id. `Arc`'d so successive snapshots share the
    /// lists of blocks an ingest batch did not touch.
    tombstoned: Tombstones,
    /// Base blocks that held points and lost all of them to tombstones.
    emptied: usize,
    bounds: Rect,
    num_points: usize,
    version: u64,
}

/// The per-op outcome of applying one ingest batch to a snapshot.
pub(crate) struct BatchOutcome {
    /// Per op: whether it changed the visible point set. (Per-op *prior
    /// visibility* is resolved one level up, during shard routing, where a
    /// batch's ops may span shards.)
    pub changed: Vec<bool>,
}

impl ShardSnapshot {
    /// Wraps a freshly built base index with an empty overlay.
    pub(crate) fn clean(base: BaseIndex, version: u64) -> Self {
        Self::over(BaseIds::new(&base), Delta::new(), version)
    }

    /// A new snapshot over the same base with a different overlay, rebuilt
    /// from scratch: the reference [`ShardSnapshot::apply_batch`] is held to.
    #[cfg(test)]
    pub(crate) fn with_delta(&self, delta: Delta, version: u64) -> Self {
        Self::over(Arc::clone(&self.base_ids), delta, version)
    }

    /// A snapshot over `base_ids`' base carrying `delta`, its filtered
    /// block lists built from scratch (the compaction publish, where there
    /// is no previous overlay to share with).
    pub(crate) fn over(base_ids: BaseIdMap, delta: Delta, version: u64) -> Self {
        let mut affected: Vec<BlockId> = delta
            .deletes()
            .iter()
            .map(|id| {
                *base_ids
                    .get()
                    .get(id)
                    .expect("delta tombstones only reference ids stored in the base")
            })
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let mut tombstoned = Tombstones::new(base_ids.base.num_blocks());
        let mut blocks = Self::metas_for(base_ids.base.blocks(), &delta);
        let mut emptied = 0;
        for block in affected {
            let filtered: PointBlock = base_ids
                .base
                .block_points(block)
                .iter()
                .filter(|p| !delta.is_deleted(p.id))
                .collect();
            let meta = &mut blocks[block as usize];
            emptied += usize::from(meta.count > 0 && filtered.is_empty());
            meta.count = filtered.len();
            tombstoned.set(block, filtered);
        }
        Self::finish(base_ids, delta, tombstoned, blocks, emptied, version)
    }

    /// [`ShardSnapshot::apply_routed`] with each op's base block looked up
    /// here.
    #[cfg(test)]
    pub(crate) fn apply_batch(&self, ops: &[WriteOp], version: u64) -> (Self, BatchOutcome) {
        let ops: Vec<ShardOp> = ops
            .iter()
            .map(|&op| ShardOp {
                op,
                base: self.base_block(op.id()),
            })
            .collect();
        self.apply_routed(&ops, version)
    }

    /// Applies one ingest sub-batch, producing the successor snapshot plus
    /// the per-op [`BatchOutcome`].
    ///
    /// Incremental on the writer path: only the blocks that gained a
    /// tombstone **in this batch** get a new filtered point list, and it is
    /// the block's previous list (or its base points, if it had none)
    /// filtered against this batch's new tombstones only — sound because
    /// tombstones only grow between compactions, so the previous list
    /// already lacks every older one. All other filtered lists are shared
    /// with `self`. The result equals the from-scratch
    /// [`ShardSnapshot::over`] of the same base and delta, column for column.
    pub(crate) fn apply_routed(&self, ops: &[ShardOp], version: u64) -> (Self, BatchOutcome) {
        let mut delta = self.delta.clone();
        let mut changed = Vec::with_capacity(ops.len());
        // (block, id) of every tombstone this batch adds.
        let mut fresh: Vec<(BlockId, PointId)> = Vec::new();
        for &ShardOp { op, base } in ops {
            debug_assert_eq!(base, self.base_block(op.id()), "a stale base block");
            let deletes_before = delta.deletes().len();
            // `base_has` is only ever asked about the op's own id.
            changed.push(delta.apply(&op, |_| base.is_some()));
            if delta.deletes().len() != deletes_before {
                fresh.push((base.expect("only base ids are tombstoned"), op.id()));
            }
        }
        let mut tombstoned = self.tombstoned.clone();
        // The previous snapshot's base metas, with the counts of the blocks
        // this batch re-filters updated.
        let mut blocks = Self::metas_for(&self.blocks[..self.base.num_blocks()], &delta);
        let mut emptied = self.emptied;
        fresh.sort_unstable();
        let mut rest = fresh.as_slice();
        while let Some(&(block, _)) = rest.first() {
            let (group, tail) = rest.split_at(rest.partition_point(|&(b, _)| b == block));
            rest = tail;
            let previous = match self.tombstoned.get(block) {
                Some(filtered) => filtered.view(),
                None => self.base.block_points(block),
            };
            let filtered = without(previous, group);
            // The block held the removed points, so it was not empty before.
            emptied += usize::from(filtered.is_empty());
            blocks[block as usize].count = filtered.len();
            tombstoned.set(block, filtered);
        }
        let snapshot = Self::finish(
            Arc::clone(&self.base_ids),
            delta,
            tombstoned,
            blocks,
            emptied,
            version,
        );
        (snapshot, BatchOutcome { changed })
    }

    /// The base blocks' metas with room for `delta`'s overlay blocks.
    fn metas_for(base: &[BlockMeta], delta: &Delta) -> Vec<BlockMeta> {
        let mut blocks = Vec::with_capacity(base.len() + delta.grid().occupied().count());
        blocks.extend_from_slice(base);
        blocks
    }

    /// Assembles a snapshot from its parts. `blocks` holds the base blocks'
    /// metas with tombstone-adjusted counts; `emptied` counts the base
    /// blocks that held points and lost all of them to tombstones.
    fn finish(
        base_ids: BaseIdMap,
        delta: Delta,
        tombstoned: Tombstones,
        mut blocks: Vec<BlockMeta>,
        emptied: usize,
        version: u64,
    ) -> Self {
        let base = Arc::clone(&base_ids.base);
        // One overlay block per occupied grid cell, each with the tight
        // bounding box of the points actually in the cell — far-away cells
        // prune under MINDIST exactly like base blocks. Assembling the metas
        // is O(cells); the cell contents themselves are Arc-shared with the
        // previous snapshot except where the batch dirtied them.
        let mut bounds = base.bounds();
        let mut overlay_cells = Vec::new();
        for (cell, mbr, points) in delta.grid().occupied() {
            blocks.push(BlockMeta::new(blocks.len() as BlockId, mbr, points.len()));
            overlay_cells.push(cell);
            bounds = bounds.union(&mbr);
        }
        let num_points = base.num_points() - delta.deletes().len() + delta.inserts().len();
        let directory = base
            .directory()
            .with_overlay(&blocks[base.num_blocks()..], emptied);
        let snapshot = Self {
            base,
            base_ids,
            delta,
            directory,
            blocks,
            overlay_cells,
            tombstoned,
            emptied,
            bounds,
            num_points,
            version,
        };
        debug_assert_eq!(snapshot.check_overlay_invariants(), Ok(()));
        snapshot
    }

    /// The snapshot's version: strictly increasing across a relation's
    /// publishes (ingest batches and compactions alike).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The delta overlay this snapshot carries on top of its base.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// Number of overlay entries (inserts + deletes) — what the compaction
    /// threshold compares against.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// The shared base index.
    pub fn base(&self) -> &BaseIndex {
        &self.base
    }

    #[cfg(test)]
    pub(crate) fn base_ids(&self) -> &BaseIdMap {
        &self.base_ids
    }

    /// Whether a point with `id` is visible in this snapshot.
    pub fn contains_id(&self, id: PointId) -> bool {
        self.probe(id).0
    }

    /// The block storing `id` in the base, whether or not it is visible.
    pub(crate) fn base_block(&self, id: PointId) -> Option<BlockId> {
        self.base_ids.get().get(&id).copied()
    }

    /// [`ShardSnapshot::contains_id`] together with
    /// [`ShardSnapshot::base_block`], for one id lookup in the base.
    pub(crate) fn probe(&self, id: PointId) -> (bool, Option<BlockId>) {
        let base = self.base_block(id);
        let visible =
            self.delta.inserted(id).is_some() || (base.is_some() && !self.delta.is_deleted(id));
        (visible, base)
    }

    /// The visible position of the point with `id`, if any — an O(block)
    /// lookup (overlay inserts by binary search, base points via the
    /// id → block map). The continuous-query maintainer uses this on the
    /// pre-ingest snapshot to recover the *old* position of moved or
    /// removed points for guard probing.
    pub fn position_of(&self, id: PointId) -> Option<Point> {
        if let Some(p) = self.delta.inserted(id) {
            return Some(*p);
        }
        if self.delta.is_deleted(id) {
            return None;
        }
        let block = *self.base_ids.get().get(&id)?;
        self.base.block_points(block).iter().find(|p| p.id == id)
    }

    /// Number of overlay blocks (occupied overlay-grid cells) this snapshot
    /// exposes after its base blocks.
    pub fn overlay_block_count(&self) -> usize {
        self.overlay_cells.len()
    }

    /// All currently visible points: filtered base points plus inserts.
    /// Mostly for tests and the serial compaction path; the background
    /// rebuild gathers points block-parallel instead.
    pub fn merged_points(&self) -> Vec<Point> {
        self.all_points()
    }

    /// Checks the overlay-specific structural invariants on top of
    /// [`twoknn_index::check_index_invariants`]:
    ///
    /// * every overlay block's count and MBR reflect its grid cell's
    ///   tombstone-free contents **exactly** (the MBR is the tight bounding
    ///   box, not a stale or padded footprint);
    /// * every delta insert is bucketed in exactly one overlay block and is
    ///   locatable through [`SpatialIndex::locate`];
    /// * no tombstoned id is visible in any block (base or overlay);
    /// * the visible point count adds up.
    pub fn check_overlay_invariants(&self) -> Result<(), String> {
        twoknn_index::check_index_invariants(self)?;
        let base_blocks = self.base.num_blocks();
        let mut bucketed = 0usize;
        for (ordinal, &cell) in self.overlay_cells.iter().enumerate() {
            let meta = self.blocks[base_blocks + ordinal];
            let points = self.delta.grid().cell_points(cell);
            if points.is_empty() {
                return Err(format!("overlay block {} maps to an empty cell", meta.id));
            }
            if meta.count != points.len() {
                return Err(format!(
                    "overlay block {} count {} != cell contents {}",
                    meta.id,
                    meta.count,
                    points.len()
                ));
            }
            let tight = points.bounding().expect("cell is non-empty");
            if meta.mbr != tight {
                return Err(format!(
                    "overlay block {} MBR {} is not the tight bounding box {tight}",
                    meta.id, meta.mbr
                ));
            }
            for p in points {
                if self.delta.inserted(p.id) != Some(&p) {
                    return Err(format!(
                        "overlay block {} holds {p}, which drifted from the delta's inserts",
                        meta.id
                    ));
                }
            }
            bucketed += points.len();
        }
        if bucketed != self.delta.inserts().len() {
            return Err(format!(
                "overlay blocks hold {bucketed} points, delta has {} inserts",
                self.delta.inserts().len()
            ));
        }
        for block in 0..base_blocks {
            for p in self.block_points(block as BlockId) {
                if self.delta.is_deleted(p.id) {
                    return Err(format!(
                        "tombstoned point {p} visible in base block {block}"
                    ));
                }
            }
        }
        for p in self.delta.inserts().iter() {
            match self.locate(p) {
                Some(at) if (at as usize) >= base_blocks => {
                    if !self.block_points(at).iter().any(|q| q.id == p.id) {
                        return Err(format!("insert {p} locates to block {at} not storing it"));
                    }
                }
                other => {
                    return Err(format!(
                        "insert {p} must locate to its overlay block, got {other:?}"
                    ))
                }
            }
        }
        Ok(())
    }
}

impl SpatialIndex for ShardSnapshot {
    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn num_points(&self) -> usize {
        self.num_points
    }

    fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        if let Some(ordinal) = (id as usize).checked_sub(self.base.num_blocks()) {
            return self.delta.grid().cell_points(self.overlay_cells[ordinal]);
        }
        match self.tombstoned.get(id) {
            Some(filtered) => filtered.view(),
            None => self.base.block_points(id),
        }
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        // Prefer the block that actually stores a point at these coordinates
        // (the trait's contract for overlapping footprints): results that
        // came from inserted points must locate to their overlay block so
        // that block-marking algorithms mark it as a Candidate. The grid
        // routes the check to the single cell `p`'s coordinates bucket into,
        // so this is O(cell), not O(inserts).
        if let Some(cell) = self.delta.grid().find_at(p) {
            let ordinal = self
                .overlay_cells
                .binary_search(&cell)
                .expect("a cell storing points has an overlay block");
            return Some((self.base.num_blocks() + ordinal) as BlockId);
        }
        if let Some(block) = self.base.locate(p) {
            return Some(block);
        }
        // Points outside the base bounds can still fall inside an overlay
        // block's footprint (overlay blocks only exist for occupied cells,
        // so this scan is bounded by the grid's occupied-cell count).
        self.blocks[self.base.num_blocks()..]
            .iter()
            .find(|meta| meta.mbr.contains(p))
            .map(|meta| meta.id)
    }

    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

impl std::fmt::Debug for ShardSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSnapshot")
            .field("version", &self.version)
            .field("num_points", &self.num_points)
            .field("delta_len", &self.delta.len())
            .field("num_blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::delta::WriteOp;
    use super::*;
    use twoknn_index::{check_index_invariants, GridIndex, IndexConfig};

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
                Point::new(
                    i as u64,
                    (h % 1013) as f64 * 0.11,
                    ((h / 1013) % 1013) as f64 * 0.11,
                )
            })
            .collect()
    }

    fn snapshot_with(ops: &[WriteOp]) -> ShardSnapshot {
        let base = Arc::new(GridIndex::build(scattered(300, 7), 6).unwrap());
        let clean = ShardSnapshot::clean(base, 0);
        let mut delta = clean.delta().clone();
        for op in ops {
            delta.apply(op, |id| clean.base_ids().get().contains_key(&id));
        }
        clean.with_delta(delta, 1)
    }

    #[test]
    fn clean_snapshot_mirrors_its_base() {
        let snap = snapshot_with(&[]);
        assert_eq!(snap.num_points(), 300);
        assert_eq!(snap.num_blocks(), 36);
        check_index_invariants(&snap).unwrap();
        assert_eq!(snap.all_points().len(), 300);
    }

    #[test]
    fn overlay_upholds_index_invariants() {
        let snap = snapshot_with(&[
            WriteOp::Upsert(Point::new(1_000, 5.0, 5.0)),
            WriteOp::Upsert(Point::new(1_001, 200.0, 200.0)),
            WriteOp::Remove(10),
            WriteOp::Remove(20),
            WriteOp::Upsert(Point::new(30, 1.0, 1.0)), // moves a base point
        ]);
        assert_eq!(snap.num_points(), 300 + 3 - 3);
        assert_eq!(
            snap.num_blocks(),
            37,
            "a 3-insert delta fits one overlay cell"
        );
        assert_eq!(snap.overlay_block_count(), 1);
        snap.check_overlay_invariants().unwrap();
        assert!(snap.contains_id(1_000));
        assert!(!snap.contains_id(10));
        assert!(snap.contains_id(30));
    }

    #[test]
    fn write_bursts_partition_into_tight_overlay_blocks() {
        // A clustered burst big enough to outgrow one cell: the overlay must
        // split into multiple blocks whose MBRs hug the points, so MINDIST
        // pruning keeps working for queries away from the burst.
        let burst: Vec<WriteOp> = (0..400u64)
            .map(|i| {
                WriteOp::Upsert(Point::new(
                    5_000 + i,
                    60.0 + (i % 20) as f64 * 0.11,
                    60.0 + (i / 20) as f64 * 0.13,
                ))
            })
            .collect();
        let snap = snapshot_with(&burst);
        assert!(
            snap.overlay_block_count() > 1,
            "a 400-insert burst must partition, got {} overlay blocks",
            snap.overlay_block_count()
        );
        snap.check_overlay_invariants().unwrap();
        let base_blocks = snap.num_blocks() - snap.overlay_block_count();
        for meta in &snap.blocks()[base_blocks..] {
            assert!(
                meta.mbr.width() <= 2.2 && meta.mbr.height() <= 2.6,
                "overlay block {} MBR {} must stay tight around its cell",
                meta.id,
                meta.mbr
            );
        }
    }

    #[test]
    fn removed_points_disappear_from_block_scans() {
        let snap = snapshot_with(&[WriteOp::Remove(10)]);
        assert!(snap.all_points().iter().all(|p| p.id != 10));
        assert_eq!(snap.num_points(), 299);
        check_index_invariants(&snap).unwrap();
    }

    #[test]
    fn locate_prefers_the_overlay_block_for_inserted_points() {
        let inserted = Point::new(9_999, 3.0, 4.0);
        let snap = snapshot_with(&[WriteOp::Upsert(inserted)]);
        let at = snap.locate(&inserted).unwrap();
        assert_eq!(at as usize, snap.num_blocks() - 1);
        assert!(snap.block_points(at).iter().any(|p| p.id == 9_999));
        // Points outside base bounds but inside the overlay are locatable.
        let outside = Point::new(10_000, -50.0, -50.0);
        let snap = snapshot_with(&[WriteOp::Upsert(outside)]);
        assert!(snap.bounds().contains(&outside));
        let at = snap.locate(&outside).unwrap();
        assert!(snap.block_points(at).iter().any(|p| p.id == 10_000));
    }

    #[test]
    fn moved_point_is_visible_only_at_its_new_position() {
        let snap = snapshot_with(&[WriteOp::Upsert(Point::new(10, 77.7, 88.8))]);
        let stored: Vec<Point> = snap
            .all_points()
            .into_iter()
            .filter(|p| p.id == 10)
            .collect();
        assert_eq!(stored.len(), 1);
        assert_eq!((stored[0].x, stored[0].y), (77.7, 88.8));
        check_index_invariants(&snap).unwrap();
    }

    /// Asserts two snapshots expose the same blocks (ids, counts, MBRs) and
    /// the same columns, bit for bit.
    fn assert_same_blocks(got: &ShardSnapshot, want: &ShardSnapshot, at: usize) {
        assert_eq!(got.blocks(), want.blocks(), "batch {at}: block metas");
        let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for meta in want.blocks() {
            let (g, w) = (got.block_points(meta.id), want.block_points(meta.id));
            assert_eq!(g.ids(), w.ids(), "batch {at}: block {} ids", meta.id);
            assert_eq!(
                bits(g.xs()),
                bits(w.xs()),
                "batch {at}: block {} xs",
                meta.id
            );
            assert_eq!(
                bits(g.ys()),
                bits(w.ys()),
                "batch {at}: block {} ys",
                meta.id
            );
        }
        assert_eq!(got.num_points(), want.num_points(), "batch {at}");
        assert_eq!(got.bounds(), want.bounds(), "batch {at}");
    }

    #[test]
    fn apply_batch_equals_a_from_scratch_rebuild_after_every_batch() {
        let base = Arc::new(GridIndex::build(scattered(300, 7), 6).unwrap());
        // The fullest base block: one batch removes every point it holds.
        let victim = base
            .blocks()
            .iter()
            .max_by_key(|b| b.count)
            .map(|b| b.id)
            .unwrap();
        let victim_ids = base.block_points(victim).ids().to_vec();
        assert!(victim_ids.len() > 1);
        // Id 40 is removed in batch 2, re-upserted in batch 9 and removed
        // again in batch 14; the victim block empties in batch 17 (after
        // batch 6 already tombstoned one of its points).
        let reborn = 40;
        let mut batches: Vec<Vec<WriteOp>> = (0..24u64)
            .map(|b| {
                let moved = (b * 37 + 5) % 300;
                let removed = (b * 53 + 11) % 300;
                vec![
                    WriteOp::Upsert(Point::new(
                        10_000 + b,
                        b as f64 * 4.1,
                        100.0 - b as f64 * 3.7,
                    )),
                    WriteOp::Upsert(Point::new(moved, (b as f64 * 9.3) % 110.0, 7.0 + b as f64)),
                    WriteOp::Remove(removed),
                    // Removes an insert of an earlier batch (a no-op at first).
                    WriteOp::Remove(10_000 + b / 2),
                ]
            })
            .collect();
        batches[2].push(WriteOp::Remove(reborn));
        batches[6].push(WriteOp::Remove(victim_ids[0]));
        batches[9].push(WriteOp::Upsert(Point::new(reborn, 33.3, 44.4)));
        batches[14].push(WriteOp::Remove(reborn));
        batches[17].extend(victim_ids.iter().map(|&id| WriteOp::Remove(id)));

        let mut snap = ShardSnapshot::clean(base, 0);
        for (at, ops) in batches.iter().enumerate() {
            let version = at as u64 + 1;
            let (next, outcome) = snap.apply_batch(ops, version);
            assert_eq!(outcome.changed.len(), ops.len());
            let scratch = next.with_delta(next.delta().clone(), version);
            assert_same_blocks(&next, &scratch, at);
            next.check_overlay_invariants().unwrap();
            snap = next;
            if at == 17 {
                assert_eq!(snap.blocks()[victim as usize].count, 0, "victim emptied");
            }
        }
        assert!(!snap.contains_id(reborn) && snap.delta().is_deleted(reborn));
        assert!(snap.block_points(victim).is_empty());
    }

    #[test]
    fn index_config_rebuilds_each_family() {
        let pts = scattered(120, 3);
        let hint = Rect::bounding(&pts).unwrap();
        for config in [
            IndexConfig::Grid { cells_per_axis: 5 },
            IndexConfig::Quadtree {
                capacity: 16,
                max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
            },
            IndexConfig::RTree { leaf_capacity: 16 },
        ] {
            let base = config.build(pts.clone(), hint).unwrap();
            assert_eq!(base.num_points(), 120);
            assert_eq!(base.recipe(), config);
            check_index_invariants(&base).unwrap();
        }
        // The empty corner case keeps the hint bounds.
        for config in [
            IndexConfig::Grid { cells_per_axis: 4 },
            IndexConfig::Quadtree {
                capacity: 8,
                max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
            },
            IndexConfig::RTree { leaf_capacity: 8 },
        ] {
            let base = config.build(Vec::new(), hint).unwrap();
            assert_eq!(base.num_points(), 0);
            assert!(base.bounds().contains_rect(&hint));
        }
    }

    #[test]
    fn a_batch_shares_every_chunk_it_does_not_edit() {
        let base = Arc::new(GridIndex::build(scattered(6_000, 11), 27).unwrap());
        let clean = ShardSnapshot::clean(base, 0);
        // Move every even id below 4 200: 2 100 inserts and 2 100 tombstones.
        let moves = |ids: &mut dyn Iterator<Item = u64>| -> Vec<WriteOp> {
            ids.map(|id| WriteOp::Upsert(Point::new(id, (id % 97) as f64, (id % 89) as f64)))
                .collect()
        };
        let (prev, _) = clean.apply_batch(&moves(&mut (0..2_100).map(|i| i * 2)), 1);
        assert!(prev.delta().len() >= 4_000);
        let visible: Vec<bool> = (0..6_000).map(|id| prev.contains_id(id)).collect();
        let blocks: Vec<Vec<Point>> = prev
            .blocks()
            .iter()
            .map(|b| prev.block_points(b.id).iter().collect())
            .collect();

        // 64 moves of odd ids spread over the whole id range.
        let batch = moves(&mut (0..64).map(|i| 2 * ((i * 131) % 2_100) + 1));
        let (next, outcome) = prev.apply_batch(&batch, 2);
        assert!(outcome.changed.iter().all(|c| *c));
        let (d0, d1) = (prev.delta(), next.delta());
        for (old, new) in [
            (
                d0.inserts().shared_chunks(d1.inserts()),
                d1.inserts().num_chunks(),
            ),
            (
                d0.deletes().shared_chunks(d1.deletes()),
                d1.deletes().num_chunks(),
            ),
        ] {
            assert!(new - old <= 64, "{} of {new} chunks copied", new - old);
        }
        let touched: Vec<usize> = batch
            .iter()
            .map(|op| prev.base_block(op.id()).unwrap() as usize / TABLE_CHUNK)
            .collect();
        let copied = next.tombstoned.unshared_chunks(&prev.tombstoned);
        assert!(!copied.is_empty() && copied.iter().all(|c| touched.contains(c)));

        // The predecessor answers exactly as before the batch.
        for (id, &was) in visible.iter().enumerate() {
            assert_eq!(prev.contains_id(id as u64), was, "id {id}");
        }
        for (block, points) in blocks.iter().enumerate() {
            assert!(prev
                .block_points(block as BlockId)
                .iter()
                .eq(points.iter().copied()));
        }
        assert_same_blocks(&next, &next.with_delta(next.delta().clone(), 2), 1);
    }
}
