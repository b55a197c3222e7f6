//! Spatial sharding: the composed relation snapshot and the shard routing
//! map.
//!
//! A relation is stored as a set of spatial *shards*. [`ShardMap`] assigns
//! every point to one cell of a clamped [`CellGrid`] over the relation's
//! registration extent — the grid the index recipe, the delta overlay and
//! the guard registry cut space with too. Out-of-bounds points bucket into
//! the edge shards, so the map never needs re-anchoring and routing stays
//! stable for the relation's lifetime. Each shard owns an independent
//! [`ShardSnapshot`] — its own base index, delta overlay, writer log and
//! compaction slot — so a write burst or a background rebuild in one shard
//! never blocks ingest or readers elsewhere.
//!
//! [`RelationSnapshot`] is the immutable *composed* view queries run
//! against: the shard snapshots' blocks concatenated into one dense block-id
//! space. Its [`SpatialIndex::directory`] is one node per shard over the
//! shards' own directories (shared, not copied), so every
//! block ordering meets the shard tier first: a kNN search descends into
//! shards in MINDIST order and never opens one whose footprint lies beyond
//! its search radius. Joins and Block-Marking inherit the coarse tier
//! for free — every composed block keeps its shard-tight MBR, so block-level
//! MINDIST pruning and the per-block Non-Contributing test see shard-local
//! footprints instead of one relation-wide decomposition.
//!
//! With `shards_per_axis == 1` (the default) the composed snapshot is a
//! transparent wrapper over a single shard.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use twoknn_geometry::{CellGrid, Point, PointId, Rect};
use twoknn_index::{BlockDirectory, BlockId, BlockMeta, BlockPoints, IndexConfig, SpatialIndex};

use crate::plan::stats::RelationProfile;

use super::snapshot::ShardSnapshot;

/// How a relation is spatially sharded.
///
/// `shards_per_axis = n` splits the registration extent into an `n × n`
/// clamped grid of shards that ingest, compact and rebuild independently.
/// The default of `1` keeps the relation in a single shard — the unsharded
/// twin that `sharded_equivalence` holds every sharded layout to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shards along each axis (clamped to ≥ 1 when used).
    pub shards_per_axis: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards_per_axis: 1 }
    }
}

impl ShardConfig {
    /// A sharded configuration with `n × n` shards.
    pub fn per_axis(n: usize) -> Self {
        Self { shards_per_axis: n }
    }
}

/// The routing map from points to shards: a clamped `n × n`
/// [`CellGrid`] anchored at the relation's registration bounds, one shard
/// per cell.
///
/// Copy-able and immutable — routing never changes after registration, so a
/// point's owning shard is a pure function of its coordinates. Points
/// outside the anchored bounds clamp into the nearest edge shard (whose
/// directory extent grows to cover them, keeping pruning sound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardMap {
    grid: CellGrid,
}

impl ShardMap {
    pub(crate) fn new(bounds: Rect, per_axis: usize) -> Self {
        Self {
            grid: CellGrid::new(bounds, per_axis),
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.grid.num_cells()
    }

    /// The shard `p` routes to: its clamped cell, so every finite point maps
    /// to exactly one shard.
    pub(crate) fn shard_of(&self, p: &Point) -> usize {
        self.grid.cell_of(p)
    }

    /// The recipe every shard base of this layout is built with, given the
    /// relation's recipe. A sharded grid keeps the relation recipe's cell
    /// size — `⌈n / per_axis⌉` cells per axis per shard, so the relation
    /// holds about `n × n` cells however it is sharded; any other recipe,
    /// and an unsharded layout, is the relation recipe itself.
    pub(crate) fn shard_recipe(&self, relation: IndexConfig) -> IndexConfig {
        let per_axis = self.grid.per_axis();
        match relation {
            IndexConfig::Grid { cells_per_axis } if per_axis > 1 => IndexConfig::Grid {
                cells_per_axis: cells_per_axis.div_ceil(per_axis),
            },
            other => other,
        }
    }

    /// The routing cell of shard `idx` — the bounds hint its base indexes
    /// are built over.
    pub(crate) fn shard_rect(&self, idx: usize) -> Rect {
        self.grid.cell_rect(idx)
    }
}

/// An immutable versioned view of a whole relation: every shard's
/// [`ShardSnapshot`] composed into one dense block-id space.
///
/// Implements [`SpatialIndex`], so every query algorithm (and
/// [`RelationProfile`]) consumes it exactly like a plain index; block
/// orderings reach the shard tier as the first level of
/// [`SpatialIndex::directory`] and prune whole shards there.
pub struct RelationSnapshot {
    map: ShardMap,
    shards: Vec<Arc<ShardSnapshot>>,
    /// All shards' blocks, re-identified into one dense ascending id space.
    blocks: Vec<BlockMeta>,
    /// One directory shard per relation shard, nesting the shards' own
    /// directories by reference.
    directory: BlockDirectory,
    /// Per shard, the composed id of its first block; one trailing entry
    /// holds the total block count (so `block_base.len() == shards + 1`).
    block_base: Vec<BlockId>,
    bounds: Rect,
    num_points: usize,
    version: u64,
    /// Memoized optimizer statistics — the per-shard state is merged lazily,
    /// at most once per published version.
    profile: OnceLock<RelationProfile>,
}

impl RelationSnapshot {
    /// Composes the current shard snapshots into one immutable relation
    /// view at `version`.
    pub(crate) fn compose(map: ShardMap, shards: Vec<Arc<ShardSnapshot>>, version: u64) -> Self {
        debug_assert_eq!(shards.len(), map.num_shards());
        let total_blocks: usize = shards.iter().map(|s| s.num_blocks()).sum();
        let mut blocks = Vec::with_capacity(total_blocks);
        let mut block_base = Vec::with_capacity(shards.len() + 1);
        let mut bounds: Option<Rect> = None;
        let mut num_points = 0usize;
        for shard in &shards {
            block_base.push(blocks.len() as BlockId);
            for b in shard.blocks() {
                blocks.push(BlockMeta::new(blocks.len() as BlockId, b.mbr, b.count));
            }
            num_points += shard.num_points();
            let sb = shard.bounds();
            bounds = Some(bounds.map_or(sb, |b| b.union(&sb)));
        }
        block_base.push(blocks.len() as BlockId);
        let directory = BlockDirectory::sharded(shards.iter().map(|s| s.directory()));
        Self {
            bounds: bounds.expect("a relation has at least one shard"),
            map,
            shards,
            blocks,
            directory,
            block_base,
            num_points,
            version,
            profile: OnceLock::new(),
        }
    }

    /// The snapshot's version: strictly increasing across a relation's
    /// publishes (ingest batches and compactions alike).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total number of overlay entries (inserts + deletes) across all
    /// shards' deltas.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta_len()).sum()
    }

    /// The per-shard snapshots this view composes, in shard order.
    pub fn shards(&self) -> &[Arc<ShardSnapshot>] {
        &self.shards
    }

    /// Number of shards (≥ 1; `1` means the relation is unsharded).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[cfg(test)]
    pub(crate) fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Whether a point with `id` is visible in this snapshot.
    pub fn contains_id(&self, id: PointId) -> bool {
        self.shards.iter().any(|s| s.contains_id(id))
    }

    /// The visible position of the point with `id`, if any. The
    /// continuous-query maintainer uses this on the pre-ingest snapshot to
    /// recover the *old* position of moved or removed points for guard
    /// probing.
    pub fn position_of(&self, id: PointId) -> Option<Point> {
        self.shards.iter().find_map(|s| s.position_of(id))
    }

    /// Number of overlay blocks (occupied overlay-grid cells) across all
    /// shards.
    pub fn overlay_block_count(&self) -> usize {
        self.shards.iter().map(|s| s.overlay_block_count()).sum()
    }

    /// The memoized optimizer statistics of this snapshot, computed (merged
    /// across shards) on first use and shared by every query planned against
    /// this version.
    pub fn profile(&self) -> RelationProfile {
        *self.profile.get_or_init(|| RelationProfile::compute(self))
    }

    /// All currently visible points. Mostly for tests; the background
    /// rebuild gathers per-shard points block-parallel instead.
    pub fn merged_points(&self) -> Vec<Point> {
        self.all_points()
    }

    /// Checks the shard-tier structural invariants on top of every shard's
    /// [`ShardSnapshot::check_overlay_invariants`]:
    ///
    /// * composed blocks mirror their shard's blocks (dense ascending ids,
    ///   identical MBRs and counts);
    /// * every visible point is stored in exactly one shard, and (when
    ///   sharded) in the shard its coordinates route to.
    pub fn check_overlay_invariants(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .check_overlay_invariants()
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        twoknn_index::check_index_invariants(self)?;
        if self.shards.len() != self.map.num_shards() {
            return Err(format!(
                "snapshot has {} shards, map expects {}",
                self.shards.len(),
                self.map.num_shards()
            ));
        }
        if *self.block_base.last().unwrap() as usize != self.blocks.len() {
            return Err("block_base does not cover the composed block space".into());
        }
        let mut seen: HashSet<PointId> = HashSet::with_capacity(self.num_points);
        for (s, shard) in self.shards.iter().enumerate() {
            if self.block_base[s + 1] - self.block_base[s] != shard.num_blocks() as BlockId {
                return Err(format!("block range of shard {s} drifted from its shard"));
            }
            for (local, b) in shard.blocks().iter().enumerate() {
                let composed = self.blocks[self.block_base[s] as usize + local];
                if composed.mbr != b.mbr || composed.count != b.count {
                    return Err(format!("composed block of shard {s} block {local} drifted"));
                }
                for p in shard.block_points(b.id) {
                    if !seen.insert(p.id) {
                        return Err(format!("point id {} visible in more than one shard", p.id));
                    }
                    if self.shards.len() > 1 && self.map.shard_of(&p) != s {
                        return Err(format!(
                            "point {p} stored in shard {s} but routes to shard {}",
                            self.map.shard_of(&p)
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The shard owning composed block `id`.
    #[inline]
    fn shard_of_block(&self, id: BlockId) -> usize {
        self.block_base.partition_point(|&b| b <= id) - 1
    }
}

impl SpatialIndex for RelationSnapshot {
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
        if self.shards.len() == 1 {
            return self.shards[0].block_points(id);
        }
        let s = self.shard_of_block(id);
        self.shards[s].block_points(id - self.block_base[s])
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        if self.shards.len() == 1 {
            return self.shards[0].locate(p);
        }
        // Stored points always live in the shard their coordinates route to,
        // so the routed shard's answer is preferred (it upholds the trait's
        // "prefer the storing block" contract). Footprints of neighboring
        // shards can still overlap `p` (edge shards' blocks grow over
        // clamped out-of-bounds points), so fall back to scanning the rest.
        let routed = self.map.shard_of(p);
        if let Some(local) = self.shards[routed].locate(p) {
            return Some(self.block_base[routed] + local);
        }
        self.shards.iter().enumerate().find_map(|(s, shard)| {
            if s == routed {
                return None;
            }
            shard.locate(p).map(|local| self.block_base[s] + local)
        })
    }

    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

impl std::fmt::Debug for RelationSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationSnapshot")
            .field("version", &self.version)
            .field("num_shards", &self.shards.len())
            .field("num_points", &self.num_points)
            .field("delta_len", &self.delta_len())
            .field("num_blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn compose_sharded(points: Vec<Point>, per_axis: usize) -> RelationSnapshot {
        let bounds = Rect::bounding(&points).unwrap();
        let map = ShardMap::new(bounds, per_axis);
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); map.num_shards()];
        for p in points {
            buckets[map.shard_of(&p)].push(p);
        }
        let config = IndexConfig::Grid { cells_per_axis: 4 };
        let shards: Vec<Arc<ShardSnapshot>> = buckets
            .into_iter()
            .enumerate()
            .map(|(s, pts)| {
                let base = Arc::new(config.build(pts, map.shard_rect(s)).unwrap());
                Arc::new(ShardSnapshot::clean(base, 0))
            })
            .collect();
        RelationSnapshot::compose(map, shards, 0)
    }

    #[test]
    fn shard_map_routes_and_clamps() {
        let map = ShardMap::new(Rect::new(0.0, 0.0, 10.0, 10.0), 2);
        assert_eq!(map.num_shards(), 4);
        assert_eq!(map.shard_of(&Point::anonymous(1.0, 1.0)), 0);
        assert_eq!(map.shard_of(&Point::anonymous(9.0, 1.0)), 1);
        assert_eq!(map.shard_of(&Point::anonymous(1.0, 9.0)), 2);
        assert_eq!(map.shard_of(&Point::anonymous(9.0, 9.0)), 3);
        // Out-of-bounds points clamp to the edge shards.
        assert_eq!(map.shard_of(&Point::anonymous(-5.0, -5.0)), 0);
        assert_eq!(map.shard_of(&Point::anonymous(100.0, 100.0)), 3);
        // Every shard rect is contained in the anchored bounds and they tile.
        let total: f64 = (0..4).map(|i| map.shard_rect(i).area()).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn composed_snapshot_upholds_shard_tier_invariants() {
        let snap = compose_sharded(scattered(600, 11), 3);
        assert_eq!(snap.num_shards(), 9);
        assert_eq!(snap.num_points(), 600);
        snap.check_overlay_invariants().unwrap();
        assert_eq!(
            snap.shards().iter().map(|s| s.num_points()).sum::<usize>(),
            600
        );
        // The composed view answers point lookups across shard boundaries.
        for p in snap.merged_points().iter().take(50) {
            let at = snap.locate(p).expect("stored point is locatable");
            assert!(snap.block_points(at).iter().any(|q| q.id == p.id));
            assert_eq!(snap.position_of(p.id), Some(*p));
            assert!(snap.contains_id(p.id));
        }
    }

    #[test]
    fn single_shard_composition_is_transparent() {
        let snap = compose_sharded(scattered(200, 5), 1);
        assert_eq!(snap.num_shards(), 1);
        assert_eq!(snap.num_points(), 200);
        snap.check_overlay_invariants().unwrap();
        let shard = &snap.shards()[0];
        assert_eq!(snap.num_blocks(), shard.num_blocks());
        assert_eq!(snap.bounds(), shard.bounds());
    }
}
