//! One versioned relation: spatial shards behind an atomically swapped
//! composed snapshot, and one writer lock.
//!
//! # Concurrency model
//!
//! * **Readers** call [`VersionedRelation::load`], which clones the current
//!   composed snapshot `Arc` under a read lock held only for the clone — a
//!   few nanoseconds. The query then runs entirely against its pinned
//!   [`RelationSnapshot`], lock-free. The shard snapshots live only there:
//!   writers read them from the composed snapshot too.
//! * **Writers** take the relation's one writer lock, which holds the
//!   per-shard write logs. An ingest batch holds it from routing through
//!   apply, WAL append and log to its publish, so two batches into one
//!   relation never overlap. (The store once had a writer lock per shard
//!   besides, documented as letting a burst into one shard contend on that
//!   shard alone. That never held: the relation lock that routing took was
//!   kept for the whole batch.)
//! * **Per-shard compaction** takes the writer lock three times, each only
//!   for a copy or a swap: to capture `(shard snapshot, log length, WAL
//!   head)`, to copy the log tail logged since the capture, and to publish
//!   (applying the few ops logged after that copy). Gathering, rebuilding
//!   the shard's base, building its id → block map and replaying the tail
//!   run outside the lock, so ingest continues meanwhile. Each shard has its
//!   own in-flight slot, so rebuilds of different shards overlap on the
//!   worker pool.
//! * **Publishing** — the only place shard state becomes visible — composes
//!   a new [`RelationSnapshot`] (concatenated blocks + partition tier) from
//!   the shard vector the writer just built and swaps it in as one step, so
//!   readers never observe a torn batch.
//! * **Durability** (when enabled): the original batch is appended to the
//!   relation's WAL as one record *between* apply and publish, under the
//!   writer lock. A compaction capture reads the WAL head under the same
//!   lock, so it sees a batch either not yet appended (the batch stays in
//!   the uncovered suffix) or already published (the captured snapshot
//!   contains it) — never in between, so `covered_seq` can never claim an
//!   op the persisted base misses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use twoknn_geometry::{Point, PointId, Rect};
use twoknn_index::{BlockId, IndexConfig, Metrics, SpatialIndex};

use crate::exec::WorkerPool;

use super::delta::{Delta, WriteOp};
use super::recover::RelationDurability;
use super::shard::{RelationSnapshot, ShardConfig, ShardMap};
use super::snapshot::{BaseIdMap, BaseIds, BaseIndex, ShardOp, ShardSnapshot};
use super::StoreConfig;

/// Everything one ingest batch produced, captured race-free under the
/// relation's writer lock: per-op outcomes plus the snapshots on either side
/// of the publish. The continuous-query maintainer consumes `prev` (to
/// recover old positions of moved/removed points) and the published version
/// (the version standing queries re-evaluate against).
pub(crate) struct IngestReceipt {
    /// Number of ops that changed the visible point set.
    pub effective: usize,
    /// The published composed snapshot's version.
    pub version: u64,
    /// Per op: whether it changed the visible point set.
    pub changed: Vec<bool>,
    /// Per op: whether the op's id was visible immediately before it
    /// (within the batch: earlier ops of the same batch count).
    pub visible_before: Vec<bool>,
    /// The composed snapshot the batch was applied to — the pre-publish
    /// state the maintainer recovers old positions from. (Re-evaluations
    /// deliberately pin the *current* snapshot rather than the published
    /// one, so later evaluations always cover earlier publishes; the receipt
    /// therefore does not carry the published snapshot itself.)
    pub prev: Arc<RelationSnapshot>,
}

/// How routing finds the shard an op's id is visible in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Routing {
    /// Live ingest, which keeps every id visible in at most one shard: an
    /// upsert probes its target shard first, where a position report
    /// usually finds its object, then the others in order.
    Live,
    /// Recovery replay: every shard in order, retracting stale duplicates
    /// (see [`VersionedRelation::ingest_replay`]).
    Replay,
    /// Live ingest through replay's in-order probe, without its
    /// retractions: the reference the routing test holds `Live` to.
    #[cfg(test)]
    InOrder,
}

/// A batch split into per-shard sub-batches.
#[derive(Debug, PartialEq)]
struct Routed {
    /// Per shard: its sub-batch.
    sub: Vec<Vec<ShardOp>>,
    /// Per op: the (shard, sub-batch index) of its primary sub-op, `None`
    /// for ineffective removes that route nowhere.
    primary: Vec<Option<(usize, usize)>>,
    /// Per op: whether its id was visible immediately before it (earlier
    /// ops of the batch count).
    visible_before: Vec<bool>,
}

/// A rebuilt shard before its publish: the snapshot over the new base with
/// the ops logged since the capture replayed, and the write-log positions
/// of the capture and of the replay's end.
struct Rebuilt {
    snapshot: ShardSnapshot,
    captured_len: usize,
    replayed_len: usize,
}

/// A relation whose current snapshot is replaced, never mutated, stored as
/// independently versioned spatial shards.
pub struct VersionedRelation {
    name: String,
    /// The composed view readers pin, and the only place the shard
    /// snapshots are kept.
    current: RwLock<Arc<RelationSnapshot>>,
    map: ShardMap,
    /// The writer lock. Per shard, the ops applied since the shard's base
    /// was built; everything that reads a log or publishes holds it.
    writer: Mutex<Vec<Vec<WriteOp>>>,
    /// Per shard: whether a rebuild is in flight.
    compacting: Vec<AtomicBool>,
    /// The relation recipe: what the relation was registered with and its
    /// manifest records.
    config: IndexConfig,
    /// What every shard base is built with: `map`'s
    /// [`ShardMap::shard_recipe`] of `config`.
    shard_config: IndexConfig,
    compaction_threshold: usize,
    /// WAL + manifest of this relation, when the store is durable.
    durability: Option<Arc<RelationDurability>>,
}

impl VersionedRelation {
    /// A relation over `base`, whose shards build with the shard recipe of
    /// `base`'s recipe ([`ShardMap::shard_recipe`]).
    pub(crate) fn new(
        name: String,
        base: BaseIndex,
        compaction_threshold: usize,
        sharding: ShardConfig,
        durability: Option<Arc<RelationDurability>>,
    ) -> Self {
        let config = base.recipe();
        let map = ShardMap::new(base.bounds(), sharding.shards_per_axis);
        let shard_config = map.shard_recipe(config);
        let shard_snaps: Vec<Arc<ShardSnapshot>> = if map.num_shards() == 1 {
            // Unsharded: the registered index is used as-is.
            vec![Arc::new(ShardSnapshot::clean(base, 0))]
        } else {
            // Split the registered points by shard and build one base per
            // shard over its routing cell (extended by its points' bounds).
            let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); map.num_shards()];
            for p in base.all_points() {
                buckets[map.shard_of(&p)].push(p);
            }
            buckets
                .into_iter()
                .enumerate()
                .map(|(s, pts)| {
                    let shard_base = rebuild(shard_config, pts, map.shard_rect(s));
                    Arc::new(ShardSnapshot::clean(shard_base, 0))
                })
                .collect()
        };
        Self::assemble(
            name,
            map,
            shard_snaps,
            config,
            compaction_threshold,
            durability,
        )
    }

    /// Rebuilds a relation from recovered state: one pre-loaded base per
    /// shard (its opened block file, at the shard recipe or — written before
    /// shards had a recipe of their own — at the relation recipe `config`),
    /// with the shard map restored from the persisted registration `bounds`
    /// and `per_axis`: the relation keeps its persisted structure even if
    /// the store was reopened with a different [`super::ShardConfig`].
    /// The compaction threshold comes from the current `store` config.
    pub(crate) fn from_recovered(
        name: String,
        bounds: Rect,
        per_axis: usize,
        bases: Vec<BaseIndex>,
        config: IndexConfig,
        store: &StoreConfig,
        durability: Arc<RelationDurability>,
    ) -> Self {
        let map = ShardMap::new(bounds, per_axis);
        debug_assert_eq!(map.num_shards(), bases.len());
        let shard_snaps = bases
            .into_iter()
            .map(|base| Arc::new(ShardSnapshot::clean(base, 0)))
            .collect();
        Self::assemble(
            name,
            map,
            shard_snaps,
            config,
            store.compaction_threshold,
            Some(durability),
        )
    }

    fn assemble(
        name: String,
        map: ShardMap,
        shard_snaps: Vec<Arc<ShardSnapshot>>,
        config: IndexConfig,
        compaction_threshold: usize,
        durability: Option<Arc<RelationDurability>>,
    ) -> Self {
        let nshards = shard_snaps.len();
        let composed = RelationSnapshot::compose(map, shard_snaps, 0);
        Self {
            name,
            current: RwLock::new(Arc::new(composed)),
            map,
            writer: Mutex::new(vec![Vec::new(); nshards]),
            compacting: (0..nshards).map(|_| AtomicBool::new(false)).collect(),
            config,
            shard_config: map.shard_recipe(config),
            compaction_threshold,
            durability,
        }
    }

    /// The relation's durable state, when the store is durable.
    pub(crate) fn durability(&self) -> Option<&Arc<RelationDurability>> {
        self.durability.as_ref()
    }

    /// Writes every shard's current base as a block file and commits the
    /// manifest — the registration-time persist that makes a fresh durable
    /// relation recoverable. (Shard bases at this point cover no WAL
    /// records, hence `covered_seq` 0.)
    pub(crate) fn persist_initial(&self) -> std::io::Result<()> {
        if let Some(d) = &self.durability {
            for (s, shard) in self.load().shards().iter().enumerate() {
                d.persist_shard(s, shard.base().as_ref(), 0)?;
            }
        }
        Ok(())
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation recipe: the recipe the relation was registered with,
    /// which its manifest records. It is not always what a shard rebuilds
    /// with: a sharded grid builds every shard base with the recipe's cell
    /// size instead, `⌈n / shards_per_axis⌉` cells per axis per shard.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// The per-shard delta size at which ingest schedules a background
    /// rebuild of that shard.
    pub fn compaction_threshold(&self) -> usize {
        self.compaction_threshold
    }

    /// Number of spatial shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.map.num_shards()
    }

    /// Pins the current composed snapshot. The returned `Arc` stays valid
    /// (and immutable) regardless of concurrent ingest or compaction.
    pub fn load(&self) -> Arc<RelationSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Takes the writer lock: per shard, the ops applied since the shard's
    /// base was built.
    fn lock_logs(&self) -> MutexGuard<'_, Vec<Vec<WriteOp>>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Composes `shards` — `prev`'s shards with the ones a writer replaced —
    /// at `prev`'s version + 1 and swaps it in, returning the new version.
    /// Callers hold the writer lock, under which `prev` stays current.
    fn publish(&self, prev: &RelationSnapshot, shards: Vec<Arc<ShardSnapshot>>) -> u64 {
        let version = prev.version() + 1;
        let composed = RelationSnapshot::compose(self.map, shards, version);
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(composed);
        version
    }

    /// Applies a batch of write operations as **one** atomic visibility
    /// step: queries either see all of the batch or none of it.
    ///
    /// (Non-test code goes through
    /// [`VersionedRelation::ingest_with_receipt`], which this wraps.)
    #[cfg(test)]
    pub(crate) fn ingest(&self, ops: &[WriteOp]) -> (usize, u64) {
        let receipt = self.ingest_with_receipt(ops).expect("WAL append");
        (receipt.effective, receipt.version)
    }

    /// Ingests one batch, reporting — per op, race-free under the writer
    /// lock — the full [`IngestReceipt`]: visibility before each op
    /// (`Database::update` uses this for its return value) and the pre-batch
    /// composed snapshot (the continuous-query maintainer uses it for guard
    /// probing).
    ///
    /// Each op is routed to the shard its coordinates map to; an upsert that
    /// moves a point across a shard boundary becomes a remove in the old
    /// shard plus the upsert in the new one, applied in the same publish so
    /// the point is never visible twice or not at all.
    ///
    /// # Errors
    ///
    /// A failed WAL append. The batch is then neither published nor entered
    /// in any shard's write log, and the WAL is left as it was before it.
    pub(crate) fn ingest_with_receipt(&self, ops: &[WriteOp]) -> std::io::Result<IngestReceipt> {
        self.ingest_full(ops, Routing::Live)
    }

    /// Recovery-time ingest: applies a WAL record through the normal routing
    /// and publish machinery but (a) never re-appends to the WAL and (b)
    /// retracts *every* stale copy of a touched id. Shards persist their
    /// bases independently, so after a crash a moved point can be visible in
    /// two shards at once (old position in a shard persisted before the
    /// move, new position in one persisted after); the move op itself has a
    /// sequence number past the less-advanced shard's `covered_seq`, so it
    /// is guaranteed to be among the replayed records and cleans up the
    /// duplicate here.
    pub(crate) fn ingest_replay(&self, ops: &[WriteOp]) {
        self.ingest_full(ops, Routing::Replay)
            .expect("replay appends nothing to the WAL, so it has no I/O to fail");
    }

    /// Splits a batch into per-shard sub-batches. Visibility is resolved
    /// against `snaps`, the shard snapshots the batch applies to (the
    /// writer lock keeps them current until its publish), plus the batch's
    /// own earlier ops. Each sub-op carries the block of its id in its
    /// shard's base, from the same lookup that probed the shard when there
    /// was one.
    fn route(&self, snaps: &[Arc<ShardSnapshot>], ops: &[WriteOp], routing: Routing) -> Routed {
        let nshards = snaps.len();
        // Where each id the batch already touched is visible now.
        let mut where_is: HashMap<PointId, Option<usize>> = HashMap::with_capacity(ops.len());
        // The shards probed for the current op, each with the block storing
        // the op's id in its base.
        let mut probed: Vec<(usize, Option<BlockId>)> = Vec::with_capacity(nshards);
        // The first shard `id` is visible in, probing `first` before the
        // others (in shard order).
        let locate = |probed: &mut Vec<(usize, Option<BlockId>)>, id, first: Option<usize>| {
            let order = first
                .into_iter()
                .chain((0..nshards).filter(|&s| Some(s) != first));
            for s in order {
                let (visible, base) = snaps[s].probe(id);
                probed.push((s, base));
                if visible {
                    return Some(s);
                }
            }
            None
        };
        let shard_op = |probed: &[(usize, Option<BlockId>)], s: usize, op: WriteOp| ShardOp {
            op,
            base: match probed.iter().find(|&&(t, _)| t == s) {
                Some(&(_, base)) => base,
                None => snaps[s].base_block(op.id()),
            },
        };
        // In replay mode: pushes retractions for every shard other than
        // `keep` that still holds `id` — live ingest maintains the ≤ 1-shard
        // invariant, but independently persisted shard bases can briefly
        // break it (see `ingest_replay`). `known` marks ids the batch itself
        // already settled (the first touching op cleaned up).
        let retract_stale = |sub: &mut Vec<Vec<ShardOp>>,
                             probed: &[(usize, Option<BlockId>)],
                             id: PointId,
                             keep: Option<usize>,
                             known: bool| {
            if routing != Routing::Replay || known {
                return;
            }
            for (s, snap) in snaps.iter().enumerate() {
                if Some(s) != keep && snap.contains_id(id) {
                    sub[s].push(shard_op(probed, s, WriteOp::Remove(id)));
                }
            }
        };

        let mut routed = Routed {
            sub: vec![Vec::new(); nshards],
            primary: Vec::with_capacity(ops.len()),
            visible_before: Vec::with_capacity(ops.len()),
        };
        for &op in ops {
            let id = op.id();
            probed.clear();
            let known = where_is.get(&id).copied();
            match op {
                WriteOp::Upsert(p) => {
                    let target = self.map.shard_of(&p);
                    let first = (routing == Routing::Live).then_some(target);
                    let old = known.unwrap_or_else(|| locate(&mut probed, id, first));
                    routed.visible_before.push(old.is_some());
                    if let Some(o) = old.filter(|&o| o != target) {
                        // Cross-shard move: retract from the old shard in
                        // the same publish.
                        routed.sub[o].push(shard_op(&probed, o, WriteOp::Remove(id)));
                    }
                    // Replay: also retract stale duplicates from any shard
                    // that is neither the routed-from nor the target shard.
                    let keep = old.filter(|&o| o == target);
                    retract_stale(&mut routed.sub, &probed, id, keep, known.is_some());
                    routed
                        .primary
                        .push(Some((target, routed.sub[target].len())));
                    routed.sub[target].push(shard_op(&probed, target, op));
                    where_is.insert(id, Some(target));
                }
                WriteOp::Remove(_) => {
                    let old = known.unwrap_or_else(|| locate(&mut probed, id, None));
                    routed.visible_before.push(old.is_some());
                    match old {
                        Some(o) => {
                            routed.primary.push(Some((o, routed.sub[o].len())));
                            routed.sub[o].push(shard_op(&probed, o, op));
                            where_is.insert(id, None);
                        }
                        None => routed.primary.push(None),
                    }
                    retract_stale(&mut routed.sub, &probed, id, old, known.is_some());
                }
            }
        }
        routed
    }

    fn ingest_full(&self, ops: &[WriteOp], routing: Routing) -> std::io::Result<IngestReceipt> {
        let mut logs = self.lock_logs();
        let prev = self.load();
        let Routed {
            sub,
            primary,
            visible_before,
        } = self.route(prev.shards(), ops, routing);

        // Per touched shard: its snapshot with the sub-batch applied, and
        // which of the sub-batch's ops changed the visible set.
        let applied: Vec<Option<(ShardSnapshot, Vec<bool>)>> = sub
            .iter()
            .zip(prev.shards())
            .map(|(batch, cur)| {
                (!batch.is_empty()).then(|| {
                    let (snapshot, outcome) = cur.apply_routed(batch, cur.version() + 1);
                    (snapshot, outcome.changed)
                })
            })
            .collect();
        let changed: Vec<bool> = primary
            .iter()
            .map(|slot| slot.is_some_and(|(s, i)| applied[s].as_ref().is_some_and(|a| a.1[i])))
            .collect();
        let effective = changed.iter().filter(|c| **c).count();

        // Log the batch — the ORIGINAL ops, so a cross-shard Remove+Upsert
        // pair is one atomic record — under the writer lock (see the module
        // doc's ordering argument). Replay never re-appends, and a batch
        // that touched no shard (ineffective removes only) replays as a
        // no-op, so skip it. A failed append returns here, with nothing
        // published and no write log touched.
        if routing != Routing::Replay && applied.iter().any(Option::is_some) {
            if let Some(d) = &self.durability {
                d.append_batch(ops)?;
            }
        }

        let mut shards = prev.shards().to_vec();
        for (s, slot) in applied.into_iter().enumerate() {
            let Some((snapshot, shard_changed)) = slot else {
                continue;
            };
            let log = &mut logs[s];
            // Only ops that changed the visible set enter the log:
            // ineffective ops would replay as no-ops anyway, and skipping
            // them keeps the log proportional to real work.
            for (op, changed) in sub[s].iter().zip(&shard_changed) {
                if *changed {
                    log.push(op.op);
                }
            }
            // A delta that cancelled back to empty makes the shard equal its
            // base: the log has nothing a compaction would need to replay,
            // so drop it — unless a rebuild of this shard is in flight,
            // whose captured log position must stay valid until its publish
            // trims the log itself.
            if snapshot.delta().is_empty() && !self.compacting[s].load(Ordering::Acquire) {
                log.clear();
            }
            shards[s] = Arc::new(snapshot);
        }
        let version = self.publish(&prev, shards);

        Ok(IngestReceipt {
            effective,
            version,
            changed,
            visible_before,
            prev,
        })
    }

    /// The shards whose delta has outgrown the compaction threshold and have
    /// no rebuild in flight, in shard order.
    pub(crate) fn shards_needing_compaction(&self) -> Vec<usize> {
        let snap = self.load();
        (0..self.num_shards())
            .filter(|&s| {
                !self.compacting[s].load(Ordering::Acquire)
                    && snap.shards()[s].delta_len() >= self.compaction_threshold
            })
            .collect()
    }

    /// Whether any shard currently wants a background rebuild.
    #[cfg(test)]
    pub(crate) fn needs_compaction(&self) -> bool {
        !self.shards_needing_compaction().is_empty()
    }

    /// Attempts to claim shard `s`'s in-flight compaction slot. Returns
    /// `false` if another rebuild of this shard already holds it.
    pub(crate) fn begin_shard_compaction(&self, s: usize) -> bool {
        !self.compacting[s].swap(true, Ordering::AcqRel)
    }

    /// Releases shard `s`'s compaction slot (publish finished or rebuild
    /// failed).
    pub(crate) fn end_shard_compaction(&self, s: usize) {
        self.compacting[s].store(false, Ordering::Release);
    }

    /// Captures shard `s`'s rebuild source under the writer lock: the shard
    /// snapshot to merge, the log length it corresponds to, and the WAL
    /// sequence number the rebuilt base will cover. Reading the WAL head
    /// under the writer lock makes the coverage claim race-free: every
    /// logged record is already applied to the captured snapshot (batches
    /// append and publish holding this lock). Records touching only *other*
    /// shards count too — their coverage claim for this shard is vacuously
    /// true.
    pub(crate) fn capture_shard_for_compaction(
        &self,
        s: usize,
    ) -> (Arc<ShardSnapshot>, usize, u64) {
        let logs = self.lock_logs();
        let covered_seq = self.durability.as_ref().map_or(0, |d| d.last_seq());
        (
            Arc::clone(&self.load().shards()[s]),
            logs[s].len(),
            covered_seq,
        )
    }

    /// Publishes a rebuilt base for shard `s` — given with its id map
    /// already built, so neither this publish nor the next ingest scans the
    /// base under the writer lock: replays the shard ops ingested
    /// since the capture onto the new base, swaps the shard and the
    /// recomposed relation snapshot in, and trims the shard log to the
    /// replayed tail. Returns the published composed version.
    pub(crate) fn publish_shard_compacted(
        &self,
        s: usize,
        base_ids: BaseIdMap,
        captured_len: usize,
    ) -> u64 {
        let rebuilt = self.replay_onto_rebuilt(s, base_ids, captured_len);
        self.publish_rebuilt(s, rebuilt)
    }

    /// Replays the shard ops logged since the capture onto the rebuilt base
    /// and builds its filtered blocks — outside the writer lock, which it
    /// holds only to copy the log tail, so ingest keeps going while the tail
    /// is replayed.
    fn replay_onto_rebuilt(&self, s: usize, base_ids: BaseIdMap, captured_len: usize) -> Rebuilt {
        let (tail, replayed_len) = {
            let logs = self.lock_logs();
            (logs[s][captured_len..].to_vec(), logs[s].len())
        };
        let mut delta = Delta::new();
        for op in &tail {
            delta.apply(op, |id| base_ids.get().contains_key(&id));
        }
        Rebuilt {
            // The version is set when the catch-up below publishes it.
            snapshot: ShardSnapshot::over(base_ids, delta, 0),
            captured_len,
            replayed_len,
        }
    }

    /// Publishes a rebuilt shard under the writer lock: applies the ops
    /// logged since the replay (an ingest batch's worth, at most a few)
    /// incrementally, publishes the relation snapshot with the shard
    /// swapped in, and trims the shard log to the ops past the capture.
    fn publish_rebuilt(&self, s: usize, rebuilt: Rebuilt) -> u64 {
        let mut logs = self.lock_logs();
        let prev = self.load();
        let late: Vec<ShardOp> = logs[s][rebuilt.replayed_len..]
            .iter()
            .map(|&op| ShardOp {
                op,
                base: rebuilt.snapshot.base_block(op.id()),
            })
            .collect();
        let (snapshot, _) = rebuilt
            .snapshot
            .apply_routed(&late, prev.shards()[s].version() + 1);
        logs[s].drain(..rebuilt.captured_len);
        let mut shards = prev.shards().to_vec();
        shards[s] = Arc::new(snapshot);
        let version = self.publish(&prev, shards);
        // `prev` may hold the last reference to the replaced shard snapshot:
        // free it after the lock, which ingest is waiting for.
        drop(logs);
        version
    }

    /// Runs one full compaction cycle of shard `s` **synchronously on the
    /// calling thread**: capture → merge → rebuild → publish. Returns `None`
    /// without doing work when another rebuild of this shard holds the
    /// in-flight slot or the shard's delta is empty; otherwise the published
    /// composed version.
    ///
    /// `gather` turns the captured shard snapshot into the merged point set
    /// — the background path supplies a pool-sharded gatherer, tests can
    /// pass [`ShardSnapshot::merged_points`].
    pub(crate) fn compact_shard_with(
        &self,
        s: usize,
        gather: impl FnOnce(&ShardSnapshot) -> Vec<Point>,
        metrics: &Mutex<Metrics>,
    ) -> Option<u64> {
        if !self.begin_shard_compaction(s) {
            return None;
        }
        // Release the slot on every exit path, including panics in the
        // index build (run_job would otherwise leave the shard permanently
        // uncompactable).
        struct Slot<'a>(&'a VersionedRelation, usize);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.end_shard_compaction(self.1);
            }
        }
        let _slot = Slot(self, s);

        let (source, captured_len, covered_seq) = self.capture_shard_for_compaction(s);
        if source.delta().is_empty() {
            return None;
        }
        let points = gather(&source);
        let gathered = points.len() as u64;
        let base = rebuild(self.shard_config, points, source.base().bounds());
        // Persist the rebuilt base *before* the in-memory publish and
        // outside the lock. The block file's contents equal the captured
        // visible set — exactly the WAL prefix up to `covered_seq` as it
        // affects this shard — regardless of when the publish lands. A
        // failed persist is an event and keeps the manifest on the previous
        // generation (whose smaller covered_seq keeps the WAL suffix long
        // enough), so durability degrades to slower recovery, never to data
        // loss.
        if let Some(d) = &self.durability {
            if let Err(e) = d.persist_shard(s, base.as_ref(), covered_seq) {
                d.persist_failed(format!("{} shard {s}: {e}", self.name));
            }
        }
        // Index the rebuilt base's ids here, outside every lock: the publish
        // replays the log tail through the map and every later ingest
        // tombstones through it.
        let base_ids = BaseIds::indexed(&base);
        let version = self.publish_shard_compacted(s, base_ids, captured_len);
        let mut m = metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.compactions += 1;
        m.shards_compacted += 1;
        m.points_scanned += gathered;
        Some(version)
    }

    /// Checkpoints the relation: folds (and thereby persists) every dirty
    /// shard, advances clean shards' covered sequence to the WAL head, and
    /// trims WAL segments no shard needs anymore. No-op without durability.
    ///
    /// The clean-shard bump is sound because under the writer lock, an
    /// empty delta **and** empty write log mean the shard's visible set
    /// *is* its in-memory base, which (unless marked stale by a failed
    /// persist — checked by `bump_covered`) is byte-for-byte the manifest's
    /// block file; every logged record up to the WAL head read under the
    /// same lock is reflected in that visible set. A failed manifest
    /// rewrite is an event.
    pub(crate) fn checkpoint(
        &self,
        pool: &WorkerPool,
        metrics: &Mutex<Metrics>,
        obs: &crate::obs::Observability,
    ) {
        let Some(d) = &self.durability else { return };
        let _ = super::compact::compact_relation(self, pool, metrics, obs);
        {
            let logs = self.lock_logs();
            let head = d.last_seq();
            for (s, (log, shard)) in logs.iter().zip(self.load().shards()).enumerate() {
                if log.is_empty() && shard.delta().is_empty() {
                    d.bump_covered(s, head);
                }
            }
        }
        if let Err(e) = d.sync_manifest_and_trim() {
            d.persist_failed(format!("{} manifest: {e}", self.name));
        }
    }
}

/// A fresh shard base built with `config` over a shard's visible points.
fn rebuild(config: IndexConfig, points: Vec<Point>, bounds_hint: Rect) -> BaseIndex {
    Arc::new(
        config
            .build(points, bounds_hint)
            .expect("a relation holds finite coordinates only: ingest refuses the rest"),
    )
}

impl std::fmt::Debug for VersionedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedRelation")
            .field("name", &self.name)
            .field("version", &self.load().version())
            .field("num_shards", &self.num_shards())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use twoknn_index::{check_index_invariants, GridIndex, SpatialIndex};

    fn points(n: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(0x2545F4914F6CDD1D);
                Point::new(i, (h % 631) as f64 * 0.17, ((h / 631) % 631) as f64 * 0.17)
            })
            .collect()
    }

    fn relation_sharded(threshold: usize, shards_per_axis: usize) -> VersionedRelation {
        VersionedRelation::new(
            "R".into(),
            Arc::new(GridIndex::build(points(200), 5).unwrap()),
            threshold,
            ShardConfig::per_axis(shards_per_axis),
            None,
        )
    }

    fn relation(threshold: usize) -> VersionedRelation {
        relation_sharded(threshold, 1)
    }

    fn log_len(rel: &VersionedRelation) -> usize {
        rel.lock_logs().iter().map(Vec::len).sum()
    }

    #[test]
    fn ingest_batches_are_atomic_and_versioned() {
        let rel = relation(1_000);
        let before = rel.load();
        let (effective, v1) = rel.ingest(&[
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Remove(3),
            WriteOp::Remove(9_999), // not present: ineffective
        ]);
        assert_eq!(effective, 2);
        assert_eq!(v1, 1);
        // The pinned pre-ingest snapshot is untouched.
        assert_eq!(before.version(), 0);
        assert_eq!(before.num_points(), 200);
        assert!(!before.contains_id(900));
        let after = rel.load();
        assert_eq!(after.version(), 1);
        assert_eq!(after.num_points(), 200);
        assert!(after.contains_id(900));
        assert!(!after.contains_id(3));
    }

    #[test]
    fn write_log_stays_proportional_to_the_delta() {
        let rel = relation(1_000_000); // never compacts on its own
                                       // Ineffective ops (removes of absent ids) must not grow the log.
        for _ in 0..100 {
            rel.ingest(&[WriteOp::Remove(555_555)]);
        }
        assert_eq!(log_len(&rel), 0, "no-op writes must not be logged");
        // A delta that cancels back to empty clears the log: an
        // upsert/remove cycle of a fresh id leaves nothing to replay.
        for round in 0..50 {
            rel.ingest(&[WriteOp::Upsert(Point::new(777, 1.0, 1.0))]);
            rel.ingest(&[WriteOp::Remove(777)]);
            assert!(
                log_len(&rel) <= 2,
                "log grew to {} after {round} cancelling cycles",
                log_len(&rel)
            );
        }
        assert_eq!(rel.load().delta_len(), 0);
        assert_eq!(log_len(&rel), 0);
        // visible_before is exact, including within one batch.
        let receipt = rel
            .ingest_with_receipt(&[
                WriteOp::Upsert(Point::new(888, 2.0, 2.0)), // fresh id
                WriteOp::Upsert(Point::new(888, 3.0, 3.0)), // now visible
                WriteOp::Remove(888),
                WriteOp::Upsert(Point::new(0, 4.0, 4.0)), // base id: visible
            ])
            .unwrap();
        assert_eq!(receipt.visible_before, vec![false, true, true, true]);
        assert_eq!(receipt.changed.len(), 4);
        assert_eq!(receipt.prev.version() + 1, receipt.version);
    }

    #[test]
    fn compaction_folds_the_delta_into_a_fresh_base() {
        let rel = relation(4);
        rel.ingest(&[
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Upsert(Point::new(901, 2.0, 2.0)),
            WriteOp::Remove(0),
        ]);
        assert!(!rel.needs_compaction(), "threshold is 4, delta is 3");
        rel.ingest(&[WriteOp::Remove(1)]);
        assert!(rel.needs_compaction());
        assert_eq!(rel.shards_needing_compaction(), vec![0]);

        let metrics = Mutex::new(Metrics::default());
        let version = rel
            .compact_shard_with(0, |s| s.merged_points(), &metrics)
            .expect("compaction must run");
        let snap = rel.load();
        assert_eq!(snap.version(), version);
        assert_eq!(snap.delta_len(), 0, "delta folded into the base");
        assert_eq!(snap.num_points(), 200);
        assert!(snap.contains_id(900) && !snap.contains_id(0));
        check_index_invariants(&*snap).unwrap();
        let m = metrics.lock().unwrap();
        assert_eq!(m.compactions, 1, "epoch counter advanced");
        assert_eq!(m.shards_compacted, 1);
        assert!(!rel.needs_compaction());
    }

    #[test]
    fn writes_during_compaction_survive_the_publish() {
        let rel = relation(1);
        rel.ingest(&[WriteOp::Upsert(Point::new(500, 3.0, 3.0))]);
        // Simulate a concurrent write landing between capture and publish:
        // capture first, ingest, then finish the rebuild from the capture.
        assert!(rel.begin_shard_compaction(0));
        let (source, captured_len, _covered) = rel.capture_shard_for_compaction(0);
        rel.ingest(&[
            WriteOp::Upsert(Point::new(501, 4.0, 4.0)),
            WriteOp::Remove(7),
        ]);
        let base = rebuild(rel.config(), source.merged_points(), source.base().bounds());
        rel.publish_shard_compacted(0, BaseIds::indexed(&base), captured_len);
        rel.end_shard_compaction(0);

        let snap = rel.load();
        assert!(snap.contains_id(500), "compacted write present in the base");
        assert!(snap.contains_id(501), "concurrent write replayed on top");
        assert!(!snap.contains_id(7), "concurrent remove replayed on top");
        assert_eq!(snap.delta_len(), 2, "only the replayed tail remains");
        check_index_invariants(&*snap).unwrap();
    }

    #[test]
    fn writes_between_the_replay_and_the_publish_are_caught_up() {
        let rel = relation_sharded(1, 2);
        rel.ingest(&[WriteOp::Upsert(Point::new(500, 3.0, 3.0))]);
        let s = rel.load().shard_map().shard_of(&Point::new(500, 3.0, 3.0));
        assert!(rel.begin_shard_compaction(s));
        let (source, captured_len, _covered) = rel.capture_shard_for_compaction(s);
        rel.ingest(&[WriteOp::Upsert(Point::new(501, 4.0, 4.0))]);
        let base = rebuild(
            rel.shard_config,
            source.merged_points(),
            source.base().bounds(),
        );
        let rebuilt = rel.replay_onto_rebuilt(s, BaseIds::indexed(&base), captured_len);
        // Lands after the replay copied the log tail, before the publish:
        // a fresh id, a remove of a replayed insert and, when base id 0 is
        // stored in this shard, a move of a point of the rebuilt base.
        let moved = source
            .position_of(0)
            .map(|p| Point::new(0, p.x + 0.01, p.y))
            .filter(|p| rel.map.shard_of(p) == s);
        let late: Vec<WriteOp> = [
            WriteOp::Upsert(Point::new(502, 5.0, 5.0)),
            WriteOp::Remove(501),
        ]
        .into_iter()
        .chain(moved.map(WriteOp::Upsert))
        .collect();
        rel.ingest(&late);
        rel.publish_rebuilt(s, rebuilt);
        rel.end_shard_compaction(s);

        let snap = rel.load();
        assert!(snap.contains_id(500), "compacted write in the base");
        assert!(snap.contains_id(502), "late write caught up");
        assert!(!snap.contains_id(501), "replayed write, then removed late");
        if let Some(p) = moved {
            assert_eq!(snap.position_of(0), Some(p));
        }
        assert_eq!(snap.num_points(), 202);
        snap.check_overlay_invariants().unwrap();
        // The log keeps every op past the capture, for a later compaction.
        assert_eq!(rel.lock_logs()[s].len(), 1 + late.len());
    }

    #[test]
    fn profile_is_memoized_per_snapshot() {
        let rel = relation_sharded(1_000_000, 2);
        let before = rel.load();
        let first = before.profile();
        assert_eq!(first.num_points, 200);
        assert_eq!(first, before.profile(), "repeat calls hit the memo");
        assert_eq!(
            first,
            crate::plan::RelationProfile::compute(&*before),
            "the memo equals a fresh computation"
        );
        rel.ingest(&[
            WriteOp::Upsert(Point::new(900, 9.0, 9.0)),
            WriteOp::Remove(3),
            WriteOp::Remove(4),
        ]);
        let after = rel.load();
        assert_eq!(after.profile().num_points, 199, "the publish's profile");
        assert_eq!(
            after.profile(),
            crate::plan::RelationProfile::compute(&*after)
        );
        assert_eq!(before.profile(), first, "a pinned snapshot keeps its own");
    }

    #[test]
    fn compaction_slot_is_exclusive() {
        let rel = relation(1);
        rel.ingest(&[WriteOp::Remove(0)]);
        assert!(rel.begin_shard_compaction(0));
        let metrics = Mutex::new(Metrics::default());
        assert_eq!(
            rel.compact_shard_with(0, |s| s.merged_points(), &metrics),
            None,
            "second compaction must refuse while one is in flight"
        );
        rel.end_shard_compaction(0);
        assert!(rel
            .compact_shard_with(0, |s| s.merged_points(), &metrics)
            .is_some());
    }

    #[test]
    fn sharded_relation_routes_and_stays_equivalent() {
        let sharded = relation_sharded(1_000_000, 3);
        let flat = relation(1_000_000);
        assert_eq!(sharded.num_shards(), 9);
        let snap = sharded.load();
        assert_eq!(snap.num_points(), 200);
        snap.check_overlay_invariants().unwrap();

        // The same mixed batch lands identically in both layouts.
        let batch = vec![
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Upsert(Point::new(901, 100.0, 100.0)),
            WriteOp::Remove(3),
            WriteOp::Remove(9_999),
            WriteOp::Upsert(Point::new(5, 105.0, 2.0)), // moves a base point
        ];
        let rs = sharded.ingest_with_receipt(&batch).unwrap();
        let rf = flat.ingest_with_receipt(&batch).unwrap();
        assert_eq!(rs.effective, rf.effective);
        assert_eq!(rs.changed, rf.changed);
        assert_eq!(rs.visible_before, rf.visible_before);

        let (s, f) = (sharded.load(), flat.load());
        assert_eq!(s.num_points(), f.num_points());
        s.check_overlay_invariants().unwrap();
        let mut sp = s.merged_points();
        let mut fp = f.merged_points();
        sp.sort_by_key(|p| p.id);
        fp.sort_by_key(|p| p.id);
        assert_eq!(sp, fp);
    }

    #[test]
    fn cross_shard_move_is_atomic() {
        let rel = relation_sharded(1_000_000, 2);
        let snap = rel.load();
        // Pick a base point and move it to the far corner (another shard).
        let victim = snap.position_of(0).expect("base id 0 exists");
        let old_shard = snap.shard_map().shard_of(&victim);
        let moved = Point::new(0, 105.0, 105.0);
        let new_shard = snap.shard_map().shard_of(&moved);
        assert_ne!(old_shard, new_shard, "test point must cross shards");

        let (effective, _) = rel.ingest(&[WriteOp::Upsert(moved)]);
        assert_eq!(effective, 1);
        let after = rel.load();
        assert_eq!(after.num_points(), 200, "a move never duplicates");
        assert_eq!(after.position_of(0), Some(moved));
        after.check_overlay_invariants().unwrap();

        // Moving it back also works (and in-batch double moves settle on
        // the final position).
        rel.ingest(&[
            WriteOp::Upsert(Point::new(0, 105.0, 2.0)),
            WriteOp::Upsert(victim),
        ]);
        let back = rel.load();
        assert_eq!(back.num_points(), 200);
        assert_eq!(back.position_of(0), Some(victim));
        back.check_overlay_invariants().unwrap();
    }

    #[test]
    fn compaction_hands_over_a_built_id_map() {
        for threads in [1, 2] {
            let rel = Arc::new(relation_sharded(4, 2));
            let pool = Arc::new(WorkerPool::new(threads));
            let metrics = Arc::new(Mutex::new(Metrics::default()));
            let obs = Arc::new(crate::obs::Observability::default());
            // A burst into the low-corner shard only.
            let burst: Vec<WriteOp> = (0..8u64)
                .map(|i| WriteOp::Upsert(Point::new(1_000 + i, 1.0 + i as f64 * 0.1, 1.0)))
                .collect();
            rel.ingest(&burst);
            let dirty = rel.shards_needing_compaction();
            assert_eq!(dirty.len(), 1, "{threads} threads");
            assert!(super::super::compact::schedule_compaction(
                &rel, &pool, &metrics, &obs
            ));
            pool.wait_idle();
            assert_eq!(metrics.lock().unwrap().compactions, 1, "{threads} threads");
            // Nothing was logged after the capture, so the publish replayed
            // no tail through the map: it is built because the job built it.
            let snap = Arc::clone(&rel.load().shards()[dirty[0]]);
            assert_eq!(snap.delta_len(), 0, "{threads} threads");
            assert!(
                snap.base_ids().is_built(),
                "{threads} threads: the rebuilt shard's id map is built before publish"
            );
        }
    }

    #[test]
    fn per_shard_compaction_leaves_other_shards_untouched() {
        let rel = relation_sharded(4, 2);
        // Burst confined to the first shard's region (near the origin).
        let burst: Vec<WriteOp> = (0..8u64)
            .map(|i| WriteOp::Upsert(Point::new(1_000 + i, 1.0 + i as f64 * 0.1, 1.0)))
            .collect();
        rel.ingest(&burst);
        let dirty = rel.shards_needing_compaction();
        assert_eq!(dirty.len(), 1, "burst must land in exactly one shard");
        let dirty_shard = dirty[0];
        let before: Vec<u64> = rel.load().shards().iter().map(|s| s.version()).collect();

        let metrics = Mutex::new(Metrics::default());
        rel.compact_shard_with(dirty_shard, |s| s.merged_points(), &metrics)
            .expect("dirty shard compacts");
        for (s, shard) in rel.load().shards().iter().enumerate() {
            if s == dirty_shard {
                assert_eq!(shard.delta_len(), 0);
                assert!(shard.version() > before[s]);
            } else {
                assert_eq!(
                    shard.version(),
                    before[s],
                    "untouched shard must keep its snapshot"
                );
            }
        }
        let m = metrics.lock().unwrap();
        assert_eq!((m.compactions, m.shards_compacted), (1, 1));
        assert_eq!(
            m.points_scanned,
            rel.load().shards()[dirty_shard].num_points() as u64,
            "rebuild gathered only the dirty shard's points"
        );
        rel.load().check_overlay_invariants().unwrap();
    }

    /// The visible points of `rel`, by id.
    fn rows(rel: &VersionedRelation) -> Vec<Point> {
        let mut rows = rel.load().merged_points();
        rows.sort_by_key(|p| p.id);
        rows
    }

    #[test]
    fn target_first_routing_equals_the_in_order_probe() {
        let live = relation_sharded(1_000_000, 3);
        let in_order = relation_sharded(1_000_000, 3);
        let snap = live.load();
        let map = *snap.shard_map();
        let centre = |s: usize, id| {
            let r = map.shard_rect(s);
            Point::new(id, (r.min_x + r.max_x) / 2.0, (r.min_y + r.max_y) / 2.0)
        };
        let home = |id| map.shard_of(&snap.position_of(id).unwrap());
        let mut batches = vec![vec![
            WriteOp::Upsert(centre(home(0), 0)), // move inside its shard
            WriteOp::Upsert(centre((home(1) + 4) % 9, 1)), // move across shards
            WriteOp::Upsert(Point::new(500, 3.0, 90.0)), // fresh id
            WriteOp::Remove(9_999),              // absent id
            WriteOp::Upsert(centre((home(2) + 1) % 9, 2)), // away and back again
            WriteOp::Upsert(centre(home(2), 2)),
            WriteOp::Remove(3), // remove, then re-insert elsewhere
            WriteOp::Upsert(centre((home(3) + 2) % 9, 3)),
            WriteOp::Upsert(Point::new(500, 80.0, 8.0)), // the fresh id moves
            WriteOp::Remove(4),
            WriteOp::Remove(4), // repeated remove
        ]];
        // Then seeded batches over base, fresh and absent ids.
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h % n
        };
        for _ in 0..30 {
            batches.push(
                (0..16)
                    .map(|_| {
                        let id = next(260);
                        if next(4) == 0 {
                            WriteOp::Remove(id)
                        } else {
                            let (x, y) = (next(1_080) as f64 * 0.1, next(1_080) as f64 * 0.1);
                            WriteOp::Upsert(Point::new(id, x, y))
                        }
                    })
                    .collect(),
            );
        }
        for (at, ops) in batches.iter().enumerate() {
            let snaps = live.load();
            assert_eq!(
                live.route(snaps.shards(), ops, Routing::Live),
                live.route(snaps.shards(), ops, Routing::InOrder),
                "batch {at}: sub-batches"
            );
            let a = live.ingest_full(ops, Routing::Live).unwrap();
            let b = in_order.ingest_full(ops, Routing::InOrder).unwrap();
            assert_eq!(
                (a.effective, a.version, &a.changed, &a.visible_before),
                (b.effective, b.version, &b.changed, &b.visible_before),
                "batch {at}: receipt"
            );
            assert_eq!(rows(&live), rows(&in_order), "batch {at}: rows");
            if at == 0 {
                let after = live.load();
                assert_eq!(after.position_of(2), Some(centre(home(2), 2)));
                assert!(!after.contains_id(4) && !after.contains_id(9_999));
                assert_eq!(a.visible_before[9..], [true, false]);
            }
        }
        live.load().check_overlay_invariants().unwrap();
    }

    #[test]
    fn a_failed_wal_append_publishes_nothing_and_is_not_replayed() {
        let dir =
            std::env::temp_dir().join(format!("twoknn-version-wal-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            compaction_threshold: 1_000_000,
            sharding: ShardConfig::per_axis(2),
            durability: super::super::DurabilityConfig::at(&dir),
        };
        let mut db = crate::plan::Database::with_store_config(config.clone());
        db.register("R", GridIndex::build(points(200), 5).unwrap());
        db.ingest("R", &[WriteOp::Upsert(Point::new(900, 1.0, 1.0))])
            .unwrap();
        let rel = db.store().get("R").unwrap();
        let wal = rel.durability().unwrap();
        let (version, seq, logged, before) = (
            rel.load().version(),
            wal.last_seq(),
            log_len(&rel),
            rows(&rel),
        );

        wal.wal().inject(super::super::wal::Fault::Write);
        // A move across shards, a fresh id and a remove.
        let failed = [
            WriteOp::Upsert(Point::new(0, 105.0, 105.0)),
            WriteOp::Upsert(Point::new(901, 2.0, 2.0)),
            WriteOp::Remove(1),
        ];
        let err = db.ingest("R", &failed).unwrap_err();
        assert!(
            matches!(
                &err,
                QueryError::WalAppend {
                    kind: std::io::ErrorKind::Other,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(rel.load().version(), version, "nothing published");
        assert_eq!(rows(&rel), before, "no visible row changed");
        assert_eq!(log_len(&rel), logged, "no write log touched");
        assert_eq!(wal.last_seq(), seq, "no sequence number used");

        wal.wal().inject(super::super::wal::Fault::Off);
        db.ingest(
            "R",
            &[
                WriteOp::Upsert(Point::new(902, 3.0, 3.0)),
                WriteOp::Remove(2),
            ],
        )
        .unwrap();
        let published = rows(&rel);
        assert!(published.iter().any(|p| p.id == 902) && published.iter().all(|p| p.id != 901));
        // A crash: drop without a checkpoint, then replay the WAL.
        drop((rel, db));
        let reopened = crate::plan::Database::open(&dir, config).unwrap();
        assert_eq!(rows(&reopened.store().get("R").unwrap()), published);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
