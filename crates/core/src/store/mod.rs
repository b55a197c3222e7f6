//! The versioned relation store: snapshot reads, delta ingest, and
//! background index rebuilds.
//!
//! The paper's motivating workload is location-based services over *moving*
//! objects, but a [`SpatialIndex`] is immutable once built. This module adds
//! the storage layer that reconciles the two without ever blocking readers
//! on writers:
//!
//! * [`ShardSnapshot`] — an immutable version of one spatial shard: a base
//!   index plus a sorted insert/delete [`Delta`] overlay, materialized as
//!   extra/filtered blocks so the whole shard *is* a [`SpatialIndex`].
//!   Inserts are bucketed by position into a bounded **overlay grid** of
//!   copy-on-write cells (a clamped [`CellGrid`](twoknn_geometry::CellGrid)
//!   of about 32 inserts a cell, at most 32 cells per axis), one tight-MBR
//!   overlay block per occupied cell, so per-block MINDIST pruning keeps working
//!   during write bursts instead of collapsing against one giant overlay
//!   block. Overlay cells and tombstone-filtered base blocks are
//!   materialized as SoA [`PointBlock`](twoknn_index::PointBlock) columns —
//!   the same layout the indexes use — so snapshot reads go through the
//!   batched block-scan kernels unchanged;
//! * [`RelationSnapshot`] — the composed, immutable view of a whole
//!   relation: the shard snapshots' blocks concatenated under a block
//!   directory whose first level is the shards, so a kNN search skips far
//!   shards wholesale. The directory nests each shard's base directory by
//!   reference — a publish adds no work proportional to the block count. A
//!   relation sharded `1×1` composes to exactly the unsharded snapshot — the
//!   twin `sharded_equivalence` compares every sharded layout against;
//! * [`VersionedRelation`] — a [`ShardMap`](self) routing points to
//!   shards, each with its own write log and compaction slot, behind one
//!   `Arc`-swapped composed snapshot that is the only place the shard
//!   snapshots live. One writer lock per relation holds the write logs;
//!   every batch, compaction capture and publish takes it, so batches into
//!   one relation run one at a time;
//! * [`compact`](self) (internal) — **per-shard** background rebuilds
//!   scheduled on the shared [`WorkerPool`] when a shard's delta outgrows
//!   [`StoreConfig::compaction_threshold`], with the gather phase sharded
//!   over block ranges. Gather and rebuild run outside the writer lock, so
//!   ingest continues while a shard rebuilds;
//! * [`RelationStore`] — the named catalog of versioned relations behind
//!   [`Database`](crate::plan::Database), and [`DbSnapshot`] — a pinned,
//!   consistent view of the relations a query names (or of every relation,
//!   for a whole `execute_batch`) that it resolves names against. Names
//!   are shared `Arc<str>`s, so pinning copies none;
//! * [`wal`](self) / [`blockfile`](self) / [`recover`](self) (internal) —
//!   the optional durability subsystem ([`DurabilityConfig`]): ingest
//!   batches are write-ahead-logged as checksummed records *before* they
//!   publish, compacted shard bases are spilled as immutable on-disk block
//!   files ([`BlockFileIndex`]), and [`RelationStore::open`] rebuilds the
//!   catalog after a crash by loading the block files and replaying each
//!   WAL's intact suffix. Disabled by default — the in-memory store pays
//!   nothing for the feature it isn't using.
//!
//! ```text
//!    writers                           readers
//!    ───────                           ───────
//!    insert/remove/update              execute / execute_batch
//!          │ route by ShardMap               │
//!          ▼                                 ▼ pin (Arc clone)
//!    ┌ writer lock ───┐  publish     ┌─────────────────────────────┐
//!    │ per shard: log ├─────────────►│ current: Arc<RelationSnap.> │
//!    │ apply → WAL →  │  compose     │  shard snapshots (deltas),  │
//!    │ log → publish  │              │  blocks ++ shard directory  │
//!    └──────┬─────────┘              └─────────────────────────────┘
//!           │ shard delta ≥ threshold   ▲ publish (catch up the
//!           ▼                           │ shard log tail, swap)
//!    WorkerPool::spawn ──► gather shard ──► rebuild shard base
//! ```

mod blockfile;
mod compact;
mod delta;
mod overlay;
mod recover;
mod shard;
mod snapshot;
mod version;
mod wal;

pub use blockfile::BlockFileIndex;
pub use delta::{ChunkedList, Delta, WriteOp};
pub use recover::RecoveryError;
pub use shard::{RelationSnapshot, ShardConfig};
pub use snapshot::{BaseIndex, ShardSnapshot};
pub use twoknn_index::IndexConfig;
pub use version::VersionedRelation;
pub use wal::SyncPolicy;

pub(crate) use version::IngestReceipt;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use twoknn_index::{Metrics, PackedIndex, SpatialIndex};

use crate::error::QueryError;
use crate::exec::WorkerPool;
use crate::obs::{EventKind, HistogramKind, Observability};

/// Durability mode of the relation store.
///
/// `Disabled` (the default) keeps the store fully in-memory at zero cost —
/// `durability::crash_recovery_matches_a_never_crashed_instance` pins that
/// its twin logs nothing: no WAL handle exists, ingest takes no extra branches
/// beyond one `Option` check under the writer lock, and no files are
/// touched. `Enabled` gives every relation a directory under `dir` holding
/// a segmented write-ahead log ([`wal`](self)) plus one immutable block
/// file per shard ([`BlockFileIndex`]); [`RelationStore::open`] (or
/// [`Database::open`](crate::plan::Database::open)) rebuilds the catalog
/// from those files after a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DurabilityConfig {
    /// In-memory only: nothing is written, nothing can be recovered.
    #[default]
    Disabled,
    /// Durable under `dir`: WAL per relation, block file per shard.
    Enabled {
        /// Root directory of the durable store (one subdirectory per
        /// relation is created beneath it).
        dir: PathBuf,
        /// When WAL appends reach stable storage ([`SyncPolicy`]).
        sync: SyncPolicy,
        /// WAL segment roll size in bytes.
        segment_bytes: u64,
    },
}

impl DurabilityConfig {
    /// Default WAL segment roll size (1 MiB).
    pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

    /// Durability rooted at `dir` with the strongest sync policy
    /// ([`SyncPolicy::EveryBatch`]) and the default segment size.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig::Enabled {
            dir: dir.into(),
            sync: SyncPolicy::EveryBatch,
            segment_bytes: Self::DEFAULT_SEGMENT_BYTES,
        }
    }

    /// This configuration with a different [`SyncPolicy`]. No-op on
    /// `Disabled`.
    pub fn with_sync(self, policy: SyncPolicy) -> Self {
        match self {
            DurabilityConfig::Disabled => DurabilityConfig::Disabled,
            DurabilityConfig::Enabled {
                dir, segment_bytes, ..
            } => DurabilityConfig::Enabled {
                dir,
                sync: policy,
                segment_bytes,
            },
        }
    }

    /// This configuration re-rooted at `dir` (enabling it if disabled,
    /// keeping any sync/segment settings) — how
    /// [`Database::open`](crate::plan::Database::open) forces the config to
    /// match the directory it recovers from.
    pub(crate) fn with_dir(self, dir: impl Into<PathBuf>) -> Self {
        match self {
            DurabilityConfig::Disabled => DurabilityConfig::at(dir),
            DurabilityConfig::Enabled {
                sync,
                segment_bytes,
                ..
            } => DurabilityConfig::Enabled {
                dir: dir.into(),
                sync,
                segment_bytes,
            },
        }
    }

    /// Whether durability is on.
    pub fn is_enabled(&self) -> bool {
        matches!(self, DurabilityConfig::Enabled { .. })
    }
}

/// Tuning knobs of the relation store: the compaction threshold, the
/// sharding and the durability mode. Tracing is not one of them — every
/// store starts untraced and
/// [`Database::set_tracing`](crate::plan::Database::set_tracing) switches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Delta size (inserts + deletes) at which ingest schedules a background
    /// rebuild of **that shard's** base index. With the default single-shard
    /// layout this is the relation's delta size, as before.
    pub compaction_threshold: usize,
    /// Spatial sharding of each relation ([`ShardConfig`]): relations are
    /// split into `shards_per_axis²` shards, each with its own delta, write
    /// log and background compaction, under the relation's one writer lock.
    /// The default (`1`) keeps every relation a single shard — the unsharded
    /// twin `sharded_equivalence` compares every sharded layout against.
    pub sharding: ShardConfig,
    /// Durability mode ([`DurabilityConfig`]): `Disabled` (the default)
    /// keeps the store fully in-memory; `Enabled` write-ahead-logs every
    /// ingest batch and persists compacted shard bases as immutable block
    /// files, making the store recoverable via [`RelationStore::open`].
    pub durability: DurabilityConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            compaction_threshold: 512,
            sharding: ShardConfig::default(),
            durability: DurabilityConfig::Disabled,
        }
    }
}

/// A named catalog of [`VersionedRelation`]s.
///
/// All read paths pin snapshots; catalog mutation (`register` /
/// `deregister`) and ingest go through interior locks, so the store is
/// shared by reference across reader and writer threads.
pub struct RelationStore {
    /// Names are shared: pinning a relation bumps a refcount, it never
    /// copies the name.
    relations: RwLock<HashMap<Arc<str>, Arc<VersionedRelation>>>,
    config: StoreConfig,
    /// Store-level work counters: ingest ops applied, compactions published,
    /// rebuild scan work. Merged views are returned by
    /// [`RelationStore::metrics`].
    metrics: Arc<Mutex<Metrics>>,
    /// The observability hub: latency histograms, lifecycle events, and
    /// retained query traces, shared with the `Database` and cq engine.
    obs: Arc<Observability>,
}

impl Default for RelationStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl RelationStore {
    /// An empty store with the given tuning knobs. With durability enabled
    /// this creates the root directory but recovers nothing — use
    /// [`RelationStore::open`] to rebuild a catalog from a previous run.
    pub fn new(config: StoreConfig) -> Self {
        if let DurabilityConfig::Enabled { dir, .. } = &config.durability {
            let _ = std::fs::create_dir_all(dir);
        }
        let obs = Arc::new(Observability::default());
        Self {
            relations: RwLock::new(HashMap::new()),
            config,
            metrics: Arc::new(Mutex::new(Metrics::default())),
            obs,
        }
    }

    /// Opens a durable store rooted at the configured directory, rebuilding
    /// the relation catalog from the persisted block files and replaying
    /// each relation's WAL suffix (see [`recover`](self)). With durability
    /// disabled this is just [`RelationStore::new`].
    pub fn open(config: StoreConfig) -> Result<Self, RecoveryError> {
        let DurabilityConfig::Enabled {
            dir,
            sync,
            segment_bytes,
        } = &config.durability
        else {
            return Ok(Self::new(config));
        };
        let metrics = Arc::new(Mutex::new(Metrics::default()));
        let obs = Arc::new(Observability::default());
        let start = Instant::now();
        let relations =
            recover::recover_relations(dir, *sync, *segment_bytes, &config, &metrics, &obs)?;
        obs.record(HistogramKind::Recovery, start.elapsed());
        obs.event(
            EventKind::Recovery,
            format!(
                "{} relation(s) recovered from {}",
                relations.len(),
                dir.display()
            ),
        );
        Ok(Self {
            relations: RwLock::new(relations),
            config,
            metrics,
            obs,
        })
    }

    /// The store's tuning knobs.
    pub fn config(&self) -> StoreConfig {
        self.config.clone()
    }

    /// Registers (or replaces) a relation; its shards build with the
    /// index's recipe — a sharded grid at the recipe's cell size (see
    /// [`VersionedRelation::config`]). Returns the replaced relation's last
    /// published snapshot, if any.
    ///
    /// With durability enabled, registration wipes any previous on-disk
    /// state of the same name, starts a fresh WAL, and persists every
    /// shard's initial base as a block file before the relation is
    /// published into the catalog — a crash at any later point recovers at
    /// least the registration-time contents.
    pub fn register(
        &self,
        name: impl Into<String>,
        base: PackedIndex,
    ) -> Option<Arc<RelationSnapshot>> {
        let name = name.into();
        let config = base.recipe();
        let durability = match &self.config.durability {
            DurabilityConfig::Disabled => None,
            DurabilityConfig::Enabled {
                dir,
                sync,
                segment_bytes,
            } => Some(Arc::new(
                recover::RelationDurability::create(
                    dir,
                    &name,
                    config,
                    self.config.sharding.shards_per_axis,
                    base.bounds(),
                    *sync,
                    *segment_bytes,
                    Arc::clone(&self.metrics),
                    Arc::clone(&self.obs),
                )
                .expect("failed to initialise the relation's durable directory"),
            )),
        };
        let relation = Arc::new(VersionedRelation::new(
            name.clone(),
            Arc::new(base),
            self.config.compaction_threshold,
            self.config.sharding,
            durability,
        ));
        relation
            .persist_initial()
            .expect("failed to persist the relation's initial shard bases");
        self.relations
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(Arc::from(name), relation)
            .map(|replaced| replaced.load())
    }

    /// Removes a relation from the catalog. Returns its last published
    /// snapshot, if the relation existed. Queries that already pinned a
    /// [`DbSnapshot`] keep their view; an in-flight compaction finishes
    /// against the detached relation and is dropped with it. With
    /// durability enabled the relation's on-disk directory is deleted
    /// (best-effort) — deregistration is as durable as registration.
    pub fn deregister(&self, name: &str) -> Option<Arc<RelationSnapshot>> {
        self.relations
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .map(|removed| {
                if let Some(d) = removed.durability() {
                    d.wipe();
                }
                removed.load()
            })
    }

    /// The versioned relation registered under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<VersionedRelation>, QueryError> {
        self.relations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| QueryError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// The registered relation names, **sorted** — catalog iteration order is
    /// deterministic regardless of hash-map internals.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .map(|name| name.to_string())
            .collect();
        names.sort_unstable();
        names
    }

    /// Pins the current snapshot of **every** relation into one frozen
    /// catalog view.
    ///
    /// Each relation is pinned at exactly one published version (no torn
    /// per-relation reads, and the view never moves once pinned). Across
    /// *different* relations the guarantee is freshness, not simultaneity:
    /// relations publish independently, so a pin racing a writer that
    /// updates B then A may capture new-B with old-A. Per-relation
    /// versioning has no global commit point; workloads needing
    /// cross-relation atomicity must serialize their writes externally.
    pub fn pin(&self) -> DbSnapshot {
        let relations = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut pinned: Vec<_> = relations
            .iter()
            .map(|(name, rel)| (Arc::clone(name), rel.load()))
            .collect();
        pinned.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        DbSnapshot { relations: pinned }
    }

    /// Applies a batch of write operations to `name` as one atomic
    /// visibility step, scheduling a background compaction on `pool` when
    /// the delta outgrows the threshold. Returns `(effective ops, new
    /// version)`, or — with nothing logged or published —
    /// [`QueryError::NonFiniteCoordinate`] when an upsert has a NaN or
    /// infinite coordinate and [`QueryError::WalAppend`] when the durable
    /// store could not log the batch.
    pub fn ingest(
        &self,
        name: &str,
        ops: &[WriteOp],
        pool: &Arc<WorkerPool>,
    ) -> Result<(usize, u64), QueryError> {
        let receipt = self.ingest_with_receipt(name, ops, pool)?;
        Ok((receipt.effective, receipt.version))
    }

    /// [`RelationStore::ingest`], additionally reporting — race-free under
    /// the relation's writer lock — the full [`IngestReceipt`]: per-op
    /// visibility/effectiveness and the pre/post snapshots the
    /// continuous-query maintainer probes guards with.
    pub(crate) fn ingest_with_receipt(
        &self,
        name: &str,
        ops: &[WriteOp],
        pool: &Arc<WorkerPool>,
    ) -> Result<IngestReceipt, QueryError> {
        let rel = self.get(name)?;
        // No index can hold a non-finite coordinate: refuse the whole batch
        // before it is logged or published.
        for op in ops {
            if let WriteOp::Upsert(p) = op {
                if !(p.x.is_finite() && p.y.is_finite()) {
                    return Err(QueryError::NonFiniteCoordinate { id: p.id });
                }
            }
        }
        let start = Instant::now();
        let receipt = rel
            .ingest_with_receipt(ops)
            .map_err(|e| QueryError::WalAppend {
                kind: e.kind(),
                message: e.to_string(),
            })?;
        self.obs
            .record(HistogramKind::IngestPublish, start.elapsed());
        {
            let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            m.ingest_ops += receipt.effective as u64;
        }
        compact::schedule_compaction(&rel, pool, &self.metrics, &self.obs);
        Ok(receipt)
    }

    /// Synchronously compacts `name` on the calling thread (the gather phase
    /// still shards over `pool`): **every** shard with a non-empty delta is
    /// folded, regardless of the background threshold. Returns the last
    /// published version, or `None` when no shard had anything to fold (or
    /// background rebuilds already hold every dirty shard's slot).
    pub fn compact_now(&self, name: &str, pool: &WorkerPool) -> Result<Option<u64>, QueryError> {
        let rel = self.get(name)?;
        Ok(compact::compact_relation(
            &rel,
            pool,
            &self.metrics,
            &self.obs,
        ))
    }

    /// Spills every relation's dirty shards to block files, advances each
    /// clean shard's covered WAL position, rewrites the manifests, and
    /// trims WAL segments made obsolete — after which a reopen replays (at
    /// most) the records appended since this call. No-op with durability
    /// disabled.
    pub fn checkpoint(&self, pool: &WorkerPool) {
        if !self.config.durability.is_enabled() {
            return;
        }
        // Drain in-flight background rebuilds first: a detached job holding
        // a shard's compaction slot would make the synchronous fold below
        // skip that shard, leaving it dirty and its WAL segments untrimmed.
        pool.wait_idle();
        let start = Instant::now();
        let rels: Vec<Arc<VersionedRelation>> = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        let count = rels.len();
        for rel in rels {
            rel.checkpoint(pool, &self.metrics, &self.obs);
        }
        self.obs.record(HistogramKind::Checkpoint, start.elapsed());
        self.obs.event(
            EventKind::Checkpoint,
            format!("{count} relation(s) checkpointed"),
        );
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.checkpoints += 1;
    }

    /// Pins the current snapshot of the named relations only — what one
    /// query or a standing-query re-evaluation needs, without paying for
    /// the whole catalog. `names` may repeat a relation (one per role); it
    /// is pinned once. Same per-relation (not cross-relation-instant)
    /// guarantee as [`RelationStore::pin`].
    pub(crate) fn pin_many<'n>(
        &self,
        names: impl IntoIterator<Item = &'n str>,
    ) -> Result<DbSnapshot, QueryError> {
        let names = names.into_iter();
        let relations = self
            .relations
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let mut pinned: Vec<(Arc<str>, Arc<RelationSnapshot>)> =
            Vec::with_capacity(names.size_hint().0);
        for name in names {
            let (key, rel) =
                relations
                    .get_key_value(name)
                    .ok_or_else(|| QueryError::UnknownRelation {
                        name: name.to_string(),
                    })?;
            if let Err(at) = pinned.binary_search_by(|(pinned, _)| (**pinned).cmp(name)) {
                pinned.insert(at, (Arc::clone(key), rel.load()));
            }
        }
        Ok(DbSnapshot { relations: pinned })
    }

    /// The shared handle to the store's cumulative counters — the
    /// continuous-query maintainer merges its `cq_reevals` / `cq_skips`
    /// into the same record [`RelationStore::metrics`] reports.
    pub(crate) fn metrics_handle(&self) -> &Arc<Mutex<Metrics>> {
        &self.metrics
    }

    /// A copy of the store's cumulative work counters (`ingest_ops`,
    /// `compactions`, rebuild scan work, continuous-query maintenance).
    pub fn metrics(&self) -> Metrics {
        *self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store's observability hub: latency histograms, the lifecycle
    /// event ring, and retained query traces. Most callers go through the
    /// [`Database`](crate::plan::Database) surface (`metrics_report`,
    /// `drain_events`, `drain_traces`, `set_tracing`) instead.
    pub fn obs(&self) -> &Arc<Observability> {
        &self.obs
    }
}

impl std::fmt::Debug for RelationStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationStore")
            .field("names", &self.names())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// A pinned, frozen view of relations in a [`RelationStore`] — the whole
/// catalog ([`RelationStore::pin`]) or just the relations one query names:
/// exactly one published version per relation, immutable once pinned.
///
/// Compilation resolves relation names against a `DbSnapshot`, so a query —
/// or a whole [`execute_batch`](crate::plan::Database::execute_batch) —
/// observes exactly one published version of each relation even while
/// ingest and compaction run concurrently. See [`RelationStore::pin`] for
/// the exact cross-relation guarantee (per-relation atomicity, not a
/// global instant).
#[derive(Debug)]
pub struct DbSnapshot {
    /// Sorted by name.
    relations: Vec<(Arc<str>, Arc<RelationSnapshot>)>,
}

impl DbSnapshot {
    /// Resolves a relation name to its pinned snapshot as a plain
    /// [`SpatialIndex`] for the operators.
    pub fn relation(&self, name: &str) -> Result<&(dyn SpatialIndex + Send + Sync), QueryError> {
        self.snapshot(name)
            .map(|snap| snap.as_ref() as &(dyn SpatialIndex + Send + Sync))
    }

    /// Resolves a relation name to its pinned [`RelationSnapshot`].
    pub fn snapshot(&self, name: &str) -> Result<&Arc<RelationSnapshot>, QueryError> {
        self.relations
            .binary_search_by(|(pinned, _)| (**pinned).cmp(name))
            .map(|at| &self.relations[at].1)
            .map_err(|_| QueryError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// The pinned relation names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.relations
            .iter()
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// `(name, version)` of every pinned relation, sorted by name.
    pub fn versions(&self) -> Vec<(String, u64)> {
        self.relations
            .iter()
            .map(|(name, snap)| (name.to_string(), snap.version()))
            .collect()
    }
}

// Snapshots cross thread boundaries in `execute_batch`; keep that a compile
// error rather than a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RelationStore>();
    assert_send_sync::<DbSnapshot>();
    assert_send_sync::<RelationSnapshot>();
    assert_send_sync::<VersionedRelation>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::Point;
    use twoknn_index::GridIndex;

    fn base(n: usize, seed: u64) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x2545F4914F6CDD1D) ^ seed;
                Point::new(
                    i as u64,
                    (h % 499) as f64 * 0.2,
                    ((h / 499) % 499) as f64 * 0.2,
                )
            })
            .collect();
        GridIndex::build(pts, 6).unwrap()
    }

    #[test]
    fn names_are_sorted_regardless_of_insertion_order() {
        let store = RelationStore::default();
        for name in ["zeta", "alpha", "mid", "beta"] {
            store.register(name, base(50, 1));
        }
        assert_eq!(store.names(), vec!["alpha", "beta", "mid", "zeta"]);
        assert_eq!(store.pin().names(), vec!["alpha", "beta", "mid", "zeta"]);
    }

    #[test]
    fn register_replaces_and_returns_the_old_snapshot() {
        let store = RelationStore::default();
        assert!(store.register("R", base(50, 1)).is_none());
        let replaced = store.register("R", base(80, 2)).unwrap();
        assert_eq!(replaced.num_points(), 50);
        assert_eq!(store.get("R").unwrap().load().num_points(), 80);
    }

    #[test]
    fn deregister_detaches_but_pinned_snapshots_survive() {
        let store = RelationStore::default();
        store.register("R", base(50, 1));
        let pinned = store.pin();
        let removed = store.deregister("R").unwrap();
        assert_eq!(removed.num_points(), 50);
        assert!(store.get("R").is_err());
        assert!(store.deregister("R").is_none());
        // The pinned view is unaffected by the catalog mutation.
        assert_eq!(pinned.snapshot("R").unwrap().num_points(), 50);
    }

    #[test]
    fn pin_is_a_consistent_catalog_view() {
        let store = RelationStore::default();
        store.register("A", base(50, 1));
        store.register("B", base(60, 2));
        let pool = WorkerPool::new(1);
        let pinned = store.pin();
        store.ingest("A", &[WriteOp::Remove(0)], &pool).unwrap();
        assert_eq!(pinned.snapshot("A").unwrap().num_points(), 50);
        assert_eq!(store.pin().snapshot("A").unwrap().num_points(), 49);
        assert_eq!(
            pinned.versions(),
            vec![("A".to_string(), 0), ("B".to_string(), 0)]
        );
        assert!(pinned.relation("missing").is_err());
    }

    #[test]
    fn ingest_counts_and_compacts_through_the_store() {
        let store = RelationStore::new(StoreConfig {
            compaction_threshold: 3,
            ..StoreConfig::default()
        });
        store.register("R", base(100, 3));
        let pool = WorkerPool::new(1); // inline spawn: deterministic
        let (effective, v) = store
            .ingest(
                "R",
                &[
                    WriteOp::Upsert(Point::new(500, 1.0, 1.0)),
                    WriteOp::Remove(2),
                    WriteOp::Remove(777), // absent
                ],
                &pool,
            )
            .unwrap();
        assert_eq!((effective, v), (2, 1));
        assert_eq!(store.metrics().ingest_ops, 2);
        assert_eq!(store.metrics().compactions, 0, "threshold not reached");
        store.ingest("R", &[WriteOp::Remove(5)], &pool).unwrap();
        // Threshold 3 reached: the 1-thread pool compacted inline.
        assert_eq!(store.metrics().compactions, 1);
        let snap = store.get("R").unwrap().load();
        assert_eq!(snap.delta_len(), 0);
        assert_eq!(snap.num_points(), 99);
        // compact_now with an empty delta is a no-op.
        assert_eq!(store.compact_now("R", &pool).unwrap(), None);
    }
}
