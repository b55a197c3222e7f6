//! Background per-shard index rebuilds on the shared worker pool.
//!
//! When a spatial shard's delta outgrows the relation's compaction
//! threshold, the store schedules a rebuild job **for that shard alone** via
//! [`WorkerPool::spawn`] — the same queue (and the same thread budget) that
//! batch and operator tasks use, so rebuilds never oversubscribe the machine
//! and `execute_batch` keeps making progress on the caller thread while
//! workers rebuild. Each shard has its own compaction slot, so rebuilds of
//! different shards run side by side, and the gather/build cost is
//! proportional to the dirty shard, not the whole relation. A rebuild takes
//! the relation's one writer lock only for steps 1 and 4; ingest runs
//! between them.
//!
//! The per-shard rebuild pipeline:
//!
//! 1. **Capture** `(shard snapshot, shard log position, WAL head)` under the
//!    writer lock (a copy — ingest continues right after);
//! 2. **Gather** the shard's visible points with [`run_into_shares`] on the
//!    pool, one item per block: the calling thread sizes one buffer of the
//!    shard's points and each block copies its `count` points into its own
//!    share, so large shards use the whole pool and the points come out in
//!    block order. Overlay-grid cells are ordinary blocks of the shard
//!    snapshot, so a large un-compacted burst is gathered cell-parallel
//!    exactly like the base;
//! 3. **Build** a fresh shard base with the shard recipe (the relation's
//!    [`twoknn_index::IndexConfig`] at the shard layout's cell size), and
//!    its id → block map;
//! 4. **Publish**: replay the shard ops ingested since the capture onto the
//!    new base outside the lock (copying the log tail under it), then, under
//!    it, catch up the few ops logged during that replay and publish a
//!    relation snapshot with the shard swapped in.
//!
//! On a parallelism-1 pool (e.g. `TWOKNN_THREADS=1`) there are no workers,
//! so [`WorkerPool::spawn`] degrades to running the rebuild inline in the
//! ingest call — synchronous, but semantically identical.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use twoknn_geometry::Point;
use twoknn_index::{Metrics, SpatialIndex};

use crate::exec::{run_into_shares, WorkerPool};
use crate::obs::{EventKind, HistogramKind, Observability};

use super::version::VersionedRelation;

/// Collects an index's visible points on `pool`, one item per block, each
/// writing its points into a share of `block.count` slots. Ordering follows
/// block order (and point order within blocks), matching the serial
/// `merged_points`.
pub(crate) fn gather_points_sharded<I>(snapshot: &I, pool: &WorkerPool) -> Vec<Point>
where
    I: SpatialIndex + Sync + ?Sized,
{
    let mut scratch = Metrics::default();
    let blocks = snapshot.blocks();
    let unset = Point::anonymous(0.0, 0.0);
    pool.bind(|| {
        run_into_shares(
            blocks,
            |block| block.count,
            unset,
            &mut scratch,
            |block, out, _| {
                for (slot, p) in out.iter_mut().zip(snapshot.block_points(block.id)) {
                    *slot = p;
                }
            },
        )
    })
}

/// Runs one compaction cycle of shard `s` on the calling thread, sharding
/// the gather phase over `pool`. Returns the published composed version, or
/// `None` when another rebuild holds the shard's slot or its delta is empty.
pub(crate) fn compact_shard(
    rel: &VersionedRelation,
    s: usize,
    pool: &WorkerPool,
    metrics: &Mutex<Metrics>,
    obs: &Observability,
) -> Option<u64> {
    obs.event(
        EventKind::CompactionStarted,
        format!("{} shard {s}", rel.name()),
    );
    let start = Instant::now();
    let published =
        rel.compact_shard_with(s, |snapshot| gather_points_sharded(snapshot, pool), metrics);
    match published {
        Some(version) => {
            obs.record(HistogramKind::Compaction, start.elapsed());
            obs.event(
                EventKind::CompactionFinished,
                format!("{} shard {s} published version {version}", rel.name()),
            );
        }
        // Slot held or empty delta: nothing rebuilt, no duration recorded.
        None => obs.event(
            EventKind::CompactionFinished,
            format!("{} shard {s} skipped (slot held or clean)", rel.name()),
        ),
    }
    published
}

/// Synchronously folds **every** dirty shard of `rel` on the calling thread
/// (regardless of the background threshold — this is the `compact_now`
/// path, whose contract is "the delta is folded when I return"). Shards
/// whose rebuild slot is held by an in-flight background job are skipped.
/// Returns the last published composed version, or `None` when no shard had
/// anything to fold.
pub(crate) fn compact_relation(
    rel: &VersionedRelation,
    pool: &WorkerPool,
    metrics: &Mutex<Metrics>,
    obs: &Observability,
) -> Option<u64> {
    let mut published = None;
    for s in 0..rel.num_shards() {
        if let Some(version) = compact_shard(rel, s, pool, metrics, obs) {
            published = Some(version);
        }
    }
    published
}

/// Schedules background compactions on `pool` — one job per shard whose
/// delta has outgrown the threshold and has no rebuild in flight. Returns
/// whether any job was scheduled.
pub(crate) fn schedule_compaction(
    rel: &Arc<VersionedRelation>,
    pool: &Arc<WorkerPool>,
    metrics: &Arc<Mutex<Metrics>>,
    obs: &Arc<Observability>,
) -> bool {
    let dirty = rel.shards_needing_compaction();
    for &s in &dirty {
        let rel = Arc::clone(rel);
        let metrics = Arc::clone(metrics);
        let obs = Arc::clone(obs);
        pool.spawn(move || {
            // The serving pool (or, inline on a 1-pool, the bound submitting
            // pool) shards the gather; `compact_shard_with` re-checks the
            // per-shard in-flight slot, so racing duplicate jobs degenerate
            // to no-ops.
            let pool = WorkerPool::current();
            let _ = compact_shard(&rel, s, &pool, &metrics, &obs);
        });
    }
    !dirty.is_empty()
}

#[cfg(test)]
mod tests {
    use super::super::delta::WriteOp;
    use super::super::shard::ShardConfig;
    use super::*;
    use twoknn_geometry::Point;
    use twoknn_index::GridIndex;

    fn relation_sharded(threshold: usize, shards_per_axis: usize) -> Arc<VersionedRelation> {
        let pts: Vec<Point> = (0..500u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(i, (h % 997) as f64 * 0.13, ((h / 997) % 997) as f64 * 0.13)
            })
            .collect();
        Arc::new(VersionedRelation::new(
            "R".into(),
            Arc::new(GridIndex::build(pts, 9).unwrap()),
            threshold,
            ShardConfig::per_axis(shards_per_axis),
            None,
        ))
    }

    fn relation(threshold: usize) -> Arc<VersionedRelation> {
        relation_sharded(threshold, 1)
    }

    #[test]
    fn sharded_gather_matches_the_serial_merge() {
        let rel = relation(1_000);
        rel.ingest(&[
            WriteOp::Upsert(Point::new(9_000, 3.0, 3.0)),
            WriteOp::Remove(17),
            WriteOp::Upsert(Point::new(42, 50.0, 50.0)),
        ]);
        let snap = rel.load();
        let pool = WorkerPool::new(3);
        let sharded = gather_points_sharded(&*snap, &pool);
        assert_eq!(sharded, snap.merged_points());
    }

    #[test]
    fn sharded_gather_covers_a_partitioned_overlay_cell_parallel() {
        // A burst big enough to split into many overlay cells: the gather's
        // per-block shares must cover every cell exactly once, in block
        // order, just like base blocks.
        let rel = relation(1_000_000);
        let burst: Vec<WriteOp> = (0..600u64)
            .map(|i| {
                WriteOp::Upsert(Point::new(
                    10_000 + i,
                    30.0 + (i % 25) as f64 * 0.31,
                    30.0 + (i / 25) as f64 * 0.29,
                ))
            })
            .collect();
        rel.ingest(&burst);
        let snap = rel.load();
        assert!(
            snap.overlay_block_count() > 1,
            "the burst must partition the overlay"
        );
        let pool = WorkerPool::new(4);
        let sharded = gather_points_sharded(&*snap, &pool);
        assert_eq!(sharded, snap.merged_points());
        assert_eq!(sharded.len(), snap.num_points());
    }

    #[test]
    fn scheduled_compaction_publishes_on_the_pool() {
        let rel = relation(2);
        let pool = Arc::new(WorkerPool::new(2));
        let metrics = Arc::new(Mutex::new(Metrics::default()));
        let obs = Arc::new(Observability::default());
        rel.ingest(&[
            WriteOp::Upsert(Point::new(9_000, 3.0, 3.0)),
            WriteOp::Remove(17),
        ]);
        assert!(schedule_compaction(&rel, &pool, &metrics, &obs));
        // No sleep/poll loop: the pool drains its queue, then the publish is
        // visible and the event ring holds the rebuild's lifecycle pair.
        pool.wait_idle();
        let snap = rel.load();
        assert_eq!(snap.delta_len(), 0, "background compaction published");
        assert_eq!(snap.num_points(), 500);
        assert!(snap.contains_id(9_000) && !snap.contains_id(17));
        assert_eq!(metrics.lock().unwrap().compactions, 1);
        let events = obs.drain_events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::CompactionStarted));
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::CompactionFinished && e.detail.contains("published")));
        assert_eq!(obs.histogram(HistogramKind::Compaction).count, 1);
        // Below threshold now: nothing to schedule.
        assert!(!schedule_compaction(&rel, &pool, &metrics, &obs));
    }

    #[test]
    fn scheduled_compaction_is_synchronous_on_a_one_thread_pool() {
        let rel = relation(1);
        let pool = Arc::new(WorkerPool::new(1));
        let metrics = Arc::new(Mutex::new(Metrics::default()));
        let obs = Arc::new(Observability::default());
        rel.ingest(&[WriteOp::Remove(3)]);
        assert!(schedule_compaction(&rel, &pool, &metrics, &obs));
        // Inline spawn: the publish already happened.
        assert_eq!(rel.load().delta_len(), 0);
        assert_eq!(rel.load().num_points(), 499);
    }

    #[test]
    fn scheduling_rebuilds_only_the_dirty_shards() {
        let rel = relation_sharded(4, 2);
        let pool = Arc::new(WorkerPool::new(1)); // inline spawn: deterministic
        let metrics = Arc::new(Mutex::new(Metrics::default()));
        let obs = Arc::new(Observability::default());
        let extent = rel.load().bounds();
        // One burst confined to the low-corner shard, one stray write in the
        // high corner: only the bursty shard crosses the threshold.
        let mut ops: Vec<WriteOp> = (0..6u64)
            .map(|i| {
                WriteOp::Upsert(Point::new(
                    9_000 + i,
                    extent.min_x + 0.5 + i as f64 * 0.1,
                    extent.min_y + 0.5,
                ))
            })
            .collect();
        ops.push(WriteOp::Upsert(Point::new(
            9_900,
            extent.max_x - 0.5,
            extent.max_y - 0.5,
        )));
        rel.ingest(&ops);
        assert!(schedule_compaction(&rel, &pool, &metrics, &obs));
        let m = *metrics.lock().unwrap();
        assert_eq!(
            (m.compactions, m.shards_compacted),
            (1, 1),
            "only the bursty shard rebuilds"
        );
        assert_eq!(rel.load().delta_len(), 1, "the stray write stays deltaed");
        // compact_relation (the compact_now path) folds the stragglers too.
        assert!(compact_relation(&rel, &pool, &metrics, &obs).is_some());
        assert_eq!(rel.load().delta_len(), 0);
        assert_eq!(metrics.lock().unwrap().shards_compacted, 2);
        assert_eq!(rel.load().num_points(), 507);
        rel.load().check_overlay_invariants().unwrap();
    }
}
