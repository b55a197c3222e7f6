//! What the two durable workloads share: the store configuration, the
//! traced write path, the write-side layer metrics read from the engine's
//! own counters and histograms, and the crash-and-recover check.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use two_knn::core::plan::Database;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, SyncPolicy, WriteOp};
use two_knn::core::{HistogramKind, WorkerPool};
use two_knn::{Metrics, SpatialIndex};

use crate::harness::{Layers, Recorder, WRITE_ROOT};
use crate::oracle::Model;
use crate::spans::{Tracer, NO_OP};
use crate::stats::{percentile, ratio, sorted};
use crate::sys;

/// Write ops per ingest batch.
pub const BATCH: usize = 64;
/// Bytes of user data in one write op: an id and two coordinates.
const USER_BYTES_PER_OP: f64 = 24.0;
/// Newest WAL records the simulated crash tears off.
const TORN_RECORDS: usize = 3;

/// The durable configuration of `examples/moving_objects.rs`, sharded 3×3:
/// fsync every 64th batch, background rebuild of a shard at 4 000 deltas.
pub fn durable_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        compaction_threshold: 4_000,
        sharding: ShardConfig::per_axis(3),
        durability: DurabilityConfig::at(dir).with_sync(SyncPolicy::EveryN(64)),
        ..StoreConfig::default()
    }
}

/// `(samples, total nanoseconds)` a latency histogram has recorded.
type Recorded = (f64, f64);

/// Cumulative engine counters at one instant; layer metrics are differences
/// between two of these.
struct Reading {
    counters: Metrics,
    wal_append: Recorded,
    wal_fsync: Recorded,
    compaction: Recorded,
    cq_reeval: Recorded,
}

impl Reading {
    fn take(db: &Database) -> Self {
        let report = db.metrics_report();
        let histogram = |kind: HistogramKind| -> Recorded {
            report
                .histograms
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, h)| (h.count as f64, h.sum_nanos as f64))
                .expect("the report carries every histogram kind")
        };
        Reading {
            counters: report.counters,
            wal_append: histogram(HistogramKind::WalAppend),
            wal_fsync: histogram(HistogramKind::WalFsync),
            compaction: histogram(HistogramKind::Compaction),
            cq_reeval: histogram(HistogramKind::CqReeval),
        }
    }
}

/// What a histogram recorded between two readings.
fn delta(after: Recorded, before: Recorded) -> Recorded {
    (after.0 - before.0, after.1 - before.1)
}

/// What the counting rounds — a fixed prefix of the schedule, with
/// background work drained after every write — did: these repeat exactly.
struct Counted {
    counters: Metrics,
    compactions: f64,
    publishes: u64,
    write_ops: u64,
    delta_len_max: usize,
    disk_bytes_per_live_byte: f64,
}

/// The traced write path of one relation, and what it observed.
pub struct WriteTrace {
    relation: &'static str,
    dir: PathBuf,
    before: Reading,
    counted: Option<Counted>,
    ingest_us: Vec<f64>,
    write_ops: u64,
    delta_len_max: usize,
    queue_depth_max: usize,
    /// Subscription polls made and the time they took (`mixed_stream`).
    pub polls: u64,
    pub poll_ns: u64,
}

impl WriteTrace {
    /// Starts observing the store under `dir`: the engine's counters now
    /// are the baseline.
    pub fn begin(db: &Database, dir: &Path, relation: &'static str) -> Self {
        WriteTrace {
            relation,
            dir: dir.to_path_buf(),
            before: Reading::take(db),
            counted: None,
            ingest_us: Vec::new(),
            write_ops: 0,
            delta_len_max: 0,
            queue_depth_max: 0,
            polls: 0,
            poll_ns: 0,
        }
    }

    fn count(&self, db: &Database, now: &Reading) -> Counted {
        let live = db.relation(self.relation).map_or(0, |r| r.num_points());
        let block_files = sys::dir_bytes(&relation_dir(&self.dir, self.relation), &|name| {
            !name.starts_with("wal-")
        });
        Counted {
            counters: now.counters.diff(&self.before.counters),
            compactions: delta(now.compaction, self.before.compaction).0,
            publishes: self.ingest_us.len() as u64,
            write_ops: self.write_ops,
            delta_len_max: self.delta_len_max,
            disk_bytes_per_live_byte: ratio(block_files as f64, live as f64 * USER_BYTES_PER_OP),
        }
    }

    /// One ingest batch as an op (`op.ingest` ⊃ `store.ingest`), then
    /// `pool().wait_idle()` in a span of its own: with background work
    /// drained after every write, compaction and cq counts repeat exactly.
    /// The wait is the traced pass's own doing, so it is taken off the
    /// round's wall time like any other probe. `counting` is true during
    /// the counting rounds; the first write after them closes the counts.
    pub fn ingest(
        &mut self,
        db: &Database,
        batch: &[WriteOp],
        op: u64,
        counting: bool,
        tr: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), two_knn::core::QueryError> {
        if !counting && self.counted.is_none() {
            self.counted = Some(self.count(db, &Reading::take(db)));
        }
        let root = tr.enter(WRITE_ROOT, op);
        let applied = tr.leaf("store.ingest", op, || db.ingest(self.relation, batch));
        tr.exit(root);
        self.queue_depth_max = self.queue_depth_max.max(db.pool().queue_depth());
        self.delta_len_max = self
            .delta_len_max
            .max(db.relation(self.relation)?.delta_len());
        let wait = tr.enter("exec.pool.wait_idle", op);
        db.pool().wait_idle();
        tr.exit(wait);
        rec.probe_s += tr.seconds(wait);
        self.ingest_us
            .push(tr.spans()[root].duration_ns() as f64 / 1e3);
        self.write_ops += batch.len() as u64;
        applied.map(|_| ())
    }

    pub fn checkpoint(db: &Database, tr: &mut Tracer) {
        tr.leaf("store.checkpoint", NO_OP, || db.checkpoint());
    }

    /// Write-side layer metrics: times over the whole traced segment,
    /// counts over its counting rounds.
    pub fn layers(&self, db: &Database, traced_wall_s: f64, layers: &mut Layers) {
        let after = Reading::take(db);
        let ingest = sorted(self.ingest_us.clone());
        layers.set("store.ingest_p50_us", percentile(&ingest, 0.5));
        layers.set("store.ingest_p99_us", percentile(&ingest, 0.99));
        layers.set(
            "store.ingest_points_per_s",
            ratio(self.write_ops as f64, ingest.iter().sum::<f64>() / 1e6),
        );
        // Sampled between the ingest and the wait: depends on how far the
        // worker got meanwhile, so this one does not repeat exactly.
        layers.set("exec.pool.queue_depth_max", self.queue_depth_max as f64);
        let (appends, append_ns) = delta(after.wal_append, self.before.wal_append);
        let (fsyncs, fsync_ns) = delta(after.wal_fsync, self.before.wal_fsync);
        layers.set("store.wal.append_us", ratio(append_ns / 1e3, appends));
        layers.set("store.wal.fsync_us", ratio(fsync_ns / 1e3, fsyncs));
        let (compactions, compaction_ns) = delta(after.compaction, self.before.compaction);
        layers.set(
            "store.compact.mean_ms",
            ratio(compaction_ns / 1e6, compactions),
        );
        layers.set(
            "store.compact.busy_share",
            ratio(compaction_ns / 1e9, traced_wall_s),
        );
        let (reevals, reeval_ns) = delta(after.cq_reeval, self.before.cq_reeval);
        layers.set("cq.reeval_us", ratio(reeval_ns / 1e3, reevals));
        layers.set(
            "cq.poll_us",
            ratio(self.poll_ns as f64 / 1e3, self.polls as f64),
        );

        // A run that ended inside the counting rounds counts what it has.
        let at_end;
        let counted = match &self.counted {
            Some(counted) => counted,
            None => {
                at_end = self.count(db, &after);
                &at_end
            }
        };
        let c = &counted.counters;
        layers.set("store.overlay.delta_len_max", counted.delta_len_max as f64);
        layers.set(
            "store.wal.bytes_per_user_byte",
            ratio(
                c.wal_bytes as f64,
                counted.write_ops as f64 * USER_BYTES_PER_OP,
            ),
        );
        layers.set(
            "store.blockfile.disk_bytes_per_live_byte",
            counted.disk_bytes_per_live_byte,
        );
        layers.set("store.compact.count", counted.compactions);
        layers.set(
            "cq.reevals_per_publish",
            ratio(c.cq_reevals as f64, counted.publishes as f64),
        );
        layers.set(
            "cq.skip_share",
            ratio(c.cq_skips as f64, (c.cq_skips + c.cq_reevals) as f64),
        );
    }
}

/// Where the store keeps a relation: `rel-<hex of the name>/`.
fn relation_dir(root: &Path, relation: &str) -> PathBuf {
    let hex: String = relation.bytes().map(|b| format!("{b:02x}")).collect();
    root.join(format!("rel-{hex}"))
}

/// Byte ranges of the complete `[len u32][crc u32][payload]` records of a
/// WAL segment.
fn record_ranges(segment: &[u8]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut at = 0usize;
    while let Some(header) = segment.get(at..at + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("four bytes")) as usize;
        let Some(end) = at.checked_add(8 + len).filter(|e| *e <= segment.len()) else {
            break;
        };
        ranges.push((at, end));
        at = end;
    }
    ranges
}

/// The crash check of a durable workload. `tail` is ingested on top of the
/// state `model` describes; the database is then dropped without a
/// checkpoint and the WAL cut in the middle of one of its newest records —
/// records written after the last fsync, which a machine crash may lose.
/// The re-opened store must hold exactly the batches before the cut.
pub fn crash_check(
    db: Database,
    pool: &Arc<WorkerPool>,
    dir: &Path,
    relation: &str,
    mut model: Model,
    tail: &[Vec<WriteOp>],
) -> Result<(), String> {
    for batch in tail {
        db.ingest(relation, batch)
            .map_err(|e| format!("tail ingest: {e}"))?;
    }
    pool.wait_idle();
    let config = db.store().config();
    drop(db);

    let mut segments: Vec<PathBuf> = std::fs::read_dir(relation_dir(dir, relation))
        .map_err(|e| format!("reading the relation directory: {e}"))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .collect();
    segments.sort();
    let newest = segments.last().ok_or("the relation has no WAL segment")?;
    let bytes = std::fs::read(newest).map_err(|e| format!("reading the WAL: {e}"))?;
    let records = record_ranges(&bytes);
    let torn = TORN_RECORDS.min(records.len()).min(tail.len());
    if torn == 0 {
        return Err("the newest WAL segment holds no record to tear".into());
    }
    let (start, end) = records[records.len() - torn];
    let cut = (start + (end - start) / 2) as u64;
    std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .and_then(|file| file.set_len(cut))
        .map_err(|e| format!("truncating the WAL: {e}"))?;

    for batch in &tail[..tail.len() - torn] {
        model.apply(batch);
    }
    let reopened = Database::open_with_pool(dir, config, Arc::clone(pool))
        .map_err(|e| format!("re-opening after the crash: {e}"))?;
    if reopened.store_metrics().recoveries == 0 {
        return Err("re-opening recovered no relation".into());
    }
    let visible = reopened
        .relation(relation)
        .map_err(|e| format!("after recovery: {e}"))?
        .all_points();
    model
        .matches(visible)
        .map_err(|e| format!("recovered state is not the model {torn} batches before the end: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_ranges_stop_at_a_torn_record() {
        let mut segment = Vec::new();
        for len in [5u32, 0, 9] {
            segment.extend_from_slice(&len.to_le_bytes());
            segment.extend_from_slice(&[0xAA; 4]);
            segment.extend(std::iter::repeat(7u8).take(len as usize));
        }
        assert_eq!(record_ranges(&segment), vec![(0, 13), (13, 21), (21, 38)]);
        assert_eq!(record_ranges(&segment[..30]), vec![(0, 13), (13, 21)]);
        assert_eq!(record_ranges(&segment[..2]), vec![]);
        assert_eq!(
            relation_dir(Path::new("/d"), "P"),
            PathBuf::from("/d/rel-50")
        );
    }
}
