//! Ablation A7: the durability subsystem (WAL + shard block files).
//!
//! Two measurements over a BerlinMOD-like moving-objects relation:
//!
//! 1. **Ingest overhead** — move-burst ingest latency and publishes/sec
//!    under [`DurabilityConfig::Disabled`] (the baseline — no WAL handle
//!    exists at all) vs `EveryBatch` (fsync per batch) vs `EveryN(64)` vs
//!    `Never` (append without fsync). Latency ratios are printed; the
//!    `--smoke` assertions are structural, not timing-based: the disabled
//!    baseline must log **nothing** (`wal_appends == wal_bytes == 0`, no
//!    directory touched), and every durable mode must log exactly one
//!    record per publishing batch.
//! 2. **Cold-open recovery time vs relation size** — a durable instance
//!    ingests a workload and is dropped *without* a checkpoint; the bench
//!    times [`Database::open`] (block-file load + WAL replay) across
//!    relation sizes. `--smoke` asserts recovery reproduces the crashed
//!    instance's exact visible point count.
//!
//! Usage: `cargo bench -p twoknn-bench --bench
//! ablation_wal -- [--points N] [--batches N] [--threads N] [--smoke]`

use std::path::PathBuf;

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::exec::available_threads;
use twoknn_core::plan::Database;
use twoknn_core::store::{DurabilityConfig, StoreConfig, SyncPolicy, WriteOp};
use twoknn_core::WorkerPool;
use twoknn_geometry::Point;
use twoknn_index::SpatialIndex;

/// A process-unique scratch directory under the system tmp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("twoknn-ablation-wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The durability modes under comparison. `None` is the disabled baseline;
/// the rest differ only in sync policy.
fn modes() -> [(&'static str, Option<SyncPolicy>); 4] {
    [
        ("disabled", None),
        ("wal_never_sync", Some(SyncPolicy::Never)),
        ("wal_sync_every_64", Some(SyncPolicy::EveryN(64))),
        ("wal_sync_every_batch", Some(SyncPolicy::EveryBatch)),
    ]
}

/// A move burst: `count` upserts of stable ids whose positions vary by
/// round, so the relation size stays constant across samples while every
/// batch changes the visible set (and therefore must be logged).
fn move_burst(count: u64, round: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    (0..count)
        .map(|i| {
            let h = (i ^ round.wrapping_mul(0xC2B2_AE3D)).wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                3_000_000 + i,
                extent.min_x + (h % 10_000) as f64 * (extent.width() / 10_000.0),
                extent.min_y + ((h / 10_000) % 10_000) as f64 * (extent.height() / 10_000.0),
            ))
        })
        .collect()
}

fn main() {
    let mut points = 120_000usize;
    let mut batches = 64usize;
    let mut threads = available_threads();
    let mut smoke = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--points" => {
                i += 1;
                points = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(points);
            }
            "--batches" => {
                i += 1;
                batches = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(batches);
            }
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(threads);
            }
            "--smoke" => {
                points = 20_000;
                batches = 24;
                smoke = true;
            }
            _ => {}
        }
        i += 1;
    }
    let batch_ops = 64u64;
    println!(
        "ablation_wal: {points} points, {batches} batches × {batch_ops} move ops per sample, \
         {threads}-thread pool",
    );

    // 1. Ingest overhead per durability mode.
    {
        let mut baseline_ms = None;
        let mut group = BenchGroup::new("wal_ingest_overhead").sample_size(5);
        for (label, sync) in modes() {
            let dir = scratch_dir(label);
            let durability = match sync {
                None => DurabilityConfig::Disabled,
                Some(policy) => DurabilityConfig::at(&dir).with_sync(policy),
            };
            let pool = WorkerPool::new(threads);
            let mut db = Database::with_pool_and_store_config(
                pool,
                StoreConfig {
                    durability,
                    ..StoreConfig::default()
                },
            );
            db.register("Objects", workloads::berlin_relation(points, 423));
            // Settle the first (insert) round outside the measurement.
            db.ingest("Objects", &move_burst(batch_ops, 0)).unwrap();
            let logged_before = db.store_metrics().wal_appends;
            let mut round = 0u64;
            let stat = group.bench(label, || {
                for _ in 0..batches {
                    round += 1;
                    db.ingest("Objects", &move_burst(batch_ops, round)).unwrap();
                }
            });
            let m = db.store_metrics();
            let publishes_per_sec = batches as f64 / (stat.median_ms / 1_000.0);
            println!(
                "{label}: median {:.2} ms / {batches} publishes ({publishes_per_sec:.0}/s), \
                 {} WAL records / {} bytes",
                stat.median_ms, m.wal_appends, m.wal_bytes,
            );
            if let Some(base) = baseline_ms {
                println!(
                    "{label}: {:.2}x the disabled baseline",
                    stat.median_ms / base
                );
            } else {
                baseline_ms = Some(stat.median_ms);
            }
            if smoke {
                match sync {
                    None => {
                        assert_eq!(
                            (m.wal_appends, m.wal_bytes),
                            (0, 0),
                            "disabled durability must log nothing"
                        );
                        assert!(
                            !dir.exists(),
                            "disabled durability must not touch the filesystem"
                        );
                    }
                    Some(_) => {
                        assert_eq!(
                            m.wal_appends - logged_before,
                            round,
                            "{label}: exactly one WAL record per publishing batch"
                        );
                        assert!(m.wal_bytes > 0, "{label}: records carry payload");
                    }
                }
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // 2. Cold-open recovery time vs relation size.
    {
        let mut group = BenchGroup::new("wal_cold_open_recovery").sample_size(5);
        for scale in [points / 4, points / 2, points] {
            let dir = scratch_dir(&format!("recovery-{scale}"));
            let cfg = StoreConfig {
                durability: DurabilityConfig::at(&dir).with_sync(SyncPolicy::Never),
                ..StoreConfig::default()
            };
            let expected = {
                let pool = WorkerPool::new(threads);
                let mut db = Database::with_pool_and_store_config(pool, cfg.clone());
                db.register("Objects", workloads::berlin_relation(scale, 424));
                for round in 0..batches as u64 {
                    db.ingest("Objects", &move_burst(batch_ops, round)).unwrap();
                }
                db.relation("Objects").unwrap().num_points()
                // Dropped here: a crash, not a checkpointed shutdown.
            };
            let stat = group.bench(&format!("open_{scale}_points"), || {
                let pool = WorkerPool::new(threads);
                Database::open_with_pool(&dir, cfg.clone(), pool).unwrap()
            });
            let pool = WorkerPool::new(threads);
            let reopened = Database::open_with_pool(&dir, cfg.clone(), pool).unwrap();
            let recovered = reopened.relation("Objects").unwrap().num_points();
            println!(
                "recovery@{scale}: median {:.2} ms, {recovered} points recovered, \
                 {} relation(s)",
                stat.median_ms,
                reopened.store_metrics().recoveries,
            );
            if smoke {
                assert_eq!(
                    recovered, expected,
                    "recovery@{scale}: visible point count must survive the crash"
                );
                assert_eq!(reopened.store_metrics().recoveries, 1);
            }
            drop(reopened);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
