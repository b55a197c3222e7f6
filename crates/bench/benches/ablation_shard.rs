//! Ablation A6: spatial sharding of relations.
//!
//! Two measurements over a BerlinMOD-like moving-objects relation, each run
//! under the single-shard layout (the ablation baseline — exactly the old
//! unsharded store) and a 4×4 [`ShardConfig`]:
//!
//! 1. **Scatter-gather pruning** — a clustered kNN-select batch against the
//!    relation after a hot-region insert burst. The sharded layout visits
//!    shards in MINDIST order against the running τ², so far shards are
//!    skipped wholesale (`shards_pruned`); the per-kNN point-scan work must
//!    never exceed the single-shard layout's on this pruning-sensitive
//!    workload. Latency is printed; the `--smoke` assertions pin the
//!    machine-independent work counters.
//! 2. **Burst confinement** — a write burst confined to one corner of the
//!    extent, sized to cross the compaction threshold, while a query batch
//!    runs against the opposite corner. Sharded, only the corner shard
//!    rebuilds (gather work ≈ one shard); single-shard, every burst rebuilds
//!    the whole base. The far-corner batch latency is reported against the
//!    quiescent baseline for both layouts; `--smoke` asserts the sharded
//!    rebuild work is strictly below the single-shard rebuild work.
//!
//! Usage: `cargo bench -p twoknn-bench --bench
//! ablation_shard -- [--points N] [--queries N] [--threads N] [--smoke]`

use std::sync::Arc;

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::exec::available_threads;
use twoknn_core::plan::{Database, QuerySpec};
use twoknn_core::selects2::TwoSelectsQuery;
use twoknn_core::store::{ShardConfig, StoreConfig, WriteOp};
use twoknn_core::WorkerPool;
use twoknn_geometry::Point;
use twoknn_index::Metrics;

/// The two storage layouts under comparison.
fn layouts() -> [(&'static str, ShardConfig); 2] {
    [
        ("single_shard", ShardConfig::default()),
        ("sharded_4x4", ShardConfig::per_axis(4)),
    ]
}

/// A burst of `count` fresh inserts clustered within ~2% of the extent
/// around the query batch's focal region.
fn clustered_insert_burst(count: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    let focal = workloads::focal_point();
    let radius = extent.width() * 0.02;
    (0..count)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                1_000_000 + i,
                focal.x - radius + (h % 4_000) as f64 * (radius / 2_000.0),
                focal.y - radius + ((h / 4_000) % 4_000) as f64 * (radius / 2_000.0),
            ))
        })
        .collect()
}

/// A burst confined to the low corner of the extent — well inside one cell
/// of the 4×4 shard grid. The first round inserts fresh ids; later rounds
/// move the same ids within the corner, so the relation size stays put and
/// every round crosses the compaction threshold of exactly that shard.
fn corner_burst(count: u64, round: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    let (cx, cy) = (
        extent.min_x + extent.width() * 0.125,
        extent.min_y + extent.height() * 0.125,
    );
    let radius = extent.width() * 0.02;
    (0..count)
        .map(|i| {
            let h = (i ^ round.wrapping_mul(0x85EBCA6B)).wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                2_000_000 + i,
                cx - radius + (h % 4_000) as f64 * (radius / 2_000.0),
                cy - radius + ((h / 4_000) % 4_000) as f64 * (radius / 2_000.0),
            ))
        })
        .collect()
}

/// A kNN-select batch clustered around `center` — every query resolves from
/// the shards near it, leaving the rest of the grid MINDIST-prunable.
fn query_batch(queries: usize, center: Point) -> Vec<QuerySpec> {
    (0..queries)
        .map(|q| {
            let offset = (q % 97) as f64 * 23.0;
            QuerySpec::TwoSelects {
                relation: "Objects".into(),
                query: TwoSelectsQuery::new(
                    4,
                    Point::anonymous(center.x + offset, center.y - offset),
                    16,
                    Point::anonymous(center.x - offset, center.y + offset),
                ),
            }
        })
        .collect()
}

/// Folds a batch's per-query work counters into one record.
fn batch_work(db: &Database, specs: &[QuerySpec]) -> Metrics {
    db.execute_batch(specs)
        .into_iter()
        .map(|r| r.expect("batch query").metrics())
        .fold(Metrics::default(), |acc, m| acc + m)
}

fn main() {
    let mut points = 120_000usize;
    let mut queries = 256usize;
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
            "--queries" => {
                i += 1;
                queries = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(queries);
            }
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(threads);
            }
            "--smoke" => {
                points = 20_000;
                queries = 64;
                smoke = true;
            }
            _ => {}
        }
        i += 1;
    }
    let burst = 2_000u64.min(points as u64 / 4);
    println!(
        "ablation_shard: {points} points, {queries} batch queries, {burst}-op bursts, \
         {threads}-thread pool",
    );

    // 1. Scatter-gather pruning on a clustered kNN workload.
    {
        let specs = query_batch(queries, workloads::focal_point());
        let mut per_layout: Vec<(&str, Metrics, f64)> = Vec::new();
        let mut group = BenchGroup::new("shard_scatter_gather_pruning").sample_size(5);
        for (label, sharding) in layouts() {
            let pool = WorkerPool::new(threads);
            let mut db = Database::with_pool_and_store_config(
                pool,
                StoreConfig {
                    compaction_threshold: usize::MAX, // the burst stays deltaed
                    sharding,
                    ..StoreConfig::default()
                },
            );
            db.register("Objects", workloads::berlin_relation(points, 421));
            db.ingest("Objects", &clustered_insert_burst(burst))
                .unwrap();
            let stat = group.bench(label, || db.execute_batch(&specs));
            let work = batch_work(&db, &specs);
            let knn = work.neighborhoods_computed.max(1);
            println!(
                "{label}: {:.0} points / {:.1} blocks scanned per kNN, \
                 shards {} scanned / {} pruned, median {:.1} ms",
                work.points_scanned as f64 / knn as f64,
                work.blocks_scanned as f64 / knn as f64,
                work.shards_scanned,
                work.shards_pruned,
                stat.median_ms,
            );
            per_layout.push((label, work, stat.median_ms));
        }
        let (single, sharded) = (&per_layout[0].1, &per_layout[1].1);
        println!(
            "scatter-gather: {:.2}x the single-shard point scans, latency {:.2}x",
            sharded.points_scanned as f64 / single.points_scanned.max(1) as f64,
            per_layout[1].2 / per_layout[0].2,
        );
        if smoke {
            assert_eq!(single.shards_pruned, 0, "single shard has nothing to prune");
            assert!(
                sharded.shards_pruned > 0,
                "clustered kNN against a 4×4 grid must prune far shards"
            );
            assert!(
                sharded.points_scanned <= single.points_scanned,
                "sharded layout must not regress point-scan work on a \
                 pruning-sensitive workload: {} > {}",
                sharded.points_scanned,
                single.points_scanned
            );
        }
    }

    // 2. Burst confinement: corner burst rebuilds vs far-corner queries.
    {
        let extent = workloads::extent();
        let far = Point::anonymous(
            extent.min_x + extent.width() * 0.875,
            extent.min_y + extent.height() * 0.875,
        );
        let far_specs = query_batch(queries, far);
        let mut rebuild_work: Vec<(&str, u64, u64, f64, f64)> = Vec::new();
        for (label, sharding) in layouts() {
            let pool = WorkerPool::new(threads);
            let db = {
                let mut db = Database::with_pool_and_store_config(
                    Arc::clone(&pool),
                    StoreConfig {
                        compaction_threshold: burst as usize, // every burst rebuilds
                        sharding,
                        ..StoreConfig::default()
                    },
                );
                db.register("Objects", workloads::berlin_relation(points, 422));
                db
            };
            let quiesce = |db: &Database| {
                while db.relation("Objects").unwrap().delta_len() > 0 {
                    db.compact_now("Objects").unwrap();
                    std::thread::yield_now();
                }
            };
            let mut group =
                BenchGroup::new(&format!("shard_burst_confinement_{label}")).sample_size(5);
            // Settle the first (insert) round before measuring, so every
            // sample is a move burst of constant size.
            let mut round = 0u64;
            db.ingest("Objects", &corner_burst(burst, round)).unwrap();
            quiesce(&db);
            let quiet = group.bench("far_batch_quiescent", || db.execute_batch(&far_specs));
            let before = db.store_metrics();
            let during = group.bench("far_batch_during_burst_rebuild", || {
                round += 1;
                db.ingest("Objects", &corner_burst(burst, round)).unwrap();
                let out = db.execute_batch(&far_specs);
                quiesce(&db);
                out
            });
            let after = db.store_metrics();
            let gathered = after.points_scanned - before.points_scanned;
            let rebuilds = after.shards_compacted - before.shards_compacted;
            println!(
                "{label}: far batch during rebuild {:.1} ms vs quiescent {:.1} ms \
                 ({:.2}x), {rebuilds} shard rebuild(s) gathering {gathered} points",
                during.median_ms,
                quiet.median_ms,
                during.median_ms / quiet.median_ms,
            );
            rebuild_work.push((label, gathered, rebuilds, during.median_ms, quiet.median_ms));
        }
        let (single, sharded) = (&rebuild_work[0], &rebuild_work[1]);
        println!(
            "confinement: sharded rebuilds gathered {} points vs single-shard {} \
             ({:.1}% of the full-relation work)",
            sharded.1,
            single.1,
            100.0 * sharded.1 as f64 / single.1.max(1) as f64,
        );
        if smoke {
            assert!(sharded.2 >= 1, "the corner burst must rebuild its shard");
            assert!(
                sharded.1 < single.1,
                "per-shard rebuilds must gather strictly less than full-relation \
                 rebuilds: {} >= {}",
                sharded.1,
                single.1
            );
        }
    }
}
