//! Ablation A5: the cost of versioned storage.
//!
//! Three measurements over a BerlinMOD-like moving-objects relation:
//!
//! 1. **Delta-overlay read overhead** — the same query batch against a
//!    snapshot carrying a delta overlay (tombstoned blocks + partitioned
//!    overlay blocks) vs against the freshly compacted base. The overlay is
//!    the price of never blocking readers on writers; compaction pays it
//!    down.
//! 2. **Concurrent background rebuild** — query-batch latency while a
//!    compaction of the whole base runs on the shared worker pool, compared
//!    with the idle baseline (and with the ingest burst alone, so the
//!    rebuild's interference can be read off the difference). On a 1-thread
//!    pool the rebuild runs inline in `ingest`, so "during" collapses to
//!    ingest + rebuild + batch — the degraded but deterministic mode CI pins.
//! 3. **Burst pruning: single-block vs partitioned overlay** — a clustered
//!    insert burst of growing size with compaction disabled, queried with
//!    the same batch under a fanout-1 overlay (the old single giant block)
//!    and the default overlay grid. Reports query latency, per-kNN block
//!    and point scan counts, and the pruned fraction (share of the
//!    relation's points a kNN avoided touching — a common-denominator
//!    number, since both configs index identical data), the quantity the
//!    single-block overlay erodes as the burst grows.
//!
//! Usage: `cargo bench -p twoknn-bench --bench
//! ablation_ingest -- [--points N] [--queries N] [--threads N] [--smoke]`

use std::sync::Arc;

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::exec::available_threads;
use twoknn_core::plan::{Database, QuerySpec};
use twoknn_core::selects2::TwoSelectsQuery;
use twoknn_core::store::{OverlayConfig, StoreConfig, WriteOp};
use twoknn_core::WorkerPool;
use twoknn_geometry::Point;
use twoknn_index::{Metrics, SpatialIndex};

/// A burst of upserts that move `count` existing objects to new positions.
fn move_burst(count: u64, round: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    (0..count)
        .map(|i| {
            let h = (i * 0x9E3779B9 + round * 0x85EBCA6B) % 1_000_000;
            WriteOp::Upsert(Point::new(
                i * 13 % 20_011, // existing ids: moves, not inserts
                extent.min_x + (h % 1_000) as f64 * (extent.width() / 1_000.0),
                extent.min_y + ((h / 1_000) % 1_000) as f64 * (extent.height() / 1_000.0),
            ))
        })
        .collect()
}

/// A burst of `count` **fresh** inserts clustered within ~2% of the extent
/// around the query batch's focal region — the hot-region write burst that
/// used to collapse MINDIST pruning into one giant overlay block.
fn clustered_insert_burst(count: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    let focal = workloads::focal_point();
    let radius = extent.width() * 0.02;
    (0..count)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                1_000_000 + i, // fresh ids: inserts, not moves
                focal.x - radius + (h % 4_000) as f64 * (radius / 2_000.0),
                focal.y - radius + ((h / 4_000) % 4_000) as f64 * (radius / 2_000.0),
            ))
        })
        .collect()
}

fn query_batch(queries: usize) -> Vec<QuerySpec> {
    let focal = workloads::focal_point();
    (0..queries)
        .map(|q| {
            let offset = (q % 97) as f64 * 53.0;
            QuerySpec::TwoSelects {
                relation: "Objects".into(),
                query: TwoSelectsQuery::new(
                    4,
                    Point::anonymous(focal.x + offset, focal.y - offset),
                    16,
                    Point::anonymous(focal.x - offset, focal.y + offset),
                ),
            }
        })
        .collect()
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
            // CI-sized run: small relation and batch, every measurement
            // still exercised (including the overlay-pruning sweep).
            "--smoke" => {
                points = 20_000;
                queries = 64;
                smoke = true;
            }
            // Ignore harness flags cargo bench forwards (e.g. --bench).
            _ => {}
        }
        i += 1;
    }
    let burst = 2_000u64.min(points as u64 / 4);
    println!(
        "ablation_ingest: {points} points, {queries} batch queries, {burst}-op ingest bursts, \
         {threads}-thread pool",
    );
    let specs = query_batch(queries);

    // 1. Delta-overlay read overhead vs a freshly compacted snapshot.
    {
        let pool = WorkerPool::new(threads);
        // Compaction only on demand: the delta must survive the measurement.
        let mut db = Database::with_pool_and_store_config(
            pool,
            StoreConfig {
                compaction_threshold: usize::MAX,
                ..StoreConfig::default()
            },
        );
        db.register("Objects", workloads::berlin_relation(points, 311));
        db.ingest("Objects", &move_burst(burst, 1)).unwrap();
        let delta_len = db.relation("Objects").unwrap().delta_len();

        let mut group = BenchGroup::new("ingest_overlay_read_overhead").sample_size(5);
        let overlay = group.bench(&format!("delta_overlay_{delta_len}_ops"), || {
            db.execute_batch(&specs)
        });
        db.compact_now("Objects").unwrap();
        assert_eq!(db.relation("Objects").unwrap().delta_len(), 0);
        let compacted = group.bench("freshly_compacted", || db.execute_batch(&specs));
        println!(
            "overlay read overhead: {:.2}x vs compacted snapshot \
             (overlay {:.1} ms -> compacted {:.1} ms, {delta_len} delta ops)",
            overlay.median_ms / compacted.median_ms,
            overlay.median_ms,
            compacted.median_ms
        );
    }

    // 2. Query latency with a concurrent background rebuild.
    {
        let pool = WorkerPool::new(threads);
        // Every burst crosses the threshold, so each sample schedules a
        // fresh rebuild of the whole base on the pool.
        let db = {
            let mut db = Database::with_pool_and_store_config(
                Arc::clone(&pool),
                StoreConfig {
                    compaction_threshold: burst as usize,
                    ..StoreConfig::default()
                },
            );
            db.register("Objects", workloads::berlin_relation(points, 312));
            db
        };
        let quiesce = |db: &Database| {
            while db.relation("Objects").unwrap().delta_len() > 0 {
                db.compact_now("Objects").unwrap();
                std::thread::yield_now();
            }
        };

        let mut group = BenchGroup::new("ingest_concurrent_rebuild").sample_size(5);
        quiesce(&db);
        let idle = group.bench("batch_idle", || db.execute_batch(&specs));
        let mut round = 0u64;
        let ingest_only = group.bench("ingest_burst_alone", || {
            round += 1;
            db.ingest("Objects", &move_burst(burst, round)).unwrap();
            quiesce(&db);
        });
        quiesce(&db);
        let during = group.bench("ingest_then_batch_during_rebuild", || {
            round += 1;
            // Crossing the threshold schedules the rebuild; the batch runs
            // while a worker rebuilds the base.
            db.ingest("Objects", &move_burst(burst, round)).unwrap();
            let out = db.execute_batch(&specs);
            quiesce(&db);
            out
        });
        println!(
            "batch during rebuild: {:.1} ms vs idle {:.1} ms + ingest/rebuild {:.1} ms \
             (interference ratio {:.2}x, compactions so far: {})",
            during.median_ms,
            idle.median_ms,
            ingest_only.median_ms,
            during.median_ms / (idle.median_ms + ingest_only.median_ms),
            db.store_metrics().compactions
        );
    }

    // 3. MINDIST pruning under write bursts: the old single-block overlay
    //    (fanout cap 1) vs the partitioned overlay grid, across burst sizes.
    {
        let burst_sizes: &[u64] = if smoke {
            &[1_000, 4_000]
        } else {
            &[2_000, 8_000, 32_000]
        };
        let overlays = [
            (
                "single_block",
                OverlayConfig {
                    max_cells_per_axis: 1,
                    ..OverlayConfig::default()
                },
            ),
            ("grid", OverlayConfig::default()),
        ];
        for &burst_size in burst_sizes {
            let mut group =
                BenchGroup::new(&format!("ingest_burst_pruning_{burst_size}")).sample_size(5);
            for (label, overlay) in overlays {
                let pool = WorkerPool::new(threads);
                // Compaction disabled: the whole burst stays in the overlay.
                let mut db = Database::with_pool_and_store_config(
                    pool,
                    StoreConfig {
                        compaction_threshold: usize::MAX,
                        overlay,
                        ..StoreConfig::default()
                    },
                );
                db.register("Objects", workloads::berlin_relation(points, 313));
                db.ingest("Objects", &clustered_insert_burst(burst_size))
                    .unwrap();
                let snap = db.relation("Objects").unwrap();
                let stat = group.bench(label, || db.execute_batch(&specs));
                let work: Metrics = db
                    .execute_batch(&specs)
                    .into_iter()
                    .map(|r| r.expect("burst batch query").metrics())
                    .fold(Metrics::default(), |acc, m| acc + m);
                // Share of the relation's points a kNN avoided touching —
                // the two configs index the identical data, so this
                // denominator is common and the fractions are directly
                // comparable (a per-config block count would not be: the
                // single-block overlay has far fewer, bigger blocks).
                let pruned_fraction = 1.0
                    - work.points_scanned as f64
                        / (work.neighborhoods_computed * snap.num_points() as u64).max(1) as f64;
                let knn = work.neighborhoods_computed.max(1);
                println!(
                    "burst {burst_size} {label}: pruned-point fraction {pruned_fraction:.4}, \
                     {} overlay block(s), {:.1} blocks / {:.0} points scanned per kNN, \
                     median {:.1} ms",
                    snap.overlay_block_count(),
                    work.blocks_scanned as f64 / knn as f64,
                    work.points_scanned as f64 / knn as f64,
                    stat.median_ms,
                );
            }
        }
    }
}
