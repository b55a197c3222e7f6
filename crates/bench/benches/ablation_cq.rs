//! Ablation A6: incremental continuous-query maintenance vs naive
//! re-run-all-subscriptions.
//!
//! A moving-objects relation carries a sweep of standing 2-kNN-select
//! subscriptions whose focal points are spread across the extent. Each
//! sample publishes one **localized** write batch (fresh inserts clustered
//! within ~2% of the extent) and waits for maintenance to finish
//! ([`WorkerPool::wait_idle`]). Two maintainer policies are compared at
//! each subscription count:
//!
//! * `guarded` — the guard registry prunes: only subscriptions whose focal
//!   circles the burst intersects re-evaluate, the rest are counted as
//!   `cq_skips`;
//! * `reeval_all` — the naive baseline: every subscription re-runs its
//!   query on every publish.
//!
//! The printed ratio is the headline number: with localized writes the
//! guarded maintainer's per-batch latency must scale with the handful of
//! affected subscriptions, not with the registered population.
//!
//! Usage: `cargo bench -p twoknn-bench --bench
//! ablation_cq -- [--points N] [--threads N] [--smoke]`

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::exec::available_threads;
use twoknn_core::plan::{Database, QuerySpec};
use twoknn_core::selects2::TwoSelectsQuery;
use twoknn_core::store::{StoreConfig, WriteOp};
use twoknn_core::{MaintenancePolicy, WorkerPool};
use twoknn_geometry::Point;

/// One localized burst: `count` fresh inserts packed into ~2% of the
/// extent around the workload's focal region, ids fresh per round.
fn localized_burst(count: u64, round: u64) -> Vec<WriteOp> {
    let extent = workloads::extent();
    let focal = workloads::focal_point();
    let radius = extent.width() * 0.02;
    (0..count)
        .map(|i| {
            let h = (i + round * 7_919).wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                10_000_000 + round * 100_000 + i,
                focal.x - radius + (h % 4_000) as f64 * (radius / 2_000.0),
                focal.y - radius + ((h / 4_000) % 4_000) as f64 * (radius / 2_000.0),
            ))
        })
        .collect()
}

/// `count` standing 2-kNN-select queries with focal points spread over the
/// whole extent on a deterministic low-discrepancy-ish lattice.
fn subscriptions(count: usize) -> Vec<QuerySpec> {
    let extent = workloads::extent();
    (0..count)
        .map(|s| {
            let fx = extent.min_x + ((s * 37 + 11) % 101) as f64 / 101.0 * extent.width();
            let fy = extent.min_y + ((s * 61 + 29) % 103) as f64 / 103.0 * extent.height();
            QuerySpec::TwoSelects {
                relation: "Objects".into(),
                query: TwoSelectsQuery::new(
                    4,
                    Point::anonymous(fx, fy),
                    8,
                    Point::anonymous(fx + extent.width() * 0.004, fy + extent.height() * 0.004),
                ),
            }
        })
        .collect()
}

fn main() {
    let mut points = 120_000usize;
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
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(threads);
            }
            // CI-sized run: small relation and subscription sweep, both
            // policies still exercised.
            "--smoke" => {
                points = 20_000;
                smoke = true;
            }
            // Ignore harness flags cargo bench forwards (e.g. --bench).
            _ => {}
        }
        i += 1;
    }
    let burst = 256u64;
    let sub_counts: &[usize] = if smoke { &[50, 200] } else { &[100, 1_000] };
    println!(
        "ablation_cq: {points} points, {burst}-op localized bursts, subscriptions sweep \
         {sub_counts:?}, {threads}-thread pool",
    );

    for &num_subs in sub_counts {
        let mut group = BenchGroup::new(&format!("cq_maintenance_{num_subs}_subs")).sample_size(5);
        let mut medians = [0.0f64; 2];
        for (slot, (label, policy)) in [
            ("guarded", MaintenancePolicy::Guarded),
            ("reeval_all", MaintenancePolicy::ReevalAll),
        ]
        .into_iter()
        .enumerate()
        {
            let pool = WorkerPool::new(threads);
            // Compaction disabled: the measurement isolates maintenance
            // cost (probe + re-evaluations), not index rebuilds.
            let mut db = Database::with_pool_and_store_config(
                pool,
                StoreConfig {
                    compaction_threshold: usize::MAX,
                    ..StoreConfig::default()
                },
            );
            db.register("Objects", workloads::berlin_relation(points, 401));
            let db = db;
            db.set_cq_policy(policy);
            for spec in subscriptions(num_subs) {
                db.subscribe(&spec, None).expect("subscribe");
            }
            db.pool().wait_idle();
            let before = db.store_metrics();
            let mut round = 0u64;
            let stat = group.bench(label, || {
                round += 1;
                db.ingest("Objects", &localized_burst(burst, round))
                    .expect("ingest");
                db.pool().wait_idle();
            });
            medians[slot] = stat.median_ms;
            let m = db.store_metrics();
            let batches = round.max(1);
            println!(
                "subs {num_subs} {label}: {:.2} ms/batch median, {:.1} reevals + {:.1} skips \
                 per batch",
                stat.median_ms,
                (m.cq_reevals - before.cq_reevals) as f64 / batches as f64,
                (m.cq_skips - before.cq_skips) as f64 / batches as f64,
            );
        }
        println!(
            "subs {num_subs}: naive re-run-all is {:.1}x the guarded maintainer's batch latency",
            medians[1] / medians[0].max(1e-9),
        );
    }
}
