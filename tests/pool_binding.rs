//! `Database` runs every join on its own [`WorkerPool`]: through
//! `Database::execute` on a pool of one, every work item runs on the calling
//! thread; on a pool of two, the pool's one worker shares the work, and the
//! lazily created global pool is never started.
//!
//! The observables are the process's threads: pool workers are named
//! `twoknn-pool-<n>` (the global pool's as well as any other pool's), and
//! `/proc` reports each thread's CPU time. Anything else starting a pool in
//! this process would spoil the counts, so this binary holds the single test
//! below.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::Arc;

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{compile, Database, QueryResult, QuerySpec};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::ExecutionMode;
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::{GridIndex, Point, WorkerPool};

/// Thread ids of the process's pool workers.
fn pool_threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().to_str()?.parse::<u64>().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with("twoknn-pool-").then_some(tid)
        })
        .collect()
}

/// Nanoseconds thread `tid` of this process has spent on a CPU.
fn cpu_ns(tid: u64) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .expect("the kernel reports per-thread schedstat")
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .expect("schedstat starts with the thread's CPU time")
}

fn database(pool: Arc<WorkerPool>) -> Database {
    let mut db = Database::with_pool(pool);
    for (name, n, seed) in [("A", 1_500, 61), ("B", 2_000, 62), ("C", 1_500, 63)] {
        let points = berlinmod(&BerlinModConfig::with_points(n, seed));
        db.register(
            name,
            GridIndex::build_with_target_occupancy(points, 32).unwrap(),
        );
    }
    db
}

/// One spec of each join shape.
fn joins() -> Vec<QuerySpec> {
    let focal = Point::anonymous(52_000.0, 49_000.0);
    let (a, b, c) = ("A".to_string(), "B".to_string(), "C".to_string());
    vec![
        QuerySpec::SelectInnerOfJoin {
            outer: a.clone(),
            inner: b.clone(),
            query: SelectInnerJoinQuery::new(3, 12, focal),
        },
        QuerySpec::SelectOuterOfJoin {
            outer: a.clone(),
            inner: b.clone(),
            query: SelectOuterJoinQuery::new(3, 400, focal),
        },
        QuerySpec::UnchainedJoins {
            a: a.clone(),
            b: b.clone(),
            c: c.clone(),
            query: UnchainedJoinQuery::new(2, 3),
        },
        QuerySpec::ChainedJoins {
            a,
            b,
            c,
            query: ChainedJoinQuery::new(3, 2),
        },
    ]
}

/// Executes every join through `Database::execute` and holds it to the run
/// of the same strategy on a pool of one: same rows, same order, same
/// counters. The reference binds its pool: an unbound run would start the
/// global pool.
fn execute_joins(db: &Database) {
    for spec in joins() {
        let result = db.execute(&spec).unwrap();
        let serial: QueryResult = WorkerPool::new(1).bind(|| {
            compile(&db.snapshot(), &spec, result.strategy())
                .unwrap()
                .execute(ExecutionMode::default_mode())
        });
        assert_eq!(result.rows(), serial.rows(), "{spec:?}");
        assert_eq!(result.metrics(), serial.metrics(), "{spec:?}");
        assert!(result.num_rows() > 0, "{spec:?}");
    }
}

#[test]
fn joins_run_on_the_database_pool_and_never_start_the_global_pool() {
    assert!(pool_threads().is_empty(), "no pool has started yet");

    // A pool of one has no worker thread: every work item of every join
    // runs on the calling thread, and no other pool starts one.
    let single = database(WorkerPool::new(1));
    execute_joins(&single);
    assert!(
        pool_threads().is_empty(),
        "a join on a pool of one started pool threads {:?}",
        pool_threads()
    );

    // A pool of two: start its one worker (the barrier holds the caller
    // until the worker runs its copy), then run the joins. The worker does
    // part of the work, and no thread of another pool appears.
    let pair = database(WorkerPool::new(2));
    let both = std::sync::Barrier::new(2);
    pair.pool().broadcast(1, &|| {
        both.wait();
    });
    let workers = pool_threads();
    assert_eq!(workers.len(), 1, "the pool of two has one worker");
    let worker = *workers.first().unwrap();
    let before = cpu_ns(worker);
    for _ in 0..3 {
        execute_joins(&pair);
    }
    let worked = cpu_ns(worker) - before;
    assert_eq!(
        pool_threads(),
        workers,
        "the joins started threads of another pool"
    );
    assert!(
        worked >= 1_000_000,
        "the pool's worker ran for {worked} ns of the joins"
    );
}
