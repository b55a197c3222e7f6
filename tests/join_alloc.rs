//! Allocation accounting for pooled kNN-joins and the two-join plans built
//! on them.
//!
//! A join keeps nothing per outer point: every neighborhood has exactly
//! `min(k, |inner|)` members, so each outer block writes its points'
//! neighborhoods into its share of one buffer the calling thread sizes
//! before the phase runs, and the calling thread turns them into rows. So
//! once the threads' scratch has warmed up, a join allocates O(outer
//! blocks) — not O(outer points) — on pools of one and two, and no
//! allocation of the worker outlives its block. That is what keeps a worker
//! thread's malloc arena, and with it the process's peak RSS, from growing
//! with the relations it joins.
//!
//! The two-join plans keep the same budget. Unchained Block-Marking groups
//! the first join's outer points by matched `b` in one flat layout and
//! writes its triplets into shares counted from those groups, and the
//! chained nested join writes its rows one `A` block per share, so neither
//! allocates per distinct matched `b`. This pins it all with a counting
//! `#[global_allocator]` wrapper (an integration test is its own crate, so
//! the two `unsafe` trampolines below — plain delegation to `System` — are
//! fine despite the library forbidding `unsafe`).
//!
//! The counter is process-global and counts every thread, the pool's worker
//! included, so every check runs inside the single `#[test]` below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use two_knn::core::join::knn_join;
use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{
    compile, ChainedStrategy, Database, QueryResult, QuerySpec, Strategy, UnchainedStrategy,
};
use two_knn::core::ExecutionMode;
use two_knn::{GridIndex, PackedIndex, Point, QueryOutput, SpatialIndex, WorkerPool};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// [`System`] with an allocation counter in front.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn relation(n: u64, seed: u64) -> PackedIndex {
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let h =
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            Point::new(
                i,
                (h % 100_000) as f64 * 0.01,
                ((h >> 20) % 100_000) as f64 * 0.01,
            )
        })
        .collect();
    GridIndex::build_with_target_occupancy(pts, 64).unwrap()
}

fn occupied_blocks(index: &PackedIndex) -> usize {
    index.blocks().iter().filter(|b| b.count > 0).count()
}

/// Runs `op` twice on `pool` and returns the second, warm run's result and
/// the allocations it made.
fn warm<T: PartialEq + std::fmt::Debug>(
    pool: &WorkerPool,
    op: impl Fn() -> QueryOutput<T>,
) -> (QueryOutput<T>, u64) {
    let first = pool.bind(&op);
    let before = allocations();
    let again = pool.bind(&op);
    let allocs = allocations() - before;
    assert_eq!(again.rows, first.rows);
    (again, allocs)
}

/// The single test: the kNN-join, then the two-join plans.
#[test]
fn a_warm_join_allocates_per_outer_block_not_per_outer_point() {
    let outer = relation(6_000, 1);
    let inner = relation(8_000, 2);
    let k = 4;
    let blocks = occupied_blocks(&outer);
    let points = outer.num_points();
    assert!(
        points >= 32 * blocks,
        "sanity: {points} outer points in {blocks} blocks"
    );
    for parallelism in [1, 2] {
        let pool = WorkerPool::new(parallelism);
        let (again, allocs) = warm(&pool, || knn_join(&outer, &inner, k));
        let ctx = format!("pool of {parallelism}");
        assert_eq!(again.len(), points * k, "{ctx}: one pair per neighbor");
        assert!(
            allocs <= blocks as u64,
            "{ctx}: {allocs} allocations for {blocks} outer blocks of {points} points"
        );
    }
    warm_two_join_plans_allocate_per_outer_block_not_per_matched_b();
}

/// Unchained Block-Marking in both orientations and the cached nested
/// chained join, compiled as the planner compiles them and executed warm on
/// pools of one and two: at most one allocation per occupied block of the
/// outer relations, where a plan that kept a list per matched `b` makes one
/// per distinct `b` — thousands here.
fn warm_two_join_plans_allocate_per_outer_block_not_per_matched_b() {
    let (a, b, c) = (relation(6_000, 3), relation(8_000, 4), relation(6_000, 5));
    let a_blocks = occupied_blocks(&a);
    let outer_blocks = a_blocks + occupied_blocks(&c);
    let mut db = Database::new();
    for (name, relation) in [("A", a), ("B", b), ("C", c)] {
        db.register(name, relation);
    }
    let unchained = QuerySpec::UnchainedJoins {
        a: "A".into(),
        b: "B".into(),
        c: "C".into(),
        query: UnchainedJoinQuery::new(2, 2),
    };
    let chained = QuerySpec::ChainedJoins {
        a: "A".into(),
        b: "B".into(),
        c: "C".into(),
        query: ChainedJoinQuery::new(2, 2),
    };
    let cached = Strategy::Chained(ChainedStrategy::NestedJoinCached);
    let a_first = Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA);
    let c_first = Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC);
    let plans = [
        (&unchained, a_first, outer_blocks),
        (&unchained, c_first, outer_blocks),
        (&chained, cached, a_blocks),
    ];
    for parallelism in [1, 2] {
        let pool = WorkerPool::new(parallelism);
        for &(spec, strategy, blocks) in &plans {
            let plan = compile(&db.snapshot(), spec, strategy).unwrap();
            let (out, allocs) = warm(&pool, || {
                match plan.execute(ExecutionMode::default_mode()) {
                    QueryResult::Triplets { output, .. } => output,
                    _ => unreachable!("two-join plans emit triplets"),
                }
            });
            let ctx = format!("{strategy}, pool of {parallelism}");
            assert!(out.len() > blocks, "{ctx}: sanity, {} rows", out.len());
            if strategy == cached {
                let misses = out.metrics.cache_misses;
                assert!(misses > 2 * blocks as u64, "{ctx}: {misses} distinct b");
            }
            assert!(
                allocs <= blocks as u64,
                "{ctx}: {allocs} allocations for {blocks} outer blocks"
            );
        }
    }
}
