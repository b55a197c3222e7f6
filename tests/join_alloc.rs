//! Allocation accounting for a pooled kNN-join.
//!
//! A join keeps nothing per outer point: every neighborhood has exactly
//! `min(k, |inner|)` members, so each outer block writes its points'
//! neighborhoods into its share of one buffer the calling thread sizes
//! before the phase runs, and the calling thread turns them into rows. So
//! once the threads' scratch has warmed up, a join allocates O(outer
//! blocks) — not O(outer points) — on pools of one and two, and no
//! allocation of the worker outlives its block. That is what keeps a worker
//! thread's malloc arena, and with it the process's peak RSS, from growing
//! with the relations it joins. This pins it with a counting
//! `#[global_allocator]` wrapper (an integration test is its own crate, so
//! the two `unsafe` trampolines below — plain delegation to `System` — are
//! fine despite the library forbidding `unsafe`).
//!
//! The counter is process-global and counts every thread, the pool's worker
//! included, so every check runs inside the single `#[test]` below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use two_knn::core::join::knn_join;
use two_knn::{GridIndex, PackedIndex, Point, SpatialIndex, WorkerPool};

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

#[test]
fn a_warm_join_allocates_per_outer_block_not_per_outer_point() {
    let outer = relation(6_000, 1);
    let inner = relation(8_000, 2);
    let k = 4;
    let blocks = outer.blocks().iter().filter(|b| b.count > 0).count();
    let points = outer.num_points();
    assert!(
        points >= 32 * blocks,
        "sanity: {points} outer points in {blocks} blocks"
    );
    for parallelism in [1, 2] {
        let pool = WorkerPool::new(parallelism);
        let join = || pool.bind(|| knn_join(&outer, &inner, k));
        let warm = join();
        let before = allocations();
        let again = join();
        let allocs = allocations() - before;
        let ctx = format!("pool of {parallelism}");
        assert_eq!(again.rows, warm.rows, "{ctx}");
        assert_eq!(again.len(), points * k, "{ctx}: one pair per neighbor");
        assert!(
            allocs <= blocks as u64,
            "{ctx}: {allocs} allocations for {blocks} outer blocks of {points} points"
        );
    }
}
