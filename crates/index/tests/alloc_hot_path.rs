//! Allocation accounting on the select hot path.
//!
//! Once a thread's [`ScratchSpace`](twoknn_index::ScratchSpace) has warmed
//! up, `get_knn` allocates nothing beyond the returned [`Neighborhood`]s,
//! and a [`BlockKnn`] prepared per outer block and queried per point into a
//! caller-owned members slice, or a block-distance cursor — the
//! per-outer-point scan of the Counting algorithm — allocates nothing at
//! all, on an index with as many blocks as the benchmark's large relations. This test pins that with a counting
//! `#[global_allocator]` wrapper: the library itself forbids `unsafe`, but an
//! integration test is its own crate, so the two `unsafe` trampolines below
//! (plain delegation to the `System` allocator) are fine here.
//!
//! The counter is process-global, so every check runs inside the single
//! `#[test]` below — Rust runs tests in one process, and a second test's
//! allocations would race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use twoknn_geometry::{Point, Predicate, Rect};
use twoknn_index::{
    get_knn, get_knn_bounded, get_knn_filtered, with_thread_scratch, BlockKnn, GridIndex, Metrics,
    Neighbor, Neighborhood, PackedIndex, SpatialIndex,
};

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

fn relation(n: u64) -> PackedIndex {
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            Point::new(
                i,
                (h % 100_000) as f64 * 0.01,
                ((h >> 20) % 100_000) as f64 * 0.01,
            )
        })
        .collect();
    // 125 × 125 = 15 625 blocks, the block count of a 1 M-point relation.
    GridIndex::build(pts, 125).unwrap()
}

/// Allocations of `queries` warm kNN calls through `run`, after a warm-up
/// sweep over the same query set has grown the thread scratch to its working
/// set.
fn warm_allocations(
    queries: &[Point],
    mut run: impl FnMut(&Point) -> Neighborhood,
) -> (u64, usize) {
    for q in queries {
        std::hint::black_box(run(q));
    }
    let before = allocations();
    let mut total_members = 0;
    for q in queries {
        total_members += std::hint::black_box(run(q)).len();
    }
    (allocations() - before, total_members)
}

#[test]
fn warm_knn_queries_allocate_only_the_returned_neighborhood() {
    let index = relation(100_000);
    assert_eq!(index.num_blocks(), 15_625);
    let k = 12;
    let queries: Vec<Point> = (0..64)
        .map(|i| Point::anonymous((i * 17 % 1000) as f64, (i * 31 % 1000) as f64))
        .collect();

    // The batched walk on the thread scratch: the worst case is one Vec per
    // returned Neighborhood (members buffer) — `from_unsorted` may
    // shrink/reallocate, so allow 2 per query.
    let mut metrics = Metrics::default();
    let (allocs, members) = warm_allocations(&queries, |q| get_knn(&index, q, k, &mut metrics));
    assert_eq!(members, k * queries.len(), "sanity: full neighborhoods");
    assert!(
        allocs <= 2 * queries.len() as u64,
        "plain path: {allocs} allocations for {} warm queries \
         (> 2 per returned neighborhood)",
        queries.len()
    );

    // Bounded variant shares the same scratch and the same guarantee.
    let (allocs, _) = warm_allocations(&queries, |q| {
        get_knn_bounded(&index, q, k, 1e6, &mut metrics)
    });
    assert!(
        allocs <= 2 * queries.len() as u64,
        "bounded path: {allocs} allocations for {} warm queries",
        queries.len()
    );

    // Filtered kernel: the predicate mask lives in the scratch too, so
    // pre-kNN filter pushdown keeps the same guarantee.
    let predicate = Predicate::And(vec![
        Predicate::InRect(Rect::new(0.0, 0.0, 1000.0, 1000.0)),
        Predicate::IdRange { lo: 0, hi: 75_000 },
    ]);
    let (allocs, _) = warm_allocations(&queries, |q| {
        get_knn_filtered(&index, q, k, &predicate, &mut metrics)
    });
    assert!(
        allocs <= 2 * queries.len() as u64,
        "filtered path: {allocs} allocations for {} warm queries",
        queries.len()
    );

    // Procedure 1's scan: a MAXDIST cursor on the thread's scratch, drained
    // until a block reaches the search threshold. Nothing is returned, so a
    // warm scan allocates nothing.
    let count_within = |q: &Point, threshold: f64| -> usize {
        with_thread_scratch(|scratch| {
            index
                .maxdist_order(q, scratch)
                .take_while(|ob| ob.distance < threshold)
                .map(|ob| ob.block.count)
                .sum()
        })
    };
    let mut counted = 0;
    for q in &queries {
        counted += count_within(q, 60.0);
    }
    let before = allocations();
    for q in &queries {
        counted += count_within(q, 60.0);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a warm MAXDIST scan to a threshold must not allocate"
    );
    assert!(counted > 0, "the scans reached populated blocks");

    // One locality per outer block: a `BlockKnn` takes its candidate list
    // from the thread scratch and hands it back when dropped, queries run on
    // the scratch's heap and distance buffer, and each point's members go
    // into the caller's slice. Once a sweep has grown the scratch to the
    // largest block's working set, preparing each block and querying its
    // points allocates nothing.
    let outer_blocks: Vec<Vec<Point>> = (0..16u64)
        .map(|b| {
            let (x0, y0) = ((b * 61 % 990) as f64, (b * 137 % 990) as f64);
            (0..24u64)
                .map(|i| Point::new(i, x0 + (i % 5) as f64 * 2.1, y0 + (i / 5) as f64 * 1.7))
                .collect()
        })
        .collect();
    let mut hood = vec![Neighbor::UNSET; k];
    let mut run_block = |points: &[Point]| -> usize {
        let region = Rect::bounding(points).unwrap();
        let mut knn = BlockKnn::prepare(&index, &region, k, &mut metrics);
        for p in points {
            knn.get(p, &mut hood, &mut metrics);
            std::hint::black_box(&hood);
        }
        points.len() * knn.neighborhood_len()
    };
    for block in &outer_blocks {
        run_block(block);
    }
    let before = allocations();
    let members: usize = outer_blocks.iter().map(|b| run_block(b)).sum();
    let allocs = allocations() - before;
    let hoods = outer_blocks.iter().map(Vec::len).sum::<usize>();
    assert_eq!(members, k * hoods, "sanity: full neighborhoods");
    assert_eq!(
        allocs,
        0,
        "block path: {allocs} allocations for {} warm blocks and {hoods} neighborhoods",
        outer_blocks.len()
    );

    // Every path stayed on the same index and really did the work.
    assert!(index.num_points() == 100_000 && metrics.neighborhoods_computed > 0);
}
