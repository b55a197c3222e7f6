//! Allocation accounting for the observability layer.
//!
//! The tracing gate promises that with tracing **off**, the query hot path
//! pays one timestamp pair and a few relaxed atomics — no allocations from
//! the instrumentation. This pins it with a counting `#[global_allocator]`
//! wrapper (an integration test is its own crate, so the two `unsafe`
//! trampolines below — plain delegation to `System` — are fine despite the
//! library forbidding `unsafe`).
//!
//! The counter is per thread: each test counts what its own thread
//! allocates, so the test harness spawning and reporting the other tests
//! never lands in a window. Everything counted here runs on the calling
//! thread (a kNN select does not fan out to the pool's workers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use two_knn::core::plan::Database;
use two_knn::core::{HistogramKind, Observability};
use two_knn::{GridIndex, Point};

thread_local! {
    /// Allocations made by this thread. `const`-initialized with no
    /// destructor, so the allocator can touch it at any point of the
    /// thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] with a per-thread allocation counter in front.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_tracing_adds_no_allocations_to_the_hot_path() {
    // 1. The registry record path — what every query pays unconditionally —
    //    is allocation-free.
    let obs = Observability::default();
    obs.record(HistogramKind::QueryExec, Duration::from_micros(3)); // warm
    let before = allocations();
    for i in 0..1_000u64 {
        obs.record(HistogramKind::QueryExec, Duration::from_nanos(i * 37));
        std::hint::black_box(obs.trace_enabled());
    }
    assert_eq!(
        allocations() - before,
        0,
        "histogram record / trace gate allocated on the hot path"
    );

    // 2. End to end: warm queries through the Database allocate the same
    //    with the observability layer as a steady state — no per-query
    //    drift from instrumentation (tracing off by default).
    let pts: Vec<Point> = (0..5_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            Point::new(i, (h % 999) as f64 * 0.1, ((h >> 16) % 999) as f64 * 0.1)
        })
        .collect();
    let mut db = Database::new();
    db.register("Objects", GridIndex::build(pts, 16).unwrap());
    let spec = db.parse_query("FIND Objects WHERE KNN(8, 50, 50)").unwrap();
    assert!(!db.tracing_enabled());

    let window = |db: &Database| {
        for _ in 0..32 {
            std::hint::black_box(db.execute(&spec).unwrap());
        }
    };
    window(&db); // warm-up: thread scratch, profile memo, snapshot caches
    let start = allocations();
    window(&db);
    let untraced = allocations() - start;
    let start = allocations();
    window(&db);
    let untraced_again = allocations() - start;
    assert!(
        untraced_again <= untraced,
        "untraced steady state drifts: {untraced} then {untraced_again}"
    );

    // 3. Turning tracing on is what costs: the traced window allocates
    //    strictly more (OpTrace nodes, labels, retention) — evidence the
    //    disabled path really skips that work.
    db.set_tracing(true);
    window(&db); // warm the trace ring
    let start = allocations();
    window(&db);
    let traced = allocations() - start;
    assert!(
        traced > untraced_again,
        "traced window ({traced}) should allocate more than untraced ({untraced_again})"
    );
}

/// The most allocations any one of 16 warm calls of `op` makes.
fn max_allocations_per_call(mut op: impl FnMut()) -> u64 {
    for _ in 0..8 {
        op(); // warm-up: thread scratch, profile memo, snapshot caches
    }
    (0..16)
        .map(|_| {
            let start = allocations();
            op();
            allocations() - start
        })
        .max()
        .unwrap_or(0)
}

/// A textual read pays for its answer, not for its text or the catalog.
/// The front end used to allocate per token (an owned token vector, a
/// `String` per identifier, an upper-cased copy per keyword test, a token
/// clone per `peek`) and every query cloned the whole catalog's names into
/// its snapshot. Counted before the borrowing lexer and the pin by name
/// (release build; a debug build added 4 to each from a `debug_assert`):
/// `parse_query` 19 allocations, `query(..).rows()` 25 on a one-relation
/// catalog and 27 on a three-relation one. Now `parse_query` keeps one (the
/// relation name the spec owns) and the read's count does not grow with
/// the catalog.
#[test]
fn a_textual_read_allocates_a_fixed_handful() {
    let text = "FIND Vehicles WHERE KNN(8, 45.5, 50)";
    let parse = max_allocations_per_call(|| {
        std::hint::black_box(two_knn::core::plan::lang::parse_query(text).unwrap());
    });
    assert!(parse <= 2, "parse_query allocated {parse} times");

    let cloud = |offset: u64| -> Vec<Point> {
        (0..5_000u64)
            .map(|i| {
                let h = (i + offset).wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(i, (h % 999) as f64 * 0.1, ((h >> 16) % 999) as f64 * 0.1)
            })
            .collect()
    };
    let mut db = Database::new();
    db.register("Vehicles", GridIndex::build(cloud(0), 16).unwrap());
    let one = max_allocations_per_call(|| {
        std::hint::black_box(db.query(text).unwrap().rows());
    });
    assert!(
        one <= 7,
        "a read on a one-relation catalog allocated {one} times"
    );
    db.register("Depots", GridIndex::build(cloud(7), 16).unwrap());
    db.register("Sites", GridIndex::build(cloud(13), 16).unwrap());
    let three = max_allocations_per_call(|| {
        std::hint::black_box(db.query(text).unwrap().rows());
    });
    assert!(
        three <= 7,
        "a read on a three-relation catalog allocated {three} times"
    );
}
