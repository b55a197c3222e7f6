//! Integration tests of the versioned relation store: catalog determinism,
//! delta-overlay vs rebuilt-index equivalence across all three index
//! families (with the overlay forced into multiple grid cells), snapshot
//! isolation under concurrent ingest with forced compactions, and the
//! burst-pruning regression — a clustered write burst must not defeat
//! MINDIST pruning the way the old single-block overlay did.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use two_knn::core::exec::available_threads;
use two_knn::core::joins2::UnchainedJoinQuery;
use two_knn::core::plan::{
    compile, Database, QuerySpec, Strategy, TwoSelectsStrategy, UnchainedStrategy,
};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{StoreConfig, WriteOp};
use two_knn::core::WorkerPool;
use two_knn::{GridIndex, Point, QuadtreeIndex, Rect, SpatialIndex, StrRTree};

/// Irregular, tie-free point cloud over roughly [0, 110]².
fn scattered(n: usize, id_base: u64, seed: u64) -> Vec<Point> {
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15);
            let x = (h % 100_000) as f64 * 0.0011;
            let y = ((h / 100_000) % 100_000) as f64 * 0.0011;
            Point::new(id_base + i, x, y)
        })
        .collect()
}

/// All result rows as a sorted list of id tuples — the order-insensitive
/// equality the equivalence checks compare on.
fn id_rows(result: &two_knn::core::plan::QueryResult) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = result.rows().iter().map(|r| r.ids()).collect();
    ids.sort_unstable();
    ids
}

// ---------------------------------------------------------------------------
// Catalog determinism + mutation (satellites)
// ---------------------------------------------------------------------------

#[test]
fn relation_names_are_sorted_and_deterministic() {
    // Register in several insertion orders; the reported order must always
    // be the same (sorted), not whatever the hash map happens to produce.
    let orders = [
        ["delta", "alpha", "omega", "beta"],
        ["omega", "beta", "delta", "alpha"],
        ["beta", "omega", "alpha", "delta"],
    ];
    let mut seen: Vec<Vec<String>> = Vec::new();
    for order in orders {
        let mut db = Database::new();
        for name in order {
            db.register(name, GridIndex::build(scattered(40, 0, 11), 4).unwrap());
        }
        seen.push(db.relation_names());
    }
    assert_eq!(seen[0], vec!["alpha", "beta", "delta", "omega"]);
    assert_eq!(seen[0], seen[1]);
    assert_eq!(seen[1], seen[2]);
}

#[test]
fn register_replaces_and_deregister_mutates_the_catalog() {
    let mut db = Database::new();
    assert!(db
        .register("R", GridIndex::build(scattered(50, 0, 1), 4).unwrap())
        .is_none());
    // Replacing returns the replaced relation's last snapshot.
    let replaced = db
        .register("R", GridIndex::build(scattered(80, 0, 2), 4).unwrap())
        .expect("first registration must be returned");
    assert_eq!(replaced.num_points(), 50);
    assert_eq!(db.relation("R").unwrap().num_points(), 80);

    // A query pinned before deregistration keeps working afterwards.
    let spec = QuerySpec::TwoSelects {
        relation: "R".into(),
        query: TwoSelectsQuery::new(
            3,
            Point::anonymous(50.0, 50.0),
            30,
            Point::anonymous(52.0, 52.0),
        ),
    };
    let plan = compile(&db.snapshot(), &spec, db.plan(&spec).unwrap()).unwrap();
    let removed = db.deregister("R").expect("R was registered");
    assert_eq!(removed.num_points(), 80);
    assert!(db.relation("R").is_err());
    assert!(db.execute(&spec).is_err(), "catalog no longer resolves R");
    assert_eq!(
        plan.execute(two_knn::core::ExecutionMode::default_mode())
            .num_rows(),
        3,
        "the pinned plan still owns its snapshot"
    );
    assert!(db.deregister("R").is_none());
}

// ---------------------------------------------------------------------------
// Delta overlay vs rebuilt index, across all three index families
// ---------------------------------------------------------------------------

/// The query shapes the equivalence suite runs: both join directions (so the
/// mutable relation serves as outer *and* as inner/locate target) plus a
/// two-select.
fn object_queries() -> Vec<QuerySpec> {
    let focal = Point::anonymous(55.0, 55.0);
    vec![
        QuerySpec::TwoSelects {
            relation: "Objects".into(),
            query: TwoSelectsQuery::new(6, focal, 40, Point::anonymous(40.0, 60.0)),
        },
        QuerySpec::SelectInnerOfJoin {
            outer: "Sites".into(),
            inner: "Objects".into(),
            query: SelectInnerJoinQuery::new(2, 3, focal),
        },
        QuerySpec::SelectOuterOfJoin {
            outer: "Objects".into(),
            inner: "Sites".into(),
            query: SelectOuterJoinQuery::new(2, 4, focal),
        },
    ]
}

/// A write workload: fresh inserts (some outside the original bounds),
/// removes, and moves of existing points.
fn write_workload() -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for (i, p) in scattered(25, 10_000, 77).into_iter().enumerate() {
        ops.push(WriteOp::Upsert(p));
        if i % 3 == 0 {
            ops.push(WriteOp::Remove(i as u64 * 7));
        }
    }
    // Moves: relocate a handful of original points.
    for p in scattered(10, 100, 555) {
        ops.push(WriteOp::Upsert(p));
    }
    // An insert outside the original extent.
    ops.push(WriteOp::Upsert(Point::new(20_000, 130.0, 130.0)));
    ops
}

#[test]
fn delta_overlay_matches_rebuilt_index_across_all_index_families() {
    type Install = Box<dyn Fn(&mut Database)>;
    let initial = scattered(900, 0, 3);
    let sites = GridIndex::build(scattered(300, 50_000, 4), 6).unwrap();
    let families: Vec<(&str, Install)> = vec![
        ("grid", {
            let initial = initial.clone();
            Box::new(move |db: &mut Database| {
                db.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
            })
        }),
        ("quadtree", {
            let initial = initial.clone();
            Box::new(move |db: &mut Database| {
                db.register(
                    "Objects",
                    QuadtreeIndex::build(initial.clone(), 32).unwrap(),
                );
            })
        }),
        ("rtree", {
            let initial = initial.clone();
            Box::new(move |db: &mut Database| {
                db.register("Objects", StrRTree::build(initial.clone(), 32).unwrap());
            })
        }),
    ];

    for (family, install) in families {
        // A huge threshold: nothing compacts until we ask for it. The
        // workload's 36 inserts outgrow one overlay cell of 32, so it
        // exercises a multi-cell partitioned overlay rather than one block.
        let mut db = Database::with_store_config(StoreConfig {
            compaction_threshold: usize::MAX,
            ..StoreConfig::default()
        });
        install(&mut db);
        db.register("Sites", sites.clone());

        db.ingest("Objects", &write_workload()).unwrap();
        let overlay_snap = db.relation("Objects").unwrap();
        assert!(
            overlay_snap.delta_len() > 0,
            "{family}: the workload must leave a delta overlay"
        );
        assert!(
            overlay_snap.overlay_block_count() > 1,
            "{family}: the overlay must be partitioned, got {} block(s)",
            overlay_snap.overlay_block_count()
        );
        overlay_snap
            .check_overlay_invariants()
            .unwrap_or_else(|e| panic!("{family}: overlay invariants: {e}"));
        let overlay: Vec<_> = object_queries()
            .iter()
            .map(|q| id_rows(&db.execute(q).unwrap()))
            .collect();

        // Compact (same index family rebuilt) and re-run.
        db.compact_now("Objects").unwrap().expect("delta non-empty");
        let compacted_snap = db.relation("Objects").unwrap();
        assert_eq!(compacted_snap.delta_len(), 0, "{family}: delta folded");
        assert_eq!(compacted_snap.num_points(), overlay_snap.num_points());
        let compacted: Vec<_> = object_queries()
            .iter()
            .map(|q| id_rows(&db.execute(q).unwrap()))
            .collect();
        assert_eq!(
            overlay, compacted,
            "{family}: delta-overlay reads must equal the rebuilt index"
        );

        // And equal to a from-scratch database over the merged points.
        let mut fresh = Database::new();
        let merged = overlay_snap.merged_points();
        match family {
            "grid" => fresh.register("Objects", {
                let b = overlay_snap.bounds();
                GridIndex::build_with_bounds(merged, b, 8).unwrap()
            }),
            "quadtree" => fresh.register("Objects", QuadtreeIndex::build(merged, 32).unwrap()),
            _ => fresh.register("Objects", StrRTree::build(merged, 32).unwrap()),
        };
        fresh.register("Sites", sites.clone());
        let from_scratch: Vec<_> = object_queries()
            .iter()
            .map(|q| id_rows(&fresh.execute(q).unwrap()))
            .collect();
        assert_eq!(
            overlay, from_scratch,
            "{family}: overlay reads must equal a from-scratch index"
        );
    }
}

// ---------------------------------------------------------------------------
// Snapshot isolation under concurrent ingest + forced compactions
// ---------------------------------------------------------------------------

/// Number of points in each generation's cluster.
const GEN_SIZE: u64 = 8;

/// The cluster of generation `g`: GEN_SIZE points around the far focal
/// point, with distinct (tie-free) offsets, ids `g*100 .. g*100+GEN_SIZE`.
fn generation(g: u64) -> Vec<Point> {
    (0..GEN_SIZE)
        .map(|i| {
            Point::new(
                g * 100 + i,
                200.0 + 0.10 + 0.013 * i as f64,
                200.0 - 0.07 - 0.009 * i as f64,
            )
        })
        .collect()
}

/// The focal point next to every generation cluster; the background cloud
/// lives in [0, 110]², at distance ≥ ~127 — so the 8-NN of the focal point
/// is exactly the currently visible generation, provided the snapshot is
/// consistent.
fn far_focal() -> Point {
    Point::anonymous(200.0, 200.0)
}

/// Asserts a result is exactly one whole generation and returns its number.
fn observed_generation(result: &two_knn::core::plan::QueryResult, context: &str) -> u64 {
    let rows = id_rows(result);
    assert_eq!(
        rows.len(),
        GEN_SIZE as usize,
        "{context}: expected one whole generation, got {rows:?}"
    );
    let g = rows[0][0] / 100;
    let expected: Vec<Vec<u64>> = (0..GEN_SIZE).map(|i| vec![g * 100 + i]).collect();
    assert_eq!(
        rows, expected,
        "{context}: torn read — rows mix generations or drop members"
    );
    g
}

#[test]
fn snapshot_isolation_holds_under_concurrent_ingest_and_compaction() {
    const GENERATIONS: u64 = 40;

    // Pool size honors TWOKNN_THREADS (the CI matrix pins 1 and 2): on a
    // 1-pool compactions run inline in the writer, on larger pools they run
    // as background jobs — both must preserve isolation.
    let pool = WorkerPool::new(available_threads());
    // Every generation swap is 2×GEN_SIZE ops; threshold 3×GEN_SIZE forces
    // a compaction roughly every other swap.
    let db = Database::with_pool_and_store_config(
        pool,
        StoreConfig {
            compaction_threshold: 3 * GEN_SIZE as usize,
            ..StoreConfig::default()
        },
    );
    let mut db = db;
    let mut initial = scattered(2_000, 1_000_000, 9);
    initial.extend(generation(0));
    db.register("Objects", GridIndex::build(initial, 10).unwrap());
    let db = db; // shared immutably from here on

    let focal = far_focal();
    let spec = QuerySpec::TwoSelects {
        relation: "Objects".into(),
        query: TwoSelectsQuery::new(
            GEN_SIZE as usize,
            focal,
            GEN_SIZE as usize,
            Point::anonymous(200.5, 200.5),
        ),
    };

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for g in 1..=GENERATIONS {
                let mut ops: Vec<WriteOp> = (0..GEN_SIZE)
                    .map(|i| WriteOp::Remove((g - 1) * 100 + i))
                    .collect();
                ops.extend(generation(g).into_iter().map(WriteOp::Upsert));
                // One atomic batch: queries must never see a half-swapped
                // generation.
                db.ingest("Objects", &ops).unwrap();
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        let reader = scope.spawn(|| {
            let mut batches = 0u64;
            let mut last_gen = 0u64;
            while !done.load(Ordering::Acquire) || batches == 0 {
                // A 2-query batch pins ONE DbSnapshot: both queries must
                // observe the same generation.
                let results = db.execute_batch(&[spec.clone(), spec.clone()]);
                let g0 = observed_generation(results[0].as_ref().unwrap(), "batch query 0");
                let g1 = observed_generation(results[1].as_ref().unwrap(), "batch query 1");
                assert_eq!(
                    g0, g1,
                    "execute_batch must pin one snapshot for the whole batch"
                );
                assert!(
                    g0 >= last_gen,
                    "published versions must be observed monotonically"
                );
                last_gen = g0;
                // Single-query executes pin their own snapshot.
                let single = db.execute(&spec).unwrap();
                let gs = observed_generation(&single, "single query");
                assert!(gs >= last_gen);
                last_gen = gs;
                batches += 1;
            }
            batches
        });

        writer.join().expect("writer panicked");
        let batches = reader.join().expect("reader panicked");
        assert!(batches > 0, "the reader must have raced the writer");
    });

    // Quiesce deterministically: `wait_idle` blocks until every detached
    // rebuild job has published (no sleep/poll loop), then the remaining
    // delta drains synchronously.
    db.pool().wait_idle();
    while db.relation("Objects").unwrap().delta_len() > 0 {
        db.compact_now("Objects").unwrap();
    }
    let final_result = db.execute(&spec).unwrap();
    assert_eq!(
        observed_generation(&final_result, "after quiesce"),
        GENERATIONS
    );
    let metrics = db.store_metrics();
    assert!(
        metrics.compactions >= 1,
        "the workload must have forced at least one compaction (got {metrics})"
    );
    assert_eq!(
        db.relation("Objects").unwrap().num_points(),
        2_000 + GEN_SIZE as usize
    );
}

// ---------------------------------------------------------------------------
// Background rebuild shares the pool without blocking batches
// ---------------------------------------------------------------------------

#[test]
fn background_rebuild_runs_on_the_shared_pool_without_blocking_batches() {
    let pool = WorkerPool::new(2.max(available_threads().min(4)));
    let mut db = Database::with_pool_and_store_config(
        Arc::clone(&pool),
        StoreConfig {
            compaction_threshold: 40,
            ..StoreConfig::default()
        },
    );
    db.register(
        "Objects",
        GridIndex::build(scattered(20_000, 0, 13), 24).unwrap(),
    );
    db.register(
        "Sites",
        GridIndex::build(scattered(400, 50_000, 14), 6).unwrap(),
    );
    let db = db;

    let baseline: Vec<_> = object_queries()
        .iter()
        .map(|q| id_rows(&db.execute(q).unwrap()))
        .collect();
    assert!(baseline.iter().any(|rows| !rows.is_empty()));

    // One ingest batch crosses the threshold → a rebuild of the 20k-point
    // base is scheduled on the shared pool.
    db.ingest("Objects", &write_workload()).unwrap();

    // Immediately run query batches; they must complete correctly while the
    // rebuild is (potentially) in flight on a pool worker.
    let during: Vec<_> = db
        .execute_batch(&object_queries())
        .into_iter()
        .map(|r| id_rows(&r.unwrap()))
        .collect();

    // The rebuild publishes without any further nudging (on a 1-thread
    // pool it already ran inline during `ingest`): `wait_idle` awaits the
    // detached rebuild job deterministically — no sleep/poll loop.
    db.pool().wait_idle();
    assert_eq!(
        db.relation("Objects").unwrap().delta_len(),
        0,
        "the scheduled rebuild must have published by the time the pool is idle"
    );
    assert!(db.store_metrics().compactions >= 1);

    // Same logical content before and after the swap → same results.
    let after: Vec<_> = db
        .execute_batch(&object_queries())
        .into_iter()
        .map(|r| id_rows(&r.unwrap()))
        .collect();
    assert_eq!(during, after);
}

// ---------------------------------------------------------------------------
// Burst pruning: a write burst must not defeat MINDIST pruning
// ---------------------------------------------------------------------------

/// A spatially clustered burst of fresh inserts: `n` tie-free points packed
/// into a ~4×4 square around (60, 60) — the HTAP failure mode where a flood
/// of position updates lands in one hot region between compactions.
fn clustered_burst(n: usize, id_base: u64) -> Vec<WriteOp> {
    (0..n as u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            WriteOp::Upsert(Point::new(
                id_base + i,
                58.0 + (h % 40_000) as f64 * 0.0001,
                58.0 + ((h / 40_000) % 40_000) as f64 * 0.0001,
            ))
        })
        .collect()
}

/// The burst scenario's catalog: a quadtree-backed object relation (so the
/// post-compaction rebuild adapts its blocks to the cluster) plus two small
/// relations for the unchained join.
fn burst_db() -> Database {
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        ..StoreConfig::default()
    });
    db.register(
        "Objects",
        QuadtreeIndex::build(scattered(4_000, 0, 3), 32).unwrap(),
    );
    db.register(
        "A",
        GridIndex::build(scattered(150, 200_000, 5), 4).unwrap(),
    );
    db.register(
        "C",
        GridIndex::build(scattered(150, 300_000, 6), 4).unwrap(),
    );
    db
}

/// The queries the burst regression measures: a kNN-select pair focused
/// inside the burst region and an unchained join over the bursting relation.
fn burst_queries() -> Vec<(QuerySpec, Strategy)> {
    vec![
        (
            QuerySpec::TwoSelects {
                relation: "Objects".into(),
                query: TwoSelectsQuery::new(
                    8,
                    Point::anonymous(60.0, 60.0),
                    8,
                    Point::anonymous(60.4, 60.4),
                ),
            },
            Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect),
        ),
        (
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "Objects".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 2),
            },
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA),
        ),
    ]
}

/// Per-query `(rows, points_scanned, blocks_scanned)` under pinned
/// strategies, so overlay and compacted runs measure identical plans.
fn run_burst_queries(db: &Database) -> Vec<(Vec<Vec<u64>>, u64, u64)> {
    burst_queries()
        .iter()
        .map(|(spec, strategy)| {
            let result = db.execute_with(spec, *strategy).unwrap();
            let m = result.metrics();
            (id_rows(&result), m.points_scanned, m.blocks_scanned)
        })
        .collect()
}

#[test]
fn clustered_burst_keeps_block_pruning_within_a_constant_factor() {
    const BURST: usize = 10_000;
    let burst = clustered_burst(BURST, 500_000);

    // The partitioned overlay, fed the burst with no compaction.
    let db = burst_db();
    db.ingest("Objects", &burst).unwrap();
    let snap = db.relation("Objects").unwrap();
    assert!(
        snap.overlay_block_count() > 1,
        "the burst must partition into multiple overlay blocks"
    );
    snap.check_overlay_invariants().unwrap();
    let grid = run_burst_queries(&db);

    // The compacted equivalent: fold the burst into a rebuilt base.
    db.compact_now("Objects")
        .unwrap()
        .expect("delta is non-empty");
    assert_eq!(db.relation("Objects").unwrap().delta_len(), 0);
    let compacted = run_burst_queries(&db);

    // A single overlay block holding the whole burst (the layout before the
    // overlay was partitioned) has MINDIST 0 from any focal point inside the
    // burst's bounding box, so a kNN walk from there scans all BURST points.
    let burst_box = Rect::bounding(
        &burst
            .iter()
            .map(|op| match op {
                WriteOp::Upsert(p) => *p,
                WriteOp::Remove(_) => unreachable!("the burst only upserts"),
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let (QuerySpec::TwoSelects { query: focal, .. }, _) = &burst_queries()[0] else {
        unreachable!("query 0 is the kNN-select pair");
    };

    for (i, ((g_rows, g_pts, g_blocks), (c_rows, c_pts, c_blocks))) in
        grid.iter().zip(compacted.iter()).enumerate()
    {
        assert_eq!(
            g_rows, c_rows,
            "query {i}: compaction must not change results"
        );
        // The acceptance bound: with the partitioned overlay, block-visit
        // work during the un-compacted burst stays within a constant factor
        // of the freshly compacted index.
        assert!(
            *g_pts <= 3 * c_pts,
            "query {i}: grid overlay scanned {g_pts} points vs {c_pts} compacted (> 3x)"
        );
        assert!(
            *g_blocks <= 3 * c_blocks,
            "query {i}: grid overlay scanned {g_blocks} blocks vs {c_blocks} compacted (> 3x)"
        );
        // The regression the partitioned overlay fixed: a single-block
        // overlay funnels the whole burst into every kNN walk that starts in
        // the hot region, which blows straight through the 3x bound (~37x
        // when this was written) and costs ≥ 2x the partitioned overlay.
        if i == 0 {
            assert!(
                burst_box.contains(&focal.f1),
                "query {i}: focal point {} must lie in the burst's box {burst_box}",
                focal.f1
            );
            assert!(
                BURST as u64 > 3 * c_pts,
                "query {i}: a single-block overlay would scan only {BURST} points vs \
                 {c_pts} compacted — the regression scenario no longer discriminates"
            );
            assert!(
                BURST as u64 >= 2 * g_pts,
                "query {i}: a single-block overlay ({BURST} points) must cost ≥ 2x the \
                 partitioned overlay ({g_pts} points)"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental overlay maintenance never drifts from a from-scratch rebuild
// ---------------------------------------------------------------------------

#[test]
fn incremental_overlay_maintenance_matches_from_scratch_rebuilds() {
    // Many small batches of mixed inserts / moves / removes, applied through
    // the incremental copy-on-write path. After every batch the published
    // snapshot must uphold the exact-count/tight-MBR overlay invariants
    // (counts or MBRs drifting from the true cell contents is precisely the
    // bug class this guards), and reads must equal a from-scratch database
    // over the same visible points.
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        ..StoreConfig::default()
    });
    db.register(
        "Objects",
        GridIndex::build(scattered(600, 0, 21), 6).unwrap(),
    );

    let spec = QuerySpec::TwoSelects {
        relation: "Objects".into(),
        query: TwoSelectsQuery::new(
            5,
            Point::anonymous(40.0, 40.0),
            25,
            Point::anonymous(70.0, 30.0),
        ),
    };
    for round in 0u64..12 {
        let mut ops = Vec::new();
        // Fresh clustered inserts drifting across the space round by round.
        for (i, p) in scattered(40, 10_000 + round * 1_000, round + 1)
            .into_iter()
            .enumerate()
        {
            ops.push(WriteOp::Upsert(Point::new(
                p.id,
                p.x * 0.3 + round as f64 * 7.0,
                p.y * 0.3 + round as f64 * 5.0,
            )));
            if i % 4 == 0 {
                // Move a point inserted in an earlier round (if present).
                ops.push(WriteOp::Upsert(Point::new(
                    10_000 + round.saturating_sub(1) * 1_000 + i as u64,
                    p.y * 0.3,
                    p.x * 0.3,
                )));
            }
            if i % 5 == 0 {
                ops.push(WriteOp::Remove(
                    10_000 + round.saturating_sub(1) * 1_000 + i as u64,
                ));
                ops.push(WriteOp::Remove(i as u64 * 11)); // base tombstones
            }
        }
        db.ingest("Objects", &ops).unwrap();

        let snap = db.relation("Objects").unwrap();
        snap.check_overlay_invariants()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));

        // A from-scratch database over the merged visible points must agree.
        let mut fresh = Database::new();
        fresh.register(
            "Objects",
            GridIndex::build_with_bounds(snap.merged_points(), snap.bounds(), 6).unwrap(),
        );
        assert_eq!(
            id_rows(&db.execute(&spec).unwrap()),
            id_rows(&fresh.execute(&spec).unwrap()),
            "round {round}: incremental overlay reads drifted from a rebuild"
        );
    }
    assert!(
        db.relation("Objects").unwrap().overlay_block_count() > 1,
        "the workload must have exercised a partitioned overlay"
    );
}

/// A NaN or infinite coordinate is refused, never panicked on or stored:
/// every recipe rejects it at build, and an ingest batch carrying one is
/// refused whole — nothing logged, nothing published, the version
/// unchanged — so the next compaction of an R-tree relation (whose STR sort
/// cannot order NaN) rebuilds from finite points only.
#[test]
fn non_finite_coordinates_are_refused_not_panicked_on() {
    use two_knn::core::store::DurabilityConfig;
    use two_knn::core::QueryError;
    use two_knn::geometry::GeometryError;

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for at in [0, 37] {
            let mut pts = scattered(80, 0, 5);
            pts.insert(at, Point::new(999, bad, 2.0));
            let refused = |built: Result<_, GeometryError>| {
                matches!(built, Err(GeometryError::NonFiniteCoordinate { .. }))
            };
            assert!(refused(GridIndex::build(pts.clone(), 4)), "grid {bad}");
            assert!(
                refused(QuadtreeIndex::build(pts.clone(), 8)),
                "quadtree {bad}"
            );
            assert!(refused(StrRTree::build(pts, 8)), "rtree {bad}");
        }
    }

    let dir = std::env::temp_dir().join(format!("twoknn-non-finite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::with_store_config(StoreConfig {
        durability: DurabilityConfig::at(&dir),
        ..StoreConfig::default()
    });
    db.register("R", StrRTree::build(scattered(200, 0, 9), 16).unwrap());
    let appends = db.store_metrics().wal_appends;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let batch = [
            WriteOp::Upsert(Point::new(500, 1.0, 1.0)),
            WriteOp::Upsert(Point::new(501, 2.0, bad)),
        ];
        assert_eq!(
            db.ingest("R", &batch),
            Err(QueryError::NonFiniteCoordinate { id: 501 })
        );
        let snap = db.relation("R").unwrap();
        assert_eq!((snap.version(), snap.delta_len()), (0, 0), "{bad}");
        assert_eq!(
            db.store_metrics().wal_appends,
            appends,
            "{bad}: nothing logged"
        );
    }
    db.ingest("R", &[WriteOp::Upsert(Point::new(500, 1.0, 1.0))])
        .unwrap();
    db.compact_now("R").unwrap();
    let snap = db.relation("R").unwrap();
    assert_eq!((snap.num_points(), snap.delta_len()), (201, 0));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
