//! Sharded-vs-unsharded equivalence: a relation split into spatial shards
//! (independent deltas, per-shard compactions, scatter-gather kNN over the
//! composed snapshot) must answer **identically** to the single-shard
//! layout — for every query shape, every index family, and through mixed
//! ingest with mid-stream per-shard compactions. Plus the pruning
//! regression: a clustered kNN-select against a sharded relation must visit
//! only the shards whose MINDIST² qualifies against the running τ².

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{Database, QuerySpec, SelectInnerStrategy, Strategy};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{ShardConfig, StoreConfig, WriteOp};
use two_knn::geometry::mindist_sq;
use two_knn::index::{brute_force_knn, get_knn};
use two_knn::{GridIndex, Metrics, Point, QuadtreeIndex, Rect, SpatialIndex, StrRTree};

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

/// All result rows as a sorted list of id tuples.
fn id_rows(result: &two_knn::core::plan::QueryResult) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = result.rows().iter().map(|r| r.ids()).collect();
    ids.sort_unstable();
    ids
}

/// Every query shape the planner knows, all touching the mutable sharded
/// relation ("Objects") in a different role.
fn all_query_shapes() -> Vec<QuerySpec> {
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
        QuerySpec::UnchainedJoins {
            a: "Sites".into(),
            b: "Objects".into(),
            c: "Aux".into(),
            query: UnchainedJoinQuery::new(2, 2),
        },
        QuerySpec::ChainedJoins {
            a: "Aux".into(),
            b: "Objects".into(),
            c: "Sites".into(),
            query: ChainedJoinQuery::new(2, 2),
        },
    ]
}

/// Three tight clusters of points: an inner relation whose neighborhoods
/// are far from most outer blocks.
fn hubs() -> Vec<Point> {
    let centres = [(20.0, 30.0), (70.0, 80.0), (85.0, 25.0)];
    scattered(300, 90_000, 11)
        .into_iter()
        .zip(centres.iter().cycle())
        .map(|(p, (x, y))| Point::new(p.id, x + p.x * 0.08, y + p.y * 0.08))
        .collect()
}

/// Select-inner queries over the mutable sharded relation as the outer
/// relation (against the clustered "Hubs") and as the inner one, at focal
/// points and k's spread over the extent.
fn select_inner_specs() -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for (i, f) in scattered(64, 0, 7_700).into_iter().enumerate() {
        let focal = Point::anonymous(f.x, f.y);
        let query = SelectInnerJoinQuery::new(1 + i % 4, 1 + (i * 7) % 17, focal);
        for (outer, inner) in [("Objects", "Hubs"), ("Sites", "Objects")] {
            specs.push(QuerySpec::SelectInnerOfJoin {
                outer: outer.into(),
                inner: inner.into(),
                query,
            });
        }
    }
    specs
}

/// Mixed write workload, staged so compactions can run mid-stream: inserts
/// (some outside the original extent), removes, and moves — including moves
/// that cross shard boundaries.
fn write_stages() -> Vec<Vec<WriteOp>> {
    let mut stage1: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(30, 10_000, 77).into_iter().enumerate() {
        stage1.push(WriteOp::Upsert(p));
        if i % 3 == 0 {
            stage1.push(WriteOp::Remove(i as u64 * 7));
        }
    }
    // Cross-shard moves: relocate original points to far-away positions.
    let mut stage2: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(12, 100, 555).into_iter().enumerate() {
        stage2.push(WriteOp::Upsert(Point::new(
            p.id,
            109.0 - (i as f64) * 7.3,
            (i as f64) * 8.9,
        )));
    }
    stage2.push(WriteOp::Upsert(Point::new(20_000, 130.0, 130.0)));
    // And a third stage that re-dirties freshly compacted shards.
    let mut stage3: Vec<WriteOp> = Vec::new();
    for p in scattered(20, 30_000, 991) {
        stage3.push(WriteOp::Upsert(p));
    }
    stage3.push(WriteOp::Remove(10_001));
    stage3.push(WriteOp::Remove(77)); // maybe already gone: ineffective is fine
    vec![stage1, stage2, stage3]
}

fn install_family(db: &mut Database, family: &str, initial: &[Point]) {
    match family {
        "grid" => {
            db.register("Objects", GridIndex::build(initial.to_vec(), 8).unwrap());
        }
        "quadtree" => {
            db.register(
                "Objects",
                QuadtreeIndex::build(initial.to_vec(), 32).unwrap(),
            );
        }
        _ => {
            db.register("Objects", StrRTree::build(initial.to_vec(), 32).unwrap());
        }
    }
}

#[test]
fn sharded_matches_unsharded_for_all_query_shapes_and_families() {
    let initial = scattered(900, 0, 3);
    let sites = GridIndex::build(scattered(250, 50_000, 4), 6).unwrap();
    let aux = GridIndex::build(scattered(120, 80_000, 9), 5).unwrap();
    let hubs = GridIndex::build(hubs(), 6).unwrap();

    for family in ["grid", "quadtree", "rtree"] {
        let mut sharded = Database::with_store_config(StoreConfig {
            compaction_threshold: usize::MAX, // compactions only when forced
            sharding: ShardConfig::per_axis(3),
            ..StoreConfig::default()
        });
        let mut flat = Database::new();
        for db in [&mut sharded, &mut flat] {
            install_family(db, family, &initial);
            db.register("Sites", sites.clone());
            db.register("Aux", aux.clone());
            db.register("Hubs", hubs.clone());
        }
        {
            let snap = sharded.relation("Objects").unwrap();
            assert_eq!(snap.num_shards(), 9, "{family}: 3×3 sharding requested");
            assert_eq!(
                snap.directory().num_shards(),
                9,
                "{family}: the composed directory's first level is the shards"
            );
        }

        for (stage, ops) in write_stages().iter().enumerate() {
            sharded.ingest("Objects", ops).unwrap();
            flat.ingest("Objects", ops).unwrap();
            if stage == 1 {
                // Mid-stream: fold the sharded side's dirty shards only —
                // the two layouts now differ in base/delta split but must
                // not differ in answers.
                sharded
                    .compact_now("Objects")
                    .unwrap()
                    .expect("stages left dirty shards");
                assert!(sharded.store_metrics().shards_compacted > 0);
            }

            let ssnap = sharded.relation("Objects").unwrap();
            let fsnap = flat.relation("Objects").unwrap();
            assert_eq!(ssnap.num_points(), fsnap.num_points(), "{family}@{stage}");
            ssnap
                .check_overlay_invariants()
                .unwrap_or_else(|e| panic!("{family}@{stage}: shard invariants: {e}"));

            // Exact Neighborhood equality of the composed scatter-gather
            // read path against the flat snapshot and brute force.
            for (qi, q) in scattered(40, 0, 40_500 + stage as u64)
                .into_iter()
                .enumerate()
            {
                let k = 1 + qi % 7;
                let q = Point::anonymous(q.x, q.y);
                let mut m = Metrics::default();
                let via_shards = get_knn(&*ssnap, &q, k, &mut m);
                let via_flat = get_knn(&*fsnap, &q, k, &mut m);
                assert_eq!(
                    via_shards, via_flat,
                    "{family}@{stage}: kNN(q#{qi}, k={k}) diverged"
                );
                assert_eq!(via_shards, brute_force_knn(&*ssnap, &q, k));
            }

            for (i, spec) in all_query_shapes().iter().enumerate() {
                assert_eq!(
                    id_rows(&sharded.execute(spec).unwrap()),
                    id_rows(&flat.execute(spec).unwrap()),
                    "{family}@{stage}: query shape #{i} diverged"
                );
            }

            // The planner picks one select-inner strategy; every legal one
            // must return the conceptual QEP's rows on the sharded layout.
            for (i, spec) in select_inner_specs().iter().enumerate() {
                let run = |s| {
                    id_rows(
                        &sharded
                            .execute_with(spec, Strategy::SelectInner(s))
                            .unwrap(),
                    )
                };
                let reference = run(SelectInnerStrategy::Conceptual);
                for strategy in [
                    SelectInnerStrategy::Counting,
                    SelectInnerStrategy::BlockMarking,
                ] {
                    assert_eq!(
                        run(strategy),
                        reference,
                        "{family}@{stage}: select-inner #{i} with {strategy:?} diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn clustered_knn_scans_only_mindist_qualified_shards() {
    // A dense cluster in one corner plus a sparse spread everywhere: a kNN
    // query inside the cluster resolves entirely from nearby shards, and the
    // far shards must be pruned by shard-level MINDIST — without ever being
    // scanned.
    let mut pts: Vec<Point> = (0..400u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            Point::new(
                i,
                10.0 + (h % 1000) as f64 * 0.0021,
                10.0 + ((h / 1000) % 1000) as f64 * 0.0023,
            )
        })
        .collect();
    pts.extend((0..60u64).map(|i| {
        let h = (i ^ 17).wrapping_mul(0x2545F4914F6CDD1D);
        Point::new(
            10_000 + i,
            (h % 1000) as f64 * 0.1,
            ((h / 1000) % 1000) as f64 * 0.1,
        )
    }));

    let mut db = Database::with_store_config(StoreConfig {
        sharding: ShardConfig::per_axis(4),
        ..StoreConfig::default()
    });
    let index = GridIndex::build(pts, 10).unwrap();
    db.register("Objects", index.clone());
    let snap = db.relation("Objects").unwrap();
    // Each populated shard's tight MBR over its non-empty blocks.
    let shard_mbrs: Vec<Rect> = snap
        .shards()
        .iter()
        .filter_map(|shard| {
            let mut nonempty = shard.blocks().iter().filter(|b| b.count > 0);
            let first = nonempty.next()?.mbr;
            Some(nonempty.fold(first, |mbr, b| mbr.union(&b.mbr)))
        })
        .collect();
    let populated = shard_mbrs.len();
    assert!(populated > 4, "spread points must populate many shards");

    let q = Point::anonymous(11.0, 11.0);
    let k = 5;
    let mut m = Metrics::default();
    let hood = get_knn(&*snap, &q, k, &mut m);
    assert_eq!(hood.len(), k);
    assert_eq!(hood, brute_force_knn(&*snap, &q, k));

    assert!(m.shards_pruned > 0, "far shards must be MINDIST-pruned");
    assert!(
        (m.shards_scanned as usize) < populated,
        "scanned {} of {populated} populated shards — no shard pruning",
        m.shards_scanned
    );
    assert_eq!(
        m.shards_scanned + m.shards_pruned,
        populated as u64,
        "every populated shard is either scanned or pruned"
    );

    // Every scanned shard's MINDIST² must qualify against the final τ²; the
    // scatter-gather driver visits shards in MINDIST order, so the scanned
    // set is exactly the MINDIST-qualified prefix (ties aside).
    let tau_sq = hood.radius() * hood.radius();
    let qualified = shard_mbrs
        .iter()
        .filter(|mbr| mindist_sq(&q, mbr) <= tau_sq)
        .count();
    assert!(
        m.shards_scanned as usize <= qualified + 1,
        "scanned {} shards but only {qualified} qualify against τ²",
        m.shards_scanned
    );

    // The single-shard twin of the same relation has no shard tier to prune,
    // and the sharded layout must not scan more points than it does.
    let mut single = Database::new();
    single.register("Objects", index);
    let single_snap = single.relation("Objects").unwrap();
    let mut ms = Metrics::default();
    assert_eq!(get_knn(&*single_snap, &q, k, &mut ms), hood);
    assert_eq!(ms.shards_pruned, 0, "a single shard has nothing to prune");
    assert!(
        m.points_scanned <= ms.points_scanned,
        "sharded scanned {} points, single-shard {}",
        m.points_scanned,
        ms.points_scanned
    );
}
