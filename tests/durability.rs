//! Crash-recovery equivalence for the durability subsystem: a database that
//! ingests through mixed workloads (with mid-stream compactions) and then
//! *crashes* — dropped without a checkpoint — must, after
//! [`Database::open`], answer **exactly** like an instance that never
//! crashed, for every query shape × index family × sharded/unsharded
//! layout. Plus the failure-injection suite: a torn WAL tail keeps every
//! fully written batch and drops the tail cleanly; a flipped byte in a
//! block file or manifest surfaces as [`RecoveryError`], never a panic; and
//! a batch — including a cross-shard move — replays atomically or not at
//! all. Sharded grids build every shard at the relation recipe's cell size,
//! and a directory written when shards still carried the relation recipe
//! (`tests/fixtures/legacy_2x2_grid`) keeps opening with the same rows. A
//! shard whose persists fail reports each failure as an event and keeps its
//! ops in the WAL; and three writers, a checkpointing thread and a reader
//! running at once leave a store that recovers every writer's writes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, SyncPolicy, WriteOp};
use two_knn::core::{EventKind, RecoveryError};
use two_knn::index::IndexConfig;
use two_knn::{GridIndex, Point, QuadtreeIndex, SpatialIndex, StrRTree};

/// A process-unique scratch directory, removed on drop (best-effort — a
/// panicking test leaves it for the OS tmp reaper).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "twoknn-durability-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The store lays a relation's state under `rel-<hex(name)>/`.
fn rel_dir(root: &Path, name: &str) -> PathBuf {
    let hex: String = name.bytes().map(|b| format!("{b:02x}")).collect();
    root.join(format!("rel-{hex}"))
}

/// The relation's WAL segment files, sorted by segment index.
fn wal_segments(rel: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(rel)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .collect();
    segs.sort();
    segs
}

/// Byte ranges `(start, end)` of the complete records in a WAL segment,
/// parsed from the `[len][crc][payload]` framing.
fn record_ranges(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut at = 0;
    let mut out = Vec::new();
    while at + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > buf.len() {
            break;
        }
        out.push((at, end));
        at = end;
    }
    out
}

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

/// The visible point set of a relation, sorted by id — the ground truth two
/// instances are compared on.
fn visible_points(db: &Database, name: &str) -> Vec<Point> {
    let mut pts = db.relation(name).unwrap().all_points();
    pts.sort_unstable_by_key(|p| p.id);
    pts
}

fn id_rows(result: &two_knn::core::plan::QueryResult) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = result.rows().iter().map(|r| r.ids()).collect();
    ids.sort_unstable();
    ids
}

/// Every query shape the planner knows, all touching the mutable relation
/// ("Objects") in a different role.
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

/// Mixed write workload: inserts (some outside the original extent),
/// removes, and moves — including moves that cross shard boundaries.
fn write_stages() -> Vec<Vec<WriteOp>> {
    let mut stage1: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(30, 10_000, 77).into_iter().enumerate() {
        stage1.push(WriteOp::Upsert(p));
        if i % 3 == 0 {
            stage1.push(WriteOp::Remove(i as u64 * 7));
        }
    }
    let mut stage2: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(12, 100, 555).into_iter().enumerate() {
        stage2.push(WriteOp::Upsert(Point::new(
            p.id,
            109.0 - (i as f64) * 7.3,
            (i as f64) * 8.9,
        )));
    }
    stage2.push(WriteOp::Upsert(Point::new(20_000, 130.0, 130.0)));
    let mut stage3: Vec<WriteOp> = Vec::new();
    for p in scattered(20, 30_000, 991) {
        stage3.push(WriteOp::Upsert(p));
    }
    stage3.push(WriteOp::Remove(10_001));
    stage3.push(WriteOp::Remove(77));
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

fn store_config(shards_per_axis: usize, durability: DurabilityConfig) -> StoreConfig {
    StoreConfig {
        compaction_threshold: 48, // small: compactions interleave with ingest
        sharding: ShardConfig::per_axis(shards_per_axis),
        durability,
    }
}

#[test]
fn crash_recovery_matches_a_never_crashed_instance() {
    let initial = scattered(900, 0, 3);
    let sites = GridIndex::build(scattered(250, 50_000, 4), 6).unwrap();
    let aux = GridIndex::build(scattered(120, 80_000, 9), 5).unwrap();

    for family in ["grid", "quadtree", "rtree"] {
        for shards_per_axis in [1, 3] {
            let tag = format!("{family}-{shards_per_axis}");
            let tmp = TempDir::new(&tag);
            let durable_cfg = store_config(shards_per_axis, DurabilityConfig::at(tmp.path()));

            let mut memory = Database::with_store_config(store_config(
                shards_per_axis,
                DurabilityConfig::Disabled,
            ));
            {
                // Scope the durable instance so it *drops* — no checkpoint,
                // no graceful shutdown: the on-disk state is whatever the
                // WAL and any finished shard spills left behind.
                let mut durable = Database::with_store_config(durable_cfg.clone());
                for db in [&mut durable, &mut memory] {
                    install_family(db, family, &initial);
                    db.register("Sites", sites.clone());
                    db.register("Aux", aux.clone());
                }
                for (stage, ops) in write_stages().iter().enumerate() {
                    durable.ingest("Objects", ops).unwrap();
                    memory.ingest("Objects", ops).unwrap();
                    if stage == 1 {
                        // Mid-stream: fold dirty shards (persisting block
                        // files on the durable side) so recovery exercises
                        // block files + a WAL suffix, not the WAL alone.
                        durable.compact_now("Objects").unwrap();
                        memory.compact_now("Objects").unwrap();
                    }
                }
                // Exactly one WAL record per publishing batch (every stage
                // changes the visible set); the `Disabled` twin logs nothing.
                let logged = durable.store_metrics();
                assert_eq!(
                    logged.wal_appends,
                    write_stages().len() as u64,
                    "{tag}: one WAL record per publishing batch"
                );
                assert!(logged.wal_bytes > 0, "{tag}: records carry payload");
                let unlogged = memory.store_metrics();
                assert_eq!(
                    (unlogged.wal_appends, unlogged.wal_bytes),
                    (0, 0),
                    "{tag}: disabled durability must log nothing"
                );
                // A background rebuild outlives the dropped handle on the
                // shared pool: let it finish, or it would delete a block-file
                // generation the reopen below has just read from the manifest.
                durable.pool().wait_idle();
            }

            let reopened = Database::open(tmp.path(), durable_cfg.clone()).unwrap();
            assert_eq!(
                reopened.store_metrics().recoveries,
                3,
                "{tag}: all three relations recover"
            );
            assert_eq!(
                reopened.relation_names(),
                vec!["Aux", "Objects", "Sites"],
                "{tag}"
            );
            assert_eq!(
                reopened.relation("Objects").unwrap().num_shards(),
                shards_per_axis * shards_per_axis,
                "{tag}: sharding layout comes back from the manifest"
            );
            for name in ["Objects", "Sites", "Aux"] {
                assert_eq!(
                    visible_points(&reopened, name),
                    visible_points(&memory, name),
                    "{tag}: visible set of {name} diverged after recovery"
                );
            }
            for (i, spec) in all_query_shapes().iter().enumerate() {
                assert_eq!(
                    id_rows(&reopened.execute(spec).unwrap()),
                    id_rows(&memory.execute(spec).unwrap()),
                    "{tag}: query shape #{i} diverged after recovery"
                );
            }

            // Life goes on after recovery: more ingest (compacting the
            // recovered block-file bases into the manifest'd index family)
            // must stay equivalent.
            let more: Vec<WriteOp> = scattered(40, 60_000, 1234)
                .into_iter()
                .map(WriteOp::Upsert)
                .chain([WriteOp::Remove(30_003), WriteOp::Remove(20_000)])
                .collect();
            reopened.ingest("Objects", &more).unwrap();
            memory.ingest("Objects", &more).unwrap();
            reopened.compact_now("Objects").unwrap();
            memory.compact_now("Objects").unwrap();
            assert_eq!(
                visible_points(&reopened, "Objects"),
                visible_points(&memory, "Objects"),
                "{tag}: post-recovery ingest diverged"
            );
            for (i, spec) in all_query_shapes().iter().enumerate() {
                assert_eq!(
                    id_rows(&reopened.execute(spec).unwrap()),
                    id_rows(&memory.execute(spec).unwrap()),
                    "{tag}: query shape #{i} diverged after post-recovery ingest"
                );
            }
        }
    }
}

#[test]
fn checkpoint_trims_wal_and_survives_reopen() {
    let tmp = TempDir::new("checkpoint");
    // Tiny segments so the workload rolls several of them.
    let durability = DurabilityConfig::Enabled {
        dir: tmp.path().to_path_buf(),
        sync: SyncPolicy::EveryN(4),
        segment_bytes: 512,
    };
    let cfg = store_config(2, durability);
    let expected;
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(300, 0, 5), 8).unwrap(),
        );
        for chunk in scattered(200, 5_000, 21).chunks(10) {
            let ops: Vec<WriteOp> = chunk.iter().copied().map(WriteOp::Upsert).collect();
            db.ingest("Objects", &ops).unwrap();
        }
        let rel = rel_dir(tmp.path(), "Objects");
        let before = wal_segments(&rel).len();
        assert!(before > 1, "the workload must roll WAL segments");
        db.checkpoint();
        let m = db.store_metrics();
        assert_eq!(m.checkpoints, 1);
        assert!(
            wal_segments(&rel).len() < before,
            "checkpoint must delete covered WAL segments ({before} before)"
        );
        // More writes after the checkpoint land in the surviving tail.
        db.ingest(
            "Objects",
            &[
                WriteOp::Upsert(Point::new(90_000, 3.25, 4.5)),
                WriteOp::Remove(5_001),
            ],
        )
        .unwrap();
        expected = visible_points(&db, "Objects");
    }
    let reopened = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(visible_points(&reopened, "Objects"), expected);
}

#[test]
fn torn_wal_tail_keeps_fully_written_batches() {
    let tmp = TempDir::new("torn");
    let cfg = store_config(1, DurabilityConfig::at(tmp.path()));
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(100, 0, 7), 6).unwrap(),
        );
        let batch1: Vec<WriteOp> = (0..10u64)
            .map(|i| WriteOp::Upsert(Point::new(1_000 + i, 1.0 + i as f64, 2.0)))
            .collect();
        let batch2: Vec<WriteOp> = (0..10u64)
            .map(|i| WriteOp::Upsert(Point::new(2_000 + i, 50.0 + i as f64, 60.0)))
            .collect();
        db.ingest("Objects", &batch1).unwrap();
        db.ingest("Objects", &batch2).unwrap();
    }
    let seg = wal_segments(&rel_dir(tmp.path(), "Objects"))
        .pop()
        .expect("one WAL segment");
    let buf = std::fs::read(&seg).unwrap();
    let ranges = record_ranges(&buf);
    assert_eq!(ranges.len(), 2, "one record per ingest batch");

    // Tear mid-way through the second record — a crash during the append.
    let (start2, end2) = ranges[1];
    let torn_at = start2 + (end2 - start2) / 2;
    std::fs::write(&seg, &buf[..torn_at]).unwrap();

    let db = Database::open(tmp.path(), cfg.clone()).unwrap();
    let pts = visible_points(&db, "Objects");
    assert!(
        (0..10u64).all(|i| pts.iter().any(|p| p.id == 1_000 + i)),
        "the fully written first batch survives"
    );
    assert!(
        pts.iter().all(|p| !(2_000..2_010).contains(&p.id)),
        "the torn second batch is dropped whole"
    );
    assert_eq!(pts.len(), 110);
    drop(db);

    // Now corrupt the *first* record: everything from the first bad record
    // on is untrusted, so only the registration-time base remains.
    std::fs::write(&seg, &buf).unwrap();
    let (start1, end1) = ranges[0];
    let mut flipped = buf.clone();
    flipped[start1 + (end1 - start1) / 2] ^= 0x40;
    std::fs::write(&seg, &flipped).unwrap();
    let db = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(
        visible_points(&db, "Objects").len(),
        100,
        "a bad record truncates the log from that point on"
    );
}

#[test]
fn corrupt_block_file_and_manifest_surface_recovery_errors() {
    let tmp = TempDir::new("corrupt");
    let cfg = store_config(1, DurabilityConfig::at(tmp.path()));
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(120, 0, 11), 6).unwrap(),
        );
    }
    let rel = rel_dir(tmp.path(), "Objects");
    let blk = std::fs::read_dir(&rel)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "blk"))
        .expect("registration persists a block file");

    // Flip one byte deep in the column payload.
    let mut bytes = std::fs::read(&blk).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x01;
    std::fs::write(&blk, &bytes).unwrap();
    match Database::open(tmp.path(), cfg.clone()) {
        Err(RecoveryError::Corrupt { path, .. }) => assert_eq!(path, blk),
        Err(other) => panic!("expected Corrupt for the block file, got {other}"),
        Ok(_) => panic!("a corrupt block file must fail recovery"),
    }

    // Restore the block file, corrupt the manifest instead.
    bytes[at] ^= 0x01;
    std::fs::write(&blk, &bytes).unwrap();
    assert!(Database::open(tmp.path(), cfg.clone()).is_ok());
    let manifest = rel.join("MANIFEST");
    let mut mbytes = std::fs::read(&manifest).unwrap();
    let mat = mbytes.len() / 2;
    mbytes[mat] ^= 0x10;
    std::fs::write(&manifest, &mbytes).unwrap();
    assert!(
        matches!(
            Database::open(tmp.path(), cfg),
            Err(RecoveryError::Corrupt { .. })
        ),
        "a corrupt manifest must be an error, not a panic"
    );
}

#[test]
fn cross_shard_move_replays_atomically() {
    let tmp = TempDir::new("atomic");
    let cfg = store_config(2, DurabilityConfig::at(tmp.path()));
    // Two far-apart points so a 2×2 shard map puts them in different shards.
    let initial = vec![
        Point::new(1, 5.0, 5.0),
        Point::new(2, 95.0, 95.0),
        Point::new(3, 5.0, 95.0),
        Point::new(4, 95.0, 5.0),
    ];
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register("Objects", GridIndex::build(initial.clone(), 4).unwrap());
        // `update` reports prior visibility through the same receipt that
        // feeds the WAL: a move of a known id is `true`, a fresh id `false`.
        assert!(!db.update("Objects", Point::new(9, 50.0, 50.0)).unwrap());
        // One batch: move id 1 across shards AND insert a fresh id. Must be
        // one WAL record — all or nothing at replay.
        db.ingest(
            "Objects",
            &[
                WriteOp::Upsert(Point::new(1, 94.0, 94.0)),
                WriteOp::Upsert(Point::new(77_777, 20.0, 20.0)),
            ],
        )
        .unwrap();
        assert!(db.update("Objects", Point::new(1, 93.0, 93.0)).unwrap());
    }
    let seg = wal_segments(&rel_dir(tmp.path(), "Objects")).pop().unwrap();
    let buf = std::fs::read(&seg).unwrap();
    let ranges = record_ranges(&buf);
    assert_eq!(
        ranges.len(),
        3,
        "one record per batch, even for multi-shard batches"
    );

    // Crash inside the *move* batch (record 2): replay must restore the
    // pre-batch state — id 1 still at (5, 5), id 77777 absent, never a
    // half-applied move (id 1 present twice or nowhere).
    let (start2, end2) = ranges[1];
    std::fs::write(&seg, &buf[..start2 + (end2 - start2) / 2]).unwrap();
    let db = Database::open(tmp.path(), cfg).unwrap();
    let pts = visible_points(&db, "Objects");
    let ones: Vec<&Point> = pts.iter().filter(|p| p.id == 1).collect();
    assert_eq!(ones.len(), 1, "id 1 exists exactly once");
    assert_eq!((ones[0].x, ones[0].y), (5.0, 5.0), "…at its pre-batch spot");
    assert!(pts.iter().any(|p| p.id == 9), "the earlier record replays");
    assert!(
        pts.iter().all(|p| p.id != 77_777),
        "nothing of the torn batch replays"
    );
}

/// The per-shard recipes and block counts of a relation's bases.
fn shard_layout(db: &Database, name: &str) -> Vec<(IndexConfig, usize)> {
    db.relation(name)
        .unwrap()
        .shards()
        .iter()
        .map(|s| (s.base().recipe(), s.base().num_blocks()))
        .collect()
}

/// A uniform cloud plus a dense cluster, so quadtree and STR shards differ.
fn clustered_cloud() -> Vec<Point> {
    let mut pts = scattered(1_500, 0, 5);
    pts.extend(
        scattered(600, 2_000, 6)
            .into_iter()
            .map(|p| Point::new(p.id, 10.0 + p.x * 0.1, 12.0 + p.y * 0.1)),
    );
    pts
}

#[test]
fn sharded_grid_shards_keep_the_relation_cell_size() {
    let tmp = TempDir::new("layout");
    let cfg = StoreConfig {
        compaction_threshold: 1_000_000,
        sharding: ShardConfig::per_axis(3),
        durability: DurabilityConfig::at(tmp.path()),
    };
    let pts = clustered_cloud();
    let tenths = vec![(IndexConfig::Grid { cells_per_axis: 10 }, 100); 9];
    // Quadtree and STR shard bases are built with the relation recipe, as
    // before shards had recipes of their own: these are the block counts
    // that layout gave.
    let quad_blocks = [52, 16, 16, 16, 16, 16, 16, 16, 16];
    let str_registered = [25, 6, 6, 6, 6, 6, 6, 6, 6];
    let str_compacted = [30, 9, 8, 9, 9, 8, 9, 9, 9];
    let blocks = |layout: Vec<(IndexConfig, usize)>| -> Vec<usize> {
        layout.into_iter().map(|(_, n)| n).collect()
    };
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register("Grid", GridIndex::build(pts.clone(), 30).unwrap());
        db.register("Quad", QuadtreeIndex::build(pts.clone(), 32).unwrap());
        db.register("Str", StrRTree::build(pts.clone(), 32).unwrap());
        assert_eq!(shard_layout(&db, "Grid"), tenths, "after register");
        assert_eq!(blocks(shard_layout(&db, "Quad")), quad_blocks);
        assert_eq!(blocks(shard_layout(&db, "Str")), str_registered);
        // Moves in every shard, then a fold of every shard.
        let ops: Vec<WriteOp> = pts
            .iter()
            .step_by(7)
            .map(|p| WriteOp::Upsert(Point::new(p.id, p.y, p.x)))
            .chain(scattered(300, 10_000, 8).into_iter().map(WriteOp::Upsert))
            .collect();
        for name in ["Grid", "Quad", "Str"] {
            db.ingest(name, &ops).unwrap();
            db.compact_now(name).unwrap();
            assert_eq!(db.relation(name).unwrap().delta_len(), 0, "{name}");
        }
        assert_eq!(shard_layout(&db, "Grid"), tenths, "after compact_now");
        assert_eq!(blocks(shard_layout(&db, "Quad")), quad_blocks);
        assert_eq!(blocks(shard_layout(&db, "Str")), str_compacted);
        // The relation keeps its own recipe (the manifest's, after a reopen).
        assert_eq!(
            db.store().get("Grid").unwrap().config(),
            IndexConfig::Grid { cells_per_axis: 30 }
        );
        db.pool().wait_idle();
    }
    let db = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(shard_layout(&db, "Grid"), tenths, "after Database::open");
    assert_eq!(blocks(shard_layout(&db, "Quad")), quad_blocks);
    assert_eq!(blocks(shard_layout(&db, "Str")), str_compacted);
    assert_eq!(
        db.store().get("Grid").unwrap().config(),
        IndexConfig::Grid { cells_per_axis: 30 }
    );

    // An unsharded grid is the registered index itself, before and after a
    // fold.
    let mut flat = Database::new();
    flat.register("Grid", GridIndex::build(pts.clone(), 30).unwrap());
    let thirties = vec![(IndexConfig::Grid { cells_per_axis: 30 }, 900)];
    assert_eq!(shard_layout(&flat, "Grid"), thirties);
    flat.ingest(
        "Grid",
        &[WriteOp::Remove(3), WriteOp::Upsert(Point::new(9, 1.0, 2.0))],
    )
    .unwrap();
    flat.compact_now("Grid").unwrap();
    assert_eq!(shard_layout(&flat, "Grid"), thirties);
}

/// Copies a directory tree (the fixture) so a test can open and rewrite it.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        if path.is_dir() {
            copy_tree(&path, &to.join(entry.file_name()));
        } else {
            std::fs::copy(&path, to.join(entry.file_name())).unwrap();
        }
    }
}

/// What a store opened from the legacy fixture answers, as text: the visible
/// points of both relations, then the id rows of each fixture query.
fn legacy_answers(db: &Database) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for name in ["Objects", "Sites"] {
        for p in visible_points(db, name) {
            writeln!(out, "{name} {} {:?} {:?}", p.id, p.x, p.y).unwrap();
        }
    }
    let focal = Point::anonymous(48.0, 52.0);
    let specs = [
        QuerySpec::TwoSelects {
            relation: "Objects".into(),
            query: TwoSelectsQuery::new(7, focal, 60, Point::anonymous(40.0, 60.0)),
        },
        QuerySpec::SelectInnerOfJoin {
            outer: "Sites".into(),
            inner: "Objects".into(),
            query: SelectInnerJoinQuery::new(2, 9, focal),
        },
        QuerySpec::SelectOuterOfJoin {
            outer: "Objects".into(),
            inner: "Sites".into(),
            query: SelectOuterJoinQuery::new(2, 6, focal),
        },
        QuerySpec::UnchainedJoins {
            a: "Sites".into(),
            b: "Objects".into(),
            c: "Sites".into(),
            query: UnchainedJoinQuery::new(2, 2),
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        for row in id_rows(&db.execute(spec).unwrap()) {
            writeln!(out, "shape {i} {row:?}").unwrap();
        }
    }
    for text in [
        "FIND Objects WHERE KNN(9, 12.5, 87.5)",
        "FIND Objects WHERE KNN(5, 50, 50) AND KNN(40, 55, 45)",
    ] {
        for row in id_rows(&db.query(text).unwrap()) {
            writeln!(out, "{text} {row:?}").unwrap();
        }
    }
    out
}

/// `tests/fixtures/legacy_2x2_grid` is a durable directory written when
/// every shard of a sharded grid was built with the relation recipe: two
/// 2×2-sharded relations, `Objects` (`Grid { 8 }`, 320 points) and `Sites`
/// (`Grid { 4 }`, 60 points), each shard file holding the relation recipe's
/// `n × n` cells, plus a WAL tail of five batches (inserts, moves across
/// shards, removes, a re-upsert of a removed base id) that no block file
/// covers. `expected.txt` holds what that build answered after reopening
/// it. Today's build must answer the same, fold a shard into the shard
/// recipe at its next compaction, and reopen the rewritten files too.
#[test]
fn legacy_shard_block_files_reopen_with_the_same_rows() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_2x2_grid");
    let expected = std::fs::read_to_string(fixture.join("expected.txt")).unwrap();
    let tmp = TempDir::new("legacy");
    copy_tree(&fixture, tmp.path());
    let cfg = StoreConfig {
        compaction_threshold: 1_000_000,
        sharding: ShardConfig::per_axis(2),
        durability: DurabilityConfig::at(tmp.path()),
    };
    let grids = |n: usize| vec![(IndexConfig::Grid { cells_per_axis: n }, n * n); 4];
    {
        let db = Database::open(tmp.path(), cfg.clone()).unwrap();
        assert_eq!(db.store_metrics().recoveries, 2);
        assert_eq!(shard_layout(&db, "Objects"), grids(8), "legacy files open");
        assert_eq!(shard_layout(&db, "Sites"), grids(4));
        assert_eq!(legacy_answers(&db), expected, "reopened rows");
        // The WAL tail left a delta in every shard of `Objects`: the fold
        // rewrites each one at the shard recipe, 4 × 4 cells.
        assert!(db
            .relation("Objects")
            .unwrap()
            .shards()
            .iter()
            .all(|s| s.delta_len() > 0));
        db.compact_now("Objects").unwrap();
        assert_eq!(
            shard_layout(&db, "Objects"),
            grids(4),
            "folded at the shard recipe"
        );
        assert_eq!(legacy_answers(&db), expected, "rows after the fold");
        db.pool().wait_idle();
    }
    let db = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(
        shard_layout(&db, "Objects"),
        grids(4),
        "rewritten files open"
    );
    assert_eq!(shard_layout(&db, "Sites"), grids(4));
    assert_eq!(
        legacy_answers(&db),
        expected,
        "rows after the second reopen"
    );
}

/// The highest block-file generation in a relation directory.
fn newest_generation(rel: &Path) -> u64 {
    std::fs::read_dir(rel)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_suffix(".blk")?.rsplit('-').next()?.parse().ok()
        })
        .max()
        .unwrap()
}

/// The details of the `PersistFailed` events recorded since the last drain.
fn persist_failures(db: &Database) -> Vec<String> {
    db.drain_events()
        .into_iter()
        .filter(|e| e.kind == EventKind::PersistFailed)
        .map(|e| e.detail)
        .collect()
}

#[test]
fn a_failed_shard_persist_is_an_event_and_the_wal_keeps_its_ops() {
    let tmp = TempDir::new("persist-fail");
    let cfg = StoreConfig {
        compaction_threshold: 1_000_000, // folds only when asked
        sharding: ShardConfig::per_axis(2),
        durability: DurabilityConfig::Enabled {
            dir: tmp.path().to_path_buf(),
            sync: SyncPolicy::EveryBatch,
            segment_bytes: 512,
        },
    };
    let initial = scattered(400, 0, 11);
    // Writes in every shard: fresh ids, removes, moves out of and into the
    // low corner (shard 0).
    let stages: Vec<Vec<WriteOp>> = (0..3u64)
        .map(|stage| {
            scattered(24, 10_000 + stage * 100, 40 + stage)
                .into_iter()
                .map(WriteOp::Upsert)
                .chain([
                    WriteOp::Upsert(Point::new(20 + stage, 1.0 + stage as f64, 2.0)),
                    WriteOp::Upsert(Point::new(30 + stage, 104.0, 103.0 - stage as f64)),
                    WriteOp::Remove(50 + stage),
                ])
                .collect()
        })
        .collect();
    let mut twin = Database::with_store_config(StoreConfig {
        durability: DurabilityConfig::Disabled,
        ..cfg.clone()
    });
    twin.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
        let rel = rel_dir(tmp.path(), "Objects");
        // Every block file shard 0 could write next has a directory at its
        // temp path, so `File::create` fails there even for root; the other
        // shards persist as usual.
        let gen = newest_generation(&rel);
        for g in gen + 1..=gen + 64 {
            std::fs::create_dir(rel.join(format!("shard-0-{g}.blk.tmp"))).unwrap();
        }
        assert!(persist_failures(&db).is_empty());

        db.ingest("Objects", &stages[0]).unwrap();
        twin.ingest("Objects", &stages[0]).unwrap();
        assert!(db.relation("Objects").unwrap().shards()[0].delta_len() > 0);
        db.compact_now("Objects").unwrap();
        let failed = persist_failures(&db);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(
            failed[0].starts_with("Objects shard 0: ") && failed[0].len() > 17,
            "names the relation, the shard and the error: {}",
            failed[0]
        );

        // Shard 0 is clean in memory now but stale on disk: a checkpoint
        // must not advance its covered_seq, so no WAL segment goes.
        db.ingest("Objects", &stages[1]).unwrap();
        twin.ingest("Objects", &stages[1]).unwrap();
        let segments = wal_segments(&rel);
        assert!(segments.len() > 1, "the workload must roll WAL segments");
        db.checkpoint();
        let failed = persist_failures(&db);
        assert_eq!(
            failed.len(),
            1,
            "the checkpoint's fold of shard 0: {failed:?}"
        );
        assert!(failed[0].starts_with("Objects shard 0: "), "{}", failed[0]);
        assert_eq!(
            wal_segments(&rel),
            segments,
            "a stale shard keeps every WAL segment"
        );

        // A manifest that cannot be rewritten is an event too.
        std::fs::create_dir(rel.join("MANIFEST.tmp")).unwrap();
        db.checkpoint();
        let failed = persist_failures(&db);
        assert!(
            failed.iter().any(|d| d.starts_with("Objects manifest: ")),
            "{failed:?}"
        );
        std::fs::remove_dir(rel.join("MANIFEST.tmp")).unwrap();

        // Dropped without a checkpoint: the last stage lives in the WAL only.
        db.ingest("Objects", &stages[2]).unwrap();
        twin.ingest("Objects", &stages[2]).unwrap();
        db.pool().wait_idle();
    }
    let reopened = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(
        visible_points(&reopened, "Objects"),
        visible_points(&twin, "Objects")
    );
}

/// A small xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A position over roughly [0, 110]², fine enough to stay tie-free.
    fn point(&mut self, id: u64) -> Point {
        let x = self.below(100_000) as f64 * 0.0011;
        let y = self.below(100_000) as f64 * 0.0011;
        Point::new(id, x, y)
    }
}

/// Writer `w`'s batches — upserts anywhere in the extent (so moves often
/// cross shards), fresh inserts and removes — over the ids it alone owns:
/// the initial ids `≡ w (mod writers)` and fresh ids from `100_000 (w + 1)`.
/// Returns them with the model of its ids after all of them.
fn writer_batches(
    w: u64,
    writers: u64,
    initial: &[Point],
) -> (Vec<Vec<WriteOp>>, BTreeMap<u64, Point>) {
    let mut model: BTreeMap<u64, Point> = initial
        .iter()
        .filter(|p| p.id % writers == w)
        .map(|p| (p.id, *p))
        .collect();
    let owned: Vec<u64> = model.keys().copied().collect();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (w + 1));
    let mut fresh = 100_000 * (w + 1);
    let batches = (0..150)
        .map(|_| {
            (0..16)
                .map(|_| {
                    let op = match rng.below(5) {
                        0 => WriteOp::Remove(owned[rng.below(owned.len() as u64) as usize]),
                        1 => {
                            fresh += 1;
                            WriteOp::Upsert(rng.point(fresh))
                        }
                        _ => {
                            let id = owned[rng.below(owned.len() as u64) as usize];
                            WriteOp::Upsert(rng.point(id))
                        }
                    };
                    match op {
                        WriteOp::Upsert(p) => model.insert(p.id, p),
                        WriteOp::Remove(id) => model.remove(&id),
                    };
                    op
                })
                .collect()
        })
        .collect();
    (batches, model)
}

#[test]
fn concurrent_writers_checkpoints_and_readers_recover_every_write() {
    const WRITERS: u64 = 3;
    let tmp = TempDir::new("stress");
    let cfg = StoreConfig {
        compaction_threshold: 64, // background rebuilds publish constantly
        sharding: ShardConfig::per_axis(3),
        durability: DurabilityConfig::at(tmp.path()),
    };
    let initial = scattered(900, 0, 3);
    let sites = GridIndex::build(scattered(250, 50_000, 4), 6).unwrap();
    let aux = GridIndex::build(scattered(120, 80_000, 9), 5).unwrap();
    let (batches, models): (Vec<_>, Vec<_>) = (0..WRITERS)
        .map(|w| writer_batches(w, WRITERS, &initial))
        .unzip();
    let mut expected: Vec<Point> = models.iter().flat_map(|m| m.values().copied()).collect();
    expected.sort_unstable_by_key(|p| p.id);

    let mut twin = Database::with_store_config(StoreConfig {
        durability: DurabilityConfig::Disabled,
        ..cfg.clone()
    });
    {
        let mut db = Database::with_store_config(cfg.clone());
        for d in [&mut db, &mut twin] {
            d.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
            d.register("Sites", sites.clone());
            d.register("Aux", aux.clone());
        }
        let (db, finished) = (&db, &AtomicUsize::new(0));
        // The number of finished checkpoints, and its signal.
        let (checkpoints, checkpointed) = (&Mutex::new(0), &Condvar::new());
        let pins = std::thread::scope(|scope| {
            for writer in &batches {
                scope.spawn(move || {
                    for (at, ops) in writer.iter().enumerate() {
                        // Batch `at` waits for `at / 50` checkpoints: a
                        // checkpoint drains the pool, which writers that keep
                        // scheduling rebuilds would otherwise put off to the
                        // end.
                        let done = checkpoints.lock().unwrap();
                        drop(checkpointed.wait_while(done, |n| *n < at / 50).unwrap());
                        db.ingest("Objects", ops).unwrap();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            let running = move || finished.load(Ordering::SeqCst) < WRITERS as usize;
            scope.spawn(move || loop {
                db.checkpoint();
                *checkpoints.lock().unwrap() += 1;
                checkpointed.notify_all();
                if !running() {
                    break;
                }
            });
            let reader = scope.spawn(move || {
                let mut n = 0;
                loop {
                    let snap = db.relation("Objects").unwrap();
                    snap.check_overlay_invariants()
                        .unwrap_or_else(|e| panic!("version {}: {e}", snap.version()));
                    n += 1;
                    if !running() {
                        return n;
                    }
                }
            });
            reader.join().unwrap()
        });
        assert!(*checkpoints.lock().unwrap() >= 3 && pins > 0);
        for writer in &batches {
            for ops in writer {
                twin.ingest("Objects", ops).unwrap();
            }
        }
        assert_eq!(visible_points(db, "Objects"), expected);
        assert!(db.store_metrics().compactions > 0, "rebuilds ran");
        // Dropped without a checkpoint, once the background rebuilds are done.
        db.pool().wait_idle();
    }
    let reopened = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(
        visible_points(&reopened, "Objects"),
        expected,
        "the union of the writers' models"
    );
    assert_eq!(visible_points(&twin, "Objects"), expected);
    for (i, spec) in all_query_shapes().iter().enumerate() {
        assert_eq!(
            id_rows(&reopened.execute(spec).unwrap()),
            id_rows(&twin.execute(spec).unwrap()),
            "query shape #{i} diverged after recovery"
        );
    }
}
