//! Property-style tests of the index substrate: structural invariants of the
//! three index types, MINDIST/MAXDIST bounds, and correctness of the
//! locality-based kNN against a brute-force oracle.
//! Inputs come from the workspace's deterministic RNG instead of `proptest`.

use std::sync::Arc;

use two_knn::core::plan::Database;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, WriteOp};
use two_knn::datagen::rng::StdRng;
use two_knn::geometry::{euclidean, maxdist, mindist, rect_maxdist_sq, rect_mindist_sq};
use two_knn::index::{
    brute_force_knn, check_index_invariants, get_knn, get_knn_bounded, BlockDirectory, BlockId,
    BlockKnn, BlockMeta, BlockOrder, BlockPoints, DistanceCursor, Locality, Metrics, Neighbor,
    OrderMetric, ScratchSpace,
};
use two_knn::{GridIndex, Point, QuadtreeIndex, Rect, SpatialIndex, StrRTree};

const CASES: u64 = 64;

fn points(rng: &mut StdRng, max_n: usize) -> Vec<Point> {
    let n = rng.gen_range(1..max_n + 1);
    (0..n)
        .map(|i| {
            Point::new(
                i as u64,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )
        })
        .collect()
}

fn sorted_ids(n: &two_knn::Neighborhood) -> Vec<u64> {
    let mut ids = n.ids();
    ids.sort_unstable();
    ids
}

/// Distances from the query to the k-th neighbor must agree even when ties
/// make the chosen ids differ.
fn radii_equal(a: &two_knn::Neighborhood, b: &two_knn::Neighborhood) -> bool {
    (a.radius() - b.radius()).abs() < 1e-9 && a.len() == b.len()
}

/// MINDIST ≤ d(p, q) ≤ MAXDIST for every q inside the rectangle.
#[test]
fn mindist_and_maxdist_bound_point_distances() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let p = Point::anonymous(
            rng.gen_range(-100.0f64..1100.0),
            rng.gen_range(-100.0f64..1100.0),
        );
        let x0 = rng.gen_range(0.0f64..500.0);
        let y0 = rng.gen_range(0.0f64..500.0);
        let w = rng.gen_range(0.1f64..400.0);
        let h = rng.gen_range(0.1f64..400.0);
        let r = Rect::new(x0, y0, x0 + w, y0 + h);
        let q = Point::anonymous(
            x0 + rng.gen_range(0.0f64..1.0) * w,
            y0 + rng.gen_range(0.0f64..1.0) * h,
        );
        let d = euclidean(&p, &q);
        assert!(mindist(&p, &r) <= d + 1e-9, "case {case}");
        assert!(d <= maxdist(&p, &r) + 1e-9, "case {case}");
        assert!(mindist(&p, &r) <= maxdist(&p, &r) + 1e-9, "case {case}");
    }
}

/// All three index structures satisfy the structural invariants and preserve
/// every input point.
#[test]
fn indexes_preserve_points_and_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + case);
        let pts = points(&mut rng, 300);
        let n = pts.len();
        let grid = GridIndex::build(pts.clone(), 6).unwrap();
        let quad = QuadtreeIndex::build(pts.clone(), 16).unwrap();
        let rtree = StrRTree::build(pts, 16).unwrap();
        for index in [
            &grid as &dyn SpatialIndex,
            &quad as &dyn SpatialIndex,
            &rtree as &dyn SpatialIndex,
        ] {
            assert_eq!(index.num_points(), n, "case {case}");
            assert!(check_index_invariants(index).is_ok(), "case {case}");
        }
    }
}

/// The locality-based getkNN agrees with a brute-force oracle (up to
/// distance ties), on every index type.
#[test]
fn knn_matches_brute_force_on_all_indexes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + case);
        let pts = points(&mut rng, 250);
        let q = Point::anonymous(
            rng.gen_range(-50.0f64..1050.0),
            rng.gen_range(-50.0f64..1050.0),
        );
        let k = rng.gen_range(1..20usize);
        let grid = GridIndex::build(pts.clone(), 5).unwrap();
        let quad = QuadtreeIndex::build(pts.clone(), 12).unwrap();
        let rtree = StrRTree::build(pts, 12).unwrap();
        let mut m = Metrics::default();
        for index in [
            &grid as &dyn SpatialIndex,
            &quad as &dyn SpatialIndex,
            &rtree as &dyn SpatialIndex,
        ] {
            let oracle = brute_force_knn(index, &q, k);
            let locality_based = get_knn(index, &q, k, &mut m);
            // Ties at the k-th distance can legitimately produce different id
            // choices, so compare ids when radii match strictly, and radii
            // always.
            assert!(radii_equal(&oracle, &locality_based), "case {case}");
            if oracle.len() == oracle.k() {
                // Every returned member must be at distance <= oracle radius.
                for nb in locality_based.members() {
                    assert!(nb.distance <= oracle.radius() + 1e-9, "case {case}");
                }
            } else {
                // Fewer than k points in the relation: all ids must match.
                assert_eq!(
                    sorted_ids(&locality_based),
                    sorted_ids(&oracle),
                    "case {case}"
                );
            }
        }
    }
}

/// The locality always covers the true k nearest neighbors, and the bounded
/// locality never contains a block farther than the threshold.
#[test]
fn locality_covers_knn_and_respects_threshold() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + case);
        let pts = points(&mut rng, 300);
        let q = Point::anonymous(rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0));
        let k = rng.gen_range(1..15usize);
        let threshold = rng.gen_range(10.0f64..500.0);
        let grid = GridIndex::build(pts, 8).unwrap();
        let mut m = Metrics::default();

        let locality = Locality::build(&grid, &q, k, &mut m);
        let covered: std::collections::HashSet<u64> = locality
            .blocks()
            .iter()
            .flat_map(|b| grid.block_points(b.id))
            .map(|p| p.id)
            .collect();
        for nb in brute_force_knn(&grid, &q, k).members() {
            assert!(covered.contains(&nb.point.id), "case {case}");
        }

        let bounded = Locality::build_bounded(&grid, &q, k, threshold, &mut m);
        for b in bounded.blocks() {
            assert!(b.mindist(&q) <= threshold + 1e-9, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// SoA-vs-AoS equivalence (the columnar block layout and batched kernels)
// ---------------------------------------------------------------------------

/// The three index families as trait objects over one point set.
fn build_families(pts: &[Point]) -> [(&'static str, Box<dyn SpatialIndex>); 3] {
    [
        (
            "grid",
            Box::new(GridIndex::build(pts.to_vec(), 6).unwrap()) as Box<dyn SpatialIndex>,
        ),
        (
            "quadtree",
            Box::new(QuadtreeIndex::build(pts.to_vec(), 14).unwrap()),
        ),
        (
            "rtree",
            Box::new(StrRTree::build(pts.to_vec(), 14).unwrap()),
        ),
    ]
}

/// The SoA block columns must reassemble exactly the points the index was
/// built from: per block, the view's length matches the directory count and
/// its MBR bounds every reassembled row; globally, the multiset of rows is
/// the input point set, bit-for-bit.
#[test]
fn soa_blocks_reassemble_the_original_points() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + case);
        let pts = points(&mut rng, 300);
        for (family, index) in build_families(&pts) {
            let mut rows: Vec<Point> = Vec::new();
            for b in index.blocks() {
                let view = index.block_points(b.id);
                assert_eq!(view.len(), b.count, "{family} case {case}");
                assert_eq!(view.ids().len(), view.xs().len(), "{family} case {case}");
                assert_eq!(view.ids().len(), view.ys().len(), "{family} case {case}");
                for (i, p) in view.iter().enumerate() {
                    // Column accessors and the by-value iterator agree.
                    assert_eq!(p, view.get(i), "{family} case {case}");
                    assert!(b.mbr.contains(&p), "{family} case {case}");
                    rows.push(p);
                }
            }
            let mut expected = pts.clone();
            expected.sort_by_key(|p| p.id);
            rows.sort_by_key(|p| p.id);
            assert_eq!(rows, expected, "{family} case {case}");
        }
    }
}

/// Points that all lie at exactly the same distance (325, from integer
/// Pythagorean legs, so the squared distances are bit-identical) from
/// `(500, 500)`: which `k` of them win is decided by id alone.
fn all_tied_points() -> Vec<Point> {
    const LEGS: [(f64, f64); 8] = [
        (0.0, 325.0),
        (36.0, 323.0),
        (80.0, 315.0),
        (91.0, 312.0),
        (125.0, 300.0),
        (165.0, 280.0),
        (195.0, 260.0),
        (204.0, 253.0),
    ];
    let mut pts = Vec::new();
    for (a, b) in LEGS {
        for (dx, dy) in [(a, b), (b, a)] {
            for (sx, sy) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                // Descending ids, so insertion order never matches id order.
                pts.push(Point::new(
                    1_000 - pts.len() as u64,
                    500.0 + sx * dx,
                    500.0 + sy * dy,
                ));
            }
        }
    }
    pts
}

/// The batched SoA hot path (`get_knn`, τ-pruned, thread scratch reused
/// across all cases, families, and `k`s) returns *identical* neighborhoods to
/// the brute-force oracle — members, order, distances, tie choices — on every
/// index family, and scans no more points than the two-phase locality holds.
/// Besides the random cases the inputs include points all tied on distance
/// and points stacked on duplicate positions (queried on a stack, too).
#[test]
fn batched_knn_equals_scalar_baseline_on_all_families() {
    let mut inputs: Vec<(String, Vec<Point>, Point, usize)> = Vec::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5_000 + case);
        let pts = points(&mut rng, 280);
        let q = Point::anonymous(
            rng.gen_range(-50.0f64..1050.0),
            rng.gen_range(-50.0f64..1050.0),
        );
        let k = rng.gen_range(1..24usize);
        inputs.push((format!("case {case}"), pts, q, k));
    }
    let tied = all_tied_points();
    let mut rng = StdRng::seed_from_u64(5_900);
    let stacked = points_with_duplicates(&mut rng, 280);
    let on_stack = Point::anonymous(stacked[279].x, stacked[279].y);
    for k in [1usize, 5, 40, 300] {
        let center = Point::anonymous(500.0, 500.0);
        inputs.push((format!("all tied k={k}"), tied.clone(), center, k));
        inputs.push((format!("duplicates k={k}"), stacked.clone(), center, k));
        inputs.push((format!("on a stack k={k}"), stacked.clone(), on_stack, k));
    }
    for (ctx, pts, q, k) in inputs {
        for (family, index) in build_families(&pts) {
            let mut m = Metrics::default();
            let batched = get_knn(index.as_ref(), &q, k, &mut m);
            let oracle = brute_force_knn(index.as_ref(), &q, k);
            assert_eq!(batched, oracle, "{family} {ctx}");
            // τ-pruning may only ever *reduce* the scanned work.
            let locality = Locality::build(index.as_ref(), &q, k, &mut Metrics::default());
            assert!(
                m.points_scanned <= locality.point_count() as u64,
                "{family} {ctx}: the walk scanned more points than the locality holds"
            );
        }
    }
}

/// Mixed write workload: upserts of new ids, upserts moving existing ids,
/// and removes of base ids.
fn mixed_batch(rng: &mut StdRng, generation: u64, base_n: u64) -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for i in 0..40u64 {
        let roll = rng.gen_range(0..10usize);
        if roll < 5 {
            ops.push(WriteOp::Upsert(Point::new(
                10_000 + generation * 100 + i,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )));
        } else if roll < 8 {
            ops.push(WriteOp::Upsert(Point::new(
                rng.gen_range(0..base_n as usize) as u64,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )));
        } else {
            ops.push(WriteOp::Remove(rng.gen_range(0..base_n as usize) as u64));
        }
    }
    ops
}

/// Three consecutive mixed batches (generations `first..first + 3`) as one:
/// about 90 inserts, enough that the delta overlay's cells of about 32
/// inserts partition it.
fn mixed_batches(rng: &mut StdRng, first: u64, base_n: u64) -> Vec<WriteOp> {
    (first..first + 3)
        .flat_map(|generation| mixed_batch(&mut *rng, generation, base_n))
        .collect()
}

/// SoA equivalence through the store: snapshots whose blocks are
/// tombstone-filtered base blocks plus overlay-grid cells must give the same
/// answers as brute force over the merged points, and never resurrect a
/// removed id.
#[test]
fn soa_equivalence_holds_on_tombstone_filtered_overlay_blocks() {
    for (family, build) in [("grid", 0usize), ("quadtree", 1usize), ("rtree", 2usize)] {
        let mut rng = StdRng::seed_from_u64(6_000 + build as u64);
        let base = points(&mut rng, 400);
        let base_n = base.len() as u64;
        // Huge threshold: nothing compacts, every read goes through the
        // delta overlay; three batches' inserts partition it.
        let mut db = Database::with_store_config(StoreConfig {
            compaction_threshold: usize::MAX,
            ..StoreConfig::default()
        });
        match build {
            0 => db.register("R", GridIndex::build(base.clone(), 6).unwrap()),
            1 => db.register("R", QuadtreeIndex::build(base.clone(), 16).unwrap()),
            _ => db.register("R", StrRTree::build(base.clone(), 16).unwrap()),
        };
        let ops = mixed_batches(&mut rng, 0, base_n);
        db.ingest("R", &ops).unwrap();
        let snap = db.relation("R").unwrap();
        assert!(snap.delta_len() > 0, "{family}: delta must be non-empty");
        assert!(
            snap.overlay_block_count() > 1,
            "{family}: the overlay must be partitioned"
        );

        let removed: std::collections::HashSet<u64> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Remove(id) if !snap.contains_id(*id) => Some(*id),
                _ => None,
            })
            .collect();
        // Tombstone-filtered base blocks never leak a removed id.
        for b in snap.blocks() {
            for p in snap.block_points(b.id) {
                assert!(!removed.contains(&p.id), "{family}: tombstone leaked");
            }
        }
        for case in 0..16u64 {
            let q = Point::anonymous(
                rng.gen_range(-50.0f64..1050.0),
                rng.gen_range(-50.0f64..1050.0),
            );
            let k = rng.gen_range(1..16usize);
            let mut m = Metrics::default();
            let batched = get_knn(&*snap, &q, k, &mut m);
            assert_eq!(
                batched,
                brute_force_knn(&*snap, &q, k),
                "{family} case {case}"
            );
            for nb in batched.members() {
                assert!(!removed.contains(&nb.point.id), "{family} case {case}");
            }
        }
    }
}

/// Drift test: across several mixed ingest batches (and a mid-stream
/// compaction) the batched kNN over the live snapshot stays identical to a
/// from-scratch index over the snapshot's merged points — the SoA overlay
/// and tombstone filtering introduce no generational drift.
#[test]
fn batched_knn_does_not_drift_across_mixed_ingest_batches() {
    let mut rng = StdRng::seed_from_u64(7_000);
    let base = points(&mut rng, 350);
    let base_n = base.len() as u64;
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        ..StoreConfig::default()
    });
    db.register("R", GridIndex::build(base, 6).unwrap());
    let mut partitioned = false;
    for generation in 0..6u64 {
        db.ingest("R", &mixed_batches(&mut rng, generation * 3, base_n))
            .unwrap();
        if generation == 3 {
            // Fold the accumulated delta mid-stream: later generations run
            // against a rebuilt base plus a fresh overlay.
            db.compact_now("R").unwrap();
        }
        let snap = db.relation("R").unwrap();
        partitioned |= snap.overlay_block_count() > 1;
        snap.check_overlay_invariants()
            .unwrap_or_else(|e| panic!("generation {generation}: {e}"));
        let reference = GridIndex::build_with_bounds(snap.merged_points(), snap.bounds(), 6)
            .expect("snapshot is non-empty");
        assert_eq!(snap.num_points(), reference.num_points());
        for case in 0..12u64 {
            let q = Point::anonymous(rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0));
            let k = rng.gen_range(1..12usize);
            let mut m = Metrics::default();
            let live = get_knn(&*snap, &q, k, &mut m);
            let rebuilt = get_knn(&reference, &q, k, &mut m);
            // The k smallest (distance², id) pairs are a unique selection
            // over the same logical point set, whatever the block layout —
            // the overlay/tombstone view and the rebuilt index must agree
            // exactly, members and all.
            assert_eq!(
                live, rebuilt,
                "generation {generation} case {case}: snapshot kNN drifted"
            );
        }
    }
    assert!(partitioned, "the overlay must have been partitioned");
}

// ---------------------------------------------------------------------------
// Directory cursor vs the flat reference ordering
// ---------------------------------------------------------------------------

/// `index` with its own directory swapped for one of a different shape:
/// packed from the block footprints alone — one shard, no overlay, no tiles
/// or quadrants — so every ordering over it walks a tree the index was not
/// built with, and must still yield the same blocks.
struct Flat<'a> {
    index: &'a dyn SpatialIndex,
    directory: BlockDirectory,
}

impl<'a> Flat<'a> {
    fn new(index: &'a dyn SpatialIndex) -> Self {
        let directory = BlockDirectory::packed(index.blocks());
        Self { index, directory }
    }
}

impl SpatialIndex for Flat<'_> {
    fn bounds(&self) -> Rect {
        self.index.bounds()
    }
    fn num_points(&self) -> usize {
        self.index.num_points()
    }
    fn blocks(&self) -> &[BlockMeta] {
        self.index.blocks()
    }
    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        self.index.block_points(id)
    }
    fn locate(&self, p: &Point) -> Option<BlockId> {
        self.index.locate(p)
    }
    fn directory(&self) -> &BlockDirectory {
        &self.directory
    }
}

/// Random points with every tenth one stacked on an earlier position.
fn points_with_duplicates(rng: &mut StdRng, n: usize) -> Vec<Point> {
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y) = if i % 10 == 9 {
            let twin = pts[rng.gen_range(0..i)];
            (twin.x, twin.y)
        } else {
            (rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0))
        };
        pts.push(Point::new(i as u64, x, y));
    }
    pts
}

/// A scratch directory removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "twoknn-index-properties-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One index of every kind: the three families, a shard snapshot carrying inserts and tombstones, a 3×3 relation snapshot
/// with an empty shard, a block file reopened from disk — and an index
/// without points.
fn directory_subjects(seed: u64) -> Vec<(&'static str, Arc<dyn SpatialIndex>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = points_with_duplicates(&mut rng, 700);
    let mut subjects: Vec<(&'static str, Arc<dyn SpatialIndex>)> = vec![
        ("grid", Arc::new(GridIndex::build(pts.clone(), 11).unwrap())),
        (
            "quadtree",
            Arc::new(QuadtreeIndex::build(pts.clone(), 9).unwrap()),
        ),
        ("rtree", Arc::new(StrRTree::build(pts.clone(), 9).unwrap())),
        (
            "empty grid",
            Arc::new(
                GridIndex::build_with_bounds(vec![], Rect::new(0.0, 0.0, 1000.0, 1000.0), 5)
                    .unwrap(),
            ),
        ),
    ];

    // Inserts (some outside the base extent) and tombstones, never folded.
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        ..StoreConfig::default()
    });
    db.register("R", QuadtreeIndex::build(pts.clone(), 9).unwrap());
    let mut ops = mixed_batches(&mut rng, 0, pts.len() as u64);
    ops.push(WriteOp::Upsert(Point::new(90_000, -40.0, 1100.0)));
    // Empty a whole base block, so its count drops to zero in the snapshot.
    let victim = db.relation("R").unwrap();
    let emptied = victim.blocks().iter().find(|b| b.count > 0).unwrap().id;
    ops.extend(
        victim
            .block_points(emptied)
            .iter()
            .map(|p| WriteOp::Remove(p.id)),
    );
    db.ingest("R", &ops).unwrap();
    let snap = db.relation("R").unwrap();
    assert!(snap.overlay_block_count() > 1 && snap.blocks()[emptied as usize].count == 0);
    subjects.push(("shard snapshot", snap.shards()[0].clone()));

    // 3×3 shards over points that leave the middle shard empty.
    let holed: Vec<Point> = pts
        .iter()
        .filter(|p| !(300.0..700.0).contains(&p.x) || !(300.0..700.0).contains(&p.y))
        .copied()
        .collect();
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        sharding: ShardConfig::per_axis(3),
        ..StoreConfig::default()
    });
    db.register("R", GridIndex::build(holed, 6).unwrap());
    let first = db.relation("R").unwrap().all_points()[0].id;
    db.ingest(
        "R",
        &[
            WriteOp::Upsert(Point::new(91_000, 50.0, 50.0)),
            WriteOp::Upsert(Point::new(91_001, 950.0, 40.5)),
            WriteOp::Upsert(Point::new(91_002, -30.0, 500.0)),
            WriteOp::Remove(first),
        ],
    )
    .unwrap();
    let snap = db.relation("R").unwrap();
    assert_eq!(snap.num_shards(), 9);
    assert!(snap.shards().iter().any(|s| s.num_points() == 0));
    subjects.push(("relation snapshot", snap));

    // A durable relation, dropped and reopened: its base is the block file.
    let tmp = TempDir::new(&format!("blockfile-{seed}"));
    let durable = StoreConfig {
        durability: DurabilityConfig::at(&tmp.0),
        ..StoreConfig::default()
    };
    {
        let mut db = Database::with_store_config(durable.clone());
        db.register("R", StrRTree::build(pts, 9).unwrap());
        db.checkpoint();
    }
    let db = Database::open(&tmp.0, durable).unwrap();
    let reopened = db.relation("R").unwrap().shards()[0].base().clone();
    subjects.push(("reopened block file", reopened));

    for (name, index) in &subjects {
        assert_eq!(
            index.directory().num_blocks(),
            index.num_blocks(),
            "{name}: the directory covers every block"
        );
    }
    subjects
}

/// Origins inside the data, far outside it, exactly on a block corner (where
/// several blocks tie on distance) and exactly on a stack of duplicates.
fn origins(index: &dyn SpatialIndex, rng: &mut StdRng) -> Vec<Point> {
    let blocks = index.blocks();
    let corner = blocks[rng.gen_range(0..blocks.len())].mbr;
    let mut origins = vec![
        Point::anonymous(
            rng.gen_range(100.0f64..900.0),
            rng.gen_range(100.0f64..900.0),
        ),
        Point::anonymous(-350.0, 1400.0),
        Point::anonymous(corner.max_x, corner.min_y),
        index.bounds().center(),
    ];
    let stored = index.all_points();
    if let Some(twin) = stored.iter().find(|p| {
        stored
            .iter()
            .any(|q| q.id != p.id && q.x == p.x && q.y == p.y)
    }) {
        origins.push(Point::anonymous(twin.x, twin.y));
    }
    origins
}

fn reference_order(blocks: &[BlockMeta], origin: &Point, metric: OrderMetric) -> Vec<(f64, u32)> {
    let mut order: Vec<(f64, u32)> = blocks
        .iter()
        .map(|b| {
            let key = match metric {
                OrderMetric::MinDist => b.mindist_sq(origin),
                OrderMetric::MaxDist => b.maxdist_sq(origin),
            };
            (key, b.id)
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order
}

/// The drained cursor equals the blocks sorted by `(distance², id)`; so does
/// every prefix of a cursor stopped early; `remaining()` counts down; and
/// the yielded metadata is the index's own.
#[test]
fn directory_cursor_equals_the_flat_reference_everywhere() {
    let mut scratch = ScratchSpace::new();
    for seed in [11u64, 12] {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        for (name, index) in directory_subjects(seed) {
            let index = index.as_ref();
            let blocks = index.blocks();
            for origin in origins(index, &mut rng) {
                for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
                    let ctx = format!("{name} seed {seed} {metric:?} from {origin}");
                    let want = reference_order(blocks, &origin, metric);
                    let flat: Vec<(f64, u32)> = BlockOrder::new(blocks, &origin, metric)
                        .map(|ob| (ob.distance_sq, ob.block.id))
                        .collect();
                    assert_eq!(flat, want, "flat ordering: {ctx}");

                    let mut cursor = DistanceCursor::new(index, &origin, metric, &mut scratch);
                    let mut got = Vec::with_capacity(blocks.len());
                    while let Some(ob) = cursor.next() {
                        assert_eq!(ob.block, blocks[ob.block.id as usize], "{ctx}");
                        assert_eq!(ob.distance, ob.distance_sq.sqrt(), "{ctx}");
                        got.push((ob.distance_sq, ob.block.id));
                        assert_eq!(cursor.remaining(), blocks.len() - got.len(), "{ctx}");
                    }
                    assert_eq!(cursor.remaining_nonempty(), 0, "{ctx}");
                    drop(cursor);
                    assert_eq!(got, want, "drained cursor: {ctx}");

                    for stop in [1, 2, 7, blocks.len() / 2] {
                        let prefix: Vec<(f64, u32)> =
                            DistanceCursor::new(index, &origin, metric, &mut scratch)
                                .take(stop)
                                .map(|ob| (ob.distance_sq, ob.block.id))
                                .collect();
                        assert_eq!(prefix, want[..stop.min(want.len())], "prefix {stop}: {ctx}");
                    }
                }
            }
        }
    }
}

/// Localities and neighborhoods built through the index's own directory are
/// the ones a packed directory of a different shape builds — same blocks in
/// the same order, so every downstream counter agrees; only `blocks_ordered`
/// (and the shard tier, which the packed directory flattens) differs.
/// Covers k = 0, k beyond the relation and the index without points.
#[test]
fn locality_through_the_cursor_equals_locality_through_the_flat_reference() {
    for seed in [21u64, 22] {
        let mut rng = StdRng::seed_from_u64(9_500 + seed);
        for (name, index) in directory_subjects(seed) {
            let index = index.as_ref();
            let flat = Flat::new(index);
            assert_eq!(flat.directory().num_shards(), 1);
            for origin in origins(index, &mut rng) {
                for k in [0usize, 1, 5, 40, index.num_points() + 3] {
                    let ctx = format!("{name} seed {seed} k={k} from {origin}");
                    let (mut m, mut mf) = (Metrics::default(), Metrics::default());
                    let via_cursor = Locality::build(index, &origin, k, &mut m);
                    let via_flat = Locality::build(&flat, &origin, k, &mut mf);
                    assert_eq!(via_cursor.blocks(), via_flat.blocks(), "{ctx}");
                    assert_eq!(
                        via_cursor.maxdist_bound(),
                        via_flat.maxdist_bound(),
                        "{ctx}"
                    );
                    let bounded = Locality::build_bounded(index, &origin, k, 120.0, &mut m);
                    let bounded_flat = Locality::build_bounded(&flat, &origin, k, 120.0, &mut mf);
                    assert_eq!(bounded.blocks(), bounded_flat.blocks(), "{ctx}");

                    let hood = get_knn(index, &origin, k, &mut m);
                    assert_eq!(hood, get_knn(&flat, &origin, k, &mut mf), "{ctx}");
                    assert_eq!(hood, brute_force_knn(index, &origin, k), "{ctx}");
                    assert_eq!(hood.len(), k.min(index.num_points()), "{ctx}");

                    // Five orderings a side (two per locality, one for the
                    // kNN walk). Both sides walk a directory, so neither
                    // bounds the other; a cursor keys each block and each
                    // directory node (shard roots included) at most once, so
                    // each side stays within five full walks of its own tree.
                    let at_most = |dir: &BlockDirectory| {
                        5 * (dir.num_blocks() + dir.num_nodes() + dir.num_shards()) as u64
                    };
                    assert!(m.blocks_ordered <= at_most(index.directory()), "{ctx}");
                    assert!(mf.blocks_ordered <= at_most(flat.directory()), "{ctx}");
                    // The packed side has no shard tier to count either.
                    let same = Metrics {
                        blocks_ordered: 0,
                        shards_scanned: 0,
                        shards_pruned: 0,
                        ..m
                    };
                    assert_eq!(
                        same,
                        Metrics {
                            blocks_ordered: 0,
                            ..mf
                        },
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// `Locality` is Definition 2 made executable, and the kNN walk is held to
/// it: every neighbor `get_knn` returns lies in a block of the locality, and
/// every neighbor `get_knn_bounded` returns within the threshold lies in a
/// block of the bounded locality.
#[test]
fn knn_members_lie_in_blocks_of_the_locality() {
    let covered_ids = |index: &dyn SpatialIndex, locality: &Locality| {
        locality
            .blocks()
            .iter()
            .flat_map(|b| index.block_points(b.id))
            .map(|p| p.id)
            .collect::<std::collections::HashSet<u64>>()
    };
    let threshold = 120.0;
    for seed in [31u64, 32] {
        let mut rng = StdRng::seed_from_u64(9_700 + seed);
        for (name, index) in directory_subjects(seed) {
            let index = index.as_ref();
            for origin in origins(index, &mut rng) {
                for k in [1usize, 5, 40, index.num_points() + 3] {
                    let ctx = format!("{name} seed {seed} k={k} from {origin}");
                    let mut m = Metrics::default();
                    let locality = Locality::build(index, &origin, k, &mut m);
                    let covered = covered_ids(index, &locality);
                    let hood = get_knn(index, &origin, k, &mut m);
                    assert_eq!(hood.len(), k.min(index.num_points()), "{ctx}");
                    for nb in hood.members() {
                        assert!(covered.contains(&nb.point.id), "{ctx}: {}", nb.point);
                    }

                    let bounded = Locality::build_bounded(index, &origin, k, threshold, &mut m);
                    let covered = covered_ids(index, &bounded);
                    let exact_within = hood.members().iter().filter(|n| n.distance <= threshold);
                    let got = get_knn_bounded(index, &origin, k, threshold, &mut m);
                    for nb in got.members().iter().filter(|n| n.distance <= threshold) {
                        assert!(covered.contains(&nb.point.id), "{ctx}: {}", nb.point);
                    }
                    // Bounded is exact within the threshold.
                    let got_ids: std::collections::HashSet<u64> = got.ids().into_iter().collect();
                    for nb in exact_within {
                        assert!(got_ids.contains(&nb.point.id), "{ctx}: {}", nb.point);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One locality per outer region: the rect-origin cursor and `BlockKnn`
// ---------------------------------------------------------------------------

/// A cursor keyed from a rectangle yields every block in ascending
/// `(rect-to-rect distance², id)` — MINDIST and MAXDIST alike — and a
/// degenerate rectangle yields exactly the point cursor's sequence.
#[test]
fn rect_origin_cursor_equals_the_flat_reference_everywhere() {
    let mut scratch = ScratchSpace::new();
    for seed in [41u64, 42] {
        let mut rng = StdRng::seed_from_u64(9_800 + seed);
        for (name, index) in directory_subjects(seed) {
            let index = index.as_ref();
            for origin in origins(index, &mut rng) {
                let (w, h) = (rng.gen_range(0.0f64..300.0), rng.gen_range(0.0f64..300.0));
                let wide = Rect::new(origin.x, origin.y, origin.x + w, origin.y + h);
                for region in [Rect::from(origin), wide] {
                    for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
                        let ctx = format!("{name} seed {seed} {metric:?} from {region}");
                        let mut want: Vec<(f64, u32)> = index
                            .blocks()
                            .iter()
                            .map(|b| {
                                let key = match metric {
                                    OrderMetric::MinDist => rect_mindist_sq(&region, &b.mbr),
                                    OrderMetric::MaxDist => rect_maxdist_sq(&region, &b.mbr),
                                };
                                (key, b.id)
                            })
                            .collect();
                        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        let got: Vec<(f64, u32)> =
                            DistanceCursor::around(index, &region, metric, &mut scratch)
                                .map(|ob| (ob.distance_sq, ob.block.id))
                                .collect();
                        assert_eq!(got, want, "{ctx}");
                    }
                }
                let from_point: Vec<(f64, u32)> =
                    DistanceCursor::new(index, &origin, OrderMetric::MinDist, &mut scratch)
                        .map(|ob| (ob.distance_sq, ob.block.id))
                        .collect();
                assert_eq!(
                    from_point,
                    reference_order(index.blocks(), &origin, OrderMetric::MinDist),
                    "{name}: a degenerate rect is its point"
                );
            }
        }
    }
}

/// Groups of outer points whose tight box is a [`BlockKnn`] region: a
/// random cloud, one point, a stack of duplicates, the corners of a few
/// blocks (where several blocks tie on distance), and a cloud straddling
/// the data's corner.
fn outer_groups(index: &dyn SpatialIndex, rng: &mut StdRng) -> Vec<(&'static str, Vec<Point>)> {
    let x0 = rng.gen_range(0.0f64..850.0);
    let y0 = rng.gen_range(0.0f64..850.0);
    let (sx, sy) = (rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0));
    let mut cloud = |x0: f64, y0: f64, side: f64| -> Vec<Point> {
        (0..40u64)
            .map(|i| {
                Point::new(
                    i,
                    x0 + rng.gen_range(0.0f64..side),
                    y0 + rng.gen_range(0.0f64..side),
                )
            })
            .collect()
    };
    let blocks = index.blocks();
    let corners: Vec<Point> = blocks
        .iter()
        .step_by((blocks.len() / 5).max(1))
        .flat_map(|b| b.mbr.corners())
        .enumerate()
        .map(|(i, c)| Point::new(i as u64, c.x, c.y))
        .collect();
    vec![
        ("cloud", cloud(x0, y0, 150.0)),
        ("one point", vec![Point::new(7, sx, sy)]),
        (
            "duplicates",
            (0..12).map(|i| Point::new(i, sy, sx)).collect(),
        ),
        ("block corners", corners),
        ("straddling", cloud(-60.0, 940.0, 120.0)),
    ]
}

/// Prepares one [`BlockKnn`] over the tight box of `group` and holds every
/// point's neighborhood to `get_knn` and to brute force — members, order,
/// distances, tie choices — and its counters to the `get_knn` path's:
/// one neighborhood each, scanned + pruned = the non-empty inner blocks.
fn assert_block_knn_matches(index: &dyn SpatialIndex, group: &[Point], k: usize, ctx: &str) {
    let region = Rect::bounding(group).unwrap();
    let mut prepared = Metrics::default();
    let mut knn = BlockKnn::prepare(index, &region, k, &mut prepared);
    assert_eq!(prepared.neighborhoods_computed, 0, "{ctx}");
    if k == 0 || index.num_points() == 0 {
        assert_eq!(prepared, Metrics::default(), "{ctx}: nothing to walk");
    }
    let nonempty = index.blocks().iter().filter(|b| b.count > 0).count() as u64;
    assert_eq!(knn.neighborhood_len(), k.min(index.num_points()), "{ctx}");
    let mut got = vec![Neighbor::UNSET; knn.neighborhood_len()];
    for p in group {
        let (mut m, mut mg) = (Metrics::default(), Metrics::default());
        knn.get(p, &mut got, &mut m);
        assert_eq!(got, get_knn(index, p, k, &mut mg).members(), "{ctx}: {p}");
        assert_eq!(got, brute_force_knn(index, p, k).members(), "{ctx}: {p}");
        assert_eq!(m.neighborhoods_computed, 1, "{ctx}: {p}");
        let walked = if k == 0 { 0 } else { nonempty };
        assert_eq!(m.blocks_scanned + m.blocks_pruned, walked, "{ctx}: {p}");
        assert_eq!(mg.blocks_scanned + mg.blocks_pruned, walked, "{ctx}: {p}");
        assert_eq!(
            m.blocks_ordered, 0,
            "{ctx}: ordering is paid once, in prepare"
        );
    }
}

/// `BlockKnn` is `get_knn` for every point of the region, on every kind of
/// index — the three families, a shard snapshot with overlay and
/// tombstones, a 3×3 relation snapshot with an empty shard, a reopened
/// block file and an empty index — for k = 0, 1, 5 and beyond the
/// relation, over clouds, single points, duplicate stacks and block
/// corners; and over an inner relation whose points all tie on distance.
#[test]
fn block_knn_equals_get_knn_and_brute_force_for_every_point_of_the_region() {
    for seed in [51u64, 52] {
        let mut rng = StdRng::seed_from_u64(9_850 + seed);
        for (name, index) in directory_subjects(seed) {
            let index = index.as_ref();
            for (group_name, group) in outer_groups(index, &mut rng) {
                for k in [0usize, 1, 5, index.num_points() + 3] {
                    let ctx = format!("{name} seed {seed} {group_name} k={k}");
                    assert_block_knn_matches(index, &group, k, &ctx);
                }
            }
        }
    }
    let tied = all_tied_points();
    let center = Point::new(0, 500.0, 500.0);
    let mut rng = StdRng::seed_from_u64(9_899);
    for (family, index) in build_families(&tied) {
        let index = index.as_ref();
        let mut groups = outer_groups(index, &mut rng);
        groups.push(("tied centre", vec![center]));
        groups.push((
            "around the tied centre",
            vec![
                center,
                Point::new(1, 480.0, 530.0),
                Point::new(2, 510.0, 495.0),
            ],
        ));
        for (group_name, group) in groups {
            for k in [1usize, 5, 17, tied.len() + 3] {
                let ctx = format!("all tied {family} {group_name} k={k}");
                assert_block_knn_matches(index, &group, k, &ctx);
            }
        }
    }
}

/// On a grid the size of `select_large`'s (125 × 125 = 15 625 blocks) a
/// `get_knn` orders a small fraction of the blocks. [`BlockOrder`], which
/// orders all of them, is on no query path (every index has a directory),
/// so the reference here is a directory of a different shape — packed, not
/// tiled: it returns the same neighborhood and also orders only a fraction,
/// so the saving is the cursor's, not the tiles'.
#[test]
fn get_knn_orders_a_fraction_of_a_large_grid() {
    let mut rng = StdRng::seed_from_u64(9_900);
    let pts: Vec<Point> = (0..250_000u64)
        .map(|i| {
            Point::new(
                i,
                rng.gen_range(0.0f64..40_000.0),
                rng.gen_range(0.0f64..40_000.0),
            )
        })
        .collect();
    let grid = GridIndex::build(pts, 125).unwrap();
    let num_blocks = grid.num_blocks() as u64;
    assert_eq!(num_blocks, 15_625);
    for k in [1usize, 8, 64] {
        let mut m = Metrics::default();
        for _ in 0..100 {
            let q = Point::anonymous(
                rng.gen_range(0.0f64..40_000.0),
                rng.gen_range(0.0f64..40_000.0),
            );
            get_knn(&grid, &q, k, &mut m);
        }
        let mean = m.blocks_ordered / 100;
        assert!(
            mean <= num_blocks / 10,
            "k={k}: {mean} blocks ordered per get_knn on {num_blocks} blocks"
        );
        println!("k={k}: {mean} blocks ordered per get_knn");
    }
    let q = Point::anonymous(20_000.0, 20_000.0);
    let mut mf = Metrics::default();
    let packed = get_knn(&Flat::new(&grid), &q, 8, &mut mf);
    assert_eq!(packed, get_knn(&grid, &q, 8, &mut Metrics::default()));
    assert!(
        mf.blocks_ordered <= num_blocks / 10,
        "{} blocks ordered through the packed directory",
        mf.blocks_ordered
    );
}

// ---------------------------------------------------------------------------
// `locate` on every kind of index
// ---------------------------------------------------------------------------

/// Points over the square 0..1000 whose corners are data points, so a
/// 10 × 10 grid has 100-wide cells and the quadtree splits at multiples of
/// 125: random points with duplicate stacks, plus points exactly on cell
/// edges and split lines and a stack on the centre, where every family's
/// closed footprints overlap.
fn locate_points(rng: &mut StdRng) -> Vec<Point> {
    let mut pts = points_with_duplicates(rng, 400);
    let mut on = |x: f64, y: f64| pts.push(Point::new(10_000 + pts.len() as u64, x, y));
    on(0.0, 0.0);
    on(1000.0, 1000.0);
    for i in 1..10 {
        let (edge, split) = (i as f64 * 100.0, (i - 1) as f64 * 125.0);
        let free = rng.gen_range(0.0f64..1000.0);
        on(edge, free);
        on(free, edge);
        on(edge, edge);
        on(split, 500.0);
        on(500.0, split);
    }
    for _ in 0..12 {
        on(500.0, 500.0);
    }
    pts
}

/// One index of every kind over [`locate_points`]: the three recipes (STR
/// leaves overlapping on the duplicate stacks), a grid and an R-tree
/// reopened from their block files, and a shard snapshot whose base lost
/// points to tombstones and gained inserts in overlay blocks.
fn locate_subjects(seed: u64) -> Vec<(&'static str, Arc<dyn SpatialIndex>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = locate_points(&mut rng);
    let rtree = StrRTree::build(pts.clone(), 6).unwrap();
    let centre = Point::anonymous(500.0, 500.0);
    let stacked = rtree.blocks().iter().filter(|b| b.mbr.contains(&centre));
    assert!(stacked.count() > 1, "STR leaves must overlap on the stack");

    let tmp = TempDir::new(&format!("locate-{seed}"));
    let durable = StoreConfig {
        durability: DurabilityConfig::at(&tmp.0),
        ..StoreConfig::default()
    };
    {
        let mut db = Database::with_store_config(durable.clone());
        db.register("G", GridIndex::build(pts.clone(), 10).unwrap());
        db.register("R", rtree.clone());
        db.checkpoint();
    }
    let reopened = Database::open(&tmp.0, durable).unwrap();
    let file = |name: &str| reopened.relation(name).unwrap().shards()[0].base().clone();

    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        ..StoreConfig::default()
    });
    db.register("Q", QuadtreeIndex::build(pts.clone(), 8).unwrap());
    db.ingest("Q", &mixed_batches(&mut rng, 0, 400)).unwrap();
    let snap = db.relation("Q").unwrap();
    assert!(snap.overlay_block_count() > 1 && snap.shards()[0].delta().deletes().len() > 1);

    vec![
        ("grid", Arc::new(GridIndex::build(pts.clone(), 10).unwrap())),
        ("quadtree", Arc::new(QuadtreeIndex::build(pts, 8).unwrap())),
        ("rtree", Arc::new(rtree)),
        ("reopened grid file", file("G")),
        ("reopened rtree file", file("R")),
        ("shard snapshot", snap.shards()[0].clone()),
    ]
}

/// Every stored point locates to the block storing it — on cell edges,
/// split lines and duplicate stacks too — and a probe locates to a block
/// whose footprint contains it, or to `None` exactly when none does.
#[test]
fn locate_finds_the_storing_block_on_every_kind_of_index() {
    for seed in [61u64, 62] {
        let mut rng = StdRng::seed_from_u64(9_950 + seed);
        for (name, index) in locate_subjects(seed) {
            let blocks = index.blocks();
            for b in blocks {
                for p in index.block_points(b.id) {
                    assert_eq!(index.locate(&p), Some(b.id), "{name} seed {seed}: {p}");
                }
            }
            let mut probes: Vec<Point> = (0..300)
                .map(|_| {
                    Point::anonymous(
                        rng.gen_range(-100.0f64..1100.0),
                        rng.gen_range(-100.0f64..1100.0),
                    )
                })
                .collect();
            probes.extend(blocks.iter().flat_map(|b| b.mbr.corners()));
            probes.push(Point::new(99_999, 500.0, 500.0));
            for p in probes {
                let ctx = format!("{name} seed {seed}: probe {p}");
                match index.locate(&p) {
                    Some(at) => assert!(blocks[at as usize].mbr.contains(&p), "{ctx}"),
                    None => assert!(blocks.iter().all(|b| !b.mbr.contains(&p)), "{ctx}"),
                }
            }
        }
    }
}
