//! # twoknn-index
//!
//! Block-based in-memory spatial indexes and the neighborhood / locality
//! machinery required by *"Spatial Queries with Two kNN Predicates"* (Aly,
//! Aref, Ouzzani — VLDB 2012).
//!
//! The paper's algorithms are index-agnostic (Section 2): they only require a
//! space-partitioning index that exposes *blocks* with per-block point counts
//! and supports MINDIST/MAXDIST orderings of blocks around a query point:
//! "we process the blocks in a certain order according to their MINDIST (or
//! MAXDIST) from a certain point". The orderings here are incremental — a
//! cursor over a block directory — because the paper's scans stop early.
//! This crate provides:
//!
//! * [`SpatialIndex`] — the trait capturing exactly those requirements;
//! * [`PackedIndex`] — the one block store: block footprints and counts, a
//!   directory, and every block's points in one `ids`/`xs`/`ys` arena, plus
//!   the [`IndexConfig`] recipe that partitioned them;
//! * three recipes that build it, differing only in how they partition the
//!   points into blocks: [`GridIndex`] — the simple grid used in the paper's
//!   evaluation (§6); [`QuadtreeIndex`] — a PR-quadtree whose leaves are the
//!   blocks; [`StrRTree`] — an STR bulk-loaded R-tree whose leaves are the
//!   blocks;
//! * [`BlockPoints`] — the borrowed structure-of-arrays view of one block's
//!   points (parallel `ids`/`xs`/`ys` columns), so per-block distance scans
//!   run over contiguous `&[f64]` slices; [`PointBlock`] is its owned form,
//!   for the snapshot overlays of the store built on this crate;
//! * [`BlockDirectory`] — a small tree of `(mbr, children)` nodes over an
//!   index's dense block-id space, reported through
//!   [`SpatialIndex::directory`] (every index has one). Each recipe builds it
//!   from what it already has at build time (4×4 cell tiles for the grid,
//!   the internal nodes of the quadtree, STR-packed upper levels for the
//!   R-tree), and [`BlockDirectory::locate`] finds the block containing a
//!   point through it; snapshots compose their base's directory by reference, and a
//!   sharded relation's directory has one first-level node per shard, so a
//!   shard whose footprint lies beyond the search radius is never descended
//!   into — the paper's block pruning lifted one level up (counted by
//!   `Metrics::shards_scanned` / `shards_pruned`);
//! * [`DistanceCursor`] — the one MINDIST/MAXDIST ordering of blocks around
//!   a point or a rectangle: a best-first walk of the directory that yields
//!   blocks in ascending `(distance², block id)` and computes distances only
//!   for the nodes and blocks it reaches, so a scan that stops after a
//!   handful of blocks never looks at the rest. [`BlockOrder`], which orders
//!   every block up front, is the reference the tests compare against;
//! * [`get_knn`] — `getkNN` as one walk: blocks come off a MINDIST cursor,
//!   each is scanned by the batched kth-distance kernel as it arrives, and
//!   the walk stops at the first block beyond the running k-th distance;
//!   [`get_knn_bounded`] and [`get_knn_filtered`] are the same walk with a
//!   distance bound or a predicate mask;
//! * [`BlockKnn`] — the same neighborhoods for every point of a region (an
//!   outer block's tight box), off one rect-origin cursor walk per region:
//!   the candidate blocks within the region's covering radius are found
//!   once and each point scans them nearest-first, τ-pruned, writing its
//!   `min(k, n)` members into a caller-owned slice — how every join loops
//!   over an outer block's points;
//! * [`Locality`] — the paper's Definition 2 and the two-phase construction
//!   of Sankaranarayanan, Samet & Varshney, kept as the reference the tests
//!   compare the walk against (`get_knn` scans a subset of its blocks);
//! * [`ScratchSpace`] — reusable per-query transient state (candidate heap,
//!   cursor frontier, distance buffer); the kNN entry points borrow a
//!   thread-local one via [`with_thread_scratch`], the cursor takes one
//!   explicitly;
//! * [`Neighborhood`] — the k-nearest-neighbor set with the accessors the
//!   two-predicate algorithms need (nearest/farthest member, intersection);
//! * [`Metrics`] — machine-independent work counters used by the benchmark
//!   harness alongside wall-clock time.
//!
//! ## SoA layout
//!
//! A [`PackedIndex`] stores points as three parallel columns instead of
//! `Vec<Point>`, one arena for the whole index with block `b` at rows
//! `offsets[b]..offsets[b + 1]`, laid out in block-id order: the distance
//! kernels ([`twoknn_geometry::euclidean_sq_batch`]) then see a contiguous
//! 8-byte stride per column and auto-vectorize, and a block read is two
//! offset loads. [`BlockPoints`] (what [`SpatialIndex::block_points`]
//! returns) still iterates as `Point`s by value, so row-oriented consumers
//! are unaffected by the layout.
//!
//! ## Example
//!
//! ```
//! use twoknn_geometry::Point;
//! use twoknn_index::{get_knn, GridIndex, Metrics, SpatialIndex};
//!
//! let points: Vec<Point> = (0..1000)
//!     .map(|i| Point::new(i, (i % 37) as f64, (i % 53) as f64))
//!     .collect();
//! let index = GridIndex::build(points, 16).unwrap();
//! let mut metrics = Metrics::default();
//! let neighborhood = get_knn(&index, &Point::anonymous(10.0, 10.0), 5, &mut metrics);
//! assert_eq!(neighborhood.len(), 5);
//! assert!(index.num_blocks() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod block_knn;
mod directory;
mod grid;
mod knn;
mod locality;
mod metrics;
mod neighborhood;
mod ordering;
mod packed;
mod points;
mod quadtree;
mod rtree;
mod scratch;
mod traits;

pub use block::{BlockId, BlockMeta};
pub use block_knn::BlockKnn;
pub use directory::BlockDirectory;
pub use grid::GridIndex;
pub use knn::{
    brute_force_knn, brute_force_knn_filtered, get_knn, get_knn_bounded, get_knn_filtered,
};
pub use locality::Locality;
pub use metrics::Metrics;
pub use neighborhood::{Neighbor, Neighborhood};
pub use ordering::{BlockOrder, DistanceCursor, OrderMetric, OrderedBlock, OrderedF64};
pub use packed::{IndexConfig, PackedIndex};
pub use points::{BlockPoints, BlockPointsIter, PointBlock};
pub use quadtree::{QuadtreeIndex, DEFAULT_MAX_DEPTH};
pub use rtree::StrRTree;
pub use scratch::{with_thread_scratch, ScratchSpace};
pub use traits::{check_index_invariants, SpatialIndex};

// The parallel executors in `twoknn-core` share index references across
// worker threads, so the index must be `Send + Sync`. The
// structures are plain owned data without interior mutability, so the auto
// traits apply; these assertions turn an accidental regression (e.g. adding
// an `Rc` or `Cell` field) into a compile error instead of a downstream one.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PackedIndex>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<Neighborhood>();
    assert_send_sync::<BlockMeta>();
    assert_send_sync::<PointBlock>();
    assert_send_sync::<ScratchSpace>();
};
