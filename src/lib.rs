//! # two-knn
//!
//! A Rust implementation of *"Spatial Queries with Two kNN Predicates"*
//! (Ahmed M. Aly, Walid G. Aref, Mourad Ouzzani — PVLDB 5(11), VLDB 2012):
//! correct and efficient processing of location-based queries that combine
//! two k-nearest-neighbor predicates (kNN-select and kNN-join).
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! * [`geometry`] — points, rectangles, Euclidean / MINDIST / MAXDIST metrics;
//! * [`index`] — block-based spatial indexes (grid, PR-quadtree, STR R-tree),
//!   block directories and the incremental MINDIST/MAXDIST block ordering
//!   over them, the one-walk `getkNN`, and work metrics;
//! * [`datagen`] — workload generators (uniform, clustered, BerlinMOD-like
//!   synthetic moving-object snapshots);
//! * [`core`] — the paper's algorithms: Counting, Block-Marking, unchained
//!   and chained two-join plans, 2-kNN-select, plus a plan/optimizer layer
//!   and the spatially sharded, versioned relation store (snapshot reads,
//!   delta ingest, per-shard background rebuilds, shard-pruning kNN over
//!   the composed block directory) behind `core::plan::Database`.
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ## Quick start
//!
//! ```
//! use two_knn::datagen::{berlinmod, BerlinModConfig};
//! use two_knn::index::GridIndex;
//! use two_knn::core::select_join::{block_marking, SelectInnerJoinQuery};
//! use two_knn::geometry::Point;
//! use two_knn::WorkerPool;
//!
//! // Two relations over the same city.
//! let mechanics = GridIndex::build(berlinmod(&BerlinModConfig::with_points(2_000, 1)), 32).unwrap();
//! let hotels = GridIndex::build(berlinmod(&BerlinModConfig::with_points(4_000, 2)), 32).unwrap();
//!
//! // "Mechanic shops with their 2 closest hotels, keeping hotels among the
//! //  2 closest to the shopping center."
//! let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(50_000.0, 50_000.0));
//! //  Block-Marking tests every outer block, then joins the points of the
//! //  blocks that can contribute. Both phases spread over the worker pool the
//! //  calling thread is bound to; a pool of one runs them on this thread and
//! //  returns the same rows.
//! let result = WorkerPool::new(1).bind(|| block_marking(&mechanics, &hotels, &query));
//! println!("{} pairs, work: {}", result.len(), result.metrics);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use twoknn_core as core;
pub use twoknn_datagen as datagen;
pub use twoknn_geometry as geometry;
pub use twoknn_index as index;

pub use twoknn_core::{Pair, QueryError, QueryOutput, Triplet, WorkerPool};
pub use twoknn_geometry::{Point, Rect};
pub use twoknn_index::{
    GridIndex, Metrics, Neighborhood, PackedIndex, QuadtreeIndex, SpatialIndex, StrRTree,
};
