//! # twoknn-core
//!
//! Query processing with **two kNN predicates** — the Rust reproduction of
//! *"Spatial Queries with Two kNN Predicates"* (Aly, Aref, Ouzzani — VLDB
//! 2012).
//!
//! The paper's central observation is that queries combining two kNN
//! predicates (kNN-select `σ_{k,f}` and kNN-join `⋈_kNN`) cannot be optimized
//! with the classical relational heuristics: pushing a kNN-select below the
//! *inner* relation of a kNN-join, or evaluating two kNN-joins / two
//! kNN-selects one after the other, silently changes the query's result. For
//! every combination of two predicates the paper gives the *conceptually
//! correct* query evaluation plan (QEP) and a faster algorithm that preserves
//! its semantics:
//!
//! | Query shape | Correct QEP | Paper's algorithm(s) | Module |
//! |---|---|---|---|
//! | kNN-select on the **inner** relation of a kNN-join | join, then intersect | Counting, Block-Marking | [`select_join`] |
//! | kNN-select on the **outer** relation of a kNN-join | pushdown is valid | select-pushdown | [`select_join`] |
//! | two **unchained** kNN-joins | independent joins + `∩_B` | Block-Marking (Candidate/Safe blocks) | [`joins2`] |
//! | two **chained** kNN-joins | three equivalent QEPs | Nested-Join QEP + neighborhood cache | [`joins2`] |
//! | two kNN-selects | independent selects + `∩` | 2-kNN-select (bounded locality) | [`selects2`] |
//!
//! The single-predicate building blocks live in [`select`] and [`join`]; the
//! [`plan`] module provides one query algebra, [`plan::QuerySpec`], whose
//! fixed shapes admit only the compositions the paper proves correct (what
//! may and may not be pushed down), per-relation statistics, and an
//! optimizer that picks between the algorithms using the paper's own
//! heuristics (Sections 3.3 and 4.1.2).
//!
//! All algorithms are generic over any [`twoknn_index::SpatialIndex`]
//! (grid, quadtree, or R-tree) and report machine-independent
//! [`twoknn_index::Metrics`] describing the work they performed. Each has
//! exactly one entry point. A join's independent work items spread over the
//! [`WorkerPool`] the calling thread is bound to (the global pool when none
//! is), with the same rows and counters on every pool size; bind
//! `WorkerPool::new(1)` to run on the calling thread alone. Selects are one
//! walk each.
//!
//! Around the algorithms, the crate provides the infrastructure of a small
//! spatial database:
//!
//! | Module | Role |
//! |---|---|
//! | [`plan`] | the query algebra, statistics, optimizer, physical operators, and the [`plan::Database`] driver |
//! | [`store`] | versioned relation store: spatially sharded relations, snapshot reads, delta ingest, per-shard background rebuilds on the worker pool, and the optional durability subsystem (WAL + immutable shard block files + crash recovery, [`DurabilityConfig`]) |
//! | [`cq`] | continuous queries: standing two-kNN queries, guard-region registry, incremental maintenance over ingest |
//! | [`exec`] | the partitioned runs and the persistent [`WorkerPool`] shared by batches, operators, and compactions |
//! | [`obs`] | observability: `EXPLAIN` / `EXPLAIN ANALYZE` plan introspection, per-operator execution traces, and the latency-histogram metrics registry with lifecycle events |
//! | [`output`] | typed result rows ([`Pair`], [`Triplet`]) and the output container |
//! | [`error`] | the [`QueryError`] taxonomy |
//!
//! ## Example: the paper's motivating query (Section 1)
//!
//! "From the list of mechanic shops and the two closest hotels to each
//! mechanic shop, report the (mechanic shop, hotel) pairs, where the hotel is
//! amongst the two closest neighbors of the shopping center."
//!
//! ```
//! use twoknn_core::select_join::{self, SelectInnerJoinQuery};
//! use twoknn_core::WorkerPool;
//! use twoknn_geometry::Point;
//! use twoknn_index::GridIndex;
//!
//! let mechanics = GridIndex::build(
//!     vec![Point::new(1, 1.0, 1.0), Point::new(2, 4.0, 2.0)], 4).unwrap();
//! let hotels = GridIndex::build(
//!     vec![Point::new(1, 2.0, 1.0), Point::new(2, 5.0, 2.0), Point::new(3, 9.0, 9.0)], 4).unwrap();
//! let query = SelectInnerJoinQuery {
//!     k_join: 2,
//!     k_select: 2,
//!     focal: Point::anonymous(3.0, 1.0), // the shopping center
//! };
//! // A pool of one: every work item runs on this thread.
//! let result = WorkerPool::new(1).bind(|| {
//!     select_join::block_marking(&mechanics, &hotels, &query)
//! });
//! assert!(!result.rows.is_empty());
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the crate is unsafe-free except for one
// audited lifetime-erasure in `exec::pool` (the scoped worker-pool pattern —
// the same obligation rayon/crossbeam discharge), which opts in locally with
// `#[allow(unsafe_code)]` next to its safety proof.
#![deny(unsafe_code)]

pub mod cq;
pub mod error;
pub mod exec;
pub mod join;
pub mod joins2;
pub mod obs;
pub mod output;
pub mod plan;
pub mod select;
pub mod select_join;
pub mod selects2;
pub mod store;

pub use cq::{ResultDelta, SubscriptionId};
pub use error::QueryError;
pub use exec::{ExecutionMode, WorkerPool};
pub use obs::{
    AnalyzedQuery, Event, EventKind, HistogramKind, MetricsReport, Observability, OpTrace,
    PlanExplain, QueryTrace,
};
pub use output::{Pair, QueryOutput, Triplet};
pub use store::{
    DbSnapshot, DurabilityConfig, IndexConfig, RecoveryError, RelationStore, ShardConfig,
    StoreConfig, SyncPolicy, WriteOp,
};
