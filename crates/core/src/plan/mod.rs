//! A small query-planning layer around the two-kNN-predicate algorithms.
//!
//! The paper frames its contribution as *query optimization*: which plans are
//! semantically valid for a query with two kNN predicates, and which
//! algorithm evaluates a valid plan fastest given the data distribution. This
//! module exposes that framing programmatically:
//!
//! * [`stats`] — cheap per-relation statistics (cardinality, block occupancy,
//!   coverage, skew) computed from index block metadata;
//! * [`strategy`] — the physical strategies available for each query shape;
//! * [`optimizer`] — the paper's heuristics (Sections 3.3 and 4.1.2) mapping
//!   statistics to a strategy;
//! * [`physical`] — the physical-operator layer: [`compile`] resolves
//!   relation names against a pinned [`crate::store::DbSnapshot`] and lowers
//!   a `(QuerySpec, Strategy)` pair into one [`PhysicalPlan`] — the
//!   strategy's algorithm bound to its snapshot handles, plus any filters —
//!   whose `execute` dispatches on the strategy and runs partitioned over
//!   the worker pool the calling thread is bound to;
//! * [`lang`] — the declarative textual front-end: a hand-written lexer and
//!   recursive-descent parser for `FIND … WHERE …` queries, plus the
//!   rewriter that extracts the kNN predicates and classifies the residual
//!   filters as pre-kNN ("the k nearest *matching* points") or post-kNN
//!   (result pruning), producing a [`QuerySpec`];
//! * [`executor`] — the catalog (`Database`, backed by the versioned
//!   [`crate::store::RelationStore`] and owning a handle to the shared
//!   [`crate::exec::WorkerPool`]) plus the thin driver chaining
//!   snapshot-pin → optimizer → compile → execute, a concurrent batch entry
//!   point that pins **one** snapshot per batch and schedules whole queries
//!   on the same pool the operators use, and the ingest entry points
//!   (`insert` / `remove` / `update` / `ingest`) that publish new relation
//!   versions and trigger background compactions.
//!
//! [`QuerySpec`] is the one query algebra. Its fixed shapes cannot express
//! the compositions the paper proves wrong — a kNN-select below a join's
//! inner relation (Figure 2), sequential unchained joins (Figures 8–9),
//! a kNN-select over another one (Figures 14–15) — and [`compile`] refuses
//! the one wrong placement a filter can still take: a pre-kNN filter on a
//! join's inner role. Its `Display` is EXPLAIN's `logical:` line.

pub mod executor;
pub mod lang;
pub mod optimizer;
pub mod physical;
pub mod stats;
pub mod strategy;

pub use executor::{Database, QueryFilters, QueryResult, QuerySpec};
pub use lang::parse_query;
pub use optimizer::Optimizer;
pub use physical::{compile, PhysicalPlan, Relation, Row, RowSchema};
pub use stats::RelationProfile;
pub use strategy::{
    ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, Strategy, TwoSelectsStrategy,
    UnchainedStrategy,
};
