//! The catalog and the thin execution driver.
//!
//! [`Database`] holds named, **versioned** relations in a
//! [`RelationStore`]; [`QuerySpec`] names the relations a query touches
//! plus its parameters. Execution is a pipeline: the driver pins a
//! [`DbSnapshot`] (one immutable version of each relation the query names —
//! a refcount bump per name, whatever else the catalog holds), the
//! [`Optimizer`] picks a [`Strategy`] from the pinned relations'
//! statistics, [`crate::plan::physical::compile`] lowers `(spec, strategy)`
//! into a [`PhysicalPlan`] holding snapshot handles, and the plan runs the
//! strategy's algorithm on the [`WorkerPool`] the calling thread is bound
//! to. EXPLAIN and EXPLAIN ANALYZE ([`Database::explain`],
//! [`Database::explain_analyze`]) compile the same plan and report its
//! operator tree and trace.
//! [`Database::execute`] is nothing but that chain bound to the database's
//! own pool: a join's work items run on that pool's workers and the calling
//! thread (a pool of one runs them all inline), with the same rows, row
//! order and counters on every pool size. Callers that want another pool
//! run `pool.bind(|| compile(&db.snapshot(), spec, strategy)?.execute(..))`
//! themselves; independent queries run concurrently through
//! [`Database::execute_batch`], which pins **one** snapshot for the whole
//! batch and schedules *inter-query* tasks on the same pool the
//! operators use for *intra-operator* tasks — one shared queue, one
//! thread budget, regardless of how the two layers nest.
//!
//! Writes go through [`Database::insert`] / [`Database::remove`] /
//! [`Database::update`] (or batched [`Database::ingest`]): each call
//! publishes a new relation version atomically. Relations may be spatially
//! sharded ([`crate::store::ShardConfig`]): ops are routed to the shard
//! they fall in, and when a **shard's** delta overlay outgrows the store's
//! compaction threshold a background rebuild of that shard alone is
//! scheduled on the same pool. Readers never block on either — they keep
//! their pinned snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use twoknn_geometry::{Point, PointId, Predicate};
use twoknn_index::{Metrics, PackedIndex, SpatialIndex};

use crate::cq::{CqEngine, ResultDelta, SubscriptionId};
use crate::error::QueryError;
use crate::exec::{run_into_shares, ExecutionMode, WorkerPool};
use crate::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use crate::obs::{
    AnalyzedQuery, Event, HistogramKind, MetricsReport, OpNode, PlanExplain, QueryTrace,
    RelationGauges,
};
use crate::output::{Pair, QueryOutput, Triplet};
use crate::plan::optimizer::Optimizer;
use crate::plan::physical::{compile, PhysicalPlan, Row};
use crate::plan::stats::RelationProfile;
use crate::plan::strategy::Strategy;
use crate::select::KnnSelectQuery;
use crate::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use crate::selects2::TwoSelectsQuery;
use crate::store::{
    DbSnapshot, RecoveryError, RelationSnapshot, RelationStore, StoreConfig, WriteOp,
};

/// A named catalog of versioned, indexed relations.
pub struct Database {
    store: Arc<RelationStore>,
    /// The worker pool every query, batch **and** background compaction of
    /// this database runs on. Defaults to the process-wide shared pool, so
    /// batch-level query tasks, operator-level block tasks and store
    /// rebuild jobs share one queue and one thread budget.
    pool: Arc<WorkerPool>,
    /// The continuous-query engine, created lazily on the first
    /// subscription so databases that never subscribe pay nothing on the
    /// ingest path.
    cq: OnceLock<Arc<CqEngine>>,
}

impl Default for Database {
    fn default() -> Self {
        Self {
            store: Arc::new(RelationStore::default()),
            pool: Arc::clone(WorkerPool::global()),
            cq: OnceLock::new(),
        }
    }
}

/// A query over named relations in a [`Database`].
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// kNN-join with a kNN-select on the join's inner relation.
    SelectInnerOfJoin {
        /// Name of the outer relation (`E1`).
        outer: String,
        /// Name of the inner relation (`E2`).
        inner: String,
        /// Query parameters.
        query: SelectInnerJoinQuery,
    },
    /// kNN-join with a kNN-select on the join's outer relation.
    SelectOuterOfJoin {
        /// Name of the outer relation (`E1`).
        outer: String,
        /// Name of the inner relation (`E2`).
        inner: String,
        /// Query parameters.
        query: SelectOuterJoinQuery,
    },
    /// Two unchained kNN-joins `(A ⋈ B) ∩_B (C ⋈ B)`.
    UnchainedJoins {
        /// Name of relation `A`.
        a: String,
        /// Name of the shared inner relation `B`.
        b: String,
        /// Name of relation `C`.
        c: String,
        /// Query parameters.
        query: UnchainedJoinQuery,
    },
    /// Two chained kNN-joins `A → B → C`.
    ChainedJoins {
        /// Name of relation `A`.
        a: String,
        /// Name of relation `B`.
        b: String,
        /// Name of relation `C`.
        c: String,
        /// Query parameters.
        query: ChainedJoinQuery,
    },
    /// Two kNN-selects over one relation.
    TwoSelects {
        /// Name of the relation.
        relation: String,
        /// Query parameters.
        query: TwoSelectsQuery,
    },
    /// A single kNN-select `σ_{k,f}(E)` — the shape the textual front-end
    /// ([`Database::query`]) produces for one `KNN` predicate.
    KnnSelect {
        /// Name of the relation.
        relation: String,
        /// Query parameters.
        query: KnnSelectQuery,
    },
    /// A query with relational filters wrapped around an inner kNN query
    /// shape. Filters are placed per relation name: **pre-kNN** filters
    /// change what the kNN predicates see ("the k nearest *matching*
    /// points"), **post-kNN** filters only prune result rows. The placement
    /// is semantics-bearing (Section 3 of the paper), so
    /// [`crate::plan::compile`] rejects pre-filters on
    /// roles where the pushdown would change the answer.
    Filtered {
        /// The kNN query shape the filters wrap.
        spec: Box<QuerySpec>,
        /// The filters and their placement.
        filters: QueryFilters,
    },
}

/// Per-relation filter predicates of a [`QuerySpec::Filtered`] query, split
/// by placement relative to the kNN predicates.
///
/// Keys are relation names (as they appear in the wrapped spec). A name in
/// `pre` filters the relation *before* the kNN predicates run against it —
/// valid only on roles where the paper's pushdown argument holds (the
/// select/outer side, never a join's inner side). A name in `post` filters
/// the finished result rows by that relation's component.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryFilters {
    /// Filters applied before the kNN predicates (pushdown placement).
    pub pre: BTreeMap<String, Predicate>,
    /// Filters applied to the result rows (residual placement).
    pub post: BTreeMap<String, Predicate>,
}

impl QueryFilters {
    /// No filters in either placement.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds (ANDs onto) a pre-kNN filter for `relation`.
    pub fn pre(mut self, relation: impl Into<String>, predicate: Predicate) -> Self {
        let name = relation.into();
        let combined = match self.pre.remove(&name) {
            Some(existing) => existing.and(predicate),
            None => predicate,
        };
        self.pre.insert(name, combined);
        self
    }

    /// Adds (ANDs onto) a post-kNN filter for `relation`.
    pub fn post(mut self, relation: impl Into<String>, predicate: Predicate) -> Self {
        let name = relation.into();
        let combined = match self.post.remove(&name) {
            Some(existing) => existing.and(predicate),
            None => predicate,
        };
        self.post.insert(name, combined);
        self
    }

    /// True when neither placement holds any (non-trivial) filter.
    pub fn is_empty(&self) -> bool {
        self.pre.values().all(|p| matches!(p, Predicate::True))
            && self.post.values().all(|p| matches!(p, Predicate::True))
    }
}

impl QuerySpec {
    /// The names of the relations this query references, in role order
    /// (duplicates preserved when one relation plays several roles).
    pub(crate) fn role_names(&self) -> impl Iterator<Item = &str> {
        let mut spec = self;
        while let QuerySpec::Filtered { spec: wrapped, .. } = spec {
            spec = wrapped;
        }
        let (names, roles): ([&str; 3], usize) = match spec {
            QuerySpec::SelectInnerOfJoin { outer, inner, .. }
            | QuerySpec::SelectOuterOfJoin { outer, inner, .. } => ([outer, inner, ""], 2),
            QuerySpec::UnchainedJoins { a, b, c, .. } | QuerySpec::ChainedJoins { a, b, c, .. } => {
                ([a, b, c], 3)
            }
            QuerySpec::TwoSelects { relation, .. } | QuerySpec::KnnSelect { relation, .. } => {
                ([relation, "", ""], 1)
            }
            QuerySpec::Filtered { .. } => unreachable!("unwrapped above"),
        };
        names.into_iter().take(roles)
    }

    /// Wraps this query in filters, producing a [`QuerySpec::Filtered`] —
    /// or returning `self` unchanged when `filters` is empty.
    pub fn with_filters(self, filters: QueryFilters) -> QuerySpec {
        if filters.is_empty() {
            self
        } else {
            QuerySpec::Filtered {
                spec: Box::new(self),
                filters,
            }
        }
    }
}

impl std::fmt::Display for QuerySpec {
    /// Prints the query's algebra: `σ[k=…, f=(x, y)](R)` for a select,
    /// `(A ⋈[k=…] B)` for a join, `∩(…, …)` for two selects and
    /// `∩_B(…, …)` for two pair sets meeting on their `B` component. A
    /// pre-kNN filter sits at its relation's leaf as `filter[p](R)`; a
    /// post-kNN filter wraps the whole expression, naming its relation on
    /// a join shape (`filter[B: p](…)`). A `TRUE` filter is not printed:
    /// [`crate::plan::compile`] does not run it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unfiltered = QueryFilters::none();
        let (spec, filters) = match self {
            QuerySpec::Filtered { spec, filters } => (&**spec, filters),
            spec => (spec, &unfiltered),
        };
        let runs = |predicate: &&Predicate| !matches!(predicate, Predicate::True);
        let leaf = |name: &str| match filters.pre.get(name).filter(runs) {
            Some(predicate) => format!("filter[{predicate}]({name})"),
            None => name.to_string(),
        };
        let select = |k: usize, focal: Point, name: &str| {
            format!("σ[k={k}, f=({}, {})]({})", focal.x, focal.y, leaf(name))
        };
        let join =
            |outer: String, k: usize, inner: &str| format!("({outer} ⋈[k={k}] {})", leaf(inner));
        let mut expr = match spec {
            QuerySpec::KnnSelect { relation, query } => select(query.k, query.focal, relation),
            QuerySpec::TwoSelects { relation, query: q } => format!(
                "∩({}, {})",
                select(q.k1, q.f1, relation),
                select(q.k2, q.f2, relation)
            ),
            QuerySpec::SelectInnerOfJoin {
                outer,
                inner,
                query: q,
            } => format!(
                "∩_B({}, {})",
                join(leaf(outer), q.k_join, inner),
                select(q.k_select, q.focal, inner)
            ),
            QuerySpec::SelectOuterOfJoin {
                outer,
                inner,
                query: q,
            } => join(select(q.k_select, q.focal, outer), q.k_join, inner),
            QuerySpec::UnchainedJoins { a, b, c, query: q } => format!(
                "∩_B({}, {})",
                join(leaf(a), q.k_ab, b),
                join(leaf(c), q.k_cb, b)
            ),
            QuerySpec::ChainedJoins { a, b, c, query: q } => {
                join(join(leaf(a), q.k_ab, b), q.k_bc, c)
            }
            // Nested filters, which `compile` refuses.
            QuerySpec::Filtered { .. } => spec.to_string(),
        };
        let joins = !matches!(
            spec,
            QuerySpec::KnnSelect { .. } | QuerySpec::TwoSelects { .. }
        );
        for (name, predicate) in filters.post.iter().filter(|(_, predicate)| runs(predicate)) {
            expr = if joins {
                format!("filter[{name}: {predicate}]({expr})")
            } else {
                format!("filter[{predicate}]({expr})")
            };
        }
        f.write_str(&expr)
    }
}

/// The result of executing a [`QuerySpec`], tagged by its row type, together
/// with the strategy that produced it.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// Pair-valued results (select + join queries).
    Pairs {
        /// The output rows and metrics.
        output: QueryOutput<Pair>,
        /// The strategy that was executed.
        strategy: Strategy,
    },
    /// Triplet-valued results (two-join queries).
    Triplets {
        /// The output rows and metrics.
        output: QueryOutput<Triplet>,
        /// The strategy that was executed.
        strategy: Strategy,
    },
    /// Point-valued results (two-select queries).
    Points {
        /// The output rows and metrics.
        output: QueryOutput<Point>,
        /// The strategy that was executed.
        strategy: Strategy,
    },
}

impl QueryResult {
    /// Number of result rows regardless of row type.
    pub fn num_rows(&self) -> usize {
        match self {
            QueryResult::Pairs { output, .. } => output.len(),
            QueryResult::Triplets { output, .. } => output.len(),
            QueryResult::Points { output, .. } => output.len(),
        }
    }

    /// The work metrics of the execution.
    pub fn metrics(&self) -> Metrics {
        match self {
            QueryResult::Pairs { output, .. } => output.metrics,
            QueryResult::Triplets { output, .. } => output.metrics,
            QueryResult::Points { output, .. } => output.metrics,
        }
    }

    /// The strategy that was executed.
    pub fn strategy(&self) -> Strategy {
        match self {
            QueryResult::Pairs { strategy, .. }
            | QueryResult::Triplets { strategy, .. }
            | QueryResult::Points { strategy, .. } => *strategy,
        }
    }

    /// The result rows, flattened into the typed [`Row`] form so generic
    /// drivers can consume every query shape through one type.
    pub fn rows(&self) -> Vec<Row> {
        match self {
            QueryResult::Pairs { output, .. } => {
                output.rows.iter().copied().map(Row::Pair).collect()
            }
            QueryResult::Triplets { output, .. } => {
                output.rows.iter().copied().map(Row::Triplet).collect()
            }
            QueryResult::Points { output, .. } => {
                output.rows.iter().copied().map(Row::Point).collect()
            }
        }
    }
}

impl Database {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty catalog whose queries, batches and compactions run
    /// on an explicit [`WorkerPool`] instead of the process-wide shared
    /// pool.
    ///
    /// Mostly useful for tests and benchmarks that need a pinned thread
    /// budget. Every execution path of the database binds this pool, so a
    /// query never starts the global pool's threads; a pool of one runs
    /// every operator inline on the calling thread.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool,
            ..Self::default()
        }
    }

    /// Creates an empty catalog with explicit store tuning (e.g. a small
    /// compaction threshold for ingest-heavy tests).
    pub fn with_store_config(config: StoreConfig) -> Self {
        Self {
            store: Arc::new(RelationStore::new(config)),
            ..Self::default()
        }
    }

    /// Creates an empty catalog with both an explicit pool and explicit
    /// store tuning.
    pub fn with_pool_and_store_config(pool: Arc<WorkerPool>, config: StoreConfig) -> Self {
        Self {
            store: Arc::new(RelationStore::new(config)),
            pool,
            ..Self::default()
        }
    }

    /// Opens (or creates) a **durable** database rooted at `dir`: every
    /// complete relation directory under it is recovered — shard block
    /// files load as bases, the WAL's intact suffix replays on top — and
    /// subsequent ingest is write-ahead-logged there. The `config`'s
    /// durability is re-rooted at `dir` (enabling it with the default
    /// sync policy if it was `Disabled`), so the caller controls sync
    /// policy and segment size but never the directory mismatch.
    ///
    /// Corrupt manifests or block files surface as
    /// [`RecoveryError::Corrupt`] rather than a panic; a torn WAL tail is
    /// not an error — the intact prefix is kept and the tail truncated.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        config: StoreConfig,
    ) -> Result<Self, RecoveryError> {
        Self::open_with_pool(dir, config, Arc::clone(WorkerPool::global()))
    }

    /// [`Database::open`] on an explicit [`WorkerPool`].
    pub fn open_with_pool(
        dir: impl Into<std::path::PathBuf>,
        mut config: StoreConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<Self, RecoveryError> {
        config.durability = config.durability.with_dir(dir);
        let store = RelationStore::open(config)?;
        Ok(Self {
            store: Arc::new(store),
            pool,
            ..Self::default()
        })
    }

    /// Checkpoints the durable store: spills every dirty shard to a block
    /// file, advances the manifests' covered WAL positions, and trims
    /// obsolete WAL segments — bounding both recovery replay time and WAL
    /// disk usage. Counted by `checkpoints` in [`Database::store_metrics`].
    /// No-op when durability is disabled.
    pub fn checkpoint(&self) {
        self.store.checkpoint(&self.pool);
    }

    /// The worker pool handle queries, batch execution and background
    /// compaction run on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The versioned relation store behind the catalog.
    pub fn store(&self) -> &RelationStore {
        &self.store
    }

    /// Registers (or replaces) a relation under a name, returning the
    /// replaced relation's last published snapshot if the name was taken.
    ///
    /// The index's recipe ([`PackedIndex::recipe`]) is remembered, so
    /// compactions rebuild the same family at the same granularity.
    ///
    /// With spatial sharding configured ([`crate::store::ShardConfig`]), the
    /// registered index's points are re-bucketed into one independently
    /// versioned shard base per grid cell (a grid shard keeps the recipe's
    /// cell size, `⌈n / shards_per_axis⌉` cells per axis); the single-shard
    /// default keeps the index as-is.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        index: PackedIndex,
    ) -> Option<Arc<RelationSnapshot>> {
        let name = name.into();
        let replaced = self.store.register(name.clone(), index);
        // A wholesale (re-)registration has no per-write positions to
        // probe: every standing query on the relation re-evaluates. This
        // must not be gated on `replaced` — a deregister-then-register
        // cycle replaces the data just as much as an in-place replacement.
        if let Some(cq) = self.cq.get() {
            cq.reevaluate_all_on(&name);
        }
        replaced
    }

    /// Removes a relation from the catalog, returning its last published
    /// snapshot if it existed. In-flight queries that already pinned a
    /// snapshot are unaffected.
    pub fn deregister(&mut self, name: &str) -> Option<Arc<RelationSnapshot>> {
        self.store.deregister(name)
    }

    /// Names of the registered relations, **sorted** — deterministic across
    /// runs and processes regardless of hash-map iteration order.
    pub fn relation_names(&self) -> Vec<String> {
        self.store.names()
    }

    /// Pins the current snapshot of a relation. The returned handle stays
    /// valid and immutable regardless of concurrent ingest, compaction, or
    /// catalog mutation.
    pub fn relation(&self, name: &str) -> Result<Arc<RelationSnapshot>, QueryError> {
        Ok(self.store.get(name)?.load())
    }

    /// Pins one consistent [`DbSnapshot`] of every registered relation —
    /// what `execute_batch` does per batch. Catalog names are shared, so
    /// this copies no name; still, it touches every relation, and a single
    /// query ([`Database::execute`], [`Database::query`]) pins only the
    /// relations it names instead.
    pub fn snapshot(&self) -> DbSnapshot {
        self.store.pin()
    }

    /// Pins the relations `spec` names and nothing else: a refcount bump
    /// per name, whatever the size of the catalog. A name the catalog lacks
    /// falls back to the whole-catalog pin, so planning and compiling
    /// report it exactly as they would there.
    fn pin_for(&self, spec: &QuerySpec) -> DbSnapshot {
        self.store
            .pin_many(spec.role_names())
            .unwrap_or_else(|_| self.snapshot())
    }

    /// The statistics profile of a registered relation (on its current
    /// snapshot). Profiles are memoized per published version
    /// ([`RelationSnapshot::profile`]), so repeat calls against an unchanged
    /// relation are O(1).
    pub fn profile(&self, name: &str) -> Result<RelationProfile, QueryError> {
        Ok(self.relation(name)?.profile())
    }

    /// Applies a batch of write operations to a relation as **one** atomic
    /// visibility step: queries observe all of the batch or none of it.
    /// Returns `(ops that changed the visible point set, new version)`.
    ///
    /// Each op is routed to the spatial shard its coordinates map to
    /// ([`crate::store::ShardConfig`]); a shard whose delta overlay outgrows
    /// the store's compaction threshold gets a background rebuild **of that
    /// shard alone** scheduled on this database's [`WorkerPool`] (on a
    /// parallelism-1 pool the rebuild runs inline — see
    /// [`WorkerPool::spawn`]), so a write burst confined to one region
    /// never triggers a full-relation rebuild.
    ///
    /// If standing queries are registered ([`Database::subscribe`]), the
    /// published batch is handed to the continuous-query maintainer: it
    /// probes the guard registry with the batch's effective write positions
    /// and re-evaluates only the subscriptions a write could actually
    /// affect (the rest are counted as `cq_skips`).
    pub fn ingest(&self, name: &str, ops: &[WriteOp]) -> Result<(usize, u64), QueryError> {
        let receipt = self.ingest_receipt(name, ops)?;
        Ok((receipt.effective, receipt.version))
    }

    /// The shared ingest step: applies the batch through the store, then
    /// notifies the continuous-query maintainer (if any) of the publish.
    fn ingest_receipt(
        &self,
        name: &str,
        ops: &[WriteOp],
    ) -> Result<crate::store::IngestReceipt, QueryError> {
        let receipt = self.store.ingest_with_receipt(name, ops, &self.pool)?;
        if let Some(cq) = self.cq.get() {
            cq.on_publish(name, ops, &receipt);
        }
        Ok(receipt)
    }

    /// Inserts a point (replacing any existing point with the same id).
    /// Returns the relation's new version.
    pub fn insert(&self, name: &str, point: Point) -> Result<u64, QueryError> {
        Ok(self.ingest(name, &[WriteOp::Upsert(point)])?.1)
    }

    /// Removes the point with `id`, returning whether it was present.
    pub fn remove(&self, name: &str, id: PointId) -> Result<bool, QueryError> {
        Ok(self.ingest(name, &[WriteOp::Remove(id)])?.0 > 0)
    }

    /// Moves a point to a new position (an upsert), returning whether the
    /// id was previously visible — `false` means this update was really a
    /// first insert. The answer is computed under the relation's writer
    /// lock, so it is exact even with concurrent writers.
    pub fn update(&self, name: &str, point: Point) -> Result<bool, QueryError> {
        let receipt = self.ingest_receipt(name, &[WriteOp::Upsert(point)])?;
        Ok(receipt.visible_before[0])
    }

    /// Synchronously compacts a relation on the calling thread (the gather
    /// phase still shards over the pool): **every spatial shard** with a
    /// non-empty delta is folded into a fresh base, regardless of the
    /// background threshold. Untouched shards are left alone, so the cost is
    /// proportional to the dirty shards, not the relation. Returns the last
    /// published version, or `None` when no shard had anything to fold (or
    /// background rebuilds already hold every dirty shard's slot).
    /// Per-shard rebuilds are counted by `shards_compacted` in
    /// [`Database::store_metrics`].
    pub fn compact_now(&self, name: &str) -> Result<Option<u64>, QueryError> {
        self.store.compact_now(name, &self.pool)
    }

    /// The store's cumulative work counters: `ingest_ops`, `compactions`
    /// (the epoch counter), rebuild scan work, and continuous-query
    /// maintenance (`cq_reevals` / `cq_skips`, plus the kNN/block work the
    /// maintainer's re-evaluations performed).
    pub fn store_metrics(&self) -> Metrics {
        self.store.metrics()
    }

    // -----------------------------------------------------------------
    // Continuous queries
    // -----------------------------------------------------------------

    /// The lazily-created continuous-query engine.
    fn cq(&self) -> &Arc<CqEngine> {
        self.cq.get_or_init(|| {
            Arc::new(CqEngine::new(
                Arc::clone(&self.store),
                Arc::clone(&self.pool),
                Arc::clone(self.store.metrics_handle()),
            ))
        })
    }

    /// Registers a **standing query**: compiles it once (with `strategy`,
    /// or the optimizer's current choice when `None`), evaluates it against
    /// the current snapshot, and registers a guard region per referenced
    /// relation so subsequent [`Database::ingest`] batches re-evaluate it
    /// only when a write could actually change its answer.
    ///
    /// The initial evaluation is emitted as the subscription's first
    /// [`ResultDelta`] (all rows `added`), so folding every polled delta in
    /// order reconstructs the standing query's current result from nothing.
    /// Re-evaluations run as detached jobs on this database's
    /// [`WorkerPool`]; [`WorkerPool::wait_idle`] deterministically awaits
    /// them (on a parallelism-1 pool they run inline in `ingest`).
    ///
    /// The pinned strategy is not re-optimized as the data drifts;
    /// re-subscribe to re-plan. Deltas are keyed by row point-ids — a
    /// retained row whose points merely moved is not re-reported.
    pub fn subscribe(
        &self,
        spec: &QuerySpec,
        strategy: Option<Strategy>,
    ) -> Result<SubscriptionId, QueryError> {
        let strategy = match strategy {
            Some(s) => s,
            None => self.plan(spec)?,
        };
        self.cq().subscribe(spec.clone(), strategy)
    }

    /// Drains a subscription's emitted-and-unpolled [`ResultDelta`]s, in
    /// emission order. Empty when nothing changed since the last poll.
    pub fn poll(&self, id: SubscriptionId) -> Result<Vec<ResultDelta>, QueryError> {
        self.cq().poll(id)
    }

    /// Drops a standing query; its pending deltas are discarded.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<(), QueryError> {
        self.cq().unsubscribe(id)
    }

    /// A subscription's current maintained result (rows sorted by id
    /// tuple) and the highest relation version it reflects — what folding
    /// all its deltas reconstructs.
    pub fn subscription_result(&self, id: SubscriptionId) -> Result<(Vec<Row>, u64), QueryError> {
        self.cq().result(id)
    }

    /// Number of registered standing queries.
    pub fn subscription_count(&self) -> usize {
        self.cq.get().map(|cq| cq.len()).unwrap_or(0)
    }

    /// Executes a query on this database's [`WorkerPool`], letting the
    /// optimizer pick the strategy.
    ///
    /// The query runs against one pinned [`DbSnapshot`] of the relations it
    /// names — no other relation of the catalog is touched: planning and
    /// execution observe the same relation versions even while writers
    /// publish new ones.
    pub fn execute(&self, spec: &QuerySpec) -> Result<QueryResult, QueryError> {
        let plan = self.plan_and_compile(&self.pin_for(spec), spec)?;
        Ok(self.run_plan(&plan, || "query".to_string()))
    }

    /// Runs one compiled plan with the always-on query latency histogram
    /// and, when tracing is enabled, a retained per-operator trace. The
    /// label closure only runs (and allocates) on the traced path.
    fn run_plan(&self, plan: &PhysicalPlan, label: impl FnOnce() -> String) -> QueryResult {
        self.timed_exec(|| self.store.obs().run_plan(plan, label))
    }

    /// Runs `exec` on this database's pool, under the always-on query
    /// latency histogram. Binding the pool is what keeps an operator off the
    /// global pool: its work items run on `self.pool`'s workers and the
    /// calling thread, and a pool of one runs them all inline.
    fn timed_exec<R>(&self, exec: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = self.pool.bind(exec);
        self.store
            .obs()
            .record(HistogramKind::QueryExec, start.elapsed());
        out
    }

    /// Executes a batch of independent queries, each with the
    /// optimizer-chosen strategy.
    ///
    /// The whole batch runs against **one** pinned [`DbSnapshot`]: every
    /// query observes the same published version of every relation, even
    /// while ingest publishes new versions and background compactions swap
    /// rebuilt bases underneath.
    ///
    /// The batch is one [`run_into_shares`] on this database's
    /// [`WorkerPool`]: each query is an item with a share of one result,
    /// and each query in turn runs its operators on the same pool —
    /// batch-level and block-level tasks share **one queue**, so large
    /// batches saturate the pool with whole queries (inter-query
    /// parallelism) while small or skewed batches let an expensive
    /// straggler query fan its blocks out over the workers that have gone
    /// idle. Either way the thread budget is the pool's parallelism — the
    /// two layers can never oversubscribe the machine — and a pool of one
    /// runs the batch as a plain loop on the caller. Each result lands in
    /// its query's slot, so results come back in input order.
    ///
    /// Each worker thread drains its share of the batch in place, so all
    /// kNN calls it issues reuse that thread's
    /// [`ScratchSpace`](twoknn_index::ScratchSpace) (via
    /// [`with_thread_scratch`](twoknn_index::with_thread_scratch)): after
    /// the first query warms a worker up, the select hot path allocates
    /// nothing per query beyond the returned neighborhoods.
    pub fn execute_batch(&self, specs: &[QuerySpec]) -> Vec<Result<QueryResult, QueryError>> {
        let window = Instant::now();
        let snapshot = self.snapshot();
        let indexed: Vec<(usize, &QuerySpec)> = specs.iter().enumerate().collect();
        let mut scratch = Metrics::default();
        let results = self.pool.bind(|| {
            run_into_shares(
                &indexed,
                |_| 1,
                None,
                &mut scratch,
                |&(i, spec), out, _| {
                    out[0] = Some(
                        self.plan_and_compile(&snapshot, spec)
                            .map(|plan| self.run_plan(&plan, || batch_label(i))),
                    );
                },
            )
        });
        self.store
            .obs()
            .record(HistogramKind::BatchWindow, window.elapsed());
        results.into_iter().flatten().collect()
    }

    /// Plans and compiles against an explicit pinned snapshot — the shared
    /// step behind every execution path, keeping strategy choice and
    /// execution on the same relation versions.
    fn plan_and_compile(
        &self,
        snapshot: &DbSnapshot,
        spec: &QuerySpec,
    ) -> Result<PhysicalPlan, QueryError> {
        let strategy = self.plan_on(snapshot, spec)?;
        compile(snapshot, spec, strategy)
    }

    /// The strategy the optimizer would choose for a query (on the current
    /// snapshots).
    pub fn plan(&self, spec: &QuerySpec) -> Result<Strategy, QueryError> {
        self.plan_on(&self.pin_for(spec), spec)
    }

    /// Strategy choice against an explicit pinned snapshot. Relation
    /// profiles come from the snapshots' per-version memo, so a batch of
    /// queries planned against one pinned [`DbSnapshot`] computes each
    /// relation's statistics at most once — not once per query.
    fn plan_on(&self, snapshot: &DbSnapshot, spec: &QuerySpec) -> Result<Strategy, QueryError> {
        let profile = |name: &str| -> Result<RelationProfile, QueryError> {
            Ok(snapshot.snapshot(name)?.profile())
        };
        Ok(match spec {
            QuerySpec::SelectInnerOfJoin { outer, .. } => {
                Strategy::SelectInner(Optimizer.choose_select_inner(&profile(outer)?))
            }
            QuerySpec::SelectOuterOfJoin { outer, .. } => {
                Strategy::SelectOuter(Optimizer.choose_select_outer(&profile(outer)?))
            }
            QuerySpec::UnchainedJoins { a, c, .. } => {
                Strategy::Unchained(Optimizer.choose_unchained(&profile(a)?, &profile(c)?))
            }
            QuerySpec::ChainedJoins { b, .. } => {
                Strategy::Chained(Optimizer.choose_chained(&profile(b)?))
            }
            QuerySpec::TwoSelects { query, .. } => {
                Strategy::TwoSelects(Optimizer.choose_two_selects(query))
            }
            QuerySpec::KnnSelect { .. } => Strategy::Select,
            // Filters don't change the strategy family: plan the wrapped
            // shape, `compile` threads the filters through the plan.
            QuerySpec::Filtered { spec, .. } => self.plan_on(snapshot, spec)?,
        })
    }

    /// Executes a query with an explicitly chosen strategy on this
    /// database's pool: the query is compiled into its physical plan and
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownRelation`] for missing relations and
    /// [`QueryError::UnsupportedPlanShape`] when the strategy does not match
    /// the query shape.
    pub fn execute_with(
        &self,
        spec: &QuerySpec,
        strategy: Strategy,
    ) -> Result<QueryResult, QueryError> {
        let plan = compile(&self.pin_for(spec), spec, strategy)?;
        Ok(self.run_plan(&plan, || "query (pinned strategy)".to_string()))
    }

    // -----------------------------------------------------------------
    // Textual queries
    // -----------------------------------------------------------------

    /// Parses a textual query (see [`crate::plan::lang`] for the grammar)
    /// into a [`QuerySpec`] without executing it. Syntax and rewrite errors
    /// come back as [`QueryError::Parse`] carrying the offending span.
    pub fn parse_query(&self, text: &str) -> Result<QuerySpec, QueryError> {
        Ok(crate::plan::lang::parse_query(text)?)
    }

    /// Parses and executes a textual query in one step: the declarative
    /// front-end over [`Database::execute`].
    ///
    /// ```
    /// # use twoknn_core::plan::Database;
    /// # use twoknn_index::GridIndex;
    /// # use twoknn_geometry::Point;
    /// # let mut db = Database::new();
    /// # let pts: Vec<Point> = (0..50).map(|i| Point::new(i, i as f64, 0.0)).collect();
    /// # db.register("Sites", GridIndex::build(pts, 4).unwrap());
    /// let result = db
    ///     .query("FIND Sites WHERE KNN(3, 10, 0) AND ID <= 40")
    ///     .unwrap();
    /// assert_eq!(result.num_rows(), 3);
    /// ```
    pub fn query(&self, text: &str) -> Result<QueryResult, QueryError> {
        let spec = self.parse_query(text)?;
        self.execute(&spec)
    }

    /// Parses a textual query and registers it as a **standing query** (see
    /// [`Database::subscribe`]). Guard regions are derived from the
    /// *filtered* result — a filtered k-th-NN distance is never smaller
    /// than the unfiltered one, so the guard circle stays sound.
    pub fn subscribe_query(&self, text: &str) -> Result<SubscriptionId, QueryError> {
        let spec = self.parse_query(text)?;
        self.subscribe(&spec, None)
    }

    // -----------------------------------------------------------------
    // Observability
    // -----------------------------------------------------------------

    /// `EXPLAIN` for a textual query: parses it (without executing) and
    /// reports the full decision chain — the parsed AST, the [`QuerySpec`]
    /// the rewriter lowered it to (its `Display`, the `logical:` line), the
    /// filter-placement rewrites, the strategy the optimizer chose on the
    /// current snapshots, and the compiled physical operator tree.
    pub fn explain(&self, text: &str) -> Result<PlanExplain, QueryError> {
        explain_text(text, |spec| self.explain_spec(spec), |explain| explain)
    }

    /// `EXPLAIN` for a pre-built [`QuerySpec`]: the rewrites, chosen
    /// strategy, and compiled operator tree (no query text, AST or
    /// `logical:` line — the query never went through the parser).
    pub fn explain_spec(&self, spec: &QuerySpec) -> Result<PlanExplain, QueryError> {
        Ok(self.explain_compiled(spec)?.0)
    }

    /// Plans and compiles `spec` on one pinned snapshot, returning the
    /// explanation together with the plan it describes.
    fn explain_compiled(
        &self,
        spec: &QuerySpec,
    ) -> Result<(PlanExplain, PhysicalPlan), QueryError> {
        let snapshot = self.pin_for(spec);
        let strategy = self.plan_on(&snapshot, spec)?;
        let plan = compile(&snapshot, spec, strategy)?;
        let explain = PlanExplain {
            query: None,
            ast: None,
            logical: None,
            rewrites: rewrites_of(spec),
            strategy,
            root: OpNode::from_plan(&plan),
        };
        Ok((explain, plan))
    }

    /// `EXPLAIN ANALYZE` for a textual query: explains it, executes it (on
    /// this database's pool), and annotates every operator with wall time,
    /// rows emitted, and its [`Metrics`] counter delta. The root trace's
    /// inclusive counters reconcile exactly with the result's metrics.
    pub fn explain_analyze(&self, text: &str) -> Result<AnalyzedQuery, QueryError> {
        explain_text(
            text,
            |spec| self.explain_analyze_spec(spec),
            |analyzed| &mut analyzed.explain,
        )
    }

    /// `EXPLAIN ANALYZE` for a pre-built [`QuerySpec`].
    pub fn explain_analyze_spec(&self, spec: &QuerySpec) -> Result<AnalyzedQuery, QueryError> {
        let (explain, plan) = self.explain_compiled(spec)?;
        let (result, trace) = self.timed_exec(|| plan.execute_traced(ExecutionMode));
        Ok(AnalyzedQuery {
            explain,
            trace,
            result,
        })
    }

    /// A point-in-time report over the whole database: the cumulative
    /// [`Metrics`] counters, every latency histogram, pool gauges,
    /// per-relation version/size/shard gauges, and the pending lifecycle
    /// event count. Renders as text via `Display` or as line-oriented JSON
    /// via [`MetricsReport::to_json_lines`].
    pub fn metrics_report(&self) -> MetricsReport {
        let obs = self.store.obs();
        let mut relations: Vec<RelationGauges> = Vec::new();
        for name in self.store.names() {
            let Ok(rel) = self.store.get(&name) else {
                continue; // deregistered between listing and lookup
            };
            let snap = rel.load();
            relations.push(RelationGauges {
                name,
                version: snap.version(),
                num_points: snap.num_points(),
                delta_len: snap.delta_len(),
                shards: rel.num_shards(),
            });
        }
        MetricsReport {
            counters: self.store.metrics(),
            histograms: obs.histograms(),
            pool_queue_depth: self.pool.queue_depth(),
            pool_detached: self.pool.detached_in_flight(),
            relations,
            events_pending: obs.events_pending(),
        }
    }

    /// Removes and returns every pending lifecycle event (compactions,
    /// checkpoints, WAL segment trims, recoveries, cq re-eval storms),
    /// oldest first.
    pub fn drain_events(&self) -> Vec<Event> {
        self.store.obs().drain_events()
    }

    /// Removes and returns every retained execution trace, oldest first.
    /// Empty unless tracing is on ([`Database::set_tracing`]); at most the
    /// last 64 are kept.
    pub fn drain_traces(&self) -> Vec<QueryTrace> {
        self.store.obs().drain_traces()
    }

    /// Turns per-operator execution tracing on or off at runtime — the one
    /// switch: every database starts untraced.
    pub fn set_tracing(&self, enabled: bool) {
        self.store.obs().set_trace_enabled(enabled);
    }

    /// Whether per-operator execution tracing is currently on.
    pub fn tracing_enabled(&self) -> bool {
        self.store.obs().trace_enabled()
    }
}

/// Parses a textual query, explains its spec with `explain`, and records
/// the parser stages — the query text, the AST and the lowered spec — on
/// the [`PlanExplain`] that `stages` picks out of the outcome.
fn explain_text<T>(
    text: &str,
    explain: impl FnOnce(&QuerySpec) -> Result<T, QueryError>,
    stages: impl FnOnce(&mut T) -> &mut PlanExplain,
) -> Result<T, QueryError> {
    let query = crate::plan::lang::parse(text)?;
    let spec = query.to_spec(text)?;
    let mut explained = explain(&spec)?;
    let plan = stages(&mut explained);
    plan.query = Some(text.trim().to_string());
    plan.ast = Some(query.to_string());
    plan.logical = Some(spec.to_string());
    Ok(explained)
}

/// Label for a retained batch-member trace.
fn batch_label(i: usize) -> String {
    format!("batch[{i}]")
}

/// Human-readable filter-placement rewrite lines for a spec (empty unless
/// the spec is [`QuerySpec::Filtered`]).
fn rewrites_of(spec: &QuerySpec) -> Vec<String> {
    let QuerySpec::Filtered { filters, .. } = spec else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (relation, predicate) in &filters.pre {
        out.push(format!(
            "pre-kNN filter on `{relation}`: {predicate} (pushed below the kNN predicates)"
        ));
    }
    for (relation, predicate) in &filters.post {
        out.push(format!(
            "post-kNN filter on `{relation}`: {predicate} (residual filter over result rows)"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{pair_id_set, point_id_set, triplet_id_set};
    use crate::plan::strategy::{
        ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, TwoSelectsStrategy,
        UnchainedStrategy,
    };
    use twoknn_index::GridIndex;

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x2545F4914F6CDD1D) ^ seed;
                Point::new(
                    i as u64,
                    (h % 499) as f64 * 0.2,
                    ((h / 499) % 499) as f64 * 0.2,
                )
            })
            .collect()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.register("A", GridIndex::build(scattered(120, 1), 8).unwrap());
        db.register("B", GridIndex::build(scattered(250, 2), 8).unwrap());
        db.register("C", GridIndex::build(scattered(140, 3), 8).unwrap());
        db
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let db = db();
        let spec = QuerySpec::TwoSelects {
            relation: "Nope".into(),
            query: TwoSelectsQuery::new(
                1,
                Point::anonymous(0.0, 0.0),
                1,
                Point::anonymous(1.0, 1.0),
            ),
        };
        assert!(matches!(
            db.execute(&spec),
            Err(QueryError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn mismatched_strategy_is_rejected() {
        let db = db();
        let spec = QuerySpec::TwoSelects {
            relation: "A".into(),
            query: TwoSelectsQuery::new(
                2,
                Point::anonymous(0.0, 0.0),
                2,
                Point::anonymous(1.0, 1.0),
            ),
        };
        let err = db
            .execute_with(&spec, Strategy::Chained(ChainedStrategy::RightDeep))
            .unwrap_err();
        assert!(matches!(err, QueryError::UnsupportedPlanShape { .. }));
    }

    #[test]
    fn select_inner_strategies_agree_through_the_executor() {
        let db = db();
        let spec = QuerySpec::SelectInnerOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(30.0, 40.0)),
        };
        let results: Vec<_> = [
            SelectInnerStrategy::Conceptual,
            SelectInnerStrategy::Counting,
            SelectInnerStrategy::BlockMarking,
        ]
        .into_iter()
        .map(|s| db.execute_with(&spec, Strategy::SelectInner(s)).unwrap())
        .collect();
        let sets: Vec<_> = results
            .iter()
            .map(|r| match r {
                QueryResult::Pairs { output, .. } => pair_id_set(&output.rows),
                _ => panic!("expected pairs"),
            })
            .collect();
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
        // The auto-planned execution agrees too.
        let auto = db.execute(&spec).unwrap();
        assert_eq!(auto.num_rows(), results[0].num_rows());
    }

    #[test]
    fn unchained_strategies_agree_through_the_executor() {
        let db = db();
        let spec = QuerySpec::UnchainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: UnchainedJoinQuery::new(2, 2),
        };
        let sets: Vec<_> = [
            UnchainedStrategy::Conceptual,
            UnchainedStrategy::BlockMarkingStartWithA,
            UnchainedStrategy::BlockMarkingStartWithC,
        ]
        .into_iter()
        .map(
            |s| match db.execute_with(&spec, Strategy::Unchained(s)).unwrap() {
                QueryResult::Triplets { output, .. } => triplet_id_set(&output.rows),
                _ => panic!("expected triplets"),
            },
        )
        .collect();
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[0], sets[2]);
    }

    #[test]
    fn chained_and_two_select_paths_work_end_to_end() {
        let db = db();
        let chained = QuerySpec::ChainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: ChainedJoinQuery::new(2, 2),
        };
        let r1 = db.execute(&chained).unwrap();
        assert!(matches!(r1, QueryResult::Triplets { .. }));
        assert!(r1.num_rows() > 0);
        assert!(r1.metrics().neighborhoods_computed > 0);

        let selects = QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(
                5,
                Point::anonymous(30.0, 30.0),
                50,
                Point::anonymous(35.0, 35.0),
            ),
        };
        let fast = db.execute(&selects).unwrap();
        let slow = db
            .execute_with(
                &selects,
                Strategy::TwoSelects(TwoSelectsStrategy::Conceptual),
            )
            .unwrap();
        match (&fast, &slow) {
            (QueryResult::Points { output: f, .. }, QueryResult::Points { output: s, .. }) => {
                assert_eq!(point_id_set(&f.rows), point_id_set(&s.rows));
            }
            _ => panic!("expected point results"),
        }
    }

    #[test]
    fn planner_reports_strategies() {
        let db = db();
        let spec = QuerySpec::SelectOuterOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectOuterJoinQuery::new(2, 2, Point::anonymous(0.0, 0.0)),
        };
        assert_eq!(
            db.plan(&spec).unwrap(),
            Strategy::SelectOuter(SelectOuterStrategy::Pushdown)
        );
        let r = db.execute(&spec).unwrap();
        assert_eq!(
            r.strategy(),
            Strategy::SelectOuter(SelectOuterStrategy::Pushdown)
        );
    }

    #[test]
    fn textual_queries_run_end_to_end() {
        let db = db();
        let result = db.query("FIND B WHERE KNN(5, 30, 30)").unwrap();
        assert_eq!(result.num_rows(), 5);
        assert_eq!(result.strategy(), Strategy::Select);

        // Filters in both placements execute through the same entry point.
        let filtered = db
            .query(
                "FIND (B WHERE INSIDE(RECT(0, 0, 100, 100))) \
                 WHERE KNN(5, 30, 30) AND ID BETWEEN 0 AND 200",
            )
            .unwrap();
        assert!(filtered.num_rows() <= 5);

        // Parse errors surface as QueryError::Parse with the span intact.
        let err = db.query("FIND B WHERE").unwrap_err();
        match err {
            QueryError::Parse(parse) => assert!(parse.start <= parse.query.len()),
            other => panic!("expected a parse error, got {other:?}"),
        }

        // Unknown relations surface at execution, not parse, time.
        assert!(matches!(
            db.query("FIND Nope WHERE KNN(1, 0, 0)"),
            Err(QueryError::UnknownRelation { .. })
        ));

        // `execute` + `execute_batch` run the same parsed spec.
        let spec = db.parse_query("FIND B WHERE KNN(5, 30, 30)").unwrap();
        assert_eq!(db.execute(&spec).unwrap().num_rows(), 5);
        let batch = db.execute_batch(&[spec.clone(), spec]);
        assert!(batch.iter().all(|r| r.as_ref().unwrap().num_rows() == 5));
    }

    #[test]
    fn display_prints_every_shape_in_the_algebra() {
        let f = Point::anonymous(1.5, -2.0);
        let near = Predicate::IdRange { lo: 0, hi: 9 };
        let cases = [
            (
                QuerySpec::KnnSelect {
                    relation: "A".into(),
                    query: KnnSelectQuery::new(3, f),
                },
                "σ[k=3, f=(1.5, -2)](A)",
            ),
            (
                QuerySpec::TwoSelects {
                    relation: "A".into(),
                    query: TwoSelectsQuery::new(2, f, 7, Point::anonymous(0.0, 4.0)),
                },
                "∩(σ[k=2, f=(1.5, -2)](A), σ[k=7, f=(0, 4)](A))",
            ),
            (
                QuerySpec::SelectInnerOfJoin {
                    outer: "A".into(),
                    inner: "B".into(),
                    query: SelectInnerJoinQuery::new(2, 5, f),
                },
                "∩_B((A ⋈[k=2] B), σ[k=5, f=(1.5, -2)](B))",
            ),
            (
                QuerySpec::SelectOuterOfJoin {
                    outer: "A".into(),
                    inner: "B".into(),
                    query: SelectOuterJoinQuery::new(2, 5, f),
                },
                "(σ[k=5, f=(1.5, -2)](A) ⋈[k=2] B)",
            ),
            (
                QuerySpec::UnchainedJoins {
                    a: "A".into(),
                    b: "B".into(),
                    c: "C".into(),
                    query: UnchainedJoinQuery::new(2, 3),
                },
                "∩_B((A ⋈[k=2] B), (C ⋈[k=3] B))",
            ),
            (
                QuerySpec::ChainedJoins {
                    a: "A".into(),
                    b: "B".into(),
                    c: "C".into(),
                    query: ChainedJoinQuery::new(2, 3),
                },
                "((A ⋈[k=2] B) ⋈[k=3] C)",
            ),
        ];
        for (spec, printed) in &cases {
            assert_eq!(spec.to_string(), *printed);
        }
        // A pre-filter sits at every leaf of its relation; a post-filter
        // wraps the expression, naming its relation on a join shape; a
        // `TRUE` filter is not printed.
        let filters = QueryFilters::none()
            .pre("A", near.clone())
            .pre("C", Predicate::True)
            .post("B", Predicate::False);
        let filtered = [
            "filter[FALSE](σ[k=3, f=(1.5, -2)](filter[ID BETWEEN 0 AND 9](A)))",
            "filter[FALSE](∩(σ[k=2, f=(1.5, -2)](filter[ID BETWEEN 0 AND 9](A)), \
             σ[k=7, f=(0, 4)](filter[ID BETWEEN 0 AND 9](A))))",
            "filter[B: FALSE](∩_B((filter[ID BETWEEN 0 AND 9](A) ⋈[k=2] B), \
             σ[k=5, f=(1.5, -2)](B)))",
            "filter[B: FALSE]((σ[k=5, f=(1.5, -2)](filter[ID BETWEEN 0 AND 9](A)) ⋈[k=2] B))",
            "filter[B: FALSE](∩_B((filter[ID BETWEEN 0 AND 9](A) ⋈[k=2] B), (C ⋈[k=3] B)))",
            "filter[B: FALSE](((filter[ID BETWEEN 0 AND 9](A) ⋈[k=2] B) ⋈[k=3] C))",
        ];
        for ((spec, _), printed) in cases.into_iter().zip(filtered) {
            assert_eq!(spec.with_filters(filters.clone()).to_string(), printed);
        }
    }

    #[test]
    fn relation_names_and_profiles() {
        let db = db();
        // `relation_names` is sorted by contract — no caller-side sort.
        assert_eq!(db.relation_names(), vec!["A", "B", "C"]);
        let p = db.profile("A").unwrap();
        assert_eq!(p.num_points, 120);
        assert!(db.profile("missing").is_err());
    }
}
