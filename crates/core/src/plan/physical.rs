//! The physical-operator layer: compiled, executable plans.
//!
//! The planning pipeline is
//!
//! ```text
//! QuerySpec ──(Optimizer)──► Strategy ──(compile)──► Box<dyn PhysicalPlan> ──(execute)──► QueryResult
//! ```
//!
//! [`compile`] resolves a [`QuerySpec`]'s relation names against a pinned
//! [`DbSnapshot`] of the catalog and pairs them with a [`Strategy`] into one
//! of the operator structs of this module — one per algorithm family of the
//! paper:
//!
//! | Operator | Algorithm family | Paper |
//! |---|---|---|
//! | [`CountingOp`] | Counting | Procedure 1 |
//! | [`BlockMarkingOp`] | Block-Marking | Procedures 2–3 |
//! | [`SelectInnerConceptualOp`] | conceptual join-then-intersect QEP | Figure 1 |
//! | [`OuterPushdownOp`] | select-on-outer (pushdown or select-after-join) | Figure 3 |
//! | [`UnchainedJoinsOp`] | two unchained joins | Section 4.1 |
//! | [`ChainedJoinsOp`] | two chained joins | Section 4.2 |
//! | [`TwoSelectsOp`] | two kNN-selects | Section 5 |
//! | [`KnnSelectOp`] | single (optionally filtered) kNN-select | — |
//! | [`FilteredTwoSelectsOp`] | two filtered kNN-selects | — |
//! | [`ResidualFilterOp`] | post-kNN residual filter over any plan | — |
//!
//! A [`QuerySpec::Filtered`] spec compiles through [`compile`]'s filter
//! path: **pre**-kNN filters either flow into the operator's predicate
//! (single select: the masked kernel; two selects: the filtered
//! conceptual intersection) or materialize a filtered copy of the relation
//! that the wrapped shape's operator is compiled against (join outer
//! roles). Pre-filters on a join's *inner* role are rejected with
//! [`QueryError::InvalidTransformation`] — they change every neighborhood,
//! the same Figure 2 argument that forbids pushing a select below a join's
//! inner relation. **Post**-kNN filters wrap the compiled plan in a
//! [`ResidualFilterOp`] that prunes finished rows by component.
//!
//! Every operator implements [`PhysicalPlan`]: it knows its [`Strategy`], its
//! output [`RowSchema`], and how to [`PhysicalPlan::execute`] — a join's work
//! items partitioned over the pool the calling thread is bound to (bind
//! `WorkerPool::new(1)` for one thread). Operators hold their relations as
//! [`Relation`] (shared-ownership snapshot handles), so a compiled plan stays
//! valid — and keeps observing the exact version it was compiled against —
//! no matter what ingest or compaction publish afterwards. Adding a new
//! algorithm means adding an operator struct and a `compile` arm; the
//! executor ([`Database::execute`](crate::plan::Database::execute)) never
//! changes.

use std::collections::BTreeMap;
use std::sync::Arc;

use twoknn_geometry::{Point, Predicate};
use twoknn_index::{GridIndex, Metrics, SpatialIndex};

use crate::error::QueryError;
use crate::exec::ExecutionMode;
use crate::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_conceptual, ChainedJoinQuery, UnchainedJoinQuery,
};
use crate::output::{Pair, QueryOutput, Triplet};
use crate::plan::executor::{QueryFilters, QueryResult, QuerySpec};
use crate::plan::strategy::{
    ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, Strategy, TwoSelectsStrategy,
    UnchainedStrategy,
};
use crate::select::{knn_select_filtered, knn_select_filtered_neighborhood, KnnSelectQuery};
use crate::select_join::{
    block_marking, conceptual, counting, select_on_outer_after_join, select_on_outer_pushdown,
    BlockMarkingConfig, SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use crate::selects2::{intersect_output, two_knn_select, two_selects_conceptual, TwoSelectsQuery};
use crate::store::DbSnapshot;

/// A shared handle to one pinned, immutable version of an indexed relation.
///
/// Operators hold `Relation`s rather than borrows so compiled plans own
/// their inputs: the snapshot a plan was compiled against stays alive (and
/// frozen) for as long as the plan does, independent of concurrent catalog
/// mutation, ingest, or compaction.
pub type Relation = Arc<dyn SpatialIndex + Send + Sync>;

/// The row type a physical plan produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSchema {
    /// `(outer, inner)` pairs — select + join queries.
    Pairs,
    /// `(a, b, c)` triplets — two-join queries.
    Triplets,
    /// Single points — two-select queries.
    Points,
}

/// One output row of a physical plan, tagged by its type.
///
/// [`QueryResult::rows`] flattens any result into this shape so generic
/// drivers (servers, REPLs, test harnesses) can consume every query shape
/// through one type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Row {
    /// A pair row.
    Pair(Pair),
    /// A triplet row.
    Triplet(Triplet),
    /// A point row.
    Point(Point),
}

impl Row {
    /// The schema this row belongs to.
    pub fn schema(&self) -> RowSchema {
        match self {
            Row::Pair(_) => RowSchema::Pairs,
            Row::Triplet(_) => RowSchema::Triplets,
            Row::Point(_) => RowSchema::Points,
        }
    }

    /// The ids of the row's components, in relation order.
    pub fn ids(&self) -> Vec<u64> {
        match self {
            Row::Pair(p) => vec![p.left.id, p.right.id],
            Row::Triplet(t) => vec![t.a.id, t.b.id, t.c.id],
            Row::Point(p) => vec![p.id],
        }
    }
}

/// An executable physical plan: a specific algorithm bound to specific
/// relations, ready to run on whatever pool the calling thread is bound to.
pub trait PhysicalPlan: Send + Sync {
    /// Short operator name, e.g. `"block-marking"`.
    fn name(&self) -> &'static str;

    /// The strategy this operator implements.
    fn strategy(&self) -> Strategy;

    /// The row type the operator produces.
    fn schema(&self) -> RowSchema;

    /// Runs the operator. The [`ExecutionMode`] argument is ignored.
    fn execute(&self, _: ExecutionMode) -> QueryResult;

    /// Runs the operator with a per-operator trace: wall time, rows
    /// emitted, and the [`Metrics`] delta of the subtree. The default
    /// covers leaf operators (every operator except the residual filter);
    /// nesting operators override it to trace their children too. The
    /// root trace's `inclusive` equals `result.metrics()` exactly.
    fn execute_traced(&self, _: ExecutionMode) -> (QueryResult, crate::obs::OpTrace) {
        let start = std::time::Instant::now();
        let result = self.execute(ExecutionMode);
        let trace = crate::obs::OpTrace {
            name: self.name(),
            strategy: self.strategy(),
            rows: result.num_rows(),
            wall: start.elapsed(),
            inclusive: result.metrics(),
            children: Vec::new(),
        };
        (result, trace)
    }

    /// Operator-specific parameters for `EXPLAIN` output (`k=…`, roles).
    /// Empty by default.
    fn detail(&self) -> String {
        String::new()
    }

    /// Nested input operators, for plan-tree introspection. Leaf operators
    /// (the default) have none.
    fn children(&self) -> Vec<&dyn PhysicalPlan> {
        Vec::new()
    }

    /// A one-line, EXPLAIN-style description of the plan.
    fn explain(&self) -> String {
        format!(
            "{} [{}] -> {:?}",
            self.name(),
            self.strategy(),
            self.schema()
        )
    }
}

/// Compiles a `(spec, strategy)` pair into an executable operator, resolving
/// relation names against a pinned [`DbSnapshot`].
///
/// The returned plan holds shared handles to the snapshot's relation
/// versions, so it is `'static`: it outlives the `DbSnapshot` it was
/// resolved from and keeps observing exactly those versions even while
/// ingest and compaction publish newer ones.
///
/// # Errors
///
/// [`QueryError::UnknownRelation`] for unresolved names, and
/// [`QueryError::UnsupportedPlanShape`] when the strategy family does not
/// match the query shape.
pub fn compile(
    snapshot: &DbSnapshot,
    spec: &QuerySpec,
    strategy: Strategy,
) -> Result<Box<dyn PhysicalPlan>, QueryError> {
    match spec {
        QuerySpec::Filtered { spec, filters } => {
            compile_filtered(snapshot, spec, filters, strategy)
        }
        _ => compile_with_overrides(snapshot, spec, strategy, &BTreeMap::new()),
    }
}

/// The filter-free compile path, with an escape hatch: relation names in
/// `overrides` resolve to the supplied (typically pre-filtered) index
/// instead of the snapshot. [`compile_filtered`] uses this to push a valid
/// pre-kNN filter below a join's outer role without every operator having
/// to learn about predicates.
fn compile_with_overrides(
    snapshot: &DbSnapshot,
    spec: &QuerySpec,
    strategy: Strategy,
    overrides: &BTreeMap<String, Relation>,
) -> Result<Box<dyn PhysicalPlan>, QueryError> {
    let pin = |name: &str| -> Result<Relation, QueryError> {
        if let Some(filtered) = overrides.get(name) {
            return Ok(Arc::clone(filtered));
        }
        Ok(Arc::clone(snapshot.snapshot(name)?) as Relation)
    };
    match (spec, strategy) {
        (
            QuerySpec::SelectInnerOfJoin {
                outer,
                inner,
                query,
            },
            Strategy::SelectInner(s),
        ) => {
            let outer = pin(outer)?;
            let inner = pin(inner)?;
            Ok(match s {
                SelectInnerStrategy::Counting => Box::new(CountingOp {
                    outer,
                    inner,
                    query: *query,
                }),
                SelectInnerStrategy::BlockMarking => Box::new(BlockMarkingOp {
                    outer,
                    inner,
                    query: *query,
                    config: BlockMarkingConfig::default(),
                }),
                SelectInnerStrategy::Conceptual => Box::new(SelectInnerConceptualOp {
                    outer,
                    inner,
                    query: *query,
                }),
            })
        }
        (
            QuerySpec::SelectOuterOfJoin {
                outer,
                inner,
                query,
            },
            Strategy::SelectOuter(s),
        ) => Ok(Box::new(OuterPushdownOp {
            outer: pin(outer)?,
            inner: pin(inner)?,
            query: *query,
            strategy: s,
        })),
        (QuerySpec::UnchainedJoins { a, b, c, query }, Strategy::Unchained(s)) => {
            Ok(Box::new(UnchainedJoinsOp {
                a: pin(a)?,
                b: pin(b)?,
                c: pin(c)?,
                query: *query,
                strategy: s,
            }))
        }
        (QuerySpec::ChainedJoins { a, b, c, query }, Strategy::Chained(s)) => {
            Ok(Box::new(ChainedJoinsOp {
                a: pin(a)?,
                b: pin(b)?,
                c: pin(c)?,
                query: *query,
                strategy: s,
            }))
        }
        (QuerySpec::TwoSelects { relation, query }, Strategy::TwoSelects(s)) => {
            Ok(Box::new(TwoSelectsOp {
                relation: pin(relation)?,
                query: *query,
                strategy: s,
            }))
        }
        (QuerySpec::KnnSelect { relation, query }, Strategy::Select) => Ok(Box::new(KnnSelectOp {
            relation: pin(relation)?,
            query: query.clone(),
            predicate: Predicate::True,
        })),
        (spec, strategy) => Err(QueryError::UnsupportedPlanShape {
            description: format!("strategy {strategy} does not match query {spec:?}"),
        }),
    }
}

/// Compiles a [`QuerySpec::Filtered`] query: validates filter placement,
/// threads pre-kNN filters into the wrapped shape, and wraps post-kNN
/// filters as a [`ResidualFilterOp`].
fn compile_filtered(
    snapshot: &DbSnapshot,
    inner: &QuerySpec,
    filters: &QueryFilters,
    strategy: Strategy,
) -> Result<Box<dyn PhysicalPlan>, QueryError> {
    if matches!(inner, QuerySpec::Filtered { .. }) {
        return Err(QueryError::UnsupportedPlanShape {
            description: "nested Filtered query specs are not supported; merge the filters \
                          into one wrapper"
                .into(),
        });
    }
    validate_filter_placement(inner, filters)?;
    let mismatch = || QueryError::UnsupportedPlanShape {
        description: format!("strategy {strategy} does not match query {inner:?}"),
    };
    let pre = |relation: &str| -> Predicate {
        filters
            .pre
            .get(relation)
            .cloned()
            .unwrap_or(Predicate::True)
    };
    let plan: Box<dyn PhysicalPlan> = match inner {
        // Single select: the pre-filter IS the masked kernel's predicate.
        QuerySpec::KnnSelect { relation, query } => {
            if strategy != Strategy::Select {
                return Err(mismatch());
            }
            Box::new(KnnSelectOp {
                relation: Arc::clone(snapshot.snapshot(relation)?) as Relation,
                query: query.clone(),
                predicate: pre(relation),
            })
        }
        // Two selects under a pre-filter: the bounded-locality 2-kNN-select
        // (Procedure 5) is not established under filtering, so both filtered
        // selects run in full through the masked kernel and intersect — the
        // conceptual QEP of Figure 16, filter-aware.
        QuerySpec::TwoSelects { relation, query } if !matches!(pre(relation), Predicate::True) => {
            let Strategy::TwoSelects(s) = strategy else {
                return Err(mismatch());
            };
            Box::new(FilteredTwoSelectsOp {
                relation: Arc::clone(snapshot.snapshot(relation)?) as Relation,
                query: *query,
                predicate: pre(relation),
                strategy: s,
            })
        }
        // Join shapes (and unfiltered two-selects): pre-filters sit on
        // outer roles only (the validator guarantees it), so each one
        // materializes a filtered copy of its relation and the wrapped
        // shape compiles unchanged against the override.
        _ => {
            let mut overrides = BTreeMap::new();
            for (name, predicate) in &filters.pre {
                if matches!(predicate, Predicate::True) {
                    continue;
                }
                let base = Arc::clone(snapshot.snapshot(name)?) as Relation;
                overrides.insert(name.clone(), materialize_filtered(&base, predicate)?);
            }
            compile_with_overrides(snapshot, inner, strategy, &overrides)?
        }
    };
    // Post-filters resolve to role indices against the row components: a
    // relation playing several roles is filtered in every one of them.
    let roles = inner.relations();
    let mut post: Vec<(usize, Predicate)> = Vec::new();
    for (name, predicate) in &filters.post {
        if matches!(predicate, Predicate::True) {
            continue;
        }
        for (idx, role) in roles.iter().enumerate() {
            if role == name {
                post.push((idx, predicate.clone()));
            }
        }
    }
    if post.is_empty() {
        Ok(plan)
    } else {
        Ok(Box::new(ResidualFilterOp {
            input: plan,
            filters: post,
        }))
    }
}

/// Checks that every filtered relation name exists in the wrapped shape and
/// that no **pre**-kNN filter lands on a role where the pushdown would
/// change the query's answer — the inner relation of any kNN-join
/// (Section 3, Figure 2: filtering the inner side changes every outer
/// point's neighborhood, so rows the unfiltered query never produced would
/// appear). Post-filters are valid on every role.
fn validate_filter_placement(inner: &QuerySpec, filters: &QueryFilters) -> Result<(), QueryError> {
    let roles = inner.relations();
    for name in filters.pre.keys().chain(filters.post.keys()) {
        if !roles.iter().any(|role| role == name) {
            return Err(QueryError::UnknownRelation { name: name.clone() });
        }
    }
    // Role names playing a join-inner part, per shape. A name listed here
    // refuses pre-filters even if it also plays an outer role (same
    // relation joined against itself): the inner occurrence taints it.
    let join_inner_roles: Vec<&str> = match inner {
        QuerySpec::SelectInnerOfJoin { inner, .. } | QuerySpec::SelectOuterOfJoin { inner, .. } => {
            vec![inner]
        }
        QuerySpec::UnchainedJoins { b, .. } => vec![b],
        QuerySpec::ChainedJoins { b, c, .. } => vec![b, c],
        QuerySpec::TwoSelects { .. } | QuerySpec::KnnSelect { .. } => vec![],
        QuerySpec::Filtered { .. } => unreachable!("nesting rejected before validation"),
    };
    for (name, predicate) in &filters.pre {
        if matches!(predicate, Predicate::True) {
            continue;
        }
        if join_inner_roles.iter().any(|role| role == name) {
            return Err(QueryError::InvalidTransformation {
                reason: format!(
                    "cannot apply a pre-kNN filter to `{name}`: it is the inner relation of \
                     a kNN-join, and filtering it changes every outer point's neighborhood \
                     (Section 3 of the paper). Apply the filter to the join's output instead \
                     (post placement)."
                ),
            });
        }
    }
    Ok(())
}

/// Materializes the subset of `base` matching `predicate` as a fresh
/// [`GridIndex`] over the **base relation's bounds** (so MINDIST geometry
/// stays comparable), sized for ~64 points per occupied block. An empty
/// match is fine — the downstream operators already handle relations with
/// fewer points than `k`.
fn materialize_filtered(base: &Relation, predicate: &Predicate) -> Result<Relation, QueryError> {
    let points: Vec<Point> = base
        .all_points()
        .into_iter()
        .filter(|p| predicate.matches_point(p))
        .collect();
    let cells = ((points.len() as f64 / 64.0).sqrt().ceil() as usize).max(1);
    let index = GridIndex::build_with_bounds(points, base.bounds(), cells).map_err(|err| {
        QueryError::UnsupportedPlanShape {
            description: format!("cannot materialize filtered relation: {err}"),
        }
    })?;
    Ok(Arc::new(index) as Relation)
}

/// Shared [`PhysicalPlan::detail`] rendering for the select-inner family.
fn select_inner_detail(query: &SelectInnerJoinQuery) -> String {
    format!(
        "k_join={} k_select={} focal=({}, {})",
        query.k_join, query.k_select, query.focal.x, query.focal.y
    )
}

/// Shared [`PhysicalPlan::detail`] rendering for the two-selects family.
fn two_selects_detail(query: &TwoSelectsQuery) -> String {
    format!(
        "k1={} f1=({}, {}) k2={} f2=({}, {})",
        query.k1, query.f1.x, query.f1.y, query.k2, query.f2.x, query.f2.y
    )
}

/// The Counting algorithm (Procedure 1) bound to its relations.
pub struct CountingOp {
    /// The outer relation `E1`.
    pub outer: Relation,
    /// The inner relation `E2`.
    pub inner: Relation,
    /// Query parameters.
    pub query: SelectInnerJoinQuery,
}

impl PhysicalPlan for CountingOp {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn strategy(&self) -> Strategy {
        Strategy::SelectInner(SelectInnerStrategy::Counting)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Pairs
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        QueryResult::Pairs {
            output: counting(&*self.outer, &*self.inner, &self.query),
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        select_inner_detail(&self.query)
    }
}

/// The Block-Marking algorithm (Procedures 2–3) bound to its relations.
pub struct BlockMarkingOp {
    /// The outer relation `E1`.
    pub outer: Relation,
    /// The inner relation `E2`.
    pub inner: Relation,
    /// Query parameters.
    pub query: SelectInnerJoinQuery,
    /// Tuning knobs (contour pruning on/off).
    pub config: BlockMarkingConfig,
}

impl PhysicalPlan for BlockMarkingOp {
    fn name(&self) -> &'static str {
        "block-marking"
    }

    fn strategy(&self) -> Strategy {
        Strategy::SelectInner(SelectInnerStrategy::BlockMarking)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Pairs
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        QueryResult::Pairs {
            output: block_marking(&*self.outer, &*self.inner, &self.query, &self.config),
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        select_inner_detail(&self.query)
    }
}

/// The conceptually correct join-then-intersect QEP (Figure 1).
pub struct SelectInnerConceptualOp {
    /// The outer relation `E1`.
    pub outer: Relation,
    /// The inner relation `E2`.
    pub inner: Relation,
    /// Query parameters.
    pub query: SelectInnerJoinQuery,
}

impl PhysicalPlan for SelectInnerConceptualOp {
    fn name(&self) -> &'static str {
        "select-inner-conceptual"
    }

    fn strategy(&self) -> Strategy {
        Strategy::SelectInner(SelectInnerStrategy::Conceptual)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Pairs
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        QueryResult::Pairs {
            output: conceptual(&*self.outer, &*self.inner, &self.query),
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        select_inner_detail(&self.query)
    }
}

/// The select-on-outer operator (Figure 3): the valid pushdown, or the
/// reference select-after-join plan.
pub struct OuterPushdownOp {
    /// The outer relation `E1`.
    pub outer: Relation,
    /// The inner relation `E2`.
    pub inner: Relation,
    /// Query parameters.
    pub query: SelectOuterJoinQuery,
    /// Which of the two equivalent QEPs to run.
    pub strategy: SelectOuterStrategy,
}

impl PhysicalPlan for OuterPushdownOp {
    fn name(&self) -> &'static str {
        match self.strategy {
            SelectOuterStrategy::Pushdown => "outer-pushdown",
            SelectOuterStrategy::SelectAfterJoin => "outer-select-after-join",
        }
    }

    fn strategy(&self) -> Strategy {
        Strategy::SelectOuter(self.strategy)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Pairs
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        let output = match self.strategy {
            SelectOuterStrategy::Pushdown => {
                select_on_outer_pushdown(&*self.outer, &*self.inner, &self.query)
            }
            SelectOuterStrategy::SelectAfterJoin => {
                select_on_outer_after_join(&*self.outer, &*self.inner, &self.query)
            }
        };
        QueryResult::Pairs {
            output,
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        format!(
            "k_join={} k_select={} focal=({}, {})",
            self.query.k_join, self.query.k_select, self.query.focal.x, self.query.focal.y
        )
    }
}

/// Two unchained kNN-joins `(A ⋈ B) ∩_B (C ⋈ B)` (Section 4.1).
pub struct UnchainedJoinsOp {
    /// Relation `A`.
    pub a: Relation,
    /// The shared inner relation `B`.
    pub b: Relation,
    /// Relation `C`.
    pub c: Relation,
    /// Query parameters.
    pub query: UnchainedJoinQuery,
    /// Which evaluation order / algorithm to run.
    pub strategy: UnchainedStrategy,
}

impl PhysicalPlan for UnchainedJoinsOp {
    fn name(&self) -> &'static str {
        match self.strategy {
            UnchainedStrategy::Conceptual => "unchained-conceptual",
            UnchainedStrategy::BlockMarkingStartWithA => "unchained-block-marking(A⋈B first)",
            UnchainedStrategy::BlockMarkingStartWithC => "unchained-block-marking(C⋈B first)",
        }
    }

    fn strategy(&self) -> Strategy {
        Strategy::Unchained(self.strategy)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Triplets
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        let output = match self.strategy {
            UnchainedStrategy::Conceptual => {
                unchained_conceptual(&*self.a, &*self.b, &*self.c, &self.query)
            }
            UnchainedStrategy::BlockMarkingStartWithA => {
                unchained_block_marking(&*self.a, &*self.b, &*self.c, &self.query)
            }
            UnchainedStrategy::BlockMarkingStartWithC => {
                // Start with (C ⋈ B): swap the roles of A and C, then swap the
                // components back in the emitted triplets.
                let swapped = UnchainedJoinQuery::new(self.query.k_cb, self.query.k_ab);
                let out = unchained_block_marking(&*self.c, &*self.b, &*self.a, &swapped);
                QueryOutput::new(
                    out.rows
                        .into_iter()
                        .map(|t| Triplet::new(t.c, t.b, t.a))
                        .collect(),
                    out.metrics,
                )
            }
        };
        QueryResult::Triplets {
            output,
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        format!("k_ab={} k_cb={}", self.query.k_ab, self.query.k_cb)
    }
}

/// Two chained kNN-joins `A → B → C` (Section 4.2).
pub struct ChainedJoinsOp {
    /// Relation `A`.
    pub a: Relation,
    /// The middle relation `B`.
    pub b: Relation,
    /// Relation `C`.
    pub c: Relation,
    /// Query parameters.
    pub query: ChainedJoinQuery,
    /// Which of the equivalent QEPs to run.
    pub strategy: ChainedStrategy,
}

impl PhysicalPlan for ChainedJoinsOp {
    fn name(&self) -> &'static str {
        match self.strategy {
            ChainedStrategy::RightDeep => "chained-right-deep",
            ChainedStrategy::JoinIntersection => "chained-join-intersection",
            ChainedStrategy::NestedJoin => "chained-nested",
            ChainedStrategy::NestedJoinCached => "chained-nested-cached",
        }
    }

    fn strategy(&self) -> Strategy {
        Strategy::Chained(self.strategy)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Triplets
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        let output = match self.strategy {
            ChainedStrategy::RightDeep => {
                chained_right_deep(&*self.a, &*self.b, &*self.c, &self.query)
            }
            ChainedStrategy::JoinIntersection => {
                chained_join_intersection(&*self.a, &*self.b, &*self.c, &self.query)
            }
            ChainedStrategy::NestedJoin => {
                chained_nested(&*self.a, &*self.b, &*self.c, &self.query)
            }
            ChainedStrategy::NestedJoinCached => {
                chained_nested_cached(&*self.a, &*self.b, &*self.c, &self.query)
            }
        };
        QueryResult::Triplets {
            output,
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        format!("k_ab={} k_bc={}", self.query.k_ab, self.query.k_bc)
    }
}

/// Two kNN-selects over one relation (Section 5).
pub struct TwoSelectsOp {
    /// The relation both selects run against.
    pub relation: Relation,
    /// Query parameters.
    pub query: TwoSelectsQuery,
    /// Which of the two equivalent QEPs to run.
    pub strategy: TwoSelectsStrategy,
}

impl PhysicalPlan for TwoSelectsOp {
    fn name(&self) -> &'static str {
        match self.strategy {
            TwoSelectsStrategy::Conceptual => "two-selects-conceptual",
            TwoSelectsStrategy::TwoKnnSelect => "2-knn-select",
        }
    }

    fn strategy(&self) -> Strategy {
        Strategy::TwoSelects(self.strategy)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Points
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        // Two selects are two neighborhood walks — too little work to fan
        // out; batch-level parallelism covers the many-query case.
        let output = match self.strategy {
            TwoSelectsStrategy::Conceptual => two_selects_conceptual(&*self.relation, &self.query),
            TwoSelectsStrategy::TwoKnnSelect => two_knn_select(&*self.relation, &self.query),
        };
        QueryResult::Points {
            output,
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        two_selects_detail(&self.query)
    }
}

/// A single kNN-select `σ_{k,f}(E)`, optionally restricted to the points
/// matching a **pre-kNN** predicate: "the k nearest *matching* points".
pub struct KnnSelectOp {
    /// The relation the select runs against.
    pub relation: Relation,
    /// Query parameters.
    pub query: KnnSelectQuery,
    /// The pre-kNN filter; [`Predicate::True`] for the unfiltered select.
    pub predicate: Predicate,
}

impl PhysicalPlan for KnnSelectOp {
    fn name(&self) -> &'static str {
        "knn-select"
    }

    fn strategy(&self) -> Strategy {
        Strategy::Select
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Points
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        // A single select is one neighborhood computation — inherently
        // sequential; batch-level parallelism covers the many-query case.
        let output = knn_select_filtered(
            &*self.relation,
            &self.query.focal,
            self.query.k,
            &self.predicate,
        );
        QueryResult::Points {
            output,
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        let mut detail = format!(
            "k={} focal=({}, {})",
            self.query.k, self.query.focal.x, self.query.focal.y
        );
        if !matches!(self.predicate, Predicate::True) {
            detail.push_str(" pre-filtered");
        }
        detail
    }
}

/// Two kNN-selects under one **pre-kNN** filter: both filtered selects run
/// in full through the masked kernel and their results intersect — the
/// conceptual QEP of Figure 16 made filter-aware. (Procedure 5's bounded
/// locality is not established under filtering, so it is never used here.)
pub struct FilteredTwoSelectsOp {
    /// The relation both selects run against.
    pub relation: Relation,
    /// Query parameters.
    pub query: TwoSelectsQuery,
    /// The pre-kNN filter both selects apply.
    pub predicate: Predicate,
    /// The strategy the optimizer picked for the wrapped shape (reported,
    /// not dispatched on — filtering forces the conceptual evaluation).
    pub strategy: TwoSelectsStrategy,
}

impl PhysicalPlan for FilteredTwoSelectsOp {
    fn name(&self) -> &'static str {
        "filtered-two-selects"
    }

    fn strategy(&self) -> Strategy {
        Strategy::TwoSelects(self.strategy)
    }

    fn schema(&self) -> RowSchema {
        RowSchema::Points
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        let mut metrics = Metrics::default();
        let mut select = |k, focal| {
            knn_select_filtered_neighborhood(
                &*self.relation,
                &focal,
                k,
                &self.predicate,
                &mut metrics,
            )
        };
        let nbr1 = select(self.query.k1, self.query.f1);
        let nbr2 = select(self.query.k2, self.query.f2);
        QueryResult::Points {
            output: intersect_output(&nbr1, &nbr2, metrics),
            strategy: self.strategy(),
        }
    }

    fn detail(&self) -> String {
        format!("{} pre-filtered", two_selects_detail(&self.query))
    }
}

/// The **post-kNN** residual filter: runs any wrapped plan, then keeps only
/// the rows whose filtered components match. Filters are `(role index,
/// predicate)` pairs resolved against the row components in relation-role
/// order (pair: `0 = outer`, `1 = inner`; triplet: `0 = a`, `1 = b`,
/// `2 = c`; point: `0`).
pub struct ResidualFilterOp {
    /// The plan producing the unfiltered rows.
    pub input: Box<dyn PhysicalPlan>,
    /// Component filters, by role index.
    pub filters: Vec<(usize, Predicate)>,
}

impl ResidualFilterOp {
    fn row_matches(&self, components: &[&Point]) -> bool {
        self.filters
            .iter()
            .all(|(idx, predicate)| predicate.matches_point(components[*idx]))
    }

    /// Prunes an input result's rows by the component filters, resetting
    /// `tuples_emitted` to the surviving row count — the shared step behind
    /// both [`PhysicalPlan::execute`] and [`PhysicalPlan::execute_traced`].
    fn apply(&self, input: QueryResult) -> QueryResult {
        match input {
            QueryResult::Pairs {
                mut output,
                strategy,
            } => {
                output
                    .rows
                    .retain(|p| self.row_matches(&[&p.left, &p.right]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Pairs { output, strategy }
            }
            QueryResult::Triplets {
                mut output,
                strategy,
            } => {
                output
                    .rows
                    .retain(|t| self.row_matches(&[&t.a, &t.b, &t.c]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Triplets { output, strategy }
            }
            QueryResult::Points {
                mut output,
                strategy,
            } => {
                output.rows.retain(|p| self.row_matches(&[p]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Points { output, strategy }
            }
        }
    }
}

impl PhysicalPlan for ResidualFilterOp {
    fn name(&self) -> &'static str {
        "residual-filter"
    }

    fn strategy(&self) -> Strategy {
        self.input.strategy()
    }

    fn schema(&self) -> RowSchema {
        self.input.schema()
    }

    fn execute(&self, _: ExecutionMode) -> QueryResult {
        self.apply(self.input.execute(ExecutionMode))
    }

    fn execute_traced(&self, _: ExecutionMode) -> (QueryResult, crate::obs::OpTrace) {
        let start = std::time::Instant::now();
        let (input, child) = self.input.execute_traced(ExecutionMode);
        let result = self.apply(input);
        let trace = crate::obs::OpTrace {
            name: self.name(),
            strategy: self.strategy(),
            rows: result.num_rows(),
            wall: start.elapsed(),
            inclusive: result.metrics(),
            children: vec![child],
        };
        (result, trace)
    }

    fn detail(&self) -> String {
        format!("{} filtered roles", self.filters.len())
    }

    fn children(&self) -> Vec<&dyn PhysicalPlan> {
        vec![&*self.input]
    }

    fn explain(&self) -> String {
        format!(
            "residual-filter({} roles) <- {}",
            self.filters.len(),
            self.input.explain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn db() -> crate::plan::Database {
        let mut db = crate::plan::Database::new();
        db.register("A", GridIndex::build(scattered(120, 1), 8).unwrap());
        db.register("B", GridIndex::build(scattered(250, 2), 8).unwrap());
        db.register("C", GridIndex::build(scattered(140, 3), 8).unwrap());
        db
    }

    #[test]
    fn compile_produces_the_matching_operator() {
        let db = db();
        let spec = QuerySpec::SelectInnerOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(30.0, 40.0)),
        };
        for (s, name) in [
            (SelectInnerStrategy::Counting, "counting"),
            (SelectInnerStrategy::BlockMarking, "block-marking"),
            (SelectInnerStrategy::Conceptual, "select-inner-conceptual"),
        ] {
            let plan = compile(&db.snapshot(), &spec, Strategy::SelectInner(s)).unwrap();
            assert_eq!(plan.name(), name);
            assert_eq!(plan.schema(), RowSchema::Pairs);
            assert_eq!(plan.strategy(), Strategy::SelectInner(s));
            assert!(plan.explain().contains(name));
        }
    }

    #[test]
    fn compile_rejects_mismatched_strategy_and_unknown_relation() {
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
        assert!(matches!(
            compile(
                &db.snapshot(),
                &spec,
                Strategy::Chained(ChainedStrategy::RightDeep)
            ),
            Err(QueryError::UnsupportedPlanShape { .. })
        ));
        let missing = QuerySpec::TwoSelects {
            relation: "Nope".into(),
            query: TwoSelectsQuery::new(
                2,
                Point::anonymous(0.0, 0.0),
                2,
                Point::anonymous(1.0, 1.0),
            ),
        };
        assert!(matches!(
            compile(
                &db.snapshot(),
                &missing,
                Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect)
            ),
            Err(QueryError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn executing_a_compiled_plan_matches_database_execute() {
        let db = db();
        let spec = QuerySpec::UnchainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: UnchainedJoinQuery::new(2, 2),
        };
        let strategy = Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC);
        let plan = compile(&db.snapshot(), &spec, strategy).unwrap();
        let direct = plan.execute(ExecutionMode);
        let via_db = db.execute_with(&spec, strategy).unwrap();
        assert_eq!(direct.num_rows(), via_db.num_rows());
        assert_eq!(direct.strategy(), strategy);
    }

    #[test]
    fn knn_select_strategies_agree_and_match_brute_force() {
        let db = db();
        let spec = QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(7, Point::anonymous(40.0, 40.0)),
        };
        let snapshot = db.snapshot();
        let want = twoknn_index::brute_force_knn(
            &**snapshot.snapshot("B").unwrap(),
            &Point::anonymous(40.0, 40.0),
            7,
        )
        .ids();
        let plan = compile(&snapshot, &spec, Strategy::Select).unwrap();
        assert_eq!(plan.schema(), RowSchema::Points);
        assert_eq!(plan.strategy().to_string(), "select");
        let result = plan.execute(ExecutionMode);
        let got: Vec<u64> = result.rows().iter().flat_map(|r| r.ids()).collect();
        assert_eq!(got, want);
    }

    /// The masked kernel returns the k nearest *matching* points and, by
    /// pruning blocks against the k-th matching distance, scans fewer points
    /// than the relation holds — also under a selective rect.
    #[test]
    fn pre_filter_flows_into_the_masked_select_kernel() {
        let mut db = db();
        // Dense enough that a rect over 1 % of the extent still holds k matches.
        db.register("D", GridIndex::build(scattered(5_000, 4), 16).unwrap());
        let focal = Point::anonymous(40.0, 40.0);
        let snapshot = db.snapshot();
        for (relation, predicate) in [
            ("B", Predicate::IdRange { lo: 40, hi: 160 }),
            // 10 × 10 around the focal point of the ≈ 100 × 100 extent.
            (
                "D",
                Predicate::InRect(twoknn_geometry::Rect::new(35.0, 35.0, 45.0, 45.0)),
            ),
        ] {
            let spec = QuerySpec::KnnSelect {
                relation: relation.into(),
                query: KnnSelectQuery::new(6, focal),
            }
            .with_filters(QueryFilters::none().pre(relation, predicate.clone()));
            let index = snapshot.snapshot(relation).unwrap();
            let want = twoknn_index::brute_force_knn_filtered(&**index, &focal, 6, &predicate);
            let plan = compile(&snapshot, &spec, Strategy::Select).unwrap();
            assert_eq!(plan.name(), "knn-select");
            let result = plan.execute(ExecutionMode);
            let got: Vec<u64> = result.rows().iter().flat_map(|r| r.ids()).collect();
            assert_eq!(got, want.ids(), "{predicate}");
            assert_eq!(got.len(), 6, "{predicate}: k matches exist");
            let scanned = result.metrics().points_scanned;
            assert!(
                scanned < index.num_points() as u64,
                "{predicate}: the masked kernel scanned all {scanned} points"
            );
        }
    }

    #[test]
    fn pre_filter_on_a_join_inner_is_rejected() {
        let db = db();
        let filters = QueryFilters::none().pre("B", Predicate::IdRange { lo: 0, hi: 50 });
        for inner in [
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(30.0, 40.0)),
            },
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 2),
            },
            QuerySpec::ChainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: ChainedJoinQuery::new(2, 2),
            },
        ] {
            let strategy = db.plan(&inner).unwrap();
            let spec = inner.with_filters(filters.clone());
            let err = match compile(&db.snapshot(), &spec, strategy) {
                Err(err) => err,
                Ok(_) => panic!("expected an error for {spec:?}"),
            };
            assert!(
                matches!(err, QueryError::InvalidTransformation { .. }),
                "{spec:?}: {err}"
            );
            // The same filter in *post* placement is always accepted.
            let QuerySpec::Filtered { spec: inner, .. } = spec else {
                unreachable!()
            };
            let post = (*inner)
                .clone()
                .with_filters(QueryFilters::none().post("B", Predicate::IdRange { lo: 0, hi: 50 }));
            compile(&db.snapshot(), &post, strategy).unwrap();
        }
    }

    #[test]
    fn pre_filter_on_a_join_outer_equals_the_post_filtered_rows() {
        let db = db();
        let inner = QuerySpec::SelectInnerOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectInnerJoinQuery::new(2, 25, Point::anonymous(40.0, 40.0)),
        };
        let predicate = Predicate::InRect(twoknn_geometry::Rect::new(0.0, 0.0, 70.0, 70.0));
        // Filtering the *outer* side before the join only removes whole
        // rows (each outer point's neighborhood is independent), so the
        // pushdown must produce exactly the post-filtered rows.
        let pre = db
            .execute(
                &inner
                    .clone()
                    .with_filters(QueryFilters::none().pre("A", predicate.clone())),
            )
            .unwrap();
        let post = db
            .execute(&inner.with_filters(QueryFilters::none().post("A", predicate)))
            .unwrap();
        // Row order may differ (the materialized filtered index has its own
        // block layout), so compare as sorted id tuples.
        let ids = |r: &QueryResult| -> Vec<Vec<u64>> {
            let mut tuples: Vec<Vec<u64>> = r.rows().iter().map(|x| x.ids()).collect();
            tuples.sort_unstable();
            tuples
        };
        assert!(pre.num_rows() > 0, "filter should keep some rows");
        assert_eq!(ids(&pre), ids(&post));
    }

    #[test]
    fn residual_filter_prunes_rows_by_component() {
        let db = db();
        let inner = QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(
                5,
                Point::anonymous(30.0, 30.0),
                50,
                Point::anonymous(35.0, 35.0),
            ),
        };
        let unfiltered = db.execute(&inner).unwrap();
        let keep: Vec<u64> = unfiltered
            .rows()
            .iter()
            .flat_map(|r| r.ids())
            .take(2)
            .collect();
        let filtered = db
            .execute(
                &inner.with_filters(QueryFilters::none().post("B", Predicate::id_in(keep.clone()))),
            )
            .unwrap();
        let got: Vec<u64> = filtered.rows().iter().flat_map(|r| r.ids()).collect();
        assert_eq!(got, keep);
        assert_eq!(filtered.metrics().tuples_emitted, keep.len() as u64);
    }

    #[test]
    fn bad_filter_shapes_are_rejected() {
        let db = db();
        let base = QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(3, Point::anonymous(0.0, 0.0)),
        };
        // Unknown relation name in the filter map.
        let spec = base
            .clone()
            .with_filters(QueryFilters::none().post("Nope", Predicate::False));
        assert!(matches!(
            db.execute(&spec),
            Err(QueryError::UnknownRelation { .. })
        ));
        // Nested Filtered wrappers.
        let nested = QuerySpec::Filtered {
            spec: Box::new(base.with_filters(QueryFilters::none().post("B", Predicate::False))),
            filters: QueryFilters::none().post("B", Predicate::True),
        };
        assert!(matches!(
            db.execute(&nested),
            Err(QueryError::UnsupportedPlanShape { .. })
        ));
    }

    #[test]
    fn rows_are_typed_and_tagged() {
        let db = db();
        let spec = QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(
                5,
                Point::anonymous(30.0, 30.0),
                50,
                Point::anonymous(35.0, 35.0),
            ),
        };
        let result = db.execute(&spec).unwrap();
        let rows = result.rows();
        assert_eq!(rows.len(), result.num_rows());
        for row in &rows {
            assert_eq!(row.schema(), RowSchema::Points);
            assert_eq!(row.ids().len(), 1);
        }
    }
}
