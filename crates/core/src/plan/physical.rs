//! The physical-operator layer: compiled, executable plans.
//!
//! The planning pipeline is
//!
//! ```text
//! QuerySpec ──(Optimizer)──► Strategy ──(compile)──► PhysicalPlan ──(execute)──► QueryResult
//! ```
//!
//! [`compile`] resolves a [`QuerySpec`]'s relation names against a pinned
//! [`DbSnapshot`] of the catalog and binds them, in role order, to a
//! [`Strategy`] in one [`PhysicalPlan`]. The strategy already names each
//! query shape × algorithm pair of the paper, so every method of the plan is
//! one `match` on it. The operator names EXPLAIN and traces report:
//!
//! | Operator | Strategy | Paper |
//! |---|---|---|
//! | `counting` | `select-inner/Counting` | Procedure 1 |
//! | `block-marking` | `select-inner/BlockMarking` | Procedures 2–3 |
//! | `select-inner-conceptual` | `select-inner/Conceptual` (join-then-intersect) | Figure 1 |
//! | `outer-pushdown`, `outer-select-after-join` | `select-outer/*` | Figure 3 |
//! | `unchained-conceptual`, `unchained-block-marking(…)` | `unchained/*` | Section 4.1 |
//! | `chained-right-deep`, `chained-join-intersection`, `chained-nested(-cached)` | `chained/*` | Section 4.2 |
//! | `two-selects-conceptual`, `2-knn-select` | `two-selects/*` | Section 5 |
//! | `filtered-two-selects` | `two-selects/*` under a pre-kNN filter | — |
//! | `knn-select` | `select`, optionally under a pre-kNN filter | — |
//! | `residual-filter` | any, under a post-kNN filter | — |
//!
//! A [`QuerySpec::Filtered`] spec compiles in the same pass: **pre**-kNN
//! filters either become the kernel's mask (single select: the masked
//! kernel; two selects: the filtered conceptual intersection) or
//! materialize a filtered copy of the relation the join runs against (join
//! outer roles). Pre-filters on a join's *inner* role are rejected with
//! [`QueryError::InvalidTransformation`] — they change every neighborhood,
//! the same Figure 2 argument that forbids pushing a select below a join's
//! inner relation. **Post**-kNN filters resolve to role indices and prune
//! the finished rows by component: a `residual-filter` node over the
//! algorithm's node in EXPLAIN and traces.
//!
//! [`PhysicalPlan::execute`] runs a join's work items partitioned over the
//! pool the calling thread is bound to (bind `WorkerPool::new(1)` for one
//! thread). A plan holds its relations as [`Relation`] (shared-ownership
//! snapshot handles), so it stays valid — and keeps observing the exact
//! version it was compiled against — no matter what ingest or compaction
//! publish afterwards. Adding a new algorithm means adding a [`Strategy`]
//! variant and its arm in each `match`; the executor
//! ([`Database::execute`](crate::plan::Database::execute)) never changes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use twoknn_geometry::{Point, Predicate};
use twoknn_index::{get_knn_filtered, GridIndex, Metrics, SpatialIndex};

use crate::error::QueryError;
use crate::exec::ExecutionMode;
use crate::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_block_marking_from, unchained_conceptual, ChainedJoinQuery,
    UnchainedJoinQuery,
};
use crate::obs::OpTrace;
use crate::output::{Pair, QueryOutput, Triplet};
use crate::plan::executor::{QueryFilters, QueryResult, QuerySpec};
use crate::plan::strategy::{
    ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, Strategy, TwoSelectsStrategy,
    UnchainedStrategy,
};
use crate::select::{knn_select_filtered, KnnSelectQuery};
use crate::select_join::{
    block_marking, conceptual, counting, select_on_outer_after_join, select_on_outer_pushdown,
    SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use crate::selects2::{intersect_output, two_knn_select, two_selects_conceptual, TwoSelectsQuery};
use crate::store::DbSnapshot;

/// A shared handle to one pinned, immutable version of an indexed relation.
///
/// Plans hold `Relation`s rather than borrows so compiled plans own their
/// inputs: the snapshot a plan was compiled against stays alive (and
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

/// The parameters of the query shape a plan evaluates.
enum Shape {
    SelectInner(SelectInnerJoinQuery),
    SelectOuter(SelectOuterJoinQuery),
    Unchained(UnchainedJoinQuery),
    Chained(ChainedJoinQuery),
    TwoSelects(TwoSelectsQuery),
    Select(KnnSelectQuery),
}

/// The name of the post-kNN filter's node in EXPLAIN and traces.
const RESIDUAL_FILTER: &str = "residual-filter";

/// An executable physical plan: one algorithm of the paper bound to pinned
/// relations, ready to run on whatever pool the calling thread is bound to.
pub struct PhysicalPlan {
    shape: Shape,
    strategy: Strategy,
    /// The relations in role order (pair: `0 = outer`, `1 = inner`;
    /// triplet: `0 = a`, `1 = b`, `2 = c`; point: `0`). A pre-filtered join
    /// outer is its materialized filtered copy.
    relations: Vec<Relation>,
    /// A select's pre-kNN filter, the mask of its kNN kernel;
    /// [`Predicate::True`] when unfiltered and for every join.
    pre: Predicate,
    /// Post-kNN filters as `(role index, predicate)`; any puts a
    /// `residual-filter` over the algorithm.
    post: Vec<(usize, Predicate)>,
}

impl PhysicalPlan {
    /// The root operator's name, e.g. `"block-marking"`, or
    /// `"residual-filter"` when the plan has post-kNN filters.
    pub fn name(&self) -> &'static str {
        if self.is_post_filtered() {
            RESIDUAL_FILTER
        } else {
            self.algorithm_name()
        }
    }

    /// The strategy the plan implements.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The row type the plan produces.
    pub fn schema(&self) -> RowSchema {
        match self.strategy {
            Strategy::SelectInner(_) | Strategy::SelectOuter(_) => RowSchema::Pairs,
            Strategy::Unchained(_) | Strategy::Chained(_) => RowSchema::Triplets,
            Strategy::TwoSelects(_) | Strategy::Select => RowSchema::Points,
        }
    }

    /// The root operator's parameters for `EXPLAIN` output (`k=…`, focal
    /// points, or the number of post-filtered roles).
    pub fn detail(&self) -> String {
        if self.is_post_filtered() {
            format!("{} filtered roles", self.post.len())
        } else {
            self.algorithm_detail()
        }
    }

    /// A one-line, EXPLAIN-style description of the plan.
    pub fn explain(&self) -> String {
        let algorithm = format!(
            "{} [{}] -> {:?}",
            self.algorithm_name(),
            self.strategy,
            self.schema()
        );
        if self.is_post_filtered() {
            format!(
                "{RESIDUAL_FILTER}({} roles) <- {algorithm}",
                self.post.len()
            )
        } else {
            algorithm
        }
    }

    /// Runs the plan. The [`ExecutionMode`] argument is ignored.
    pub fn execute(&self, _: ExecutionMode) -> QueryResult {
        self.filter_rows(self.run_algorithm())
    }

    /// Runs the plan with a per-operator trace: wall time, rows emitted,
    /// and the [`Metrics`] delta of the algorithm's node, under a
    /// `residual-filter` root when the plan has post-kNN filters. The root
    /// trace's `inclusive` equals `result.metrics()` exactly.
    pub fn execute_traced(&self, _: ExecutionMode) -> (QueryResult, OpTrace) {
        let start = Instant::now();
        let result = self.run_algorithm();
        let algorithm = self.span(self.algorithm_name(), start, &result, Vec::new());
        if !self.is_post_filtered() {
            return (result, algorithm);
        }
        let result = self.filter_rows(result);
        let root = self.span(RESIDUAL_FILTER, start, &result, vec![algorithm]);
        (result, root)
    }

    /// Whether a `residual-filter` sits over the algorithm.
    pub(crate) fn is_post_filtered(&self) -> bool {
        !self.post.is_empty()
    }

    fn is_pre_filtered(&self) -> bool {
        !matches!(self.pre, Predicate::True)
    }

    /// The algorithm node's name.
    pub(crate) fn algorithm_name(&self) -> &'static str {
        match self.strategy {
            Strategy::SelectInner(SelectInnerStrategy::Counting) => "counting",
            Strategy::SelectInner(SelectInnerStrategy::BlockMarking) => "block-marking",
            Strategy::SelectInner(SelectInnerStrategy::Conceptual) => "select-inner-conceptual",
            Strategy::SelectOuter(SelectOuterStrategy::Pushdown) => "outer-pushdown",
            Strategy::SelectOuter(SelectOuterStrategy::SelectAfterJoin) => {
                "outer-select-after-join"
            }
            Strategy::Unchained(UnchainedStrategy::Conceptual) => "unchained-conceptual",
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA) => {
                "unchained-block-marking(A⋈B first)"
            }
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC) => {
                "unchained-block-marking(C⋈B first)"
            }
            Strategy::Chained(ChainedStrategy::RightDeep) => "chained-right-deep",
            Strategy::Chained(ChainedStrategy::JoinIntersection) => "chained-join-intersection",
            Strategy::Chained(ChainedStrategy::NestedJoin) => "chained-nested",
            Strategy::Chained(ChainedStrategy::NestedJoinCached) => "chained-nested-cached",
            Strategy::TwoSelects(_) if self.is_pre_filtered() => "filtered-two-selects",
            Strategy::TwoSelects(TwoSelectsStrategy::Conceptual) => "two-selects-conceptual",
            Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect) => "2-knn-select",
            Strategy::Select => "knn-select",
        }
    }

    /// The algorithm node's parameters for `EXPLAIN` output.
    pub(crate) fn algorithm_detail(&self) -> String {
        let mut detail = match &self.shape {
            Shape::SelectInner(SelectInnerJoinQuery {
                k_join,
                k_select,
                focal,
            })
            | Shape::SelectOuter(SelectOuterJoinQuery {
                k_join,
                k_select,
                focal,
            }) => format!(
                "k_join={k_join} k_select={k_select} focal=({}, {})",
                focal.x, focal.y
            ),
            Shape::Unchained(q) => format!("k_ab={} k_cb={}", q.k_ab, q.k_cb),
            Shape::Chained(q) => format!("k_ab={} k_bc={}", q.k_ab, q.k_bc),
            Shape::TwoSelects(q) => format!(
                "k1={} f1=({}, {}) k2={} f2=({}, {})",
                q.k1, q.f1.x, q.f1.y, q.k2, q.f2.x, q.f2.y
            ),
            Shape::Select(q) => format!("k={} focal=({}, {})", q.k, q.focal.x, q.focal.y),
        };
        if self.is_pre_filtered() {
            detail.push_str(" pre-filtered");
        }
        detail
    }

    /// Runs the algorithm node over the pinned relations.
    fn run_algorithm(&self) -> QueryResult {
        let role = |i: usize| &*self.relations[i];
        let strategy = self.strategy;
        let pairs = |output| QueryResult::Pairs { output, strategy };
        let triplets = |output| QueryResult::Triplets { output, strategy };
        let points = |output| QueryResult::Points { output, strategy };
        match (&self.shape, strategy) {
            (Shape::SelectInner(q), Strategy::SelectInner(s)) => pairs(match s {
                SelectInnerStrategy::Counting => counting(role(0), role(1), q),
                SelectInnerStrategy::BlockMarking => block_marking(role(0), role(1), q),
                SelectInnerStrategy::Conceptual => conceptual(role(0), role(1), q),
            }),
            (Shape::SelectOuter(q), Strategy::SelectOuter(s)) => pairs(match s {
                SelectOuterStrategy::Pushdown => select_on_outer_pushdown(role(0), role(1), q),
                SelectOuterStrategy::SelectAfterJoin => {
                    select_on_outer_after_join(role(0), role(1), q)
                }
            }),
            (Shape::Unchained(q), Strategy::Unchained(s)) => triplets(match s {
                UnchainedStrategy::Conceptual => unchained_conceptual(role(0), role(1), role(2), q),
                UnchainedStrategy::BlockMarkingStartWithA => {
                    unchained_block_marking(role(0), role(1), role(2), q)
                }
                UnchainedStrategy::BlockMarkingStartWithC => {
                    // Start with (C ⋈ B); the rows come in role order.
                    unchained_block_marking_from(role(2), role(1), role(0), q, true)
                }
            }),
            (Shape::Chained(q), Strategy::Chained(s)) => {
                let (a, b, c) = (role(0), role(1), role(2));
                triplets(match s {
                    ChainedStrategy::RightDeep => chained_right_deep(a, b, c, q),
                    ChainedStrategy::JoinIntersection => chained_join_intersection(a, b, c, q),
                    ChainedStrategy::NestedJoin => chained_nested(a, b, c, q),
                    ChainedStrategy::NestedJoinCached => chained_nested_cached(a, b, c, q),
                })
            }
            // Procedure 5's bounded locality is not established under a
            // pre-filter, so both filtered selects run in full through the
            // masked kernel and intersect — the conceptual QEP of Figure 16
            // made filter-aware, whichever strategy the optimizer picked.
            (Shape::TwoSelects(q), Strategy::TwoSelects(_)) if self.is_pre_filtered() => {
                let mut metrics = Metrics::default();
                let mut select =
                    |k, focal| get_knn_filtered(role(0), &focal, k, &self.pre, &mut metrics);
                let nbr1 = select(q.k1, q.f1);
                let nbr2 = select(q.k2, q.f2);
                points(intersect_output(&nbr1, &nbr2, metrics))
            }
            // Two selects are two neighborhood walks and a single select is
            // one — too little work to fan out; batch-level parallelism
            // covers the many-query case.
            (Shape::TwoSelects(q), Strategy::TwoSelects(s)) => points(match s {
                TwoSelectsStrategy::Conceptual => two_selects_conceptual(role(0), q),
                TwoSelectsStrategy::TwoKnnSelect => two_knn_select(role(0), q),
            }),
            (Shape::Select(q), Strategy::Select) => {
                points(knn_select_filtered(role(0), &q.focal, q.k, &self.pre))
            }
            _ => unreachable!("compile pairs every strategy with its own query shape"),
        }
    }

    /// The residual filter: keeps the rows whose post-filtered components
    /// match and resets `tuples_emitted` to the surviving row count. A plan
    /// without post-kNN filters passes the result through untouched.
    fn filter_rows(&self, result: QueryResult) -> QueryResult {
        if !self.is_post_filtered() {
            return result;
        }
        let keep = |components: &[&Point]| {
            self.post
                .iter()
                .all(|(role, predicate)| predicate.matches_point(components[*role]))
        };
        fn retain<R>(mut output: QueryOutput<R>, keep: impl FnMut(&R) -> bool) -> QueryOutput<R> {
            output.rows.retain(keep);
            output.metrics.tuples_emitted = output.rows.len() as u64;
            output
        }
        match result {
            QueryResult::Pairs { output, strategy } => QueryResult::Pairs {
                output: retain(output, |p| keep(&[&p.left, &p.right])),
                strategy,
            },
            QueryResult::Triplets { output, strategy } => QueryResult::Triplets {
                output: retain(output, |t| keep(&[&t.a, &t.b, &t.c])),
                strategy,
            },
            QueryResult::Points { output, strategy } => QueryResult::Points {
                output: retain(output, |p| keep(&[p])),
                strategy,
            },
        }
    }

    /// One operator's trace span, from `start` to now.
    fn span(
        &self,
        name: &'static str,
        start: Instant,
        result: &QueryResult,
        children: Vec<OpTrace>,
    ) -> OpTrace {
        OpTrace {
            name,
            strategy: self.strategy,
            rows: result.num_rows(),
            wall: start.elapsed(),
            inclusive: result.metrics(),
            children,
        }
    }
}

/// Compiles a `(spec, strategy)` pair into an executable plan, resolving
/// relation names against a pinned [`DbSnapshot`].
///
/// One pass checks that the strategy fits the query shape, pins each role,
/// turns a select's pre-kNN filter into its kernel's mask, materializes a
/// pre-filtered join outer (once per relation, however many outer roles it
/// plays), and resolves post-kNN filters to role indices.
///
/// The returned plan holds shared handles to the snapshot's relation
/// versions, so it is `'static`: it outlives the `DbSnapshot` it was
/// resolved from and keeps observing exactly those versions even while
/// ingest and compaction publish newer ones.
///
/// # Errors
///
/// [`QueryError::UnknownRelation`] for unresolved names (in the spec or its
/// filters), [`QueryError::InvalidTransformation`] for a pre-kNN filter on
/// a join's inner role, and [`QueryError::UnsupportedPlanShape`] when the
/// strategy family does not match the query shape or filters nest.
pub fn compile(
    snapshot: &DbSnapshot,
    spec: &QuerySpec,
    strategy: Strategy,
) -> Result<PhysicalPlan, QueryError> {
    let (spec, filters) = match spec {
        QuerySpec::Filtered { spec, filters } => {
            if matches!(**spec, QuerySpec::Filtered { .. }) {
                return Err(QueryError::UnsupportedPlanShape {
                    description: "nested Filtered query specs are not supported; merge the \
                                  filters into one wrapper"
                        .into(),
                });
            }
            validate_filter_placement(spec, filters)?;
            (&**spec, Some(filters))
        }
        spec => (spec, None),
    };
    let shape = match (spec, strategy) {
        (QuerySpec::SelectInnerOfJoin { query, .. }, Strategy::SelectInner(_)) => {
            Shape::SelectInner(*query)
        }
        (QuerySpec::SelectOuterOfJoin { query, .. }, Strategy::SelectOuter(_)) => {
            Shape::SelectOuter(*query)
        }
        (QuerySpec::UnchainedJoins { query, .. }, Strategy::Unchained(_)) => {
            Shape::Unchained(*query)
        }
        (QuerySpec::ChainedJoins { query, .. }, Strategy::Chained(_)) => Shape::Chained(*query),
        (QuerySpec::TwoSelects { query, .. }, Strategy::TwoSelects(_)) => Shape::TwoSelects(*query),
        (QuerySpec::KnnSelect { query, .. }, Strategy::Select) => Shape::Select(query.clone()),
        _ => {
            return Err(QueryError::UnsupportedPlanShape {
                description: format!("strategy {strategy} does not match query {spec}"),
            })
        }
    };
    // The filter on `name` in one placement, unless it keeps every point.
    fn placed<'f>(placement: &'f BTreeMap<String, Predicate>, name: &str) -> Option<&'f Predicate> {
        placement
            .get(name)
            .filter(|predicate| !matches!(predicate, Predicate::True))
    }
    let pre_filter = |name: &str| filters.and_then(|filters| placed(&filters.pre, name));
    // A select's pre-filter is its kernel's mask; a join's (outer roles
    // only, the validator guarantees it) materializes a filtered copy.
    let (pre, is_join) = match spec {
        QuerySpec::TwoSelects { relation, .. } | QuerySpec::KnnSelect { relation, .. } => {
            (pre_filter(relation).cloned(), false)
        }
        _ => (None, true),
    };
    let mut materialized: Vec<(&str, Relation)> = Vec::new();
    let relations = spec
        .role_names()
        .map(|name| -> Result<Relation, QueryError> {
            let base = snapshot.snapshot(name)?;
            let Some(predicate) = pre_filter(name).filter(|_| is_join) else {
                return Ok(Arc::clone(base) as Relation);
            };
            if let Some((_, copy)) = materialized.iter().find(|(done, _)| *done == name) {
                return Ok(Arc::clone(copy));
            }
            let copy = materialize_filtered(&**base, predicate)?;
            materialized.push((name, Arc::clone(&copy)));
            Ok(copy)
        })
        .collect::<Result<Vec<Relation>, QueryError>>()?;
    // Post-filters resolve to role indices against the row components: a
    // relation playing several roles is filtered in every one of them.
    let post = match filters {
        Some(filters) => spec
            .role_names()
            .enumerate()
            .filter_map(|(role, name)| Some((role, placed(&filters.post, name)?.clone())))
            .collect(),
        None => Vec::new(),
    };
    Ok(PhysicalPlan {
        shape,
        strategy,
        relations,
        pre: pre.unwrap_or(Predicate::True),
        post,
    })
}

/// Checks that every filtered relation name exists in the wrapped shape and
/// that no **pre**-kNN filter lands on a role where the pushdown would
/// change the query's answer — the inner relation of any kNN-join
/// (Section 3, Figure 2: filtering the inner side changes every outer
/// point's neighborhood, so rows the unfiltered query never produced would
/// appear). Post-filters are valid on every role.
fn validate_filter_placement(inner: &QuerySpec, filters: &QueryFilters) -> Result<(), QueryError> {
    for name in filters.pre.keys().chain(filters.post.keys()) {
        if !inner.role_names().any(|role| role == name) {
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
/// match is fine — the join algorithms already handle relations with
/// fewer points than `k`.
fn materialize_filtered(
    base: &dyn SpatialIndex,
    predicate: &Predicate,
) -> Result<Relation, QueryError> {
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
