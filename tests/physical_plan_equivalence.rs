//! Executor-level equivalence suite: every [`QuerySpec`] shape under every
//! [`Strategy`], on all three index types (grid, PR-quadtree, STR R-tree),
//! executed on worker pools of 1, 2 and 4 threads — all combinations must
//! return the identical result set. This is the contract the
//! physical-operator layer must keep: the strategy choice, the index
//! structure and the pool size are performance knobs, never semantics
//! knobs.
//!
//! Every run binds an explicit pool (`WorkerPool::new(n).bind(..)`), so the
//! pools of 2 and 4 really fan out whatever the machine's core count or
//! `TWOKNN_THREADS` say, and the pool of one — the serial evaluation — is
//! the reference.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::Arc;

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::obs::{OpNode, PlanExplain};
use two_knn::core::plan::{
    compile, ChainedStrategy, Database, QueryFilters, QueryResult, QuerySpec, RowSchema,
    SelectInnerStrategy, SelectOuterStrategy, Strategy, TwoSelectsStrategy, UnchainedStrategy,
};
use two_knn::core::select::KnnSelectQuery;
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::ExecutionMode;
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::geometry::Predicate;
use two_knn::Rect;
use two_knn::{GridIndex, Point, QuadtreeIndex, StrRTree, WorkerPool};

/// The strategies available for each query shape.
fn strategies_for(spec: &QuerySpec) -> Vec<Strategy> {
    match spec {
        QuerySpec::SelectInnerOfJoin { .. } => vec![
            Strategy::SelectInner(SelectInnerStrategy::Conceptual),
            Strategy::SelectInner(SelectInnerStrategy::Counting),
            Strategy::SelectInner(SelectInnerStrategy::BlockMarking),
        ],
        QuerySpec::SelectOuterOfJoin { .. } => vec![
            Strategy::SelectOuter(SelectOuterStrategy::SelectAfterJoin),
            Strategy::SelectOuter(SelectOuterStrategy::Pushdown),
        ],
        QuerySpec::UnchainedJoins { .. } => vec![
            Strategy::Unchained(UnchainedStrategy::Conceptual),
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA),
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC),
        ],
        QuerySpec::ChainedJoins { .. } => vec![
            Strategy::Chained(ChainedStrategy::RightDeep),
            Strategy::Chained(ChainedStrategy::JoinIntersection),
            Strategy::Chained(ChainedStrategy::NestedJoin),
            Strategy::Chained(ChainedStrategy::NestedJoinCached),
        ],
        QuerySpec::TwoSelects { .. } => vec![
            Strategy::TwoSelects(TwoSelectsStrategy::Conceptual),
            Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect),
        ],
        QuerySpec::KnnSelect { .. } => vec![Strategy::Select],
        // A filtered wrapper compiles against the wrapped shape's strategy.
        QuerySpec::Filtered { spec, .. } => strategies_for(spec),
    }
}

/// Order-independent canonical form of a result.
fn id_set(result: &QueryResult) -> BTreeSet<Vec<u64>> {
    result.rows().iter().map(|r| r.ids()).collect()
}

fn points(n: usize, seed: u64) -> Vec<Point> {
    berlinmod(&BerlinModConfig::with_points(n, seed))
}

/// One catalog per index type, over the same three point sets.
fn databases() -> Vec<(&'static str, Database)> {
    let a = points(700, 41);
    let b = points(1_100, 42);
    let c = points(900, 43);

    let mut grid = Database::new();
    grid.register(
        "A",
        GridIndex::build_with_target_occupancy(a.clone(), 64).unwrap(),
    );
    grid.register(
        "B",
        GridIndex::build_with_target_occupancy(b.clone(), 64).unwrap(),
    );
    grid.register(
        "C",
        GridIndex::build_with_target_occupancy(c.clone(), 64).unwrap(),
    );

    let mut quad = Database::new();
    quad.register("A", QuadtreeIndex::build(a.clone(), 64).unwrap());
    quad.register("B", QuadtreeIndex::build(b.clone(), 64).unwrap());
    quad.register("C", QuadtreeIndex::build(c.clone(), 64).unwrap());

    let mut rtree = Database::new();
    rtree.register("A", StrRTree::build(a, 64).unwrap());
    rtree.register("B", StrRTree::build(b, 64).unwrap());
    rtree.register("C", StrRTree::build(c, 64).unwrap());

    vec![("grid", grid), ("quadtree", quad), ("str-rtree", rtree)]
}

fn specs() -> Vec<(QuerySpec, RowSchema)> {
    let focal = Point::anonymous(52_000.0, 49_000.0);
    vec![
        (
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(3, 6, focal),
            },
            RowSchema::Pairs,
        ),
        (
            QuerySpec::SelectOuterOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectOuterJoinQuery::new(3, 5, focal),
            },
            RowSchema::Pairs,
        ),
        (
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 3),
            },
            RowSchema::Triplets,
        ),
        (
            QuerySpec::ChainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: ChainedJoinQuery::new(2, 2),
            },
            RowSchema::Triplets,
        ),
        (
            QuerySpec::TwoSelects {
                relation: "B".into(),
                query: TwoSelectsQuery::new(8, focal, 64, Point::anonymous(48_500.0, 51_500.0)),
            },
            RowSchema::Points,
        ),
        (
            QuerySpec::KnnSelect {
                relation: "B".into(),
                query: KnnSelectQuery { k: 9, focal },
            },
            RowSchema::Points,
        ),
        // Filtered wrapper around a select: pre-filter (the masked kernel)
        // plus a post residual.
        (
            QuerySpec::KnnSelect {
                relation: "B".into(),
                query: KnnSelectQuery { k: 12, focal },
            }
            .with_filters(
                QueryFilters::none()
                    .pre(
                        "B",
                        Predicate::InRect(Rect::new(45_000.0, 43_000.0, 57_000.0, 54_000.0)),
                    )
                    .post("B", Predicate::IdRange { lo: 0, hi: 800 }),
            ),
            RowSchema::Points,
        ),
        // Filtered wrapper around two selects: both TwoSelects strategies
        // route through the filtered conceptual intersection.
        (
            QuerySpec::TwoSelects {
                relation: "B".into(),
                query: TwoSelectsQuery::new(10, focal, 48, Point::anonymous(48_500.0, 51_500.0)),
            }
            .with_filters(QueryFilters::none().pre(
                "B",
                Predicate::InRect(Rect::new(45_000.0, 43_000.0, 57_000.0, 54_000.0)),
            )),
            RowSchema::Points,
        ),
        // A pre-filter alone on a select: the masked kernel, no residual.
        (
            QuerySpec::KnnSelect {
                relation: "B".into(),
                query: KnnSelectQuery { k: 12, focal },
            }
            .with_filters(QueryFilters::none().pre(
                "B",
                Predicate::InRect(Rect::new(45_000.0, 43_000.0, 57_000.0, 54_000.0)),
            )),
            RowSchema::Points,
        ),
        // A pre-filter on a join's outer role: the join runs against a
        // materialized filtered copy of `A`.
        (
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(3, 6, focal),
            }
            .with_filters(QueryFilters::none().pre(
                "A",
                Predicate::InRect(Rect::new(40_000.0, 37_000.0, 64_000.0, 61_000.0)),
            )),
            RowSchema::Pairs,
        ),
        // A post filter on a join: a residual filter over the triplets.
        (
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 3),
            }
            .with_filters(QueryFilters::none().post("B", Predicate::IdRange { lo: 0, hi: 700 })),
            RowSchema::Triplets,
        ),
    ]
}

/// Builds one query shape from its kNN parameters, in the order of its
/// query struct's fields (a single select reads the first).
type FromKs = fn([usize; 2]) -> QuerySpec;

/// The six query shapes over `A`, `B` and `C`, each with how many kNN
/// parameters it has.
fn k_shapes() -> [(&'static str, usize, FromKs); 6] {
    fn focal() -> Point {
        Point::anonymous(52_000.0, 49_000.0)
    }
    [
        ("select", 1, |[k, _]| QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(k, focal()),
        }),
        ("two-selects", 2, |[k1, k2]| QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(k1, focal(), k2, Point::anonymous(48_500.0, 51_500.0)),
        }),
        ("select-inner", 2, |[k_join, k_select]| {
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(k_join, k_select, focal()),
            }
        }),
        ("select-outer", 2, |[k_join, k_select]| {
            QuerySpec::SelectOuterOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectOuterJoinQuery::new(k_join, k_select, focal()),
            }
        }),
        ("unchained", 2, |[k_ab, k_cb]| QuerySpec::UnchainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: UnchainedJoinQuery::new(k_ab, k_cb),
        }),
        ("chained", 2, |[k_ab, k_bc]| QuerySpec::ChainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: ChainedJoinQuery::new(k_ab, k_bc),
        }),
    ]
}

/// A zero `k` and a `k` beyond the relation's size are legal on every
/// shape and under every strategy: a zero in any position returns no rows,
/// without an error; an oversized `k` (in one position or in all) returns
/// the rows of the shape's conceptual strategy, the first one listed.
#[test]
fn zero_and_oversized_k_are_answered_by_every_strategy() {
    /// More points than any relation below holds.
    const BIG: usize = 1_000;
    let mut db = Database::new();
    for (name, n, seed) in [("A", 30, 41), ("B", 40, 42), ("C", 35, 43)] {
        db.register(
            name,
            GridIndex::build_with_target_occupancy(points(n, seed), 8).unwrap(),
        );
    }
    for (shape, positions, build) in k_shapes() {
        let mut cases: Vec<[usize; 2]> = Vec::new();
        for position in 0..positions {
            for k in [0, BIG] {
                let mut ks = [3, 5];
                ks[position] = k;
                cases.push(ks);
            }
        }
        if positions == 2 {
            cases.push([BIG, BIG]);
        }
        for ks in cases {
            let spec = build(ks);
            let strategies = strategies_for(&spec);
            let conceptual = id_set(&db.execute_with(&spec, strategies[0]).unwrap());
            let zero = ks[..positions].contains(&0);
            assert_eq!(conceptual.is_empty(), zero, "{shape} k={ks:?}");
            for strategy in strategies {
                let result = db
                    .execute_with(&spec, strategy)
                    .unwrap_or_else(|e| panic!("{shape} k={ks:?} {strategy}: {e}"));
                assert_eq!(id_set(&result), conceptual, "{shape} k={ks:?} {strategy}");
            }
        }
    }
}

/// Pool sizes the runs are bound to; the first is the reference.
const POOL_SIZES: [usize; 3] = [1, 2, 4];

fn pools() -> Vec<Arc<WorkerPool>> {
    POOL_SIZES.into_iter().map(WorkerPool::new).collect()
}

/// The one fully specified execution path: compile against a pinned
/// snapshot, execute on `pool`.
fn run(db: &Database, spec: &QuerySpec, strategy: Strategy, pool: &WorkerPool) -> QueryResult {
    pool.bind(|| {
        compile(&db.snapshot(), spec, strategy)
            .unwrap_or_else(|e| panic!("{strategy} ({pool:?}): {e}"))
            .execute(ExecutionMode::default_mode())
    })
}

/// The heart of the suite: for every index type, every query shape, every
/// strategy, runs on pools of 1, 2 and 4 threads must all agree on the
/// result set.
#[test]
fn every_strategy_and_mode_agrees_on_every_index() {
    let pools = pools();
    let (single, wider) = pools.split_first().unwrap();
    for (index_name, db) in databases() {
        for (spec, schema) in specs() {
            let mut reference: Option<BTreeSet<Vec<u64>>> = None;
            for strategy in strategies_for(&spec) {
                let serial = run(&db, &spec, strategy, single);
                for pool in wider {
                    let threads = pool.parallelism();
                    let pooled = run(&db, &spec, strategy, pool);

                    // Every pool size agrees exactly — rows and row order.
                    assert_eq!(
                        serial.rows(),
                        pooled.rows(),
                        "pool of one vs {threads}-thread pool rows differ: {index_name}/{strategy}"
                    );
                }
                for row in serial.rows() {
                    assert_eq!(row.schema(), schema);
                }

                // Every strategy agrees with every other (order-independent).
                let ids = id_set(&serial);
                match &reference {
                    None => reference = Some(ids),
                    Some(expected) => assert_eq!(
                        &ids, expected,
                        "strategy disagreement: {index_name}/{strategy}"
                    ),
                }
            }
            assert!(
                reference.map(|r| !r.is_empty()).unwrap_or(false),
                "workload produced an empty result — the equivalence check would be vacuous \
                 ({index_name}/{spec:?})"
            );
        }
    }
}

/// Every pool size must also report the work counters of the pool of one,
/// for every strategy — the cached chained join included: it keeps one
/// cache whatever the pool size.
#[test]
fn pooled_metrics_merge_to_serial_totals() {
    let pools = pools();
    let (single, wider) = pools.split_first().unwrap();
    for (index_name, db) in databases() {
        for (spec, _) in specs() {
            for strategy in strategies_for(&spec) {
                let serial = run(&db, &spec, strategy, single);
                for pool in wider {
                    let threads = pool.parallelism();
                    let pooled = run(&db, &spec, strategy, pool);
                    assert_eq!(
                        serial.metrics(),
                        pooled.metrics(),
                        "metrics diverge on a {threads}-thread pool: {index_name}/{strategy}"
                    );
                }
            }
        }
    }
}

/// `execute_batch` returns, in input order, exactly what per-query `execute`
/// returns.
#[test]
fn execute_batch_matches_individual_execution() {
    let (_, db) = databases().remove(0);
    let batch: Vec<QuerySpec> = specs().into_iter().map(|(s, _)| s).collect();
    let results = db.execute_batch(&batch);
    assert_eq!(results.len(), batch.len());
    for (spec, result) in batch.iter().zip(results) {
        let individual = db.execute(spec).unwrap();
        let batched = result.unwrap();
        assert_eq!(id_set(&batched), id_set(&individual), "{spec:?}");
        assert_eq!(batched.strategy(), individual.strategy());
    }
    // Errors surface per entry without failing the batch.
    let mixed = vec![
        batch[0].clone(),
        QuerySpec::TwoSelects {
            relation: "Missing".into(),
            query: TwoSelectsQuery::new(
                1,
                Point::anonymous(0.0, 0.0),
                1,
                Point::anonymous(1.0, 1.0),
            ),
        },
    ];
    let results = db.execute_batch(&mixed);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
}

/// Batch execution through explicit pools of 1, 2 and 4 threads — including
/// the degenerate budgets where nested batch-task → block-task submission
/// would deadlock or misbehave if pool scheduling were wrong — must agree
/// with per-query execution, and every pool size must return the same rows
/// in input order.
#[test]
fn execute_batch_agrees_across_explicit_pool_sizes() {
    let a = points(700, 41);
    let b = points(1_100, 42);
    let c = points(900, 43);
    let batch: Vec<QuerySpec> = specs().into_iter().map(|(s, _)| s).collect();
    let mut on_one_thread: Option<Vec<_>> = None;
    for parallelism in POOL_SIZES {
        let mut db = Database::with_pool(WorkerPool::new(parallelism));
        db.register(
            "A",
            GridIndex::build_with_target_occupancy(a.clone(), 64).unwrap(),
        );
        db.register(
            "B",
            GridIndex::build_with_target_occupancy(b.clone(), 64).unwrap(),
        );
        db.register(
            "C",
            GridIndex::build_with_target_occupancy(c.clone(), 64).unwrap(),
        );
        let results: Vec<QueryResult> = db
            .execute_batch(&batch)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        for (spec, result) in batch.iter().zip(&results) {
            let individual = db.execute(spec).unwrap();
            assert_eq!(
                id_set(result),
                id_set(&individual),
                "pool parallelism {parallelism}: {spec:?}"
            );
        }
        let rows: Vec<_> = results.iter().map(QueryResult::rows).collect();
        match &on_one_thread {
            None => on_one_thread = Some(rows),
            Some(expected) => assert_eq!(
                &rows, expected,
                "pool parallelism {parallelism} changed the batch's rows or their order"
            ),
        }
    }
}

/// The operator every `specs()` × `strategies_for` plan compiles to, in
/// iteration order: its `name()`, its one-line `explain()`, and the
/// `plan:` section of its EXPLAIN tree.
const OPERATORS: &[(&str, &str, &str)] = &[
    (
        "select-inner-conceptual",
        "select-inner-conceptual [select-inner/Conceptual] -> Pairs",
        "  select-inner-conceptual [select-inner/Conceptual] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    (
        "counting",
        "counting [select-inner/Counting] -> Pairs",
        "  counting [select-inner/Counting] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    (
        "block-marking",
        "block-marking [select-inner/BlockMarking] -> Pairs",
        "  block-marking [select-inner/BlockMarking] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    (
        "outer-select-after-join",
        "outer-select-after-join [select-outer/SelectAfterJoin] -> Pairs",
        "  outer-select-after-join [select-outer/SelectAfterJoin] -> Pairs (k_join=3 k_select=5 focal=(52000, 49000))\n",
    ),
    (
        "outer-pushdown",
        "outer-pushdown [select-outer/Pushdown] -> Pairs",
        "  outer-pushdown [select-outer/Pushdown] -> Pairs (k_join=3 k_select=5 focal=(52000, 49000))\n",
    ),
    (
        "unchained-conceptual",
        "unchained-conceptual [unchained/Conceptual] -> Triplets",
        "  unchained-conceptual [unchained/Conceptual] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
    (
        "unchained-block-marking(A⋈B first)",
        "unchained-block-marking(A⋈B first) [unchained/BlockMarkingStartWithA] -> Triplets",
        "  unchained-block-marking(A⋈B first) [unchained/BlockMarkingStartWithA] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
    (
        "unchained-block-marking(C⋈B first)",
        "unchained-block-marking(C⋈B first) [unchained/BlockMarkingStartWithC] -> Triplets",
        "  unchained-block-marking(C⋈B first) [unchained/BlockMarkingStartWithC] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
    (
        "chained-right-deep",
        "chained-right-deep [chained/RightDeep] -> Triplets",
        "  chained-right-deep [chained/RightDeep] -> Triplets (k_ab=2 k_bc=2)\n",
    ),
    (
        "chained-join-intersection",
        "chained-join-intersection [chained/JoinIntersection] -> Triplets",
        "  chained-join-intersection [chained/JoinIntersection] -> Triplets (k_ab=2 k_bc=2)\n",
    ),
    (
        "chained-nested",
        "chained-nested [chained/NestedJoin] -> Triplets",
        "  chained-nested [chained/NestedJoin] -> Triplets (k_ab=2 k_bc=2)\n",
    ),
    (
        "chained-nested-cached",
        "chained-nested-cached [chained/NestedJoinCached] -> Triplets",
        "  chained-nested-cached [chained/NestedJoinCached] -> Triplets (k_ab=2 k_bc=2)\n",
    ),
    (
        "two-selects-conceptual",
        "two-selects-conceptual [two-selects/Conceptual] -> Points",
        "  two-selects-conceptual [two-selects/Conceptual] -> Points (k1=8 f1=(52000, 49000) k2=64 f2=(48500, 51500))\n",
    ),
    (
        "2-knn-select",
        "2-knn-select [two-selects/TwoKnnSelect] -> Points",
        "  2-knn-select [two-selects/TwoKnnSelect] -> Points (k1=8 f1=(52000, 49000) k2=64 f2=(48500, 51500))\n",
    ),
    (
        "knn-select",
        "knn-select [select] -> Points",
        "  knn-select [select] -> Points (k=9 focal=(52000, 49000))\n",
    ),
    // Pre-filtered and post-filtered select.
    (
        "residual-filter",
        "residual-filter(1 roles) <- knn-select [select] -> Points",
        "  residual-filter [select] -> Points (1 filtered roles)\n    knn-select [select] -> Points (k=12 focal=(52000, 49000) pre-filtered)\n",
    ),
    // Pre-filtered two selects: one operator whatever the strategy.
    (
        "filtered-two-selects",
        "filtered-two-selects [two-selects/Conceptual] -> Points",
        "  filtered-two-selects [two-selects/Conceptual] -> Points (k1=10 f1=(52000, 49000) k2=48 f2=(48500, 51500) pre-filtered)\n",
    ),
    (
        "filtered-two-selects",
        "filtered-two-selects [two-selects/TwoKnnSelect] -> Points",
        "  filtered-two-selects [two-selects/TwoKnnSelect] -> Points (k1=10 f1=(52000, 49000) k2=48 f2=(48500, 51500) pre-filtered)\n",
    ),
    // Pre-filtered select.
    (
        "knn-select",
        "knn-select [select] -> Points",
        "  knn-select [select] -> Points (k=12 focal=(52000, 49000) pre-filtered)\n",
    ),
    // Pre-filtered join outer: the algorithm node alone.
    (
        "select-inner-conceptual",
        "select-inner-conceptual [select-inner/Conceptual] -> Pairs",
        "  select-inner-conceptual [select-inner/Conceptual] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    (
        "counting",
        "counting [select-inner/Counting] -> Pairs",
        "  counting [select-inner/Counting] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    (
        "block-marking",
        "block-marking [select-inner/BlockMarking] -> Pairs",
        "  block-marking [select-inner/BlockMarking] -> Pairs (k_join=3 k_select=6 focal=(52000, 49000))\n",
    ),
    // Post-filtered join: a residual-filter root over the algorithm node.
    (
        "residual-filter",
        "residual-filter(1 roles) <- unchained-conceptual [unchained/Conceptual] -> Triplets",
        "  residual-filter [unchained/Conceptual] -> Triplets (1 filtered roles)\n    unchained-conceptual [unchained/Conceptual] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
    (
        "residual-filter",
        "residual-filter(1 roles) <- unchained-block-marking(A⋈B first) [unchained/BlockMarkingStartWithA] -> Triplets",
        "  residual-filter [unchained/BlockMarkingStartWithA] -> Triplets (1 filtered roles)\n    unchained-block-marking(A⋈B first) [unchained/BlockMarkingStartWithA] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
    (
        "residual-filter",
        "residual-filter(1 roles) <- unchained-block-marking(C⋈B first) [unchained/BlockMarkingStartWithC] -> Triplets",
        "  residual-filter [unchained/BlockMarkingStartWithC] -> Triplets (1 filtered roles)\n    unchained-block-marking(C⋈B first) [unchained/BlockMarkingStartWithC] -> Triplets (k_ab=2 k_cb=3)\n",
    ),
];

/// The compile step exposes the plan without running it: every shape ×
/// strategy compiles to the expected operator name, one-line explain and
/// EXPLAIN tree, and a post filter is a `residual-filter` root with one
/// algorithm child in both the EXPLAIN tree and the executed trace.
#[test]
fn compiled_plans_expose_operator_metadata() {
    let (_, db) = databases().remove(0);
    let mut expected = OPERATORS.iter();
    for (spec, schema) in specs() {
        for strategy in strategies_for(&spec) {
            let plan = compile(&db.snapshot(), &spec, strategy).unwrap();
            let (name, explain, tree) = expected.next().expect("an expected operator per plan");
            assert_eq!(plan.strategy(), strategy);
            assert_eq!(plan.schema(), schema);
            assert_eq!(plan.name(), *name, "{strategy}");
            assert_eq!(plan.explain(), *explain, "{strategy}");
            let rendered = PlanExplain {
                query: None,
                ast: None,
                logical: None,
                rewrites: Vec::new(),
                strategy,
                root: OpNode::from_plan(plan.borrow()),
            }
            .render();
            assert_eq!(rendered, format!("strategy: {strategy}\nplan:\n{tree}"));
        }
    }
    assert!(
        expected.next().is_none(),
        "every expected operator compiled"
    );

    let (post, _) = specs().pop().unwrap();
    let explain = db.explain_spec(&post).unwrap();
    assert_eq!(explain.root.name, "residual-filter");
    assert_eq!(explain.root.children.len(), 1);
    let algorithm = &explain.root.children[0];
    assert!(algorithm.children.is_empty());
    let analyzed = db.explain_analyze_spec(&post).unwrap();
    assert_eq!(analyzed.trace.name, "residual-filter");
    assert_eq!(analyzed.trace.rows, analyzed.result.num_rows());
    assert_eq!(analyzed.trace.inclusive, analyzed.result.metrics());
    assert_eq!(analyzed.trace.children.len(), 1);
    let child = &analyzed.trace.children[0];
    assert_eq!(child.name, algorithm.name);
    assert_eq!(child.strategy, algorithm.strategy);
    assert!(child.children.is_empty());
    assert!(child.rows >= analyzed.trace.rows);
}
