//! Integration tests of the observability subsystem: `EXPLAIN` stability
//! across index families and filter placements, `EXPLAIN ANALYZE` counter
//! reconciliation against the global [`Metrics`] delta, latency-histogram
//! consistency under concurrent execution, lifecycle events, retained
//! traces, and the exportable metrics report (text + JSON lines).

use std::collections::BTreeSet;

use two_knn::core::obs::counter_fields;
use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{StoreConfig, WriteOp};
use two_knn::core::{EventKind, HistogramKind, OpTrace};
use two_knn::{GridIndex, Metrics, Point, QuadtreeIndex, StrRTree};

/// Irregular, tie-free point cloud over roughly [0, 110]².
fn scattered(n: usize, seed: u64) -> Vec<Point> {
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15);
            let x = (h % 100_000) as f64 * 0.0011;
            let y = ((h / 100_000) % 100_000) as f64 * 0.0011;
            Point::new(i, x, y)
        })
        .collect()
}

fn db_with(family: &str, n: usize) -> Database {
    let pts = scattered(n, 7);
    let mut db = Database::new();
    match family {
        "grid" => db.register("Objects", GridIndex::build(pts, 8).unwrap()),
        "quadtree" => db.register("Objects", QuadtreeIndex::build(pts, 32).unwrap()),
        _ => db.register("Objects", StrRTree::build(pts, 32).unwrap()),
    };
    let stations = scattered(60, 21);
    db.register("Stations", GridIndex::build(stations, 4).unwrap());
    db
}

const PRE_QUERY: &str = "FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45)";
const POST_QUERY: &str = "FIND Objects WHERE KNN(9, 45, 45) AND ID <= 250";

// -------------------------------------------------------------------------
// (a) EXPLAIN stability
// -------------------------------------------------------------------------

#[test]
fn explain_is_stable_across_families_and_filter_placements() {
    for family in ["grid", "quadtree", "rtree"] {
        let db = db_with(family, 400);

        // Pre-kNN placement: the filter disappears into the kNN kernel —
        // one operator, marked pre-filtered, with the rewrite line present.
        let pre = db.explain(PRE_QUERY).unwrap();
        assert_eq!(pre.query.as_deref(), Some(PRE_QUERY), "{family}");
        assert!(pre.ast.is_some() && pre.logical.is_some(), "{family}");
        assert_eq!(pre.rewrites.len(), 1, "{family}");
        assert!(
            pre.rewrites[0].starts_with("pre-kNN filter on `Objects`"),
            "{family}: {}",
            pre.rewrites[0]
        );
        assert_eq!(pre.root.children.len(), 0, "{family}: pre is one operator");
        assert!(
            pre.root.detail.contains("pre-filtered"),
            "{family}: {}",
            pre.root.detail
        );

        // Post-kNN placement: a residual-filter operator wraps the kNN
        // select.
        let post = db.explain(POST_QUERY).unwrap();
        assert_eq!(post.rewrites.len(), 1, "{family}");
        assert!(
            post.rewrites[0].starts_with("post-kNN filter on `Objects`"),
            "{family}: {}",
            post.rewrites[0]
        );
        assert_eq!(post.root.name, "residual-filter", "{family}");
        assert_eq!(post.root.children.len(), 1, "{family}");
        assert_eq!(post.root.num_ops(), 2, "{family}");

        // The rendering is deterministic (same snapshot, same text) and
        // carries every stage of the decision chain.
        let rendered = pre.render();
        assert_eq!(
            rendered,
            db.explain(PRE_QUERY).unwrap().render(),
            "{family}"
        );
        for stage in [
            "query:",
            "ast:",
            "logical:",
            "rewrite:",
            "strategy:",
            "plan:",
        ] {
            assert!(rendered.contains(stage), "{family}: missing {stage}");
        }
    }
}

#[test]
fn explain_pinned_grid_plan_renders_exactly() {
    // One fully pinned rendering, asserted verbatim: any drift in the
    // explain format or in the optimizer's choice for this setup is a
    // deliberate change, not an accident.
    let db = db_with("grid", 400);
    let expected = "\
query:    FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45)
ast:      FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45)
logical:  σ[k=7, f=(45, 45)](filter[INSIDE(RECT(10, 10, 80, 80))](Objects))
rewrite:  pre-kNN filter on `Objects`: INSIDE(RECT(10, 10, 80, 80)) (pushed below the kNN predicates)
strategy: select
plan:
  knn-select [select] -> Points (k=7 focal=(45, 45) pre-filtered)
";
    assert_eq!(db.explain(PRE_QUERY).unwrap().render(), expected);
}

#[test]
fn explain_spec_skips_the_parser_stages() {
    let db = db_with("grid", 300);
    let spec = QuerySpec::TwoSelects {
        relation: "Objects".into(),
        query: TwoSelectsQuery::new(
            3,
            Point::anonymous(20.0, 20.0),
            5,
            Point::anonymous(70.0, 70.0),
        ),
    };
    let explain = db.explain_spec(&spec).unwrap();
    assert!(explain.query.is_none() && explain.ast.is_none() && explain.logical.is_none());
    assert!(explain.rewrites.is_empty());
    let rendered = explain.render();
    assert!(!rendered.contains("query:") && !rendered.contains("ast:"));
    assert!(rendered.contains("strategy:") && rendered.contains("plan:"));
}

// -------------------------------------------------------------------------
// (b) EXPLAIN ANALYZE reconciliation
// -------------------------------------------------------------------------

/// Counters that only ever grow along the operator tree (no operator resets
/// them), so parent-exclusive + children-inclusive must reassemble the
/// parent's inclusive value exactly.
fn monotone(metrics: &Metrics) -> Vec<(&'static str, u64)> {
    counter_fields(metrics)
        .into_iter()
        .filter(|(name, _)| *name != "tuples_emitted")
        .collect()
}

fn assert_reconciles(trace: &OpTrace, result_metrics: &Metrics) {
    // Root inclusive == the query's global metrics delta, field for field.
    assert_eq!(
        counter_fields(&trace.inclusive).to_vec(),
        counter_fields(result_metrics).to_vec(),
        "root inclusive must equal the result's metrics"
    );
    // At every node: exclusive + Σ children inclusive == inclusive, for
    // every monotone counter.
    fn walk(node: &OpTrace) {
        let mut reassembled = node.exclusive();
        for child in &node.children {
            reassembled += child.inclusive;
        }
        assert_eq!(
            monotone(&reassembled),
            monotone(&node.inclusive),
            "operator `{}` does not reconcile",
            node.name
        );
        for child in &node.children {
            walk(child);
        }
    }
    walk(trace);
}

#[test]
fn explain_analyze_reconciles_on_a_filtered_knn_select() {
    let db = db_with("grid", 500);
    let analyzed = db.explain_analyze(POST_QUERY).unwrap();
    assert_eq!(analyzed.trace.name, "residual-filter");
    assert_eq!(analyzed.trace.children.len(), 1, "child knn-select span");
    assert_eq!(analyzed.trace.rows, analyzed.result.num_rows());
    assert_reconciles(&analyzed.trace, &analyzed.result.metrics());
    // The annotated rendering carries both the plan and the executed tree.
    let rendered = analyzed.render();
    assert!(rendered.contains("executed:"));
    assert!(rendered.contains("rows="));
    assert!(rendered.contains("wall="));
}

#[test]
fn explain_analyze_reconciles_on_an_unchained_join() {
    let db = db_with("grid", 250);
    let analyzed = db
        .explain_analyze(
            "FIND Objects a, Stations b, Objects c WHERE KNN(a, 2, b) AND KNN(c, 2, b)",
        )
        .or_else(|_| {
            // The textual form of unchained joins differs per grammar; fall
            // back to the spec API, which is what this test is about.
            db.explain_analyze_spec(&QuerySpec::UnchainedJoins {
                a: "Objects".into(),
                b: "Stations".into(),
                c: "Objects".into(),
                query: two_knn::core::joins2::UnchainedJoinQuery::new(2, 2),
            })
        })
        .unwrap();
    assert!(analyzed.result.num_rows() > 0, "join produced rows");
    assert_reconciles(&analyzed.trace, &analyzed.result.metrics());
}

// -------------------------------------------------------------------------
// (c) Histogram consistency under concurrent execution
// -------------------------------------------------------------------------

#[test]
fn histogram_bucket_counts_equal_samples_under_concurrent_batches() {
    let db = std::sync::Arc::new(db_with("grid", 600));
    let spec = QuerySpec::KnnSelect {
        relation: "Objects".into(),
        query: two_knn::core::select::KnnSelectQuery::new(5, Point::anonymous(40.0, 40.0)),
    };
    const THREADS: usize = 4;
    const BATCHES: usize = 8;
    const PER_BATCH: usize = 16;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let db = std::sync::Arc::clone(&db);
            let specs = vec![spec.clone(); PER_BATCH];
            scope.spawn(move || {
                for _ in 0..BATCHES {
                    for result in db.execute_batch(&specs) {
                        result.unwrap();
                    }
                }
            });
        }
    });
    let report = db.metrics_report();
    let queries = report
        .histograms
        .iter()
        .find(|(kind, _)| *kind == HistogramKind::QueryExec)
        .map(|(_, snap)| snap.clone())
        .unwrap();
    let expected = (THREADS * BATCHES * PER_BATCH) as u64;
    assert_eq!(queries.count, expected, "every query recorded one sample");
    assert_eq!(
        queries.buckets.iter().sum::<u64>(),
        expected,
        "bucket occupancy sums to the sample count"
    );
    let (p50, p90, p99) = (
        queries.percentile(0.50),
        queries.percentile(0.90),
        queries.percentile(0.99),
    );
    assert!(p50 <= p90 && p90 <= p99 && p99 <= queries.max_nanos);
    let windows = db
        .metrics_report()
        .histograms
        .iter()
        .find(|(kind, _)| *kind == HistogramKind::BatchWindow)
        .map(|(_, snap)| snap.count)
        .unwrap();
    assert_eq!(windows, (THREADS * BATCHES) as u64, "one window per batch");
}

// -------------------------------------------------------------------------
// Traces, events, report
// -------------------------------------------------------------------------

#[test]
fn tracing_retains_labeled_traces_for_batches_and_adhoc_queries() {
    let mut db = Database::new();
    db.set_tracing(true);
    db.register("Objects", GridIndex::build(scattered(300, 3), 8).unwrap());
    assert!(db.tracing_enabled());
    let spec = db.parse_query(PRE_QUERY.replace("10, 10, 80, 80", "5, 5, 90, 90").as_str());
    let spec = spec.unwrap();
    db.execute(&spec).unwrap();
    db.execute_batch(&vec![spec.clone(); 3]);
    let traces = db.drain_traces();
    assert_eq!(traces.len(), 4);
    let labels: BTreeSet<String> = traces.iter().map(|t| t.label.clone()).collect();
    assert!(labels.contains("query"));
    for i in 0..3 {
        assert!(
            labels.contains(&format!("batch[{i}]")),
            "missing batch[{i}]"
        );
    }
    // Sequence numbers are distinct (batch members may retain out of
    // order under the parallel executor); renders are well-formed trees.
    let mut seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), traces.len(), "trace seqs must be unique");
    assert!(traces[0].to_string().contains("trace #"));

    // Toggling off stops retention.
    db.set_tracing(false);
    db.execute(&spec).unwrap();
    assert!(db.drain_traces().is_empty());
}

#[test]
fn compaction_emits_events_and_latency_samples() {
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: 1_000_000, // never in the background
        ..StoreConfig::default()
    });
    db.register("Objects", GridIndex::build(scattered(400, 9), 8).unwrap());
    let ops: Vec<WriteOp> = (0..50u64)
        .map(|i| WriteOp::Upsert(Point::new(10_000 + i, 30.0 + i as f64 * 0.3, 40.0)))
        .collect();
    db.ingest("Objects", &ops).unwrap();
    db.compact_now("Objects").unwrap();
    let events = db.drain_events();
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::CompactionStarted));
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::CompactionFinished && e.detail.contains("Objects")));
    assert!(db.drain_events().is_empty(), "drain empties the ring");
    let report = db.metrics_report();
    let ingest = report
        .histograms
        .iter()
        .find(|(kind, _)| *kind == HistogramKind::IngestPublish)
        .map(|(_, snap)| snap.count)
        .unwrap();
    assert_eq!(ingest, 1, "one ingest batch recorded");
    let compactions = report
        .histograms
        .iter()
        .find(|(kind, _)| *kind == HistogramKind::Compaction)
        .map(|(_, snap)| snap.count)
        .unwrap();
    assert!(
        compactions >= 1,
        "compact_now recorded at least one rebuild"
    );
}

#[test]
fn metrics_report_renders_text_and_json_lines() {
    let db = db_with("grid", 300);
    db.query(POST_QUERY).unwrap();
    let report = db.metrics_report();
    assert_eq!(report.relations.len(), 2);
    let objects = report
        .relations
        .iter()
        .find(|r| r.name == "Objects")
        .unwrap();
    assert_eq!(objects.num_points, 300);
    assert_eq!(objects.delta_len, 0);

    let text = report.to_string();
    assert!(text.contains("counters:"));
    assert!(text.contains("query_exec"));
    assert!(text.contains("relation Objects:"));
    assert!(text.contains("pool:"));

    let json = report.to_json_lines();
    for line in json.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"type\""), "line: {line}");
    }
    assert!(json.contains("\"type\":\"counter\""));
    assert!(json.contains("\"type\":\"histogram\""));
    assert!(json.contains("\"type\":\"gauge\""));
    assert!(json.contains("\"type\":\"relation\""));
}

#[test]
fn cq_reevaluations_record_latency_and_traced_runs() {
    let mut db = Database::new();
    db.set_tracing(true);
    db.register("Objects", GridIndex::build(scattered(400, 5), 8).unwrap());
    let sub = db
        .subscribe_query("FIND Objects WHERE KNN(4, 50, 50)")
        .unwrap();
    db.drain_traces(); // discard the subscribe-time evaluation, if any
    let ops: Vec<WriteOp> = (0..8u64)
        .map(|i| WriteOp::Upsert(Point::new(20_000 + i, 50.0 + i as f64 * 0.01, 50.0)))
        .collect();
    db.ingest("Objects", &ops).unwrap();
    db.pool().wait_idle();
    let reevals = db
        .metrics_report()
        .histograms
        .iter()
        .find(|(kind, _)| *kind == HistogramKind::CqReeval)
        .map(|(_, snap)| snap.count)
        .unwrap();
    assert!(
        reevals >= 1,
        "the write burst re-evaluated the subscription"
    );
    let traces = db.drain_traces();
    assert!(
        traces.iter().any(|t| t.label.starts_with("cq sub#")),
        "re-evaluation retained a labeled trace: {:?}",
        traces.iter().map(|t| t.label.clone()).collect::<Vec<_>>()
    );
    db.unsubscribe(sub).unwrap();
}
