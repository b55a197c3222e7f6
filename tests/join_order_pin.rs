//! The two-join order pin: the rows, their order and every work counter of
//! each unchained and chained strategy, compared line for line with
//! `tests/fixtures/join_order_pin.txt`.
//!
//! Each line is one `(layout, strategy, k, k)` run: the row count, an FNV
//! digest over the `(a, b, c)` ids *in row order*, and the run's merged
//! `Metrics`. The layouts are a grid, a PR-quadtree, an STR R-tree and a
//! grid sharded 2 × 2, over the same three point sets; both k range over
//! 1..=3. Every run goes through `compile` + `execute` on explicit pools of
//! 1, 2 and 4 threads, which must render the same line, so the pin holds
//! whatever the machine's core count or `TWOKNN_THREADS` say.
//!
//! To re-record after a deliberate change of rows, order or counters, write
//! `render_on(1)`'s lines over the fixture (a failing line prints the
//! rendering it got), and say in the change which lines moved and why.

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{
    compile, ChainedStrategy, Database, QueryResult, QuerySpec, Strategy, UnchainedStrategy,
};
use two_knn::core::store::{ShardConfig, StoreConfig};
use two_knn::core::ExecutionMode;
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::{GridIndex, Point, QuadtreeIndex, StrRTree, WorkerPool};

const FIXTURE: &str = include_str!("fixtures/join_order_pin.txt");

const UNCHAINED: [UnchainedStrategy; 3] = [
    UnchainedStrategy::Conceptual,
    UnchainedStrategy::BlockMarkingStartWithA,
    UnchainedStrategy::BlockMarkingStartWithC,
];

const CHAINED: [ChainedStrategy; 4] = [
    ChainedStrategy::RightDeep,
    ChainedStrategy::JoinIntersection,
    ChainedStrategy::NestedJoin,
    ChainedStrategy::NestedJoinCached,
];

/// `A` and `C` are tight clusters; `C`'s first three clusters sit on
/// `A`'s three (the same seed places the same centres first) and its other
/// two elsewhere. `B` is a road network plus a cluster on each of `A`'s, so
/// the joins share many `b`s and Block-Marking prunes whichever join goes
/// first.
fn point_sets() -> [Vec<Point>; 3] {
    let clusters = |n, per_cluster| {
        clustered(&ClusterConfig {
            points_per_cluster: per_cluster,
            cluster_radius: 1_500.0,
            ..ClusterConfig::paper_default(n, 71)
        })
    };
    let mut b = berlinmod(&BerlinModConfig::with_points(600, 72));
    let first = b.len() as u64;
    b.extend(
        clusters(3, 100)
            .into_iter()
            .map(|p| Point::new(first + p.id, p.x, p.y)),
    );
    [clusters(3, 150), b, clusters(5, 90)]
}

fn layouts() -> Vec<(&'static str, Database)> {
    let sets = point_sets();
    let names = ["A", "B", "C"];
    let mut grid = Database::new();
    let mut quad = Database::new();
    let mut str_tree = Database::new();
    let mut sharded = Database::with_store_config(StoreConfig {
        sharding: ShardConfig::per_axis(2),
        ..StoreConfig::default()
    });
    for (name, points) in names.into_iter().zip(sets) {
        let cells = GridIndex::build_with_target_occupancy(points.clone(), 16).unwrap();
        grid.register(name, cells.clone());
        sharded.register(name, cells);
        quad.register(name, QuadtreeIndex::build(points.clone(), 16).unwrap());
        str_tree.register(name, StrRTree::build(points, 16).unwrap());
    }
    assert_eq!(sharded.relation("B").unwrap().num_shards(), 4, "2×2 shards");
    vec![
        ("grid", grid),
        ("quadtree", quad),
        ("str", str_tree),
        ("grid-2x2-sharded", sharded),
    ]
}

fn runs() -> Vec<(QuerySpec, Strategy)> {
    let mut runs = Vec::new();
    for k1 in 1..=3 {
        for k2 in 1..=3 {
            let unchained = QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(k1, k2),
            };
            for s in UNCHAINED {
                runs.push((unchained.clone(), Strategy::Unchained(s)));
            }
            let chained = QuerySpec::ChainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: ChainedJoinQuery::new(k1, k2),
            };
            for s in CHAINED {
                runs.push((chained.clone(), Strategy::Chained(s)));
            }
        }
    }
    runs
}

fn line(layout: &str, spec: &QuerySpec, strategy: Strategy, result: &QueryResult) -> String {
    let ks = match spec {
        QuerySpec::UnchainedJoins { query, .. } => (query.k_ab, query.k_cb),
        QuerySpec::ChainedJoins { query, .. } => (query.k_ab, query.k_bc),
        _ => unreachable!("two-join specs only"),
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in result.rows() {
        for id in row.ids() {
            for byte in id.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!(
        "{layout} {strategy} k=({}, {}) rows {} digest {h:016x} {:?}",
        ks.0,
        ks.1,
        result.num_rows(),
        result.metrics()
    )
}

fn render_on(parallelism: usize) -> Vec<String> {
    let pool = WorkerPool::new(parallelism);
    let mut out = Vec::new();
    for (layout, db) in layouts() {
        for (spec, strategy) in runs() {
            let result = pool.bind(|| {
                compile(&db.snapshot(), &spec, strategy)
                    .unwrap()
                    .execute(ExecutionMode::default_mode())
            });
            out.push(line(layout, &spec, strategy, &result));
        }
    }
    out
}

#[test]
fn two_join_rows_order_and_counters_match_the_pin() {
    let pinned: Vec<&str> = FIXTURE.lines().collect();
    for parallelism in [1, 2, 4] {
        let rendered = render_on(parallelism);
        assert_eq!(rendered.len(), pinned.len(), "one line per run");
        for (got, want) in rendered.iter().zip(&pinned) {
            assert_eq!(got, want, "pool of {parallelism}");
        }
    }
}
