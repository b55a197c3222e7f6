//! `join_shapes`: the paper's four two-predicate join shapes through
//! `Database::execute`, over relations small enough that block ordering is
//! cheap. Time is in `select_join` / `joins2` (Counting, Block-Marking, the
//! neighbourhood cache) and in the optimizer's choice — so a block-ordering
//! fix that transforms `select_large` should move this little, and a change
//! to the execution surface or the optimizer must show no loss here.

use std::sync::Arc;
use std::time::Instant;

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{
    ChainedStrategy, Database, QuerySpec, SelectInnerStrategy, SelectOuterStrategy, Strategy,
    UnchainedStrategy,
};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::store::StoreConfig;
use two_knn::datagen::rng::StdRng;
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::{GridIndex, Metrics, Point};

use super::{decimal, shuffle, DATA_SEED};
use crate::harness::{digest, Env, Fnv, Layers, Recorder, Workload, COUNT_ROUNDS};
use crate::reads::execute_rows_traced;
use crate::spans::{Tracer, NO_OP};
use crate::stats::{mean, ratio};

/// Relation sizes, fixed so that the four shapes cost 5–40 ms each on the
/// reference box and a 15 s run holds several hundred joins.
const A_POINTS: usize = 6_000;
const B_POINTS: usize = 8_000;
const C_CLUSTERS: usize = 16;
const C_PER_CLUSTER: usize = 500;
const OCCUPANCY: usize = 64;

/// Ops of each shape per round. Sorted by cost the shares put the median
/// inside the unchained joins (ranks 40–80 %) and p95 inside the chained
/// ones (80–100 %), both well away from a boundary between shapes.
const MIX: [(Shape, usize); 4] = [
    (Shape::Outer, 2),
    (Shape::Inner, 2),
    (Shape::Unchained, 4),
    (Shape::Chained, 2),
];
const OPS_PER_ROUND: usize = 10;
const ROUNDS: usize = 220;
const SMOKE_ROUNDS: usize = 4;
const WARM_ROUNDS: usize = 2;
const CHECK_EVERY: u64 = 7;
/// Every n-th op of the counting rounds is re-run under each legal strategy.
const REGRET_EVERY: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Inner,
    Outer,
    Unchained,
    Chained,
}

struct JoinOp {
    spec: QuerySpec,
    shape: Shape,
}

impl JoinOp {
    fn root(&self) -> &'static str {
        match self.shape {
            Shape::Inner => "select_join.inner",
            Shape::Outer => "select_join.outer",
            Shape::Unchained => "joins2.unchained",
            Shape::Chained => "joins2.chained",
        }
    }

    /// Every strategy that is correct for the shape; the first is the
    /// paper's conceptually correct QEP, which the oracle runs.
    fn legal(&self) -> &'static [Strategy] {
        use Strategy as S;
        match self.shape {
            Shape::Inner => &[
                S::SelectInner(SelectInnerStrategy::Conceptual),
                S::SelectInner(SelectInnerStrategy::Counting),
                S::SelectInner(SelectInnerStrategy::BlockMarking),
            ],
            Shape::Outer => &[
                S::SelectOuter(SelectOuterStrategy::SelectAfterJoin),
                S::SelectOuter(SelectOuterStrategy::Pushdown),
            ],
            Shape::Unchained => &[
                S::Unchained(UnchainedStrategy::Conceptual),
                S::Unchained(UnchainedStrategy::BlockMarkingStartWithA),
                S::Unchained(UnchainedStrategy::BlockMarkingStartWithC),
            ],
            Shape::Chained => &[
                S::Chained(ChainedStrategy::RightDeep),
                S::Chained(ChainedStrategy::JoinIntersection),
                S::Chained(ChainedStrategy::NestedJoin),
                S::Chained(ChainedStrategy::NestedJoinCached),
            ],
        }
    }
}

pub struct JoinShapes {
    a: Vec<Point>,
    b: Vec<Point>,
    c: Vec<Point>,
    warm: Vec<JoinOp>,
    ops: Vec<JoinOp>,
}

#[derive(Default)]
struct Counts {
    ops: u64,
    work: Metrics,
    inner: Metrics,
    chained: Metrics,
}

pub struct Engine {
    db: Database,
    counts: Counts,
}

fn make_op(rng: &mut StdRng, shape: Shape, a: &[Point]) -> JoinOp {
    let near = a[rng.gen_range(0..a.len())];
    let focal = Point::anonymous(
        decimal(near.x + rng.gen_range(-50.0..50.0)),
        decimal(near.y + rng.gen_range(-50.0..50.0)),
    );
    let (a, b, c) = ("A".to_string(), "B".to_string(), "C".to_string());
    let spec = match shape {
        Shape::Inner => QuerySpec::SelectInnerOfJoin {
            outer: a,
            inner: b,
            query: SelectInnerJoinQuery::new(rng.gen_range(2..5), rng.gen_range(8..33), focal),
        },
        Shape::Outer => QuerySpec::SelectOuterOfJoin {
            outer: a,
            inner: b,
            query: SelectOuterJoinQuery::new(
                rng.gen_range(2..5),
                rng.gen_range(1_000..2_001),
                focal,
            ),
        },
        Shape::Unchained => QuerySpec::UnchainedJoins {
            a,
            b,
            c,
            query: UnchainedJoinQuery::new(rng.gen_range(1..4), rng.gen_range(1..4)),
        },
        Shape::Chained => QuerySpec::ChainedJoins {
            a,
            b,
            c,
            query: ChainedJoinQuery::new(rng.gen_range(1..4), rng.gen_range(1..4)),
        },
    };
    JoinOp { spec, shape }
}

impl Workload for JoinShapes {
    type Engine = Engine;
    const NAME: &'static str = "join_shapes";
    const TAIL: f64 = 0.95;

    fn generate(seed: u64, env: &Env) -> Self {
        let a = berlinmod(&BerlinModConfig::with_points(A_POINTS, DATA_SEED ^ 0xa));
        let b = berlinmod(&BerlinModConfig::with_points(B_POINTS, DATA_SEED ^ 0xb));
        let c = clustered(&ClusterConfig {
            points_per_cluster: C_PER_CLUSTER,
            ..ClusterConfig::paper_default(C_CLUSTERS, DATA_SEED ^ 0xc)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops_for = |rounds: usize| -> Vec<JoinOp> {
            let mut ops = Vec::with_capacity(rounds * OPS_PER_ROUND);
            for _ in 0..rounds {
                let mut slots: Vec<Shape> = MIX
                    .iter()
                    .flat_map(|(shape, n)| std::iter::repeat(*shape).take(*n))
                    .collect();
                shuffle(&mut slots, &mut rng);
                ops.extend(slots.into_iter().map(|shape| make_op(&mut rng, shape, &a)));
            }
            ops
        };
        let warm = ops_for(WARM_ROUNDS);
        let ops = ops_for(if env.smoke { SMOKE_ROUNDS } else { ROUNDS });
        JoinShapes { a, b, c, warm, ops }
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for points in [&self.a, &self.b, &self.c] {
            h.u64(points.len() as u64);
            for p in points.iter().step_by(61) {
                h.f64(p.x);
                h.f64(p.y);
            }
        }
        for op in self.warm.iter().chain(&self.ops) {
            h.bytes(format!("{:?}", op.spec).as_bytes());
        }
        h.finish()
    }

    fn rounds(&self) -> usize {
        self.ops.len() / OPS_PER_ROUND
    }

    fn setup(&self, env: &Env, _rep: usize, tr: &mut Tracer) -> Engine {
        let mut db =
            Database::with_pool_and_store_config(Arc::clone(&env.pool), StoreConfig::default());
        for (name, points) in [("A", &self.a), ("B", &self.b), ("C", &self.c)] {
            let grid = tr.leaf("index.grid.build", NO_OP, || {
                GridIndex::build_with_target_occupancy(points.clone(), OCCUPANCY)
                    .expect("grid over generated points")
            });
            tr.leaf("store.register", NO_OP, || db.register(name, grid));
        }
        tr.leaf("setup.warm", NO_OP, || {
            for op in &self.warm {
                let result = db.execute(&op.spec).expect("warm-up join");
                std::hint::black_box(result.rows());
            }
        });
        Engine {
            db,
            counts: Counts::default(),
        }
    }

    fn round(&self, engine: &mut Engine, round: usize, rec: &mut Recorder) {
        let first = round * OPS_PER_ROUND;
        for (i, join) in self.ops[first..first + OPS_PER_ROUND].iter().enumerate() {
            let op = (first + i) as u64;
            let start = Instant::now();
            let rows = engine.db.execute(&join.spec).map(|result| result.rows());
            rec.read_us.push(start.elapsed().as_secs_f64() * 1e6);
            rec.ops += 1;
            rec.keep_digest(rows, op, CHECK_EVERY);
        }
    }

    fn round_traced(
        &self,
        engine: &mut Engine,
        round: usize,
        counting: bool,
        rec: &mut Recorder,
        tr: &mut Tracer,
    ) {
        let first = round * OPS_PER_ROUND;
        for (i, join) in self.ops[first..first + OPS_PER_ROUND].iter().enumerate() {
            let op = (first + i) as u64;
            let done = execute_rows_traced(&engine.db, &join.spec, join.root(), op, tr);
            rec.ops += 1;
            if let (true, Ok((_, work))) = (counting, &done) {
                let c = &mut engine.counts;
                c.ops += 1;
                c.work += *work;
                match join.shape {
                    Shape::Inner => c.inner += *work,
                    Shape::Chained => c.chained += *work,
                    Shape::Outer | Shape::Unchained => {}
                }
            }
            rec.keep_digest(done.map(|(rows, _)| rows), op, CHECK_EVERY);
        }
    }

    fn layers(&self, engine: &Engine, _traced_wall_s: f64, layers: &mut Layers) {
        let c = &engine.counts;
        layers.set(
            "join.neighborhoods_per_op",
            ratio(c.work.neighborhoods_computed as f64, c.ops as f64),
        );
        layers.set(
            "select_join.points_pruned_share",
            ratio(
                c.inner.points_pruned as f64,
                (c.inner.points_pruned + c.inner.neighborhoods_computed) as f64,
            ),
        );
        layers.set(
            "joins2.cache_hit_share",
            ratio(
                c.chained.cache_hits as f64,
                (c.chained.cache_hits + c.chained.cache_misses) as f64,
            ),
        );
        // The same block, scan and distance counts as the selects report,
        // here per join.
        let per_op = |count: u64| ratio(count as f64, c.ops as f64);
        layers.set(
            "index.knn.blocks_scanned_per_op",
            per_op(c.work.blocks_scanned),
        );
        layers.set(
            "index.knn.blocks_pruned_per_op",
            per_op(c.work.blocks_pruned),
        );
        layers.set(
            "index.knn.points_scanned_per_op",
            per_op(c.work.points_scanned),
        );
        layers.set(
            "geometry.distance_per_op",
            per_op(c.work.distance_computations),
        );

        // Regret: what the optimizer's choice costs against the best legal
        // strategy for the same query, by wall clock and by work counts.
        let (mut wall, mut work) = (Vec::new(), Vec::new());
        let counted = &self.ops[..(COUNT_ROUNDS * OPS_PER_ROUND).min(self.ops.len())];
        for join in counted.iter().step_by(REGRET_EVERY) {
            let Ok(chosen) = engine.db.plan(&join.spec) else {
                continue;
            };
            let mut chosen_cost = (0.0, 0.0);
            let mut best = (f64::INFINITY, f64::INFINITY);
            for strategy in join.legal() {
                let start = Instant::now();
                let Ok(result) = engine.db.execute_with(&join.spec, *strategy) else {
                    continue;
                };
                std::hint::black_box(result.rows());
                let cost = (
                    start.elapsed().as_secs_f64(),
                    result.metrics().work() as f64,
                );
                best = (best.0.min(cost.0), best.1.min(cost.1));
                if *strategy == chosen {
                    chosen_cost = cost;
                }
            }
            wall.push(ratio(chosen_cost.0, best.0));
            work.push(ratio(chosen_cost.1, best.1));
        }
        layers.set("plan.optimizer.regret", mean(&wall));
        layers.set("plan.optimizer.regret_work", mean(&work));
    }

    fn verify(&self, _env: &Env, engine: Engine, _rounds_done: usize, rec: &mut Recorder) -> u64 {
        let digests = std::mem::take(&mut rec.digests);
        for (op, rows, hash) in &digests {
            let join = &self.ops[*op as usize];
            let conceptual = join.legal()[0];
            match engine.db.execute_with(&join.spec, conceptual) {
                Err(e) => rec.fail(format!("op {op}: conceptual plan: {e}")),
                Ok(reference) => {
                    if digest(&reference.rows()) != (*rows, *hash) {
                        rec.fail(format!(
                            "op {op} {:?}: {rows} rows differ from the conceptual QEP's {}",
                            join.spec,
                            reference.num_rows()
                        ));
                    }
                }
            }
        }
        digests.len() as u64
    }
}
