//! `select_large`: textual selects round-robin over three 1 M-point
//! relations, one per index family. The relations dwarf the CPU caches, so
//! block ordering, the shard walk and the τ-heap kernel are nearly the whole
//! op and the front end is noise: an index or geometry optimisation shows
//! here, a plan-cache change must not.

use std::cell::RefCell;
use std::sync::Arc;

use two_knn::core::plan::Database;
use two_knn::core::store::StoreConfig;
use two_knn::datagen::rng::StdRng;
use two_knn::datagen::{
    berlinmod, clustered, default_extent, uniform, BerlinModConfig, ClusterConfig,
};
use two_knn::geometry::Predicate;
use two_knn::{GridIndex, Point, QuadtreeIndex, Rect, StrRTree};

use super::{decimal, reindexed, shuffle, DATA_SEED};
use crate::harness::{Env, Fnv, Layers, Recorder, Workload};
use crate::oracle::{check_select, SelectAsk};
use crate::reads::{query_rows, query_rows_traced, ReadCounts, SelectOp};
use crate::spans::{Tracer, NO_OP};

const POINTS: usize = 1_000_000;
/// Points per block the grid and the R-tree aim at.
const OCCUPANCY: usize = 64;
/// Leaf capacity of the quadtree, chosen for where it puts the median op.
/// At 64 the clustered relation has the most blocks and is the slow third,
/// and the median of all ops sits on the step between the two fast
/// relations and the slow one (rank ≈ 51 %). At 256 it is the fast third
/// (ranks 0–26 %), the grid and the R-tree form one mode over ranks 26–77 %,
/// and the median lies in the middle of that mode.
const QUADTREE_CAPACITY: usize = 256;
/// Per relation and round: 140 plain kNN (k ∈ {1, 8, 64}), 20 pre-filtered,
/// 20 post-filtered, 20 two-selects — 70 % / 20 % / 10 % of 600 ops.
const PLAIN_PER_K: [(usize, usize); 3] = [(1, 47), (8, 47), (64, 46)];
const FILTERED_EACH: usize = 20;
const TWO_SELECTS: usize = 20;
const OPS_PER_ROUND: usize = 600;
/// Three times what this box gets through in the 15 s the driver asks for.
const ROUNDS: usize = 240;
const SMOKE_ROUNDS: usize = 5;
const WARM_OPS: usize = 300;
const CHECK_EVERY: u64 = 97;
const RELATIONS: [&str; 3] = ["G", "Q", "R"];

pub struct SelectLarge {
    /// Generated points per relation, ids equal to positions.
    data: [Vec<Point>; 3],
    /// The copy of `data` the next set-up builds its indexes from.
    staged: RefCell<Option<[Vec<Point>; 3]>>,
    warm: Vec<SelectOp>,
    ops: Vec<SelectOp>,
}

pub struct Engine {
    db: Database,
    counts: ReadCounts,
}

#[derive(Clone, Copy)]
enum Shape {
    Plain(usize),
    Pre,
    Post,
    TwoSelects,
}

fn make_op(rng: &mut StdRng, relation: usize, shape: Shape, data: &[Point]) -> SelectOp {
    let name = RELATIONS[relation];
    // Queries land where the data is: a data point, nudged off it.
    let near = data[rng.gen_range(0..data.len())];
    let x = decimal(near.x + rng.gen_range(-50.0..50.0));
    let y = decimal(near.y + rng.gen_range(-50.0..50.0));
    let focal = Point::anonymous(x, y);
    match shape {
        Shape::Plain(k) => SelectOp {
            text: format!("FIND {name} WHERE KNN({k}, {x}, {y})"),
            relation: name,
            root: "select.knn",
            ask: SelectAsk::Knn {
                k,
                focal,
                pre: None,
            },
        },
        Shape::Pre => {
            let half = decimal(rng.gen_range(2_000.0..6_000.0));
            let (x1, y1, x2, y2) = (x - half, y - half, x + half, y + half);
            SelectOp {
                text: format!(
                    "FIND ({name} WHERE INSIDE(RECT({x1}, {y1}, {x2}, {y2}))) WHERE KNN(8, {x}, {y})"
                ),
                relation: name,
                root: "select.filtered",
                ask: SelectAsk::Knn {
                    k: 8,
                    focal,
                    pre: Some(Predicate::InRect(Rect::new(x1, y1, x2, y2))),
                },
            }
        }
        Shape::Post => {
            let lo = rng.gen_range(0..data.len() / 2) as u64;
            let hi = lo + (data.len() / 2) as u64;
            SelectOp {
                text: format!("FIND {name} WHERE KNN(64, {x}, {y}) AND ID BETWEEN {lo} AND {hi}"),
                relation: name,
                root: "select.filtered",
                ask: SelectAsk::PostFiltered {
                    k: 64,
                    focal,
                    post: Predicate::IdRange { lo, hi },
                },
            }
        }
        Shape::TwoSelects => {
            let x2 = decimal(x + rng.gen_range(-200.0..200.0));
            let y2 = decimal(y + rng.gen_range(-200.0..200.0));
            SelectOp {
                text: format!("FIND {name} WHERE KNN(8, {x}, {y}) AND KNN(64, {x2}, {y2})"),
                relation: name,
                root: "selects2.two_selects",
                ask: SelectAsk::TwoSelects {
                    k1: 8,
                    f1: focal,
                    k2: 64,
                    f2: Point::anonymous(x2, y2),
                },
            }
        }
    }
}

/// One round's `(relation, shape)` slots: the same multiset every round, in
/// a seeded order.
fn round_slots(rng: &mut StdRng) -> Vec<(usize, Shape)> {
    let mut slots = Vec::with_capacity(OPS_PER_ROUND);
    for relation in 0..RELATIONS.len() {
        for (k, n) in PLAIN_PER_K {
            slots.extend((0..n).map(|_| (relation, Shape::Plain(k))));
        }
        slots.extend((0..FILTERED_EACH).map(|_| (relation, Shape::Pre)));
        slots.extend((0..FILTERED_EACH).map(|_| (relation, Shape::Post)));
        slots.extend((0..TWO_SELECTS).map(|_| (relation, Shape::TwoSelects)));
    }
    debug_assert_eq!(slots.len(), OPS_PER_ROUND);
    shuffle(&mut slots, rng);
    slots
}

impl Workload for SelectLarge {
    type Engine = Engine;
    const NAME: &'static str = "select_large";
    const TAIL: f64 = 0.99;

    fn generate(seed: u64, env: &Env) -> Self {
        let clusters = ClusterConfig {
            points_per_cluster: POINTS / 250,
            ..ClusterConfig::paper_default(250, DATA_SEED ^ 0x51)
        };
        let data = [
            reindexed(berlinmod(&BerlinModConfig::with_points(
                POINTS,
                DATA_SEED ^ 0x47,
            ))),
            reindexed(clustered(&clusters)),
            reindexed(uniform(POINTS, default_extent(), DATA_SEED ^ 0x52)),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops_for = |rounds: usize| -> Vec<SelectOp> {
            let mut ops = Vec::with_capacity(rounds * OPS_PER_ROUND);
            for _ in 0..rounds {
                for (relation, shape) in round_slots(&mut rng) {
                    ops.push(make_op(&mut rng, relation, shape, &data[relation]));
                }
            }
            ops
        };
        let mut warm = ops_for(1);
        warm.truncate(WARM_OPS);
        let ops = ops_for(if env.smoke { SMOKE_ROUNDS } else { ROUNDS });
        SelectLarge {
            data,
            staged: RefCell::new(None),
            warm,
            ops,
        }
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::default();
        for points in &self.data {
            h.u64(points.len() as u64);
            for p in points.iter().step_by(4_099) {
                h.f64(p.x);
                h.f64(p.y);
            }
        }
        for op in self.warm.iter().chain(&self.ops) {
            h.bytes(op.text.as_bytes());
        }
        h.finish()
    }

    fn rounds(&self) -> usize {
        self.ops.len() / OPS_PER_ROUND
    }

    fn stage(&self) {
        *self.staged.borrow_mut() = Some(self.data.clone());
    }

    fn setup(&self, env: &Env, _rep: usize, tr: &mut Tracer) -> Engine {
        let [g, q, r] = self.staged.take().expect("stage runs before every set-up");
        let mut db =
            Database::with_pool_and_store_config(Arc::clone(&env.pool), StoreConfig::default());
        let grid = tr.leaf("index.grid.build", NO_OP, || {
            GridIndex::build_with_target_occupancy(g, OCCUPANCY)
                .expect("grid over generated points")
        });
        let quadtree = tr.leaf("index.quadtree.build", NO_OP, || {
            QuadtreeIndex::build(q, QUADTREE_CAPACITY).expect("quadtree over generated points")
        });
        let rtree = tr.leaf("index.rtree.build", NO_OP, || {
            StrRTree::build(r, OCCUPANCY).expect("R-tree over generated points")
        });
        tr.leaf("store.register", NO_OP, || {
            db.register("G", grid);
            db.register("Q", quadtree);
            db.register("R", rtree);
        });
        tr.leaf("setup.warm", NO_OP, || {
            for op in &self.warm {
                std::hint::black_box(query_rows(&db, &op.text).expect("warm-up query"));
            }
        });
        Engine {
            db,
            counts: ReadCounts::default(),
        }
    }

    fn round(&self, engine: &mut Engine, round: usize, rec: &mut Recorder) {
        let first = round * OPS_PER_ROUND;
        for (i, select) in self.ops[first..first + OPS_PER_ROUND].iter().enumerate() {
            let op = (first + i) as u64;
            let start = std::time::Instant::now();
            let rows = query_rows(&engine.db, &select.text);
            rec.read_us.push(start.elapsed().as_secs_f64() * 1e6);
            rec.ops += 1;
            rec.keep(rows, op, CHECK_EVERY);
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
        for (i, select) in self.ops[first..first + OPS_PER_ROUND].iter().enumerate() {
            let op = (first + i) as u64;
            let counts = counting.then_some(&mut engine.counts);
            let rows = query_rows_traced(&engine.db, select, op, tr, counts, rec);
            rec.ops += 1;
            rec.keep(rows, op, CHECK_EVERY);
        }
    }

    fn layers(&self, engine: &Engine, _traced_wall_s: f64, layers: &mut Layers) {
        engine.counts.layers(layers);
    }

    fn verify(&self, _env: &Env, engine: Engine, _rounds_done: usize, rec: &mut Recorder) -> u64 {
        drop(engine);
        let mut buf = Vec::new();
        let samples = std::mem::take(&mut rec.samples);
        for sample in &samples {
            let select = &self.ops[sample.op as usize];
            let relation = RELATIONS
                .iter()
                .position(|r| *r == select.relation)
                .expect("op names one of the three relations");
            let points = self.data[relation].iter();
            if let Err(e) = check_select(&select.ask, &sample.rows, points, &mut buf) {
                rec.fail(format!("op {} `{}`: {e}", sample.op, select.text));
            }
        }
        samples.len() as u64
    }
}
