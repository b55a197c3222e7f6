//! `mixed_stream`: the `examples/moving_objects.rs` loop as a schedule. A
//! small durable sharded relation takes a batch of position reports every
//! tick while textual kNN and geofence queries, 32 standing queries,
//! background compaction and periodic checkpoints all run. It is the read
//! path of `select_large` used differently — small relation, live overlay,
//! snapshot churn, a background worker on the second core — so per-query
//! fixed costs are a visible share of a read, and a read-side gain bought
//! with write-side or cq cost shows as a loss here.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::WriteOp;
use two_knn::core::SubscriptionId;
use two_knn::datagen::rng::StdRng;
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::geometry::Predicate;
use two_knn::{GridIndex, Point, Rect, SpatialIndex};

use super::{decimal, moved, reindexed, DATA_SEED};
use crate::harness::{digest, Env, Fnv, Layers, Recorder, Workload};
use crate::oracle::{check_select, Model, SelectAsk};
use crate::reads::{query_rows, query_rows_traced, ReadCounts, SelectOp};
use crate::spans::{Tracer, NO_OP};
use crate::writes::{crash_check, durable_config, WriteTrace, BATCH};

const VEHICLES: usize = 40_000;
const OCCUPANCY: usize = 64;
/// One ingest and nine reads per tick. Sorted by latency the plain kNN reads
/// fill ranks 0–80 % (the median is a read), and the one geofence read and
/// the ingest share the top 20 %. The tail is p95, in the middle of that
/// top group: the slow-batch mode of ingest (a batch that trips a
/// compaction) holds 0.4–0.8 % of all ops, so p99 sits on its edge and
/// flipped between 0.65 ms and 1.6 ms from run to run. Eight of nine reads
/// are plain because this workload is about per-query fixed costs: a
/// geofence read runs the filtered kernel for ≈ 450 µs, and three per tick
/// made that kernel four fifths of all read time.
const PLAIN_PER_TICK: usize = 8;
const FENCED_PER_TICK: usize = 1;
const OPS_PER_TICK: usize = 1 + PLAIN_PER_TICK + FENCED_PER_TICK;
/// A round is this many ticks and the checkpoint that ends it.
const TICKS_PER_ROUND: usize = 250;
const SMOKE_TICKS_PER_ROUND: usize = 25;
const ROUNDS: usize = 90;
const SMOKE_ROUNDS: usize = 4;
const WARM_TICKS: usize = 300;
const CHECK_EVERY: u64 = 97;
/// Batches ingested after the measured phase for the crash check to tear.
const TAIL_BATCHES: usize = 8;
/// One report in sixteen is a long hop that usually crosses a shard border.
const HOP_EVERY: usize = 16;
const SITE_HALF_WIDTH: f64 = 1_000.0;
const SITE_VEHICLES: usize = 64;
const RELATION: &str = "Vehicles";

struct Tick {
    batch: Vec<WriteOp>,
    queries: Vec<SelectOp>,
}

/// A standing query: textual (`subscribe_query`) or pre-built (`subscribe`).
enum Standing {
    Text(String),
    Spec(QuerySpec),
}

pub struct MixedStream {
    vehicles: Vec<Point>,
    standing: Vec<Standing>,
    warm: Vec<Tick>,
    ticks: Vec<Tick>,
    tail: Vec<Vec<WriteOp>>,
    ticks_per_round: usize,
}

pub struct Engine {
    db: Database,
    dir: PathBuf,
    subscriptions: Vec<SubscriptionId>,
    counts: ReadCounts,
    writes: Option<WriteTrace>,
}

fn fence(x: f64, y: f64, half: f64) -> (String, Predicate) {
    let (x1, y1, x2, y2) = (x - half, y - half, x + half, y + half);
    (
        format!("({RELATION} WHERE INSIDE(RECT({x1}, {y1}, {x2}, {y2})))"),
        Predicate::InRect(Rect::new(x1, y1, x2, y2)),
    )
}

fn make_tick(rng: &mut StdRng, positions: &mut [Point]) -> Tick {
    let mut batch = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        let id = rng.gen_range(0..positions.len());
        let reach = if i % HOP_EVERY == 0 { 15_000.0 } else { 300.0 };
        positions[id] = moved(positions[id], reach, rng);
        batch.push(WriteOp::Upsert(positions[id]));
    }
    let mut queries = Vec::with_capacity(PLAIN_PER_TICK + FENCED_PER_TICK);
    for i in 0..PLAIN_PER_TICK + FENCED_PER_TICK {
        let near = positions[rng.gen_range(0..positions.len())];
        let x = decimal(near.x + rng.gen_range(-50.0..50.0));
        let y = decimal(near.y + rng.gen_range(-50.0..50.0));
        let focal = Point::anonymous(x, y);
        queries.push(if i < PLAIN_PER_TICK {
            let k = [1, 8, 16, 8][i % 4];
            SelectOp {
                text: format!("FIND {RELATION} WHERE KNN({k}, {x}, {y})"),
                relation: RELATION,
                root: "select.knn",
                ask: SelectAsk::Knn {
                    k,
                    focal,
                    pre: None,
                },
            }
        } else {
            let (source, inside) = fence(x, y, decimal(rng.gen_range(1_500.0..3_000.0)));
            SelectOp {
                text: format!("FIND {source} WHERE KNN(12, {x}, {y})"),
                relation: RELATION,
                root: "select.filtered",
                ask: SelectAsk::Knn {
                    k: 12,
                    focal,
                    pre: Some(inside),
                },
            }
        });
    }
    Tick { batch, queries }
}

/// A vehicle's position with at least [`SITE_VEHICLES`] vehicles within
/// [`SITE_HALF_WIDTH`] of it on both axes. Standing queries watch busy
/// places: one dropped in an empty quarter has a guard region kilometres
/// wide, re-evaluates on most publishes, and whether a seed draws such a
/// site decided whether the background worker kept up (run-to-run spread
/// of `op_per_s` 0.41 before sites were restricted).
fn busy_site(rng: &mut StdRng, vehicles: &[Point]) -> (f64, f64) {
    loop {
        let at = vehicles[rng.gen_range(0..vehicles.len())];
        let close = |v: &&Point| {
            (v.x - at.x).abs() <= SITE_HALF_WIDTH && (v.y - at.y).abs() <= SITE_HALF_WIDTH
        };
        if vehicles.iter().filter(close).count() >= SITE_VEHICLES {
            return (decimal(at.x), decimal(at.y));
        }
    }
}

/// 32 standing queries: 14 kNN watches and 12 geofence watches registered as
/// text (`subscribe_query`), 6 two-select monitors as specs (`subscribe`).
/// Fences are 4 km wide so that 12 vehicles fit well inside: a fence that
/// holds fewer than k vehicles has an unbounded guard and re-evaluates on
/// every publish. Join-shaped standing queries are left out: one
/// re-evaluation of a station-dispatch join costs ~90 ms here and no publish
/// skips it, so two of them would keep the background worker busy for
/// longer than a tick lasts and its backlog would grow without bound. With
/// them went the `Stations` relation, which nothing else reads.
fn make_standing(rng: &mut StdRng, vehicles: &[Point]) -> Vec<Standing> {
    (0..32)
        .map(|i| {
            let (x, y) = busy_site(rng, vehicles);
            match i {
                0..=13 => Standing::Text(format!(
                    "FIND {RELATION} WHERE KNN({}, {x}, {y})",
                    [8, 16][i % 2]
                )),
                14..=25 => Standing::Text(format!(
                    "FIND {} WHERE KNN(12, {x}, {y})",
                    fence(x, y, 2_000.0).0
                )),
                _ => Standing::Spec(QuerySpec::TwoSelects {
                    relation: RELATION.into(),
                    query: TwoSelectsQuery::new(
                        6,
                        Point::anonymous(x, y),
                        48,
                        Point::anonymous(x + 400.0, y - 400.0),
                    ),
                }),
            }
        })
        .collect()
}

impl MixedStream {
    fn tick(&self, engine: &mut Engine, index: usize, rec: &mut Recorder) {
        let tick = &self.ticks[index];
        let first = (index * OPS_PER_TICK) as u64;
        let start = Instant::now();
        let applied = engine.db.ingest(RELATION, &tick.batch);
        rec.write_us.push(start.elapsed().as_secs_f64() * 1e6);
        rec.ops += 1;
        if let Err(e) = applied {
            rec.fail(format!("op {first}: {e}"));
        }
        for (i, select) in tick.queries.iter().enumerate() {
            let start = Instant::now();
            let rows = query_rows(&engine.db, &select.text);
            rec.read_us.push(start.elapsed().as_secs_f64() * 1e6);
            rec.ops += 1;
            rec.keep(rows, first + 1 + i as u64, CHECK_EVERY);
        }
        for id in &engine.subscriptions {
            match engine.db.poll(*id) {
                Ok(deltas) => drop(std::hint::black_box(deltas)),
                Err(e) => rec.fail(format!("poll {id}: {e}")),
            }
        }
    }

    fn tick_traced(
        &self,
        engine: &mut Engine,
        index: usize,
        counting: bool,
        rec: &mut Recorder,
        tr: &mut Tracer,
    ) {
        let tick = &self.ticks[index];
        let first = (index * OPS_PER_TICK) as u64;
        let writes = engine.writes.as_mut().expect("begin_traced ran");
        rec.ops += 1;
        if let Err(e) = writes.ingest(&engine.db, &tick.batch, first, counting, tr, rec) {
            rec.fail(format!("op {first}: {e}"));
        }
        for (i, select) in tick.queries.iter().enumerate() {
            let op = first + 1 + i as u64;
            let counts = counting.then_some(&mut engine.counts);
            let rows = query_rows_traced(&engine.db, select, op, tr, counts, rec);
            rec.ops += 1;
            rec.keep(rows, op, CHECK_EVERY);
        }
        let sweep = tr.enter("cq.poll", NO_OP);
        for id in &engine.subscriptions {
            match engine.db.poll(*id) {
                Ok(deltas) => drop(std::hint::black_box(deltas)),
                Err(e) => rec.fail(format!("poll {id}: {e}")),
            }
        }
        tr.exit(sweep);
        writes.polls += engine.subscriptions.len() as u64;
        writes.poll_ns += tr.spans()[sweep].duration_ns();
    }
}

impl Workload for MixedStream {
    type Engine = Engine;
    const NAME: &'static str = "mixed_stream";
    const TAIL: f64 = 0.95;

    fn generate(seed: u64, env: &Env) -> Self {
        let vehicles = reindexed(berlinmod(&BerlinModConfig::with_points(
            VEHICLES,
            DATA_SEED ^ 0x76,
        )));
        let mut rng = StdRng::seed_from_u64(seed);
        let standing = make_standing(&mut rng, &vehicles);
        // The tail is valid wherever the run stops: it re-reports vehicles
        // from where they started.
        let tail = (0..TAIL_BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        let from = vehicles[rng.gen_range(0..vehicles.len())];
                        WriteOp::Upsert(moved(from, 300.0, &mut rng))
                    })
                    .collect()
            })
            .collect();
        let (ticks_per_round, rounds) = if env.smoke {
            (SMOKE_TICKS_PER_ROUND, SMOKE_ROUNDS)
        } else {
            (TICKS_PER_ROUND, ROUNDS)
        };
        let mut positions = vehicles.clone();
        let warm = (0..WARM_TICKS)
            .map(|_| make_tick(&mut rng, &mut positions))
            .collect();
        let ticks = (0..rounds * ticks_per_round)
            .map(|_| make_tick(&mut rng, &mut positions))
            .collect();
        MixedStream {
            vehicles,
            standing,
            warm,
            ticks,
            tail,
            ticks_per_round,
        }
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.vehicles.len() as u64);
        for standing in &self.standing {
            match standing {
                Standing::Text(text) => h.bytes(text.as_bytes()),
                Standing::Spec(spec) => h.bytes(format!("{spec:?}").as_bytes()),
            }
        }
        let batches = self.warm.iter().chain(&self.ticks).map(|t| &t.batch);
        for batch in batches.chain(&self.tail) {
            for op in batch {
                if let WriteOp::Upsert(p) = op {
                    h.u64(p.id);
                    h.f64(p.x);
                    h.f64(p.y);
                }
            }
        }
        for tick in self.warm.iter().chain(&self.ticks) {
            for query in &tick.queries {
                h.bytes(query.text.as_bytes());
            }
        }
        h.finish()
    }

    fn rounds(&self) -> usize {
        self.ticks.len() / self.ticks_per_round
    }

    fn setup(&self, env: &Env, rep: usize, tr: &mut Tracer) -> Engine {
        let dir = env.work_dir.join(format!("mixed-{rep}"));
        let mut db =
            Database::with_pool_and_store_config(Arc::clone(&env.pool), durable_config(&dir));
        let grid = tr.leaf("index.grid.build", NO_OP, || {
            GridIndex::build_with_target_occupancy(self.vehicles.clone(), OCCUPANCY)
                .expect("grid over generated points")
        });
        tr.leaf("store.register", NO_OP, || db.register(RELATION, grid));
        let subscriptions = self
            .standing
            .iter()
            .map(|standing| {
                tr.leaf("cq.subscribe", NO_OP, || match standing {
                    Standing::Text(text) => db.subscribe_query(text),
                    Standing::Spec(spec) => db.subscribe(spec, None),
                })
                .expect("standing query registers")
            })
            .collect();
        let engine = Engine {
            db,
            dir,
            subscriptions,
            counts: ReadCounts::default(),
            writes: None,
        };
        tr.leaf("setup.warm", NO_OP, || {
            for tick in &self.warm {
                engine
                    .db
                    .ingest(RELATION, &tick.batch)
                    .expect("warm-up ingest");
                // Drained per tick, so every set-up leaves the same bases
                // and overlays behind and the counting rounds start from
                // one state.
                engine.db.pool().wait_idle();
                for query in &tick.queries {
                    std::hint::black_box(
                        query_rows(&engine.db, &query.text).expect("warm-up query"),
                    );
                }
                for id in &engine.subscriptions {
                    std::hint::black_box(engine.db.poll(*id).expect("warm-up poll"));
                }
            }
        });
        engine
    }

    fn discard(&self, engine: Engine) {
        engine.db.pool().wait_idle();
        let dir = engine.dir.clone();
        drop(engine);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn round(&self, engine: &mut Engine, round: usize, rec: &mut Recorder) {
        let first = round * self.ticks_per_round;
        for index in first..first + self.ticks_per_round {
            self.tick(engine, index, rec);
        }
        engine.db.checkpoint();
    }

    fn begin_traced(&self, engine: &mut Engine) {
        engine.db.pool().wait_idle();
        engine.writes = Some(WriteTrace::begin(&engine.db, &engine.dir, RELATION));
    }

    fn round_traced(
        &self,
        engine: &mut Engine,
        round: usize,
        counting: bool,
        rec: &mut Recorder,
        tr: &mut Tracer,
    ) {
        let first = round * self.ticks_per_round;
        for index in first..first + self.ticks_per_round {
            self.tick_traced(engine, index, counting, rec, tr);
        }
        WriteTrace::checkpoint(&engine.db, tr);
    }

    fn layers(&self, engine: &Engine, traced_wall_s: f64, layers: &mut Layers) {
        engine.counts.layers(layers);
        if let Some(writes) = &engine.writes {
            writes.layers(&engine.db, traced_wall_s, layers);
        }
    }

    fn verify(&self, env: &Env, engine: Engine, rounds_done: usize, rec: &mut Recorder) -> u64 {
        engine.db.pool().wait_idle();
        // Replay the executed schedule on a plain vector and re-answer each
        // sampled read against the positions of its own tick.
        let mut positions = self.vehicles.clone();
        self.warm
            .iter()
            .for_each(|t| report(&mut positions, &t.batch));
        let mut samples = std::mem::take(&mut rec.samples);
        samples.sort_unstable_by_key(|s| s.op);
        let mut pending = samples.iter().peekable();
        let mut buf = Vec::new();
        for (index, tick) in self.ticks[..rounds_done * self.ticks_per_round]
            .iter()
            .enumerate()
        {
            report(&mut positions, &tick.batch);
            while let Some(sample) = pending.next_if(|s| s.op as usize / OPS_PER_TICK == index) {
                let select = &tick.queries[sample.op as usize % OPS_PER_TICK - 1];
                if let Err(e) = check_select(&select.ask, &sample.rows, positions.iter(), &mut buf)
                {
                    rec.fail(format!("op {} `{}`: {e}", sample.op, select.text));
                }
            }
        }
        let mut checked = samples.len() as u64;

        let model = Model::from_points(&positions);
        match engine.db.relation(RELATION) {
            Ok(snapshot) => {
                if let Err(e) = model.matches(snapshot.all_points()) {
                    rec.fail(format!("final state: {e}"));
                }
            }
            Err(e) => rec.fail(format!("final state: {e}")),
        }
        checked += 1;

        // Every standing query's maintained result equals a fresh run.
        for (standing, id) in self.standing.iter().zip(&engine.subscriptions) {
            let fresh = match standing {
                Standing::Text(text) => engine.db.query(text),
                Standing::Spec(spec) => engine.db.execute(spec),
            };
            let maintained = engine.db.subscription_result(*id);
            match (fresh, maintained) {
                (Ok(fresh), Ok((rows, _))) => {
                    if digest(&fresh.rows()) != digest(&rows) {
                        rec.fail(format!("standing query {id} drifted from a fresh run"));
                    }
                }
                (Err(e), _) | (_, Err(e)) => rec.fail(format!("standing query {id}: {e}")),
            }
            checked += 1;
        }

        let Engine { db, dir, .. } = engine;
        if let Err(e) = crash_check(db, &env.pool, &dir, RELATION, model, &self.tail) {
            rec.fail(format!("crash check: {e}"));
        }
        let _ = std::fs::remove_dir_all(dir);
        checked + 1
    }
}

/// Applies a batch of position reports to `positions[id]`.
fn report(positions: &mut [Point], batch: &[WriteOp]) {
    for op in batch {
        if let WriteOp::Upsert(p) = op {
            positions[p.id as usize] = *p;
        }
    }
}
