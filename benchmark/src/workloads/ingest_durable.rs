//! `ingest_durable`: write-only. The store is recovered from a directory
//! prepared before timing (block files plus an un-checkpointed WAL suffix),
//! then takes batches of moves, inserts and removes with a checkpoint
//! every 500. Route → WAL append → fsync → publish → recompose →
//! background compaction do all the work and the kNN kernels none; this
//! workload owns recovery time, write amplification and the slow-batch mode.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use two_knn::core::plan::Database;
use two_knn::core::store::WriteOp;
use two_knn::datagen::rng::StdRng;
use two_knn::datagen::{berlinmod, default_extent, BerlinModConfig};
use two_knn::{GridIndex, Point, SpatialIndex};

use super::{moved, reindexed, shuffle, DATA_SEED};
use crate::harness::{Env, Fnv, Layers, Recorder, Workload};
use crate::oracle::Model;
use crate::reads::query_rows;
use crate::spans::{Tracer, NO_OP};
use crate::writes::{crash_check, durable_config, WriteTrace, BATCH};

const POINTS: usize = 400_000;
const OCCUPANCY: usize = 64;
/// Per batch: 80 % moves, 10 % inserts, 10 % removes.
const INSERTS: usize = 6;
const REMOVES: usize = 6;
/// Batches left in the WAL, past the last checkpoint, for recovery to replay.
const PREP_BATCHES: usize = 2_000;
/// A round is this many batches and the checkpoint that ends it.
const BATCHES_PER_ROUND: usize = 500;
const SMOKE_BATCHES_PER_ROUND: usize = 50;
const ROUNDS: usize = 48;
const SMOKE_ROUNDS: usize = 4;
const WARM_BATCHES: usize = 200;
const TAIL_BATCHES: usize = 8;
/// The warm-up sweep asks one kNN query per cell of a lattice this fine.
const SWEEP_PER_AXIS: usize = 32;
/// Ids the crash tail inserts, clear of every id the schedule hands out.
const TAIL_ID_BASE: u64 = 1 << 40;
const RELATION: &str = "P";

#[derive(Clone, Copy)]
enum Kind {
    Move,
    Insert,
    Remove,
}

pub struct IngestDurable {
    initial: Vec<Point>,
    prep: Vec<Vec<WriteOp>>,
    warm: Vec<Vec<WriteOp>>,
    batches: Vec<Vec<WriteOp>>,
    tail: Vec<Vec<WriteOp>>,
    sweep: Vec<String>,
    batches_per_round: usize,
}

pub struct Engine {
    db: Database,
    dir: PathBuf,
    writes: Option<WriteTrace>,
}

/// Generates batches against the live set they themselves maintain, so
/// every remove hits a visible id and every move a visible point.
struct Stream {
    live: Vec<Point>,
    next_id: u64,
    rng: StdRng,
}

impl Stream {
    fn batch(&mut self) -> Vec<WriteOp> {
        let mut kinds = [Kind::Move; BATCH];
        kinds[..INSERTS].fill(Kind::Insert);
        kinds[INSERTS..INSERTS + REMOVES].fill(Kind::Remove);
        shuffle(&mut kinds, &mut self.rng);
        // One op per id and batch: the batch means the same in any order.
        let mut touched: Vec<u64> = Vec::with_capacity(BATCH);
        let mut ops = Vec::with_capacity(BATCH);
        for kind in kinds {
            let slot = loop {
                let slot = self.rng.gen_range(0..self.live.len());
                if !touched.contains(&self.live[slot].id) {
                    break slot;
                }
            };
            touched.push(self.live[slot].id);
            ops.push(match kind {
                Kind::Move => {
                    self.live[slot] = moved(self.live[slot], 300.0, &mut self.rng);
                    WriteOp::Upsert(self.live[slot])
                }
                Kind::Insert => {
                    // A new object appears next to an existing one.
                    let mut born = moved(self.live[slot], 300.0, &mut self.rng);
                    born.id = self.next_id;
                    self.next_id += 1;
                    touched.push(born.id);
                    self.live.push(born);
                    WriteOp::Upsert(born)
                }
                Kind::Remove => WriteOp::Remove(self.live.swap_remove(slot).id),
            });
        }
        ops
    }
}

impl IngestDurable {
    fn dir(env: &Env) -> PathBuf {
        env.work_dir.join("ingest")
    }
}

impl Workload for IngestDurable {
    type Engine = Engine;
    const NAME: &'static str = "ingest_durable";
    const TAIL: f64 = 0.99;

    fn generate(seed: u64, env: &Env) -> Self {
        let initial = reindexed(berlinmod(&BerlinModConfig::with_points(
            POINTS,
            DATA_SEED ^ 0x70,
        )));
        let mut stream = Stream {
            live: initial.clone(),
            next_id: initial.len() as u64,
            rng: StdRng::seed_from_u64(seed),
        };
        let (batches_per_round, rounds) = if env.smoke {
            (SMOKE_BATCHES_PER_ROUND, SMOKE_ROUNDS)
        } else {
            (BATCHES_PER_ROUND, ROUNDS)
        };
        let mut take = |n: usize| -> Vec<Vec<WriteOp>> { (0..n).map(|_| stream.batch()).collect() };
        let prep = take(PREP_BATCHES);
        let warm = take(WARM_BATCHES);
        let batches = take(rounds * batches_per_round);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_696c);
        let tail = (0..TAIL_BATCHES as u64)
            .map(|b| {
                (0..BATCH as u64)
                    .map(|i| {
                        let at = initial[rng.gen_range(0..initial.len())];
                        WriteOp::Upsert(Point::new(TAIL_ID_BASE + b * BATCH as u64 + i, at.x, at.y))
                    })
                    .collect()
            })
            .collect();
        let step = default_extent().width() / SWEEP_PER_AXIS as f64;
        let sweep = (0..SWEEP_PER_AXIS * SWEEP_PER_AXIS)
            .map(|cell| {
                let x = (cell % SWEEP_PER_AXIS) as f64 * step + step / 2.0;
                let y = (cell / SWEEP_PER_AXIS) as f64 * step + step / 2.0;
                format!("FIND {RELATION} WHERE KNN(64, {x}, {y})")
            })
            .collect();
        IngestDurable {
            initial,
            prep,
            warm,
            batches,
            tail,
            sweep,
            batches_per_round,
        }
    }

    fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.u64(self.initial.len() as u64);
        let all = [&self.prep, &self.warm, &self.batches, &self.tail];
        for op in all.into_iter().flatten().flatten() {
            match op {
                WriteOp::Upsert(p) => {
                    h.u64(p.id);
                    h.f64(p.x);
                    h.f64(p.y);
                }
                WriteOp::Remove(id) => h.u64(!*id),
            }
        }
        h.finish()
    }

    fn rounds(&self) -> usize {
        self.batches.len() / self.batches_per_round
    }

    /// Builds the directory every set-up recovers from: the initial points
    /// as shard block files, then `prep` batches that stay in the WAL.
    fn prepare(&self, env: &Env) {
        let dir = Self::dir(env);
        let mut db =
            Database::with_pool_and_store_config(Arc::clone(&env.pool), durable_config(&dir));
        let grid = GridIndex::build_with_target_occupancy(self.initial.clone(), OCCUPANCY)
            .expect("grid over generated points");
        db.register(RELATION, grid);
        db.checkpoint();
        // Background work is drained after every batch so that which shards
        // were rebuilt and spilled, and how much each left in the WAL, is
        // the same in every run: otherwise replay time, and with it
        // `setup_s`, depends on how the worker happened to be scheduled
        // (0.17 s or 0.5 s for the same seed).
        for batch in &self.prep {
            db.ingest(RELATION, batch).expect("prepared batch");
            db.pool().wait_idle();
        }
    }

    fn setup(&self, env: &Env, _rep: usize, tr: &mut Tracer) -> Engine {
        let dir = Self::dir(env);
        let db = tr.leaf("store.recover.open", NO_OP, || {
            Database::open_with_pool(&dir, durable_config(&dir), Arc::clone(&env.pool))
                .expect("the prepared directory recovers")
        });
        // Forces every lazily decoded block, then answers from each region.
        tr.leaf("store.recover.warm", NO_OP, || {
            let visible = db
                .relation(RELATION)
                .expect("recovered relation")
                .all_points();
            assert_eq!(
                visible.len(),
                self.initial.len(),
                "recovery lost or invented points"
            );
            for text in &self.sweep {
                std::hint::black_box(query_rows(&db, text).expect("warm-up query"));
            }
        });
        Engine {
            db,
            dir,
            writes: None,
        }
    }

    fn discard(&self, engine: Engine) {
        engine.db.pool().wait_idle();
    }

    fn warm(&self, engine: &mut Engine) {
        for batch in &self.warm {
            engine.db.ingest(RELATION, batch).expect("warm-up batch");
            engine.db.pool().wait_idle();
        }
    }

    fn round(&self, engine: &mut Engine, round: usize, rec: &mut Recorder) {
        let first = round * self.batches_per_round;
        for (i, batch) in self.batches[first..first + self.batches_per_round]
            .iter()
            .enumerate()
        {
            let start = Instant::now();
            let applied = engine.db.ingest(RELATION, batch);
            rec.write_us.push(start.elapsed().as_secs_f64() * 1e6);
            rec.ops += 1;
            if let Err(e) = applied {
                rec.fail(format!("op {}: {e}", first + i));
            }
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
        let writes = engine.writes.as_mut().expect("begin_traced ran");
        let first = round * self.batches_per_round;
        for (i, batch) in self.batches[first..first + self.batches_per_round]
            .iter()
            .enumerate()
        {
            let op = (first + i) as u64;
            rec.ops += 1;
            if let Err(e) = writes.ingest(&engine.db, batch, op, counting, tr, rec) {
                rec.fail(format!("op {op}: {e}"));
            }
        }
        WriteTrace::checkpoint(&engine.db, tr);
    }

    fn layers(&self, engine: &Engine, traced_wall_s: f64, layers: &mut Layers) {
        if let Some(writes) = &engine.writes {
            writes.layers(&engine.db, traced_wall_s, layers);
        }
    }

    fn verify(&self, env: &Env, engine: Engine, rounds_done: usize, rec: &mut Recorder) -> u64 {
        engine.db.pool().wait_idle();
        let mut model = Model::from_points(&self.initial);
        let executed = &self.batches[..rounds_done * self.batches_per_round];
        for batch in self.prep.iter().chain(&self.warm).chain(executed) {
            model.apply(batch);
        }
        match engine.db.relation(RELATION) {
            Ok(snapshot) => {
                if let Err(e) = model.matches(snapshot.all_points()) {
                    rec.fail(format!("final state: {e}"));
                }
            }
            Err(e) => rec.fail(format!("final state: {e}")),
        }
        let Engine { db, dir, .. } = engine;
        if let Err(e) = crash_check(db, &env.pool, &dir, RELATION, model, &self.tail) {
            rec.fail(format!("crash check: {e}"));
        }
        2
    }
}
