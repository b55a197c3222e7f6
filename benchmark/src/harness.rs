//! The measurement loop shared by the four workloads: repeated set-ups, a
//! round-structured measured phase, the untraced and the traced pass, and
//! the result the driver reads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use two_knn::core::plan::Row;
use two_knn::core::{QueryError, WorkerPool};

use crate::spans::{self, Tracer};
use crate::stats::{median, percentile, ratio, sorted};
use crate::{spec, sys};

/// Share of `--seconds` the traced pass spends on untraced front-door
/// rounds, after the traced ones; they give `trace.overhead_share` its base
/// and the per-op-type latencies.
const UNTRACED_SHARE: f64 = 0.3;

/// Traced rounds whose work counts are reported: rounds 0 and 1 of the
/// schedule, so counts repeat exactly however many rounds the time limit
/// lets through.
pub const COUNT_ROUNDS: usize = 2;

/// Operations whose spans are written to the `.spans.jsonl` file; totals
/// are computed over every span.
const SPAN_DUMP_OPS: u64 = 2_000;

/// What a pass runs with.
pub struct Env {
    /// The one pool every engine of this process gets: the client thread
    /// plus `min(nproc, 2) − 1` background workers.
    pub pool: Arc<WorkerPool>,
    /// Private scratch directory for durable stores, removed at exit.
    pub work_dir: PathBuf,
    /// Where `<workload>.spans.jsonl` goes.
    pub out_dir: PathBuf,
    /// 1/50-length schedules, one set-up, every check on.
    pub smoke: bool,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The rows of one sampled op, kept for the oracle to re-answer after the
/// measured phase.
pub struct Sample {
    pub op: u64,
    pub rows: Vec<Row>,
}

/// What a measured phase records.
#[derive(Default)]
pub struct Recorder {
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    /// Ops per second of each round.
    pub round_rate: Vec<f64>,
    pub wall_s: f64,
    /// Seconds inside rounds spent on the benchmark's own probes (a bare
    /// `get_knn` after a traced select); taken off the round's wall time.
    pub probe_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub samples: Vec<Sample>,
    /// `(op, rows, hash)` of sampled answers too large to keep whole.
    pub digests: Vec<(u64, usize, u64)>,
}

impl Recorder {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Books a finished read: an `Err` fails the op, and every
    /// `check_every`-th answer is kept for the oracle.
    pub fn keep(&mut self, rows: Result<Vec<Row>, QueryError>, op: u64, check_every: u64) {
        match rows {
            Err(e) => self.fail(format!("op {op}: {e}")),
            Ok(rows) if op % check_every == 0 => self.samples.push(Sample { op, rows }),
            Ok(rows) => drop(std::hint::black_box(rows)),
        }
    }

    /// [`Recorder::keep`] for join answers, which run to tens of thousands of
    /// rows: keeps a digest, and takes the time to compute it off the round.
    pub fn keep_digest(&mut self, rows: Result<Vec<Row>, QueryError>, op: u64, check_every: u64) {
        match rows {
            Err(e) => self.fail(format!("op {op}: {e}")),
            Ok(rows) if op % check_every == 0 => {
                let start = Instant::now();
                let (count, hash) = digest(&rows);
                self.digests.push((op, count, hash));
                self.probe_s += start.elapsed().as_secs_f64();
            }
            Ok(rows) => drop(std::hint::black_box(rows)),
        }
    }

    fn latencies(&self) -> Vec<f64> {
        let mut all = self.read_us.clone();
        all.extend_from_slice(&self.write_us);
        sorted(all)
    }
}

/// The per-layer metrics of a traced pass; every name of
/// [`spec::PER_LAYER`] is present, zero where a layer does no work.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(spec::PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }
}

/// One workload: seeded inputs, a set-up, rounds of ops and its checks.
pub trait Workload: Sized {
    /// The live engine a set-up produces, with the workload's own counters.
    type Engine;
    const NAME: &'static str;
    /// Percentile reported as `op_tail_us`, fixed per workload: 0.99 where
    /// a run measures ≥ 10 000 ops and p99 lies inside one mode of the
    /// latency distribution, else 0.95.
    const TAIL: f64;

    /// Builds data and the whole op schedule from the seed, before any
    /// timing. The engine only ever sees what this generated.
    fn generate(seed: u64, env: &Env) -> Self;
    fn schedule_hash(&self) -> u64;
    /// Rounds in the schedule; a run stops there if time has not run out.
    fn rounds(&self) -> usize;
    /// Untimed one-off preparation (a directory to recover from).
    fn prepare(&self, _env: &Env) {}
    /// Untimed, before every set-up: hands the next set-up its own copy of
    /// the inputs the engine takes by value.
    fn stage(&self) {}
    /// One complete set-up, timed by the caller: from generated points in
    /// memory to a warmed engine that answers queries.
    fn setup(&self, env: &Env, rep: usize, tr: &mut Tracer) -> Self::Engine;
    /// Drops a set-up that is not measured, and what it left on disk.
    fn discard(&self, engine: Self::Engine) {
        drop(engine);
    }
    /// Untimed warm-up of the engine that will be measured.
    fn warm(&self, _engine: &mut Self::Engine) {}
    /// Runs round `round` through the one-call front door.
    fn round(&self, engine: &mut Self::Engine, round: usize, rec: &mut Recorder);
    /// Runs round `round` stage by stage inside spans; `counting` marks the
    /// rounds whose work counts are reported.
    fn round_traced(
        &self,
        engine: &mut Self::Engine,
        round: usize,
        counting: bool,
        rec: &mut Recorder,
        tr: &mut Tracer,
    );
    /// Called before the traced segment of a traced pass.
    fn begin_traced(&self, _engine: &mut Self::Engine) {}
    /// The workload's own per-layer metrics, after the traced segment.
    fn layers(&self, engine: &Self::Engine, traced_wall_s: f64, layers: &mut Layers);
    /// Re-answers the sampled ops, checks the final state (and recovery, on
    /// durable workloads) and returns how many checks ran. Consumes the
    /// engine. `rounds_done` is how far the schedule was executed.
    fn verify(
        &self,
        env: &Env,
        engine: Self::Engine,
        rounds_done: usize,
        rec: &mut Recorder,
    ) -> u64;
}

/// What one pass reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Runs rounds `first..` until `seconds` of measured time have passed (and
/// at least `min_rounds` ran) or the schedule ends. Returns the next round.
fn drive(
    seconds: f64,
    first: usize,
    end: usize,
    min_rounds: usize,
    rec: &mut Recorder,
    mut body: impl FnMut(usize, &mut Recorder),
) -> usize {
    let mut round = first;
    let mut measured = 0.0;
    while round < end {
        let (ops_before, probe_before) = (rec.ops, rec.probe_s);
        let start = Instant::now();
        body(round, rec);
        let wall = start.elapsed().as_secs_f64() - (rec.probe_s - probe_before);
        rec.round_rate.push((rec.ops - ops_before) as f64 / wall);
        rec.wall_s += wall;
        measured += wall;
        round += 1;
        if measured >= seconds && round - first >= min_rounds {
            break;
        }
    }
    round
}

/// Sets up `env.setups` times, keeps the last engine and returns it with
/// the median set-up time in seconds.
fn set_up<W: Workload>(w: &W, env: &Env, tr: &mut Tracer) -> (W::Engine, f64) {
    w.prepare(env);
    let mut times = Vec::with_capacity(env.setups);
    let mut engine: Option<W::Engine> = None;
    for rep in 0..env.setups {
        if let Some(previous) = engine.take() {
            w.discard(previous);
        }
        w.stage();
        let root = tr.enter("setup", spans::NO_OP);
        let built = w.setup(env, rep, tr);
        tr.exit(root);
        times.push(tr.seconds(root));
        engine = Some(built);
    }
    let mut engine = engine.expect("at least one set-up");
    w.warm(&mut engine);
    (engine, median(&times))
}

/// The untraced pass: every end-to-end metric.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64, env: &Env) -> Outcome {
    let w = W::generate(seed, env);
    println!("schedule_hash: {:016x}", w.schedule_hash());
    let (mut engine, setup_s) = set_up(&w, env, &mut Tracer::new());

    let mut rec = Recorder::default();
    let cpu_before = sys::cpu_seconds();
    let done = drive(seconds, 0, w.rounds(), 1, &mut rec, |r, rec| {
        w.round(&mut engine, r, rec)
    });
    let cpu_s = sys::cpu_seconds() - cpu_before;
    // Read before the oracle allocates: the peak is the engine's and the
    // schedule's, not the checks'.
    let peak_rss_mb = sys::peak_rss_mb();
    report_phase("measured", done, w.rounds(), &rec);

    let all = rec.latencies();
    let tail_n = all.len() - (W::TAIL * all.len() as f64).ceil() as usize;
    println!(
        "op_tail_us is p{:.0} over {} ops ({tail_n} samples beyond it)",
        W::TAIL * 100.0,
        all.len()
    );
    let metrics = vec![
        ("setup_s", setup_s),
        ("op_per_s", median(&rec.round_rate)),
        ("op_p50_us", percentile(&all, 0.5)),
        ("op_tail_us", percentile(&all, W::TAIL)),
        ("cpu_us_per_op", ratio(cpu_s * 1e6, rec.ops as f64)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let checked = w.verify(env, engine, done, &mut rec);
    println!("checked: {checked} sampled ops and end states re-answered by the oracle");
    finish(rec, metrics)
}

/// The traced pass: every per-layer metric.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64, env: &Env) -> Outcome {
    let w = W::generate(seed, env);
    println!("schedule_hash: {:016x}", w.schedule_hash());
    let mut tr = Tracer::new();
    let (mut engine, _) = set_up(&w, env, &mut tr);
    let count_rounds = if env.smoke { 1 } else { COUNT_ROUNDS };

    // Stage by stage first, from round 0, so that the counting rounds are
    // the same rounds in every run; then front-door rounds of the same mix.
    w.begin_traced(&mut engine);
    let mut rec = Recorder::default();
    let split = drive(
        seconds * (1.0 - UNTRACED_SHARE),
        0,
        w.rounds().saturating_sub(1),
        count_rounds,
        &mut rec,
        |r, rec| w.round_traced(&mut engine, r, r < count_rounds, rec, &mut tr),
    );
    report_phase("traced segment", split, w.rounds(), &rec);
    let mut layers = Layers::new();
    span_layers(&tr, &mut layers);
    w.layers(&engine, rec.wall_s, &mut layers);
    let mut front = Recorder::default();
    let done = drive(
        seconds * UNTRACED_SHARE,
        split,
        w.rounds(),
        1,
        &mut front,
        |r, rec| w.round(&mut engine, r, rec),
    );
    report_phase("untraced segment", done, w.rounds(), &front);

    let (reads, writes) = (
        sorted(front.read_us.clone()),
        sorted(front.write_us.clone()),
    );
    layers.set("read_p50_us", percentile(&reads, 0.5));
    layers.set("read_p99_us", percentile(&reads, 0.99));
    layers.set("write_p50_us", percentile(&writes, 0.5));
    layers.set("write_p99_us", percentile(&writes, 0.99));
    let (traced_rate, untraced_rate) = (median(&rec.round_rate), median(&front.round_rate));
    layers.set("trace.traced_op_per_s", traced_rate);
    layers.set("trace.untraced_op_per_s", untraced_rate);
    layers.set(
        "trace.overhead_share",
        1.0 - ratio(traced_rate, untraced_rate),
    );
    layers.set("trace.traced_ops", rec.ops as f64);
    layers.set("trace.untraced_ops", front.ops as f64);
    layers.set("trace.spans", tr.spans().len() as f64);

    // One recorder from here on: verification walks the schedule once.
    rec.ops += front.ops;
    rec.failed += front.failed;
    rec.errors.append(&mut front.errors);
    rec.samples.append(&mut front.samples);
    rec.digests.append(&mut front.digests);
    let checked = w.verify(env, engine, done, &mut rec);
    layers.set("trace.checked_ops", checked as f64);

    let path = env.out_dir.join(format!("{}.spans.jsonl", W::NAME));
    match spans::write_jsonl(&path, tr.spans(), SPAN_DUMP_OPS) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => rec.fail(format!("writing {}: {e}", path.display())),
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, layers.0[name]))
        .collect();
    finish(rec, metrics)
}

fn report_phase(what: &str, next_round: usize, rounds: usize, rec: &Recorder) {
    println!(
        "{what}: {} ops in {:.3} s over {} rounds (schedule: through round {next_round} of {rounds}{})",
        rec.ops,
        rec.wall_s,
        rec.round_rate.len(),
        if next_round == rounds {
            ", exhausted before the time limit"
        } else {
            ""
        }
    );
}

fn finish(rec: Recorder, metrics: Vec<(&'static str, f64)>) -> Outcome {
    for error in &rec.errors {
        println!("FAILED: {error}");
    }
    Outcome {
        attempted: rec.ops,
        failed: rec.failed,
        metrics,
    }
}

/// Span names of operation roots: one per op, named after the op's shape.
const READ_ROOTS: [&str; 7] = [
    "select.knn",
    "select.filtered",
    "selects2.two_selects",
    "select_join.inner",
    "select_join.outer",
    "joins2.unchained",
    "joins2.chained",
];
pub const WRITE_ROOT: &str = "op.ingest";
/// The stages of a read op that are not the algorithm itself.
const FRONT_STAGES: [&str; 5] = [
    "plan.lang.parse",
    "store.pin",
    "plan.optimizer.plan",
    "plan.physical.compile",
    "plan.executor.rows",
];

/// The per-layer metrics that are plain functions of the recorded spans.
fn span_layers(tr: &Tracer, layers: &mut Layers) {
    let totals = spans::totals_by_name(tr.spans());
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("plan.lang.parse_us", "plan.lang.parse"),
        ("plan.optimizer.plan_us", "plan.optimizer.plan"),
        ("plan.physical.compile_us", "plan.physical.compile"),
        ("store.pin_us", "store.pin"),
        ("plan.executor.rows_us", "plan.executor.rows"),
        ("plan.physical.execute_us", "plan.physical.execute"),
        ("index.knn.get_knn_us", "index.knn.get_knn"),
        ("select.knn_us", "select.knn"),
        ("selects2.two_selects_us", "selects2.two_selects"),
        ("select_join.inner_us", "select_join.inner"),
        ("select_join.outer_us", "select_join.outer"),
        ("joins2.unchained_us", "joins2.unchained"),
        ("joins2.chained_us", "joins2.chained"),
        ("exec.pool.wait_idle_us", "exec.pool.wait_idle"),
        ("cq.subscribe_us", "cq.subscribe"),
    ] {
        layers.set(metric, of(span).mean_us());
    }
    for (metric, span) in [
        ("index.grid.build_ms", "index.grid.build"),
        ("index.quadtree.build_ms", "index.quadtree.build"),
        ("index.rtree.build_ms", "index.rtree.build"),
        ("store.register_ms", "store.register"),
        ("store.checkpoint_ms", "store.checkpoint"),
        ("store.recover.open_ms", "store.recover.open"),
        ("store.recover.warm_ms", "store.recover.warm"),
    ] {
        layers.set(metric, of(span).mean_ms());
    }
    let sum = |names: &[&str], pick: fn(&spans::NameTotal) -> u64| -> f64 {
        names.iter().map(|n| pick(&of(n)) as f64).sum()
    };
    let read_wall = sum(&READ_ROOTS, |t| t.total_ns);
    layers.set(
        "plan.executor.front_share",
        ratio(sum(&FRONT_STAGES, |t| t.total_ns), read_wall),
    );
    let op_wall = read_wall + of(WRITE_ROOT).total_ns as f64;
    let op_self = sum(&READ_ROOTS, |t| t.self_ns) + of(WRITE_ROOT).self_ns as f64;
    layers.set(
        "trace.coverage_share",
        1.0 - ratio(op_self, op_wall).min(1.0),
    );
}

/// Row count and a hash of the rows as sorted id tuples: equal for two
/// answers exactly when they hold the same rows in any order.
pub fn digest(rows: &[Row]) -> (usize, u64) {
    let mut ids: Vec<[u64; 3]> = rows
        .iter()
        .map(|row| match row {
            Row::Point(p) => [p.id, 0, 0],
            Row::Pair(p) => [p.left.id, p.right.id, 0],
            Row::Triplet(t) => [t.a.id, t.b.id, t.c.id],
        })
        .collect();
    ids.sort_unstable();
    let mut h = Fnv::default();
    for id in ids.iter().flatten() {
        h.u64(*id);
    }
    (rows.len(), h.finish())
}

/// FNV-1a, for `schedule_hash`: cheap, stable across runs and platforms.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
