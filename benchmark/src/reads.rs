//! How the benchmark drives a read: through the one-call front door in the
//! untraced pass, and stage by stage — the same public functions the front
//! door chains — inside spans in the traced pass.

use two_knn::core::plan::{compile, Database, QuerySpec, Row};
use two_knn::core::{ExecutionMode, QueryError};
use two_knn::index::get_knn;
use two_knn::{Metrics, Point};

use crate::harness::Recorder;
use crate::oracle::SelectAsk;
use crate::spans::Tracer;
use crate::stats::ratio;

/// One textual select of a schedule.
pub struct SelectOp {
    pub text: String,
    /// Relation the query names.
    pub relation: &'static str,
    /// Span name of the op's root, after its shape.
    pub root: &'static str,
    /// What the oracle re-answers.
    pub ask: SelectAsk,
}

impl SelectOp {
    /// `(k, focal)` when this is a plain `KNN(k, x, y)` with no filter.
    fn plain_knn(&self) -> Option<(usize, Point)> {
        match &self.ask {
            SelectAsk::Knn {
                k,
                focal,
                pre: None,
            } => Some((*k, *focal)),
            _ => None,
        }
    }
}

/// Work counts of traced reads, summed over the counting rounds, and the
/// time plain kNN selects spend in `execute` and in a bare `get_knn`.
#[derive(Default)]
pub struct ReadCounts {
    ops: u64,
    work: Metrics,
    knn_k: u64,
    knn_points: u64,
    knn_execute_ns: u64,
    knn_direct_ns: u64,
}

impl ReadCounts {
    pub fn layers(&self, layers: &mut crate::harness::Layers) {
        let per_op = |count: u64| ratio(count as f64, self.ops as f64);
        let w = &self.work;
        layers.set("index.knn.blocks_scanned_per_op", per_op(w.blocks_scanned));
        layers.set("index.knn.blocks_pruned_per_op", per_op(w.blocks_pruned));
        layers.set("index.knn.points_scanned_per_op", per_op(w.points_scanned));
        layers.set("geometry.distance_per_op", per_op(w.distance_computations));
        layers.set("store.shard.scanned_per_op", per_op(w.shards_scanned));
        layers.set(
            "store.shard.pruned_share",
            ratio(
                w.shards_pruned as f64,
                (w.shards_scanned + w.shards_pruned) as f64,
            ),
        );
        layers.set(
            "index.knn.useful_point_share",
            ratio(self.knn_k as f64, self.knn_points as f64),
        );
        layers.set(
            "index.knn.get_knn_share",
            ratio(self.knn_direct_ns as f64, self.knn_execute_ns as f64),
        );
    }
}

/// The front door: text in, rows out.
pub fn query_rows(db: &Database, text: &str) -> Result<Vec<Row>, QueryError> {
    Ok(db.query(text)?.rows())
}

/// The same read, one public stage function per span. A plain kNN select is
/// followed by a bare `get_knn` on the pinned relation snapshot, in a span
/// of its own outside the op, to size the kernel's share of `execute`.
pub fn query_rows_traced(
    db: &Database,
    select: &SelectOp,
    op: u64,
    tr: &mut Tracer,
    counts: Option<&mut ReadCounts>,
    rec: &mut Recorder,
) -> Result<Vec<Row>, QueryError> {
    let root = tr.enter(select.root, op);
    let spec = tr.leaf("plan.lang.parse", op, || db.parse_query(&select.text));
    let staged = spec.and_then(|spec| run_stages(db, &spec, op, tr));
    tr.exit(root);
    let (rows, work, execute_ns, snapshot) = staged?;

    let mut direct_ns = 0;
    if let Some((k, focal)) = select.plain_knn() {
        let relation = snapshot.snapshot(select.relation)?;
        let span = tr.enter("index.knn.get_knn", op);
        let neighbours = get_knn(&**relation, &focal, k, &mut Metrics::default());
        tr.exit(span);
        std::hint::black_box(neighbours);
        direct_ns = tr.spans()[span].duration_ns();
        rec.probe_s += direct_ns as f64 / 1e9;
    }
    if let Some(c) = counts {
        c.ops += 1;
        c.work += work;
        if let Some((k, _)) = select.plain_knn() {
            c.knn_k += k.min(rows.len()) as u64;
            c.knn_points += work.points_scanned;
            c.knn_execute_ns += execute_ns;
            c.knn_direct_ns += direct_ns;
        }
    }
    Ok(rows)
}

type Staged = (Vec<Row>, Metrics, u64, two_knn::core::DbSnapshot);

/// pin → plan → compile → execute → rows, as `Database::execute` chains
/// them. (`Database::plan` pins once more inside; that second pin is part
/// of the plan span.)
fn run_stages(
    db: &Database,
    spec: &QuerySpec,
    op: u64,
    tr: &mut Tracer,
) -> Result<Staged, QueryError> {
    let snapshot = tr.leaf("store.pin", op, || db.snapshot());
    let strategy = tr.leaf("plan.optimizer.plan", op, || db.plan(spec))?;
    let plan = tr.leaf("plan.physical.compile", op, || {
        compile(&snapshot, spec, strategy)
    })?;
    let execute = tr.enter("plan.physical.execute", op);
    let result = plan.execute(ExecutionMode::default_mode());
    tr.exit(execute);
    let rows = tr.leaf("plan.executor.rows", op, || result.rows());
    let execute_ns = tr.spans()[execute].duration_ns();
    Ok((rows, result.metrics(), execute_ns, snapshot))
}

/// A pre-built query (the join shapes have no textual form) through the
/// same stages, minus the parse. Returns the rows and the work counts.
pub fn execute_rows_traced(
    db: &Database,
    spec: &QuerySpec,
    root: &'static str,
    op: u64,
    tr: &mut Tracer,
) -> Result<(Vec<Row>, Metrics), QueryError> {
    let span = tr.enter(root, op);
    let staged = run_stages(db, spec, op, tr);
    tr.exit(span);
    staged.map(|(rows, work, _, _)| (rows, work))
}
