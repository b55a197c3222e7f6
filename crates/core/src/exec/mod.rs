//! Execution modes and the work-partitioning substrate — the one place that
//! knows how an operator's independent work items are spread over threads.
//!
//! Every hot-path algorithm in this crate is written as a loop over
//! independent work items (outer blocks, contributing blocks, query specs).
//! [`run_partitioned`] abstracts that loop behind an [`ExecutionMode`]:
//!
//! * [`ExecutionMode::Serial`] — a plain iteration on the calling thread;
//! * [`ExecutionMode::Pooled`] — items are distributed over the current
//!   persistent [`WorkerPool`]. Batch-level tasks
//!   ([`Database::execute_batch`](crate::plan::Database::execute_batch)) and
//!   the operator-level block tasks they spawn go through the **same
//!   queue**, so the thread budget is one number owned by one pool
//!   (`TWOKNN_THREADS` for the global pool) and nested parallelism never
//!   oversubscribes the machine. A pool of one runs inline.
//!
//! # Scheduling and the determinism guarantee
//!
//! Pooled runs use dynamic scheduling: team members pull the next item index
//! from a shared atomic cursor, so one expensive item cannot serialize the
//! run the way fixed chunking would. Each member accumulates rows tagged
//! with their item index and its own private [`Metrics`]; the driver then
//! sorts the tagged outputs back into item order and merges the per-member
//! counters. **Both modes produce byte-for-byte the same rows in the same
//! order** — the execution mode is a performance knob, never a semantics
//! knob — and, for algorithms whose per-item work is schedule-independent,
//! the merged counters equal the serial run's too. The one exception is the
//! cached chained join, whose per-chunk caches legitimately change the hit
//! pattern (and hence `neighborhoods_computed`) under pooled partitioning.
//! `tests/physical_plan_equivalence.rs` enforces row equality across all
//! query shapes, strategies and index types, and metrics equality for
//! everything but that cached join.
//!
//! Single-item inputs and pools of one short-circuit to the plain serial
//! loop before any pool submission, so trivial phases pay no
//! synchronization cost.

pub mod pool;

pub use pool::WorkerPool;

use twoknn_index::Metrics;

/// How an operator should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Single-threaded execution.
    Serial,
    /// Multi-core execution over the current persistent [`WorkerPool`] (the
    /// pool the calling thread is bound to — a worker's own pool, or one
    /// entered through [`WorkerPool::bind`] — and the global pool otherwise).
    Pooled,
}

impl ExecutionMode {
    /// The mode the [`crate::plan::Database`] driver uses for single
    /// queries: serial. (`execute_batch` spreads whole queries over the
    /// pool instead.)
    pub fn default_mode() -> Self {
        ExecutionMode::Serial
    }

    /// The number of threads this mode will use: 1 for
    /// [`ExecutionMode::Serial`], the parallelism of the pool the current
    /// thread submits to for [`ExecutionMode::Pooled`].
    pub fn effective_threads(&self) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Pooled => WorkerPool::current().parallelism(),
        }
    }
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::default_mode()
    }
}

/// Number of worker threads to use by default (at least 1): the
/// `TWOKNN_THREADS` environment variable when set to a positive integer,
/// otherwise the hardware thread count.
///
/// The override exists so CI (and operators) can pin the global pool to a
/// known small size — pool scheduling bugs must not be able to hide behind
/// machine core counts.
pub fn available_threads() -> usize {
    if let Ok(value) = std::env::var("TWOKNN_THREADS") {
        if let Ok(threads) = value.trim().parse::<usize>() {
            if threads >= 1 {
                return threads;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `work` once per item, serially or over the current pool per `mode`.
///
/// `work` receives the item, an output vector to push result rows into, and a
/// metrics accumulator. Outputs are concatenated **in item order** regardless
/// of the schedule, and every worker's metrics are merged into `metrics`, so
/// serial and pooled runs report identical rows and identical work counters
/// (for algorithms whose per-item work is schedule-independent).
pub fn run_partitioned<T, R, F>(
    items: &[T],
    mode: ExecutionMode,
    metrics: &mut Metrics,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Vec<R>, &mut Metrics) + Sync,
{
    match mode {
        ExecutionMode::Serial => run_serial(items, metrics, &work),
        ExecutionMode::Pooled => run_partitioned_on(items, &WorkerPool::current(), metrics, work),
    }
}

/// Runs `work` once per item, partitioned over an **explicit** worker pool
/// (the pool's full parallelism, clamped by the item count) — what
/// [`ExecutionMode::Pooled`] does on the current pool, and the entry point
/// behind [`Database::execute_batch`](crate::plan::Database::execute_batch).
/// Ordering and metrics-merge semantics are identical to
/// [`run_partitioned`]. A single item, or a pool of one, runs the plain
/// serial loop — no pool submission, no tag-and-sort reassembly.
pub fn run_partitioned_on<T, R, F>(
    items: &[T],
    pool: &WorkerPool,
    metrics: &mut Metrics,
    work: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Vec<R>, &mut Metrics) + Sync,
{
    let threads = pool.parallelism().min(items.len());
    if threads <= 1 {
        // Serial short-circuit, but still bound to `pool`: nested
        // `Pooled`-mode runs inside `work` must budget against this pool,
        // not drift to the global one.
        return pool.bind(|| run_serial(items, metrics, &work));
    }
    run_pooled(items, pool, threads, metrics, &work)
}

/// Runs `work` once per *block*, pushing result rows. Thin alias over
/// [`run_partitioned`] for the common block-partitioned algorithms.
pub fn run_over_blocks<R, F>(
    blocks: &[twoknn_index::BlockMeta],
    mode: ExecutionMode,
    metrics: &mut Metrics,
    work: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(twoknn_index::BlockMeta, &mut Vec<R>, &mut Metrics) + Sync,
{
    run_partitioned(blocks, mode, metrics, |block, out, metrics| {
        work(*block, out, metrics)
    })
}

/// Per-team-member output rows tagged with their item index, awaiting the
/// order-restoring sort.
type TaggedRows<R> = Vec<(usize, Vec<R>)>;

/// The single-threaded loop every entry point short-circuits to.
fn run_serial<T, R, F>(items: &[T], metrics: &mut Metrics, work: &F) -> Vec<R>
where
    F: Fn(&T, &mut Vec<R>, &mut Metrics),
{
    let mut out = Vec::new();
    for item in items {
        work(item, &mut out, metrics);
    }
    out
}

/// Dynamic-scheduled partitioned run on a persistent [`WorkerPool`]:
/// `threads − 1` copies of the cursor-pulling task are broadcast to the pool
/// and the calling thread joins as the final team member. Per-member tagged
/// outputs are reassembled in item order and per-member metrics merged.
fn run_pooled<T, R, F>(
    items: &[T],
    pool: &WorkerPool,
    threads: usize,
    metrics: &mut Metrics,
    work: &F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &mut Vec<R>, &mut Metrics) + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let cursor = AtomicUsize::new(0);
    let gathered: Mutex<(TaggedRows<R>, Metrics)> =
        Mutex::new((Vec::with_capacity(items.len()), Metrics::default()));
    pool.broadcast(threads - 1, &|| {
        let mut local_metrics = Metrics::default();
        let mut local: TaggedRows<R> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let mut out = Vec::new();
            work(&items[i], &mut out, &mut local_metrics);
            local.push((i, out));
        }
        let mut shared = gathered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shared.0.extend(local);
        shared.1.merge(&local_metrics);
    });
    let (mut tagged, worker_metrics) = gathered
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    metrics.merge(&worker_metrics);
    // Restore item order for deterministic output.
    tagged.sort_unstable_by_key(|(i, _)| *i);
    let mut out = Vec::with_capacity(tagged.iter().map(|(_, v)| v.len()).sum());
    for (_, mut v) in tagged {
        out.append(&mut v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_pooled_produce_identical_ordered_output() {
        let items: Vec<u64> = (0..1_000).collect();
        let work = |item: &u64, out: &mut Vec<u64>, metrics: &mut Metrics| {
            metrics.points_scanned += 1;
            out.push(item * 2);
            if item % 7 == 0 {
                out.push(item * 2 + 1);
            }
        };
        let mut m_serial = Metrics::default();
        let serial = run_partitioned(&items, ExecutionMode::Serial, &mut m_serial, work);
        assert_eq!(m_serial.points_scanned, 1_000);
        // An explicit pool, so the fan-out is real whatever the core count.
        for parallelism in [1, 7] {
            let mut m_pool = Metrics::default();
            let pooled = WorkerPool::new(parallelism)
                .bind(|| run_partitioned(&items, ExecutionMode::Pooled, &mut m_pool, work));
            assert_eq!(serial, pooled);
            assert_eq!(m_serial, m_pool);
        }
    }

    #[test]
    fn empty_input_is_fine_in_every_mode() {
        let items: Vec<u64> = Vec::new();
        for mode in [ExecutionMode::Serial, ExecutionMode::Pooled] {
            let mut m = Metrics::default();
            let out = run_partitioned(&items, mode, &mut m, |_, _out: &mut Vec<u64>, _| {});
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_item_input_short_circuits_in_every_mode() {
        let items = [41u64];
        for mode in [ExecutionMode::Serial, ExecutionMode::Pooled] {
            let mut m = Metrics::default();
            let out = run_partitioned(&items, mode, &mut m, |item, out, m| {
                m.points_scanned += 1;
                out.push(item + 1);
            });
            assert_eq!(out, vec![42]);
            assert_eq!(m.points_scanned, 1);
        }
    }

    #[test]
    fn effective_threads_follows_the_bound_pool() {
        assert_eq!(ExecutionMode::Serial.effective_threads(), 1);
        assert!(ExecutionMode::Pooled.effective_threads() >= 1);
        assert!(available_threads() >= 1);
        let threads = WorkerPool::new(3).bind(|| ExecutionMode::Pooled.effective_threads());
        assert_eq!(threads, 3);
    }

    #[test]
    fn default_mode_is_serial() {
        assert_eq!(ExecutionMode::default_mode(), ExecutionMode::Serial);
        assert_eq!(ExecutionMode::default(), ExecutionMode::Serial);
    }
}
