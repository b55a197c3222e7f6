//! The work-partitioning substrate — the one place that knows how an
//! operator's independent work items are spread over threads.
//!
//! Every hot-path algorithm in this crate is written as a loop over
//! independent work items (outer blocks, contributing blocks, query specs).
//! [`run_into_shares`] runs such a loop on the [`WorkerPool`] the calling
//! thread is bound to ([`WorkerPool::current`]), and [`run_partitioned`]
//! runs one on an explicit pool. The bound pool is the only parallelism
//! setting: [`Database`](crate::plan::Database) binds its own pool around
//! every query it runs, a caller that wants one thread binds
//! `WorkerPool::new(1)`, and an unbound thread falls back to the global
//! pool. Batch-level tasks
//! ([`Database::execute_batch`](crate::plan::Database::execute_batch)) and
//! the operator-level block tasks they spawn go through the **same queue**,
//! so the thread budget is one number owned by one pool and nested
//! parallelism never oversubscribes the machine.
//!
//! # Scheduling and the determinism guarantee
//!
//! Pooled runs use dynamic scheduling: team members pull the next item index
//! from a shared atomic cursor, so one expensive item cannot serialize the
//! run the way fixed chunking would. Each member keeps its own private
//! [`Metrics`], merged once it runs out of items. Rows are merged **in item
//! order by the calling thread**: an item whose predecessors are all merged
//! writes straight into the output, any other leaves its rows in a slot of
//! its own, and the caller appends (and frees) each slot as soon as every
//! item before it is merged. **Every pool size produces byte-for-byte
//! the same rows in the same order, and the same merged counters** — the
//! pool is a performance knob, never a semantics knob — because every
//! operator's per-item work is independent of the schedule.
//! `tests/physical_plan_equivalence.rs` enforces both across all query
//! shapes, strategies and index types on pools of 1, 2 and 4 threads.
//!
//! # Memory: no worker allocation outlives its work item
//!
//! A worker thread allocates from its own malloc arena, which keeps the high
//! water mark of whatever the worker allocated and kept alive at once —
//! rows waiting for the merge behind a slow item included. So every join
//! phase runs through [`run_into_shares`]: each item writes into its share
//! of one buffer the calling thread allocates and sizes before the phase
//! runs (a neighborhood has exactly `min(k, n)` members, and a filtered row
//! set has a bound), and the calling thread turns the buffer into rows. The
//! in-order merge of [`run_partitioned`] serves the callers whose output
//! size is unknown up front: whole queries of a batch and store rebuilds.
//!
//! Single-item inputs and pools of one short-circuit to the plain serial
//! loop before any pool submission, so trivial phases pay no
//! synchronization cost, and a pool of one *is* the serial evaluation.

pub mod pool;

pub use pool::WorkerPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use twoknn_index::Metrics;

/// The argument of [`PhysicalPlan::execute`](crate::plan::PhysicalPlan::execute)
/// and [`PhysicalPlan::execute_traced`](crate::plan::PhysicalPlan::execute_traced),
/// which both ignore it: how a plan's work items spread is decided by the
/// pool the calling thread is bound to. It stays only so the `benchmark`
/// package, which calls `plan.execute(ExecutionMode::default_mode())`,
/// keeps compiling.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionMode;

impl ExecutionMode {
    /// The only value.
    pub fn default_mode() -> Self {
        ExecutionMode
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

/// Runs `work` once per item, partitioned over `pool` (its full
/// parallelism, clamped by the item count) — the entry point behind
/// [`Database::execute_batch`](crate::plan::Database::execute_batch) and
/// store rebuilds.
///
/// `work` receives the item, an output vector to push result rows into, and a
/// metrics accumulator. Outputs are concatenated **in item order** regardless
/// of the schedule, and every worker's metrics are merged into `metrics`, so
/// every pool size reports identical rows and identical work counters (for
/// algorithms whose per-item work is schedule-independent). A single item,
/// or a pool of one, runs the plain serial loop — no pool submission, no
/// per-item slots.
pub fn run_partitioned<T, R, F>(
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
        // Serial short-circuit, but still bound to `pool`: nested runs
        // inside `work` must budget against this pool, not drift to the
        // global one.
        return pool.bind(|| run_serial(items, metrics, &work));
    }
    run_pooled(items, pool, threads, metrics, &work)
}

/// Runs `work` once per item on the current pool ([`WorkerPool::current`]),
/// each item writing into its own share of one buffer: item `i` gets the
/// `share(&items[i])` slots after the shares of the items before it. The
/// buffer — `fill` in every slot `work` leaves alone — is allocated by the
/// calling thread before the phase runs and returned in item order, which is
/// how a phase keeps what a later phase reads without a worker allocation
/// outliving its item.
pub fn run_into_shares<T, N, F>(
    items: &[T],
    share: impl Fn(&T) -> usize,
    fill: N,
    metrics: &mut Metrics,
    work: F,
) -> Vec<N>
where
    T: Sync,
    N: Clone + Send,
    F: Fn(&T, &mut [N], &mut Metrics) + Sync,
{
    let mut buffer = vec![fill; items.iter().map(&share).sum()];
    let mut rest = buffer.as_mut_slice();
    let shares: Vec<(&T, Mutex<&mut [N]>)> = items
        .iter()
        .map(|item| {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(share(item));
            rest = tail;
            (item, Mutex::new(mine))
        })
        .collect();
    run_partitioned(
        &shares,
        &WorkerPool::current(),
        metrics,
        |(item, mine), _: &mut Vec<()>, metrics| work(item, &mut lock(mine), metrics),
    );
    buffer
}

/// Locks a mutex of the partitioned run, ignoring poisoning: a panicking
/// item is re-raised on the caller, which never reads the data again.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// The calling thread's side of a pooled run: the rows merged so far and
/// the first item not yet merged.
struct Merged<R> {
    rows: Vec<R>,
    next: usize,
}

impl<R> Merged<R> {
    /// Appends every finished item that directly follows the merged ones,
    /// freeing its slot's rows as it goes.
    fn drain(&mut self, slots: &[Mutex<Option<Vec<R>>>]) {
        while let Some(mut piece) = slots.get(self.next).and_then(|slot| lock(slot).take()) {
            self.rows.append(&mut piece);
            self.next += 1;
        }
    }
}

/// Dynamic-scheduled partitioned run on a persistent [`WorkerPool`]:
/// `threads − 1` copies of the cursor-pulling task are broadcast to the pool
/// and the calling thread joins as the final team member. The calling
/// thread merges rows in item order as they become ready (see the module
/// docs); per-member metrics are merged when a member runs out of items.
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
    let caller = std::thread::current().id();
    let cursor = AtomicUsize::new(0);
    // Rows of an item finished before its predecessors were merged.
    let slots: Vec<Mutex<Option<Vec<R>>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Only the calling thread ever locks it.
    let merged = Mutex::new(Merged {
        rows: Vec::new(),
        next: 0,
    });
    let team_metrics = Mutex::new(Metrics::default());
    pool.broadcast(threads - 1, &|| {
        let mut local_metrics = Metrics::default();
        let mut merged = (std::thread::current().id() == caller).then(|| lock(&merged));
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            if let Some(merged) = merged.as_mut() {
                merged.drain(&slots);
                if merged.next == i {
                    work(&items[i], &mut merged.rows, &mut local_metrics);
                    merged.next += 1;
                    continue;
                }
            }
            let mut piece = Vec::new();
            work(&items[i], &mut piece, &mut local_metrics);
            *lock(&slots[i]) = Some(piece);
        }
        lock(&team_metrics).merge(&local_metrics);
    });
    metrics.merge(&lock(&team_metrics));
    let mut merged = merged.into_inner().unwrap_or_else(PoisonError::into_inner);
    merged.drain(&slots);
    debug_assert_eq!(merged.next, items.len(), "every item merged");
    merged.rows
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
        let serial = run_partitioned(&items, &WorkerPool::new(1), &mut m_serial, work);
        assert_eq!(m_serial.points_scanned, 1_000);
        // An explicit pool, so the fan-out is real whatever the core count.
        let mut m_pool = Metrics::default();
        let pooled = run_partitioned(&items, &WorkerPool::new(7), &mut m_pool, work);
        assert_eq!(serial, pooled);
        assert_eq!(m_serial, m_pool);
    }

    #[test]
    fn empty_input_is_fine_in_every_mode() {
        let items: Vec<u64> = Vec::new();
        for parallelism in [1, 3] {
            let mut m = Metrics::default();
            let pool = WorkerPool::new(parallelism);
            let out = run_partitioned(&items, &pool, &mut m, |_, _out: &mut Vec<u64>, _| {});
            assert!(out.is_empty());
        }
    }

    #[test]
    fn single_item_input_short_circuits_in_every_mode() {
        let items = [41u64];
        for parallelism in [1, 3] {
            let mut m = Metrics::default();
            let pool = WorkerPool::new(parallelism);
            let out = run_partitioned(&items, &pool, &mut m, |item, out, m| {
                m.points_scanned += 1;
                out.push(item + 1);
            });
            assert_eq!(out, vec![42]);
            assert_eq!(m.points_scanned, 1);
        }
    }

    /// One team member's first item finishes last: it holds its thread until
    /// every other item is done. When the calling thread holds, the items
    /// after it wait in their slots until the final drain; when a worker
    /// holds, the calling thread runs ahead, parking its own rows in slots.
    /// Either way the rows come back in item order with the serial counters.
    #[test]
    fn rows_merge_in_item_order_when_one_item_finishes_last() {
        let items: Vec<u64> = (0..64).collect();
        let caller = std::thread::current().id();
        let wait_until = |ready: &dyn Fn() -> bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !ready() && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        for caller_holds in [true, false] {
            let (done, held) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let work = |item: &u64, out: &mut Vec<u64>, metrics: &mut Metrics| {
                let on_caller = std::thread::current().id() == caller;
                if on_caller == caller_holds && held.fetch_add(1, Ordering::SeqCst) == 0 {
                    wait_until(&|| done.load(Ordering::SeqCst) == items.len() - 1);
                } else if on_caller {
                    // Let a worker take (and hold) an item first.
                    wait_until(&|| held.load(Ordering::SeqCst) > 0);
                }
                metrics.points_scanned += item;
                out.extend([*item; 3]);
                done.fetch_add(1, Ordering::SeqCst);
            };
            let mut m_serial = Metrics::default();
            let serial: Vec<u64> = items.iter().flat_map(|i| [*i; 3]).collect();
            m_serial.points_scanned = items.iter().sum();
            for parallelism in [2, 4] {
                done.store(0, Ordering::SeqCst);
                held.store(0, Ordering::SeqCst);
                let mut m_pool = Metrics::default();
                let pool = WorkerPool::new(parallelism);
                let pooled = run_partitioned(&items, &pool, &mut m_pool, work);
                let ctx = format!("pool of {parallelism}, caller holds: {caller_holds}");
                assert_eq!(done.load(Ordering::SeqCst), items.len(), "{ctx}");
                assert_eq!(serial, pooled, "{ctx}");
                assert_eq!(m_serial, m_pool, "{ctx}");
            }
        }
    }

    /// Each item fills exactly its own share of the caller's buffer, in
    /// item order, on pools of one and three.
    #[test]
    fn shares_are_disjoint_and_in_item_order() {
        let items: Vec<usize> = (0..40).map(|i| i % 5).collect();
        let fill_share = |len: &usize, share: &mut [(usize, usize)], metrics: &mut Metrics| {
            metrics.neighborhoods_computed += 1;
            for (j, slot) in share.iter_mut().enumerate() {
                *slot = (*len, j);
            }
        };
        let want: Vec<(usize, usize)> = items
            .iter()
            .flat_map(|&len| (0..len).map(move |j| (len, j)))
            .collect();
        for parallelism in [1, 3] {
            let mut m = Metrics::default();
            let got = WorkerPool::new(parallelism)
                .bind(|| run_into_shares(&items, |len| *len, (9, 9), &mut m, fill_share));
            assert_eq!(got, want, "pool of {parallelism}");
            assert_eq!(m.neighborhoods_computed, items.len() as u64);
        }
    }

    #[test]
    fn available_threads_is_at_least_one() {
        assert!(available_threads() >= 1);
    }
}
