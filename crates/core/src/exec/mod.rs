//! The work-partitioning substrate — the one place that knows how an
//! operator's independent work items are spread over threads.
//!
//! Every hot-path algorithm in this crate is written as a loop over
//! independent work items (outer blocks, contributing blocks, query specs,
//! the blocks a compaction gathers), and each item's output has a size the
//! caller knows before the loop runs: a kNN-join gives every outer point
//! exactly `min(k, n)` rows, a query of a batch gives one result, a block
//! gives its points. [`run_into_shares`] is the one runner: it runs such a
//! loop on the [`WorkerPool`] the calling thread is bound to
//! ([`WorkerPool::current`]). The bound pool is the only parallelism
//! setting: [`Database`](crate::plan::Database) binds its own pool around
//! every query, batch and compaction it runs, a caller that wants one
//! thread binds `WorkerPool::new(1)`, and an unbound thread falls back to
//! the global pool. Batch-level tasks
//! ([`Database::execute_batch`](crate::plan::Database::execute_batch)) and
//! the operator-level block tasks they spawn go through the **same queue**,
//! so the thread budget is one number owned by one pool and nested
//! parallelism never oversubscribes the machine.
//!
//! # Scheduling and the determinism guarantee
//!
//! The calling thread sizes one buffer and splits it into per-item shares.
//! Team members claim the next `(item, share)` pair under one lock, so one
//! expensive item cannot serialize the run the way fixed chunking would,
//! and write the item's output in place. Each member keeps its own private
//! [`Metrics`], merged once it runs out of items. Since every share sits
//! where its item's position puts it, **every pool size produces
//! byte-for-byte the same output in the same order, and the same merged
//! counters** — the pool is a performance knob, never a semantics knob —
//! because every operator's per-item work is independent of the schedule.
//! `tests/physical_plan_equivalence.rs` enforces both across all query
//! shapes, strategies and index types on pools of 1, 2 and 4 threads.
//!
//! # Memory: no worker allocation outlives its work item
//!
//! A worker thread allocates from its own malloc arena, which keeps the high
//! water mark of whatever the worker allocated and kept alive at once. The
//! output buffer is the calling thread's allocation, so a worker keeps
//! nothing past its item, and the calling thread turns the buffer into rows.
//!
//! A single item or a pool of one runs the plain serial loop before any
//! pool submission, so trivial phases pay no synchronization cost, and a
//! pool of one *is* the serial evaluation.

pub mod pool;

pub use pool::WorkerPool;

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

/// Runs `work` once per item on the current pool ([`WorkerPool::current`]),
/// each item writing into its own share of one buffer: item `i` gets the
/// `share(&items[i])` slots after the shares of the items before it. The
/// buffer — `fill` in every slot `work` leaves alone — is allocated by the
/// calling thread before the phase runs and returned in item order, which is
/// how a phase keeps what a later phase reads without a worker allocation
/// outliving its item. Every worker's metrics are merged into `metrics`.
pub fn run_into_shares<T, N, F>(
    items: &[T],
    share: impl Fn(&T) -> usize + Sync,
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
    let claims = items.iter().map(|item| {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(share(item));
        rest = tail;
        (item, mine)
    });
    let pool = WorkerPool::current();
    let threads = pool.parallelism().min(items.len());
    if threads <= 1 {
        claims.for_each(|(item, mine)| work(item, mine, metrics));
        return buffer;
    }
    let claims = Mutex::new(claims);
    let team_metrics = Mutex::new(Metrics::default());
    pool.broadcast(threads - 1, &|| {
        let mut local_metrics = Metrics::default();
        loop {
            // The claim's guard drops at the end of this statement: the
            // lock is held while a share is split off, never during `work`.
            let Some((item, mine)) = lock(&claims).next() else {
                break;
            };
            work(item, mine, &mut local_metrics);
        }
        lock(&team_metrics).merge(&local_metrics);
    });
    metrics.merge(&lock(&team_metrics));
    buffer
}

/// Locks a mutex of the partitioned run, ignoring poisoning: a panicking
/// item is re-raised on the caller, which never reads the data again.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Item `i` writes `i % 3` values — shares of zero, one and many.
    fn tiered(item: &u64, out: &mut [u64], metrics: &mut Metrics) {
        metrics.points_scanned += 1;
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = item * 2 + j as u64;
        }
    }

    #[test]
    fn serial_and_pooled_produce_identical_ordered_output() {
        let items: Vec<u64> = (0..1_000).collect();
        let want: Vec<u64> = items
            .iter()
            .flat_map(|i| (0..i % 3).map(move |j| i * 2 + j))
            .collect();
        // Explicit pools, so the fan-out is real whatever the core count.
        for parallelism in [1, 7] {
            let mut m = Metrics::default();
            let got = WorkerPool::new(parallelism)
                .bind(|| run_into_shares(&items, |i| (i % 3) as usize, 0, &mut m, tiered));
            assert_eq!(got, want, "pool of {parallelism}");
            assert_eq!(m.points_scanned, 1_000, "pool of {parallelism}");
        }
    }

    #[test]
    fn empty_input_is_fine_in_every_mode() {
        let items: Vec<u64> = Vec::new();
        for parallelism in [1, 3] {
            let mut m = Metrics::default();
            let out = WorkerPool::new(parallelism)
                .bind(|| run_into_shares(&items, |_| 1, 0u64, &mut m, tiered));
            assert!(out.is_empty());
            assert_eq!(m, Metrics::default());
        }
    }

    #[test]
    fn single_item_input_short_circuits_in_every_mode() {
        let items = [41u64];
        for parallelism in [1, 3] {
            let mut m = Metrics::default();
            let out = WorkerPool::new(parallelism).bind(|| {
                run_into_shares(
                    &items,
                    |_| 1,
                    0,
                    &mut m,
                    |item, out, m| {
                        m.points_scanned += 1;
                        out[0] = item + 1;
                    },
                )
            });
            assert_eq!(out, vec![42]);
            assert_eq!(m.points_scanned, 1);
        }
    }

    /// One team member's first item finishes last: it holds its thread until
    /// every other item is done, while the rest of the team claims and fills
    /// every later share. Either way the output comes back in item order
    /// with the serial counters.
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
            let work = |item: &u64, out: &mut [u64], metrics: &mut Metrics| {
                let on_caller = std::thread::current().id() == caller;
                if on_caller == caller_holds && held.fetch_add(1, Ordering::SeqCst) == 0 {
                    wait_until(&|| done.load(Ordering::SeqCst) == items.len() - 1);
                } else if on_caller {
                    // Let a worker take (and hold) an item first.
                    wait_until(&|| held.load(Ordering::SeqCst) > 0);
                }
                metrics.points_scanned += item;
                out.fill(*item);
                done.fetch_add(1, Ordering::SeqCst);
            };
            let serial: Vec<u64> = items.iter().flat_map(|i| [*i; 3]).collect();
            for parallelism in [2, 4] {
                done.store(0, Ordering::SeqCst);
                held.store(0, Ordering::SeqCst);
                let mut m = Metrics::default();
                let pooled = WorkerPool::new(parallelism)
                    .bind(|| run_into_shares(&items, |_| 3, 0, &mut m, work));
                let ctx = format!("pool of {parallelism}, caller holds: {caller_holds}");
                assert_eq!(done.load(Ordering::SeqCst), items.len(), "{ctx}");
                assert_eq!(serial, pooled, "{ctx}");
                assert_eq!(m.points_scanned, items.iter().sum::<u64>(), "{ctx}");
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
