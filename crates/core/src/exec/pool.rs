//! A persistent, lazily-initialized worker pool — the shared execution
//! runtime behind every partitioned run
//! ([`run_into_shares`](super::run_into_shares)).
//!
//! # Why a pool
//!
//! Spawning a fresh thread team for *every operator phase* makes a
//! multi-phase plan (e.g. a chained join evaluating two joins plus an
//! intersection) or a batch of thousands of queries pay thread-creation cost
//! per phase per query (the verdict on that baseline is in CHANGES.md, PR 2).
//! [`WorkerPool`] amortizes that cost: worker threads are spawned once, on
//! first use, and every execution layer — batch-level query tasks and
//! operator-level block tasks alike — submits jobs to the **same queue**, so
//! the process-wide thread budget is a single number no matter how deeply the
//! layers nest.
//!
//! # Scheduling model
//!
//! The pool is a plain `std` construct: a `Mutex<VecDeque>` of boxed jobs
//! with a `Condvar` for parking idle workers. Work enters through
//! [`WorkerPool::broadcast`], which enqueues up to `parallelism − 1` copies
//! of a task and then **runs the task inline on the calling thread** as the
//! final team member. The caller participating has two consequences:
//!
//! * a pool of parallelism 1 has no worker threads at all — every broadcast
//!   degenerates to a plain inline call, so nested submissions can never
//!   deadlock on an empty worker set;
//! * when all workers are busy (e.g. saturated by sibling batch tasks), the
//!   caller *reclaims* its still-queued copies and runs them inline, so a
//!   nested broadcast never waits on queue slots it could serve itself.
//!
//! Together these make nesting safe by construction: a batch task that
//! submits block tasks into the same pool always makes progress on its own
//! thread, and only ever blocks on jobs that some worker is actively
//! running.
//!
//! # Panic containment
//!
//! Every job runs under `catch_unwind`. A panicking job cannot poison the
//! pool — the worker thread survives and keeps serving subsequent queries —
//! and the panic payload is re-raised on the thread that called
//! [`WorkerPool::broadcast`], so the error surfaces exactly where a scoped
//! spawn would have surfaced it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError, Weak};

/// A type-erased job queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job tagged with the scope that submitted it, so a waiting
/// scope can recognize (and reclaim) its own still-unstarted jobs.
struct QueuedJob {
    scope: Arc<ScopeState>,
    job: Job,
}

/// Queue state behind the pool mutex.
struct Queue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    queue: Mutex<Queue>,
    job_ready: Condvar,
    /// Detached ([`WorkerPool::spawn`]) jobs submitted and not yet finished.
    /// `broadcast` scopes are synchronous and never counted here.
    detached: Mutex<usize>,
    /// Signalled whenever `detached` drops to zero — what
    /// [`WorkerPool::wait_idle`] parks on.
    idle: Condvar,
}

/// Counts one detached job as in-flight for its whole lifetime. Decrements on
/// drop, so a panicking job (unwound under `catch_unwind`) still checks out.
struct DetachedToken {
    shared: Arc<PoolShared>,
}

impl DetachedToken {
    fn check_in(shared: &Arc<PoolShared>) -> Self {
        *lock_ignore_poison(&shared.detached) += 1;
        Self {
            shared: Arc::clone(shared),
        }
    }
}

impl Drop for DetachedToken {
    fn drop(&mut self) {
        let mut in_flight = lock_ignore_poison(&self.shared.detached);
        *in_flight -= 1;
        if *in_flight == 0 {
            self.shared.idle.notify_all();
        }
    }
}

/// Completion tracking for one `broadcast` call.
struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

struct ScopeSync {
    /// Jobs submitted to the queue and not yet completed (run by a worker or
    /// reclaimed and run by the submitter).
    pending: usize,
    /// First panic payload observed in a job of this scope, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ScopeState {
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut sync = lock_ignore_poison(&self.sync);
        sync.pending -= 1;
        if let Some(payload) = panic {
            sync.panic.get_or_insert(payload);
        }
        if sync.pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Locks a mutex, ignoring poisoning: jobs run under `catch_unwind`, so a
/// poisoned lock only means some *other* job panicked — the protected state
/// (a job queue / a completion counter) stays valid.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The pool a worker thread belongs to (unset on non-pool threads).
    /// Consulted by [`WorkerPool::current`] so that nested submissions from
    /// inside a pool job land in the **same** pool's queue.
    static CURRENT_POOL: RefCell<Option<Weak<WorkerPool>>> = const { RefCell::new(None) };
}

/// Restores the previous `CURRENT_POOL` binding on drop, so a caller that
/// temporarily acts as a team member of one pool does not stay associated
/// with it afterwards.
struct CurrentPoolGuard {
    previous: Option<Weak<WorkerPool>>,
}

impl CurrentPoolGuard {
    fn enter(pool: Weak<WorkerPool>) -> Self {
        let previous = CURRENT_POOL.with(|slot| slot.borrow_mut().replace(pool));
        CurrentPoolGuard { previous }
    }
}

impl Drop for CurrentPoolGuard {
    fn drop(&mut self) {
        CURRENT_POOL.with(|slot| *slot.borrow_mut() = self.previous.take());
    }
}

/// A persistent team of worker threads with a shared job queue.
///
/// See the [module docs](self) for the scheduling model. Construct explicit
/// pools with [`WorkerPool::new`] (mostly for tests and benchmarks); regular
/// execution goes through the lazily-initialized process-wide pool returned
/// by [`WorkerPool::global`].
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    parallelism: usize,
    /// Spawns the worker threads on first submission (lazy initialization:
    /// merely creating a pool — or the global handle — starts no threads).
    spawn: Once,
    /// Weak self-reference handed to worker threads for [`WorkerPool::current`].
    self_ref: Weak<WorkerPool>,
}

impl WorkerPool {
    /// Creates a pool with the given total parallelism (clamped to at least
    /// 1). A pool of parallelism `n` spawns `n − 1` worker threads — the
    /// thread calling [`WorkerPool::broadcast`] is always the `n`-th team
    /// member. Threads are spawned lazily on the first submission.
    pub fn new(parallelism: usize) -> Arc<Self> {
        Arc::new_cyclic(|self_ref| WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                job_ready: Condvar::new(),
                detached: Mutex::new(0),
                idle: Condvar::new(),
            }),
            parallelism: parallelism.max(1),
            spawn: Once::new(),
            self_ref: self_ref.clone(),
        })
    }

    /// The process-wide shared pool, created on first use with
    /// [`available_threads`](super::available_threads) parallelism (which
    /// honors the `TWOKNN_THREADS` override).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(super::available_threads()))
    }

    /// The pool the current thread should submit to: the pool this thread
    /// serves (when called from inside a pool job) or the [global
    /// pool](WorkerPool::global). This is what keeps batch-level tasks and
    /// the block-level tasks they spawn in **one** queue with one thread
    /// budget.
    pub fn current() -> Arc<WorkerPool> {
        CURRENT_POOL
            .with(|slot| slot.borrow().as_ref().and_then(Weak::upgrade))
            .unwrap_or_else(|| Arc::clone(WorkerPool::global()))
    }

    /// Total parallelism of this pool: worker threads plus the submitting
    /// caller.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs `task` with the calling thread bound to this pool, so any
    /// partitioned run `task` performs resolves [`WorkerPool::current`] to
    /// this pool rather than the global one. Binding `WorkerPool::new(1)`
    /// runs every operator inside `task` on the calling thread.
    ///
    /// [`WorkerPool::broadcast`] binds automatically; this explicit variant
    /// is how a caller chooses the pool a partitioned run goes to
    /// ([`Database`](crate::plan::Database) binds its own around every
    /// query, batch and compaction gather), and it also covers the serial
    /// loop a single item or a pool of one runs without a broadcast.
    pub fn bind<R>(&self, task: impl FnOnce() -> R) -> R {
        let _bind = CurrentPoolGuard::enter(self.self_ref.clone());
        task()
    }

    /// Runs `task` concurrently on up to `extra` pool workers *and* on the
    /// calling thread, returning once every started copy has finished.
    ///
    /// This is the pool's only submission primitive, shaped for the
    /// claiming loop of [`run_into_shares`](super::run_into_shares): every
    /// copy of `task` is identical and drains the shared item claims, so
    /// it never matters which copies actually get picked up by workers. If
    /// the workers are busy, the caller reclaims its still-queued copies and
    /// runs them inline — submission can therefore never deadlock, no matter
    /// how deeply broadcasts nest into the same pool.
    ///
    /// A panic in any copy (worker or inline) is caught, the remaining team
    /// members are still awaited, and the first panic payload is then
    /// re-raised on the calling thread. The worker threads themselves always
    /// survive.
    pub fn broadcast<F>(&self, extra: usize, task: &F)
    where
        F: Fn() + Sync,
    {
        let copies = extra.min(self.parallelism - 1);
        // The caller is bound to this pool while it acts as a team member, so
        // nested partitioned runs land in this queue even from the inline
        // portion of the team.
        let _bind = CurrentPoolGuard::enter(self.self_ref.clone());
        if copies == 0 {
            // Parallelism 1 (or nothing to fan out): a plain call, no queue
            // traffic, panics propagate natively.
            task();
            return;
        }
        self.ensure_workers();

        let scope = Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync {
                pending: copies,
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = lock_ignore_poison(&self.shared.queue);
            for _ in 0..copies {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(task);
                // SAFETY: the job borrows `task` (and whatever `task`
                // borrows from the caller's stack). `broadcast` does not
                // return — not even by unwinding, the inline call below is
                // caught — until `scope.pending` reaches zero, and every
                // queued copy either completes on a worker or is reclaimed
                // from the queue and completed inline before that counter
                // can reach zero. The borrows therefore strictly outlive
                // every execution of the erased job.
                #[allow(unsafe_code)]
                let job = unsafe { erase_job_lifetime(job) };
                queue.jobs.push_back(QueuedJob {
                    scope: Arc::clone(&scope),
                    job,
                });
            }
        }
        if copies == 1 {
            self.shared.job_ready.notify_one();
        } else {
            self.shared.job_ready.notify_all();
        }

        // The caller is the final team member: run the task inline. Catch a
        // panic so the in-flight copies are still awaited (the queued jobs
        // borrow stack data of this frame — returning early would free it
        // under them).
        let inline_panic = catch_unwind(AssertUnwindSafe(task)).err();

        // Reclaim our still-unstarted jobs: if every worker is busy with
        // other scopes, nobody else will ever pop them, and waiting for them
        // would deadlock. Running them here is equivalent — all copies are
        // identical.
        loop {
            let reclaimed = {
                let mut queue = lock_ignore_poison(&self.shared.queue);
                queue
                    .jobs
                    .iter()
                    .position(|entry| Arc::ptr_eq(&entry.scope, &scope))
                    .and_then(|at| queue.jobs.remove(at))
            };
            match reclaimed {
                Some(entry) => run_job(entry),
                None => break,
            }
        }

        // Wait for the copies some worker did pick up.
        let mut sync = lock_ignore_poison(&scope.sync);
        while sync.pending > 0 {
            sync = scope
                .done
                .wait(sync)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let job_panic = sync.panic.take();
        drop(sync);

        if let Some(payload) = inline_panic.or(job_panic) {
            resume_unwind(payload);
        }
    }

    /// Submits a detached, fire-and-forget job to the pool.
    ///
    /// Unlike [`WorkerPool::broadcast`] the caller does **not** wait for the
    /// job — it is queued for whichever worker frees up first and runs
    /// concurrently with everything else on the pool, sharing the same
    /// thread budget. This is the entry point for background maintenance
    /// work (e.g. the relation store's index rebuilds): the job typically
    /// fans its own inner work out with
    /// [`run_into_shares`](super::run_into_shares), which is safe to
    /// nest from a worker thread.
    ///
    /// Two deliberate semantic differences from `broadcast`:
    ///
    /// * on a parallelism-1 pool there are no worker threads, so the job
    ///   runs **inline on the caller** — "background" degrades to
    ///   synchronous, which keeps behavior deterministic on pinned
    ///   single-thread pools (`TWOKNN_THREADS=1`);
    /// * a panic in a detached job is caught and **discarded** (the worker
    ///   survives); jobs that must react to failure catch it themselves.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let token = DetachedToken::check_in(&self.shared);
        if self.parallelism == 1 {
            // No workers exist; bind so nested partitioned work still
            // budgets against this pool.
            let _bind = CurrentPoolGuard::enter(self.self_ref.clone());
            let _ = catch_unwind(AssertUnwindSafe(job));
            drop(token);
            return;
        }
        self.ensure_workers();
        // A detached scope: `pending` is decremented by `run_job` as usual,
        // but nobody ever waits on `done` and any panic payload is dropped
        // with the scope.
        let scope = Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync {
                pending: 1,
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = lock_ignore_poison(&self.shared.queue);
            queue.jobs.push_back(QueuedJob {
                scope,
                // The token moves into the job: it checks out when the job
                // body returns — or unwinds — on whichever worker ran it.
                job: Box::new(move || {
                    let _in_flight = token;
                    job();
                }),
            });
        }
        self.shared.job_ready.notify_one();
    }

    /// Blocks until every detached job ([`WorkerPool::spawn`]) submitted to
    /// this pool has finished — including jobs that other jobs spawn while
    /// the caller waits (the in-flight count only reaches zero once the
    /// whole cascade has drained).
    ///
    /// This is the deterministic replacement for sleep/poll loops around
    /// background compaction and continuous-query maintenance: after
    /// `wait_idle` returns, every maintenance effect scheduled so far is
    /// published. `broadcast` work is synchronous and never waited on here.
    ///
    /// Must not be called from inside a detached job of the same pool (the
    /// caller would wait for itself).
    pub fn wait_idle(&self) {
        let mut in_flight = lock_ignore_poison(&self.shared.detached);
        while *in_flight > 0 {
            in_flight = self
                .shared
                .idle
                .wait(in_flight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Number of queued jobs not yet picked up by a worker — an
    /// instantaneous observability gauge (the value may be stale by the time
    /// the caller reads it).
    pub fn queue_depth(&self) -> usize {
        lock_ignore_poison(&self.shared.queue).jobs.len()
    }

    /// Number of detached ([`WorkerPool::spawn`]) jobs currently in flight
    /// (queued or running). An instantaneous observability gauge.
    pub fn detached_in_flight(&self) -> usize {
        *lock_ignore_poison(&self.shared.detached)
    }

    /// Spawns the worker threads exactly once.
    fn ensure_workers(&self) {
        self.spawn.call_once(|| {
            for worker in 0..self.parallelism - 1 {
                let shared = Arc::clone(&self.shared);
                let pool = self.self_ref.clone();
                std::thread::Builder::new()
                    .name(format!("twoknn-pool-{worker}"))
                    .spawn(move || worker_loop(pool, &shared))
                    .expect("failed to spawn worker-pool thread");
            }
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Wake parked workers so they observe the shutdown and exit; workers
        // mid-job finish their job first (scopes hold a borrow of the pool,
        // so no scope can still be waiting when the last handle drops).
        lock_ignore_poison(&self.shared.queue).shutdown = true;
        self.shared.job_ready.notify_all();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parallelism", &self.parallelism)
            .finish_non_exhaustive()
    }
}

/// Erases the lifetime of a boxed job so it can sit in the pool's 'static
/// queue.
///
/// # Safety
///
/// The caller must guarantee the job is executed (or dropped) before any
/// data it borrows goes out of scope. [`WorkerPool::broadcast`] upholds this
/// by blocking — across panics too — until every submitted job has
/// completed.
#[allow(unsafe_code)]
unsafe fn erase_job_lifetime(job: Box<dyn FnOnce() + Send + '_>) -> Job {
    std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job)
}

/// Runs one queued job under `catch_unwind` and reports its completion (and
/// any panic payload) to the owning scope.
fn run_job(entry: QueuedJob) {
    let QueuedJob { scope, job } = entry;
    let panic = catch_unwind(AssertUnwindSafe(job)).err();
    scope.complete(panic);
}

/// The worker-thread main loop: pop a job or park until one arrives.
fn worker_loop(pool: Weak<WorkerPool>, shared: &Arc<PoolShared>) {
    // Permanently bind this thread to its pool so jobs that submit nested
    // work (a batch task running a join operator) reuse this pool's
    // queue instead of reaching for the global pool.
    CURRENT_POOL.with(|slot| *slot.borrow_mut() = Some(pool));
    loop {
        let entry = {
            let mut queue = lock_ignore_poison(&shared.queue);
            loop {
                if let Some(entry) = queue.jobs.pop_front() {
                    break entry;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::super::run_into_shares;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use twoknn_index::Metrics;

    #[test]
    fn broadcast_runs_every_team_member_to_completion() {
        let pool = WorkerPool::new(4);
        let calls = AtomicUsize::new(0);
        pool.broadcast(3, &|| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        // 3 worker copies + the inline caller.
        assert_eq!(calls.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallelism_one_pool_runs_inline_without_workers() {
        let pool = WorkerPool::new(1);
        let calls = AtomicUsize::new(0);
        pool.broadcast(16, &|| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pooled_run_matches_serial_rows_and_metrics() {
        let pool = WorkerPool::new(5);
        let items: Vec<u64> = (0..2_000).collect();
        let share = |item: &u64| if item % 5 == 0 { 2 } else { 1 };
        let work = |item: &u64, out: &mut [u64], metrics: &mut Metrics| {
            metrics.points_scanned += 1;
            out[0] = item * 3;
            if let Some(extra) = out.get_mut(1) {
                *extra = item + 1;
            }
        };
        let mut serial_metrics = Metrics::default();
        let mut serial = Vec::new();
        for item in &items {
            let mut out = vec![0; share(item)];
            work(item, &mut out, &mut serial_metrics);
            serial.extend(out);
        }
        let mut pooled_metrics = Metrics::default();
        let pooled = pool.bind(|| run_into_shares(&items, share, 0, &mut pooled_metrics, work));
        assert_eq!(serial, pooled);
        assert_eq!(serial_metrics, pooled_metrics);
    }

    /// Satellite requirement: a panic in a worker job surfaces on the caller
    /// but must not poison the pool for subsequent queries.
    #[test]
    fn panicking_job_surfaces_and_does_not_poison_the_pool() {
        let pool = WorkerPool::new(3);
        let items: Vec<u32> = (0..64).collect();

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut metrics = Metrics::default();
            pool.bind(|| {
                run_into_shares(
                    &items,
                    |_| 1,
                    0,
                    &mut metrics,
                    |item, out, _| {
                        if *item == 13 {
                            panic!("intentional test panic");
                        }
                        out[0] = *item;
                    },
                )
            })
        }));
        assert!(outcome.is_err(), "the job panic must reach the caller");

        // The same pool keeps serving work correctly afterwards.
        let mut metrics = Metrics::default();
        let rows = pool.bind(|| {
            run_into_shares(
                &items,
                |_| 1,
                0,
                &mut metrics,
                |item, out, m| {
                    m.points_scanned += 1;
                    out[0] = item * 2;
                },
            )
        });
        assert_eq!(rows, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(metrics.points_scanned, items.len() as u64);
    }

    /// Satellite requirement: nested submission — an outer (batch-level) task
    /// submitting inner (block-level) tasks into the same pool — must not
    /// deadlock even when the pool has parallelism 1 (no worker threads).
    #[test]
    fn nested_submission_does_not_deadlock_with_parallelism_one() {
        let pool = WorkerPool::new(1);
        assert_eq!(nested_batch_sum(&pool), expected_nested_sum());
    }

    /// Same nesting with a single worker thread: outer tasks occupy the
    /// worker and the caller, inner tasks must complete via reclaim.
    #[test]
    fn nested_submission_does_not_deadlock_with_one_worker() {
        let pool = WorkerPool::new(2);
        assert_eq!(nested_batch_sum(&pool), expected_nested_sum());
    }

    /// Plenty of nesting pressure on a small pool.
    #[test]
    fn nested_submission_completes_on_a_contended_pool() {
        let pool = WorkerPool::new(3);
        for _ in 0..8 {
            assert_eq!(nested_batch_sum(&pool), expected_nested_sum());
        }
    }

    /// Runs 6 "batch" tasks, each of which runs 32 "block" tasks through the
    /// same pool, and sums all block outputs.
    fn nested_batch_sum(pool: &Arc<WorkerPool>) -> u64 {
        let batches: Vec<u64> = (0..6).collect();
        let blocks: Vec<u64> = (0..32).collect();
        let mut metrics = Metrics::default();
        let per_batch = pool.bind(|| {
            run_into_shares(
                &batches,
                |_| 1,
                0,
                &mut metrics,
                |batch, out, metrics| {
                    let inner = run_into_shares(
                        &blocks,
                        |_| 1,
                        0,
                        metrics,
                        |block, out, _| {
                            out[0] = batch * 1_000 + block;
                        },
                    );
                    out[0] = inner.iter().sum::<u64>();
                },
            )
        });
        per_batch.iter().sum()
    }

    fn expected_nested_sum() -> u64 {
        (0..6u64)
            .flat_map(|batch| (0..32u64).map(move |block| batch * 1_000 + block))
            .sum()
    }

    #[test]
    fn current_resolves_to_the_serving_pool_inside_a_job() {
        let pool = WorkerPool::new(2);
        let matched = AtomicUsize::new(0);
        let expected = Arc::as_ptr(&pool) as usize;
        pool.broadcast(1, &|| {
            if Arc::as_ptr(&WorkerPool::current()) as usize == expected {
                matched.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Both the worker copy and the inline caller must resolve to `pool`.
        assert_eq!(matched.load(Ordering::SeqCst), 2);
    }

    /// Regression: a parallelism-1 bound pool short-circuits
    /// `run_into_shares` to a serial loop, but nested partitioned work
    /// inside the tasks must still budget against that pool — it must not
    /// silently drift to the global pool. A single item on a wider pool
    /// takes the same loop.
    #[test]
    fn serial_short_circuit_still_binds_the_explicit_pool() {
        for (parallelism, items) in [(1, vec![1u32, 2]), (3, vec![1])] {
            let pool = WorkerPool::new(parallelism);
            let mut metrics = Metrics::default();
            let expected = Arc::as_ptr(&pool) as usize;
            let bound = AtomicUsize::new(0);
            pool.bind(|| {
                run_into_shares(
                    &items,
                    |_| 0,
                    0u32,
                    &mut metrics,
                    |_, _, _| {
                        if Arc::as_ptr(&WorkerPool::current()) as usize == expected {
                            bound.fetch_add(1, Ordering::SeqCst);
                        }
                    },
                )
            });
            assert_eq!(bound.load(Ordering::SeqCst), items.len());
        }
    }

    #[test]
    fn spawn_runs_detached_jobs_to_completion() {
        let pool = WorkerPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Detached jobs share the queue with broadcasts; a broadcast round
        // trip guarantees workers are awake, then we wait for the stragglers.
        pool.broadcast(2, &|| {});
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::SeqCst) < 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "detached jobs did not complete"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn spawn_on_parallelism_one_runs_inline_and_contains_panics() {
        let pool = WorkerPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&ran);
        pool.spawn(move || {
            observed.fetch_add(1, Ordering::SeqCst);
        });
        // Inline on a 1-pool: completion is immediate, no waiting needed.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        // A panicking detached job must not propagate to the caller.
        pool.spawn(|| panic!("intentional detached panic"));
        let after = Arc::clone(&ran);
        pool.spawn(move || {
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn spawned_job_is_bound_to_its_pool() {
        let pool = WorkerPool::new(2);
        let expected = Arc::as_ptr(&pool) as usize;
        let matched = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&matched);
        pool.spawn(move || {
            if Arc::as_ptr(&WorkerPool::current()) as usize == expected {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while matched.load(Ordering::SeqCst) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "spawned job did not resolve its pool in time"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_idle_waits_for_every_detached_job() {
        let pool = WorkerPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..24 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 24);
        // Idempotent on an idle pool.
        pool.wait_idle();
    }

    #[test]
    fn wait_idle_covers_jobs_spawned_by_jobs() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let inner_done = Arc::clone(&done);
        let inner_pool = Arc::clone(&pool);
        pool.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            // A cascading detached job checked in while the first is still
            // in flight: wait_idle must cover it too.
            inner_pool.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                inner_done.fetch_add(1, Ordering::SeqCst);
            });
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wait_idle_survives_panicking_detached_jobs() {
        let pool = WorkerPool::new(2);
        pool.spawn(|| panic!("intentional detached panic"));
        pool.wait_idle(); // the panicked job must still check out
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        pool.spawn(move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        assert!(Arc::ptr_eq(WorkerPool::global(), WorkerPool::global()));
        assert!(WorkerPool::global().parallelism() >= 1);
    }
}
