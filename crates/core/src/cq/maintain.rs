//! The continuous-query engine: subscription lifecycle and incremental
//! maintenance over publishes.
//!
//! # Concurrency model
//!
//! * **Publishes** ([`CqEngine::on_publish`], called from
//!   [`Database::ingest`](crate::plan::Database::ingest) after the store
//!   swapped the new snapshot in) probe the guard registry on the writer's
//!   thread — cheap: O(write positions × cell occupancy) — and only
//!   *schedule* re-evaluations, as detached [`WorkerPool`] jobs.
//! * **Re-evaluations** serialize per subscription on its state mutex and
//!   **coalesce** under an epoch pair (`scheduled`/`applied`): a burst of
//!   publishes queues a burst of jobs, but each job that finds its target
//!   epoch already applied returns immediately, so the burst costs one
//!   re-evaluation plus cheap no-ops. Re-evaluations pin the *current*
//!   relation versions (not the triggering publish's), which is what makes
//!   coalescing sound — a later evaluation always covers earlier publishes.
//! * **Stale-guard closure**: between a publish that affects a subscription
//!   and the re-evaluation that refreshes its guards, the registered guards
//!   may under-approximate (e.g. a removed select member grows the focal
//!   circle). Any publish arriving in that window sees the subscription in
//!   the engine's *dirty set* and re-evaluates it unconditionally instead
//!   of trusting the stale guard. Scheduling (epoch bump + dirty insert)
//!   and the fresh-guard install + dirty clear both happen under the
//!   engine lock, so the window is closed exactly — and the publish path
//!   stays O(writes × cell occupancy + dirty), never O(subscriptions).
//! * **Lock order** is subscription-state → engine-state; the engine lock
//!   is never held while taking a subscription lock.
//!
//! A re-evaluation diffs the fresh rows against the last emitted state by
//! row id-tuple and appends a [`ResultDelta`] only when something changed;
//! [`Database::poll`](crate::plan::Database::poll) drains the queue.
//!
//! Re-evaluations run the plain kNN entry points, so every query a worker
//! (or the inline path) executes shares that thread's
//! [`ScratchSpace`](twoknn_index::ScratchSpace) via
//! [`with_thread_scratch`](twoknn_index::with_thread_scratch) — a publish
//! burst's worth of re-evaluations re-allocates no per-query kNN state.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use twoknn_geometry::Point;
use twoknn_index::Metrics;

use crate::error::QueryError;
use crate::exec::{ExecutionMode, WorkerPool};
use crate::obs::{EventKind, HistogramKind};
use crate::plan::executor::QuerySpec;
use crate::plan::physical::compile;
use crate::plan::strategy::Strategy;
use crate::plan::Row;
use crate::store::{IngestReceipt, RelationStore, WriteOp};

use super::guard::compute_guards;
use super::registry::GuardRegistry;
use super::{ResultDelta, SubscriptionId};

/// A row's identity: its component point ids, padded with `u64::MAX`.
/// Deltas are keyed by this — a retained row whose points merely moved is
/// not re-reported.
type RowKey = [u64; 3];

fn row_key(row: &Row) -> RowKey {
    let mut key = [u64::MAX; 3];
    for (slot, id) in key.iter_mut().zip(row.ids()) {
        *slot = id;
    }
    key
}

/// One standing query.
struct Subscription {
    id: SubscriptionId,
    spec: QuerySpec,
    /// The physical strategy pinned at subscribe time (explicit or
    /// optimizer-chosen); every re-evaluation compiles with it.
    strategy: Strategy,
    /// Maintenance epochs: `scheduled` counts re-evaluations requested
    /// (bumped only under the engine lock), `applied` the epoch the last
    /// completed re-evaluation covered. `scheduled > applied` ⇔ a
    /// re-evaluation is pending or in flight (mirrored in the engine's
    /// dirty set, which is what the publish path consults).
    scheduled: AtomicU64,
    applied: AtomicU64,
    state: Mutex<SubState>,
}

/// The mutable per-subscription state, serialized by its mutex.
struct SubState {
    /// Current result, keyed by row identity (sorted for determinism).
    rows: BTreeMap<RowKey, Row>,
    /// Deltas emitted and not yet polled.
    pending: Vec<ResultDelta>,
    /// Highest version the result reflects (monotone).
    version: u64,
}

/// Registry + subscription table, guarded by the engine mutex.
struct EngineState {
    registry: GuardRegistry,
    subs: HashMap<SubscriptionId, Arc<Subscription>>,
    /// Subscriptions with a pending or in-flight re-evaluation — their
    /// registered guards may be stale, so the publish path re-evaluates
    /// them unconditionally instead of scanning every subscription's
    /// epochs. Kept in lockstep with the epoch pair under this mutex.
    dirty: BTreeSet<SubscriptionId>,
}

/// The engine behind [`Database`](crate::plan::Database)'s continuous-query
/// API. Created lazily on first use; shares the store's metrics record and
/// the database's worker pool.
pub(crate) struct CqEngine {
    store: Arc<RelationStore>,
    pool: Arc<WorkerPool>,
    metrics: Arc<Mutex<Metrics>>,
    state: Mutex<EngineState>,
    next_id: AtomicU64,
}

impl CqEngine {
    pub(crate) fn new(
        store: Arc<RelationStore>,
        pool: Arc<WorkerPool>,
        metrics: Arc<Mutex<Metrics>>,
    ) -> Self {
        Self {
            store,
            pool,
            metrics,
            state: Mutex::new(EngineState {
                registry: GuardRegistry::default(),
                subs: HashMap::new(),
                dirty: BTreeSet::new(),
            }),
            next_id: AtomicU64::new(0),
        }
    }

    /// Number of registered subscriptions.
    pub(crate) fn len(&self) -> usize {
        self.lock_state().subs.len()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn find(&self, id: SubscriptionId) -> Result<Arc<Subscription>, QueryError> {
        self.lock_state()
            .subs
            .get(&id)
            .cloned()
            .ok_or(QueryError::UnknownSubscription { id: id.0 })
    }

    /// Registers a standing query: evaluates it once against the current
    /// snapshot, installs its guards, and emits the initial result as the
    /// first delta.
    pub(crate) fn subscribe(
        self: &Arc<Self>,
        spec: QuerySpec,
        strategy: Strategy,
    ) -> Result<SubscriptionId, QueryError> {
        let snapshot = self.store.pin_many(spec.role_names())?;
        let pinned_versions = snapshot.versions();
        let plan = compile(&snapshot, &spec, strategy)?;
        let result = self.pool.bind(|| plan.execute(ExecutionMode));
        let rows = result.rows();
        let mut work = result.metrics();
        let guards = compute_guards(&spec, &snapshot, &rows, &mut work)?;
        let version = pinned_versions.iter().map(|(_, v)| *v).max().unwrap_or(0);

        let id = SubscriptionId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let mut initial = Vec::new();
        if !rows.is_empty() {
            initial.push(ResultDelta {
                added: rows.clone(),
                removed: Vec::new(),
                version,
            });
        }
        let sub = Arc::new(Subscription {
            id,
            spec,
            strategy,
            scheduled: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            state: Mutex::new(SubState {
                rows: rows.iter().map(|r| (row_key(r), *r)).collect(),
                pending: initial,
                version,
            }),
        });
        {
            let mut st = self.lock_state();
            st.subs.insert(id, Arc::clone(&sub));
            st.registry.install(id, guards);
        }
        self.merge_metrics(&work);

        // Close the subscribe/ingest race: a publish that landed between
        // our pin and the registry install was never probed against these
        // guards — if any referenced relation moved past the pinned
        // version, re-evaluate once to catch up.
        let advanced = pinned_versions.iter().any(|(name, pinned)| {
            self.store
                .get(name)
                .map(|rel| rel.load().version() > *pinned)
                .unwrap_or(false)
        });
        if advanced {
            {
                let mut st = self.lock_state();
                Self::mark_scheduled(&mut st, &sub);
            }
            self.spawn_reevaluation(&sub);
        }
        Ok(id)
    }

    /// Drops a standing query. Pending deltas are discarded; an in-flight
    /// re-evaluation finishes against its own handles and is discarded too.
    pub(crate) fn unsubscribe(&self, id: SubscriptionId) -> Result<(), QueryError> {
        let mut st = self.lock_state();
        st.subs
            .remove(&id)
            .ok_or(QueryError::UnknownSubscription { id: id.0 })?;
        st.registry.remove(id);
        st.dirty.remove(&id);
        Ok(())
    }

    /// Drains the subscription's emitted-and-unpolled deltas, in emission
    /// order.
    pub(crate) fn poll(&self, id: SubscriptionId) -> Result<Vec<ResultDelta>, QueryError> {
        let sub = self.find(id)?;
        let mut st = sub.state.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(std::mem::take(&mut st.pending))
    }

    /// The subscription's current accumulated result (what folding every
    /// delta emitted so far — polled or not — reconstructs), sorted by row
    /// identity, plus the version it reflects.
    pub(crate) fn result(&self, id: SubscriptionId) -> Result<(Vec<Row>, u64), QueryError> {
        let sub = self.find(id)?;
        let st = sub.state.lock().unwrap_or_else(PoisonError::into_inner);
        Ok((st.rows.values().copied().collect(), st.version))
    }

    /// Reacts to one published ingest batch: probe guards, count skips,
    /// schedule re-evaluations for affected subscriptions.
    pub(crate) fn on_publish(
        self: &Arc<Self>,
        relation: &str,
        ops: &[WriteOp],
        receipt: &IngestReceipt,
    ) {
        // Effective write positions, old and new: an upsert matters where
        // the point lands *and* where it left; a remove where it was.
        // (An id upserted and removed within one batch contributes its
        // transient position through the upsert arm.)
        let mut positions: Vec<Point> = Vec::new();
        for (op, changed) in ops.iter().zip(&receipt.changed) {
            if !*changed {
                continue;
            }
            match op {
                WriteOp::Upsert(p) => {
                    positions.push(*p);
                    if let Some(old) = receipt.prev.position_of(p.id) {
                        if (old.x, old.y) != (p.x, p.y) {
                            positions.push(old);
                        }
                    }
                }
                WriteOp::Remove(id) => {
                    if let Some(old) = receipt.prev.position_of(*id) {
                        positions.push(old);
                    }
                }
            }
        }
        if positions.is_empty() {
            return;
        }

        let (to_run, skips) = {
            let mut st = self.lock_state();
            let total = st.registry.count_on(relation);
            if total == 0 {
                return;
            }
            let mut affected = st.registry.probe(relation, &positions).0;
            // Dirty subscriptions may carry stale guards — never trust a
            // skip for them. O(dirty), not O(subscriptions): quiet
            // populations cost nothing here.
            for id in &st.dirty {
                if !affected.contains(id) && st.registry.is_guarding(relation, *id) {
                    affected.insert(*id);
                }
            }
            let subs: Vec<Arc<Subscription>> = affected
                .iter()
                .filter_map(|id| st.subs.get(id).cloned())
                .collect();
            for sub in &subs {
                Self::mark_scheduled(&mut st, sub);
            }
            (subs, (total - affected.len()) as u64)
        };

        {
            let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            m.cq_reevals += to_run.len() as u64;
            m.cq_skips += skips;
        }
        // A guard-probe storm — one publish fanning out into many
        // re-evaluations — is the cq pathology worth flagging.
        if to_run.len() >= 8 {
            self.store.obs().event(
                EventKind::CqReevalStorm,
                format!(
                    "publish on `{relation}` scheduled {} re-evaluation(s)",
                    to_run.len()
                ),
            );
        }
        for sub in &to_run {
            self.spawn_reevaluation(sub);
        }
    }

    /// Schedules every subscription referencing `relation` — used when the
    /// relation is replaced wholesale (re-registration), where no per-write
    /// positions exist to probe.
    pub(crate) fn reevaluate_all_on(self: &Arc<Self>, relation: &str) {
        let to_run: Vec<Arc<Subscription>> = {
            let mut st = self.lock_state();
            let subs: Vec<Arc<Subscription>> = st
                .registry
                .all_on(relation)
                .iter()
                .filter_map(|id| st.subs.get(id).cloned())
                .collect();
            for sub in &subs {
                Self::mark_scheduled(&mut st, sub);
            }
            subs
        };
        if to_run.is_empty() {
            return;
        }
        {
            let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
            m.cq_reevals += to_run.len() as u64;
        }
        for sub in &to_run {
            self.spawn_reevaluation(sub);
        }
    }

    /// Bumps the subscription's epoch and marks it dirty. Always called
    /// under the engine lock, so the dirty set and the epoch pair move
    /// together and the publish path can trust either.
    fn mark_scheduled(st: &mut EngineState, sub: &Arc<Subscription>) {
        sub.scheduled.fetch_add(1, Ordering::AcqRel);
        st.dirty.insert(sub.id);
    }

    /// Queues the detached re-evaluation job for an already-marked
    /// subscription (inline on a parallelism-1 pool, so single-threaded
    /// setups stay deterministic).
    fn spawn_reevaluation(self: &Arc<Self>, sub: &Arc<Subscription>) {
        let engine = Arc::clone(self);
        let sub = Arc::clone(sub);
        self.pool.spawn(move || engine.reevaluate(&sub));
    }

    /// One maintenance re-evaluation: re-runs the standing query against
    /// the current snapshots, emits the id-keyed delta, refreshes guards,
    /// and advances the applied epoch.
    fn reevaluate(self: &Arc<Self>, sub: &Arc<Subscription>) {
        let mut st = sub.state.lock().unwrap_or_else(PoisonError::into_inner);
        let target = sub.scheduled.load(Ordering::Acquire);
        if sub.applied.load(Ordering::Acquire) >= target {
            return; // coalesced: an earlier job already covered this epoch
        }
        // A referenced relation may have been deregistered since: leave the
        // subscription at its last state. It stays in the dirty set, so
        // nothing ever trusts its (now meaningless) guards, and
        // re-registration schedules a fresh re-evaluation that recovers it.
        let Ok(snapshot) = self.store.pin_many(sub.spec.role_names()) else {
            return;
        };
        let Ok(plan) = compile(&snapshot, &sub.spec, sub.strategy) else {
            return;
        };
        let obs = self.store.obs();
        let start = std::time::Instant::now();
        let result = obs.run_plan(&plan, || format!("cq sub#{}", sub.id.0));
        obs.record(HistogramKind::CqReeval, start.elapsed());
        let rows = result.rows();
        let mut work = result.metrics();
        let version = snapshot
            .versions()
            .iter()
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);

        let fresh: BTreeMap<RowKey, Row> = rows.iter().map(|r| (row_key(r), *r)).collect();
        let added: Vec<Row> = fresh
            .iter()
            .filter(|(key, _)| !st.rows.contains_key(*key))
            .map(|(_, row)| *row)
            .collect();
        let removed: Vec<Row> = st
            .rows
            .iter()
            .filter(|(key, _)| !fresh.contains_key(*key))
            .map(|(_, row)| *row)
            .collect();
        if !added.is_empty() || !removed.is_empty() {
            st.pending.push(ResultDelta {
                added,
                removed,
                version,
            });
        }
        st.rows = fresh;
        st.version = version;

        // Install the fresh guards, advance the applied epoch, and clear
        // the dirty mark in ONE engine-lock section: scheduling also
        // happens under this lock, so `scheduled == target` here proves no
        // newer re-evaluation is pending and the just-installed guards are
        // safe to trust for the next publish.
        let guards = compute_guards(&sub.spec, &snapshot, &rows, &mut work).ok();
        {
            let mut est = self.lock_state();
            if let Some(guards) = guards {
                if est.subs.contains_key(&sub.id) {
                    est.registry.install(sub.id, guards);
                }
            }
            sub.applied.store(target, Ordering::Release);
            if sub.scheduled.load(Ordering::Acquire) == target {
                est.dirty.remove(&sub.id);
            }
        }
        drop(st);
        self.merge_metrics(&work);
    }

    fn merge_metrics(&self, work: &Metrics) {
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.merge(work);
    }
}

impl std::fmt::Debug for CqEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqEngine")
            .field("subscriptions", &self.len())
            .finish_non_exhaustive()
    }
}
