//! Observability: plan introspection, execution tracing, and the metrics
//! registry.
//!
//! Counters ([`twoknn_index::Metrics`]) say how much work happened; this
//! module says **which plan** the optimizer chose, **where** the time went,
//! and **what** the subsystems did — in three tiers:
//!
//! 1. **Plan introspection** — [`crate::plan::Database::explain`] renders
//!    the full decision chain (parsed AST → logical plan → filter-placement
//!    rewrites → chosen [`crate::plan::Strategy`] → compiled physical
//!    operator tree) as a [`PlanExplain`] value with an indented text form.
//! 2. **Execution tracing** — [`crate::plan::Database::explain_analyze`]
//!    and opt-in tracing ([`crate::plan::Database::set_tracing`]) wrap
//!    every physical operator in a span
//!    recording wall time, rows emitted, and its
//!    [`Metrics`](twoknn_index::Metrics) counter delta,
//!    producing per-operator annotated [`OpTrace`] trees ([`QueryTrace`]s
//!    when retained for batch members and cq re-evaluations).
//! 3. **Metrics registry** — a lock-light [`MetricsRegistry`] of
//!    log2-bucketed latency histograms (query execution, batch windows,
//!    ingest publish, WAL append/fsync, compaction, checkpoint, recovery,
//!    cq re-eval), gauges for pool queue depth and per-relation state, a
//!    bounded [`EventRing`] of lifecycle events, and the exportable
//!    [`MetricsReport`] (human-readable text + line-oriented JSON) behind
//!    [`crate::plan::Database::metrics_report`].
//!
//! The registry and event ring are always on — recording a histogram sample
//! is a few relaxed atomics, and events only fire on rare lifecycle paths.
//! Per-operator **tracing** is opt-in: every store starts untraced and
//! [`crate::plan::Database::set_tracing`] is the one switch; when off, the
//! hot path performs one timestamp pair per query and allocates nothing.

mod events;
mod explain;
mod histogram;
mod report;
mod trace;

pub use events::{Event, EventKind, EventRing};
pub use explain::{AnalyzedQuery, OpNode, PlanExplain};
pub use histogram::{
    fmt_nanos, HistogramKind, HistogramSnapshot, LatencyHistogram, MetricsRegistry,
};
pub use report::{counter_fields, MetricsReport, RelationGauges};
pub use trace::{OpTrace, QueryTrace};

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::exec::ExecutionMode;
use crate::plan::executor::QueryResult;
use crate::plan::physical::PhysicalPlan;

/// Maximum retained, undrained [`QueryTrace`]s; the oldest drops first.
const TRACE_CAPACITY: usize = 64;

/// The per-store observability hub: histograms, events, retained traces.
///
/// One `Observability` lives on each [`crate::store::RelationStore`]
/// (shared by its `Database`, worker pool instrumentation, and cq engine).
/// All recording entry points are `&self` and thread-safe.
#[derive(Debug)]
pub struct Observability {
    registry: MetricsRegistry,
    events: EventRing,
    traces: Mutex<VecDeque<QueryTrace>>,
    trace_enabled: AtomicBool,
    trace_seq: AtomicU64,
}

/// The hub of a new store: tracing off, nothing recorded.
impl Default for Observability {
    fn default() -> Self {
        Self {
            registry: MetricsRegistry::default(),
            events: EventRing::default(),
            traces: Mutex::new(VecDeque::new()),
            trace_enabled: AtomicBool::new(false),
            trace_seq: AtomicU64::new(0),
        }
    }
}

impl Observability {
    /// Records one latency sample. Lock-free and allocation-free.
    pub fn record(&self, kind: HistogramKind, duration: Duration) {
        self.registry.record(kind, duration);
    }

    /// A snapshot of one latency histogram.
    pub fn histogram(&self, kind: HistogramKind) -> HistogramSnapshot {
        self.registry.snapshot(kind)
    }

    /// Snapshots of every latency histogram, in [`HistogramKind::ALL`]
    /// order.
    pub fn histograms(&self) -> Vec<(HistogramKind, HistogramSnapshot)> {
        self.registry.snapshots()
    }

    /// Records a lifecycle event into the bounded ring.
    pub fn event(&self, kind: EventKind, detail: String) {
        self.events.record(kind, detail);
    }

    /// Removes and returns every pending lifecycle event, oldest first.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events.drain()
    }

    /// Number of pending (recorded but undrained) lifecycle events.
    pub fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// Whether per-operator tracing is currently on.
    pub fn trace_enabled(&self) -> bool {
        self.trace_enabled.load(Ordering::Relaxed)
    }

    /// Turns per-operator tracing on or off at runtime.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.trace_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Retains one traced execution (bounded: the oldest undrained trace
    /// drops first). Callers check [`Observability::trace_enabled`] before
    /// building the trace, so a disabled hub never reaches here.
    pub fn push_trace(&self, label: String, root: OpTrace) {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let mut traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        if traces.len() == TRACE_CAPACITY {
            traces.pop_front();
        }
        traces.push_back(QueryTrace { seq, label, root });
    }

    /// Executes a compiled plan, traced and retained under `label` when
    /// tracing is on, plain otherwise. The label closure only runs (and
    /// allocates) on the traced path.
    pub(crate) fn run_plan(
        &self,
        plan: &PhysicalPlan,
        label: impl FnOnce() -> String,
    ) -> QueryResult {
        if !self.trace_enabled() {
            return plan.execute(ExecutionMode);
        }
        let (result, trace) = plan.execute_traced(ExecutionMode);
        self.push_trace(label(), trace);
        result
    }

    /// Removes and returns every retained trace, oldest first.
    pub fn drain_traces(&self) -> Vec<QueryTrace> {
        self.traces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::strategy::Strategy;

    fn trace() -> OpTrace {
        OpTrace {
            name: "knn-select",
            strategy: Strategy::Select,
            rows: 3,
            wall: Duration::from_micros(10),
            inclusive: twoknn_index::Metrics::default(),
            children: Vec::new(),
        }
    }

    #[test]
    fn tracing_toggles_and_traces_are_bounded() {
        let obs = Observability::default();
        assert!(!obs.trace_enabled());
        obs.set_trace_enabled(true);
        assert!(obs.trace_enabled());
        for i in 0..=TRACE_CAPACITY {
            obs.push_trace(format!("q{i}"), trace());
        }
        let drained = obs.drain_traces();
        assert_eq!(
            drained.len(),
            TRACE_CAPACITY,
            "capacity bound drops the oldest"
        );
        assert_eq!(drained[0].label, "q1");
        assert_eq!(drained[1].seq, drained[0].seq + 1);
        assert!(obs.drain_traces().is_empty());
    }

    #[test]
    fn histograms_and_events_flow_through_the_hub() {
        let obs = Observability::default();
        obs.record(HistogramKind::Checkpoint, Duration::from_millis(2));
        assert_eq!(obs.histogram(HistogramKind::Checkpoint).count, 1);
        obs.event(EventKind::Checkpoint, "2 shards spilled".into());
        assert_eq!(obs.events_pending(), 1);
        let events = obs.drain_events();
        assert_eq!(events[0].kind, EventKind::Checkpoint);
        assert_eq!(obs.events_pending(), 0);
    }
}
