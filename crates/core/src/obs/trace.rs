//! Per-operator execution traces: the data behind `EXPLAIN ANALYZE`.
//!
//! When tracing is enabled (or [`crate::plan::Database::explain_analyze`]
//! is called), [`crate::plan::PhysicalPlan::execute_traced`] records a span
//! per operator: wall time, rows emitted, and the [`Metrics`] delta its
//! subtree performed. A plan's algorithm is one span; a post-kNN filter
//! adds a `residual-filter` root over it, so the trace nests one level;
//! [`OpTrace::exclusive`] subtracts the children so each node's own work
//! is visible.

use std::fmt;
use std::time::Duration;

use twoknn_index::Metrics;

use crate::plan::strategy::Strategy;

/// One operator's execution span inside a traced query.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// The operator's name: the algorithm's (e.g. `"block-marking"`) or
    /// `"residual-filter"`.
    pub name: &'static str,
    /// The strategy the operator implements.
    pub strategy: Strategy,
    /// Rows the operator emitted (after its own pruning, if any).
    pub rows: usize,
    /// Wall time of the operator **including** its children.
    pub wall: Duration,
    /// Work counters of the operator's whole subtree — the root's
    /// `inclusive` equals the query's global [`Metrics`] delta exactly.
    pub inclusive: Metrics,
    /// Traces of nested input operators.
    pub children: Vec<OpTrace>,
}

impl OpTrace {
    /// This operator's own counter delta: `inclusive` minus the children's.
    ///
    /// Uses [`Metrics::diff`]'s saturating subtraction because
    /// `tuples_emitted` is not monotone up the tree (the residual filter
    /// *resets* it to the surviving row count); every other counter is
    /// monotone, so per-operator exclusives sum back to the root exactly.
    pub fn exclusive(&self) -> Metrics {
        let children: Metrics = self
            .children
            .iter()
            .map(|c| c.inclusive)
            .fold(Metrics::default(), |acc, m| acc + m);
        self.inclusive.diff(&children)
    }

    /// Renders the trace as an indented tree, one operator per line,
    /// annotated with wall time, rows, and the non-zero *exclusive* work
    /// counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let ex = self.exclusive();
        out.push_str(&format!(
            "{} [{}] rows={} wall={}",
            self.name,
            self.strategy,
            self.rows,
            super::histogram::fmt_nanos(self.wall.as_nanos().min(u64::MAX as u128) as u64),
        ));
        for (label, value) in [
            ("knn", ex.neighborhoods_computed),
            ("blocks", ex.blocks_scanned),
            ("blocks_pruned", ex.blocks_pruned),
            ("blocks_ordered", ex.blocks_ordered),
            ("pts", ex.points_scanned),
            ("pts_pruned", ex.points_pruned),
            ("dist", ex.distance_computations),
            ("shards", ex.shards_scanned),
            ("shards_pruned", ex.shards_pruned),
        ] {
            if value > 0 {
                out.push_str(&format!(" {label}={value}"));
            }
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// Total number of operators in this trace (the node itself included).
    pub fn num_ops(&self) -> usize {
        1 + self.children.iter().map(OpTrace::num_ops).sum::<usize>()
    }
}

impl fmt::Display for OpTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// One retained traced execution: a labelled [`OpTrace`] tree.
///
/// With tracing enabled ([`crate::plan::Database::set_tracing`]), every
/// executed query pushes one
/// of these into a bounded buffer the caller drains with
/// [`crate::plan::Database::drain_traces`]. Labels identify the source:
/// `"query"` for ad-hoc execution, `"batch[i]"` for batch members,
/// `"cq sub#N"` for standing-query re-evaluations.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Monotone trace sequence number.
    pub seq: u64,
    /// Where the execution came from.
    pub label: String,
    /// The root operator's trace.
    pub root: OpTrace,
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace #{} ({})", self.seq, self.label)?;
        f.write_str(self.root.render().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(rows: usize, pts: u64) -> OpTrace {
        let m = Metrics {
            points_scanned: pts,
            tuples_emitted: rows as u64,
            ..Metrics::default()
        };
        OpTrace {
            name: "knn-select",
            strategy: Strategy::Select,
            rows,
            wall: Duration::from_micros(120),
            inclusive: m,
            children: Vec::new(),
        }
    }

    #[test]
    fn exclusive_subtracts_children_and_saturates() {
        let child = leaf(10, 400);
        let mut parent_metrics = child.inclusive;
        // The residual filter resets tuples_emitted *down* to 3.
        parent_metrics.tuples_emitted = 3;
        let parent = OpTrace {
            name: "residual-filter",
            strategy: Strategy::Select,
            rows: 3,
            wall: Duration::from_micros(150),
            inclusive: parent_metrics,
            children: vec![child],
        };
        let ex = parent.exclusive();
        assert_eq!(ex.points_scanned, 0, "all scan work was the child's");
        assert_eq!(ex.tuples_emitted, 0, "non-monotone counter saturates");
        assert_eq!(parent.num_ops(), 2);
        let rendered = parent.render();
        assert!(rendered.starts_with("residual-filter"));
        assert!(rendered.contains("\n  knn-select"), "child is indented");
        assert!(rendered.contains("rows=3"));
        // The child line carries the scan work.
        assert!(rendered.contains("pts=400"));
    }

    #[test]
    fn query_trace_displays_label_and_tree() {
        let t = QueryTrace {
            seq: 7,
            label: "batch[3]".into(),
            root: leaf(5, 90),
        };
        let s = t.to_string();
        assert!(s.contains("trace #7 (batch[3])"));
        assert!(s.contains("knn-select"));
    }
}
