//! Structured `EXPLAIN` / `EXPLAIN ANALYZE` output.
//!
//! [`PlanExplain`] captures the whole decision chain for one query — the
//! parsed AST, the logical plan, the filter-placement rewrites, the
//! optimizer's chosen [`Strategy`], and the compiled [`PhysicalPlan`]'s
//! operator tree (its algorithm, under a `residual-filter` root when the
//! query has post-kNN filters) — as a structured value tests can assert on,
//! with an indented text rendering for humans. [`AnalyzedQuery`] pairs it
//! with the executed [`OpTrace`], annotating every operator with wall time,
//! rows, and counter deltas.

use std::fmt;

use crate::obs::trace::OpTrace;
use crate::plan::executor::QueryResult;
use crate::plan::physical::{PhysicalPlan, RowSchema};
use crate::plan::strategy::Strategy;

/// One operator of the compiled physical plan, structurally.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// The operator's name: the algorithm's (e.g. `"block-marking"`) or
    /// `"residual-filter"`.
    pub name: &'static str,
    /// The strategy the operator implements.
    pub strategy: Strategy,
    /// The row type the operator produces.
    pub schema: RowSchema,
    /// Operator-specific parameters (`k=…`, roles, …); empty when none.
    pub detail: String,
    /// Nested input operators.
    pub children: Vec<OpNode>,
}

impl OpNode {
    /// Captures a compiled plan's operator tree: the algorithm's node,
    /// under a `residual-filter` root when the plan has post-kNN filters.
    pub fn from_plan(plan: &PhysicalPlan) -> OpNode {
        let node = |name, detail, children| OpNode {
            name,
            strategy: plan.strategy(),
            schema: plan.schema(),
            detail,
            children,
        };
        let algorithm = node(plan.algorithm_name(), plan.algorithm_detail(), Vec::new());
        if plan.is_post_filtered() {
            node(plan.name(), plan.detail(), vec![algorithm])
        } else {
            algorithm
        }
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] -> {:?}",
            self.name, self.strategy, self.schema
        ));
        if !self.detail.is_empty() {
            out.push_str(&format!(" ({})", self.detail));
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// Total number of operators in the tree (this node included).
    pub fn num_ops(&self) -> usize {
        1 + self.children.iter().map(OpNode::num_ops).sum::<usize>()
    }
}

/// The full decision chain for one query, from text to physical plan.
///
/// Produced by [`crate::plan::Database::explain`] (textual queries — all
/// fields populated) and [`crate::plan::Database::explain_spec`]
/// (pre-built [`crate::plan::QuerySpec`]s — no AST/logical stage).
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// The original query text, when the query came through the parser.
    pub query: Option<String>,
    /// The parsed AST, pretty-printed by the front-end.
    pub ast: Option<String>,
    /// The lowered [`crate::plan::QuerySpec`] in its algebraic notation
    /// (kNN predicates + filters), as its `Display` prints it.
    pub logical: Option<String>,
    /// The filter-placement rewrites applied, one human-readable line each
    /// (pre-kNN pushdowns and post-kNN residuals).
    pub rewrites: Vec<String>,
    /// The strategy the optimizer chose.
    pub strategy: Strategy,
    /// The compiled physical operator tree.
    pub root: OpNode,
}

impl PlanExplain {
    /// Renders the decision chain as an indented text tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(query) = &self.query {
            out.push_str(&format!("query:    {query}\n"));
        }
        if let Some(ast) = &self.ast {
            out.push_str(&format!("ast:      {ast}\n"));
        }
        if let Some(logical) = &self.logical {
            out.push_str(&format!("logical:  {logical}\n"));
        }
        for rewrite in &self.rewrites {
            out.push_str(&format!("rewrite:  {rewrite}\n"));
        }
        out.push_str(&format!("strategy: {}\n", self.strategy));
        out.push_str("plan:\n");
        self.root.render_into(&mut out, 1);
        out
    }
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

/// An `EXPLAIN ANALYZE` result: the plan, its executed trace, and the
/// query result itself.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// The decision chain (as [`crate::plan::Database::explain`] reports).
    pub explain: PlanExplain,
    /// The executed per-operator trace; `trace.inclusive` reconciles
    /// exactly with `result.metrics()`.
    pub trace: OpTrace,
    /// The rows and metrics the execution produced.
    pub result: QueryResult,
}

impl AnalyzedQuery {
    /// Renders the decision chain followed by the annotated executed tree.
    pub fn render(&self) -> String {
        let mut out = self.explain.render();
        out.push_str("executed:\n");
        for line in self.trace.render().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for AnalyzedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}
