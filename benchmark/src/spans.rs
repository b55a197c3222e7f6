//! In-memory spans recorded around calls into the engine's public
//! functions. The engine itself is not instrumented: every span here starts
//! and ends in the benchmark's own code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval. `parent` is the span that was open when this one
/// started; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotal {
    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }

    /// Mean duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// Records spans on one thread; a stack of open spans supplies parents.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span that takes no children from `f` (the closure
    /// cannot reach the tracer).
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let result = f();
        self.exit(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the span `id` in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let self_ns = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
    }
    totals
}

/// Writes the spans of the first `ops` operations recorded (and every span
/// outside an operation) as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span], ops: u64) -> std::io::Result<()> {
    use crate::json::Value;
    let first = spans.iter().map(|s| s.op).min().unwrap_or(0);
    let op_limit = first.saturating_add(ops);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        if span.op >= op_limit && span.op != NO_OP {
            continue;
        }
        let line = Value::obj([
            ("id", Value::Num(id as f64)),
            ("name", Value::Str(span.name.to_string())),
            ("start_ns", Value::Num(span.start_ns as f64)),
            ("end_ns", Value::Num(span.end_ns as f64)),
            (
                "parent",
                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            ),
            (
                "op",
                if span.op == NO_OP {
                    Value::Null
                } else {
                    Value::Num(span.op as f64)
                },
            ),
        ]);
        writeln!(out, "{}", line.compact())?;
    }
    out.flush()
}

/// The `op` of spans that belong to no operation (set-up, checkpoints).
pub const NO_OP: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ c [50,90]
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(1), 20, 30),
            span("c", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 30);
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(
            all_self, 100,
            "self times of a tree sum to the root's duration"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        // Children [10,60] and [40,80] overlap on [40,60]; [90,130] overhangs
        // the parent's end and is clipped to [90,100].
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 60),
            span("y", Some(0), 40, 80),
            span("z", Some(0), 90, 130),
        ];
        // Covered: [10,80] ∪ [90,100] = 80 → self 20.
        assert_eq!(self_times_ns(&spans)[0], 20);
        // A child identical to its parent leaves no self time.
        let same = vec![span("p", None, 5, 9), span("q", Some(0), 5, 9)];
        assert_eq!(self_times_ns(&same), vec![0, 4]);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let mut t = Tracer::new();
        let op = t.enter("op", 7);
        t.leaf("stage1", 7, || std::hint::black_box(1 + 1));
        let inner = t.enter("stage2", 7);
        t.leaf("kernel", 7, || ());
        t.exit(inner);
        t.exit(op);
        t.leaf("after", 8, || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(op));
        assert_eq!(s[3].parent, Some(inner));
        assert_eq!(s[4].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }
}
