//! The exportable metrics report: counters, histograms, gauges, events.
//!
//! [`MetricsReport`] is a point-in-time snapshot of everything the engine
//! knows about itself: the cumulative [`Metrics`] counters, every latency
//! histogram's percentiles, the worker-pool gauges, and per-relation
//! shard/version state. It renders as human-readable text ([`fmt::Display`])
//! and as line-oriented JSON ([`MetricsReport::to_json_lines`]) — one
//! self-describing object per line, the shape log shippers and `jq` both
//! like.

use std::fmt;

use twoknn_index::Metrics;

use crate::obs::histogram::{fmt_nanos, HistogramKind, HistogramSnapshot};

/// Per-relation state gauges, sampled at report time.
#[derive(Debug, Clone)]
pub struct RelationGauges {
    /// The relation's registered name.
    pub name: String,
    /// Last published version.
    pub version: u64,
    /// Visible points in the last published snapshot.
    pub num_points: usize,
    /// Un-compacted delta-overlay entries across all shards.
    pub delta_len: usize,
    /// Number of spatial shards.
    pub shards: usize,
}

/// A point-in-time snapshot of the engine's observable state.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Cumulative work counters (the store's global [`Metrics`]).
    pub counters: Metrics,
    /// Every latency histogram, in [`HistogramKind::ALL`] order.
    pub histograms: Vec<(HistogramKind, HistogramSnapshot)>,
    /// Jobs queued on the worker pool right now.
    pub pool_queue_depth: usize,
    /// Detached (fire-and-forget) jobs still in flight on the pool.
    pub pool_detached: usize,
    /// Per-relation shard/version gauges, sorted by name.
    pub relations: Vec<RelationGauges>,
    /// Lifecycle events recorded but not yet drained.
    pub events_pending: usize,
}

/// The [`Metrics`] counters as stable `(name, value)` pairs, in declaration
/// order — the enumeration both report formats share.
pub fn counter_fields(m: &Metrics) -> [(&'static str, u64); 21] {
    [
        ("neighborhoods_computed", m.neighborhoods_computed),
        ("blocks_scanned", m.blocks_scanned),
        ("blocks_ordered", m.blocks_ordered),
        ("points_scanned", m.points_scanned),
        ("distance_computations", m.distance_computations),
        ("tuples_emitted", m.tuples_emitted),
        ("cache_hits", m.cache_hits),
        ("cache_misses", m.cache_misses),
        ("blocks_pruned", m.blocks_pruned),
        ("shards_scanned", m.shards_scanned),
        ("shards_pruned", m.shards_pruned),
        ("points_pruned", m.points_pruned),
        ("ingest_ops", m.ingest_ops),
        ("compactions", m.compactions),
        ("shards_compacted", m.shards_compacted),
        ("cq_reevals", m.cq_reevals),
        ("cq_skips", m.cq_skips),
        ("wal_appends", m.wal_appends),
        ("wal_bytes", m.wal_bytes),
        ("checkpoints", m.checkpoints),
        ("recoveries", m.recoveries),
    ]
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsReport {
    /// Renders the report as line-oriented JSON: one object per line, each
    /// tagged by a `"type"` field (`counter`, `histogram`, `gauge`,
    /// `relation`). Durations are integer nanoseconds. Zero-count
    /// histograms and zero counters are included — consumers diff reports,
    /// so a stable line set matters more than brevity.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in counter_fields(&self.counters) {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for (kind, snap) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"p50_ns\":{},\
                 \"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}\n",
                kind.label(),
                snap.count,
                snap.percentile(0.50),
                snap.percentile(0.90),
                snap.percentile(0.99),
                snap.max_nanos,
                snap.mean_nanos(),
            ));
        }
        for (name, value) in [
            ("pool_queue_depth", self.pool_queue_depth),
            ("pool_detached", self.pool_detached),
            ("events_pending", self.events_pending),
        ] {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{value}}}\n"
            ));
        }
        for rel in &self.relations {
            out.push_str(&format!(
                "{{\"type\":\"relation\",\"name\":\"{}\",\"version\":{},\"points\":{},\
                 \"delta\":{},\"shards\":{}}}\n",
                json_escape(&rel.name),
                rel.version,
                rel.num_points,
                rel.delta_len,
                rel.shards,
            ));
        }
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for line in self.counters.to_string().lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(
            f,
            "histograms:          {:>8} {:>9} {:>9} {:>9} {:>9}",
            "count", "p50", "p90", "p99", "max"
        )?;
        for (kind, snap) in &self.histograms {
            if snap.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9}",
                kind.label(),
                snap.count,
                fmt_nanos(snap.percentile(0.50)),
                fmt_nanos(snap.percentile(0.90)),
                fmt_nanos(snap.percentile(0.99)),
                fmt_nanos(snap.max_nanos),
            )?;
        }
        writeln!(
            f,
            "pool: queue_depth={} detached={}",
            self.pool_queue_depth, self.pool_detached
        )?;
        for rel in &self.relations {
            writeln!(
                f,
                "relation {}: version={} points={} delta={} shards={}",
                rel.name, rel.version, rel.num_points, rel.delta_len, rel.shards
            )?;
        }
        write!(f, "events pending: {}", self.events_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::histogram::MetricsRegistry;
    use std::time::Duration;

    fn report() -> MetricsReport {
        let reg = MetricsRegistry::default();
        reg.record(HistogramKind::QueryExec, Duration::from_micros(250));
        reg.record(HistogramKind::QueryExec, Duration::from_micros(800));
        let counters = Metrics {
            points_scanned: 1234,
            ..Metrics::default()
        };
        MetricsReport {
            counters,
            histograms: reg.snapshots(),
            pool_queue_depth: 0,
            pool_detached: 1,
            relations: vec![RelationGauges {
                name: "Vehicles".into(),
                version: 7,
                num_points: 40_000,
                delta_len: 12,
                shards: 16,
            }],
            events_pending: 2,
        }
    }

    #[test]
    fn text_report_contains_all_sections() {
        let text = report().to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("pts=1234"));
        assert!(text.contains("query_exec"));
        assert!(!text.contains("wal_fsync"), "zero histograms suppressed");
        assert!(text.contains("pool: queue_depth=0 detached=1"));
        assert!(text.contains("relation Vehicles: version=7"));
        assert!(text.contains("events pending: 2"));
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let json = report().to_json_lines();
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\""), "{line}");
        }
        assert!(json.contains("{\"type\":\"counter\",\"name\":\"points_scanned\",\"value\":1234}"));
        assert!(json.contains("\"name\":\"query_exec\",\"count\":2"));
        assert!(json.contains("\"type\":\"relation\",\"name\":\"Vehicles\""));
        // Every counter and every histogram appears, even when zero.
        assert_eq!(
            json.lines().filter(|l| l.contains("\"counter\"")).count(),
            21
        );
        assert_eq!(
            json.lines().filter(|l| l.contains("\"histogram\"")).count(),
            HistogramKind::COUNT
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
