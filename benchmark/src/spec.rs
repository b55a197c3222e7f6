//! The benchmark's contract: workload and metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root states the
//! same thing for the driver; a unit test keeps the two equal.

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "select_large",
        "textual kNN selects over three 1 M-point relations that dwarf the caches: block ordering, shard walk and the kNN kernel are the whole op, the front end is noise",
    ),
    (
        "join_shapes",
        "the paper's four two-predicate join shapes over small relations: time is in select_join/joins2 and the optimizer's choice, not in block ordering",
    ),
    (
        "mixed_stream",
        "the moving-objects loop on a small durable sharded relation: reads under ingest, compaction, cq re-evaluation and checkpoints, where per-query fixed costs show",
    ),
    (
        "ingest_durable",
        "write-only batches into a recovered durable store: route, WAL append, fsync, publish and background compaction do all the work, the kNN kernels none",
    ),
];

/// `(name, unit, better, bound)`. A bound is the share of the parent's
/// median by which the metric may get worse before a change is rejected.
/// In the committed calibration ten runs spread 3–10 % (quartile distance ÷
/// median), but this is a shared 2-core VM whose host slows every workload
/// by 10–45 % for minutes at a time; a calibration that caught such a spell
/// spread 0.24 on the time metrics. The bounds are therefore the contract's cap
/// for everything timed. Memory moves by about a MiB between runs, which
/// is 6 % of `join_shapes`' 18 MiB.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_per_s", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_tail_us", "us", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)`, grouped as in the README's interaction table.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    // Query front end: per-query fixed costs.
    ("plan.lang.parse_us", "us", "lower"),
    ("plan.optimizer.plan_us", "us", "lower"),
    ("plan.physical.compile_us", "us", "lower"),
    ("store.pin_us", "us", "lower"),
    ("plan.executor.rows_us", "us", "lower"),
    ("plan.executor.front_share", "share", "lower"),
    // Read kernels.
    ("plan.physical.execute_us", "us", "lower"),
    ("index.knn.get_knn_us", "us", "lower"),
    ("index.knn.get_knn_share", "share", "higher"),
    ("index.knn.blocks_scanned_per_op", "count", "lower"),
    ("index.knn.blocks_pruned_per_op", "count", "higher"),
    ("index.knn.points_scanned_per_op", "count", "lower"),
    ("index.knn.useful_point_share", "share", "higher"),
    ("geometry.distance_per_op", "count", "lower"),
    ("store.shard.scanned_per_op", "count", "lower"),
    ("store.shard.pruned_share", "share", "higher"),
    ("select.knn_us", "us", "lower"),
    ("selects2.two_selects_us", "us", "lower"),
    // Join algorithms and the optimizer's choice.
    ("select_join.inner_us", "us", "lower"),
    ("select_join.outer_us", "us", "lower"),
    ("joins2.unchained_us", "us", "lower"),
    ("joins2.chained_us", "us", "lower"),
    ("join.neighborhoods_per_op", "count", "lower"),
    ("select_join.points_pruned_share", "share", "higher"),
    ("joins2.cache_hit_share", "share", "higher"),
    ("plan.optimizer.regret", "ratio", "lower"),
    ("plan.optimizer.regret_work", "ratio", "lower"),
    // Set-up: index builds and registration.
    ("index.grid.build_ms", "ms", "lower"),
    ("index.quadtree.build_ms", "ms", "lower"),
    ("index.rtree.build_ms", "ms", "lower"),
    ("store.register_ms", "ms", "lower"),
    // Ingest path.
    ("store.ingest_p50_us", "us", "lower"),
    ("store.ingest_p99_us", "us", "lower"),
    ("store.ingest_points_per_s", "1/s", "higher"),
    ("store.overlay.delta_len_max", "count", "lower"),
    // Durability.
    ("store.wal.append_us", "us", "lower"),
    ("store.wal.fsync_us", "us", "lower"),
    ("store.wal.bytes_per_user_byte", "ratio", "lower"),
    ("store.checkpoint_ms", "ms", "lower"),
    ("store.blockfile.disk_bytes_per_live_byte", "ratio", "lower"),
    // Background work and the pool.
    ("store.compact.count", "count", "lower"),
    ("store.compact.mean_ms", "ms", "lower"),
    ("store.compact.busy_share", "share", "lower"),
    ("exec.pool.wait_idle_us", "us", "lower"),
    ("exec.pool.queue_depth_max", "count", "lower"),
    // Recovery.
    ("store.recover.open_ms", "ms", "lower"),
    ("store.recover.warm_ms", "ms", "lower"),
    // Continuous queries.
    ("cq.subscribe_us", "us", "lower"),
    ("cq.poll_us", "us", "lower"),
    ("cq.reeval_us", "us", "lower"),
    ("cq.reevals_per_publish", "count", "lower"),
    ("cq.skip_share", "share", "higher"),
    // Validity of the budget itself.
    ("trace.coverage_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    // Per-op-type latency of the untraced front-door segment.
    ("read_p50_us", "us", "lower"),
    ("read_p99_us", "us", "lower"),
    ("write_p50_us", "us", "lower"),
    ("write_p99_us", "us", "lower"),
    // Sizes of the traced pass, so a budget can be read on its own.
    ("trace.traced_ops", "count", "higher"),
    ("trace.untraced_ops", "count", "higher"),
    ("trace.traced_op_per_s", "1/s", "higher"),
    ("trace.untraced_op_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.checked_ops", "count", "higher"),
];

/// Measured seconds per run that `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u64 = 15;

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

pub fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, _, _)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// The document committed as `BENCHMARK.json`.
pub fn benchmark_json() -> crate::json::Value {
    use crate::json::Value;
    let s = |text: &str| Value::Str(text.to_string());
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Value::obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Value::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better)),
                            ("bound", Value::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([("name", s(name)), ("unit", s(unit)), ("better", s(better))])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_inside_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|(n, u, b, _)| (*n, *u, *b))
            .chain(PER_LAYER.iter().copied());
        for (name, unit, better) in units {
            assert!(
                name_ok(name) && seen.insert(name),
                "{name} repeats or is malformed"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
            assert!(better == "lower" || better == "higher", "{name}");
        }
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- contract > BENCHMARK.json`"
        );
    }
}
