//! Experiment runners: one function per figure of the paper's evaluation
//! (Section 6) plus an index-family ablation. Each runner executes the full
//! parameter sweep, verifies that the compared algorithms return identical
//! rows (as id sets), and returns a [`Report`] whose rendered table has the same
//! shape as the paper's plot (same x-axis, same series).

use twoknn_core::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, unchained_block_marking,
    unchained_conceptual, ChainedJoinQuery, UnchainedJoinQuery,
};
use twoknn_core::output::{pair_id_set, point_id_set, triplet_id_set};
use twoknn_core::select_join::{block_marking, conceptual, counting, SelectInnerJoinQuery};
use twoknn_core::selects2::{two_knn_select, two_selects_conceptual, TwoSelectsQuery};
use twoknn_core::QueryOutput;
use twoknn_geometry::Point;
use twoknn_index::{QuadtreeIndex, StrRTree};

use crate::workloads::{self, FIG23_BASE_CLUSTERS, FIG26_K1, SELECT_JOIN_K, TWO_JOINS_K};
use crate::{time_ms, Measurement, Report, Scale};

fn record<T>(report: &mut Report, x: &str, series: &str, millis: f64, out: &QueryOutput<T>) {
    report.push(Measurement {
        x: x.to_string(),
        series: series.to_string(),
        millis,
        neighborhoods: out.metrics.neighborhoods_computed,
        rows: out.len(),
    });
}

/// Asserts that two algorithms returned the same rows, given as id sets.
fn assert_same_rows<K: PartialEq>(a: K, b: K, context: &str) {
    assert!(a == b, "algorithms disagree on rows in {context}");
}

/// Figure 19: kNN-select on the inner relation of a kNN-join — conceptual QEP
/// vs Block-Marking, varying the outer-relation size.
pub fn fig19(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig19",
        "select-inner-of-join: conceptual QEP vs Block-Marking (BerlinMOD-like data)",
        "outer size",
    );
    let inner = workloads::berlin_relation(workloads::fig19_inner_size(scale), 101);
    let query = SelectInnerJoinQuery::new(SELECT_JOIN_K, SELECT_JOIN_K, workloads::focal_point());
    for (i, n) in workloads::fig19_outer_sizes(scale).into_iter().enumerate() {
        let outer = workloads::berlin_relation(n, 200 + i as u64);
        let x = n.to_string();
        let (t_slow, slow) = time_ms(|| conceptual(&outer, &inner, &query));
        let (t_fast, fast) = time_ms(|| block_marking(&outer, &inner, &query));
        assert_same_rows(pair_id_set(&slow.rows), pair_id_set(&fast.rows), "fig19");
        record(&mut report, &x, "conceptual", t_slow, &slow);
        record(&mut report, &x, "block-marking", t_fast, &fast);
    }
    report
}

/// Figures 20: Counting vs Block-Marking with a *small* (low-density) outer
/// relation — Counting should win.
pub fn fig20(scale: Scale) -> Report {
    counting_vs_block_marking(
        "fig20",
        "Counting vs Block-Marking, low-density outer relation",
        workloads::fig20_outer_sizes(scale),
        workloads::fig20_21_inner_size(scale),
    )
}

/// Figure 21: Counting vs Block-Marking with a *large* (high-density) outer
/// relation — Block-Marking should win.
pub fn fig21(scale: Scale) -> Report {
    counting_vs_block_marking(
        "fig21",
        "Counting vs Block-Marking, high-density outer relation",
        workloads::fig21_outer_sizes(scale),
        workloads::fig20_21_inner_size(scale),
    )
}

fn counting_vs_block_marking(
    id: &str,
    description: &str,
    outer_sizes: Vec<usize>,
    inner_size: usize,
) -> Report {
    let mut report = Report::new(id, description, "outer size");
    let inner = workloads::berlin_relation(inner_size, 111);
    let query = SelectInnerJoinQuery::new(SELECT_JOIN_K, SELECT_JOIN_K, workloads::focal_point());
    for (i, n) in outer_sizes.into_iter().enumerate() {
        let outer = workloads::berlin_relation(n, 300 + i as u64);
        let x = n.to_string();
        let (t_counting, c) = time_ms(|| counting(&outer, &inner, &query));
        let (t_marking, m) = time_ms(|| block_marking(&outer, &inner, &query));
        assert_same_rows(pair_id_set(&c.rows), pair_id_set(&m.rows), id);
        record(&mut report, &x, "counting", t_counting, &c);
        record(&mut report, &x, "block-marking", t_marking, &m);
    }
    report
}

/// Figure 22: two unchained kNN-joins with `A` clustered and `B`, `C`
/// BerlinMOD-like — conceptual QEP vs Block-Marking, varying `|C|`.
pub fn fig22(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig22",
        "unchained joins: conceptual vs Block-Marking (A clustered in a region, B/C BerlinMOD-like)",
        "|C|",
    );
    // "Points of A are generated such that they are clustered inside a
    // certain region": a couple of clusters in the north-east of the city,
    // away from the center where B and C concentrate.
    let a = workloads::clustered_relation_in_region(2, 4_000, 121);
    let b = workloads::berlin_relation(workloads::joins_b_size(scale), 122);
    let query = UnchainedJoinQuery::new(TWO_JOINS_K, TWO_JOINS_K);
    for (i, n) in workloads::fig22_c_sizes(scale).into_iter().enumerate() {
        let c = workloads::berlin_relation(n, 400 + i as u64);
        let x = n.to_string();
        let (t_slow, slow) = time_ms(|| unchained_conceptual(&a, &b, &c, &query));
        let (t_fast, fast) = time_ms(|| unchained_block_marking(&a, &b, &c, &query));
        assert_same_rows(
            triplet_id_set(&slow.rows),
            triplet_id_set(&fast.rows),
            "fig22",
        );
        record(&mut report, &x, "conceptual", t_slow, &slow);
        record(&mut report, &x, "block-marking", t_fast, &fast);
    }
    report
}

/// Figure 23: two unchained kNN-joins with both `A` and `C` clustered —
/// starting with the lower-coverage relation's join vs starting with the
/// other, varying the difference in cluster counts.
pub fn fig23(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig23",
        "unchained joins, A and C clustered: start with (C ⋈ B) vs start with (A ⋈ B)",
        "clusters(A) - clusters(C)",
    );
    let b = workloads::berlin_relation(workloads::joins_b_size(scale), 131);
    let query = UnchainedJoinQuery::new(TWO_JOINS_K, TWO_JOINS_K);
    // C is the same relation for every sweep point; only A's cluster count
    // changes (fixed seeds keep the shared clusters in place), matching the
    // paper's "vary the difference between the number of clusters" setup.
    let c = workloads::clustered_relation_sized(FIG23_BASE_CLUSTERS, 4_000, 501);
    for d in workloads::fig23_cluster_diffs(scale) {
        let a = workloads::clustered_relation_sized(FIG23_BASE_CLUSTERS + d, 4_000, 601);
        let x = d.to_string();
        // Start with (A ⋈ B): prune C's blocks.
        let (t_start_a, start_a) = time_ms(|| unchained_block_marking(&a, &b, &c, &query));
        // Start with (C ⋈ B): prune A's blocks (the recommended order, since
        // C has fewer clusters and therefore smaller coverage).
        let (t_start_c, start_c) = time_ms(|| unchained_block_marking(&c, &b, &a, &query));
        // Starting with (C ⋈ B) emits (c, b, a): swap the components back.
        let start_c_ids = start_c
            .rows
            .iter()
            .map(|t| (t.c.id, t.b.id, t.a.id))
            .collect();
        assert_same_rows(triplet_id_set(&start_a.rows), start_c_ids, "fig23");
        record(&mut report, &x, "start-with-(A⋈B)", t_start_a, &start_a);
        record(&mut report, &x, "start-with-(C⋈B)", t_start_c, &start_c);
    }
    report
}

/// Figure 24: two chained kNN-joins — nested QEP3 with and without the
/// neighborhood cache, varying the outer-relation size.
pub fn fig24(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig24",
        "chained joins: nested QEP3 without cache vs with cache",
        "|A|",
    );
    // B is deliberately smaller than A's neighbor demand (k_ab * |A|), so the
    // same b points recur in many neighborhoods and the cache pays off.
    let b = workloads::berlin_relation(workloads::joins_b_size(scale) / 4, 141);
    let c = workloads::berlin_relation(workloads::joins_b_size(scale) / 2, 142);
    let query = ChainedJoinQuery::new(TWO_JOINS_K, TWO_JOINS_K);
    for (i, n) in workloads::fig24_a_sizes(scale).into_iter().enumerate() {
        let a = workloads::berlin_relation(n, 700 + i as u64);
        let x = n.to_string();
        let (t_uncached, uncached) = time_ms(|| chained_nested(&a, &b, &c, &query));
        let (t_cached, cached) = time_ms(|| chained_nested_cached(&a, &b, &c, &query));
        assert_same_rows(
            triplet_id_set(&uncached.rows),
            triplet_id_set(&cached.rows),
            "fig24",
        );
        record(&mut report, &x, "nested-join", t_uncached, &uncached);
        record(&mut report, &x, "nested-join-cached", t_cached, &cached);
    }
    report
}

/// Figure 25: two chained kNN-joins with a clustered `B` — Join-Intersection
/// QEP vs cached Nested-Join QEP, varying the number of clusters in `B`.
pub fn fig25(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig25",
        "chained joins: Join-Intersection vs cached Nested-Join (B clustered)",
        "clusters in B",
    );
    // A is small so the sweep-dependent term (expanding B points against C)
    // dominates; the Join-Intersection QEP expands *every* B point, the
    // nested QEP only the ones A actually reaches.
    let a = workloads::berlin_relation(workloads::joins_b_size(scale) / 16, 151);
    let c = workloads::berlin_relation(workloads::joins_b_size(scale), 152);
    let query = ChainedJoinQuery::new(TWO_JOINS_K, TWO_JOINS_K);
    for n_clusters in workloads::fig25_b_clusters(scale) {
        let b = workloads::clustered_relation_sized(n_clusters, 4_000, 800 + n_clusters as u64);
        let x = n_clusters.to_string();
        let (t_slow, slow) = time_ms(|| chained_join_intersection(&a, &b, &c, &query));
        let (t_fast, fast) = time_ms(|| chained_nested_cached(&a, &b, &c, &query));
        assert_same_rows(
            triplet_id_set(&slow.rows),
            triplet_id_set(&fast.rows),
            "fig25",
        );
        record(&mut report, &x, "join-intersection", t_slow, &slow);
        record(&mut report, &x, "nested-join-cached", t_fast, &fast);
    }
    report
}

/// Figure 26: two kNN-selects — conceptual QEP vs the 2-kNN-select algorithm,
/// `k1 = 10` fixed, varying `log2(k2/k1)`.
pub fn fig26(scale: Scale) -> Report {
    let mut report = Report::new(
        "fig26",
        "two kNN-selects: conceptual QEP vs 2-kNN-select (k1 = 10 fixed)",
        "log2(k2/k1)",
    );
    let relation = workloads::berlin_relation(workloads::fig26_relation_size(scale), 161);
    let reps = workloads::FIG26_REPETITIONS;
    let (f1, f2) = workloads::fig26_focal_points();
    for ratio_log2 in workloads::fig26_k_ratios(scale) {
        let k2 = FIG26_K1 << ratio_log2;
        let query = TwoSelectsQuery::new(FIG26_K1, f1, k2, f2);
        let x = ratio_log2.to_string();
        // Individual runs are sub-millisecond; repeat and average.
        let (t_slow_total, slow) = time_ms(|| {
            let mut last = two_selects_conceptual(&relation, &query);
            for _ in 1..reps {
                last = two_selects_conceptual(&relation, &query);
            }
            last
        });
        let (t_fast_total, fast) = time_ms(|| {
            let mut last = two_knn_select(&relation, &query);
            for _ in 1..reps {
                last = two_knn_select(&relation, &query);
            }
            last
        });
        assert_same_rows(point_id_set(&slow.rows), point_id_set(&fast.rows), "fig26");
        record(
            &mut report,
            &x,
            "conceptual",
            t_slow_total / reps as f64,
            &slow,
        );
        record(
            &mut report,
            &x,
            "2-kNN-select",
            t_fast_total / reps as f64,
            &fast,
        );
    }
    report
}

/// Ablation A1: the select-inner-of-join query across the three index
/// structures (grid, PR-quadtree, STR R-tree), showing that the algorithm
/// ranking is index-independent (the paper's Section 2 claim).
pub fn ablation_index(scale: Scale) -> Report {
    let mut report = Report::new(
        "ablation_index",
        "Block-Marking vs conceptual across index structures (same workload)",
        "index",
    );
    let n_outer = match scale {
        Scale::Smoke => 2_000,
        Scale::Quick => 16_000,
        Scale::Paper => 160_000,
    };
    let n_inner = workloads::fig19_inner_size(scale) / 2;
    let outer_pts =
        twoknn_datagen::berlinmod(&twoknn_datagen::BerlinModConfig::with_points(n_outer, 171));
    let inner_pts =
        twoknn_datagen::berlinmod(&twoknn_datagen::BerlinModConfig::with_points(n_inner, 172));
    let query = SelectInnerJoinQuery::new(SELECT_JOIN_K, SELECT_JOIN_K, workloads::focal_point());

    for family in ["grid", "quadtree", "str-rtree"] {
        let build = |points: &[Point]| match family {
            "grid" => workloads::grid(points.to_vec()),
            "quadtree" => QuadtreeIndex::build(points.to_vec(), 128).expect("non-empty"),
            _ => StrRTree::build(points.to_vec(), 128).expect("non-empty"),
        };
        let (outer, inner) = (build(&outer_pts), build(&inner_pts));
        let (t_slow, slow) = time_ms(|| conceptual(&outer, &inner, &query));
        let (t_fast, fast) = time_ms(|| block_marking(&outer, &inner, &query));
        let context = format!("ablation_index/{family}");
        assert_same_rows(pair_id_set(&slow.rows), pair_id_set(&fast.rows), &context);
        record(&mut report, family, "conceptual", t_slow, &slow);
        record(&mut report, family, "block-marking", t_fast, &fast);
    }
    report
}

/// All experiment ids, in the order they appear in the paper.
pub const ALL_IDS: &[&str] = &[
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "ablation_index",
];

/// Runs one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<Report> {
    Some(match id {
        "fig19" => fig19(scale),
        "fig20" => fig20(scale),
        "fig21" => fig21(scale),
        "fig22" => fig22(scale),
        "fig23" => fig23(scale),
        "fig24" => fig24(scale),
        "fig25" => fig25(scale),
        "fig26" => fig26(scale),
        "ablation_index" => ablation_index(scale),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_rejects_unknown_ids() {
        assert!(run("fig99", Scale::Quick).is_none());
    }

    #[test]
    fn all_ids_are_runnable_names() {
        // Only check that the dispatcher knows every id; actually running the
        // sweeps is the experiments binary's job.
        for id in ALL_IDS {
            assert!(
                matches!(
                    *id,
                    "fig19"
                        | "fig20"
                        | "fig21"
                        | "fig22"
                        | "fig23"
                        | "fig24"
                        | "fig25"
                        | "fig26"
                        | "ablation_index"
                ),
                "unknown id {id}"
            );
        }
    }
}
