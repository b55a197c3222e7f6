//! Figure 25: chained kNN-joins with a clustered `B` relation —
//! Join-Intersection QEP vs the cached Nested-Join QEP as the number of
//! clusters in `B` grows.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::joins2::{chained_join_intersection, chained_nested_cached, ChainedJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let a = workloads::berlin_relation(2_000, 151);
    let c_rel = workloads::berlin_relation(4_000, 152);
    let query = ChainedJoinQuery::new(2, 2);
    let mut group = BenchGroup::new("fig25_chained_vs_intersection").sample_size(10);
    for n_clusters in [2usize, 6] {
        let b = workloads::clustered_relation_sized(n_clusters, 1_000, 800 + n_clusters as u64);
        group.bench(&format!("join_intersection/{n_clusters}"), || {
            chained_join_intersection(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("nested_join_cached/{n_clusters}"), || {
            chained_nested_cached(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
    }
}
