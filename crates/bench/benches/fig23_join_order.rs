//! Figure 23: unchained kNN-joins with both outer relations clustered —
//! the effect of which join is evaluated first.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::joins2::{unchained_block_marking, UnchainedJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let b = workloads::berlin_relation(8_000, 131);
    let query = UnchainedJoinQuery::new(2, 2);
    let mut group = BenchGroup::new("fig23_join_order").sample_size(10);
    for diff in [2usize, 4] {
        // C has 1 cluster, A has 1 + diff clusters (A covers more area).
        let c_rel = workloads::clustered_relation_sized(1, 1_000, 500 + diff as u64);
        let a = workloads::clustered_relation_sized(1 + diff, 1_000, 600 + diff as u64);
        group.bench(&format!("start_with_A_join/{diff}"), || {
            unchained_block_marking(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("start_with_C_join/{diff}"), || {
            unchained_block_marking(&c_rel, &b, &a, &query, ExecutionMode::Serial)
        });
    }
}
