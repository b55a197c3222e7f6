//! Figure 19: kNN-select on the inner relation of a kNN-join.
//! Conceptual QEP vs Block-Marking, two outer-relation sizes.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::select_join::{
    block_marking, conceptual, BlockMarkingConfig, SelectInnerJoinQuery,
};
use twoknn_core::ExecutionMode;

fn main() {
    let inner = workloads::berlin_relation(8_000, 101);
    let query = SelectInnerJoinQuery::new(8, 8, workloads::focal_point());
    let config = BlockMarkingConfig::default();
    let mut group = BenchGroup::new("fig19_select_inner_of_join").sample_size(10);
    for n in [2_000usize, 8_000] {
        let outer = workloads::berlin_relation(n, 200 + n as u64);
        group.bench(&format!("conceptual/{n}"), || {
            conceptual(&outer, &inner, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("block_marking/{n}"), || {
            block_marking(&outer, &inner, &query, &config, ExecutionMode::Serial)
        });
    }
}
