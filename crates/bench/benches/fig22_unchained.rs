//! Figure 22: two unchained kNN-joins with a clustered `A` relation.
//! Conceptual QEP (independent joins + ∩_B) vs Block-Marking (Procedure 4).

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::joins2::{unchained_block_marking, unchained_conceptual, UnchainedJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let a = workloads::clustered_relation_sized(2, 1_000, 121);
    let b = workloads::berlin_relation(8_000, 122);
    let query = UnchainedJoinQuery::new(2, 2);
    let mut group = BenchGroup::new("fig22_unchained_joins").sample_size(10);
    for n in [4_000usize, 8_000] {
        let c_rel = workloads::berlin_relation(n, 400 + n as u64);
        group.bench(&format!("conceptual/{n}"), || {
            unchained_conceptual(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("block_marking/{n}"), || {
            unchained_block_marking(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
    }
}
