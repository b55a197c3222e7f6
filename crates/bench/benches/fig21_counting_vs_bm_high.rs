//! Figure 21: Counting vs Block-Marking with a high-density outer relation
//! (Block-Marking is expected to win).

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::select_join::{block_marking, counting, BlockMarkingConfig, SelectInnerJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let inner = workloads::berlin_relation(8_000, 112);
    let query = SelectInnerJoinQuery::new(8, 8, workloads::focal_point());
    let config = BlockMarkingConfig::default();
    let mut group = BenchGroup::new("fig21_high_density_outer").sample_size(10);
    for n in [16_000usize, 32_000] {
        let outer = workloads::berlin_relation(n, 310 + n as u64);
        group.bench(&format!("counting/{n}"), || {
            counting(&outer, &inner, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("block_marking/{n}"), || {
            block_marking(&outer, &inner, &query, &config, ExecutionMode::Serial)
        });
    }
}
