//! Ablation A2: Block-Marking design choices — the contour-based early stop
//! of the preprocessing scan (Figure 6) on/off, with Counting as a reference.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::select_join::{block_marking, counting, BlockMarkingConfig, SelectInnerJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let inner = workloads::berlin_relation(8_000, 181);
    let query = SelectInnerJoinQuery::new(8, 8, workloads::focal_point());
    let config = BlockMarkingConfig::default();
    let no_contour = BlockMarkingConfig {
        contour_pruning: false,
    };
    let mut group = BenchGroup::new("ablation_block_marking").sample_size(10);
    for n in [8_000usize, 16_000] {
        let outer = workloads::berlin_relation(n, 900 + n as u64);
        group.bench(&format!("counting/{n}"), || {
            counting(&outer, &inner, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("block_marking_no_contour/{n}"), || {
            block_marking(&outer, &inner, &query, &no_contour, ExecutionMode::Serial)
        });
        group.bench(&format!("block_marking_contour/{n}"), || {
            block_marking(&outer, &inner, &query, &config, ExecutionMode::Serial)
        });
    }
}
