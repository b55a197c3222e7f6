//! Figure 26: two kNN-selects — conceptual QEP vs the 2-kNN-select algorithm
//! as `k2/k1` grows (k1 = 10 fixed).

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::selects2::{two_knn_select, two_selects_conceptual, TwoSelectsQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let relation = workloads::berlin_relation(32_000, 161);
    let (f1, f2) = workloads::fig26_focal_points();
    let mut group = BenchGroup::new("fig26_two_selects").sample_size(20);
    for ratio_log2 in [0u32, 4, 7] {
        let k2 = 10usize << ratio_log2;
        let query = TwoSelectsQuery::new(10, f1, k2, f2);
        group.bench(&format!("conceptual/k2_ratio_2^{ratio_log2}"), || {
            two_selects_conceptual(&relation, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("two_knn_select/k2_ratio_2^{ratio_log2}"), || {
            two_knn_select(&relation, &query)
        });
    }
}
