//! Figure 24: chained kNN-joins — the effect of caching the inner join's
//! neighborhoods (QEP3 vs QEP3 + cache).

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::joins2::{chained_nested, chained_nested_cached, ChainedJoinQuery};
use twoknn_core::ExecutionMode;

fn main() {
    let b = workloads::berlin_relation(4_000, 141);
    let c_rel = workloads::berlin_relation(4_000, 142);
    let query = ChainedJoinQuery::new(2, 2);
    let mut group = BenchGroup::new("fig24_chained_cache").sample_size(10);
    for n in [2_000usize, 8_000] {
        let a = workloads::berlin_relation(n, 700 + n as u64);
        group.bench(&format!("nested_join/{n}"), || {
            chained_nested(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
        group.bench(&format!("nested_join_cached/{n}"), || {
            chained_nested_cached(&a, &b, &c_rel, &query, ExecutionMode::Serial)
        });
    }
}
