//! Ablation A1: the same select-inner-of-join workload across the three index
//! structures (grid, PR-quadtree, STR R-tree). The algorithms are index
//! agnostic (Section 2); the Block-Marking vs conceptual ranking should hold
//! for every structure.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::select_join::{
    block_marking, conceptual, BlockMarkingConfig, SelectInnerJoinQuery,
};
use twoknn_core::ExecutionMode;
use twoknn_datagen::{berlinmod, BerlinModConfig};
use twoknn_index::{QuadtreeIndex, StrRTree};

fn main() {
    let n_outer = 4_000;
    let n_inner = 8_000;
    let outer_pts = berlinmod(&BerlinModConfig::with_points(n_outer, 171));
    let inner_pts = berlinmod(&BerlinModConfig::with_points(n_inner, 172));
    let query = SelectInnerJoinQuery::new(8, 8, workloads::focal_point());
    let config = BlockMarkingConfig::default();

    let mut group = BenchGroup::new("ablation_index").sample_size(10);

    let outer_grid = workloads::berlin_relation(n_outer, 171);
    let inner_grid = workloads::berlin_relation(n_inner, 172);
    group.bench("grid/conceptual", || {
        conceptual(&outer_grid, &inner_grid, &query, ExecutionMode::Serial)
    });
    group.bench("grid/block_marking", || {
        block_marking(
            &outer_grid,
            &inner_grid,
            &query,
            &config,
            ExecutionMode::Serial,
        )
    });

    let outer_quad = QuadtreeIndex::build(outer_pts.clone(), 128).expect("non-empty");
    let inner_quad = QuadtreeIndex::build(inner_pts.clone(), 128).expect("non-empty");
    group.bench("quadtree/conceptual", || {
        conceptual(&outer_quad, &inner_quad, &query, ExecutionMode::Serial)
    });
    group.bench("quadtree/block_marking", || {
        block_marking(
            &outer_quad,
            &inner_quad,
            &query,
            &config,
            ExecutionMode::Serial,
        )
    });

    // STR R-tree leaves do not tile the space, so the contour-based early
    // stop is disabled for correctness (see DESIGN.md); the per-block test
    // still prunes.
    let outer_rtree = StrRTree::build(outer_pts, 128).expect("non-empty");
    let inner_rtree = StrRTree::build(inner_pts, 128).expect("non-empty");
    let cfg = BlockMarkingConfig {
        contour_pruning: false,
    };
    group.bench("str_rtree/conceptual", || {
        conceptual(&outer_rtree, &inner_rtree, &query, ExecutionMode::Serial)
    });
    group.bench("str_rtree/block_marking", || {
        block_marking(
            &outer_rtree,
            &inner_rtree,
            &query,
            &cfg,
            ExecutionMode::Serial,
        )
    });
}
