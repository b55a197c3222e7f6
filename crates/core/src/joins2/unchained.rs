//! Unchained kNN-joins: `(A ⋈kNN B) ∩_B (C ⋈kNN B)` (Section 4.1).
//!
//! Both plans partition their block loops through
//! [`crate::exec::run_into_shares`], so every phase runs on the pool the
//! calling thread is bound to, and the `∩_B` runs on the calling thread.

use std::collections::{HashMap, HashSet};

use twoknn_geometry::{Point, PointId};
use twoknn_index::{BlockId, Metrics, SpatialIndex};

use crate::join::{block_neighborhoods, contributing_blocks, knn_join_rows, points_repeated};
use crate::output::{Pair, QueryOutput, Triplet};

/// Parameters of a query with two unchained kNN-joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnchainedJoinQuery {
    /// `k_{A−B}`: the k of the join `A ⋈kNN B`.
    pub k_ab: usize,
    /// `k_{C−B}`: the k of the join `C ⋈kNN B`.
    pub k_cb: usize,
}

impl UnchainedJoinQuery {
    /// Creates a query description.
    pub fn new(k_ab: usize, k_cb: usize) -> Self {
        Self { k_ab, k_cb }
    }
}

/// The conceptually correct QEP of Figure 10: evaluate `(A ⋈kNN B)` and
/// `(C ⋈kNN B)` independently and intersect the two pair sets on their `B`
/// component (`∩_B`), producing `(a, b, c)` triplets. Both joins are
/// block-partitioned over the current pool.
pub fn unchained_conceptual<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &UnchainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let ab_pairs = knn_join_rows(a, b, query.k_ab, &mut metrics);
    let cb_pairs = knn_join_rows(c, b, query.k_cb, &mut metrics);
    let rows = intersect_on_b(&ab_pairs, cb_pairs.iter().map(|p| (p.left, p.right)));
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// The **wrong** sequential evaluation of Figures 8 / 9: evaluate one join
/// first and restrict the inner relation of the other join to the `B` points
/// produced by the first. Present only to demonstrate the non-equivalence.
///
/// When `ab_first` is true this reproduces Figure 8 (`A ⋈kNN B` first),
/// otherwise Figure 9 (`C ⋈kNN B` first).
pub fn unchained_wrong_sequential<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &UnchainedJoinQuery,
    ab_first: bool,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let rows = if ab_first {
        let ab_pairs = knn_join_rows(a, b, query.k_ab, &mut metrics);
        // Restrict B to the matched points and join C against that subset.
        let b_subset: Vec<_> = dedup_right_points(&ab_pairs);
        let cb_pairs = join_against_points(c, &b_subset, query.k_cb, &mut metrics);
        intersect_on_b(&ab_pairs, cb_pairs.iter().map(|p| (p.left, p.right)))
    } else {
        let cb_pairs = knn_join_rows(c, b, query.k_cb, &mut metrics);
        let b_subset: Vec<_> = dedup_right_points(&cb_pairs);
        let ab_pairs = join_against_points(a, &b_subset, query.k_ab, &mut metrics);
        intersect_on_b(&ab_pairs, cb_pairs.iter().map(|p| (p.left, p.right)))
    };
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// The efficient evaluation of Section 4.1.1 (Procedure 4).
///
/// The first join (`A ⋈kNN B`) is evaluated in full. The blocks of `B` that
/// contain at least one matched `b` point are marked **Candidate**; all other
/// `B` blocks are **Safe**. Before evaluating the second join, every block of
/// `C` is classified: if the block's region itself holds a matched `b` point
/// it is Contributing outright; otherwise the neighborhood of the block's
/// center (over `B`, with `k_{C−B}`) is computed, the search threshold is its
/// radius plus the block diagonal, and the block is Non-Contributing when no
/// Candidate `B` block lies fully or partially within that threshold. Points
/// of Non-Contributing `C` blocks are skipped entirely by the second join.
///
/// Every phase partitions by block over the current pool: the first join
/// over `A`'s blocks, then the classification of `C`'s blocks (each depends
/// only on the shared Candidate set, never on another `C` block), then the
/// join of the Contributing ones; the `∩_B` runs on the calling thread.
/// Rows (in order) and merged work counters are the same on every pool
/// size.
pub fn unchained_block_marking<A, B, C>(
    a: &A,
    b: &B,
    c: &C,
    query: &UnchainedJoinQuery,
) -> QueryOutput<Triplet>
where
    A: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    C: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();

    // Lines 1–3: the first join and the projection of its B points.
    let ab_pairs = knn_join_rows(a, b, query.k_ab, &mut metrics);

    // Lines 4–8: mark Candidate blocks of B (blocks containing matched b's).
    let mut candidate_blocks: HashSet<BlockId> = HashSet::new();
    for pair in &ab_pairs {
        if let Some(block_id) = b.locate(&pair.right) {
            candidate_blocks.insert(block_id);
        }
    }
    let candidate_metas: Vec<_> = b
        .blocks()
        .iter()
        .filter(|blk| candidate_blocks.contains(&blk.id))
        .copied()
        .collect();

    // Lines 9–24: classify the blocks of C, partitioned across workers. The
    // "process only the Safe blocks" shortcut: a C block whose own region
    // holds a matched b point is Contributing outright; any other is tested
    // against the search threshold of its center's neighborhood over B.
    let contributing = contributing_blocks(
        c.blocks(),
        b,
        query.k_cb,
        |c_block| {
            candidate_metas
                .iter()
                .any(|bb| bb.mbr.intersects(&c_block.mbr))
        },
        |c_block, nbr_center| {
            let search_threshold = nbr_center.radius() + c_block.diagonal();
            let center = c_block.center();
            candidate_metas
                .iter()
                .any(|bb| bb.mindist(&center) <= search_threshold)
        },
        &mut metrics,
    );

    // Lines 25–34: join the points of the Contributing blocks, off one
    // candidate list of B blocks per block, and intersect on B.
    let members = block_neighborhoods(c, &contributing, b, query.k_cb, &mut metrics);
    let c_points = points_repeated(c, &contributing, query.k_cb.min(b.num_points()));
    let rows = intersect_on_b(&ab_pairs, c_points.zip(members.iter().map(|n| n.point)));
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// `∩_B`: matches AB pairs and `(c, b)` pairs sharing the same `B` point
/// and emits `(a, b, c)` triplets, in `(c, b)` order and then AB order.
fn intersect_on_b(
    ab_pairs: &[Pair],
    cb_pairs: impl IntoIterator<Item = (Point, Point)>,
) -> Vec<Triplet> {
    let ab_by_b = group_pairs_by_right(ab_pairs);
    let mut rows = Vec::new();
    for (c_point, b_point) in cb_pairs {
        if let Some(a_points) = ab_by_b.get(&b_point.id) {
            rows.extend(a_points.iter().map(|a| Triplet::new(*a, b_point, c_point)));
        }
    }
    rows
}

fn group_pairs_by_right(pairs: &[Pair]) -> HashMap<PointId, Vec<Point>> {
    let mut map: HashMap<PointId, Vec<Point>> = HashMap::new();
    for p in pairs {
        map.entry(p.right.id).or_default().push(p.left);
    }
    map
}

fn dedup_right_points(pairs: &[Pair]) -> Vec<Point> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for p in pairs {
        if seen.insert(p.right.id) {
            out.push(p.right);
        }
    }
    out
}

/// Joins each point of `outer` against an explicit list of candidate points
/// (used only by the deliberately wrong sequential plan).
fn join_against_points<O>(
    outer: &O,
    candidates: &[Point],
    k: usize,
    metrics: &mut Metrics,
) -> Vec<Pair>
where
    O: SpatialIndex + ?Sized,
{
    let mut pairs = Vec::new();
    for block in outer.blocks() {
        for e in outer.block_points(block.id) {
            let mut ranked: Vec<(f64, Point)> = candidates
                .iter()
                .map(|q| {
                    metrics.distance_computations += 1;
                    (e.distance(q), *q)
                })
                .collect();
            ranked.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("finite distances")
                    .then(a.1.id.cmp(&b.1.id))
            });
            for (_, q) in ranked.into_iter().take(k) {
                pairs.push(Pair::new(e, q));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::triplet_id_set;
    use twoknn_index::{GridIndex, PackedIndex};

    fn scattered(n: usize, seed: u64, scale: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
                    ^ seed.wrapping_mul(0xBF58476D1CE4E5B9);
                Point::new(
                    i as u64,
                    (h % 911) as f64 * scale,
                    ((h / 911) % 911) as f64 * scale,
                )
            })
            .collect()
    }

    fn grid(pts: Vec<Point>) -> PackedIndex {
        GridIndex::build(pts, 9).unwrap()
    }

    #[test]
    fn block_marking_matches_conceptual() {
        let a = grid(scattered(120, 1, 0.1));
        let b = grid(scattered(300, 2, 0.1));
        let c = grid(scattered(150, 3, 0.1));
        for (k_ab, k_cb) in [(1, 1), (2, 2), (3, 5), (5, 2)] {
            let q = UnchainedJoinQuery::new(k_ab, k_cb);
            let fast = unchained_block_marking(&a, &b, &c, &q);
            let slow = unchained_conceptual(&a, &b, &c, &q);
            assert_eq!(
                triplet_id_set(&fast.rows),
                triplet_id_set(&slow.rows),
                "k_ab={k_ab} k_cb={k_cb}"
            );
        }
    }

    #[test]
    fn sequential_evaluation_is_wrong() {
        // A and C clustered in different corners, B spread out: evaluating
        // either join first filters B and changes the other join's result.
        let a = grid(
            (0..40)
                .map(|i| Point::new(i, 1.0 + (i % 8) as f64 * 0.2, 1.0 + (i / 8) as f64 * 0.2))
                .collect(),
        );
        let c = grid(
            (0..40)
                .map(|i| Point::new(i, 80.0 + (i % 8) as f64 * 0.2, 80.0 + (i / 8) as f64 * 0.2))
                .collect(),
        );
        let b = grid(scattered(200, 9, 0.45));
        let q = UnchainedJoinQuery::new(2, 2);
        let correct = triplet_id_set(&unchained_conceptual(&a, &b, &c, &q).rows);
        let wrong_ab = triplet_id_set(&unchained_wrong_sequential(&a, &b, &c, &q, true).rows);
        let wrong_cb = triplet_id_set(&unchained_wrong_sequential(&a, &b, &c, &q, false).rows);
        assert_ne!(correct, wrong_ab);
        assert_ne!(correct, wrong_cb);
    }

    #[test]
    fn clustered_outer_enables_pruning() {
        // A clustered in one corner => few Candidate B blocks => most C
        // blocks are Non-Contributing and never joined.
        let a = grid(
            (0..100)
                .map(|i| Point::new(i, 2.0 + (i % 10) as f64 * 0.1, 2.0 + (i / 10) as f64 * 0.1))
                .collect(),
        );
        let b = grid(scattered(400, 10, 0.12));
        let c = grid(scattered(400, 11, 0.12));
        let q = UnchainedJoinQuery::new(2, 2);
        let fast = unchained_block_marking(&a, &b, &c, &q);
        let slow = unchained_conceptual(&a, &b, &c, &q);
        assert_eq!(triplet_id_set(&fast.rows), triplet_id_set(&slow.rows));
        assert!(fast.metrics.blocks_pruned > 0, "{}", fast.metrics);
        assert!(
            fast.metrics.neighborhoods_computed < slow.metrics.neighborhoods_computed,
            "block-marking {} vs conceptual {}",
            fast.metrics.neighborhoods_computed,
            slow.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn empty_relations_produce_empty_results() {
        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let b = grid(scattered(50, 12, 0.2));
        let c = grid(scattered(50, 13, 0.2));
        let q = UnchainedJoinQuery::new(2, 2);
        assert!(unchained_conceptual(&empty, &b, &c, &q).is_empty());
        assert!(unchained_block_marking(&empty, &b, &c, &q).is_empty());
    }
}
