//! Unchained kNN-joins: `(A ⋈kNN B) ∩_B (C ⋈kNN B)` (Section 4.1).
//!
//! Every phase of both plans partitions through
//! [`crate::exec::run_into_shares`], so it runs on the pool the calling
//! thread is bound to: the two joins (or, in Block-Marking, the first join,
//! the classification of the second join's outer blocks and the join of the
//! Contributing ones) and the `∩_B`, whose rows each driving block writes
//! into its own share ([`ByB`]). What stays on the calling thread is
//! grouping the first join's outer points by their `b` and, in
//! Block-Marking, one `locate` per distinct `b` to mark the Candidate
//! blocks.

use twoknn_geometry::Point;
use twoknn_index::{Metrics, Neighbor, SpatialIndex};

use super::on_b::{id_map, ByB, Joined};
use crate::join::contributing_blocks;
use crate::output::{QueryOutput, Triplet};

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
/// component (`∩_B`), producing `(a, b, c)` triplets in `(C ⋈kNN B)` order
/// and then `(A ⋈kNN B)` order. Both joins and the `∩_B` are
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
    let ab = Joined::knn(a, a.blocks(), b, query.k_ab, &mut metrics);
    let cb = Joined::knn(c, c.blocks(), b, query.k_cb, &mut metrics);
    let rows = ByB::outer_by_member(&ab, b.num_points()).triplets(&cb, false, &mut metrics);
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
    // Restrict B to the matched points and join the other outer against
    // that subset.
    let rows = if ab_first {
        let ab = ByB::outer_by_member(
            &Joined::knn(a, a.blocks(), b, query.k_ab, &mut metrics),
            b.num_points(),
        );
        let cb = join_against_points(c, ab.keys(), query.k_cb, &mut metrics);
        ab.triplets(&cb, false, &mut metrics)
    } else {
        let cb = Joined::knn(c, c.blocks(), b, query.k_cb, &mut metrics);
        let mut seen = id_map(cb.members.len().min(b.num_points()));
        let b_subset: Vec<Point> = cb
            .members
            .iter()
            .map(|n| n.point)
            .filter(|p| seen.insert(p.id, ()).is_none())
            .collect();
        let ab = join_against_points(a, &b_subset, query.k_ab, &mut metrics);
        ByB::outer_by_member(&ab, b_subset.len()).triplets(&cb, false, &mut metrics)
    };
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
/// only on the shared Candidate marks, never on another `C` block), then
/// the join of the Contributing ones, and the `∩_B` over them again. Rows
/// come in `(c, b)` order and then first-join order, and they and the
/// merged work counters are the same on every pool size.
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
    unchained_block_marking_from(a, b, c, query, false)
}

/// [`unchained_block_marking`] with the join of `first` evaluated first.
/// With `c_first` the roles turn: `first` is `C`, `second` is `A`, the
/// first join takes `k_cb` and the second `k_ab`. The rows still come in
/// role order, `(a, b, c)`: second-join order, then first-join order.
pub(crate) fn unchained_block_marking_from<F, B, S>(
    first: &F,
    b: &B,
    second: &S,
    query: &UnchainedJoinQuery,
    c_first: bool,
) -> QueryOutput<Triplet>
where
    F: SpatialIndex + Sync + ?Sized,
    B: SpatialIndex + Sync + ?Sized,
    S: SpatialIndex + Sync + ?Sized,
{
    let (k_first, k_second) = if c_first {
        (query.k_cb, query.k_ab)
    } else {
        (query.k_ab, query.k_cb)
    };
    let mut metrics = Metrics::default();

    // Lines 1–3: the first join, its outer points grouped by matched b.
    let by_b = ByB::outer_by_member(
        &Joined::knn(first, first.blocks(), b, k_first, &mut metrics),
        b.num_points(),
    );

    // Lines 4–8: mark Candidate blocks of B (blocks containing matched b's),
    // one locate per distinct b.
    let mut candidate = vec![false; b.num_blocks()];
    for b_point in by_b.keys() {
        if let Some(block_id) = b.locate(b_point) {
            candidate[block_id as usize] = true;
        }
    }
    let candidate_metas: Vec<_> = b
        .blocks()
        .iter()
        .filter(|blk| candidate[blk.id as usize])
        .copied()
        .collect();

    // Lines 9–24: classify the blocks of the second join's outer relation,
    // partitioned across workers. The "process only the Safe blocks"
    // shortcut: a block whose own region holds a matched b point is
    // Contributing outright; any other is tested against the search
    // threshold of its center's neighborhood over B.
    let contributing = contributing_blocks(
        second.blocks(),
        b,
        k_second,
        |block| {
            candidate_metas
                .iter()
                .any(|bb| bb.mbr.intersects(&block.mbr))
        },
        |block, nbr_center| {
            let center = block.center();
            let reach = search_threshold(nbr_center.radius(), block.diagonal(), &center);
            candidate_metas
                .iter()
                .any(|bb| bb.mindist(&center) <= reach)
        },
        &mut metrics,
    );

    // Lines 25–34: join the points of the Contributing blocks, off one
    // candidate list of B blocks per block, and intersect on B.
    let second_join = Joined::knn(second, &contributing, b, k_second, &mut metrics);
    let rows = by_b.triplets(&second_join, c_first, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// How far from a block's `center` a matched `b` can lie and still be among
/// the neighbors of one of the block's points, given the `radius` of the
/// center's neighborhood and the block's `diagonal` (Procedure 4's search
/// threshold), widened by the floating-point error of the test.
///
/// In exact arithmetic a point `c` of the block lies within half a diagonal
/// of the center, so its `k`-th neighbor distance is at most `radius + d/2`
/// (the center's `k` neighbors are candidates for `c` too), and each of
/// its neighbors lies within `radius + d` of the center. That bound is
/// tight: a corner point, the center's neighbor straight behind the center
/// and a `b` tying with it straight beyond the corner reach it exactly, and
/// lattice data makes such ties routine. So `radius + d` has no slack to
/// absorb rounding, and the test must not prune inside the error of its
/// operands:
/// * every distance (`radius`, `d`, the MINDIST) is a square root of a sum
///   of squares of correctly rounded coordinate differences, within
///   `3u` of its exact value, relative, where `u = ε/2`; the sum
///   `radius + d` adds `u`; together less than `4ε` of the threshold;
/// * the computed center is off the exact one by a rounding of
///   `(min + max) / 2` per axis, at most `ε (|x| + |y|) / 2` in all, and
///   that offset counts twice (once for `c`, once for its neighbor).
///
/// Hence the margin `4ε (threshold + |x| + |y|)`, a few ulps of the
/// operands. Points in a block lie inside its rectangle (the grid recipe
/// widens a block to its points), so a block that fails the widened test
/// holds no point with a Candidate neighbor.
fn search_threshold(radius: f64, diagonal: f64, center: &Point) -> f64 {
    let threshold = radius + diagonal;
    threshold + 4.0 * f64::EPSILON * (threshold + center.x.abs() + center.y.abs())
}

/// Joins each point of `outer` against an explicit list of candidate points
/// (used only by the deliberately wrong sequential plan).
fn join_against_points<'a, O>(
    outer: &'a O,
    candidates: &[Point],
    k: usize,
    metrics: &mut Metrics,
) -> Joined<'a, O>
where
    O: SpatialIndex + ?Sized,
{
    let mut members = Vec::new();
    for block in outer.blocks() {
        for e in outer.block_points(block.id) {
            let mut ranked: Vec<Neighbor> = candidates
                .iter()
                .map(|q| {
                    metrics.distance_computations += 1;
                    Neighbor {
                        point: *q,
                        distance: e.distance(q),
                    }
                })
                .collect();
            ranked.sort_by(|a, b| {
                a.distance
                    .partial_cmp(&b.distance)
                    .expect("finite distances")
                    .then(a.point.id.cmp(&b.point.id))
            });
            members.extend(ranked.into_iter().take(k));
        }
    }
    Joined {
        outer,
        blocks: outer.blocks(),
        len: k.min(candidates.len()),
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::triplet_id_set;
    use twoknn_geometry::Rect;
    use twoknn_index::{brute_force_knn, GridIndex, PackedIndex, StrRTree};

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

    /// The mark on off-origin lattice data, where distances tie exactly.
    /// `C` is one block of coincident points: an STR leaf hugs its points,
    /// so the block's diagonal is 0 and its search threshold is its
    /// center's k-th distance alone. Every `B` block is one lattice point,
    /// so the Candidate block of that k-th neighbor lies at exactly the
    /// threshold, and nothing settles the `C` block before the test. Both
    /// orientations return the conceptual QEP's rows.
    #[test]
    fn block_marking_keeps_exact_ties_on_off_origin_lattices() {
        let bounds = Rect::new(-3.0, 2.0, 97.0, 62.0);
        let lattice = |offset: f64| -> Vec<Point> {
            let (columns, rows) = (26, 16);
            (0..columns * rows)
                .map(|i| {
                    let x = bounds.min_x + offset + (i % columns) as f64 * 4.0;
                    let y = bounds.min_y + offset + (i / columns) as f64 * 4.0;
                    Point::new(i, x, y)
                })
                .collect()
        };
        let b = StrRTree::build(lattice(0.0), 1).unwrap();
        let a = GridIndex::build_with_bounds(lattice(2.0), bounds, 7).unwrap();
        let mut ties = 0;
        for site in 0..24u64 {
            // Every other site on a B lattice point, the rest midway
            // between four.
            let half = 2.0 * (site % 2) as f64;
            let x = bounds.min_x + (site * 4) as f64 + half;
            let y = bounds.min_y + (site % 7 * 8) as f64 + half;
            let c = StrRTree::build((0..=site % 3).map(|id| Point::new(id, x, y)).collect(), 4)
                .unwrap();
            let block = c.blocks().iter().find(|blk| blk.count > 0).unwrap();
            assert_eq!(block.diagonal(), 0.0, "coincident points");
            for k_cb in 1..=3 {
                let radius = brute_force_knn(&b, &block.center(), k_cb).radius();
                ties += b
                    .blocks()
                    .iter()
                    .filter(|bb| bb.count > 0 && bb.mindist(&block.center()) == radius)
                    .count();
            }
            for (k_ab, k_cb) in (1..=3).flat_map(|k| (1..=3).map(move |j| (k, j))) {
                let q = UnchainedJoinQuery::new(k_ab, k_cb);
                let want = triplet_id_set(&unchained_conceptual(&a, &b, &c, &q).rows);
                let a_first = unchained_block_marking(&a, &b, &c, &q);
                let c_first = unchained_block_marking_from(&c, &b, &a, &q, true);
                let ctx = format!("site ({x}, {y}), k_ab={k_ab} k_cb={k_cb}");
                assert_eq!(triplet_id_set(&a_first.rows), want, "A first, {ctx}");
                assert_eq!(triplet_id_set(&c_first.rows), want, "C first, {ctx}");
            }
        }
        assert!(ties > 0, "no B block at exactly a threshold");
    }

    /// The tight case of the search threshold, where rounding alone decides.
    /// The classified block holds two points a diagonal apart, `(46, 31)` and
    /// `(48, 33)`; its center's nearest `b` lies `6√2` straight behind the
    /// center, and the Candidate `b` (matched by the one point of the other
    /// outer relation) `8√2` straight ahead: exactly `radius + diagonal`, and
    /// the corner `(48, 33)` ties between the two at `7√2`, taking the
    /// Candidate on its lower id. Computed, the MINDIST `√128` rounds one ulp
    /// above `√72 + √8`, so an unwidened `mindist <= radius + diagonal`
    /// prunes the block and loses its row. Both orientations, against the
    /// conceptual QEP.
    #[test]
    fn block_marking_keeps_a_block_whose_bound_rounds_below_its_candidate() {
        let (radius, diagonal, reach) = (72f64.sqrt(), 8f64.sqrt(), 128f64.sqrt());
        assert!(reach > radius + diagonal, "the rounding this test needs");
        let b = StrRTree::build(
            vec![Point::new(0, 55.0, 40.0), Point::new(1, 41.0, 26.0)],
            1,
        )
        .unwrap();
        let block = StrRTree::build(
            vec![Point::new(0, 46.0, 31.0), Point::new(1, 48.0, 33.0)],
            2,
        )
        .unwrap();
        let single = StrRTree::build(vec![Point::new(0, 55.0, 40.5)], 1).unwrap();
        let q = UnchainedJoinQuery::new(1, 1);
        let want = triplet_id_set(&unchained_conceptual(&single, &b, &block, &q).rows);
        assert_eq!(want.len(), 1, "the corner's row");
        let a_first = unchained_block_marking(&single, &b, &block, &q);
        assert_eq!(triplet_id_set(&a_first.rows), want, "A first");
        let want = triplet_id_set(&unchained_conceptual(&block, &b, &single, &q).rows);
        let c_first = unchained_block_marking_from(&single, &b, &block, &q, true);
        assert_eq!(triplet_id_set(&c_first.rows), want, "C first");
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
