//! Every grid block contains its points, on bounds away from the origin.
//!
//! The grid recipe's cell formula rounds `x - min` before it divides, so a
//! point one ulp past an interior cell edge can floor into the cell before
//! it, whose footprint ends one ulp short of the point. The block's
//! rectangle is the footprint grown to its points' box, so such a point is
//! still inside the rectangle every kNN walk prunes by.
//!
//! The probe puts a point one ulp past every interior x edge of grids with
//! 2..63 cells per axis over a non-square, off-origin extent, and beside
//! each one a focal point and a second point at exactly the same distance on
//! the far side, with a larger id: the `(distance², id)` tie-break says the
//! edge point wins, and a walk that trusts a footprint missing it returns
//! the other one.

use two_knn::core::plan::{Database, Row};
use two_knn::geometry::CellGrid;
use two_knn::index::{check_index_invariants, get_knn, Metrics};
use two_knn::{GridIndex, Point, Rect, SpatialIndex};

fn bounds() -> Rect {
    Rect::new(-3.0, 2.0, 97.0, 62.0)
}

/// The widest distance from an edge point to its focal point, and from the
/// focal point to the tie partner: far below every cell width.
const GAP: f64 = 0.25;

/// One probe case: the point one ulp past an interior edge (id `2i`), its
/// tie partner (id `2i + 1`) and the focal point between them.
struct Case {
    edge_point: Point,
    partner: Point,
    focal: Point,
}

/// The cases of an `n`-cell grid, one per interior x edge, each on its own
/// row (the centre of cell row `i - 1`, far from every y edge and more than
/// `2 * GAP` from the next row).
fn cases(n: usize) -> Vec<Case> {
    let b = bounds();
    let (w, h) = (b.width() / n as f64, b.height() / n as f64);
    (1..n)
        .map(|i| {
            let x = next_up(b.min_x + i as f64 * w);
            let y = b.min_y + (i as f64 - 0.5) * h;
            // The widest gap, halved until both differences are exact (a
            // partner in the next binade up would round).
            let gap = (0..8)
                .map(|j| GAP / f64::from(1 << j))
                .find(|g| (x + g) - x == *g && (x + g + g) - (x + g) == *g)
                .expect("an exact gap");
            let focal = Point::anonymous(x + gap, y);
            let partner = Point::new(2 * i as u64 + 1, focal.x + gap, y);
            Case {
                edge_point: Point::new(2 * i as u64, x, y),
                partner,
                focal,
            }
        })
        .collect()
}

/// The next `f64` above `x`.
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// The `(distance², id)` nearest point of `points` to `focal`.
fn winner(points: &[Point], focal: &Point) -> u64 {
    let key = |p: &Point| ((p.x - focal.x).powi(2) + (p.y - focal.y).powi(2), p.id);
    points
        .iter()
        .min_by(|a, b| key(a).partial_cmp(&key(b)).unwrap())
        .unwrap()
        .id
}

#[test]
fn every_grid_block_contains_its_points_and_knn_ties_break_by_id() {
    let mut outside_footprint = 0;
    for n in 2..=63 {
        let cases = cases(n);
        let points: Vec<Point> = cases
            .iter()
            .flat_map(|c| [c.edge_point, c.partner])
            .collect();
        let grid = CellGrid::new(bounds(), n);
        outside_footprint += points
            .iter()
            .filter(|p| !grid.cell_rect(grid.cell_of(p)).contains(p))
            .count();

        let index = GridIndex::build_with_bounds(points.clone(), bounds(), n).unwrap();
        check_index_invariants(&index).unwrap_or_else(|e| panic!("n = {n}: {e}"));

        // A debug build checks the snapshot invariants as it registers.
        let mut db = Database::new();
        db.register("R", index.clone());
        for c in &cases {
            let want = winner(&points, &c.focal);
            assert_eq!(want, c.edge_point.id, "n = {n}: the lower id wins the tie");
            let mut metrics = Metrics::default();
            let nbr = get_knn(&index, &c.focal, 1, &mut metrics);
            let got: Vec<u64> = nbr.members().iter().map(|m| m.point.id).collect();
            assert_eq!(got, vec![want], "get_knn, n = {n}, focal {}", c.focal);

            let text = format!("FIND R WHERE KNN(1, {:?}, {:?})", c.focal.x, c.focal.y);
            let rows = db.query(&text).unwrap().rows();
            let got: Vec<u64> = rows
                .iter()
                .map(|row| match row {
                    Row::Point(p) => p.id,
                    other => panic!("a select returns points, got {other:?}"),
                })
                .collect();
            assert_eq!(got, vec![want], "Database::query, n = {n}: {text}");
        }
        assert_eq!(index.num_points(), points.len());
    }
    // The probe does reach the rounding: some edge points sit outside the
    // footprint of the cell the grid formula gives them.
    assert_eq!(outside_footprint, 22);
}
