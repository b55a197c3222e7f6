//! Seeded properties of [`CellGrid`] over bounds with zero-width and
//! zero-height extents, 1 to 64 cells per axis, and probes on cell edges, on
//! the bounds and far outside them:
//!
//! * `cell_of` is a cell of the grid;
//! * an in-bounds point lies in `cell_rect(cell_of(p))`, up to the rounding
//!   of `cell_of`'s subtraction (see [`rounding`]);
//! * every point inside a rectangle falls in a cell of the rectangle's
//!   `span` — why the guard registry, which files a rectangle under its span
//!   and probes a point's one cell, never misses a guard;
//! * the `cell_rect`s tile `bounds` exactly: shared edges are equal bit for
//!   bit and the outer edges are the bounds.

use twoknn_geometry::{CellGrid, Point, Rect};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / ((1u64 << 53) - 1) as f64 * (hi - lo)
    }
}

/// Bounds of every shape the grids are built over: ordinary, far from the
/// origin, tiny, and zero-width, zero-height or both.
fn bounds(rng: &mut XorShift) -> Rect {
    let (x, y) = (rng.range(-1e3, 1e3), rng.range(-1e3, 1e3));
    let scale = [1e-6, 1.0, 100.0, 1e5][rng.below(4) as usize];
    let (w, h) = (rng.range(0.0, scale), rng.range(0.0, scale));
    match rng.below(6) {
        0 => Rect::new(x, y, x, y + h),
        1 => Rect::new(x, y, x + w, y),
        2 => Rect::new(x, y, x, y),
        _ => Rect::new(x, y, x + w, y + h),
    }
}

/// How far an in-bounds point may lie outside the footprint of the cell it
/// falls in: two ulps of the bounds' largest coordinate. `cell_of` rounds
/// `x - min` before it divides, so a point one ulp past a cell edge can
/// floor into the cell before it (seen on bounds away from the origin; the
/// seeded inputs stay under 0.83 ε × that magnitude).
fn rounding(b: &Rect) -> f64 {
    let magnitude = [b.min_x, b.min_y, b.max_x, b.max_y]
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()));
    2.0 * f64::EPSILON * magnitude
}

/// One probe coordinate along an axis: inside, on a cell edge (as
/// `cell_rect` computes it, or one ulp either side), on the bounds, or far
/// outside.
fn coordinate(rng: &mut XorShift, edges: &[f64], min: f64, max: f64) -> f64 {
    let edge = edges[rng.below(edges.len() as u64) as usize];
    match rng.below(8) {
        0 | 1 => rng.range(min, max),
        2 => edge,
        3 => f64::from_bits(edge.to_bits().wrapping_add(1)),
        4 => f64::from_bits(edge.to_bits().wrapping_sub(1)),
        5 => [min, max][rng.below(2) as usize],
        6 => min - rng.range(0.0, 1e6),
        _ => max + rng.range(0.0, 1e9),
    }
}

/// The x and y cell edges of `g`, from its cell footprints.
fn edges(g: &CellGrid) -> (Vec<f64>, Vec<f64>) {
    let n = g.per_axis();
    let mut xs: Vec<f64> = (0..n).map(|i| g.cell_rect(i).min_x).collect();
    xs.push(g.cell_rect(n - 1).max_x);
    let mut ys: Vec<f64> = (0..n).map(|i| g.cell_rect(i * n).min_y).collect();
    ys.push(g.cell_rect(n * (n - 1)).max_y);
    (xs, ys)
}

fn probe(rng: &mut XorShift, g: &CellGrid, xs: &[f64], ys: &[f64]) -> Point {
    let b = g.bounds();
    Point::anonymous(
        coordinate(rng, xs, b.min_x, b.max_x),
        coordinate(rng, ys, b.min_y, b.max_y),
    )
}

#[test]
fn cell_grids_keep_their_four_properties_on_seeded_inputs() {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    for case in 0..1_500 {
        let b = bounds(&mut rng);
        let n = 1 + rng.below(64) as usize;
        let g = CellGrid::new(b, n);
        assert_eq!(g.num_cells(), n * n);
        let (xs, ys) = edges(&g);

        // The footprints tile the bounds exactly.
        assert_eq!((xs[0], xs[n]), (b.min_x, b.max_x), "case {case}");
        assert_eq!((ys[0], ys[n]), (b.min_y, b.max_y), "case {case}");
        for cell in 0..n * n {
            let r = g.cell_rect(cell);
            let (ix, iy) = (cell % n, cell / n);
            assert_eq!(
                r,
                Rect::new(xs[ix], ys[iy], xs[ix + 1], ys[iy + 1]),
                "case {case}: cell {cell} does not share its neighbours' edges"
            );
            assert!(r.min_x <= r.max_x && r.min_y <= r.max_y, "case {case}");
        }

        for _ in 0..40 {
            let p = probe(&mut rng, &g, &xs, &ys);
            let cell = g.cell_of(&p);
            assert!(cell < n * n, "case {case}: {p} -> cell {cell}");
            if b.contains(&p) {
                let r = g.cell_rect(cell);
                assert!(
                    r.expanded(rounding(&b)).contains(&p),
                    "case {case}: {p} in {b:?} falls in cell {cell} = {r:?}"
                );
            }

            // A rectangle with `p` as a corner, and points inside it.
            let q = probe(&mut rng, &g, &xs, &ys);
            let r = Rect::new(p.x.min(q.x), p.y.min(q.y), p.x.max(q.x), p.y.max(q.y));
            let (cols, rows) = g.span(&r);
            for inner in [p, q, Point::anonymous(rng.range(r.min_x, r.max_x), q.y)] {
                let inner = Point::anonymous(
                    inner.x.clamp(r.min_x, r.max_x),
                    inner.y.clamp(r.min_y, r.max_y),
                );
                let c = g.cell_of(&inner);
                assert!(
                    cols.contains(&(c % n)) && rows.contains(&(c / n)),
                    "case {case}: {inner} inside {r:?} falls in cell {c}, \
                     outside the span {cols:?} × {rows:?}"
                );
            }
        }
    }
}
