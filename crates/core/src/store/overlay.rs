//! The partitioned overlay grid: cell-bucketed storage of a delta's inserts.
//!
//! Every algorithm of the paper lives or dies by per-block MINDIST/MAXDIST
//! bounds: the Counting threshold test, Block-Marking's Candidate/Safe marks
//! and locality construction all prune a block by looking at its MBR and
//! count. Keeping all un-compacted inserts in **one** overlay block (the PR 3
//! design) silently defeats that machinery under a write burst: the block's
//! MBR spans the whole write footprint, its MINDIST from almost any query
//! point is ~0, and every query degrades toward scanning the entire burst
//! until the next compaction.
//!
//! The [`OverlayGrid`] bounds that erosion. Inserts are bucketed into a
//! small fixed-fanout uniform grid of cells; each **occupied** cell is
//! exposed by [`RelationSnapshot`](super::RelationSnapshot) as its own
//! overlay block whose MBR is the **tight bounding box of the points
//! actually in the cell** (not the cell's footprint), so far-away overlay
//! cells prune exactly like base blocks.
//!
//! Maintenance is incremental and copy-on-write:
//!
//! * each cell's point list is `Arc`-shared with the previous snapshot's
//!   grid; applying a batch clones only the cells the batch dirties
//!   (`Arc::make_mut`), so ingest cost is proportional to the touched
//!   cells, not the delta size;
//! * the decomposition (extent + fanout) is re-anchored only when the
//!   insert count outgrows/undershoots the current fanout geometrically or
//!   when a significant fraction of inserts has drifted outside the extent
//!   (points outside clamp into edge cells in the meantime — their tight
//!   MBRs stay correct, only locally less selective). Re-bucketing is
//!   therefore O(inserts) **amortized O(1) per write**.
//!
//! The fanout is sized from the insert count (≈ `√(n / CELL_TARGET)` cells
//! per axis, at most `MAX_CELLS_PER_AXIS`), so a small delta degenerates to
//! the old single-block overlay and a large burst gets a decomposition
//! matching its size. The cells are a clamped [`CellGrid`], and the sizing
//! and 2× re-anchoring rule are [`fanout`] and [`outgrown`] — the same grid
//! and rule as the standing-query guard registry; only the drift trigger is
//! the overlay's own.
//! `store_snapshots::clustered_burst_keeps_block_pruning_within_a_constant_factor`
//! holds the partitioned overlay to a constant factor of a compacted index.

use std::sync::Arc;

use twoknn_geometry::{fanout, outgrown, CellGrid, Point, Rect};
use twoknn_index::{BlockPoints, PointBlock};

/// Target number of inserts per overlay cell.
const CELL_TARGET: usize = 32;
/// Upper bound on the overlay's cells per axis.
const MAX_CELLS_PER_AXIS: usize = 32;

/// One overlay cell: its bucketed points (in SoA layout, so overlay blocks
/// feed the batched distance kernels exactly like base blocks) plus their
/// tight bounding box.
#[derive(Debug, Clone)]
struct Cell {
    /// The cell's points, `Arc`-shared with the previous grid version until
    /// a write dirties this cell.
    points: Arc<PointBlock>,
    /// Tight bounding box of `points`; meaningless while the cell is empty.
    mbr: Rect,
}

impl Cell {
    fn empty() -> Self {
        Self {
            points: Arc::new(PointBlock::new()),
            mbr: Rect::new(0.0, 0.0, 0.0, 0.0),
        }
    }

    /// The cell's points, copied first if another grid version shares them.
    /// The copy has room for one more point, so an add after it does not
    /// reallocate the columns.
    fn points_mut(&mut self) -> &mut PointBlock {
        if Arc::get_mut(&mut self.points).is_none() {
            let mut copy = PointBlock::with_capacity(self.points.len() + 1);
            copy.extend_from(self.points.view());
            self.points = Arc::new(copy);
        }
        Arc::get_mut(&mut self.points).expect("the cell was just made unique")
    }
}

/// A uniform grid bucketing the delta's inserts by position.
///
/// The decomposition is fixed between re-buckets; points outside its extent
/// are clamped into the edge cells (their tight MBRs keep the index
/// invariants intact). An empty grid has no decomposition and no cells.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlayGrid {
    /// The decomposition, anchored at the last re-bucket; `None` iff the
    /// grid holds no points.
    grid: Option<CellGrid>,
    cells: Vec<Cell>,
    /// Total bucketed points (= the delta's insert count).
    len: usize,
    /// Points currently clamped into edge cells because they lie outside
    /// the decomposition's extent — the drift trigger for re-anchoring.
    outside: usize,
}

impl OverlayGrid {
    /// Total bucketed points.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Cells per axis of the current decomposition (0 when empty).
    pub(crate) fn cells_per_axis(&self) -> usize {
        self.grid.map_or(0, |g| g.per_axis())
    }

    /// Adds one point to its cell, dirtying only that cell.
    pub(crate) fn add(&mut self, p: Point) {
        let grid = *self.grid.get_or_insert_with(|| {
            // First point: a degenerate 1-cell grid anchored at the point.
            // `cell_of` clamps, so the zero-extent bounds are harmless; the
            // next `maybe_rebucket` re-anchors once the delta grows.
            self.cells = vec![Cell::empty()];
            CellGrid::new(Rect::new(p.x, p.y, p.x, p.y), 1)
        });
        if !grid.bounds().contains(&p) {
            self.outside += 1;
        }
        let idx = grid.cell_of(&p);
        let cell = &mut self.cells[idx];
        let tight = Rect::new(p.x, p.y, p.x, p.y);
        cell.mbr = if cell.points.is_empty() {
            tight
        } else {
            cell.mbr.union(&tight)
        };
        cell.points_mut().push(p);
        self.len += 1;
    }

    /// Removes the stored point with `p`'s id from the cell `p`'s
    /// coordinates map to (the caller passes the stored copy, so coordinates
    /// and id both match). Dirty-cell MBRs are recomputed tightly.
    pub(crate) fn remove(&mut self, p: &Point) {
        let grid = self.grid.expect("removed insert must be bucketed");
        let idx = grid.cell_of(p);
        let cell = &mut self.cells[idx];
        let points = cell.points_mut();
        let at = points
            .position_by_id(p.id)
            .expect("removed insert must be bucketed in its coordinate cell");
        points.swap_remove(at);
        self.len -= 1;
        if !grid.bounds().contains(p) {
            self.outside -= 1;
        }
        if let Ok(tight) = points.bounding() {
            cell.mbr = tight;
        }
        if self.len == 0 {
            *self = Self::default();
        }
    }

    /// Re-anchors the decomposition when the insert population has outgrown
    /// it: fanout off by ≥ 2× either way (geometric growth/shrink keeps the
    /// amortized cost O(1) per write), or ≥ ¼ of the points clamped outside
    /// the extent (a drifting workload). `inserts` must iterate the delta's
    /// complete insert list. Returns whether a re-bucket happened.
    pub(crate) fn maybe_rebucket<'a>(
        &mut self,
        inserts: impl ExactSizeIterator<Item = &'a Point> + Clone,
    ) -> bool {
        debug_assert_eq!(inserts.len(), self.len, "grid out of sync with inserts");
        if inserts.len() == 0 {
            return false;
        }
        let desired = fanout(inserts.len(), CELL_TARGET, MAX_CELLS_PER_AXIS);
        let fanout_stale = outgrown(self.cells_per_axis(), desired);
        let drifted = self.outside * 4 >= self.len.max(1);
        if !fanout_stale && !drifted {
            return false;
        }
        self.rebucket(inserts, desired);
        true
    }

    /// Rebuilds every cell over a fresh extent (the inserts' bounding box).
    fn rebucket<'a>(&mut self, inserts: impl Iterator<Item = &'a Point> + Clone, per_axis: usize) {
        let bounds = inserts
            .clone()
            .map(|p| Rect::new(p.x, p.y, p.x, p.y))
            .reduce(|a, b| a.union(&b))
            .expect("rebucket requires inserts");
        let grid = CellGrid::new(bounds, per_axis);
        self.grid = Some(grid);
        self.cells = vec![Cell::empty(); grid.num_cells()];
        self.len = 0;
        self.outside = 0;
        for p in inserts {
            self.add(*p);
        }
    }

    /// The occupied cells in ascending cell-index order:
    /// `(cell index, tight MBR, points)`.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, Rect, BlockPoints<'_>)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.points.is_empty())
            .map(|(idx, c)| (idx, c.mbr, c.points.view()))
    }

    /// The points bucketed in cell `idx`, as a SoA column view.
    pub(crate) fn cell_points(&self, idx: usize) -> BlockPoints<'_> {
        self.cells[idx].points.view()
    }

    /// The cell storing a point at exactly `p`'s coordinates, if any — an
    /// O(cell) lookup (only the cell `p` clamps into can store them).
    pub(crate) fn find_at(&self, p: &Point) -> Option<usize> {
        let idx = self.grid?.cell_of(p);
        self.cells[idx]
            .points
            .iter()
            .any(|q| q.x == p.x && q.y == p.y)
            .then_some(idx)
    }

    /// Whether `points` is the same `Arc` as cell `idx`'s list — lets tests
    /// prove un-dirtied cells are shared, not copied, across versions.
    #[cfg(test)]
    pub(crate) fn shares_cell_with(&self, other: &OverlayGrid, idx: usize) -> bool {
        Arc::ptr_eq(&self.cells[idx].points, &other.cells[idx].points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, cx: f64, cy: f64, id_base: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(
                    id_base + i as u64,
                    cx + (h % 1000) as f64 * 0.01,
                    cy + ((h / 1000) % 1000) as f64 * 0.01,
                )
            })
            .collect()
    }

    fn filled(points: &[Point]) -> OverlayGrid {
        let mut g = OverlayGrid::default();
        for p in points {
            g.add(*p);
        }
        g.maybe_rebucket(points.iter());
        g
    }

    #[test]
    fn fanout_grows_with_insert_count_and_caps() {
        let fanout = |n| fanout(n, CELL_TARGET, MAX_CELLS_PER_AXIS);
        assert_eq!(fanout(0), 1);
        assert_eq!(fanout(32), 1);
        assert_eq!(fanout(33), 2);
        assert_eq!(fanout(10_000), 18);
        assert_eq!(fanout(10_000_000), 32, "capped");
    }

    #[test]
    fn cells_partition_the_inserts_with_tight_mbrs() {
        let pts = cluster(500, 40.0, 40.0, 0);
        let g = filled(&pts);
        assert!(g.cells_per_axis() > 1, "a 500-point burst must partition");
        let mut covered = 0;
        for (_, mbr, cell_pts) in g.occupied() {
            covered += cell_pts.len();
            let tight = cell_pts.bounding().unwrap();
            assert_eq!(mbr, tight, "cell MBR must be exactly tight");
        }
        assert_eq!(covered, 500, "every insert in exactly one cell");
        // Every point is findable via the O(cell) coordinate lookup.
        for p in &pts {
            let idx = g.find_at(p).expect("stored point must be findable");
            assert!(g.cell_points(idx).iter().any(|q| q.id == p.id));
        }
        assert!(g.find_at(&Point::anonymous(-999.0, -999.0)).is_none());
    }

    #[test]
    fn removal_keeps_mbrs_tight_and_empties_reset() {
        let pts = cluster(100, 10.0, 10.0, 0);
        let mut g = filled(&pts);
        for p in &pts {
            g.remove(p);
        }
        assert_eq!(g.len(), 0);
        assert_eq!(g.cells_per_axis(), 0, "fully drained grid resets");
        assert_eq!(g.occupied().count(), 0);
    }

    #[test]
    fn undirtied_cells_are_arc_shared_across_clones() {
        let pts = cluster(400, 20.0, 20.0, 0);
        let g = filled(&pts);
        let mut next = g.clone();
        // Dirty exactly one cell.
        let victim = pts[0];
        next.remove(&victim);
        let dirty = g.grid.unwrap().cell_of(&victim);
        let mut shared = 0;
        let mut total = 0;
        for idx in 0..g.cells.len() {
            if g.cells[idx].points.is_empty() {
                continue;
            }
            total += 1;
            if next.shares_cell_with(&g, idx) {
                shared += 1;
            } else {
                assert_eq!(idx, dirty, "only the dirtied cell may be copied");
            }
        }
        assert_eq!(shared, total - 1, "all un-dirtied cells stay shared");
    }

    #[test]
    fn drift_outside_the_extent_triggers_a_rebucket() {
        let mut pts = cluster(200, 0.0, 0.0, 0);
        let mut g = filled(&pts);
        let anchored = g.grid.unwrap().bounds();
        // A second cluster far away: clamped into edge cells at first…
        let far = cluster(200, 500.0, 500.0, 10_000);
        for p in &far {
            g.add(*p);
        }
        pts.extend(far);
        assert!(g.outside > 0, "far points start clamped");
        // …until the batch-end rebucket re-anchors the decomposition.
        assert!(g.maybe_rebucket(pts.iter()));
        assert!(g.grid.unwrap().bounds().contains_rect(&anchored));
        assert_eq!(g.outside, 0);
        for (_, mbr, cell_pts) in g.occupied() {
            assert_eq!(mbr, cell_pts.bounding().unwrap());
        }
    }
}
