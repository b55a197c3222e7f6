//! The spatial guard registry: which standing queries can a write at a
//! given position possibly affect?
//!
//! Guards are registered per relation. Each relation keeps its bounded
//! guard rectangles bucketed in a clamped [`CellGrid`] — the grid the index
//! recipe, the shard map and the store's delta overlay cut space with too,
//! sized by the same [`fanout`] and 2× [`outgrown`] rule as the overlay
//! (about 8 rectangles a cell, at most 64 cells per axis). A rectangle is
//! registered in every cell of its [`CellGrid::span`], and a probe point
//! falls in exactly one cell, [`CellGrid::cell_of`]. Both clamp through one
//! monotone function per axis, so a point inside a guard rectangle always
//! lands in a cell that rectangle was registered in — points and rectangles
//! far outside the anchored extent meet in the edge cells and are resolved
//! by the exact containment test.
//!
//! Unbounded guards ([`Guard::Everything`]) are kept in a side list: they
//! match every probe, no grid traffic.

use std::collections::{BTreeSet, HashMap};

use twoknn_geometry::{fanout, outgrown, CellGrid, Point, Rect};

use super::SubscriptionId;

/// The guard a subscription registers against one relation.
#[derive(Debug, Clone)]
pub(crate) enum Guard {
    /// Every write to the relation may change the result (e.g. the outer
    /// side of a kNN-join: any insert creates new rows).
    Everything,
    /// Only writes whose old or new position falls inside one of these
    /// rectangles can change the result. An empty list means *no* write to
    /// this relation can (e.g. the C-side of a chained join whose result is
    /// empty because A is).
    Regions(Vec<Rect>),
}

impl Guard {
    /// Merges another guard for the same (subscription, relation) pair —
    /// used when a relation plays several roles in one query (e.g. both
    /// sides of an unchained join).
    pub(crate) fn merge(self, other: Guard) -> Guard {
        match (self, other) {
            (Guard::Regions(mut a), Guard::Regions(b)) => {
                a.extend(b);
                Guard::Regions(a)
            }
            _ => Guard::Everything,
        }
    }
}

/// Target number of guard rectangles per registry cell.
const CELL_TARGET: usize = 8;
/// Upper bound on the registry grid's cells per axis.
const MAX_CELLS_PER_AXIS: usize = 64;

/// All guards registered against one relation.
#[derive(Debug, Default)]
struct RelationGuards {
    /// Every subscription guarding this relation, with its exact guard.
    guards: HashMap<SubscriptionId, Guard>,
    /// Subscriptions with an unbounded guard (sorted for determinism).
    unbounded: BTreeSet<SubscriptionId>,
    /// The decomposition, anchored at the last re-bucket; `None` iff no
    /// bounded rectangles are registered.
    grid: Option<CellGrid>,
    /// Per cell: `(subscription, index into its rect list)` for every
    /// rectangle overlapping the cell — a probe tests only the rects
    /// registered in its cell, never a subscription's whole rect list.
    cells: Vec<Vec<(SubscriptionId, usize)>>,
    /// Total registered rectangles (sizes the fanout).
    rect_count: usize,
}

impl RelationGuards {
    fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// Registers one subscription's bounded rectangles into the grid. Each
    /// rectangle visits each overlapped cell exactly once, so `(sub, rect)`
    /// entries are unique per cell by construction — no dedup scan needed.
    fn bucket(&mut self, grid: CellGrid, sub: SubscriptionId, rects: &[Rect]) {
        for (index, rect) in rects.iter().enumerate() {
            let (columns, rows) = grid.span(rect);
            for row in rows {
                for column in columns.clone() {
                    self.cells[row * grid.per_axis() + column].push((sub, index));
                }
            }
        }
    }

    /// Rebuilds the grid decomposition over the current guard population.
    fn rebucket(&mut self) {
        let mut extent: Option<Rect> = None;
        let mut rects = 0usize;
        for guard in self.guards.values() {
            if let Guard::Regions(list) = guard {
                rects += list.len();
                for r in list {
                    extent = Some(match extent {
                        Some(e) => e.union(r),
                        None => *r,
                    });
                }
            }
        }
        self.rect_count = rects;
        self.grid = extent
            .map(|bounds| CellGrid::new(bounds, fanout(rects, CELL_TARGET, MAX_CELLS_PER_AXIS)));
        let Some(grid) = self.grid else {
            self.cells = Vec::new();
            return;
        };
        self.cells = vec![Vec::new(); grid.num_cells()];
        let subs: Vec<SubscriptionId> = self.guards.keys().copied().collect();
        for sub in subs {
            if let Guard::Regions(list) = self.guards[&sub].clone() {
                self.bucket(grid, sub, &list);
            }
        }
    }

    /// Installs (or replaces) one subscription's guard.
    fn install(&mut self, sub: SubscriptionId, guard: Guard) {
        self.remove(sub);
        match &guard {
            Guard::Everything => {
                self.unbounded.insert(sub);
                self.guards.insert(sub, guard);
            }
            Guard::Regions(rects) => {
                let rects = rects.clone();
                self.rect_count += rects.len();
                self.guards.insert(sub, guard);
                // Re-anchor when the decomposition is geometrically stale or
                // the new rectangles outgrow the anchored extent badly
                // enough that edge cells would crowd; otherwise bucket
                // incrementally (clamping keeps correctness either way).
                let desired = fanout(self.rect_count, CELL_TARGET, MAX_CELLS_PER_AXIS);
                match self.grid {
                    Some(grid) if !outgrown(grid.per_axis(), desired) => {
                        self.bucket(grid, sub, &rects)
                    }
                    _ => self.rebucket(),
                }
            }
        }
    }

    /// Removes one subscription's guard entirely.
    fn remove(&mut self, sub: SubscriptionId) {
        let Some(previous) = self.guards.remove(&sub) else {
            return;
        };
        match previous {
            Guard::Everything => {
                self.unbounded.remove(&sub);
            }
            Guard::Regions(rects) => {
                self.rect_count -= rects.len();
                for cell in &mut self.cells {
                    cell.retain(|(s, _)| *s != sub);
                }
            }
        }
    }

    /// Splits this relation's subscriptions into affected / total for a
    /// batch of write positions. Cost is O(positions × cell occupancy):
    /// only the rects registered in a probe's cell are containment-tested,
    /// never a candidate subscription's whole rect list.
    fn probe(&self, positions: &[Point], affected: &mut BTreeSet<SubscriptionId>) {
        affected.extend(self.unbounded.iter().copied());
        let Some(grid) = self.grid else {
            return;
        };
        for p in positions {
            for (sub, index) in &self.cells[grid.cell_of(p)] {
                if affected.contains(sub) {
                    continue;
                }
                let Guard::Regions(rects) = &self.guards[sub] else {
                    unreachable!("only bounded guards are bucketed");
                };
                if rects[*index].contains(p) {
                    affected.insert(*sub);
                }
            }
        }
    }
}

/// Guards of every subscription, keyed by relation name.
#[derive(Debug, Default)]
pub(crate) struct GuardRegistry {
    relations: HashMap<String, RelationGuards>,
}

impl GuardRegistry {
    /// Installs (or replaces) a subscription's guards. Relations the
    /// subscription previously guarded but no longer does are cleaned up by
    /// [`GuardRegistry::remove`]; standing queries reference a fixed
    /// relation set, so install always covers the same names.
    pub(crate) fn install(&mut self, sub: SubscriptionId, guards: HashMap<String, Guard>) {
        for (relation, guard) in guards {
            self.relations
                .entry(relation)
                .or_default()
                .install(sub, guard);
        }
    }

    /// Removes a subscription's guards from every relation.
    pub(crate) fn remove(&mut self, sub: SubscriptionId) {
        self.relations.retain(|_, guards| {
            guards.remove(sub);
            !guards.is_empty()
        });
    }

    /// Probes a publish on `relation` with the batch's effective write
    /// positions (old and new). Returns the affected subscriptions and the
    /// total number guarding the relation — `total - affected.len()` is the
    /// number of guard-pruned skips.
    pub(crate) fn probe(
        &self,
        relation: &str,
        positions: &[Point],
    ) -> (BTreeSet<SubscriptionId>, usize) {
        let mut affected = BTreeSet::new();
        let Some(guards) = self.relations.get(relation) else {
            return (affected, 0);
        };
        guards.probe(positions, &mut affected);
        (affected, guards.guards.len())
    }

    /// Number of subscriptions guarding `relation` — O(1), no set
    /// materialization (the skip counter's denominator on every publish).
    pub(crate) fn count_on(&self, relation: &str) -> usize {
        self.relations
            .get(relation)
            .map(|guards| guards.guards.len())
            .unwrap_or(0)
    }

    /// Whether `sub` currently guards `relation` — O(1) (the dirty-set
    /// filter on the publish path).
    pub(crate) fn is_guarding(&self, relation: &str, sub: SubscriptionId) -> bool {
        self.relations
            .get(relation)
            .map(|guards| guards.guards.contains_key(&sub))
            .unwrap_or(false)
    }

    /// Every subscription guarding `relation` (what a wholesale replacement
    /// of the relation re-evaluates).
    pub(crate) fn all_on(&self, relation: &str) -> BTreeSet<SubscriptionId> {
        self.relations
            .get(relation)
            .map(|guards| guards.guards.keys().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    fn ids(set: &BTreeSet<SubscriptionId>) -> Vec<u64> {
        set.iter().map(|s| s.0).collect()
    }

    #[test]
    fn probe_matches_rect_membership_exactly() {
        let mut reg = GuardRegistry::default();
        for i in 0..50u64 {
            let cx = (i % 10) as f64 * 10.0;
            let cy = (i / 10) as f64 * 10.0;
            reg.install(
                SubscriptionId(i),
                HashMap::from([(
                    "R".to_string(),
                    Guard::Regions(vec![rect(cx, cy, cx + 4.0, cy + 4.0)]),
                )]),
            );
        }
        // A point inside exactly one guard.
        let (affected, total) = reg.probe("R", &[Point::anonymous(21.0, 11.0)]);
        assert_eq!(total, 50);
        assert_eq!(ids(&affected), vec![12]);
        // A point far outside every guard.
        let (affected, _) = reg.probe("R", &[Point::anonymous(500.0, 500.0)]);
        assert!(affected.is_empty());
        // Several points: union of matches.
        let (affected, _) = reg.probe(
            "R",
            &[Point::anonymous(1.0, 1.0), Point::anonymous(43.0, 33.0)],
        );
        assert_eq!(ids(&affected), vec![0, 34]);
        // Unknown relation: nothing guards it.
        let (affected, total) = reg.probe("Nope", &[Point::anonymous(1.0, 1.0)]);
        assert!(affected.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn unbounded_guards_match_every_probe() {
        let mut reg = GuardRegistry::default();
        reg.install(
            SubscriptionId(1),
            HashMap::from([("R".to_string(), Guard::Everything)]),
        );
        reg.install(
            SubscriptionId(2),
            HashMap::from([(
                "R".to_string(),
                Guard::Regions(vec![rect(0.0, 0.0, 1.0, 1.0)]),
            )]),
        );
        let (affected, total) = reg.probe("R", &[Point::anonymous(900.0, 900.0)]);
        assert_eq!(ids(&affected), vec![1]);
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_region_guard_never_matches_but_counts() {
        let mut reg = GuardRegistry::default();
        reg.install(
            SubscriptionId(7),
            HashMap::from([("R".to_string(), Guard::Regions(vec![]))]),
        );
        let (affected, total) = reg.probe("R", &[Point::anonymous(0.0, 0.0)]);
        assert!(affected.is_empty());
        assert_eq!(total, 1);
    }

    #[test]
    fn install_replaces_and_remove_cleans_up() {
        let mut reg = GuardRegistry::default();
        let sub = SubscriptionId(3);
        reg.install(
            sub,
            HashMap::from([(
                "R".to_string(),
                Guard::Regions(vec![rect(0.0, 0.0, 5.0, 5.0)]),
            )]),
        );
        assert_eq!(
            ids(&reg.probe("R", &[Point::anonymous(2.0, 2.0)]).0),
            vec![3]
        );
        // Replace with a guard elsewhere: the old rect no longer matches.
        reg.install(
            sub,
            HashMap::from([(
                "R".to_string(),
                Guard::Regions(vec![rect(50.0, 50.0, 55.0, 55.0)]),
            )]),
        );
        assert!(reg.probe("R", &[Point::anonymous(2.0, 2.0)]).0.is_empty());
        assert_eq!(
            ids(&reg.probe("R", &[Point::anonymous(52.0, 52.0)]).0),
            vec![3]
        );
        reg.remove(sub);
        let (affected, total) = reg.probe("R", &[Point::anonymous(52.0, 52.0)]);
        assert!(affected.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn probes_outside_the_anchored_extent_clamp_soundly() {
        let mut reg = GuardRegistry::default();
        // Anchor the grid with many rects in [0, 100]².
        for i in 0..40u64 {
            let c = i as f64 * 2.0;
            reg.install(
                SubscriptionId(i),
                HashMap::from([(
                    "R".to_string(),
                    Guard::Regions(vec![rect(c, c, c + 1.0, c + 1.0)]),
                )]),
            );
        }
        // A guard installed far outside the extent (no re-anchor forced):
        // a probe inside it must still match via edge-cell clamping.
        reg.install(
            SubscriptionId(99),
            HashMap::from([(
                "R".to_string(),
                Guard::Regions(vec![rect(1_000.0, 1_000.0, 1_001.0, 1_001.0)]),
            )]),
        );
        let (affected, _) = reg.probe("R", &[Point::anonymous(1_000.5, 1_000.5)]);
        assert_eq!(ids(&affected), vec![99]);
    }

    #[test]
    fn merge_prefers_everything() {
        let g = Guard::Regions(vec![rect(0.0, 0.0, 1.0, 1.0)]).merge(Guard::Everything);
        assert!(matches!(g, Guard::Everything));
        let g = Guard::Regions(vec![rect(0.0, 0.0, 1.0, 1.0)])
            .merge(Guard::Regions(vec![rect(2.0, 2.0, 3.0, 3.0)]));
        match g {
            Guard::Regions(r) => assert_eq!(r.len(), 2),
            _ => panic!("expected regions"),
        }
    }
}
