//! Continuous queries: standing two-kNN-predicate queries incrementally
//! maintained over ingest.
//!
//! The paper's motivating workloads are location-based services over moving
//! objects — the *same* kNN-select / kNN-join queries asked continuously as
//! positions stream in. Re-running every registered query on every position
//! report is the naive plan; this module implements the incremental one
//! (`continuous_queries::far_write_burst_triggers_zero_reevaluations` pins
//! that a write burst outside every guard re-evaluates nothing):
//!
//! ```text
//!  subscribe(spec, strategy)             ingest(relation, ops)
//!        │                                     │ publish (store)
//!        ▼                                     ▼
//!  evaluate once ──► guard region ──►  guard registry probe
//!  (pinned snapshot)  per relation     │            │
//!                                      │ outside    │ intersects
//!                                      ▼            ▼
//!                                  cq_skips     re-evaluate (detached
//!                                  (counted)    WorkerPool job, coalesced)
//!                                                   │
//!                                                   ▼
//!                                       ResultDelta { added, removed }
//!                                                   │
//!                                        Database::poll(subscription)
//! ```
//!
//! A **guard region** is a set of rectangles per referenced relation with
//! the soundness property: *a write whose old and new positions all fall
//! outside the guard cannot change the subscription's result, and leaves
//! the guard itself valid*. [`guard`](self) derives them from the paper's
//! own machinery — kNN-select predicates guard the focal circle with radius
//! the current kth-NN distance; join inner relations guard each outer
//! block's MBR expanded by `kth-NN-dist(block center) + diagonal/2` (sound
//! by the triangle inequality, the same bound Block-Marking's preprocessing
//! exploits); join sides where any insert creates rows (e.g. the outer
//! relation of a kNN-join) are guarded unboundedly — every write to them
//! re-evaluates.
//!
//! The [`registry`](self) buckets guard rectangles into a per-relation
//! uniform grid (the same clamped-cell idiom as the store's overlay grid),
//! so probing a publish costs O(writes × cell occupancy) regardless of how
//! many subscriptions are registered. The [`maintain`](self) module turns
//! publishes into skip/re-evaluate decisions, runs re-evaluations as
//! detached [`WorkerPool`](crate::exec::WorkerPool) jobs (coalesced per
//! subscription under an epoch counter, so write bursts cost one
//! re-evaluation, not one per batch), and emits id-keyed [`ResultDelta`]s.
//! Re-evaluations pin composed snapshots of spatially sharded relations
//! (see [`crate::store`]), so a standing kNN query over a sharded relation
//! prunes whole shards by MINDIST exactly like an ad-hoc one — maintenance
//! cost tracks the shards a subscription's guard actually overlaps.
//!
//! Deltas are **keyed by the rows' point ids**: a retained row whose points
//! merely moved is not re-reported. Accumulated deltas always reconstruct
//! the from-scratch result of the subscription's query at the versions the
//! maintainer evaluated; [`WorkerPool::wait_idle`](crate::exec::WorkerPool::wait_idle)
//! makes that deterministic (every publish observed, one delta per batch
//! that changed the result).

mod guard;
mod maintain;
mod registry;

pub(crate) use maintain::CqEngine;

use crate::plan::Row;

/// Identifies one standing query registered through
/// [`Database::subscribe`](crate::plan::Database::subscribe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub(crate) u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// One incremental update to a standing query's result, produced by a
/// maintenance re-evaluation and consumed through
/// [`Database::poll`](crate::plan::Database::poll).
///
/// Rows are keyed by their component point ids ([`Row::ids`]): `added`
/// holds rows whose id tuple entered the result (with their current
/// positions), `removed` rows whose id tuple left it. The very first delta
/// of a subscription carries the initial evaluation (`removed` empty), so
/// folding a subscription's deltas in order reconstructs its current
/// result from nothing.
#[derive(Debug, Clone)]
pub struct ResultDelta {
    /// Rows that entered the result.
    pub added: Vec<Row>,
    /// Rows that left the result.
    pub removed: Vec<Row>,
    /// The highest published version among the subscription's relations in
    /// the snapshot this delta was evaluated against.
    pub version: u64,
}

impl ResultDelta {
    /// Whether the delta changes nothing (never emitted by the maintainer;
    /// useful for consumers folding deltas).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscription_ids_are_ordered_and_displayable() {
        let a = SubscriptionId(1);
        let b = SubscriptionId(2);
        assert!(a < b);
        assert_eq!(a.to_string(), "sub#1");
    }

    #[test]
    fn empty_delta_is_empty() {
        let d = ResultDelta {
            added: vec![],
            removed: vec![],
            version: 3,
        };
        assert!(d.is_empty());
    }
}

#[cfg(test)]
mod layout_pin {
    //! The clamped-grid layout pin: where the grid recipe, the shard map, the
    //! delta overlay and the guard registry put one seeded point set, compared
    //! line for line with `tests/fixtures/grid_layout_pin.txt`.
    //!
    //! The point set mixes uniform points with points exactly on the cell edges
    //! of 3-, 5- and 7-cell grids, on the bounds and far outside them — the
    //! inputs where a cell formula computed in a different order would move a
    //! point. Coordinates print as Rust's shortest round-trip decimals, so the
    //! fixture is exact to the bit. To re-record after a deliberate layout
    //! change, write `render()`'s output over the fixture.

    use std::collections::HashMap;

    use twoknn_geometry::{Point, Rect};
    use twoknn_index::{GridIndex, SpatialIndex};

    use super::registry::{Guard, GuardRegistry};
    use super::SubscriptionId;
    use crate::plan::Database;
    use crate::store::{Delta, ShardConfig, StoreConfig, WriteOp};

    const FIXTURE: &str = include_str!("../../../../tests/fixtures/grid_layout_pin.txt");

    /// A non-square extent with a non-zero origin, so that the subtraction and
    /// both cell widths round.
    fn bounds() -> Rect {
        Rect::new(-3.0, 2.0, 97.0, 62.0)
    }

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    /// The seeded point set, ids `0..`: uniform points, cell-edge points, bound
    /// points, then points outside the bounds (the last `OUTSIDE`).
    fn point_set() -> Vec<Point> {
        let b = bounds();
        let mut rng = XorShift(0x2545_F491_4F6C_DD1D);
        let mut xy: Vec<(f64, f64)> = (0..240)
            .map(|_| (rng.range(b.min_x, b.max_x), rng.range(b.min_y, b.max_y)))
            .collect();
        for n in [3usize, 5, 7] {
            let (w, h) = (b.width() / n as f64, b.height() / n as f64);
            for i in 0..=n {
                let (ex, ey) = (b.min_x + i as f64 * w, b.min_y + i as f64 * h);
                xy.push((ex, rng.range(b.min_y, b.max_y)));
                xy.push((rng.range(b.min_x, b.max_x), ey));
                xy.push((ex, ey));
            }
        }
        for (x, y) in [
            (b.min_x, 30.0),
            (b.max_x, 30.0),
            (40.0, b.min_y),
            (40.0, b.max_y),
            (b.min_x, b.min_y),
            (b.max_x, b.min_y),
            (b.min_x, b.max_y),
            (b.max_x, b.max_y),
        ] {
            xy.push((x, y));
        }
        xy.extend(outside());
        xy.into_iter()
            .enumerate()
            .map(|(i, (x, y))| Point::new(i as u64, x, y))
            .collect()
    }

    fn outside() -> Vec<(f64, f64)> {
        let b = bounds();
        vec![
            (-50.0, 30.0),
            (150.0, 30.0),
            (40.0, -1e6),
            (40.0, 1e6),
            (-1e9, -1e9),
            (1e9, 1e9),
            (b.max_x + 1e-9, b.max_y + 1e-9),
            (b.min_x - 1e-9, 30.0),
        ]
    }

    const OUTSIDE: usize = 8;

    fn rect(r: &Rect) -> String {
        format!(
            "[{:?}, {:?}, {:?}, {:?}]",
            r.min_x, r.min_y, r.max_x, r.max_y
        )
    }

    fn ids(mut ids: Vec<u64>) -> String {
        ids.sort_unstable();
        ids.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
    }

    fn render_grid(out: &mut Vec<String>, name: &str, index: &impl SpatialIndex) {
        out.push(format!("{name}: bounds {}", rect(&index.bounds())));
        for b in index.blocks() {
            let members = index.block_points(b.id).iter().map(|p| p.id).collect();
            out.push(format!(
                "{name} block {} count {} mbr {} ids {}",
                b.id,
                b.count,
                rect(&b.mbr),
                ids(members)
            ));
        }
    }

    /// Every pinned line: grid recipe, shard map, overlay, guard registry.
    fn render() -> Vec<String> {
        let points = point_set();
        let inside: Vec<Point> = points[..points.len() - OUTSIDE].to_vec();
        let mut out = Vec::new();

        // The grid recipe: explicit bounds (outside points clamp), the points'
        // own bounding box, and a zero-width extent (padded).
        let explicit = GridIndex::build_with_bounds(points.clone(), bounds(), 5).unwrap();
        render_grid(&mut out, "grid5", &explicit);
        for p in &points {
            out.push(format!("grid5 locate {} -> {:?}", p.id, explicit.locate(p)));
        }
        render_grid(
            &mut out,
            "grid7",
            &GridIndex::build(inside.clone(), 7).unwrap(),
        );
        let line: Vec<Point> = inside.iter().map(|p| Point::new(p.id, 11.0, p.y)).collect();
        render_grid(&mut out, "line4", &GridIndex::build(line, 4).unwrap());

        // The shard map: a 3×3 relation registered over `bounds()`.
        let mut db = Database::with_store_config(StoreConfig {
            sharding: ShardConfig::per_axis(3),
            compaction_threshold: usize::MAX,
            ..StoreConfig::default()
        });
        db.register(
            "R",
            GridIndex::build_with_bounds(inside.clone(), bounds(), 9).unwrap(),
        );
        let snap = db.relation("R").unwrap();
        for p in &points {
            out.push(format!(
                "shard {} -> {}",
                p.id,
                snap.shard_map().shard_of(p)
            ));
        }
        for (s, shard) in snap.shards().iter().enumerate() {
            out.push(format!(
                "shard {s} base {} blocks {}",
                rect(&shard.base().bounds()),
                shard.base().num_blocks()
            ));
        }

        // The overlay: every point inserted (ids shifted), a re-bucket on the
        // way, then a few removals and moves applied incrementally.
        let mut delta = Delta::new();
        let shifted = |p: &Point| Point::new(p.id + 10_000, p.x, p.y);
        for p in &points {
            delta.apply(&WriteOp::Upsert(shifted(p)), |_| false);
        }
        for p in points.iter().step_by(7) {
            delta.apply(&WriteOp::Remove(p.id + 10_000), |_| false);
        }
        for p in points.iter().skip(3).step_by(11) {
            let moved = Point::new(p.id + 10_000, p.y, p.x);
            delta.apply(&WriteOp::Upsert(moved), |_| false);
        }
        out.push(format!(
            "overlay cells per axis {}",
            delta.grid().cells_per_axis()
        ));
        for (cell, mbr, members) in delta.grid().occupied() {
            out.push(format!(
                "overlay cell {cell} mbr {} ids {}",
                rect(&mbr),
                ids(members.iter().map(|p| p.id).collect())
            ));
        }

        // The guard registry: two relations, one with a zero-width extent.
        let mut registry = GuardRegistry::default();
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for sub in 0..90u64 {
            let mut rects = Vec::new();
            for _ in 0..1 + sub % 3 {
                let p = points[(rng.next() % points.len() as u64) as usize];
                let (dx, dy) = match rng.next() % 4 {
                    0 => (0.0, 0.0),
                    1 => (0.5, 0.25),
                    2 => (rng.range(0.0, 30.0), rng.range(0.0, 20.0)),
                    _ => (1e3, 1e3),
                };
                rects.push(Rect::new(p.x, p.y, p.x + dx, p.y + dy));
            }
            let line: Vec<Rect> = rects
                .iter()
                .map(|r| Rect::new(11.0, r.min_y, 11.0, r.max_y))
                .collect();
            let guards = if sub % 10 == 9 {
                Guard::Everything
            } else {
                Guard::Regions(rects)
            };
            registry.install(
                SubscriptionId(sub),
                HashMap::from([
                    ("R".to_string(), guards),
                    ("Line".to_string(), Guard::Regions(line)),
                ]),
            );
            if sub % 13 == 12 {
                registry.remove(SubscriptionId(sub - 5));
            }
        }
        for relation in ["R", "Line"] {
            for p in &points {
                let probe = [*p, Point::anonymous(11.0, p.y)];
                let (affected, total) = registry.probe(relation, &probe);
                out.push(format!(
                    "guards {relation} {} of {total} -> {}",
                    p.id,
                    ids(affected.iter().map(|s| s.0).collect())
                ));
            }
        }
        out
    }

    #[test]
    fn clamped_grids_place_the_seeded_points_where_the_fixture_says() {
        let rendered = render();
        let expected: Vec<&str> = FIXTURE.lines().collect();
        for (i, (got, want)) in rendered.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "fixture line {}", i + 1);
        }
        assert_eq!(rendered.len(), expected.len(), "fixture line count");
    }
}
