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
