//! Reusable per-query scratch space and the batched "scan block, update
//! kth-distance threshold" kernel.
//!
//! Every `getkNN` call needs the same transient structures: the frontier of
//! the block-distance cursor, a distance buffer for the batched block scan,
//! a predicate mask for the filtered one, and the bounded candidate heap that
//! tracks the current k-th distance; a [`BlockKnn`](crate::BlockKnn) adds
//! its candidate-block list. Allocating them per query dominates the cost
//! of small-`k` selects, so [`ScratchSpace`] owns all of them.
//!
//! ## Lifecycle
//!
//! The kNN entry points borrow a **thread-local** scratch via
//! [`with_thread_scratch`]: a batch of queries executed on one worker thread
//! (the executor's `execute_batch` partitions, the continuous-query
//! maintainer's re-evaluation sweep, a join's per-outer-block loop)
//! therefore shares a single set of allocations automatically — after the
//! first query on a thread, the select hot path allocates nothing but the
//! returned [`Neighborhood`]. Callers that drive a block ordering themselves
//! pass a scratch explicitly to [`crate::DistanceCursor::new`].
//!
//! ## The kth-distance kernel
//!
//! [`KthHeap`] is a bounded max-heap over `(squared distance, point id)` —
//! the same total order [`Neighborhood::from_unsorted`] sorts by, so the
//! surviving k points are exactly the ones the row-oriented implementation
//! kept. [`KthHeap::scan_block`] processes a whole SoA block before touching
//! the heap: one vectorizable [`euclidean_sq_batch`] pass fills the distance
//! buffer, then a tight merge loop folds the buffer into the heap. Once the
//! heap is full, its root is the running k-th distance τ; blocks whose
//! MINDIST exceeds τ are skipped entirely (strictly greater, so distance
//! ties keep resolving by id exactly as before). The merge tests τ first,
//! too: a lane farther than τ is dropped before a `Point` is built or the
//! heap is touched, which is most lanes once the first block has filled
//! the heap.

use std::cell::RefCell;
use std::collections::BinaryHeap;

use twoknn_geometry::{euclidean_sq_batch, Point};

use crate::block_knn::Candidate;
use crate::neighborhood::{nearer_first, Neighbor, Neighborhood};
use crate::ordering::{FrontierEntry, OrderedF64};

/// An entry of the bounded candidate heap: a point and its squared distance
/// from the query. Max-heap order over `(distance, id)`, matching the sort
/// order of [`Neighborhood::from_unsorted`].
#[derive(Debug, Clone, Copy)]
struct KthEntry {
    key: OrderedF64,
    point: Point,
}

impl PartialEq for KthEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.point.id == other.point.id
    }
}
impl Eq for KthEntry {}
impl PartialOrd for KthEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KthEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.point.id.cmp(&other.point.id))
    }
}

/// A bounded max-heap tracking the `k` nearest points seen so far, keyed by
/// `(squared distance, point id)`; [`crate::get_knn`] reaches it through
/// [`ScratchSpace`].
#[derive(Debug, Default)]
pub(crate) struct KthHeap {
    k: usize,
    heap: BinaryHeap<KthEntry>,
}

impl KthHeap {
    /// Clears the heap and re-bounds it at `k`, retaining the allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Whether the heap holds `k` candidates (the threshold is live).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The squared k-th distance τ² — the pruning threshold. Infinite until
    /// the heap is full.
    #[inline]
    pub fn threshold_sq(&self) -> f64 {
        match self.heap.peek() {
            Some(top) if self.is_full() => top.key.0,
            _ => f64::INFINITY,
        }
    }

    /// Offers one candidate to the heap.
    #[inline]
    pub fn insert(&mut self, dist_sq: f64, point: Point) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(KthEntry {
                key: OrderedF64(dist_sq),
                point,
            });
            return;
        }
        let mut top = self.heap.peek_mut().expect("heap is full and k >= 1");
        if (OrderedF64(dist_sq), point.id) < (top.key, top.point.id) {
            *top = KthEntry {
                key: OrderedF64(dist_sq),
                point,
            };
        }
    }

    /// The block-scan kernel: computes the squared distances from `q` to the
    /// whole SoA block in one batched column pass (into `dist`), then merges
    /// the buffer into the heap in a second tight loop.
    ///
    /// The merge tests τ first: τ² sits in a local, a lane with `d² > τ²` is
    /// skipped before a `Point` is built or the heap is touched, and τ² is
    /// reloaded only after an insert. The test is strict, so a lane *at* τ
    /// still reaches [`KthHeap::insert`], where the id breaks the tie.
    pub fn scan_block(
        &mut self,
        q: &Point,
        block: crate::points::BlockPoints<'_>,
        dist: &mut Vec<f64>,
    ) {
        if block.is_empty() {
            return;
        }
        fill(q, block, dist);
        self.merge(block, dist, |_| true);
    }

    /// The predicate-masked variant of [`KthHeap::scan_block`]: the batched
    /// distance pass runs over the whole block exactly as before, but only
    /// lanes whose `mask` bit is set are offered to the heap.
    ///
    /// Used by the filtered kNN kernel: τ then tracks the k-th *matching*
    /// distance, which is never smaller than the unfiltered one, so MINDIST
    /// pruning against it stays conservative (sound) under filtering.
    pub fn scan_block_masked(
        &mut self,
        q: &Point,
        block: crate::points::BlockPoints<'_>,
        mask: &[bool],
        dist: &mut Vec<f64>,
    ) {
        debug_assert_eq!(mask.len(), block.len(), "mask must cover the block");
        if block.is_empty() {
            return;
        }
        fill(q, block, dist);
        self.merge(block, dist, |i| mask[i]);
    }

    /// The τ-first merge of a filled distance buffer into the heap, over
    /// the lanes `admit` accepts.
    #[inline]
    fn merge(
        &mut self,
        block: crate::points::BlockPoints<'_>,
        dist: &[f64],
        admit: impl Fn(usize) -> bool,
    ) {
        let (ids, xs, ys) = (block.ids(), block.xs(), block.ys());
        let mut tau_sq = self.threshold_sq();
        for (i, &d) in dist.iter().enumerate() {
            if d > tau_sq || !admit(i) {
                continue;
            }
            self.insert(d, Point::new(ids[i], xs[i], ys[i]));
            tau_sq = self.threshold_sq();
        }
    }

    /// Drains the heap into a [`Neighborhood`] of the query point, sorted and
    /// truncated by the usual `(distance, id)` order.
    pub fn finish(&mut self, query: Point, k: usize) -> Neighborhood {
        let mut members = Vec::with_capacity(self.heap.len());
        members.extend(self.heap.drain().map(|e| Neighbor {
            point: e.point,
            distance: e.key.0.sqrt(),
        }));
        Neighborhood::from_unsorted(query, k, members)
    }

    /// Drains the heap into `members`, which must hold exactly as many
    /// entries as the heap, sorted in [`Neighborhood::from_unsorted`]'s
    /// order — the members [`KthHeap::finish`] would return, with no
    /// allocation.
    pub fn finish_into(&mut self, members: &mut [Neighbor]) {
        assert_eq!(
            members.len(),
            self.heap.len(),
            "the members buffer holds one slot per neighbor found"
        );
        for (slot, e) in members.iter_mut().zip(self.heap.drain()) {
            *slot = Neighbor {
                point: e.point,
                distance: e.key.0.sqrt(),
            };
        }
        members.sort_unstable_by(nearer_first);
    }
}

/// The batched distance pass: `dist[i]` = squared distance from `q` to lane
/// `i` of `block`.
#[inline]
fn fill(q: &Point, block: crate::points::BlockPoints<'_>, dist: &mut Vec<f64>) {
    dist.clear();
    dist.resize(block.len(), 0.0);
    euclidean_sq_batch(q.x, q.y, block.xs(), block.ys(), dist);
}

/// All the per-query transient state of the kNN hot path, reusable across
/// queries. See the module docs for the lifecycle.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    /// Distance buffer of the batched block scan.
    pub(crate) dist: Vec<f64>,
    /// The bounded candidate heap.
    pub(crate) kth: KthHeap,
    /// Frontier of the block-distance cursor: a cursor takes the buffer when
    /// it is created and hands it back when it is dropped.
    pub(crate) frontier: Vec<FrontierEntry>,
    /// Reusable predicate mask of the filtered block kernel: one bool per
    /// lane of the block being scanned, refilled per block.
    pub(crate) mask: Vec<bool>,
    /// Candidate blocks of a [`BlockKnn`](crate::BlockKnn): taken when one
    /// is prepared and handed back when it is dropped.
    pub(crate) candidates: Vec<Candidate>,
    /// `(MAXDIST², count)` of the blocks a [`BlockKnn`](crate::BlockKnn)
    /// walk has pulled, ascending — what its covering radius is read from.
    pub(crate) reach: Vec<(f64, usize)>,
}

impl ScratchSpace {
    /// A fresh scratch space with no capacity reserved; buffers grow to the
    /// working-set size on first use and are retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ScratchSpace> = RefCell::new(ScratchSpace::new());
}

/// Runs `f` with the calling thread's shared [`ScratchSpace`].
///
/// This is how the kNN entry points reuse allocations: all
/// queries executed on one thread — in particular a worker thread draining
/// its share of an `execute_batch` partition, or the continuous-query
/// maintainer re-evaluating subscriptions — share one scratch. Re-entrant
/// calls (an `f` that itself calls a kNN entry point) fall back to a fresh
/// scratch instead of panicking on the `RefCell`.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ScratchSpace) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScratchSpace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointBlock;

    fn kth_heap(k: usize) -> KthHeap {
        let mut heap = KthHeap::default();
        heap.reset(k);
        heap
    }

    fn block(pts: &[(u64, f64, f64)]) -> PointBlock {
        pts.iter().map(|&(id, x, y)| Point::new(id, x, y)).collect()
    }

    #[test]
    fn kth_heap_keeps_the_k_smallest_by_distance_then_id() {
        let q = Point::anonymous(0.0, 0.0);
        let b = block(&[
            (9, 1.0, 0.0), // d²=1, ties with id 4 and 7
            (4, 0.0, 1.0),
            (7, -1.0, 0.0),
            (1, 5.0, 0.0),
        ]);
        let mut heap = kth_heap(2);
        let mut dist = Vec::new();
        heap.scan_block(&q, b.view(), &mut dist);
        let n = heap.finish(q, 2);
        // Same tie-break as Neighborhood::from_unsorted: smallest ids win.
        assert_eq!(n.ids(), vec![4, 7]);
        assert_eq!(n.radius(), 1.0);
    }

    #[test]
    fn threshold_goes_live_only_when_full() {
        let mut heap = kth_heap(3);
        assert!(heap.threshold_sq().is_infinite());
        heap.insert(4.0, Point::new(1, 2.0, 0.0));
        heap.insert(1.0, Point::new(2, 1.0, 0.0));
        assert!(!heap.is_full());
        assert!(heap.threshold_sq().is_infinite());
        heap.insert(9.0, Point::new(3, 3.0, 0.0));
        assert!(heap.is_full());
        assert_eq!(heap.threshold_sq(), 9.0);
        // A closer point replaces the current k-th and tightens τ².
        heap.insert(0.25, Point::new(4, 0.5, 0.0));
        assert_eq!(heap.threshold_sq(), 4.0);
        assert_eq!(heap.heap.len(), 3);
    }

    /// The τ-first merge keeps the strict test: a lane at exactly τ² with a
    /// smaller id than the root still replaces it, in the plain and the
    /// masked kernel alike.
    #[test]
    fn a_lane_at_exactly_tau_with_a_smaller_id_replaces_the_root() {
        let q = Point::anonymous(0.0, 0.0);
        let mut dist = Vec::new();
        for masked in [false, true] {
            let mut heap = kth_heap(2);
            heap.scan_block(&q, block(&[(5, 0.5, 0.0), (9, 0.0, 2.0)]).view(), &mut dist);
            assert_eq!(heap.threshold_sq(), 4.0);
            // Id 3 ties the root (id 9) at d² = 4; id 12 ties it too but
            // loses on id; id 1 lies beyond τ.
            let tie = block(&[(12, 2.0, 0.0), (3, -2.0, 0.0), (1, 0.0, -2.5)]);
            if masked {
                heap.scan_block_masked(&q, tie.view(), &[true, true, true], &mut dist);
            } else {
                heap.scan_block(&q, tie.view(), &mut dist);
            }
            assert_eq!(heap.threshold_sq(), 4.0, "masked={masked}");
            assert_eq!(heap.finish(q, 2).ids(), vec![5, 3], "masked={masked}");
        }
    }

    /// A block whose every lane lies beyond τ leaves the heap exactly as it
    /// was — same members, same root.
    #[test]
    fn a_block_entirely_beyond_tau_leaves_the_heap_unchanged() {
        let q = Point::anonymous(0.0, 0.0);
        let mut dist = Vec::new();
        let mut heap = kth_heap(3);
        heap.scan_block(
            &q,
            block(&[(7, 1.0, 0.0), (8, 0.0, 1.5), (9, 2.0, 0.0)]).view(),
            &mut dist,
        );
        let before: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> = heap
                .heap
                .iter()
                .map(|e| (e.key.0.to_bits(), e.point.id))
                .collect();
            v.sort_unstable();
            v
        };
        let far = block(&[(1, 2.0, 0.1), (2, -3.0, 0.0), (3, 0.0, 40.0)]);
        heap.scan_block(&q, far.view(), &mut dist);
        heap.scan_block_masked(&q, far.view(), &[true, false, true], &mut dist);
        let mut after: Vec<(u64, u64)> = heap
            .heap
            .iter()
            .map(|e| (e.key.0.to_bits(), e.point.id))
            .collect();
        after.sort_unstable();
        assert_eq!(after, before);
        assert_eq!(heap.threshold_sq(), 4.0);
        assert_eq!(heap.finish(q, 3).ids(), vec![7, 8, 9]);
    }

    #[test]
    fn reset_retains_capacity_and_rebounds_k() {
        let mut heap = kth_heap(4);
        for i in 0..4 {
            heap.insert(i as f64, Point::new(i, i as f64, 0.0));
        }
        heap.reset(1);
        assert!(heap.heap.is_empty());
        heap.insert(1.0, Point::new(10, 1.0, 0.0));
        heap.insert(0.5, Point::new(11, 0.5, 0.0));
        assert_eq!(heap.finish(Point::anonymous(0.0, 0.0), 1).ids(), vec![11]);
    }

    #[test]
    fn k_zero_heap_accepts_nothing() {
        let mut heap = kth_heap(0);
        heap.insert(1.0, Point::new(1, 1.0, 0.0));
        assert!(heap.heap.is_empty());
        assert!(heap.finish(Point::anonymous(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn thread_scratch_is_reentrancy_safe() {
        let outer = with_thread_scratch(|s| {
            s.dist.push(1.0);
            with_thread_scratch(|inner| inner.dist.len())
        });
        assert_eq!(outer, 0, "re-entrant borrow gets a fresh scratch");
    }
}
