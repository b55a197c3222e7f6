//! The sorted insert/delete overlay a snapshot carries on top of its base
//! index.
//!
//! A [`Delta`] is always expressed **relative to one base index**: `inserts`
//! holds points that are visible but not stored in the base, `deletes` holds
//! ids of base points that are no longer visible. Both lists are kept sorted
//! (by point id) and duplicate-free, so membership tests are binary searches
//! and two deltas over the same base can be compared structurally.
//!
//! Alongside the id-sorted insert list, the delta maintains an
//! [`OverlayGrid`]: the same inserts bucketed by **position** into a small
//! grid of copy-on-write cells. The grid is what
//! [`RelationSnapshot`](super::RelationSnapshot) materializes as per-cell
//! overlay blocks with tight MBRs, keeping MINDIST pruning effective during
//! write bursts; the sorted list keeps id lookups O(log n). Both structures
//! are updated by [`Delta::apply`], so they can never drift apart.
//!
//! # What a publish copies
//!
//! Every ingest batch clones its shard's delta and edits the clone, so the
//! clone must not cost O(delta). Both id lists are a [`ChunkedList`]: a
//! spine of `Arc`'d sorted chunks of at most 64 entries. Cloning a delta
//! copies the two spines (one pointer per chunk of 16 to 64 entries) and
//! the overlay grid's cell array; each op then copies the one chunk it
//! edits (and the one overlay cell it dirties) the first time the batch
//! touches it. Everything else — the
//! chunks and cells the batch does not edit — is shared with the previous
//! snapshot, so a batch costs O(ops · chunk) plus the spines.

use std::sync::Arc;

use twoknn_geometry::{Point, PointId};

use super::overlay::OverlayGrid;

/// One ingest operation against a versioned relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// Insert a point, replacing any existing point with the same id (the
    /// moving-objects workload: an update is a position report for a known
    /// object id).
    Upsert(Point),
    /// Remove the point with this id, if present.
    Remove(PointId),
}

impl WriteOp {
    /// The id of the point the op writes.
    pub(crate) fn id(&self) -> PointId {
        match self {
            WriteOp::Upsert(p) => p.id,
            WriteOp::Remove(id) => *id,
        }
    }
}

/// Most entries a [`ChunkedList`] chunk holds; one that outgrows it splits
/// into two halves.
const CHUNK: usize = 64;

/// A chunk that shrinks below this merges with a neighbour, when the two
/// fit in one chunk.
const MIN_CHUNK: usize = CHUNK / 4;

/// An entry ordered by a point id: an inserted point or a tombstoned id.
pub trait Keyed: Copy {
    fn key(&self) -> PointId;
}

impl Keyed for Point {
    fn key(&self) -> PointId {
        self.id
    }
}

impl Keyed for PointId {
    fn key(&self) -> PointId {
        *self
    }
}

/// An id-sorted, duplicate-free list stored as a spine of `Arc`'d sorted
/// chunks, each non-empty and at most 64 entries long.
///
/// A clone copies the spine only. An edit copies the one chunk it changes
/// (unless this list already owns it alone), so a version and its edited
/// successor share every chunk the edits did not touch. The spine keeps
/// each chunk's last id next to its pointer, so a lookup is a binary search
/// over the spine and one inside a single chunk.
#[derive(Clone)]
pub struct ChunkedList<T> {
    /// Per chunk: the id of its last entry, and the chunk.
    spine: Vec<(PointId, Arc<Vec<T>>)>,
    len: usize,
}

impl<T> Default for ChunkedList<T> {
    fn default() -> Self {
        Self {
            spine: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkedList<T> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in ascending id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> + Clone + '_ {
        Iter {
            spine: self.spine.iter(),
            chunk: [].iter(),
            remaining: self.len,
        }
    }
}

impl<T: Keyed> ChunkedList<T> {
    /// The entry with `id`, if any.
    pub(crate) fn get(&self, id: PointId) -> Option<&T> {
        let (c, at) = self.find(id);
        at.ok().map(|i| &self.spine[c].1[i])
    }

    /// Puts `entry` in, replacing the entry with the same id. Returns the
    /// replaced entry.
    pub(crate) fn upsert(&mut self, entry: T) -> Option<T> {
        match self.find(entry.key()) {
            (c, Ok(i)) => Some(std::mem::replace(&mut self.chunk_mut(c)[i], entry)),
            (c, Err(i)) => {
                self.insert_at(c, i, entry);
                None
            }
        }
    }

    /// Puts `entry` in unless its id is already present (then the list is
    /// left untouched). Returns whether it was added.
    pub(crate) fn insert(&mut self, entry: T) -> bool {
        match self.find(entry.key()) {
            (_, Ok(_)) => false,
            (c, Err(i)) => {
                self.insert_at(c, i, entry);
                true
            }
        }
    }

    /// Takes out the entry with `id`, if any.
    pub(crate) fn remove(&mut self, id: PointId) -> Option<T> {
        let (c, i) = match self.find(id) {
            (c, Ok(i)) => (c, i),
            (_, Err(_)) => return None,
        };
        self.len -= 1;
        let chunk = self.chunk_mut(c);
        let entry = chunk.remove(i);
        if chunk.is_empty() {
            self.spine.remove(c);
        } else {
            self.relast(c);
            if self.spine[c].1.len() < MIN_CHUNK {
                self.merge(c);
            }
        }
        Some(entry)
    }

    /// The chunk `id` belongs in — the first whose last id is `>= id`, else
    /// the last chunk — and its slot there.
    fn find(&self, id: PointId) -> (usize, Result<usize, usize>) {
        let c = self
            .spine
            .partition_point(|&(last, _)| last < id)
            .min(self.spine.len().saturating_sub(1));
        match self.spine.get(c) {
            Some((_, chunk)) => (c, chunk.binary_search_by_key(&id, T::key)),
            None => (0, Err(0)),
        }
    }

    /// Chunk `c`, copied first if another version shares it. The copy has
    /// room for one more entry, so the edit that follows never reallocates.
    fn chunk_mut(&mut self, c: usize) -> &mut Vec<T> {
        let chunk = &mut self.spine[c].1;
        if Arc::get_mut(chunk).is_none() {
            let mut copy = Vec::with_capacity(CHUNK + 1);
            copy.extend_from_slice(chunk);
            *chunk = Arc::new(copy);
        }
        Arc::get_mut(chunk).expect("the chunk was just made unique")
    }

    /// Re-reads chunk `c`'s last id into the spine.
    fn relast(&mut self, c: usize) {
        let (last, chunk) = &mut self.spine[c];
        *last = chunk[chunk.len() - 1].key();
    }

    fn insert_at(&mut self, c: usize, i: usize, entry: T) {
        self.len += 1;
        if self.spine.is_empty() {
            let mut chunk = Vec::with_capacity(CHUNK + 1);
            chunk.push(entry);
            self.spine.push((entry.key(), Arc::new(chunk)));
            return;
        }
        let chunk = self.chunk_mut(c);
        chunk.insert(i, entry);
        if chunk.len() > CHUNK {
            let mut tail = Vec::with_capacity(CHUNK + 1);
            tail.extend_from_slice(&chunk[CHUNK / 2..]);
            chunk.truncate(CHUNK / 2);
            self.spine
                .insert(c + 1, (tail[tail.len() - 1].key(), Arc::new(tail)));
        }
        self.relast(c);
    }

    /// Merges the short chunk `c` into a neighbour when the two fit in one
    /// chunk.
    fn merge(&mut self, c: usize) {
        let fits = |a: usize| self.spine[a].1.len() + self.spine[a + 1].1.len() <= CHUNK;
        let left = if c + 1 < self.spine.len() && fits(c) {
            c
        } else if c > 0 && fits(c - 1) {
            c - 1
        } else {
            return;
        };
        let (last, right) = self.spine.remove(left + 1);
        self.chunk_mut(left).extend_from_slice(&right);
        self.spine[left].0 = last;
    }

    /// How many of this list's chunks are the very `Arc`s of `other`'s —
    /// lets tests prove that unedited chunks are shared, not copied.
    #[cfg(test)]
    pub(crate) fn shared_chunks(&self, other: &Self) -> usize {
        self.spine
            .iter()
            .filter(|(_, c)| other.spine.iter().any(|(_, o)| Arc::ptr_eq(c, o)))
            .count()
    }

    /// Number of chunks in the spine.
    #[cfg(test)]
    pub(crate) fn num_chunks(&self) -> usize {
        self.spine.len()
    }

    /// Checks the layout: every chunk non-empty, at most [`CHUNK`] long and
    /// under its spine id, ids strictly ascending, `len` their total.
    #[cfg(test)]
    fn check(&self) {
        for (last, chunk) in &self.spine {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK);
            assert_eq!(*last, chunk[chunk.len() - 1].key());
        }
        assert!(self
            .iter()
            .zip(self.iter().skip(1))
            .all(|(a, b)| a.key() < b.key()));
        assert_eq!(
            self.len,
            self.spine.iter().map(|(_, c)| c.len()).sum::<usize>()
        );
    }
}

/// Equal entries in equal order, however they are split into chunks.
impl<T: PartialEq> PartialEq for ChunkedList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The entries of a [`ChunkedList`], chunk by chunk.
struct Iter<'a, T> {
    spine: std::slice::Iter<'a, (PointId, Arc<Vec<T>>)>,
    chunk: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<T> Clone for Iter<'_, T> {
    fn clone(&self) -> Self {
        Self {
            spine: self.spine.clone(),
            chunk: self.chunk.clone(),
            remaining: self.remaining,
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(entry) = self.chunk.next() {
                self.remaining -= 1;
                return Some(entry);
            }
            self.chunk = self.spine.next()?.1.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

/// A sorted insert/delete overlay relative to one base index.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Points visible on top of the base, sorted by id, unique per id.
    inserts: ChunkedList<Point>,
    /// Ids of base points that are tombstoned, sorted, unique. Only ids the
    /// base actually stores are ever recorded here.
    deletes: ChunkedList<PointId>,
    /// The same inserts, bucketed by position into copy-on-write grid cells.
    grid: OverlayGrid,
}

/// Logical equality: two deltas are equal when they describe the same
/// visible-set change, regardless of how the overlay grid happens to be
/// decomposed (the grid geometry depends on the op history, not just the
/// final contents).
impl PartialEq for Delta {
    fn eq(&self, other: &Self) -> bool {
        self.inserts == other.inserts && self.deletes == other.deletes
    }
}

impl Delta {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// The overlay's inserted points, sorted by id.
    pub fn inserts(&self) -> &ChunkedList<Point> {
        &self.inserts
    }

    /// The tombstoned base point ids, sorted.
    pub fn deletes(&self) -> &ChunkedList<PointId> {
        &self.deletes
    }

    /// The position-bucketed view of the inserts.
    pub(crate) fn grid(&self) -> &OverlayGrid {
        &self.grid
    }

    /// Number of overlay entries (inserts + deletes) — the quantity the
    /// compaction threshold is compared against.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the overlay is empty (the snapshot equals its base).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Whether `id` is tombstoned.
    pub fn is_deleted(&self, id: PointId) -> bool {
        self.deletes.get(id).is_some()
    }

    /// The inserted point with `id`, if any.
    pub fn inserted(&self, id: PointId) -> Option<&Point> {
        self.inserts.get(id)
    }

    /// Applies one write operation. `base_has` must report whether the
    /// **base index** stores a point with a given id; the overlay uses it to
    /// decide between tombstoning a base point and editing its own inserts.
    ///
    /// Returns `true` when the operation changed the visible point set
    /// (an upsert always does; a remove only if the id was visible).
    pub fn apply(&mut self, op: &WriteOp, base_has: impl Fn(PointId) -> bool) -> bool {
        let changed = match op {
            WriteOp::Upsert(p) => {
                if let Some(old) = self.inserts.upsert(*p) {
                    self.grid.remove(&old);
                }
                self.grid.add(*p);
                // The base copy (if any) is shadowed: tombstone it so block
                // scans don't report the stale position.
                if base_has(p.id) {
                    self.deletes.insert(p.id);
                }
                true
            }
            WriteOp::Remove(id) => {
                let mut removed = false;
                if let Some(old) = self.inserts.remove(*id) {
                    self.grid.remove(&old);
                    removed = true;
                }
                // An id already tombstoned leaves visibility unchanged
                // (unless we just dropped a shadowing insert).
                if base_has(*id) && self.deletes.insert(*id) {
                    removed = true;
                }
                removed
            }
        };
        // Cheap O(1) staleness check; the actual re-bucket is geometric, so
        // the amortized cost per applied op stays O(1).
        self.grid.maybe_rebucket(self.inserts.iter());
        debug_assert_eq!(self.grid.len(), self.inserts.len());
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(ids: &'static [PointId]) -> impl Fn(PointId) -> bool {
        move |id| ids.contains(&id)
    }

    #[test]
    fn upsert_insert_and_remove_roundtrip() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Upsert(Point::new(5, 1.0, 2.0)), has(&[])));
        assert!(d.apply(&WriteOp::Upsert(Point::new(3, 0.0, 0.0)), has(&[])));
        assert_eq!(d.inserts().len(), 2);
        assert_eq!(
            d.inserts().iter().next().unwrap().id,
            3,
            "inserts stay sorted by id"
        );
        assert!(d.deletes().is_empty());
        assert_eq!(d.len(), 2);

        assert!(d.apply(&WriteOp::Remove(5), has(&[])));
        assert_eq!(d.inserts().len(), 1);
        // Removing an id that is neither inserted nor in the base is a no-op.
        assert!(!d.apply(&WriteOp::Remove(99), has(&[])));
    }

    #[test]
    fn upsert_of_a_base_point_tombstones_the_stale_copy() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Upsert(Point::new(7, 9.0, 9.0)), has(&[7])));
        assert!(d.is_deleted(7), "the base copy must be shadowed");
        assert_eq!(d.inserted(7).unwrap().x, 9.0);
        // A second upsert replaces in place without duplicating tombstones.
        assert!(d.apply(&WriteOp::Upsert(Point::new(7, 1.0, 1.0)), has(&[7])));
        assert_eq!(d.inserts().len(), 1);
        assert_eq!(d.deletes().len(), 1);
        assert_eq!(d.inserted(7).unwrap().x, 1.0);
    }

    #[test]
    fn remove_of_a_base_point_is_a_tombstone() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Remove(2), has(&[2])));
        assert!(d.is_deleted(2));
        assert_eq!(d.len(), 1);
        // Removing it again changes nothing.
        assert!(!d.apply(&WriteOp::Remove(2), has(&[2])));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn remove_after_upsert_of_base_point_keeps_the_tombstone() {
        let mut d = Delta::new();
        d.apply(&WriteOp::Upsert(Point::new(4, 5.0, 5.0)), has(&[4]));
        assert!(d.apply(&WriteOp::Remove(4), has(&[4])));
        assert!(d.inserts().is_empty());
        assert!(d.is_deleted(4), "base copy must stay invisible");
    }

    #[test]
    fn grid_tracks_every_insert_edit() {
        let mut d = Delta::new();
        // A burst large enough to force a multi-cell grid.
        for i in 0..200u64 {
            let p = Point::new(i, (i % 20) as f64, (i / 20) as f64);
            d.apply(&WriteOp::Upsert(p), has(&[]));
        }
        assert!(d.grid().cells_per_axis() > 1);
        assert_eq!(d.grid().len(), d.inserts().len());
        // Moves and removes keep the two structures in lockstep.
        d.apply(&WriteOp::Upsert(Point::new(7, 500.0, 500.0)), has(&[]));
        d.apply(&WriteOp::Remove(8), has(&[]));
        assert_eq!(d.grid().len(), d.inserts().len());
        let moved = d.inserted(7).copied().unwrap();
        let cell = d.grid().find_at(&moved).expect("moved point re-bucketed");
        assert!(d.grid().cell_points(cell).iter().any(|q| q.id == 7));
        // Logical equality ignores grid geometry.
        let mut replay = Delta::new();
        for p in d.inserts().iter() {
            replay.apply(&WriteOp::Upsert(*p), has(&[]));
        }
        assert_eq!(d, replay);
    }

    /// A small xorshift stream, so the model test needs no dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    type Model = (
        std::collections::BTreeMap<PointId, Point>,
        std::collections::BTreeSet<PointId>,
    );

    /// Asserts `d` holds exactly the model's inserts and tombstones.
    fn assert_matches(d: &Delta, (inserts, deletes): &Model, ids: u64) {
        d.inserts.check();
        d.deletes.check();
        assert_eq!(d.inserts().len(), inserts.len());
        assert_eq!(d.deletes().len(), deletes.len());
        assert!(d.inserts().iter().eq(inserts.values()));
        assert!(d.deletes().iter().eq(deletes.iter()));
        for id in 0..ids {
            assert_eq!(d.inserted(id), inserts.get(&id), "inserted({id})");
            assert_eq!(d.is_deleted(id), deletes.contains(&id), "is_deleted({id})");
        }
    }

    #[test]
    fn chunked_lists_match_a_btree_model_and_old_versions_never_change() {
        // Ids below 1 500 are stored in the base; the rest are fresh.
        const IDS: u64 = 3_000;
        let base_has = |id: PointId| id < 1_500;
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut d = Delta::new();
        let mut model: Model = Default::default();
        let mut versions: Vec<(Delta, Model)> = Vec::new();
        for step in 0..20_000u64 {
            // Upserts outnumber removes so the lists grow past many chunks,
            // then a remove-heavy phase shrinks them and exercises merges.
            let upsert_share = if step < 12_000 { 7 } else { 3 };
            let id = rng.below(IDS);
            let op = if rng.below(10) < upsert_share {
                let p = Point::new(id, rng.below(1_000) as f64, rng.below(1_000) as f64);
                model.0.insert(id, p);
                if base_has(id) {
                    model.1.insert(id);
                }
                WriteOp::Upsert(p)
            } else {
                model.0.remove(&id);
                if base_has(id) {
                    model.1.insert(id);
                }
                WriteOp::Remove(id)
            };
            d.apply(&op, base_has);
            if rng.below(500) == 0 {
                versions.push((d.clone(), model.clone()));
            }
            if step % 2_500 == 0 {
                assert_matches(&d, &model, IDS);
            }
        }
        assert_matches(&d, &model, IDS);
        assert!(d.inserts.num_chunks() > 10 && d.deletes.num_chunks() > 10);
        assert!(versions.len() > 20);
        for (old, old_model) in &versions {
            assert_matches(old, old_model, IDS);
        }
    }
}
