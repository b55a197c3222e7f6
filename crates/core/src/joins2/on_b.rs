//! `∩_B`: the one intersection on the shared `B` component behind every
//! two-join plan.
//!
//! Both sides of `∩_B` are kNN-join results laid out as
//! [`block_neighborhoods`] writes them ([`Joined`]). One side is grouped by
//! its `b` ([`ByB`]): one id map from `b` to a group, and every group's
//! entries in one buffer (offsets + one index per pair), so a group costs
//! no allocation of its own. The other side *drives*: each of its `(x, b)`
//! pairs reads the range of its `b`'s group and [`triplets_on_b`] writes
//! one triplet per entry of that range. A kNN-join gives each outer point exactly
//! `min(k, |inner|)` members (its degree bound), so a driving block's share
//! of the rows is the sum of its members' group sizes, counted before any
//! row is written: the rows go through [`run_into_shares`], one work item
//! per driving block, on the pool the calling thread is bound to.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

use twoknn_geometry::{Point, PointId};
use twoknn_index::{BlockMeta, Metrics, Neighbor, SpatialIndex};

use crate::exec::run_into_shares;
use crate::join::{block_neighborhoods, points_repeated};
use crate::output::Triplet;

/// A map keyed by point id, hashed by one splitmix64 finalizer per id
/// rather than SipHash. Ids come with the data, so a map takes a key from
/// std's random source when it is made: ids picked to share buckets under
/// one key do not share them under the next.
pub(super) type IdMap<V> = HashMap<PointId, V, IdHashing>;

/// An [`IdMap`] with room for `capacity` ids.
pub(super) fn id_map<V>(capacity: usize) -> IdMap<V> {
    let key = RandomState::new().hash_one(0u64);
    IdMap::with_capacity_and_hasher(capacity, IdHashing(key))
}

/// The [`IdMap`]'s keyed hasher factory.
#[derive(Clone)]
pub(super) struct IdHashing(u64);

impl BuildHasher for IdHashing {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(self.0)
    }
}

/// splitmix64's finalizer over the key and the id.
pub(super) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let mut z = (self.0 ^ id).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A kNN-join's result as [`block_neighborhoods`] lays it out: every point
/// of `blocks` (blocks of `outer`), block after block, with its `len`
/// members.
pub(super) struct Joined<'a, O: ?Sized> {
    pub outer: &'a O,
    pub blocks: &'a [BlockMeta],
    pub len: usize,
    pub members: Vec<Neighbor>,
}

impl<'a, O: SpatialIndex + Sync + ?Sized> Joined<'a, O> {
    /// The points of `blocks` (blocks of `outer`) joined with their `k`
    /// nearest in `inner`, partitioned over the current pool.
    pub fn knn<I>(
        outer: &'a O,
        blocks: &'a [BlockMeta],
        inner: &I,
        k: usize,
        metrics: &mut Metrics,
    ) -> Self
    where
        I: SpatialIndex + Sync + ?Sized,
    {
        Joined {
            outer,
            blocks,
            len: k.min(inner.num_points()),
            members: block_neighborhoods(outer, blocks, inner, k, metrics),
        }
    }
}

/// One side of `∩_B` grouped by `b`: group `g` is `keys[g]`'s points,
/// `values[order[j]]` for `j` in `offsets[g]..offsets[g + 1]`, in the order
/// the join produced them. `order` holds one `u32` per pair, so grouping
/// moves 4 bytes a pair rather than a point.
pub(super) struct ByB {
    group_of: IdMap<u32>,
    keys: Vec<Point>,
    offsets: Vec<u32>,
    order: Vec<u32>,
    values: Vec<Point>,
}

impl ByB {
    /// A join's outer points grouped by the member they matched: the
    /// unchained plans' joins, whose inner relation is `B`, of
    /// `inner_points` points.
    pub fn outer_by_member<O: SpatialIndex + Sync + ?Sized>(
        joined: &Joined<'_, O>,
        inner_points: usize,
    ) -> Self {
        let outer = joined
            .blocks
            .iter()
            .flat_map(|block| joined.outer.block_points(block.id))
            .collect();
        let pairs = joined.members.len();
        let members = joined.members.iter().map(|n| n.point);
        Self::build(members, pairs, pairs.min(inner_points), outer, joined.len)
    }

    /// A join's members grouped by their outer point: `B ⋈kNN C`.
    pub fn members_by_outer<O: SpatialIndex + Sync + ?Sized>(joined: &Joined<'_, O>) -> Self {
        let pairs = joined.members.len();
        let outer = points_repeated(joined.outer, joined.blocks, joined.len);
        let members = joined.members.iter().map(|n| n.point).collect();
        Self::build(outer, pairs, pairs / joined.len.max(1), members, 1)
    }

    /// Groups `pairs` pairs by their `b`, one from `keys` per pair, with at
    /// most `distinct` of them. Pair `i`'s point is `values[i / per_value]`.
    fn build(
        keys: impl Iterator<Item = Point>,
        pairs: usize,
        distinct: usize,
        values: Vec<Point>,
        per_value: usize,
    ) -> Self {
        assert!(
            pairs <= u32::MAX as usize,
            "{pairs} pairs overflow a u32 index"
        );
        let mut group_of = id_map(distinct);
        let mut unique = Vec::with_capacity(distinct);
        // `offsets[g + 1]` counts group g's pairs, then holds the group's
        // next free slot, and ends as the group's end.
        let mut offsets = Vec::with_capacity(distinct + 1);
        offsets.push(0u32);
        let mut group_of_pair = Vec::with_capacity(pairs);
        for b in keys {
            let g = *group_of.entry(b.id).or_insert_with(|| {
                unique.push(b);
                offsets.push(0);
                (unique.len() - 1) as u32
            });
            offsets[g as usize + 1] += 1;
            group_of_pair.push(g);
        }
        let mut start = 0;
        for offset in &mut offsets[1..] {
            let count = std::mem::replace(offset, start);
            start += count;
        }
        let mut order = vec![0; pairs];
        for (v, groups) in group_of_pair.chunks(per_value.max(1)).enumerate() {
            for &g in groups {
                let next = &mut offsets[g as usize + 1];
                order[*next as usize] = v as u32;
                *next += 1;
            }
        }
        ByB {
            group_of,
            keys: unique,
            offsets,
            order,
            values,
        }
    }

    /// The distinct `b`s, in the order first met.
    pub fn keys(&self) -> &[Point] {
        &self.keys
    }

    /// `∩_B` with `driving`, whose members are `b`s: for each of its
    /// `(x, b)` pairs, one triplet per point grouped under `b`.
    pub fn triplets<D>(
        &self,
        driving: &Joined<'_, D>,
        x_is_a: bool,
        metrics: &mut Metrics,
    ) -> Vec<Triplet>
    where
        D: SpatialIndex + Sync + ?Sized,
    {
        let ranges: Vec<Range<usize>> = driving
            .members
            .iter()
            .map(|n| match self.group_of.get(&n.point.id) {
                Some(&g) => {
                    self.offsets[g as usize] as usize..self.offsets[g as usize + 1] as usize
                }
                None => 0..0,
            })
            .collect();
        let value = |j: usize| self.values[self.order[j] as usize];
        triplets_on_b(driving, &ranges, value, x_is_a, metrics)
    }
}

/// The rows of `∩_B`: for the `i`-th `(x, b)` pair of `driving`, in order,
/// one triplet per `j` in `ranges[i]`, with `value(j)` as the triplet's `c`
/// when `x_is_a` and as its `a` otherwise. Each driving block is a work
/// item of the current pool, writing into a share sized from its members'
/// ranges. Sets `tuples_emitted`.
pub(super) fn triplets_on_b<D>(
    driving: &Joined<'_, D>,
    ranges: &[Range<usize>],
    value: impl Fn(usize) -> Point + Sync,
    x_is_a: bool,
    metrics: &mut Metrics,
) -> Vec<Triplet>
where
    D: SpatialIndex + Sync + ?Sized,
{
    let len = driving.len;
    let mut first = 0;
    let items: Vec<(&BlockMeta, usize, usize)> = driving
        .blocks
        .iter()
        .map(|block| {
            let members = first..first + block.count * len;
            first = members.end;
            let rows = ranges[members.clone()].iter().map(Range::len).sum();
            (block, members.start, rows)
        })
        .collect();
    let unset = Neighbor::UNSET.point;
    let rows = run_into_shares(
        &items,
        |&(_, _, rows)| rows,
        Triplet::new(unset, unset, unset),
        metrics,
        |&(block, first, _), out, _| {
            let mut slot = out.iter_mut();
            let mut m = first;
            for x in driving.outer.block_points(block.id) {
                for (n, range) in driving.members[m..m + len].iter().zip(&ranges[m..m + len]) {
                    // The range first: `zip` stops on it before taking a slot.
                    for (j, row) in range.clone().zip(slot.by_ref()) {
                        let (a, c) = if x_is_a { (x, value(j)) } else { (value(j), x) };
                        *row = Triplet::new(a, n.point, c);
                    }
                }
                m += len;
            }
        },
    );
    metrics.tuples_emitted = rows.len() as u64;
    rows
}
