//! Partitions: a coarse spatial tier above blocks.
//!
//! A sharded relation snapshot concatenates the blocks of several spatial
//! shards into one dense block-id space. [`PartitionMeta`] describes one such
//! shard from the query side: a tight MBR over the shard's non-empty blocks
//! plus the contiguous range of composed block ids the shard owns.
//!
//! Partitions describe the shard tier; queries traverse it through the
//! index's [`BlockDirectory`](crate::BlockDirectory), whose first level is
//! one node per shard, so a whole shard is skipped once its footprint lies
//! beyond the search radius — the paper's block pruning lifted one level up.
//!
//! Indexes that are not sharded simply report no partitions
//! ([`crate::SpatialIndex::partitions`] defaults to `None`).

use twoknn_geometry::{mindist_sq, Point, Rect};

/// Metadata of one spatial partition (shard) of an index: a tight footprint
/// and the contiguous slice of block ids it owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionMeta {
    /// Tight bounding rectangle over the partition's non-empty blocks (falls
    /// back to the shard's routing cell when the shard holds no points).
    pub mbr: Rect,
    /// First composed block id owned by the partition.
    pub first_block: u32,
    /// Number of consecutive block ids owned by the partition.
    pub num_blocks: u32,
    /// Number of points stored in the partition.
    pub count: usize,
}

impl PartitionMeta {
    /// Creates partition metadata.
    pub fn new(mbr: Rect, first_block: u32, num_blocks: u32, count: usize) -> Self {
        Self {
            mbr,
            first_block,
            num_blocks,
            count,
        }
    }

    /// Squared MINDIST from a point to the partition's footprint — the shard
    /// pruning key.
    #[inline]
    pub fn mindist_sq(&self, p: &Point) -> f64 {
        mindist_sq(p, &self.mbr)
    }

    /// The composed block-id range `first_block..first_block + num_blocks`.
    #[inline]
    pub fn block_range(&self) -> std::ops::Range<usize> {
        let first = self.first_block as usize;
        first..first + self.num_blocks as usize
    }

    /// Whether the partition holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_and_mindist() {
        let p = PartitionMeta::new(Rect::new(2.0, 0.0, 4.0, 2.0), 8, 4, 10);
        assert_eq!(p.block_range(), 8..12);
        assert!(!p.is_empty());
        let q = Point::anonymous(0.0, 1.0);
        assert!((p.mindist_sq(&q) - 4.0).abs() < 1e-12);
        assert_eq!(p.mindist_sq(&Point::anonymous(3.0, 1.0)), 0.0);
    }

    #[test]
    fn empty_partition_is_flagged() {
        let p = PartitionMeta::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0, 0, 0);
        assert!(p.is_empty());
        assert_eq!(p.block_range(), 0..0);
    }
}
