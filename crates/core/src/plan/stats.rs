//! Per-relation statistics used by the optimizer.
//!
//! All statistics are derived from block metadata only (counts and
//! footprints), so profiling a relation is `O(number of blocks)` and never
//! touches the points themselves — matching the paper's assumption that the
//! index maintains per-block counts.
//!
//! [`RelationProfile::compute`] works on any [`SpatialIndex`]; for versioned
//! relations prefer
//! [`RelationSnapshot::profile`](crate::store::RelationSnapshot::profile),
//! which memoizes the result per published snapshot — statistics of an
//! immutable version never change, so planning a whole batch against one
//! pinned snapshot pays for at most one computation per relation.

use twoknn_index::SpatialIndex;

/// Summary statistics of an indexed relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationProfile {
    /// Total number of points.
    pub num_points: usize,
    /// Total number of blocks in the index.
    pub num_blocks: usize,
    /// Number of blocks holding at least one point.
    pub occupied_blocks: usize,
    /// Fraction of the relation's extent covered by occupied blocks
    /// (≈ 1 for uniform data, ≪ 1 for clustered data).
    pub coverage_fraction: f64,
    /// Average number of points per occupied block.
    pub avg_points_per_occupied_block: f64,
    /// Largest per-block count.
    pub max_block_count: usize,
    /// Skew indicator: fraction of all points held by the top 10% most
    /// populated blocks (0.1 for perfectly uniform data, → 1 for extreme
    /// clustering).
    pub top_decile_share: f64,
}

impl RelationProfile {
    /// Computes the profile of an indexed relation.
    pub fn compute<I: SpatialIndex + ?Sized>(index: &I) -> Self {
        let blocks = index.blocks();
        let num_blocks = blocks.len();
        let num_points = index.num_points();
        let occupied_blocks = blocks.iter().filter(|b| b.count > 0).count();
        let total_area = index.bounds().area();
        let covered_area: f64 = blocks
            .iter()
            .filter(|b| b.count > 0)
            .map(|b| b.mbr.area())
            .sum();
        let coverage_fraction = if total_area > 0.0 {
            (covered_area / total_area).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let avg_points_per_occupied_block = if occupied_blocks > 0 {
            num_points as f64 / occupied_blocks as f64
        } else {
            0.0
        };
        let max_block_count = blocks.iter().map(|b| b.count).max().unwrap_or(0);

        let mut counts: Vec<usize> = blocks.iter().map(|b| b.count).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let decile = (num_blocks.max(1)).div_ceil(10);
        let top_decile: usize = counts.iter().take(decile).sum();
        let top_decile_share = if num_points > 0 {
            top_decile as f64 / num_points as f64
        } else {
            0.0
        };

        Self {
            num_points,
            num_blocks,
            occupied_blocks,
            coverage_fraction,
            avg_points_per_occupied_block,
            max_block_count,
            top_decile_share,
        }
    }

    /// Whether the relation looks uniformly distributed (high coverage of the
    /// extent by occupied blocks).
    pub fn looks_uniform(&self, coverage_threshold: f64) -> bool {
        self.coverage_fraction >= coverage_threshold
    }

    /// Whether the relation looks clustered.
    pub fn looks_clustered(&self, coverage_threshold: f64) -> bool {
        !self.looks_uniform(coverage_threshold)
    }

    /// Average density in points per unit of occupied area (0 when empty).
    pub fn occupied_density(&self) -> f64 {
        if self.coverage_fraction <= 0.0 {
            return 0.0;
        }
        self.avg_points_per_occupied_block
    }
}

impl std::fmt::Display for RelationProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} blocks={}/{} coverage={:.2} avg/block={:.1} max/block={} top10%={:.2}",
            self.num_points,
            self.occupied_blocks,
            self.num_blocks,
            self.coverage_fraction,
            self.avg_points_per_occupied_block,
            self.max_block_count,
            self.top_decile_share
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::{Point, Rect};
    use twoknn_index::{GridIndex, PackedIndex};

    fn uniform(n: usize) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(i as u64, (h % 100) as f64, ((h / 100) % 100) as f64)
            })
            .collect();
        GridIndex::build_with_bounds(pts, Rect::new(0.0, 0.0, 100.0, 100.0), 10).unwrap()
    }

    fn clustered(n: usize) -> PackedIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    5.0 + (i % 30) as f64 * 0.05,
                    5.0 + (i as u64 / 30) as f64 * 0.05,
                )
            })
            .collect();
        GridIndex::build_with_bounds(pts, Rect::new(0.0, 0.0, 100.0, 100.0), 10).unwrap()
    }

    #[test]
    fn profiles_distinguish_uniform_from_clustered() {
        let u = RelationProfile::compute(&uniform(3000));
        let c = RelationProfile::compute(&clustered(3000));
        assert!(u.looks_uniform(0.6), "{u}");
        assert!(c.looks_clustered(0.6), "{c}");
        assert!(c.top_decile_share > u.top_decile_share);
        assert!(c.max_block_count > u.max_block_count);
    }

    #[test]
    fn totals_are_consistent() {
        let g = uniform(500);
        let p = RelationProfile::compute(&g);
        assert_eq!(p.num_points, 500);
        assert_eq!(p.num_blocks, 100);
        assert!(p.occupied_blocks <= p.num_blocks);
        assert!(p.avg_points_per_occupied_block >= 1.0);
        assert!(p.top_decile_share > 0.0 && p.top_decile_share <= 1.0);
    }

    #[test]
    fn empty_relation_profile_is_sane() {
        let g = GridIndex::build_with_bounds(vec![], Rect::new(0.0, 0.0, 1.0, 1.0), 4).unwrap();
        let p = RelationProfile::compute(&g);
        assert_eq!(p.num_points, 0);
        assert_eq!(p.occupied_blocks, 0);
        assert_eq!(p.coverage_fraction, 0.0);
        assert_eq!(p.top_decile_share, 0.0);
        assert_eq!(p.occupied_density(), 0.0);
    }

    #[test]
    fn display_is_single_line() {
        let p = RelationProfile::compute(&uniform(100));
        assert!(!p.to_string().contains('\n'));
    }
}
