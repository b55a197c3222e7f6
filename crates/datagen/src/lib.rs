//! # twoknn-datagen
//!
//! Workload generators for the `two-knn` benchmark harness and tests.
//!
//! The paper's evaluation (Section 6) uses two kinds of data:
//!
//! 1. Snapshots of the **BerlinMOD** benchmark (about two thousand cars
//!    reporting their movement over Berlin for 28 days, with the time
//!    dimension removed), with dataset sizes from 32,000 to 2,560,000 points.
//! 2. **Synthetic clustered data** with a configurable number of
//!    non-overlapping clusters (each cluster with the same number of points
//!    and the same area), used for the join-order and chained-join
//!    experiments.
//!
//! The BerlinMOD download is not available offline, so this crate provides a
//! *synthetic moving-object generator* ([`berlinmod`]) that reproduces the
//! properties the algorithms are sensitive to: a city-scale extent, density
//! concentrated along a street network and around a city center, and point
//! counts per index block that vary by orders of magnitude.
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod berlinmod;
mod clustered;
pub mod rng;
mod spec;
mod uniform;

pub use berlinmod::{berlinmod, BerlinModConfig};
pub use clustered::{clustered, ClusterConfig};
pub use spec::{generate, DatasetSpec};
pub use uniform::uniform;

use twoknn_geometry::Rect;

/// The default spatial extent used by all generators: a 100 km × 100 km city
/// region expressed in meters, comparable to the Berlin extent of BerlinMOD.
pub fn default_extent() -> Rect {
    Rect::new(0.0, 0.0, 100_000.0, 100_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_extent_is_square_and_positive() {
        let e = default_extent();
        assert_eq!(e.width(), e.height());
        assert!(e.area() > 0.0);
    }
}
