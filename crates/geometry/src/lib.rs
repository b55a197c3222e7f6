//! # twoknn-geometry
//!
//! Two-dimensional geometry kernel used by the `two-knn` workspace, the Rust
//! reproduction of *"Spatial Queries with Two kNN Predicates"* (Aly, Aref,
//! Ouzzani — VLDB 2012).
//!
//! The paper's algorithms (Section 2, *Preliminaries*) only need a handful of
//! geometric primitives:
//!
//! * points in the Euclidean plane ([`Point`]),
//! * axis-aligned rectangles representing index *blocks* ([`Rect`]),
//! * the clamped uniform grid every space decomposition cuts with
//!   ([`CellGrid`]),
//! * the Euclidean point-to-point distance,
//! * the **MINDIST** and **MAXDIST** metrics between a point and a block
//!   (Roussopoulos, Kelley, Vincent — SIGMOD 1995), which bound the distance
//!   between the point and *any* point inside the block — and their
//!   rect-to-rect forms, which bound it for every point of a whole region
//!   (one locality per outer block of a join).
//!
//! All distances are exposed both in squared form (cheap, used for ordering)
//! and in Euclidean form (used where the paper adds distances together, e.g.
//! the Block-Marking search threshold `r + d + f_farthest`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell_grid;
mod distance;
mod point;
mod predicate;
mod rect;

pub use cell_grid::{fanout, outgrown, CellGrid};
pub use distance::{
    euclidean, euclidean_sq, euclidean_sq_batch, maxdist, maxdist_sq, mindist, mindist_sq,
    rect_maxdist_sq, rect_mindist_sq,
};
pub use point::{Point, PointId};
pub use predicate::Predicate;
pub use rect::Rect;

/// Result alias used across the workspace geometry layer.
pub type GeomResult<T> = Result<T, GeometryError>;

/// Errors produced when constructing geometric objects from invalid inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum GeometryError {
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// The offending value.
        value: f64,
    },
    /// A rectangle was specified with `min > max` on some axis.
    InvertedRect {
        /// Lower corner supplied by the caller.
        min: (f64, f64),
        /// Upper corner supplied by the caller.
        max: (f64, f64),
    },
    /// An empty point set was supplied where at least one point is required.
    EmptyPointSet,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::NonFiniteCoordinate { value } => {
                write!(f, "non-finite coordinate: {value}")
            }
            GeometryError::InvertedRect { min, max } => {
                write!(f, "inverted rectangle: min {min:?} exceeds max {max:?}")
            }
            GeometryError::EmptyPointSet => write!(f, "empty point set"),
        }
    }
}

impl std::error::Error for GeometryError {}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GeometryError::NonFiniteCoordinate { value: f64::NAN };
        assert!(e.to_string().contains("non-finite"));
        let e = GeometryError::InvertedRect {
            min: (1.0, 1.0),
            max: (0.0, 0.0),
        };
        assert!(e.to_string().contains("inverted"));
        assert!(GeometryError::EmptyPointSet.to_string().contains("empty"));
    }
}
