//! 3-D geometry substrate for the TRANSFORMERS spatial-join reproduction.
//!
//! This crate provides the spatial primitives every other crate in the
//! workspace is built on:
//!
//! * [`Point3`] — a point in 3-D space,
//! * [`Aabb`] — an axis-aligned minimum bounding box (the paper's "MBB"),
//! * [`SpatialElement`] — an identified MBB, the unit of data being joined,
//! * [`SpatialQuery`] — window / point-enclosure / distance probes, the
//!   vocabulary of the query-serving subsystem (`tfm-serve`),
//! * [`hilbert`] — a 3-D Hilbert space-filling curve used by TRANSFORMERS to
//!   pick adaptive-walk start points (paper §V, "Adaptive Walk").
//!
//! All coordinates are `f64`. The synthetic workloads of the paper live in a
//! `[0, 1000]³` universe (§VII-B), but nothing in this crate assumes that.

#![warn(missing_docs)]

mod aabb;
pub mod hilbert;
mod point;
mod query;

pub use aabb::Aabb;
pub use point::{total_order_key, Point3};
pub use query::SpatialQuery;

use serde::{Deserialize, Serialize};

/// Identifier of a spatial element within one dataset.
///
/// Element ids are dense (`0..n`) within a dataset; a join result pair is a
/// pair of ids, one from each side.
pub type ElementId = u64;

/// An identified spatial object, approximated by its minimum bounding box.
///
/// The paper performs the *filtering* step of a spatial join (§VII-B,
/// "Approach"): it detects pairs of elements whose MBBs intersect.
/// Refinement against exact shapes is application-specific and out of scope,
/// exactly as in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpatialElement {
    /// Dataset-local identifier.
    pub id: ElementId,
    /// Minimum bounding box of the element.
    pub mbb: Aabb,
}

impl SpatialElement {
    /// Creates a new element from an id and its bounding box.
    #[inline]
    pub fn new(id: ElementId, mbb: Aabb) -> Self {
        Self { id, mbb }
    }

    /// Tests whether this element's MBB intersects another element's MBB.
    #[inline]
    pub fn intersects(&self, other: &SpatialElement) -> bool {
        self.mbb.intersects(&other.mbb)
    }
}

/// Anything that exposes a bounding box.
///
/// The STR partitioner and the in-memory join kernels are generic over this
/// trait so that they can operate both on raw [`SpatialElement`]s and on
/// index metadata (space-unit / space-node descriptors).
pub trait HasMbb {
    /// The minimum bounding box of the object.
    fn mbb(&self) -> Aabb;

    /// Center of the bounding box; used for sort keys (STR, Hilbert).
    #[inline]
    fn center(&self) -> Point3 {
        self.mbb().center()
    }
}

impl HasMbb for SpatialElement {
    #[inline]
    fn mbb(&self) -> Aabb {
        self.mbb
    }
}

impl HasMbb for Aabb {
    #[inline]
    fn mbb(&self) -> Aabb {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_intersection_is_symmetric() {
        let a = SpatialElement::new(
            0,
            Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(2.0, 2.0, 2.0)),
        );
        let b = SpatialElement::new(
            1,
            Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(3.0, 3.0, 3.0)),
        );
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn has_mbb_center_matches_aabb_center() {
        let mbb = Aabb::new(Point3::new(0.0, 2.0, 4.0), Point3::new(2.0, 4.0, 6.0));
        let e = SpatialElement::new(7, mbb);
        assert_eq!(e.center(), mbb.center());
        assert_eq!(e.mbb(), mbb);
    }
}
