//! Axis-aligned minimum bounding boxes (the paper's "MBB").

use crate::Point3;
use serde::{Deserialize, Serialize};

/// An axis-aligned minimum bounding box in 3-D space.
///
/// Every spatial element, space unit (page), and space node of the
/// TRANSFORMERS hierarchy is summarized by one or two of these boxes
/// (paper §IV: *page MBB* and *partition MBB*).
///
/// Boxes are closed: two boxes that merely touch on a face, edge or corner
/// are considered intersecting. This matters for the connectivity self-join
/// (paper §IV, "Connectivity"), which must link *adjacent* partitions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// Creates a box from its two corners.
    ///
    /// # Panics
    /// In debug builds, panics if `min` exceeds `max` in any dimension or if
    /// any coordinate is not finite.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Self {
        debug_assert!(
            min.is_finite() && max.is_finite(),
            "non-finite Aabb corners"
        );
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min {min:?} exceeds max {max:?}"
        );
        Self { min, max }
    }

    /// Creates a box from the component-wise min/max of two arbitrary corners.
    #[inline]
    pub fn from_corners(a: Point3, b: Point3) -> Self {
        Self::new(a.min(&b), a.max(&b))
    }

    /// The degenerate box containing a single point.
    #[inline]
    pub fn from_point(p: Point3) -> Self {
        Self::new(p, p)
    }

    /// An "empty" box that is the identity of [`Aabb::union`].
    ///
    /// It intersects nothing and contains nothing. Use it as the starting
    /// accumulator when folding boxes together.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            max: Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// True if this is the empty box (identity of union).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Computes the bounding box of an iterator of boxes.
    ///
    /// Returns [`Aabb::empty`] for an empty iterator.
    pub fn union_all<I: IntoIterator<Item = Aabb>>(boxes: I) -> Aabb {
        boxes
            .into_iter()
            .fold(Aabb::empty(), |acc, b| acc.union(&b))
    }

    /// Side length along dimension `dim`.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.max.coord(dim) - self.min.coord(dim)
    }

    /// Center point of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        Point3::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
            (self.min.z + self.max.z) * 0.5,
        )
    }

    /// Volume of the box. Degenerate (flat) boxes have zero volume; the empty
    /// box reports zero as well.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.extent(0) * self.extent(1) * self.extent(2)
    }

    /// Surface area of the box (used by some R-Tree heuristics).
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let (dx, dy, dz) = (self.extent(0), self.extent(1), self.extent(2));
        2.0 * (dx * dy + dy * dz + dz * dx)
    }

    /// Closed-interval intersection test. Touching boxes intersect.
    ///
    /// Six compares and no branch. Next to a probe, and between candidates
    /// that share a grid cell, the outcome of each single compare is close
    /// to a coin flip, and a short-circuit chain pays a mispredicted jump
    /// for several of them. The outcomes are summed as integers because the
    /// optimiser turns `&` on `bool`s back into a chain of jumps.
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        (self.min.x <= other.max.x) as u8
            + (other.min.x <= self.max.x) as u8
            + (self.min.y <= other.max.y) as u8
            + (other.min.y <= self.max.y) as u8
            + (self.min.z <= other.max.z) as u8
            + (other.min.z <= self.max.z) as u8
            == 6
    }

    /// True if `other` lies entirely inside `self` (closed intervals).
    #[inline]
    pub fn contains(&self, other: &Aabb) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.min.z <= other.min.z
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
            && self.max.z >= other.max.z
    }

    /// True if point `p` lies inside the box (closed intervals). Branch
    /// free, like [`intersects`](Self::intersects).
    #[inline]
    pub fn contains_point(&self, p: &Point3) -> bool {
        (self.min.x <= p.x) as u8
            + (p.x <= self.max.x) as u8
            + (self.min.y <= p.y) as u8
            + (p.y <= self.max.y) as u8
            + (self.min.z <= p.z) as u8
            + (p.z <= self.max.z) as u8
            == 6
    }

    /// Smallest box covering both inputs. Union with the empty box is the
    /// other operand.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The overlap region of two boxes, or `None` if they are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Option<Aabb> {
        if !self.intersects(other) {
            return None;
        }
        Some(Aabb {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// Squared minimum distance between two boxes (0 if they intersect).
    ///
    /// This is the metric the adaptive walk minimizes when navigating the
    /// follower's connectivity graph towards the pivot (paper Alg. 1:
    /// `distance(fr.partitionMBB, pivot)`).
    #[inline]
    pub fn min_distance_sq(&self, other: &Aabb) -> f64 {
        let mut d = 0.0;
        for dim in 0..3 {
            let gap = (other.min.coord(dim) - self.max.coord(dim))
                .max(self.min.coord(dim) - other.max.coord(dim))
                .max(0.0);
            d += gap * gap;
        }
        d
    }

    /// Minimum distance between two boxes (0 if they intersect).
    #[inline]
    pub fn min_distance(&self, other: &Aabb) -> f64 {
        self.min_distance_sq(other).sqrt()
    }

    /// Grows the box by `eps` in every direction. Used to turn "adjacency"
    /// into "overlap" for the connectivity self-join.
    #[inline]
    pub fn inflate(&self, eps: f64) -> Aabb {
        Aabb {
            min: Point3::new(self.min.x - eps, self.min.y - eps, self.min.z - eps),
            max: Point3::new(self.max.x + eps, self.max.y + eps, self.max.z + eps),
        }
    }

    /// True if all corners are finite and min ≤ max in every dimension.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.min.is_finite()
            && self.max.is_finite()
            && self.min.x <= self.max.x
            && self.min.y <= self.max.y
            && self.min.z <= self.max.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(min: (f64, f64, f64), max: (f64, f64, f64)) -> Aabb {
        Aabb::new(
            Point3::new(min.0, min.1, min.2),
            Point3::new(max.0, max.1, max.2),
        )
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        let b = bx((1.0, 0.0, 0.0), (2.0, 1.0, 1.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert_eq!(a.min_distance(&b), 0.0);
    }

    #[test]
    fn disjoint_boxes_do_not_intersect() {
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        let b = bx((2.0, 2.0, 2.0), (3.0, 3.0, 3.0));
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        // gap is sqrt(3) along the diagonal
        assert!((a.min_distance(&b) - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn intersection_region() {
        let a = bx((0.0, 0.0, 0.0), (2.0, 2.0, 2.0));
        let b = bx((1.0, 1.0, 1.0), (3.0, 3.0, 3.0));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, bx((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)));
    }

    #[test]
    fn union_covers_both() {
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        let b = bx((2.0, -1.0, 0.5), (3.0, 0.5, 4.0));
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, bx((0.0, -1.0, 0.0), (3.0, 1.0, 4.0)));
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        assert_eq!(e.union(&a), a);
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
    }

    #[test]
    fn union_all_of_nothing_is_empty() {
        assert!(Aabb::union_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn volume_and_surface() {
        let a = bx((0.0, 0.0, 0.0), (2.0, 3.0, 4.0));
        assert_eq!(a.volume(), 24.0);
        assert_eq!(a.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
    }

    #[test]
    fn contains_point_is_closed() {
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        assert!(a.contains_point(&Point3::new(1.0, 1.0, 1.0)));
        assert!(a.contains_point(&Point3::new(0.0, 0.5, 0.0)));
        assert!(!a.contains_point(&Point3::new(1.0001, 0.5, 0.5)));
    }

    #[test]
    fn inflate_grows_symmetrically() {
        let a = bx((1.0, 1.0, 1.0), (2.0, 2.0, 2.0)).inflate(0.5);
        assert_eq!(a, bx((0.5, 0.5, 0.5), (2.5, 2.5, 2.5)));
    }

    #[test]
    fn from_corners_normalizes() {
        let a = Aabb::from_corners(Point3::new(2.0, 0.0, 5.0), Point3::new(1.0, 3.0, 4.0));
        assert_eq!(a, bx((1.0, 0.0, 4.0), (2.0, 3.0, 5.0)));
    }

    #[test]
    fn min_distance_single_axis_gap() {
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        let b = bx((4.0, 0.0, 0.0), (5.0, 1.0, 1.0));
        assert_eq!(a.min_distance(&b), 3.0);
    }

    #[test]
    fn degenerate_point_box() {
        let p = Point3::new(0.5, 0.5, 0.5);
        let b = Aabb::from_point(p);
        assert_eq!(b.volume(), 0.0);
        assert!(b.contains_point(&p));
        let a = bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0));
        assert!(a.intersects(&b));
    }
}
