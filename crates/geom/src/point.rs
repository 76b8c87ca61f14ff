//! 3-D points.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Div, Mul, Sub};

/// A point in 3-D space.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
    /// z coordinate.
    pub z: f64,
}

impl Point3 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The origin `(0, 0, 0)`.
    pub const ORIGIN: Point3 = Point3::new(0.0, 0.0, 0.0);

    /// Returns the coordinate along dimension `dim` (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    /// Panics if `dim > 2`.
    #[inline]
    pub fn coord(&self, dim: usize) -> f64 {
        match dim {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("dimension {dim} out of range for Point3"),
        }
    }

    /// Returns a copy with dimension `dim` replaced by `value`.
    #[inline]
    pub fn with_coord(mut self, dim: usize, value: f64) -> Self {
        match dim {
            0 => self.x = value,
            1 => self.y = value,
            2 => self.z = value,
            _ => panic!("dimension {dim} out of range for Point3"),
        }
        self
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.x.min(other.x),
            self.y.min(other.y),
            self.z.min(other.z),
        )
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point3) -> Point3 {
        Point3::new(
            self.x.max(other.x),
            self.y.max(other.y),
            self.z.max(other.z),
        )
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn distance_sq(&self, other: &Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        dx * dx + dy * dy + dz * dz
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point3) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// All coordinates are finite (not NaN / infinite).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

/// Maps an `f64` to a `u64` whose unsigned order is exactly
/// [`f64::total_cmp`]'s: `total_order_key(a).cmp(&total_order_key(b)) ==
/// a.total_cmp(&b)` for every pair of bit patterns (`-NaN < -∞ < … < -0.0 <
/// +0.0 < … < +∞ < +NaN`), and equal keys mean equal bits.
///
/// A negative value has all its bits flipped (larger magnitude, smaller
/// key), a non-negative one only its sign bit (above every negative). A
/// sort can then compute one integer key per element once instead of
/// comparing floats through a comparator on every step.
#[inline]
pub fn total_order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    // All ones for a set sign bit, only the sign bit otherwise.
    let flip = ((bits as i64 >> 63) as u64) | (1 << 63);
    bits ^ flip
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f64) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f64) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_roundtrip() {
        let p = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(p.coord(0), 1.0);
        assert_eq!(p.coord(1), 2.0);
        assert_eq!(p.coord(2), 3.0);
        let q = p.with_coord(1, 9.0);
        assert_eq!(q, Point3::new(1.0, 9.0, 3.0));
    }

    #[test]
    #[should_panic]
    fn coord_out_of_range_panics() {
        Point3::ORIGIN.coord(3);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point3::new(1.0, 5.0, 3.0);
        let b = Point3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min(&b), Point3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max(&b), Point3::new(2.0, 5.0, 3.0));
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point3::ORIGIN;
        let b = Point3::new(3.0, 4.0, 0.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Point3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 2.5, 3.0));
    }

    #[test]
    fn finiteness() {
        assert!(Point3::new(0.0, 1.0, -5.0).is_finite());
        assert!(!Point3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }
}
