//! Boxes stored column-wise, tested a group at a time.

use crate::{Aabb, Point3};

/// Most boxes one [`BoxColumns::hit_mask`] call tests: the bits of its mask.
pub const MASK_BITS: usize = u64::BITS as usize;

/// A sequence of boxes as six coordinate arrays: box `i` spans
/// `min[d][i]..=max[d][i]` along each dimension `d` (x, y, z).
///
/// It holds what a `Vec<Aabb>` holds, in the same memory, but a group of
/// consecutive boxes tests against one probe in a single pass
/// ([`hit_mask`](Self::hit_mask)): the compiler runs the six compares of
/// several boxes side by side in vector lanes and folds them into a
/// bitmask, with no branch per box.
#[derive(Debug, Default)]
pub struct BoxColumns {
    min: [Vec<f64>; 3],
    max: [Vec<f64>; 3],
}

impl BoxColumns {
    /// Number of boxes.
    #[inline]
    pub fn len(&self) -> usize {
        self.min[0].len()
    }

    /// True if there are no boxes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a box.
    pub fn push(&mut self, b: &Aabb) {
        for (d, (lo, hi)) in self.min.iter_mut().zip(&mut self.max).enumerate() {
            lo.push(b.min.coord(d));
            hi.push(b.max.coord(d));
        }
    }

    /// Box `i`, as it was pushed (the empty box included).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Aabb {
        let (lo, hi) = (&self.min, &self.max);
        Aabb {
            min: Point3::new(lo[0][i], lo[1][i], lo[2][i]),
            max: Point3::new(hi[0][i], hi[1][i], hi[2][i]),
        }
    }

    /// [`Aabb::intersects`] of every box of `run` with `probe`: bit `k` is
    /// set when box `run.start + k` intersects it.
    ///
    /// The six compares are joined with `&`, not summed as in
    /// [`Aabb::intersects`]: across a whole group the compiler turns each
    /// compare into one vector compare and the `&`s into mask ands, where a
    /// sum would cost a pack per compare. (One box at a time, it is the
    /// other way round: a `&` chain becomes jumps again.)
    ///
    /// # Panics
    /// Panics if `run` is longer than [`MASK_BITS`] (in debug builds) or
    /// reaches past the last box.
    #[inline(always)]
    pub fn hit_mask(&self, run: std::ops::Range<usize>, probe: &Aabb) -> u64 {
        debug_assert!(run.len() <= MASK_BITS, "{run:?} is wider than a mask");
        let [lx, ly, lz] = self.min.each_ref().map(|c| &c[run.clone()]);
        let [hx, hy, hz] = self.max.each_ref().map(|c| &c[run.clone()]);
        let (lo, hi) = (probe.min, probe.max);
        let mut mask = 0;
        for k in 0..lx.len() {
            let hit = (lx[k] <= hi.x)
                & (lo.x <= hx[k])
                & (ly[k] <= hi.y)
                & (lo.y <= hy[k])
                & (lz[k] <= hi.z)
                & (lo.z <= hz[k]);
            mask |= (hit as u64) << k;
        }
        mask
    }
}

impl Extend<Aabb> for BoxColumns {
    fn extend<I: IntoIterator<Item = Aabb>>(&mut self, boxes: I) {
        boxes.into_iter().for_each(|b| self.push(&b));
    }
}

impl FromIterator<Aabb> for BoxColumns {
    fn from_iter<I: IntoIterator<Item = Aabb>>(boxes: I) -> Self {
        let mut columns = Self::default();
        columns.extend(boxes);
        columns
    }
}

/// Calls `f` with the position of every set bit of `mask`, low to high —
/// the order of the boxes a [`BoxColumns::hit_mask`] tested.
#[inline(always)]
pub fn for_each_bit(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
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
    fn columns_round_trip_their_boxes() {
        let boxes = [
            bx((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)),
            Aabb::empty(),
            bx((-1.0, -1.0, -1.0), (-1.0, -1.0, -1.0)),
        ];
        let columns: BoxColumns = boxes.iter().copied().collect();
        assert_eq!(columns.len(), 3);
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(columns.get(i), *b);
        }
        assert!(BoxColumns::default().is_empty());
    }

    #[test]
    fn mask_bits_follow_the_run() {
        // 70 unit cubes along x. `probe` touches cubes 3..=5 (the faces at
        // 4 and 5 count), `far` cubes 65 and 66.
        let columns: BoxColumns = (0..70)
            .map(|i| bx((i as f64, 0.0, 0.0), (i as f64 + 1.0, 1.0, 1.0)))
            .collect();
        let probe = bx((4.0, 0.5, 0.5), (5.0, 0.5, 0.5));
        assert_eq!(columns.hit_mask(0..64, &probe), 0b111 << 3);
        assert_eq!(columns.hit_mask(2..10, &probe), 0b111 << 1);
        assert_eq!(columns.hit_mask(6..6, &probe), 0);
        let far = bx((65.5, 0.0, 0.0), (66.5, 1.0, 1.0));
        assert_eq!(columns.hit_mask(64..70, &far), 0b110);
        let mut bits = Vec::new();
        for_each_bit(columns.hit_mask(0..64, &probe) | 1 << 63, |k| bits.push(k));
        assert_eq!(bits, [3, 4, 5, 63]);
    }
}
