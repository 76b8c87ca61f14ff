//! Spatial point queries: the probe vocabulary of the serving subsystem.
//!
//! The paper's motivating workload (§I–II) is neuroscience analyses firing
//! massive numbers of spatial probes against the built structures: "which
//! elements lie in this sub-volume", "which elements enclose this point",
//! "which elements are within ε of this synapse site". [`SpatialQuery`]
//! captures those three probe kinds; it lives here in the geometry
//! substrate so the trace generators (`tfm-datagen`) and the serving
//! subsystem (`tfm-serve`) can share one vocabulary without depending on
//! each other.

use crate::{Aabb, Point3};
use serde::{Deserialize, Serialize};

/// One spatial probe against an indexed dataset.
///
/// Every query selects the elements whose MBB satisfies the predicate;
/// [`SpatialQuery::matches`] is the exact per-element test and
/// [`SpatialQuery::probe`] the bounding region an index may prefilter
/// with (the probe box is a superset of the match region, so
/// "probe-box-intersects" is a sound candidate filter for all three
/// kinds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpatialQuery {
    /// Window (range) query: all elements whose MBB intersects the window.
    Window(Aabb),
    /// Point-enclosure query: all elements whose MBB contains the point.
    Point(Point3),
    /// Distance (ε-ball) query: all elements whose MBB lies within `eps`
    /// of `center`.
    Distance {
        /// Ball center.
        center: Point3,
        /// Ball radius (must be non-negative).
        eps: f64,
    },
}

impl SpatialQuery {
    /// The bounding box of the match region — the sound prefilter box.
    ///
    /// For a window it is the window itself; for a point the degenerate
    /// point box; for a distance query the ball's bounding cube. An element
    /// MBB that does not intersect this box can never match.
    #[inline]
    pub fn probe(&self) -> Aabb {
        match self {
            SpatialQuery::Window(w) => *w,
            SpatialQuery::Point(p) => Aabb::from_point(*p),
            SpatialQuery::Distance { center, eps } => Aabb::from_point(*center).inflate(*eps),
        }
    }

    /// Exact predicate: does an element with bounding box `mbb` match?
    #[inline]
    pub fn matches(&self, mbb: &Aabb) -> bool {
        match self {
            SpatialQuery::Window(w) => w.intersects(mbb),
            SpatialQuery::Point(p) => mbb.contains_point(p),
            SpatialQuery::Distance { center, eps } => {
                mbb.min_distance_sq(&Aabb::from_point(*center)) <= eps * eps
            }
        }
    }

    /// [`matches`](Self::matches) over `count` boxes: calls `hit(i)`, in
    /// order, for every `i` in `0..count` whose box `mbb_at(i)` matches.
    ///
    /// The query kind is resolved once, outside the loop, so each arm's
    /// loop tests one fixed predicate. That matters when `mbb_at` reads the
    /// box out of raw page bytes: with the kind re-dispatched per box the
    /// compiler loads all six coordinates up front for whichever arm runs,
    /// and a probe over a cached page costs ~10 % more than iterating
    /// decoded elements; resolved once, it costs the same.
    #[inline]
    pub fn for_each_match(
        &self,
        count: usize,
        mbb_at: impl Fn(usize) -> Aabb,
        hit: impl FnMut(usize),
    ) {
        // One monomorphised loop per arm; the predicates are `matches`'s.
        match self {
            SpatialQuery::Window(w) => scan_boxes(count, mbb_at, hit, |mbb| w.intersects(mbb)),
            SpatialQuery::Point(p) => scan_boxes(count, mbb_at, hit, |mbb| mbb.contains_point(p)),
            SpatialQuery::Distance { center, eps } => {
                let (center, eps_sq) = (Aabb::from_point(*center), eps * eps);
                scan_boxes(count, mbb_at, hit, |mbb| {
                    mbb.min_distance_sq(&center) <= eps_sq
                })
            }
        }
    }

    /// Center of the probe region — the locality key Hilbert-ordered
    /// batching sorts on.
    #[inline]
    pub fn center(&self) -> Point3 {
        match self {
            SpatialQuery::Window(w) => w.center(),
            SpatialQuery::Point(p) => *p,
            SpatialQuery::Distance { center, .. } => *center,
        }
    }
}

/// The loop of [`SpatialQuery::for_each_match`] for one fixed predicate.
#[inline(always)]
fn scan_boxes(
    count: usize,
    mbb_at: impl Fn(usize) -> Aabb,
    mut hit: impl FnMut(usize),
    matches: impl Fn(&Aabb) -> bool,
) {
    for i in 0..count {
        if matches(&mbb_at(i)) {
            hit(i);
        }
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
    fn window_matches_are_intersections() {
        let q = SpatialQuery::Window(bx((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)));
        assert!(q.matches(&bx((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))));
        assert!(q.matches(&bx((2.0, 0.0, 0.0), (3.0, 1.0, 1.0)))); // touching
        assert!(!q.matches(&bx((2.5, 2.5, 2.5), (3.0, 3.0, 3.0))));
        assert_eq!(q.probe(), bx((0.0, 0.0, 0.0), (2.0, 2.0, 2.0)));
    }

    #[test]
    fn point_enclosure_is_closed() {
        let q = SpatialQuery::Point(Point3::new(1.0, 1.0, 1.0));
        assert!(q.matches(&bx((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))); // boundary
        assert!(!q.matches(&bx((1.1, 1.1, 1.1), (2.0, 2.0, 2.0))));
        assert_eq!(q.center(), Point3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn distance_query_refines_its_probe_box() {
        let q = SpatialQuery::Distance {
            center: Point3::new(0.0, 0.0, 0.0),
            eps: 1.0,
        };
        // Inside the probe cube but outside the ball: corner-ward box at
        // distance sqrt(3)*0.9 > 1.
        let corner = bx((0.9, 0.9, 0.9), (1.0, 1.0, 1.0));
        assert!(q.probe().intersects(&corner));
        assert!(!q.matches(&corner));
        // Face-ward box at distance 0.5 matches.
        assert!(q.matches(&bx((0.5, -0.1, -0.1), (0.6, 0.1, 0.1))));
        assert_eq!(q.probe(), bx((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)));
    }

    #[test]
    fn probe_box_is_a_sound_prefilter() {
        // Anything that matches must intersect the probe box.
        let queries = [
            SpatialQuery::Window(bx((0.0, 0.0, 0.0), (3.0, 1.0, 2.0))),
            SpatialQuery::Point(Point3::new(0.5, 0.5, 0.5)),
            SpatialQuery::Distance {
                center: Point3::new(2.0, 2.0, 2.0),
                eps: 0.75,
            },
        ];
        for q in &queries {
            for i in 0..64 {
                let f = i as f64 * 0.17;
                let b = bx(
                    (f, f * 0.3, f * 0.7),
                    (f + 0.4, f * 0.3 + 0.4, f * 0.7 + 0.4),
                );
                if q.matches(&b) {
                    assert!(q.probe().intersects(&b), "{q:?} vs {b:?}");
                }
            }
        }
    }
}
