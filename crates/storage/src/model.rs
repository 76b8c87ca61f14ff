//! Disk device cost model.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A rotational-disk cost model with distance-dependent seeks.
///
/// Every access pays the page transfer time. A *sequential* access (the
/// page is the successor of the previously accessed page) pays nothing
/// else — the head is already there and the platter keeps streaming. Any
/// other access pays:
///
/// * **rotational latency** — on average half a revolution (≈3 ms at
///   10 kRPM), independent of distance;
/// * **seek time** — interpolated between the track-to-track minimum and
///   the full-stroke maximum by the page distance relative to
///   `seek_span_pages`.
///
/// The defaults are calibrated to the paper's hardware (§VII-A: 300 GB
/// 10 kRPM SAS disks): 3 ms rotational, 0.4–6 ms seek, ≈50 µs to transfer
/// an 8 KiB page at ~160 MB/s.
///
/// The distance dependence matters for reproducing the paper's I/O
/// behaviour: TRANSFORMERS' data-oriented layout keeps candidate pages of
/// one pivot *contiguous or nearby*, while PBSM's partition pages scatter
/// across the whole allocation span — both perform "random" reads, but at
/// very different seek distances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Average rotational latency paid by every non-sequential access.
    pub rotational: Duration,
    /// Track-to-track (minimum) seek time.
    pub seek_min: Duration,
    /// Full-stroke (maximum) seek time.
    pub seek_max: Duration,
    /// Page distance corresponding to a full-stroke seek.
    pub seek_span_pages: u64,
    /// Cost of transferring one page, paid by every access.
    pub transfer_per_page: Duration,
    /// Fixed per-request overhead (command issue, non-coalesced request)
    /// paid by every non-sequential access. Only truly contiguous reads
    /// stream at full bandwidth (the OS readahead / coalescing case).
    pub request_overhead: Duration,
}

impl DiskModel {
    /// Model of the paper's 10 kRPM SAS disk with 8 KiB pages.
    pub fn sas_10k_rpm() -> Self {
        Self {
            rotational: Duration::from_micros(3000),
            seek_min: Duration::from_micros(400),
            seek_max: Duration::from_micros(6000),
            seek_span_pages: 262_144, // 2 GiB of 8 KiB pages
            transfer_per_page: Duration::from_micros(50),
            request_overhead: Duration::from_micros(300),
        }
    }

    /// A model in which I/O is free. Useful for unit tests that only check
    /// access counts.
    pub fn free() -> Self {
        Self {
            rotational: Duration::ZERO,
            seek_min: Duration::ZERO,
            seek_max: Duration::ZERO,
            seek_span_pages: 1,
            transfer_per_page: Duration::ZERO,
            request_overhead: Duration::ZERO,
        }
    }

    /// Cost of one access `gap` pages away from the head's expected
    /// position. `gap == 0` means sequential (successor page).
    ///
    /// This charges the full repositioning (rotational + seek); use
    /// [`cost_for_jump`](Self::cost_for_jump) when the direction is known —
    /// short *forward* skips are much cheaper.
    #[inline]
    pub fn cost_for_gap(&self, gap: u64) -> Duration {
        self.cost_for_jump(true, gap)
            .max(self.cost_for_jump(false, gap))
    }

    /// Cost of one access `gap` pages before (`forward == false`) or after
    /// (`forward == true`) the head's expected position.
    ///
    /// A short forward skip does not pay rotational latency: the head
    /// simply waits for the target sector to rotate underneath, which takes
    /// about as long as transferring the skipped pages would. The positioning
    /// cost of a forward jump is therefore `min(reposition, skip-through)` —
    /// on rotating media, skipping N nearby pages is no cheaper than reading
    /// them. Backward jumps always pay the full repositioning. Every
    /// non-sequential access additionally pays at least the per-request
    /// overhead.
    #[inline]
    pub fn cost_for_jump(&self, forward: bool, gap: u64) -> Duration {
        if gap == 0 {
            return self.transfer_per_page;
        }
        let frac = (gap as f64 / self.seek_span_pages.max(1) as f64).min(1.0);
        let seek = self.seek_min + (self.seek_max - self.seek_min).mul_f64(frac);
        let reposition = self.rotational + seek;
        let positioning = if forward {
            let skip_through = self
                .transfer_per_page
                .mul_f64(gap.min(self.seek_span_pages) as f64);
            reposition.min(skip_through)
        } else {
            reposition
        };
        positioning.max(self.request_overhead) + self.transfer_per_page
    }

    /// Longest forward gap, in pages, that is cheaper to read through than
    /// to skip: a skip pays at least `request_overhead` on top of the
    /// transfer, reading through pays one transfer per gap page, so the
    /// break-even is `request_overhead / transfer_per_page − 1` (5 pages
    /// for [`sas_10k_rpm`](Self::sas_10k_rpm)). 0 when transfers are free:
    /// with nothing to save, no extra page is read.
    #[inline]
    pub fn read_through_gap(&self) -> u64 {
        let transfer = self.transfer_per_page.as_nanos();
        if transfer == 0 {
            return 0;
        }
        let pages = (self.request_overhead.as_nanos() / transfer).saturating_sub(1);
        u64::try_from(pages).unwrap_or(u64::MAX)
    }

    /// Cost of a sequential access.
    #[inline]
    pub fn sequential_cost(&self) -> Duration {
        self.cost_for_gap(0)
    }

    /// Cost of a typical random access (half-stroke seek).
    #[inline]
    pub fn typical_random_cost(&self) -> Duration {
        self.cost_for_gap(self.seek_span_pages / 2)
    }

    /// Back-compat style helper: sequential or typical-random cost.
    #[inline]
    pub fn access_cost(&self, sequential: bool) -> Duration {
        if sequential {
            self.sequential_cost()
        } else {
            self.typical_random_cost()
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        Self::sas_10k_rpm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_cheapest() {
        let m = DiskModel::default();
        assert!(m.sequential_cost() < m.cost_for_gap(1));
        assert!(m.cost_for_gap(1) < m.cost_for_gap(1_000_000));
        assert_eq!(m.sequential_cost(), m.transfer_per_page);
    }

    #[test]
    fn seek_cost_is_monotone_in_distance() {
        let m = DiskModel::default();
        let mut last = m.cost_for_gap(1);
        for gap in [10, 100, 10_000, 100_000, 262_144, 10_000_000] {
            let c = m.cost_for_gap(gap);
            assert!(c >= last, "gap {gap}");
            last = c;
        }
        // Saturates at full stroke.
        assert_eq!(m.cost_for_gap(262_144), m.cost_for_gap(u64::MAX));
    }

    #[test]
    fn near_seek_much_cheaper_than_far_seek() {
        let m = DiskModel::default();
        let near = m.cost_for_gap(100);
        let far = m.cost_for_gap(262_144);
        assert!(far.as_secs_f64() > 2.0 * near.as_secs_f64());
    }

    #[test]
    fn free_model_is_zero() {
        let m = DiskModel::free();
        assert_eq!(m.cost_for_gap(0), Duration::ZERO);
        assert_eq!(m.cost_for_gap(123_456), Duration::ZERO);
    }

    #[test]
    fn read_through_gap_is_the_models_break_even() {
        let m = DiskModel::default();
        let g = m.read_through_gap();
        assert_eq!(g, 5);
        // Reading `g` gap pages and the target sequentially is cheaper than
        // skipping them; one page further it no longer is.
        let through = |gap: u64| m.sequential_cost() * (gap as u32 + 1);
        assert!(through(g) < m.cost_for_jump(true, g));
        assert!(through(g + 1) >= m.cost_for_jump(true, g + 1));
        assert_eq!(DiskModel::free().read_through_gap(), 0);
    }

    #[test]
    fn access_cost_helper_matches() {
        let m = DiskModel::default();
        assert_eq!(m.access_cost(true), m.sequential_cost());
        assert_eq!(m.access_cost(false), m.typical_random_cost());
    }
}
