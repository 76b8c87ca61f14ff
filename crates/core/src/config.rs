//! Index and join configuration.

/// Configuration of the indexing phase (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Elements per space unit. `None` packs as many 56-byte records as fit
    /// one disk page (the paper's design: space units are page-aligned).
    pub unit_capacity: Option<usize>,
    /// Space units per space node. `None` packs as many unit descriptors as
    /// fit one disk page.
    pub node_capacity: Option<usize>,
    /// Worker threads for the staged build pipeline (STR passes, page
    /// packing, connectivity). The default is the host's available
    /// parallelism (`std::thread::available_parallelism`, 1 when it cannot
    /// be read); `1` builds sequentially. Any setting produces
    /// **byte-identical** disk pages, metadata and B+-tree — parallelism
    /// only changes wall time. `0` is clamped to 1.
    pub build_threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            unit_capacity: None,
            node_capacity: None,
            build_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl IndexConfig {
    /// Builder: sets the build worker count.
    pub fn with_build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    /// Checks the configuration for values that could only fail deep inside
    /// the build (a zero capacity panics in the STR pass, pages that can
    /// never fill, …) and reports them as one clear error up front.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_capacity == Some(0) {
            return Err(
                "index config: unit_capacity must be at least 1 (a space unit holds \
                 at least one element); use None to fill whole pages"
                    .into(),
            );
        }
        if self.node_capacity == Some(0) {
            return Err(
                "index config: node_capacity must be at least 1 (a space node groups \
                 at least one unit); use None to fill whole pages"
                    .into(),
            );
        }
        Ok(())
    }
}

/// How transformation thresholds are chosen (paper §VI-C, §VII-D2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// The paper's cost model: start from the default thresholds
    /// (t_su = 8, t_so = 27 — "an edge of one MBB is two/three times bigger
    /// than the other one") and update them at runtime from the measured
    /// T_ae, T_io, T_comp and the observed filter rate c_flt after the
    /// first transformation.
    CostModel,
    /// Fixed thresholds. `OverFit` in the paper is `fixed(1.5, 1.5)`;
    /// `UnderFit` is `fixed(1e6, 1e6)`.
    Fixed {
        /// Node → unit split threshold (and its reciprocal for role switches).
        t_su: f64,
        /// Unit → element split threshold.
        t_so: f64,
    },
    /// Disable all transformations ("No TR" in Fig. 13): the join sticks to
    /// the initial guide and node-level layout.
    Disabled,
}

impl ThresholdPolicy {
    /// The paper's OverFit configuration (threshold 1.5 ⇒ many
    /// transformations).
    pub fn over_fit() -> Self {
        ThresholdPolicy::Fixed {
            t_su: 1.5,
            t_so: 1.5,
        }
    }

    /// The paper's UnderFit configuration (threshold 10⁶ ⇒ no
    /// transformations triggered, but role/layout machinery still active).
    pub fn under_fit() -> Self {
        ThresholdPolicy::Fixed {
            t_su: 1e6,
            t_so: 1e6,
        }
    }
}

/// Which dataset initially guides the join (paper: "randomly picks one
/// dataset ... and uses it as the guide").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuidePick {
    /// Dataset A guides first.
    A,
    /// Dataset B guides first.
    B,
}

/// Configuration of the join phase (paper §V–§VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinConfig {
    /// Threshold policy for role and layout transformations.
    pub thresholds: ThresholdPolicy,
    /// Initial guide dataset.
    pub first_guide: GuidePick,
    /// Page-cache capacity (pages) per dataset during the join: the join
    /// reads element and B+-tree pages through one
    /// [`tfm_storage::SharedPageCache`] of this size per dataset, shared
    /// by all workers (zero-copy pin guards; a window copies its follower
    /// pages out and holds no frame). Results are byte-identical at any
    /// capacity; only I/O counters change.
    pub pool_pages: usize,
    /// Parallel path only: prefetch window in pages (capacity of the
    /// bounded, lossy [`tfm_pool::RequestQueue`] of page ids feeding the
    /// I/O threads).
    /// `0` (the default) disables join prefetch — every unit page is
    /// demand-paged. The sequential join ignores this field.
    pub readahead: usize,
    /// Parallel path only: dedicated prefetch I/O threads when `readahead`
    /// is non-zero (clamped to at least 1). Ignored when prefetch is off.
    pub io_depth: usize,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            thresholds: ThresholdPolicy::CostModel,
            first_guide: GuidePick::A,
            pool_pages: tfm_storage::DEFAULT_POOL_PAGES,
            readahead: 0,
            io_depth: 1,
        }
    }
}

impl JoinConfig {
    /// The "No TR" configuration of Fig. 13 (left).
    pub fn without_transformations() -> Self {
        Self {
            thresholds: ThresholdPolicy::Disabled,
            ..Self::default()
        }
    }

    /// Builder: replaces the threshold policy.
    pub fn with_thresholds(mut self, thresholds: ThresholdPolicy) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Builder: enables join prefetch with a readahead window of `pages`
    /// (0 disables).
    pub fn with_readahead(mut self, pages: usize) -> Self {
        self.readahead = pages;
        self
    }

    /// Builder: sets the prefetch I/O thread count (clamped to ≥ 1 when
    /// prefetch is active).
    pub fn with_io_depth(mut self, depth: usize) -> Self {
        self.io_depth = depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_values() {
        assert_eq!(
            ThresholdPolicy::over_fit(),
            ThresholdPolicy::Fixed {
                t_su: 1.5,
                t_so: 1.5
            }
        );
        assert_eq!(
            ThresholdPolicy::under_fit(),
            ThresholdPolicy::Fixed {
                t_su: 1e6,
                t_so: 1e6
            }
        );
        let no_tr = JoinConfig::without_transformations();
        assert_eq!(no_tr.thresholds, ThresholdPolicy::Disabled);
    }

    #[test]
    fn builder_replaces_thresholds() {
        let c = JoinConfig::default().with_thresholds(ThresholdPolicy::over_fit());
        assert_eq!(c.thresholds, ThresholdPolicy::over_fit());
    }

    #[test]
    fn zero_capacities_are_rejected_with_clear_errors() {
        let bad_unit = IndexConfig {
            unit_capacity: Some(0),
            ..IndexConfig::default()
        };
        let err = bad_unit.validate().expect_err("unit_capacity 0 must fail");
        assert!(err.contains("unit_capacity"), "unhelpful error: {err}");
        let bad_node = IndexConfig {
            node_capacity: Some(0),
            ..IndexConfig::default()
        };
        let err = bad_node.validate().expect_err("node_capacity 0 must fail");
        assert!(err.contains("node_capacity"), "unhelpful error: {err}");
        assert!(IndexConfig::default().validate().is_ok());
    }

    #[test]
    fn build_threads_default_and_builder() {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(IndexConfig::default().build_threads, host);
        assert_eq!(
            IndexConfig::default().with_build_threads(4).build_threads,
            4
        );
    }
}
