//! A page's capacity never exceeds what its `u16` count field can say.
//!
//! A 4 MiB page has room for 74 898 element records. Before the capacity
//! was capped, 74 000 elements were packed into one space unit whose header
//! (and descriptor) stored `74 000 mod 65 536 = 8 464`, and every join over
//! it silently returned the pairs of those first 8 464 elements only.

use transformers_repro::memjoin::nested_loop_join;
use transformers_repro::prelude::*;

#[test]
fn join_over_4_mib_pages_returns_every_pair() {
    let a = generate(&DatasetSpec {
        max_side: 40.0,
        ..DatasetSpec::uniform(74_000, 1)
    });
    let b = generate(&DatasetSpec {
        max_side: 40.0,
        ..DatasetSpec::uniform(2_000, 2)
    });
    let oracle = canonicalize(nested_loop_join(&a, &b, &mut JoinStats::default()));
    assert!(oracle.len() > 1_000, "oracle found {} pairs", oracle.len());

    for page_size in [1 << 22, 2_048] {
        let (disk_a, disk_b) = (Disk::in_memory(page_size), Disk::in_memory(page_size));
        let idx_a = TransformersIndex::build(&disk_a, a.clone(), &IndexConfig::default());
        let idx_b = TransformersIndex::build(&disk_b, b.clone(), &IndexConfig::default());
        let stored: usize = idx_a.units().iter().map(|u| u.count as usize).sum();
        assert_eq!(stored, a.len(), "unit counts at page size {page_size}");
        assert!(idx_a.unit_capacity() <= u16::MAX as usize);
        let out = transformers_join(&idx_a, &disk_a, &idx_b, &disk_b, &JoinConfig::default());
        assert_eq!(out.pairs.len(), oracle.len(), "page size {page_size}");
        assert_eq!(out.pairs, oracle, "page size {page_size}");
    }
}
