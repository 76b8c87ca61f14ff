//! Property tests for the B+-tree against `BTreeMap` as the model.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tfm_bptree::BPlusTree;
use tfm_storage::Disk;

fn arb_pairs(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::btree_map(any::<u64>(), any::<u64>(), 0..max)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn get_matches_model(pairs in arb_pairs(300), probes in prop::collection::vec(any::<u64>(), 20)) {
        let disk = Disk::in_memory(128); // tiny pages -> multi-level trees
        let tree = BPlusTree::bulk_load(&disk, &pairs);
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        for key in pairs.iter().map(|&(k, _)| k).chain(probes) {
            prop_assert_eq!(tree.get(&disk, key), model.get(&key).copied());
        }
    }

    #[test]
    fn range_matches_model(pairs in arb_pairs(300), lo in any::<u64>(), hi in any::<u64>()) {
        let disk = Disk::in_memory(128);
        let tree = BPlusTree::bulk_load(&disk, &pairs);
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let got = tree.range(&disk, lo, hi);
        let expected: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn nearest_matches_model(pairs in arb_pairs(200), probes in prop::collection::vec(any::<u64>(), 20)) {
        let disk = Disk::in_memory(128);
        let tree = BPlusTree::bulk_load(&disk, &pairs);
        let model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        for key in probes {
            let got = tree.nearest(&disk, key);
            let below = model.range(..=key).next_back().map(|(&k, &v)| (k, v));
            let above = model.range(key..).next().map(|(&k, &v)| (k, v));
            let expected = match (below, above) {
                (None, x) => x,
                (x, None) => x,
                (Some(b), Some(a)) => {
                    if key - b.0 <= a.0 - key { Some(b) } else { Some(a) }
                }
            };
            prop_assert_eq!(got, expected, "key {}", key);
        }
    }

    #[test]
    fn mutations_match_model(
        loaded in prop::collection::btree_map(0u64..300, any::<u64>(), 0..200),
        ops in prop::collection::vec((any::<bool>(), 0u64..300, any::<u64>()), 1..300),
    ) {
        for page_size in [64, 128] {
            replay_against_model(page_size, BTreeMap::new(), &ops);
            replay_against_model(page_size, loaded.clone(), &ops);
        }
    }
}

/// Replays `ops` — the element directory's usage: insert `(key, value)`
/// only if `key` is absent, or delete `key` — on a tree bulk-loaded from
/// `start` (fanout 3 on 64-byte pages, 7 on 128), checking `get`, `range`
/// and `len` against the model after every step.
fn replay_against_model(page_size: usize, start: BTreeMap<u64, u64>, ops: &[(bool, u64, u64)]) {
    let disk = Disk::in_memory(page_size);
    let pairs: Vec<(u64, u64)> = start.iter().map(|(&k, &v)| (k, v)).collect();
    let mut tree = BPlusTree::bulk_load(&disk, &pairs);
    let mut model = start;
    let mut pages: &Disk = &disk;
    let entries = |m: std::collections::btree_map::Range<'_, u64, u64>| -> Vec<(u64, u64)> {
        m.map(|(&k, &v)| (k, v)).collect()
    };
    for &(insert, key, value) in ops {
        if insert {
            if tree.get(&disk, key).is_none() {
                tree.insert(&mut pages, key, value);
            }
            model.entry(key).or_insert(value);
        } else {
            assert_eq!(tree.delete(&mut pages, key), model.remove(&key));
        }
        assert_eq!(tree.get(&disk, key), model.get(&key).copied());
        assert_eq!(tree.len(), model.len());
        assert_eq!(tree.range(&disk, 0, u64::MAX), entries(model.range(..)));
        let (lo, hi) = (key.saturating_sub(20), key + 20);
        assert_eq!(tree.range(&disk, lo, hi), entries(model.range(lo..=hi)));
    }
    for key in 0..310 {
        assert_eq!(tree.get(&disk, key), model.get(&key).copied(), "key {key}");
    }
}
