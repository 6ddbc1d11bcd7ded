//! Property tests: the full Sphinx index (hash table, filter cache,
//! remote ART, checksummed leaves — the whole stack over the simulated
//! cluster) agrees with `BTreeMap` on arbitrary operation sequences.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dm_sim::{ClusterConfig, DmCluster};
use sphinx::{CacheMode, SphinxConfig, SphinxIndex};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
    Get(Vec<u8>),
    Scan(Vec<u8>, Vec<u8>),
    MultiGet(Vec<Vec<u8>>),
    ScanN(Vec<u8>, usize),
    ScanIter(Vec<u8>, usize),
}

/// Short keys over a few small bytes, plus `0xFE`/`0xFF` so scan
/// successors carry over trailing `0xFF` bytes or have none.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![3 => 0u8..4, 1 => 0xFEu8..=0xFF, 1 => any::<u8>()],
        0..8,
    )
}

fn val_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..80)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (key_strategy(), val_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (key_strategy(), val_strategy()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => key_strategy().prop_map(Op::Remove),
        2 => key_strategy().prop_map(Op::Get),
        1 => (key_strategy(), key_strategy()).prop_map(|(a, b)| Op::Scan(a, b)),
        1 => proptest::collection::vec(key_strategy(), 1..8).prop_map(Op::MultiGet),
        1 => (key_strategy(), 0usize..12).prop_map(|(k, n)| Op::ScanN(k, n)),
        1 => (key_strategy(), 1usize..10).prop_map(|(k, n)| Op::ScanIter(k, n)),
    ]
}

fn check_mode(mode: CacheMode, ops: &[Op]) -> Result<(), TestCaseError> {
    let cluster = DmCluster::new(ClusterConfig {
        mn_capacity: 32 << 20,
        ..ClusterConfig::default()
    });
    let config = SphinxConfig {
        mode,
        ..SphinxConfig::small()
    };
    let index = SphinxIndex::create(&cluster, config).expect("create");
    let mut client = index.client(0).expect("client");
    let mut oracle: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Insert(k, v) => {
                client.insert(k, v).expect("insert");
                oracle.insert(k.clone(), v.clone());
            }
            Op::Update(k, v) => {
                let did = client.update(k, v).expect("update");
                prop_assert_eq!(did, oracle.contains_key(k));
                if did {
                    oracle.insert(k.clone(), v.clone());
                }
            }
            Op::Remove(k) => {
                let did = client.remove(k).expect("remove");
                prop_assert_eq!(did, oracle.remove(k).is_some());
            }
            Op::Get(k) => {
                prop_assert_eq!(client.get(k).expect("get"), oracle.get(k).cloned());
            }
            Op::Scan(a, b) => {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let got = client.scan(low, high).expect("scan");
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..=high.clone())
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            Op::MultiGet(keys) => {
                let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                let got = client.multi_get(&refs).expect("multi_get");
                for (k, g) in refs.iter().zip(got) {
                    prop_assert_eq!(g, oracle.get(*k).cloned(), "multi_get {:?}", k);
                }
            }
            Op::ScanN(low, n) => {
                let got = client.scan_n(low, *n).expect("scan_n");
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            Op::ScanIter(low, n) => {
                let got: Vec<(Vec<u8>, Vec<u8>)> = client
                    .scan_iter(low)
                    .with_page_size(3) // force paging
                    .take(*n)
                    .map(|r| r.expect("scan_iter"))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range(low.clone()..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }
    // Closing sweep.
    for (k, v) in &oracle {
        prop_assert_eq!(client.get(k).expect("get"), Some(v.clone()));
    }
    Ok(())
}

/// Inserts `keys` (value = key), then runs `probes`, in both cache modes.
fn check_cases(keys: &[Vec<u8>], probes: &[Op]) {
    let mut ops: Vec<Op> = keys
        .iter()
        .map(|k| Op::Insert(k.clone(), k.clone()))
        .collect();
    ops.extend_from_slice(probes);
    for mode in [CacheMode::FilterCache, CacheMode::InhtOnly] {
        check_mode(mode, &ops).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    }
}

/// A window that starts in a deep subtree and must climb: the successor
/// of `[1, FF, FF]` carries to `[2]`, and an all-`0xFF` prefix has none.
#[test]
fn scan_climb_carries_over_ff() {
    let keys: Vec<Vec<u8>> = vec![
        vec![0x01, 0xFF, 0xFF],
        vec![0x01, 0xFF, 0xFF, 0x00],
        vec![0x01, 0xFF, 0xFF, 0x01],
        vec![0x01, 0xFF, 0xFF, 0xFF],
        vec![0x02],
        vec![0x02, 0x00],
        vec![0xFF, 0xFF],
        vec![0xFF, 0xFF, 0x00],
        vec![0xFF, 0xFF, 0xFF],
    ];
    let mut probes = Vec::new();
    for low in [
        vec![0x01, 0xFF, 0xFF, 0x01],
        vec![0x01, 0xFF, 0xFF, 0xFF, 0x00],
        vec![0xFF, 0xFF],
        vec![0xFF, 0xFF, 0xFF],
    ] {
        for n in [1, 2, 3, 9] {
            probes.push(Op::ScanN(low.clone(), n));
        }
        probes.push(Op::ScanIter(low.clone(), 9));
        probes.push(Op::Scan(low, vec![0xFF; 4]));
    }
    check_cases(&keys, &probes);
}

/// `low` equal to an inner node's prefix, which is also a key held in
/// that node's value slot.
#[test]
fn scan_from_value_slot_prefix() {
    let keys: Vec<Vec<u8>> = ["ab", "abc", "abd", "abda", "abdb", "ac"]
        .iter()
        .map(|k| k.as_bytes().to_vec())
        .collect();
    let mut probes = Vec::new();
    for low in ["ab", "abd", "a"] {
        for n in [1, 2, 4, 10] {
            probes.push(Op::ScanN(low.as_bytes().to_vec(), n));
        }
        probes.push(Op::Scan(low.as_bytes().to_vec(), b"abd".to_vec()));
    }
    check_cases(&keys, &probes);
}

/// Limits that end inside the entry subtree, cross into the next one,
/// and cross several; `low` past every key; `scan` bounds with an empty
/// common prefix.
#[test]
fn scan_limits_cross_entry_subtrees() {
    let mut keys = Vec::new();
    for g in [b'a', b'b', b'c'] {
        for h in [b'x', b'y', b'z'] {
            for i in 0..6u8 {
                keys.push(vec![g, b'/', h, b'/', i]);
            }
        }
    }
    let mut probes = Vec::new();
    for n in [1, 3, 6, 7, 13, 30, 60] {
        probes.push(Op::ScanN(b"a/x/\x02".to_vec(), n));
        probes.push(Op::ScanN(vec![b'a', b'/', b'z', b'/', 5], n));
    }
    probes.push(Op::ScanIter(b"a/y".to_vec(), 40));
    probes.push(Op::ScanN(vec![0xFF; 3], 5));
    probes.push(Op::ScanN(b"c/z/\x06".to_vec(), 5));
    probes.push(Op::Scan(b"a/y".to_vec(), b"c/x/\x03".to_vec()));
    probes.push(Op::Scan(Vec::new(), vec![0xFF]));
    check_cases(&keys, &probes);
}

/// Every scan form on an empty index, and after its only key is removed.
#[test]
fn scan_empty_index() {
    let probes = vec![
        Op::ScanN(Vec::new(), 5),
        Op::ScanN(b"k".to_vec(), 5),
        Op::Scan(Vec::new(), vec![0xFF; 2]),
        Op::ScanIter(Vec::new(), 5),
        Op::Insert(b"k".to_vec(), b"v".to_vec()),
        Op::Remove(b"k".to_vec()),
        Op::ScanN(Vec::new(), 5),
        Op::Scan(b"a".to_vec(), b"z".to_vec()),
    ];
    check_cases(&[], &probes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sphinx_filter_cache_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        check_mode(CacheMode::FilterCache, &ops)?;
    }

    #[test]
    fn sphinx_inht_only_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        check_mode(CacheMode::InhtOnly, &ops)?;
    }
}
