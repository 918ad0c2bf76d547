//! Cross-crate integration: build each paper workload with
//! `bftree-workloads`, index it with every competitor, and check they
//! agree — the BF-Tree may read extra pages (false positives) but must
//! never miss a present tuple (Bloom filters have no false negatives).

use bftree::{AccessMethod, BfTree, BfTreeConfig};
use bftree_bloom::math;
use bftree_storage::tuple::{AttrOffset, ATT1_OFFSET, PK_OFFSET};
use bftree_storage::{Duplicates, HeapFile, IoContext, Relation};
use bftree_workloads::shd::{self, ShdConfig};
use bftree_workloads::synthetic::{att1_domain, build_relation_r};
use bftree_workloads::tpch::{self, TpchConfig};
use bftree_workloads::SyntheticConfig;

fn brute_force(heap: &HeapFile, attr: AttrOffset, key: u64) -> Vec<(u64, usize)> {
    heap.iter_attr(attr)
        .filter(|&(_, _, v)| v == key)
        .map(|(pid, slot, _)| (pid, slot))
        .collect()
}

fn check_complete(rel: &Relation, tree: &BfTree, keys: &[u64]) {
    let io = IoContext::unmetered();
    for &key in keys {
        let expect = brute_force(rel.heap(), rel.attr(), key);
        let mut got = AccessMethod::probe(tree, key, rel, &io).unwrap().matches;
        got.sort_unstable();
        assert_eq!(got, expect, "probe({key}) disagrees with a full scan");
    }
}

#[test]
fn synthetic_pk_probes_are_exact_across_fpps() {
    let config = SyntheticConfig {
        n_tuples: 30_000,
        ..SyntheticConfig::scaled_mb(8)
    };
    let rel = Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap();
    let keys: Vec<u64> = (0..200u64).map(|i| i * 149 % 30_000).collect();
    for fpp in [0.1, 1e-3, 1e-8] {
        let tree = BfTree::builder().fpp(fpp).build(&rel).unwrap();
        tree.check_invariants();
        check_complete(&rel, &tree, &keys);
    }
}

#[test]
fn synthetic_att1_probes_find_every_duplicate() {
    let config = SyntheticConfig {
        n_tuples: 20_000,
        ..SyntheticConfig::scaled_mb(8)
    };
    let rel = Relation::new(
        build_relation_r(&config),
        ATT1_OFFSET,
        Duplicates::Contiguous,
    )
    .unwrap();
    let domain = att1_domain(rel.heap());
    let keys: Vec<u64> = domain.iter().copied().step_by(13).take(150).collect();
    for duplicates in [
        bftree::DuplicateHandling::AllCoveringPages,
        bftree::DuplicateHandling::FirstPageOnly,
    ] {
        let tree = BfTree::builder()
            .fpp(1e-4)
            .duplicates(duplicates)
            .build(&rel)
            .unwrap();
        check_complete(&rel, &tree, &keys);
    }
}

#[test]
fn misses_never_match() {
    let config = SyntheticConfig {
        n_tuples: 20_000,
        ..SyntheticConfig::scaled_mb(8)
    };
    let rel = Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap();
    let io = IoContext::unmetered();
    let tree = BfTree::builder().build(&rel).unwrap();
    for key in [20_000u64, 1 << 40, u64::MAX] {
        let r = AccessMethod::probe(&tree, key, &rel, &io).unwrap();
        assert!(!r.found(), "absent key {key} reported found");
    }
}

#[test]
fn tpch_shipdate_index_is_exact() {
    let config = TpchConfig::scaled(0.005);
    let heap = tpch::build_heap_by_shipdate(&config);
    let rows = tpch::generate_lineitem_dates(&config);
    let domain = tpch::shipdate_domain(&rows);
    let rel = Relation::new(heap, tpch::SHIPDATE, Duplicates::Contiguous).unwrap();
    let tree = BfTree::builder().fpp(1e-4).build(&rel).unwrap();
    let keys: Vec<u64> = domain.iter().copied().step_by(37).collect();
    check_complete(&rel, &tree, &keys);
    // Dates past the window must miss.
    let future = domain.last().unwrap() + 100;
    let io = IoContext::unmetered();
    assert!(!AccessMethod::probe(&tree, future, &rel, &io)
        .unwrap()
        .found());
}

#[test]
fn shd_timestamp_index_is_exact_under_variable_cardinality() {
    let config = ShdConfig::paper_like(300);
    let heap = shd::build_heap(&config);
    let rows = shd::generate_readings(&config);
    let domain = shd::timestamp_domain(&rows);
    let rel = Relation::new(heap, shd::TIMESTAMP, Duplicates::Contiguous).unwrap();
    let tree = BfTree::builder().fpp(1e-3).build(&rel).unwrap();
    let keys: Vec<u64> = domain.iter().copied().step_by(11).collect();
    check_complete(&rel, &tree, &keys);
}

#[test]
fn index_size_tracks_equation_10() {
    // The built tree's leaf count must match Equation 6 within the
    // page-alignment slack of bulk loading.
    let config = SyntheticConfig {
        n_tuples: 100_000,
        ..SyntheticConfig::scaled_mb(32)
    };
    let heap = build_relation_r(&config);
    for fpp in [1e-2, 1e-4, 1e-8] {
        let tree = BfTree::bulk_build(
            BfTreeConfig {
                fpp,
                ..BfTreeConfig::ordered_default()
            },
            &heap,
            PK_OFFSET,
        );
        let keys_per_leaf = math::capacity_for(4096 * 8, fpp);
        let expect = 100_000u64.div_ceil(keys_per_leaf);
        let got = tree.leaf_pages();
        assert!(
            got >= expect && got <= expect + expect / 4 + 2,
            "fpp {fpp}: {got} leaves vs Eq-6's {expect}"
        );
    }
}

#[test]
fn probe_charges_devices_consistently() {
    use bftree_storage::{DeviceKind, PageDevice};
    let config = SyntheticConfig {
        n_tuples: 20_000,
        ..SyntheticConfig::scaled_mb(8)
    };
    let rel = Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique).unwrap();
    let tree = BfTree::builder().fpp(1e-6).build(&rel).unwrap();
    let io = IoContext::new(
        PageDevice::cold(DeviceKind::Ssd),
        PageDevice::cold(DeviceKind::Hdd),
    );
    let r = AccessMethod::probe_first(&tree, 9_999, &rel, &io).unwrap();
    assert!(r.found());
    // Index descent: height reads (internal levels + the BF-leaf).
    assert_eq!(io.index.snapshot().device_reads(), tree.height() as u64);
    // Data: exactly the pages the probe reports.
    assert_eq!(io.data.snapshot().device_reads(), r.pages_read);
}
