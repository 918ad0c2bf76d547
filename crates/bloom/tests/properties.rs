//! Property-based tests over the Bloom-filter substrate.
//!
//! Deterministic seeded random cases stand in for proptest (the build
//! is dependency-free); failures reproduce exactly from the seed.

use bftree_bloom::{math, BloomFilter, BloomGroup};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

const CASES: u64 = 32;

fn keys(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<u64> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// The fundamental Bloom guarantee: zero false negatives, for any
/// key set, geometry and seed.
#[test]
fn no_false_negatives() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB100 + case);
        let keys = keys(&mut rng, 1, 500);
        let m_exp = rng.random_range(8u32..16);
        let k = rng.random_range(1u32..8);
        let mut bf = BloomFilter::new(1u64 << m_exp, k, rng.next_u64());
        for key in &keys {
            bf.insert(key);
        }
        for key in &keys {
            assert!(bf.contains(key), "case {case}");
        }
    }
}

/// Serialization is lossless for arbitrary filters.
#[test]
fn filter_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB200 + case);
        let keys = keys(&mut rng, 1, 200);
        let m_exp = rng.random_range(6u32..14);
        let k = rng.random_range(1u32..6);
        let mut bf = BloomFilter::new(1u64 << m_exp, k, rng.next_u64());
        for key in &keys {
            bf.insert(key);
        }
        let back = BloomFilter::from_bytes(&bf.to_bytes()).expect("roundtrip");
        assert_eq!(bf, back, "case {case}");
    }
}

/// Union is an upper bound of both operands.
#[test]
fn union_superset() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB300 + case);
        let left = keys(&mut rng, 1, 200);
        let right = keys(&mut rng, 1, 200);
        let seed = rng.next_u64();
        let mut a = BloomFilter::new(1 << 12, 3, seed);
        let mut b = BloomFilter::new(1 << 12, 3, seed);
        for key in &left {
            a.insert(key);
        }
        for key in &right {
            b.insert(key);
        }
        a.union_with(&b);
        for key in left.iter().chain(&right) {
            assert!(a.contains(key), "case {case}");
        }
    }
}

/// Equation 1 inverse identities hold across the whole useful range.
#[test]
fn eq1_inverses() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB400 + case);
        let n = rng.random_range(1u64..1_000_000);
        let p = 10f64.powi(-(rng.random_range(1u32..15) as i32));
        let m = math::bits_for(n, p);
        let n_back = math::capacity_for(m, p);
        // Ceil then floor: n_back >= n, within one key of exact.
        assert!(n_back >= n, "case {case}");
        assert!(n_back <= n + (n / 1000) + 2, "case {case}");
    }
}

/// Equation 14 is monotone in the insert ratio and anchored at the
/// initial fpp.
#[test]
fn eq14_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB500 + case);
        let p = 10f64.powi(-(rng.random_range(1u32..10) as i32));
        let r1 = rng.random_range(0.0..5.0);
        let r2 = rng.random_range(0.0..5.0);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let f_lo = math::fpp_after_inserts(p, lo);
        let f_hi = math::fpp_after_inserts(p, hi);
        assert!(f_lo <= f_hi + 1e-15, "case {case}");
        assert!(math::fpp_after_inserts(p, 0.0) >= p * 0.999, "case {case}");
        assert!(f_hi < 1.0, "case {case}");
    }
}

/// BloomGroup routing: every key is found in its home bucket via
/// matching_buckets, regardless of distribution.
#[test]
fn group_finds_home_bucket() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB600 + case);
        let keys = keys(&mut rng, 1, 300);
        let s = rng.random_range(1usize..32);
        let mut g = BloomGroup::new(1 << 16, s, 3, rng.next_u64());
        for (i, key) in keys.iter().enumerate() {
            g.insert(i % s, key);
        }
        let mut m = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            m.clear();
            g.matching_buckets_into(key, &mut m);
            assert!(m.contains(&(i % s)), "case {case}");
        }
    }
}

/// Blocked layout: the measured false-positive rate of a seeded
/// blocked filter stays within the analytic bound of
/// [`math::blocked_fpp`] (and the bound itself stays a modest factor
/// above the standard-layout rate).
#[test]
fn blocked_fpp_measured_within_analytic_bound() {
    use bftree_bloom::{BlockedBloomFilter, BloomFilter};
    for (case, &(n, p)) in [(20_000u64, 1e-2), (50_000, 1e-3), (8_000, 5e-2)]
        .iter()
        .enumerate()
    {
        let seed = 0xB10C_0000 + case as u64;
        let mut blocked = BlockedBloomFilter::with_capacity(n, p, seed);
        let mut standard = BloomFilter::with_capacity(n, p, seed);
        for key in 0..n {
            blocked.insert(&key);
            standard.insert(&key);
        }
        let trials = 200_000u64;
        let measure = |f: &dyn Fn(&u64) -> bool| {
            (n..n + trials).filter(|k| f(k)).count() as f64 / trials as f64
        };
        let measured = measure(&|k| blocked.contains(k));
        let analytic =
            math::blocked_fpp(blocked.m_bits(), bftree_bloom::BLOCK_BITS, blocked.k(), n);
        // Within measurement noise of the analytic mixture...
        let sigma = (analytic * (1.0 - analytic) / trials as f64).sqrt();
        assert!(
            measured <= analytic + 4.0 * sigma + analytic * 0.25,
            "case {case}: measured {measured} vs analytic {analytic}"
        );
        // ...and the penalty over the standard layout is real but
        // bounded (the block mixture only adds a small constant factor
        // at these bits-per-key).
        let std_measured = measure(&|k| standard.contains(k));
        assert!(
            analytic < (std_measured.max(p) * 6.0).min(1.0),
            "case {case}: analytic {analytic} vs standard measured {std_measured}"
        );
    }
}

/// Deterministic check that the measured fpp tracks Equation 14 as keys
/// are inserted beyond capacity — the empirical backbone of Figure 14.
#[test]
fn fpp_degradation_tracks_eq14() {
    let p0 = 0.01;
    let n = 20_000u64;
    let m = math::bits_for(n, p0);
    let k = math::optimal_k(m, n);
    let mut bf = BloomFilter::new(m, k, 123);
    for key in 0..n {
        bf.insert(&key);
    }

    let measure = |bf: &BloomFilter| -> f64 {
        let trials = 200_000u64;
        let fp = (10_000_000..10_000_000 + trials)
            .filter(|key| bf.contains(key))
            .count();
        fp as f64 / trials as f64
    };

    let baseline = measure(&bf);
    assert!((baseline - p0).abs() < p0 * 0.5, "baseline {baseline}");

    // Insert 10% more keys; Eq. 14 predicts p0^(1/1.1).
    for key in n..(n + n / 10) {
        bf.insert(&key);
    }
    let degraded = measure(&bf);
    let predicted = math::fpp_after_inserts(p0, 0.10);
    assert!(
        degraded > baseline,
        "fpp should grow: {baseline} -> {degraded}"
    );
    assert!(
        (degraded - predicted).abs() < predicted,
        "measured {degraded}, Eq.14 predicts {predicted}"
    );
}
