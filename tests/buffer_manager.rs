//! Buffer-manager conformance suite.
//!
//! Three layers of guarantees:
//!
//! 1. **Golden eviction order** — a fixed access sequence through a
//!    single-shard manager must produce an exact, hand-derived
//!    eviction order per policy (and the three policies demonstrably
//!    differ on a hot-set + scan pattern).
//! 2. **Per-device baseline** — a device whose warm path goes through
//!    a single-shard manager must match a naive strict-LRU model in
//!    every cache counter, device read and simulated nanosecond.
//! 3. **Concurrency** — probe results and I/O totals through the
//!    shared manager from 8 threads must match a single-threaded run
//!    of the same streams when the working set fits (no evictions →
//!    interleaving-independent), and under eviction pressure the
//!    manager's counters must survive a single-threaded replay of its
//!    serialized access trace exactly.

use std::sync::Arc;

use bftree_bench::{build_index, run_probes, run_probes_parallel, IndexKind};
use bftree_bufferpool::{Access, BufferManager, PolicyKind};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    DeviceKind, DeviceProfile, Duplicates, HeapFile, IoContext, PageDevice, Relation,
    StorageConfig, TupleLayout, PAGE_SIZE,
};
use bftree_workloads::{popular_probe_streams, KeyPopularity};

const PAGE: u64 = PAGE_SIZE as u64;

/// Drive `pages` through a fresh single-shard manager of `capacity`
/// pages and return the eviction order.
fn eviction_order(policy: PolicyKind, capacity: u64, accesses: &[(u64, bool)]) -> Vec<u64> {
    let mgr = BufferManager::with_shards(capacity * PAGE, policy, 1);
    let pool = mgr.register_pool("golden");
    let mut order = Vec::new();
    for &(page, expect_hit) in accesses {
        match mgr.touch(pool, page, PAGE) {
            Access::Hit => assert!(expect_hit, "page {page} unexpectedly hit"),
            Access::Miss { evicted } => {
                assert!(!expect_hit, "page {page} unexpectedly missed");
                order.extend(evicted.iter().map(|&(_, p)| p));
            }
        }
    }
    order
}

/// Hot pages 1, 2 (touched twice) then a scan 3..=7 through a 4-page
/// budget: strict LRU flushes the hot set, clock spares what its
/// reference bits remember, 2Q sacrifices the scan itself.
#[test]
fn golden_eviction_orders_differ_across_policies() {
    let accesses = [
        (1, false),
        (2, false),
        (1, true),
        (2, true),
        (3, false),
        (4, false),
        (5, false),
        (6, false),
        (7, false),
    ];
    assert_eq!(
        eviction_order(PolicyKind::Lru, 4, &accesses),
        vec![1, 2, 3],
        "LRU evicts the hot set first (scan pollution)"
    );
    assert_eq!(
        eviction_order(PolicyKind::Clock, 4, &accesses),
        vec![3, 4, 1],
        "clock's reference bits buy the hot set one extra lap"
    );
    assert_eq!(
        eviction_order(PolicyKind::TwoQ, 4, &accesses),
        vec![3, 4, 5],
        "2Q drains the probationary scan and keeps the hot set"
    );
}

#[test]
fn golden_lru_order_is_strict() {
    // Capacity 3: [1 2 3] resident, touch 2 (MRU now 2), then 4, 5, 6.
    let accesses = [
        (1, false),
        (2, false),
        (3, false),
        (2, true),
        (4, false), // evicts 1
        (5, false), // evicts 3
        (6, false), // evicts 2
    ];
    assert_eq!(eviction_order(PolicyKind::Lru, 3, &accesses), vec![1, 3, 2]);
}

/// A device caching in a single-shard LRU manager (the warm-cache
/// device of `IoContext::warm`) must be I/O-identical to a naive
/// strict-LRU model — same hits, same evictions, same device reads,
/// same simulated nanoseconds — across an eviction-heavy workload.
#[test]
fn shared_manager_matches_private_device_baseline() {
    let pool_pages = 64usize;
    let mgr = Arc::new(BufferManager::with_shards(
        pool_pages as u64 * PAGE,
        PolicyKind::Lru,
        1,
    ));
    let pool = mgr.register_pool("data");
    let device = PageDevice::new(DeviceProfile::ssd(), Some((mgr, pool)), None);

    // Model: resident pages, least recently used first.
    let mut lru: Vec<u64> = Vec::with_capacity(pool_pages);
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let mut state = 0xDEAD_BEEFu64;
    for _ in 0..50_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = (state >> 33) % 256; // 4x the pool: constant eviction
        device.read_random(page);
        if let Some(pos) = lru.iter().position(|&p| p == page) {
            lru.remove(pos);
            hits += 1;
        } else {
            if lru.len() == pool_pages {
                lru.remove(0);
                evictions += 1;
            }
            misses += 1;
        }
        lru.push(page);
    }
    let s = device.snapshot();
    assert_eq!(s.cache_hits, hits, "hits drifted from strict LRU");
    assert_eq!(s.cache_evictions, evictions, "evictions drifted");
    assert_eq!(s.random_reads, misses, "only misses reach the device");
    assert_eq!(
        s.sim_ns,
        hits * DeviceProfile::memory().random_read_ns
            + misses * DeviceProfile::ssd().random_read_ns
    );
    assert!(hits > 0 && evictions > 0, "workload warmed");
}

/// With a budget large enough that nothing is ever evicted, hit/miss
/// totals are interleaving-independent (first toucher misses, every
/// later toucher hits), so an 8-thread run through the shared manager
/// must match a single-threaded run of the same streams to the last
/// counter and simulated nanosecond — and produce the same probe
/// results.
#[test]
fn concurrent_probes_match_single_threaded_baseline_when_working_set_fits() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..8_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let domain: Vec<u64> = (0..8_000).collect();
    let streams = popular_probe_streams(&domain, KeyPopularity::Zipfian { theta: 0.99 }, 500, 8, 7);
    let budget = 4 * rel.heap().page_count() * PAGE; // everything fits
    for kind in IndexKind::ALL {
        let index = build_index(kind, &rel, 1e-4);

        let io_single =
            IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
        let flat: Vec<u64> = streams.iter().flatten().copied().collect();
        let single = run_probes(index.as_ref(), &rel, &flat, &io_single);
        let expect = io_single.snapshot_total();

        let io_par = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
        io_par.buffer_manager().unwrap().set_tracing(true);
        let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io_par);
        let got = io_par.snapshot_total();

        assert_eq!(r.hit_rate(), single.hit_rate, "{}", index.name());
        assert_eq!(got.cache_hits, expect.cache_hits, "{}", index.name());
        assert_eq!(got.cache_evictions, 0, "{}", index.name());
        assert_eq!(
            got.device_reads(),
            expect.device_reads(),
            "{}",
            index.name()
        );
        assert_eq!(got.sim_ns, expect.sim_ns, "{}", index.name());
        assert!(
            io_par.buffer_manager().unwrap().verify_replay().exact,
            "{}: trace replay diverged",
            index.name()
        );
    }
}

/// Under real eviction pressure hit/miss splits legitimately depend on
/// thread interleaving, but the manager's counters must still be
/// *self*-exact: a single-threaded replay of the serialized per-shard
/// access traces reproduces hits, misses, evictions, and residency
/// bit-for-bit, and the devices' sharded IoStats agree with the
/// manager's own ledger.
#[test]
fn concurrent_pressure_counters_survive_replay() {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..8_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let domain: Vec<u64> = (0..8_000).collect();
    let streams =
        popular_probe_streams(&domain, KeyPopularity::Zipfian { theta: 0.99 }, 500, 8, 11);
    let budget = rel.heap().page_count() * PAGE / 8; // heavy pressure
    for policy in PolicyKind::ALL {
        let index = build_index(IndexKind::BfTree, &rel, 1e-4);
        let io = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, policy);
        let mgr = Arc::clone(io.buffer_manager().unwrap());
        mgr.set_tracing(true);
        let r = run_probes_parallel(index.as_ref(), &rel, &streams, &io);

        let check = mgr.verify_replay();
        assert!(
            check.exact,
            "{policy}: live {:?} != replay {:?}",
            check.live, check.replayed
        );
        let stats = mgr.stats();
        assert_eq!(stats.hits, r.io_total.cache_hits, "{policy}: ledgers agree");
        assert_eq!(
            stats.evictions, r.io_total.cache_evictions,
            "{policy}: eviction ledgers agree"
        );
        assert_eq!(
            stats.misses,
            r.io_total.device_reads(),
            "{policy}: every miss reached a device"
        );
        assert!(stats.evictions > 0, "{policy}: pressure was real");
        assert_eq!(r.hit_rate(), 1.0, "{policy}: probes all found their key");
    }
}

/// Prewarming composes with a shared budget: an
/// `IoContext::with_shared_budget` index device prewarmed with the
/// upper levels absorbs descents exactly like `IoContext::warm`.
#[test]
fn prewarmed_shared_context_absorbs_upper_levels() {
    let io = IoContext::with_shared_budget(StorageConfig::SsdHdd, 1 << 22, PolicyKind::TwoQ);
    io.prewarm_index(0..32u64);
    io.index.read_random(5);
    let s = io.index.snapshot();
    assert_eq!(s.device_reads(), 0);
    assert_eq!(s.cache_hits, 1);
    let stats = io.buffer_stats().unwrap();
    assert_eq!(stats.misses, 0, "prewarm counts no misses");
    assert_eq!(stats.resident_pages, 32);
}

/// Memory-device contexts reject nothing but cache nothing: unmetered
/// correctness runs stay available with a shared budget configured.
#[test]
fn memory_index_device_stays_uncached_under_shared_budget() {
    let io = IoContext::with_shared_budget(StorageConfig::MemSsd, 1 << 20, PolicyKind::Lru);
    assert!(io.index.shared_cache().is_none());
    io.index.read_random(1);
    io.index.read_random(1);
    assert_eq!(io.index.snapshot().cache_hits, 0);
    assert_eq!(io.index.snapshot().device_reads(), 2);
    assert_eq!(io.index.kind(), DeviceKind::Memory);
}

/// The durable write path's ingest memtable competes with cached data
/// pages for the same memory: reserving its worst-case footprint
/// shrinks the shared page budget by exactly the capacity estimate,
/// and is a no-op on contexts without a shared manager.
#[test]
fn durable_memtable_reserves_from_the_shared_budget() {
    use bftree_access::{DurableConfig, DurableIndex};
    use bftree_wal::DurabilityMode;

    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..2_000u64 {
        heap.append_record(pk, pk);
    }
    let rel = Relation::new(heap, PK_OFFSET, Duplicates::Unique).unwrap();
    let inner = build_index(IndexKind::BfTree, &rel, 1e-4);
    let index = DurableIndex::new(
        inner,
        &rel,
        PageDevice::cold(DeviceKind::Ssd),
        DurableConfig {
            flush_batch: 256,
            durability: DurabilityMode::GroupCommit {
                max_records: 64,
                max_bytes: 16 * 1024,
            },
        },
    );

    let budget = 64 * PAGE;
    let io = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
    let remaining = index.reserve_memtable_budget(&io);
    assert!(index.memtable_capacity_bytes() > 0);
    assert_eq!(
        remaining,
        budget - index.memtable_capacity_bytes(),
        "reservation must shrink the page budget by the memtable capacity"
    );

    // No shared manager, nothing to reserve.
    assert_eq!(index.reserve_memtable_budget(&IoContext::unmetered()), 0);
}
