//! End-to-end battery for the self-healing storage plane: seeded
//! fault injection must be reproducible, retries must absorb
//! transients (and their absence must surface them), bit rot must
//! flow quarantine → repair → readable, a failed fsync barrier must
//! heal on the next one, a corrupt WAL page must repair down to the
//! longest valid prefix, and a `DurableIndex` probe over a
//! quarantined data page must *say so* — then answer authoritatively
//! again after `repair_quarantined`.
//!
//! Unit tests inside `bftree-storage` pin each mechanism in
//! isolation; this battery wires them together across crate
//! boundaries the way the chaos harness does.

use std::sync::Arc;

use bftree_access::{DurableConfig, DurableIndex};
use bftree_bench::{build_index, IndexKind};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, BufferManager, DeviceKind, DeviceProfile, Duplicates, FaultConfig, FaultInjector,
    FaultKind, FileStore, HeapFile, IoContext, IoOutcome, PageDevice, PolicyKind, Relation,
    RetryPolicy, ScheduledFault, ScratchDir, Scrubber, StorageConfig, SyncPolicy, TupleLayout,
    PAGE_SIZE,
};
use bftree_wal::{DurabilityMode, Wal, WalReader, WalRecord};

fn fresh_store(dir: &ScratchDir, name: &str) -> Arc<FileStore> {
    Arc::new(FileStore::create(dir.path().join(name), SyncPolicy::Deferred).expect("create store"))
}

#[test]
fn injected_fault_streams_are_reproducible_from_the_seed() {
    let dir = ScratchDir::new("heal-seed").unwrap();
    let run = |name: &str| {
        let store = fresh_store(&dir, name);
        let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(0.15, 42)));
        store.set_fault_injector(Arc::clone(&injector));
        // Zero backoff keeps the run fast; the injector stream does
        // not depend on the policy's waits.
        store.set_retry_policy(RetryPolicy::fixed(3, 0));
        let mut outcomes: Vec<IoOutcome> = Vec::new();
        for page in 0..40 {
            outcomes.push(store.charged_write(page));
        }
        for page in 0..40 {
            outcomes.push(store.charged_read(page));
        }
        let mut quarantined = store.quarantine().pages();
        quarantined.sort_unstable();
        let per_kind: Vec<u64> = [
            FaultKind::TransientIo,
            FaultKind::BitRot,
            FaultKind::TornWrite,
            FaultKind::ShortRead,
            FaultKind::FsyncFail,
        ]
        .iter()
        .map(|&k| injector.injected(k))
        .collect();
        (outcomes, quarantined, per_kind, injector.total_injected())
    };
    let a = run("a.bfs");
    let b = run("b.bfs");
    assert_eq!(a, b, "same seed, same ops, same faults, same outcomes");
    assert!(a.3 > 0, "at 15% uniform pressure something must fire");
}

#[test]
fn a_transient_read_fault_retries_to_success() {
    let dir = ScratchDir::new("heal-retry").unwrap();
    let store = fresh_store(&dir, "s.bfs");
    store.write_page(7, b"survivor").unwrap();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(vec![
        ScheduledFault {
            op: 0,
            kind: FaultKind::TransientIo,
        },
    ]))));
    store.set_retry_policy(RetryPolicy::exponential());
    assert_eq!(
        store.read_page_verified(7).expect("retry heals"),
        b"survivor"
    );
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.transient_errors, 1);
    assert_eq!(snap.retries, 1);
    assert_eq!(snap.retry_successes, 1);
    assert_eq!(snap.retries_exhausted, 0);
}

#[test]
fn without_retries_transients_surface_and_exhaustion_is_counted() {
    let dir = ScratchDir::new("heal-exhaust").unwrap();
    let store = fresh_store(&dir, "s.bfs");
    store.write_page(7, b"survivor").unwrap();
    let schedule = (0..2)
        .map(|op| ScheduledFault {
            op,
            kind: FaultKind::TransientIo,
        })
        .collect();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(
        schedule,
    ))));
    store.set_retry_policy(RetryPolicy::none());
    let err = store.read_page_verified(7).unwrap_err();
    assert!(err.is_transient(), "transient classification survives");
    assert_eq!(store.charged_read(7), IoOutcome::Unavailable);
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.retries, 0, "policy none never retries");
    assert_eq!(snap.retries_exhausted, 2);
    assert!(
        store.quarantine().is_empty(),
        "transient failures never quarantine"
    );
    // The page itself was always fine: with the schedule exhausted the
    // very next read succeeds.
    assert_eq!(store.read_page_verified(7).unwrap(), b"survivor");
}

#[test]
fn bit_rot_quarantines_and_is_never_recached_until_repair() {
    let dir = ScratchDir::new("heal-rot").unwrap();
    let store = fresh_store(&dir, "d.bfs");
    // A caching device: clean re-reads must be absorbed, so the "never
    // re-cached while quarantined" property is observable.
    let cache = Arc::new(BufferManager::with_shards(
        16 * PAGE_SIZE as u64,
        PolicyKind::Lru,
        1,
    ));
    let pool = cache.register_pool("d");
    let device = PageDevice::new(
        DeviceProfile::of(DeviceKind::Ssd),
        Some((cache, pool)),
        Some(Arc::clone(&store)),
    );

    device.read_random(5); // materialize + cache
    let cold_reads = store.wall().reads;
    device.read_random(5);
    assert_eq!(store.wall().reads, cold_reads, "clean pages cache");

    store.corrupt_page(5).unwrap();
    assert_eq!(store.charged_read(5), IoOutcome::Quarantined);
    assert!(store.quarantine().contains(5));

    // While quarantined the device never serves page 5 from cache —
    // and never re-caches it.
    let during_quarantine = store.wall().reads;
    device.read_random(5);
    device.read_random(5);
    assert!(
        store.wall().reads > during_quarantine,
        "quarantined accesses are never served from cache"
    );

    store.repair_page(5, None).expect("re-stamp repairs");
    assert!(store.quarantine().is_empty());
    // (repair_page's read-back verification charges a read itself, so
    // re-baseline here.)
    let after_repair = store.wall().reads;
    device.read_random(5);
    assert_eq!(
        store.wall().reads,
        after_repair + 1,
        "the repaired page is read from disk once (it was not cached while quarantined)"
    );
    device.read_random(5);
    assert_eq!(
        store.wall().reads,
        after_repair + 1,
        "…and caches again afterwards"
    );
    let snap = store.fault_stats().snapshot();
    assert_eq!(snap.quarantined, 1);
    assert_eq!(snap.repaired, 1);
}

#[test]
fn a_failed_fsync_barrier_heals_on_the_next_one() {
    let dir = ScratchDir::new("heal-fsync").unwrap();
    // PerRequest: every sync request issues a real barrier (Deferred
    // stores only fsync on flush, so the fault would never roll).
    let store = Arc::new(
        FileStore::create(dir.path().join("s.bfs"), SyncPolicy::PerRequest).expect("create store"),
    );
    store.write_page(0, b"window").unwrap();
    store.set_fault_injector(Arc::new(FaultInjector::new(FaultConfig::scheduled(vec![
        ScheduledFault {
            op: 0,
            kind: FaultKind::FsyncFail,
        },
    ]))));
    store.set_retry_policy(RetryPolicy::none());
    let err = store.sync_verified().unwrap_err();
    assert!(err.is_transient(), "a failed fsync is retryable");
    // The barrier failed; nothing was lost, nothing panicked, and the
    // next barrier covers the still-dirty window.
    store.sync_verified().expect("next barrier heals");
    assert_eq!(store.read_page_verified(0).unwrap(), b"window");
}

#[test]
fn a_corrupt_wal_page_repairs_to_the_longest_valid_prefix() {
    let dir = ScratchDir::new("heal-wal").unwrap();
    let backend = Backend::file(dir.path());
    let log = backend.device(DeviceKind::Ssd, "wal").expect("file log");
    let mut wal = Wal::open(log.clone(), DurabilityMode::PerRecord, 100);
    for key in 0..600 {
        wal.append(&WalRecord::Insert {
            key,
            page: key / 8,
            slot: key % 8,
        });
    }
    let full = wal.bytes().to_vec();
    let store = log.store().expect("file-backed");
    let pages = store.live_page_ids();
    assert!(pages.len() >= 3, "the log must span several pages");
    let mid = pages[pages.len() / 2];
    store.corrupt_page(mid).unwrap();

    let outcome = Wal::repair_image(&log).expect("an image survives");
    assert!(
        outcome.repaired_pages >= 1,
        "the corrupt page was rewritten"
    );
    assert_eq!(outcome.valid_len, outcome.image.len());
    assert_eq!(
        &outcome.image[..],
        &full[..outcome.valid_len],
        "repair yields an exact prefix of the pre-damage log"
    );
    let (records, _) = WalReader::drain(&outcome.image);
    assert!(!records.is_empty(), "the prefix holds the early records");
    assert!(
        records.len() < 601,
        "records beyond the damage are gone, not invented"
    );
    assert!(
        store.quarantine().is_empty(),
        "repair releases the log page from quarantine"
    );
    // What the store now holds is the surviving pages (page-granular);
    // the record-boundary cut drains to exactly the repaired image's
    // records — a frame prefix torn off by the blanked page is dropped,
    // not resurrected.
    let disk = Wal::load_image(&log).expect("image");
    assert!(disk.starts_with(&outcome.image));
    let (disk_records, _) = WalReader::drain(&disk);
    assert_eq!(disk_records.len(), records.len());
}

fn small_relation(n: u64) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..n {
        heap.append_record(pk, pk / 3);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

#[test]
fn degraded_probes_name_their_losses_and_heal_after_repair() {
    let dir = ScratchDir::new("heal-degraded").unwrap();
    let backend = Backend::file(dir.path());
    let rel = small_relation(2_000);
    let inner = build_index(IndexKind::BfTree, &rel, 1e-4);
    let index = DurableIndex::new(
        inner,
        &rel,
        backend.device(DeviceKind::Ssd, "wal").expect("file log"),
        DurableConfig {
            flush_batch: 8,
            durability: DurabilityMode::Async,
        },
    );
    let io = IoContext::cold_on(&backend, StorageConfig::SsdSsd).expect("file devices");
    let data = Arc::clone(io.data.store().expect("file-backed data"));

    let key = 123;
    let healthy = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(healthy.complete && healthy.probe.found());
    let page = healthy.probe.matches[0].0;

    // Rot the match-bearing data page and let the scrubber find it.
    assert_eq!(data.charged_read(page), IoOutcome::Ok);
    data.corrupt_page(page).unwrap();
    let sweep = Scrubber::new(Arc::clone(&data)).scrub_pass();
    assert_eq!(sweep.corrupt_found, 1);
    assert!(data.quarantine().contains(page));

    // The answer still comes back (memtable + surviving pages), but
    // labelled partial, naming the quarantined match page.
    let degraded = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(
        !degraded.complete,
        "a quarantined match page is a partial answer"
    );
    assert!(degraded.quarantined_matches.contains(&page));

    let report = index.repair_quarantined(&io);
    assert!(report.healed(), "repair must clear everything: {report:?}");
    assert!(report.pages_repaired >= 1);
    assert!(data.quarantine().is_empty());

    let healed = index.probe_degraded(key, &rel, &io).expect("probe");
    assert!(healed.complete && healed.probe.found());
    assert_eq!(healed.probe.matches, healthy.probe.matches);
    assert!(
        Scrubber::new(data).scrub_pass().clean(),
        "the store scrubs clean after repair"
    );
}
