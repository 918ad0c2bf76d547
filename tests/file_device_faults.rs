//! Fault-injection battery for the file-backed page store: every way
//! the bytes can rot — a flipped bit, a truncated tail, a zeroed or
//! transplanted header — must surface as a *typed* [`DeviceError`]
//! from `read_page`, never as garbage payload. On top of that, a
//! file-backed WAL whose middle page is damaged must recover exactly
//! the longest valid prefix, and the persistent free list must
//! survive a 10 000-operation churn (and a reopen) without ever
//! double-allocating or growing while reusable slots exist.
//!
//! Corruption is injected through a second OS handle on the store
//! file while the store is open — the same aliasing a misdirected
//! write or a disk error produces. Slot offsets are computed from the
//! published layout: a page-sized superblock, then fixed-size slots
//! of [`PAGE_HEADER`] + [`PAGE_SIZE`] bytes, filled in allocation
//! order (a fresh store allocates slot `k` to the `k`-th new page).

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::Path;

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, DurableIndex};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, DeviceError, DeviceKind, Duplicates, FileStore, HeapFile, IoContext, PageDevice,
    Relation, ScratchDir, SyncPolicy, TupleLayout, PAGE_HEADER, PAGE_SIZE,
};
use bftree_wal::{DurabilityMode, Wal, WalReader, WalRecord};

/// Byte offset of slot `slot` in a store file (superblock, then
/// fixed-size slots).
fn slot_offset(slot: u64) -> u64 {
    PAGE_SIZE as u64 + slot * (PAGE_HEADER + PAGE_SIZE) as u64
}

/// Flip/overwrite bytes in the store file through a second handle.
fn damage(path: &Path, offset: u64, patch: &[u8]) {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open store file for corruption");
    f.write_all_at(patch, offset).expect("inject fault");
}

/// A store with `n` pages written in order (page `k` in slot `k`),
/// each carrying a distinct payload.
fn store_with_pages(dir: &ScratchDir, n: u64) -> FileStore {
    let store = FileStore::create(dir.path().join("faults.bfs"), SyncPolicy::PerRequest)
        .expect("create store");
    for page in 0..n {
        let payload = vec![page as u8 ^ 0xA5; 1000 + page as usize];
        store.write_page(page, &payload).expect("seed page");
    }
    store.flush().expect("seed durable");
    store
}

#[test]
fn a_flipped_payload_bit_is_a_checksum_mismatch() {
    let dir = ScratchDir::new("fault-bitflip").unwrap();
    let store = store_with_pages(&dir, 4);
    damage(
        store.path(),
        slot_offset(2) + PAGE_HEADER as u64 + 17,
        &[0x01],
    );
    let err = store.read_page(2).expect_err("flipped bit must not verify");
    match err {
        DeviceError::ChecksumMismatch {
            page,
            expected,
            actual,
        } => {
            assert_eq!(page, 2);
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other}"),
    }
    // The damage is contained: neighbours still verify.
    assert_eq!(store.read_page(1).unwrap(), vec![1 ^ 0xA5; 1001]);
    assert_eq!(store.read_page(3).unwrap(), vec![3 ^ 0xA5; 1003]);
}

#[test]
fn a_truncated_tail_is_a_short_read() {
    let dir = ScratchDir::new("fault-truncate").unwrap();
    let store = store_with_pages(&dir, 3);
    // Cut the file mid-payload of the last slot: the classic torn
    // write, where the header landed but the payload did not.
    let f = OpenOptions::new().write(true).open(store.path()).unwrap();
    f.set_len(slot_offset(2) + PAGE_HEADER as u64 + 100)
        .unwrap();
    let err = store.read_page(2).expect_err("torn page must not verify");
    match err {
        DeviceError::ShortRead { page, wanted, got } => {
            assert_eq!(page, 2);
            assert_eq!(wanted, PAGE_HEADER + 1002);
            assert_eq!(got, PAGE_HEADER + 100);
        }
        other => panic!("expected ShortRead, got {other}"),
    }
    assert_eq!(store.read_page(0).unwrap(), vec![0xA5; 1000]);
}

#[test]
fn a_zeroed_header_is_a_bad_header() {
    let dir = ScratchDir::new("fault-zero").unwrap();
    let store = store_with_pages(&dir, 3);
    damage(store.path(), slot_offset(1), &[0u8; PAGE_HEADER]);
    let err = store
        .read_page(1)
        .expect_err("zeroed header must not parse");
    assert!(
        matches!(err, DeviceError::BadHeader { page: 1, .. }),
        "expected BadHeader, got {err}"
    );
}

#[test]
fn a_transplanted_header_names_the_wrong_page() {
    let dir = ScratchDir::new("fault-transplant").unwrap();
    let store = store_with_pages(&dir, 3);
    // Copy page 0's (valid!) header over page 2's slot: magic and CRC
    // both parse, but the slot now claims to hold a different page.
    let f = OpenOptions::new().read(true).open(store.path()).unwrap();
    let mut header = [0u8; PAGE_HEADER];
    f.read_exact_at(&mut header, slot_offset(0)).unwrap();
    damage(store.path(), slot_offset(2), &header);
    let err = store.read_page(2).expect_err("transplant must not verify");
    assert!(
        matches!(err, DeviceError::BadHeader { page: 2, .. }),
        "expected BadHeader, got {err}"
    );
}

#[test]
fn garbage_at_the_front_is_a_bad_superblock() {
    let dir = ScratchDir::new("fault-super").unwrap();
    let path = dir.path().join("faults.bfs");
    {
        let store = FileStore::create(&path, SyncPolicy::PerRequest).unwrap();
        store.write_page(0, b"payload").unwrap();
        store.flush().unwrap();
    }
    damage(&path, 0, &[0xFFu8; 8]);
    let err = FileStore::open(&path, SyncPolicy::PerRequest)
        .expect_err("corrupt superblock must not open");
    assert!(
        matches!(err, DeviceError::BadSuperblock { .. }),
        "expected BadSuperblock, got {err}"
    );
}

// ---------------------------------------------------------------------------
// WAL prefix truncation on a damaged file-backed log
// ---------------------------------------------------------------------------

fn base_relation(n: u64) -> Relation {
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..n {
        heap.append_record(pk, pk);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        flush_batch: 64,
        durability: DurabilityMode::GroupCommit {
            max_records: 4,
            max_bytes: 4 * 1024,
        },
    }
}

/// Damage a middle page of a file-backed WAL and demand that
/// recovery sees exactly the pages before the damage: the longest
/// valid prefix, cut at the corrupt page, replayed record for record.
#[test]
fn recovery_over_a_damaged_file_log_truncates_to_the_longest_valid_prefix() {
    const N: u64 = 500;
    const FRESH: u64 = 10_000;
    const INSERTS: u64 = 600;
    let dir = ScratchDir::new("fault-wal").unwrap();
    let backend = Backend::file(dir.path());
    let log = backend.device(DeviceKind::Ssd, "wal").expect("file log");

    let mut rel = base_relation(N);
    let inner = BfTree::builder()
        .fpp(1e-4)
        .empty(&rel)
        .expect("valid config");
    let mut index = DurableIndex::new(inner, &rel, log.clone(), durable_config());
    let io = IoContext::unmetered();
    for i in 0..INSERTS {
        let key = FRESH + i;
        let loc = rel.append_tuple(key, key, &io);
        index.insert(key, loc, &rel).expect("scripted insert");
    }

    // The on-disk image is the durable prefix: it parses cleanly and
    // is a byte prefix of the in-memory log.
    let disk = Wal::load_image(&log).expect("file-backed log has an image");
    assert_eq!(&disk[..], &index.wal().bytes()[..disk.len()]);
    let pages = disk.len() / PAGE_SIZE;
    assert!(pages >= 3, "log too small to damage a middle page");

    // Flip a byte in a middle log page (wal pages fill slots in
    // order, so page id == slot).
    let mid = (pages / 2) as u64;
    let store = log.store().expect("file-backed");
    damage(
        store.path(),
        slot_offset(mid) + PAGE_HEADER as u64 + 33,
        &[0x80],
    );
    assert!(
        matches!(
            store.read_page(mid),
            Err(DeviceError::ChecksumMismatch { .. })
        ),
        "damaged log page must fail verification"
    );

    // load_image stops at the damage: exactly the prefix before it.
    let surviving = Wal::load_image(&log).expect("prefix still loads");
    assert_eq!(surviving.len(), mid as usize * PAGE_SIZE);
    assert_eq!(&surviving[..], &disk[..surviving.len()]);

    // Recovery over the surviving prefix replays exactly its records.
    let (records, _) = WalReader::drain(&surviving);
    let prefix_inserts: Vec<u64> = records
        .iter()
        .filter_map(|&(_, r)| match r {
            WalRecord::Insert { key, .. } => Some(key),
            _ => None,
        })
        .collect();
    assert!(
        !prefix_inserts.is_empty() && prefix_inserts.len() < INSERTS as usize,
        "damage must cut the log strictly inside the insert stream"
    );
    let fresh_inner = BfTree::builder()
        .fpp(1e-4)
        .empty(&rel)
        .expect("valid config");
    let (recovered, report) = DurableIndex::recover(
        fresh_inner,
        &rel,
        &surviving,
        PageDevice::cold(DeviceKind::Ssd),
        durable_config(),
    )
    .expect("prefix recovers");
    assert_eq!(report.base_tuples, N);
    assert_eq!(report.replayed_inserts, prefix_inserts.len() as u64);
    let check = IoContext::unmetered();
    for &k in &prefix_inserts {
        assert!(
            recovered.probe(k, &rel, &check).unwrap().found(),
            "surviving insert {k} lost"
        );
    }
    let lost = FRESH + INSERTS - 1;
    assert!(
        !recovered.probe(lost, &rel, &check).unwrap().found(),
        "insert {lost} was past the damage and must not resurface"
    );
}

// ---------------------------------------------------------------------------
// Free-list property test: seeded alloc/free/realloc churn
// ---------------------------------------------------------------------------

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn tagged_payload(page: u64, version: u64) -> Vec<u8> {
    let mut p = page.to_le_bytes().to_vec();
    p.extend_from_slice(&version.to_le_bytes());
    p.resize(16 + (page as usize % 200), 0xEE);
    p
}

/// 10 000 seeded alloc/free/rewrite operations against one store:
/// an allocation never returns a live page id, a freed slot is always
/// reused before the file grows, every live page reads back its last
/// payload, and the whole allocation state survives a drop + reopen.
#[test]
fn free_list_survives_ten_thousand_churn_operations_and_a_reopen() {
    const OPS: u64 = 10_000;
    let dir = ScratchDir::new("freelist-churn").unwrap();
    let path = dir.path().join("churn.bfs");
    let mut store = FileStore::create(&path, SyncPolicy::Deferred).expect("create store");
    let mut rng = 0x5EED_CAFE_u64;
    // page id -> payload version currently on disk.
    let mut live: HashMap<u64, u64> = HashMap::new();
    let mut order: Vec<u64> = Vec::new(); // live ids, for O(1) random pick
    let mut total_allocs = 0u64;

    for i in 0..OPS {
        // Halfway through, simulate a process restart.
        if i == OPS / 2 {
            let (slots, frees) = (store.slot_count(), store.free_slots());
            drop(store);
            store = FileStore::open(&path, SyncPolicy::Deferred).expect("reopen store");
            assert_eq!(store.slot_count(), slots, "slot count lost on reopen");
            assert_eq!(store.free_slots(), frees, "free list lost on reopen");
            assert_eq!(store.live_pages(), live.len() as u64);
        }
        match xorshift(&mut rng) % 10 {
            // Allocate (and write) a fresh page.
            0..=4 => {
                let (slots_before, frees_before) = (store.slot_count(), store.free_slots());
                let page = store.alloc().expect("alloc");
                assert!(
                    !live.contains_key(&page),
                    "op {i}: alloc returned live page {page}"
                );
                if frees_before > 0 {
                    assert_eq!(
                        store.slot_count(),
                        slots_before,
                        "op {i}: grew the file while {frees_before} slots were free"
                    );
                    assert_eq!(store.free_slots(), frees_before - 1);
                } else {
                    assert_eq!(store.slot_count(), slots_before + 1);
                }
                store.write_page(page, &tagged_payload(page, i)).unwrap();
                live.insert(page, i);
                order.push(page);
                total_allocs += 1;
            }
            // Free a random live page.
            5..=7 if !order.is_empty() => {
                let victim = order.swap_remove((xorshift(&mut rng) % order.len() as u64) as usize);
                live.remove(&victim);
                let frees_before = store.free_slots();
                store.free(victim).expect("free live page");
                assert_eq!(store.free_slots(), frees_before + 1);
                assert!(
                    matches!(
                        store.read_page(victim),
                        Err(DeviceError::UnknownPage { .. })
                    ),
                    "op {i}: freed page {victim} still resolves"
                );
            }
            // Rewrite a random live page (slot reuse in place).
            _ if !order.is_empty() => {
                let page = order[(xorshift(&mut rng) % order.len() as u64) as usize];
                let slots_before = store.slot_count();
                store.write_page(page, &tagged_payload(page, i)).unwrap();
                assert_eq!(store.slot_count(), slots_before, "rewrite must not grow");
                live.insert(page, i);
            }
            _ => {}
        }
        // Periodic full audit (every op would be quadratic).
        if i % 1000 == 999 {
            assert_eq!(store.live_pages(), live.len() as u64);
            assert_eq!(
                store.slot_count(),
                store.live_pages() + store.free_slots(),
                "op {i}: slots leaked"
            );
        }
    }

    // Final audit: every live page holds its last payload, both
    // before and after one more drop + reopen.
    for pass in 0..2 {
        assert_eq!(store.live_pages(), live.len() as u64, "pass {pass}");
        assert_eq!(store.slot_count(), store.live_pages() + store.free_slots());
        for (&page, &version) in &live {
            assert_eq!(
                store.read_page(page).unwrap(),
                tagged_payload(page, version),
                "pass {pass}: page {page} lost its last write"
            );
        }
        if pass == 0 {
            drop(store);
            store = FileStore::open(&path, SyncPolicy::Deferred).expect("final reopen");
        }
    }

    // The churn exercised what it claims: slots were recycled, so
    // the file holds far fewer slots than allocations made.
    assert!(
        store.slot_count() < total_allocs,
        "{} slots for {total_allocs} allocations — the free list never recycled",
        store.slot_count()
    );
}
