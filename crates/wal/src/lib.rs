//! Write-ahead log of the BF-Tree reproduction.
//!
//! Index mutations in this workspace are in-memory structure edits:
//! heap pages are durable at append time (the data device is charged
//! synchronously), but the index entries that make new tuples
//! *findable* would evaporate in a crash. This crate closes that gap
//! with the classical recipe:
//!
//! * [`record`] — checksummed, length-prefixed records
//!   ([`WalRecord::Insert`]/[`WalRecord::Delete`]/[`WalRecord::Checkpoint`]),
//!   little-endian frames a reader can validate byte by byte.
//! * [`log`] — the [`Wal`] itself: an append-only image on a simulated
//!   device, with three [`DurabilityMode`]s (per-record fsync, group
//!   commit over a record/byte window, async) whose costs the device's
//!   `IoSnapshot` quantifies (`fsyncs`, `writes`, `sim_ns`); and the
//!   [`WalReader`], which replays any byte prefix and treats an
//!   incomplete or corrupt tail as the end of the log ([`TailState`]).
//!
//! The ingest side that *writes* this log — the memtable wrapper
//! `DurableIndex` — lives in `bftree-access`; recovery replays the
//! surviving records through it and must answer identically to the
//! uncrashed index, a property the workspace's kill-at-every-record
//! tests enforce for all four access methods.

#![warn(missing_docs)]

pub mod log;
pub mod record;

pub use log::{DurabilityMode, TailState, Wal, WalReader, WalRepairOutcome};
pub use record::{crc32, WalRecord, FRAME_HEADER, MAX_PAYLOAD};

#[cfg(test)]
mod tests {
    use super::*;
    use bftree_storage::{DeviceKind, PageDevice, PAGE_SIZE};

    fn ssd_wal(mode: DurabilityMode) -> Wal {
        Wal::open(PageDevice::cold(DeviceKind::Ssd), mode, 1_000)
    }

    fn genesis() -> WalRecord {
        WalRecord::Checkpoint {
            tuple_count: 1_000,
            flushed_ops: 0,
        }
    }

    #[test]
    fn open_writes_a_durable_genesis_checkpoint() {
        let wal = ssd_wal(DurabilityMode::Async);
        assert_eq!(wal.synced_len(), wal.len(), "genesis must be synced");
        assert_eq!(wal.sync_count(), 1);
        let (recs, tail) = WalReader::drain(wal.bytes());
        assert_eq!(tail, TailState::Clean);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, genesis());
    }

    #[test]
    fn per_record_mode_syncs_every_append() {
        let mut wal = ssd_wal(DurabilityMode::PerRecord);
        for key in 0..5 {
            wal.append(&WalRecord::Insert {
                key,
                page: key,
                slot: 0,
            });
            assert_eq!(wal.synced_len(), wal.len());
        }
        // Genesis + 5 appends, one barrier each.
        assert_eq!(wal.sync_count(), 6);
        assert_eq!(wal.device().snapshot().fsyncs, 6);
    }

    #[test]
    fn group_commit_syncs_exactly_on_the_record_window() {
        let mut wal = ssd_wal(DurabilityMode::GroupCommit {
            max_records: 4,
            max_bytes: usize::MAX,
        });
        let synced_after_genesis = wal.synced_len();
        for key in 0..3 {
            wal.append(&WalRecord::Delete { key });
            assert_eq!(
                wal.synced_len(),
                synced_after_genesis,
                "window not full: tail stays volatile"
            );
        }
        assert_eq!(wal.pending_records(), 3);
        wal.append(&WalRecord::Delete { key: 3 });
        assert_eq!(wal.synced_len(), wal.len(), "4th record trips the window");
        assert_eq!(wal.pending_records(), 0);
        assert_eq!(wal.sync_count(), 2, "genesis + one group");
    }

    #[test]
    fn group_commit_byte_window_trips_too() {
        let mut wal = ssd_wal(DurabilityMode::GroupCommit {
            max_records: usize::MAX,
            max_bytes: 64,
        });
        let mut syncs = wal.sync_count();
        for key in 0..100 {
            wal.append(&WalRecord::Delete { key });
            if wal.sync_count() > syncs {
                assert_eq!(wal.synced_len(), wal.len());
                syncs = wal.sync_count();
            }
        }
        assert!(wal.sync_count() >= 20, "17-byte frames, 64-byte window");
        assert!(
            wal.sync_count() < 101,
            "strictly fewer barriers than per-record"
        );
    }

    #[test]
    fn async_mode_defers_everything_to_explicit_sync() {
        let mut wal = ssd_wal(DurabilityMode::Async);
        let genesis_len = wal.len();
        for key in 0..50 {
            wal.append(&WalRecord::Delete { key });
        }
        assert_eq!(wal.synced_len(), genesis_len);
        assert_eq!(wal.sync_count(), 1);
        wal.sync();
        assert_eq!(wal.synced_len(), wal.len());
        wal.sync(); // idempotent: nothing pending, no new barrier
        assert_eq!(wal.sync_count(), 2);
    }

    #[test]
    fn sync_charges_sequential_page_writes_for_the_dirty_range() {
        let mut wal = ssd_wal(DurabilityMode::Async);
        let before = wal.device().snapshot();
        // Append ~2.5 pages of records, then sync once.
        let n = (PAGE_SIZE * 5 / 2) / 17 + 1;
        for key in 0..n as u64 {
            wal.append(&WalRecord::Delete { key });
        }
        wal.sync();
        let d = wal.device().snapshot().since(&before);
        assert_eq!(d.fsyncs, 1, "one barrier per sync");
        assert_eq!(d.writes, 3, "pages 0 (rewritten tail), 1, 2");
        assert_eq!(d.bytes_written, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn reader_stops_at_a_flipped_byte_and_keeps_the_prefix() {
        let mut wal = ssd_wal(DurabilityMode::PerRecord);
        for key in 0..4 {
            wal.append(&WalRecord::Delete { key });
        }
        let (recs, _) = WalReader::drain(wal.bytes());
        assert_eq!(recs.len(), 5);
        let third_end = recs[2].0;

        // Flip one payload byte of the 4th record (a delete key byte,
        // so the frame still parses structurally).
        let mut image = wal.bytes().to_vec();
        image[third_end + 9] ^= 0xFF;
        let (kept, tail) = WalReader::drain(&image);
        assert_eq!(kept.len(), 3, "records before the corruption survive");
        assert_eq!(
            tail,
            TailState::Torn {
                valid_len: third_end
            }
        );
    }

    #[test]
    fn reader_treats_every_mid_record_truncation_as_the_previous_boundary() {
        let mut wal = ssd_wal(DurabilityMode::PerRecord);
        for key in 0..3 {
            wal.append(&WalRecord::Insert {
                key,
                page: key * 2,
                slot: 1,
            });
        }
        let image = wal.bytes();
        let (recs, _) = WalReader::drain(image);
        let boundaries: Vec<usize> = recs.iter().map(|&(end, _)| end).collect();
        for cut in 0..=image.len() {
            let (kept, tail) = WalReader::drain(&image[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut).count();
            assert_eq!(kept.len(), expect, "cut at byte {cut}");
            if boundaries.contains(&cut) || cut == 0 {
                assert_eq!(tail, TailState::Clean, "cut at byte {cut}");
            } else {
                assert!(
                    matches!(tail, TailState::Torn { .. }),
                    "cut at byte {cut} must read as torn"
                );
            }
        }
    }

    #[test]
    fn implausible_lengths_read_as_torn_not_panic() {
        let mut image = Vec::new();
        genesis().encode_frame(&mut image);
        let end = image.len();
        // A frame whose length claims 2 GB.
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        image.extend_from_slice(&[0u8; 12]);
        let (recs, tail) = WalReader::drain(&image);
        assert_eq!(recs.len(), 1);
        assert_eq!(tail, TailState::Torn { valid_len: end });
    }

    #[test]
    fn drain_of_a_zero_length_log_is_empty_and_clean() {
        let (recs, tail) = WalReader::drain(&[]);
        assert!(recs.is_empty());
        assert_eq!(tail, TailState::Clean);
    }

    #[test]
    fn drain_of_exactly_one_frame_yields_it_and_ends_clean() {
        let mut image = Vec::new();
        genesis().encode_frame(&mut image);
        let (recs, tail) = WalReader::drain(&image);
        assert_eq!(recs, vec![(image.len(), genesis())]);
        assert_eq!(tail, TailState::Clean);
    }

    #[test]
    fn drain_with_one_trailing_garbage_byte_keeps_the_frame() {
        let mut image = Vec::new();
        genesis().encode_frame(&mut image);
        let frame_end = image.len();
        image.push(0xAB);
        let (recs, tail) = WalReader::drain(&image);
        assert_eq!(recs.len(), 1, "the valid frame survives");
        assert_eq!(recs[0].0, frame_end);
        assert_eq!(
            tail,
            TailState::Torn {
                valid_len: frame_end
            },
            "a lone garbage byte is a torn tail, not a record"
        );
    }

    #[test]
    fn durable_bytes_is_the_guaranteed_prefix() {
        let mut wal = ssd_wal(DurabilityMode::GroupCommit {
            max_records: 100,
            max_bytes: usize::MAX,
        });
        wal.append(&WalRecord::Delete { key: 9 });
        let (durable, tail) = WalReader::drain(wal.durable_bytes());
        assert_eq!(tail, TailState::Clean);
        assert_eq!(durable.len(), 1, "only genesis is guaranteed");
        let (all, _) = WalReader::drain(wal.bytes());
        assert_eq!(all.len(), 2);
    }
}
