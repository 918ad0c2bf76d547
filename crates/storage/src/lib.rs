//! Page-based storage engine with *simulated* storage devices.
//!
//! The BF-Tree paper evaluates five storage configurations built from
//! three media — main memory, an SSD (OCZ Deneva 2C) and an HDD
//! (Seagate 10 kRPM) — accessed with `O_DIRECT|O_SYNC`. This crate
//! reproduces that setup deterministically:
//!
//! * [`page`] — fixed-size pages ([`page::PAGE_SIZE`] = 4 KB, as in the
//!   paper) and page ids.
//! * [`mod@tuple`] — fixed-size tuple layout with u64 attributes at fixed
//!   offsets (the paper's 256 B synthetic tuples, 200 B TPCH tuples).
//! * [`heap`] — heap files: ordered/partitioned runs of pages holding
//!   tuples, the "main data" every index points into.
//! * [`device`] — latency models for Memory / SSD / HDD plus the
//!   Figure 2 device survey.
//! * [`io`] — I/O accounting: operation counters and a simulated clock.
//! * [`relation`] — [`relation::Relation`]: heap file + indexed
//!   attribute + duplicate layout, the handle access methods build on.
//! * [`context`] — [`context::IoContext`]: the index/data device pair a
//!   query charges, and the paper's five [`context::StorageConfig`]s.
//! * [`backend`] — [`backend::PageDevice`], the one device type every
//!   layer charges: a latency profile and stats, an optional cache (a
//!   pool of a [`BufferManager`]) and an optional [`file::FileStore`]
//!   that mirrors device-reaching accesses with real, checksum-verified
//!   I/O. [`backend::Backend`] decides whether devices get a store.
//! * [`mod@file`] — [`file::FileStore`]: the byte-hitting page store
//!   (CRC-32 page headers, persistent free list, batched fsync,
//!   wall-clock counters) behind the file backend.
//! * [`fault`] — the fault plane: a deterministic seeded
//!   [`fault::FaultInjector`], [`fault::RetryPolicy`] backoff,
//!   [`fault::Quarantine`] for checksum-failed pages, and the
//!   [`fault::FaultStats`] behind the `bftree_fault_*` metric
//!   families.
//! * [`scrub`] — [`scrub::Scrubber`]: sweeps live pages verifying
//!   checksums, quarantining rot before a query trips over it.
//!
//! "Response times" reported by the benchmark harness are the simulated
//! nanoseconds accumulated here, making every experiment reproducible
//! on any machine while preserving the paper's relative results (see
//! DESIGN.md §2.4).

#![warn(missing_docs)]

pub mod backend;
pub mod context;
pub mod device;
pub mod fault;
pub mod file;
pub mod heap;
pub mod io;
pub mod page;
pub mod relation;
pub mod scrub;
pub mod search;
pub mod tuple;

pub use backend::{Backend, PageDevice};
pub use bftree_bufferpool::{BufferManager, BufferStats, PolicyKind, PoolId};
pub use context::{IoContext, StorageConfig};
pub use device::{DeviceKind, DeviceProfile};
pub use fault::{
    FaultConfig, FaultInjector, FaultKind, FaultSnapshot, FaultStats, Quarantine, RetryPolicy,
    ScheduledFault,
};
pub use file::{
    DeviceError, FileStore, IoOutcome, ScratchDir, SyncPolicy, WallSnapshot, PAGE_HEADER,
};
pub use heap::HeapFile;
pub use io::{thread_sim_ns, IoSnapshot, IoStats};
pub use page::{PageId, PAGE_SIZE};
pub use relation::{Duplicates, Relation, RelationError, SharedRelation};
pub use scrub::{ScrubReport, Scrubber};
pub use search::{binary_search, interpolation_search, SearchResult};
pub use tuple::TupleLayout;
