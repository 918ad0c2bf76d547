//! [`PageDevice`]: the one device type the rest of the stack charges
//! page accesses to, and [`Backend`], the `--storage=sim|file`
//! selector that builds devices.
//!
//! A device is a latency model ([`DeviceProfile`]) and shared
//! counters ([`IoStats`]), plus two optional parts:
//!
//! * a **cache** — one pool of a [`BufferManager`]. Re-reads it
//!   absorbs cost a memory access and never reach the device. A pool
//!   of a one-shard LRU manager is the per-device warm cache of the
//!   paper's §6.2 sweeps; pools of one shared manager compete for a
//!   single byte budget ([`crate::IoContext::with_shared_budget`]).
//! * a **store** — a [`FileStore`] that mirrors every access reaching
//!   the device with real, checksum-verified file I/O.
//!
//! Every access is charged to the simulator first; the store is
//! touched exactly when the simulator says the access reached the
//! device. Operation counts and simulated time are therefore the same
//! with and without a store *by construction* — the property the
//! backend-conformance suite asserts.
//!
//! # Concurrency
//!
//! A `PageDevice` (and its clones, which share state) may be charged
//! from many threads at once. A device with neither cache nor store —
//! the default of every paper experiment — takes no lock: each access
//! lands in the calling thread's counter shard (see [`IoStats`]) and
//! totals are exact under any interleaving. A cache takes its
//! manager's per-shard lock; a store serializes on its file.

use std::path::PathBuf;
use std::sync::Arc;

use bftree_bufferpool::{Access, BufferManager, PoolId};

use crate::device::{DeviceKind, DeviceProfile};
use crate::file::{DeviceError, FileStore, IoOutcome, SyncPolicy, WallSnapshot};
use crate::io::{IoSnapshot, IoStats};
use crate::page::{PageId, PAGE_SIZE};

/// A storage device: latency profile + stats + optional cache pool +
/// optional backing file.
///
/// Cloning is cheap and shares the stats, the cache and the store.
#[derive(Debug, Clone)]
pub struct PageDevice {
    profile: DeviceProfile,
    stats: Arc<IoStats>,
    cache: Option<(Arc<BufferManager>, PoolId)>,
    store: Option<Arc<FileStore>>,
}

impl PageDevice {
    /// A cold simulated device of the given kind.
    pub fn cold(kind: DeviceKind) -> Self {
        Self::new(DeviceProfile::of(kind), None, None)
    }

    /// A device with fresh counters. `cache` names the pool of a
    /// [`BufferManager`] that absorbs re-reads (pages are charged at
    /// [`PAGE_SIZE`] bytes); `store` is the file every device-reaching
    /// access is mirrored onto.
    pub fn new(
        profile: DeviceProfile,
        cache: Option<(Arc<BufferManager>, PoolId)>,
        store: Option<Arc<FileStore>>,
    ) -> Self {
        Self {
            profile,
            stats: Arc::new(IoStats::new()),
            cache,
            store,
        }
    }

    /// The device's latency profile.
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// The device medium.
    pub fn kind(&self) -> DeviceKind {
        self.profile.kind
    }

    /// The backing page store, when this device is file-backed.
    pub fn store(&self) -> Option<&Arc<FileStore>> {
        self.store.as_ref()
    }

    /// The buffer manager and pool this device's cache lives in, if
    /// any.
    pub fn shared_cache(&self) -> Option<(&Arc<BufferManager>, PoolId)> {
        self.cache.as_ref().map(|(manager, pool)| (manager, *pool))
    }

    /// Charge a randomly-located read of `page`. A read that reaches
    /// the device and has a store performs a verified file read
    /// (materializing the page on first access).
    #[inline]
    pub fn read_random(&self, page: PageId) {
        if !self.cache_absorbs(page) {
            self.stats
                .record_random_read(self.profile.random_read_ns, PAGE_SIZE as u64);
            self.read_store(page);
        }
    }

    /// Charge a set of randomly-located reads at once. On a device
    /// with neither cache nor store (nothing to do per page) the whole
    /// set lands in one counter operation; otherwise each page is
    /// charged on its own so hit accounting and file reads stay exact.
    /// Totals always equal charging each page with
    /// [`PageDevice::read_random`].
    pub fn read_random_many(&self, pages: impl ExactSizeIterator<Item = PageId>) {
        if self.cache.is_none() && self.store.is_none() {
            self.stats.record_random_reads(
                pages.len() as u64,
                self.profile.random_read_ns,
                PAGE_SIZE as u64,
            );
        } else {
            for page in pages {
                self.read_random(page);
            }
        }
    }

    /// Charge the next page of a sequential run.
    #[inline]
    pub fn read_seq(&self, page: PageId) {
        if !self.cache_absorbs(page) {
            self.stats
                .record_seq_read(self.profile.seq_read_ns, PAGE_SIZE as u64);
            self.read_store(page);
        }
    }

    /// Charge a batch of page reads given as a sorted list: the first
    /// page is random, each subsequent page is sequential if adjacent
    /// to its predecessor, random otherwise. This models the paper's
    /// "list of sorted disk accesses" handed to the controller
    /// (Equation 13's seqDtIO term for false-positive pages).
    pub fn read_sorted_batch(&self, pages: &[PageId]) {
        let mut prev: Option<PageId> = None;
        for &p in pages {
            match prev {
                Some(q) if p == q + 1 => self.read_seq(p),
                Some(q) if p == q => {} // duplicate, already fetched
                _ => self.read_random(p),
            }
            prev = Some(p);
        }
    }

    /// Charge a page write; a store stamps a fresh checksummed image.
    /// The device write is always charged (write-through); a cache
    /// installs (or refreshes) the written page, so a read-after-write
    /// is a hit. Installation never books a cache hit (nothing was
    /// served from memory), but admissions that displace pages record
    /// their evictions. A store write that fails even after retries
    /// drops the cached copy — memory must never claim bytes the
    /// device refused.
    #[inline]
    pub fn write(&self, page: PageId) {
        self.charge_write(page);
        if let Some(store) = &self.store {
            if store.charged_write(page) != IoOutcome::Ok {
                self.invalidate(page);
            }
        }
    }

    /// Charge a page write carrying real bytes (the WAL's path). The
    /// simulated cost and counters are exactly those of
    /// [`PageDevice::write`]; a store persists `bytes` as the page's
    /// payload, retrying transient faults per its
    /// [`RetryPolicy`](crate::fault::RetryPolicy). Returns whether the
    /// bytes landed — `false` means the caller must not acknowledge
    /// anything depending on them. A device without a store loses
    /// nothing by construction and always returns `true`.
    pub fn write_bytes(&self, page: PageId, bytes: &[u8]) -> bool {
        self.charge_write(page);
        let Some(store) = &self.store else {
            return true;
        };
        let landed = store.write_page_verified(page, bytes).is_ok();
        if !landed {
            self.invalidate(page);
        }
        landed
    }

    /// Charge a durability barrier: the device drains its volatile
    /// write cache and acknowledges every preceding write — what a
    /// write-ahead log pays per commit (see `DeviceProfile::fsync_ns`).
    /// A store's [`SyncPolicy`] decides whether a real `fdatasync` is
    /// issued. Returns whether the barrier succeeded; on `false` the
    /// dirty window stays pending and the next successful barrier
    /// covers it, so callers withhold acknowledgements rather than
    /// panic.
    #[inline]
    pub fn fsync(&self) -> bool {
        let _span = bftree_obs::span(bftree_obs::SpanKind::Fsync);
        self.stats.record_fsync(self.profile.fsync_ns);
        self.store
            .as_ref()
            .is_none_or(|s| s.sync_verified().is_ok())
    }

    /// Pre-load `pages` into the cache (warm-up) without charging —
    /// and without touching any file.
    pub fn prewarm<I: IntoIterator<Item = PageId>>(&self, pages: I) {
        if let Some((manager, pool)) = &self.cache {
            manager.prewarm(*pool, pages, PAGE_SIZE as u64);
        }
    }

    /// Snapshot of the accumulated simulated statistics (all shards
    /// merged).
    pub fn snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// Wall-clock counters, when this device is file-backed.
    pub fn wall(&self) -> Option<WallSnapshot> {
        self.store.as_ref().map(|s| s.wall())
    }

    /// Reset simulated statistics (keeps cache and file contents).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Drop this device's cached pages (other pools of a shared
    /// manager keep their residency).
    pub fn drop_caches(&self) {
        if let Some((manager, pool)) = &self.cache {
            manager.evict_pool(*pool);
        }
    }

    /// Pages in the store's quarantine are barred from the cache:
    /// serving a known-corrupt page from memory would mask the fault
    /// from its repair path, so every access re-verifies it against
    /// the file until repaired.
    #[inline]
    fn quarantined(&self, page: PageId) -> bool {
        self.store
            .as_ref()
            .is_some_and(|s| s.quarantine().contains(page))
    }

    /// Drop `page` from the cache if resident; returns whether a
    /// cached copy was dropped.
    fn invalidate(&self, page: PageId) -> bool {
        self.cache
            .as_ref()
            .is_some_and(|(manager, pool)| manager.invalidate(*pool, page))
    }

    /// The file half of a device-reaching read. A read that uncovers
    /// corruption quarantines the page (inside the store) and drops
    /// any cached copy, so later reads keep hitting the device image
    /// until a repair lands.
    #[inline]
    fn read_store(&self, page: PageId) {
        if let Some(store) = &self.store {
            if store.charged_read(page) != IoOutcome::Ok {
                self.invalidate(page);
            }
        }
    }

    /// The simulated half of a write: charge it, then install the page
    /// into the cache unless it is quarantined.
    #[inline]
    fn charge_write(&self, page: PageId) {
        self.stats
            .record_write(self.profile.write_ns, PAGE_SIZE as u64);
        if self.quarantined(page) {
            return;
        }
        if let Some((manager, pool)) = &self.cache {
            if let Access::Miss { evicted } = manager.touch(*pool, page, PAGE_SIZE as u64) {
                self.stats.record_cache_evictions(evicted.len() as u64);
            }
        }
    }

    /// Look `page` up in the cache; returns whether the read was
    /// absorbed (a hit, charged at memory speed). A quarantined page
    /// is never served or admitted.
    #[inline]
    fn cache_absorbs(&self, page: PageId) -> bool {
        let Some((manager, pool)) = &self.cache else {
            return false;
        };
        if self.quarantined(page) {
            return false;
        }
        match manager.touch(*pool, page, PAGE_SIZE as u64) {
            Access::Hit => {
                self.stats
                    .record_cache_hit(DeviceProfile::memory().random_read_ns);
                true
            }
            Access::Miss { evicted } => {
                self.stats.record_cache_evictions(evicted.len() as u64);
                false
            }
        }
    }
}

/// Which backend to materialize devices on — what `--storage=sim|file`
/// parses into.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Simulated devices only (the default).
    Sim,
    /// File-backed devices: each named device gets a page store under
    /// `dir`. Memory-kind devices stay simulated — a memory device
    /// *is* RAM, and timing file I/O for it would poison the
    /// calibration.
    File {
        /// Directory holding the per-device `<name>.bfs` stores.
        dir: PathBuf,
        /// Fsync batching for every store this backend creates.
        policy: SyncPolicy,
    },
}

impl Backend {
    /// The file backend rooted at `dir` with per-request fsync.
    pub fn file(dir: impl Into<PathBuf>) -> Self {
        Backend::File {
            dir: dir.into(),
            policy: SyncPolicy::PerRequest,
        }
    }

    /// Short name (`"sim"` / `"file"`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::File { .. } => "file",
        }
    }

    /// Open (or create) the named page store, when this backend is
    /// file-based.
    pub fn store_for(&self, name: &str) -> Result<Option<Arc<FileStore>>, DeviceError> {
        match self {
            Backend::Sim => Ok(None),
            Backend::File { dir, policy } => {
                std::fs::create_dir_all(dir).map_err(DeviceError::Io)?;
                let store = FileStore::open_or_create(dir.join(format!("{name}.bfs")), *policy)?;
                Ok(Some(Arc::new(store)))
            }
        }
    }

    /// A cold device of the given kind named `name` (the name keys the
    /// backing store file). Memory-kind devices are always simulated.
    pub fn device(&self, kind: DeviceKind, name: &str) -> Result<PageDevice, DeviceError> {
        self.cached_device(kind, name, None)
    }

    /// [`Backend::device`] whose re-reads are absorbed by a fresh pool
    /// of `manager` (registered under `name`). Memory-kind devices
    /// stay uncached and simulated: a memory device *is* the buffer,
    /// and caching it would double-count the budget.
    pub(crate) fn cached_device(
        &self,
        kind: DeviceKind,
        name: &str,
        manager: Option<&Arc<BufferManager>>,
    ) -> Result<PageDevice, DeviceError> {
        if kind == DeviceKind::Memory {
            return Ok(PageDevice::cold(kind));
        }
        let cache = manager.map(|m| (Arc::clone(m), m.register_pool(name)));
        Ok(PageDevice::new(
            DeviceProfile::of(kind),
            cache,
            self.store_for(name)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::ScratchDir;
    use bftree_bufferpool::PolicyKind;

    /// A device behind a private one-shard LRU of `pages` pages, with
    /// an optional store.
    fn lru_device(pages: u64, store: Option<Arc<FileStore>>) -> PageDevice {
        let manager = Arc::new(BufferManager::with_shards(
            pages * PAGE_SIZE as u64,
            PolicyKind::Lru,
            1,
        ));
        let pool = manager.register_pool("dev");
        PageDevice::new(DeviceProfile::ssd(), Some((manager, pool)), store)
    }

    fn store(dir: &ScratchDir, name: &str) -> Arc<FileStore> {
        let path = dir.path().join(format!("{name}.bfs"));
        Arc::new(FileStore::create(path, SyncPolicy::PerRequest).expect("create store"))
    }

    fn file_dev(kind: DeviceKind, dir: &ScratchDir, name: &str) -> PageDevice {
        PageDevice::new(DeviceProfile::of(kind), None, Some(store(dir, name)))
    }

    #[test]
    fn cold_device_charges_every_read() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.read_random(1);
        dev.read_random(1);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.bytes_read, 2 * PAGE_SIZE as u64);
        assert_eq!(s.sim_ns, 2 * DeviceProfile::ssd().random_read_ns);
    }

    #[test]
    fn lru_device_absorbs_rereads() {
        let dev = lru_device(16, None);
        dev.read_random(1);
        dev.read_random(1);
        dev.read_random(2);
        dev.read_seq(3);
        dev.read_seq(3);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.seq_reads, 1);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.bytes_read, 3 * PAGE_SIZE as u64, "hits move no bytes");
    }

    #[test]
    fn sorted_batch_charges_sequential_for_adjacent() {
        let dev = PageDevice::cold(DeviceKind::Hdd);
        dev.read_sorted_batch(&[10, 11, 12, 40, 41]);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 2, "pages 10 and 40");
        assert_eq!(s.seq_reads, 3, "pages 11, 12, 41");
    }

    #[test]
    fn sorted_batch_skips_duplicates() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.read_sorted_batch(&[5, 5, 5]);
        assert_eq!(dev.snapshot().device_reads(), 1);
    }

    #[test]
    fn prewarm_makes_reads_hits() {
        let dev = lru_device(100, None);
        dev.prewarm(0..50u64);
        dev.read_random(25);
        let s = dev.snapshot();
        assert_eq!(s.random_reads, 0);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn clones_share_stats() {
        let dev = PageDevice::cold(DeviceKind::Memory);
        let dev2 = dev.clone();
        dev.read_random(1);
        dev2.read_random(2);
        assert_eq!(dev.snapshot().random_reads, 2);
    }

    #[test]
    fn writes_are_charged() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.write(3);
        let s = dev.snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, PAGE_SIZE as u64);
        assert_eq!(s.sim_ns, DeviceProfile::ssd().write_ns);
    }

    #[test]
    fn write_installs_page_in_the_cache() {
        let dev = lru_device(8, None);
        dev.write(3);
        dev.read_random(3);
        let s = dev.snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.cache_hits, 1, "read-after-write is a hit");
        assert_eq!(s.random_reads, 0, "the re-read never reached the device");
    }

    #[test]
    fn write_installation_records_evictions_but_never_hits() {
        let dev = lru_device(2, None);
        dev.read_random(1);
        dev.read_random(2);
        dev.write(3); // admitting 3 evicts 1
        let s = dev.snapshot();
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.cache_hits, 0, "installation is not a served read");
        dev.write(3); // already resident: refresh, no eviction
        assert_eq!(dev.snapshot().cache_evictions, 1);
    }

    #[test]
    fn cold_write_stays_cacheless() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        dev.write(3);
        dev.read_random(3);
        let s = dev.snapshot();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.random_reads, 1, "cold devices never absorb");
    }

    #[test]
    fn drop_caches_returns_to_cold_behaviour() {
        let dev = lru_device(8, None);
        dev.read_random(1);
        dev.drop_caches();
        dev.read_random(1);
        assert_eq!(dev.snapshot().random_reads, 2);
    }

    #[test]
    fn lru_device_counts_evictions() {
        let dev = lru_device(2, None);
        dev.read_random(1);
        dev.read_random(2);
        dev.read_random(3); // evicts 1
        dev.read_random(1); // evicts 2
        let s = dev.snapshot();
        assert_eq!(s.cache_evictions, 2);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn shared_cache_devices_compete_for_one_budget() {
        let mgr = Arc::new(BufferManager::with_shards(
            2 * PAGE_SIZE as u64,
            PolicyKind::Lru,
            1,
        ));
        let pool = |label| Some((Arc::clone(&mgr), mgr.register_pool(label)));
        let index = PageDevice::new(DeviceProfile::ssd(), pool("index"), None);
        let data = PageDevice::new(DeviceProfile::hdd(), pool("data"), None);
        index.read_random(7);
        data.read_random(7); // same page id, different pool: both resident
        assert!(index.shared_cache().is_some());
        index.read_random(7);
        data.read_random(7);
        assert_eq!(index.snapshot().cache_hits, 1);
        assert_eq!(data.snapshot().cache_hits, 1);
        // A third distinct page overflows the shared 2-page budget.
        data.read_random(8);
        assert_eq!(data.snapshot().cache_evictions, 1);
        // Dropping one device's caches leaves the other pool resident.
        index.drop_caches();
        data.read_random(7);
        assert_eq!(data.snapshot().cache_hits, 2, "data pool survived");
    }

    #[test]
    fn quarantined_pages_bypass_the_cache_until_released() {
        let dir = ScratchDir::new("backend-quarantine").unwrap();
        let dev = lru_device(8, Some(store(&dir, "d")));
        let q = dev.store().unwrap().quarantine();
        let device_reads = || dev.snapshot().device_reads();
        dev.read_random(1);
        dev.read_random(1);
        assert_eq!(device_reads(), 1, "cached while healthy");
        q.quarantine(1);
        assert!(dev.invalidate(1), "cached copy dropped on quarantine");
        assert!(!dev.invalidate(1));
        dev.read_random(1);
        assert_eq!(device_reads(), 2, "quarantined reads reach the device");
        dev.write(1); // install attempt must be refused
        dev.read_random(1);
        assert_eq!(device_reads(), 3, "still uncached while quarantined");
        q.release(1);
        dev.read_random(1); // re-admitted ...
        dev.read_random(1);
        assert_eq!(device_reads(), 4, "... and cached again after release");
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        let dev = PageDevice::cold(DeviceKind::Ssd);
        std::thread::scope(|s| {
            for t in 0..4 {
                let dev = dev.clone();
                s.spawn(move || {
                    for p in 0..5_000u64 {
                        dev.read_random(t * 10_000 + p);
                    }
                });
            }
        });
        assert_eq!(dev.snapshot().random_reads, 20_000, "no lost updates");
    }

    #[test]
    fn file_device_counts_match_sim_device_cold() {
        let dir = ScratchDir::new("backend-counts").unwrap();
        let sim = PageDevice::cold(DeviceKind::Ssd);
        let file = file_dev(DeviceKind::Ssd, &dir, "d");
        for dev in [&sim, &file] {
            dev.read_random(1);
            dev.read_random(1);
            dev.read_random_many([7u64, 8, 9].into_iter());
            dev.read_sorted_batch(&[10, 11, 11, 13]);
            dev.write(2);
            dev.fsync();
        }
        let a = sim.snapshot();
        let b = file.snapshot();
        assert_eq!(a.random_reads, b.random_reads);
        assert_eq!(a.seq_reads, b.seq_reads);
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.fsyncs, b.fsyncs);
        assert_eq!(a.sim_ns, b.sim_ns, "simulated clock identical too");
    }

    #[test]
    fn file_device_really_touches_the_file() {
        let dir = ScratchDir::new("backend-touch").unwrap();
        let dev = file_dev(DeviceKind::Ssd, &dir, "d");
        dev.read_random(1);
        dev.read_random(1);
        dev.write(2);
        dev.fsync();
        let w = dev.wall().expect("file-backed");
        assert_eq!(w.reads, 2);
        assert_eq!(w.materialized, 1, "page 1 stamped once");
        assert_eq!(w.writes, 2, "materialization + explicit write");
        assert_eq!(w.syncs_issued, 1);
        let store = dev.store().unwrap();
        assert!(store.contains(1) && store.contains(2));
    }

    #[test]
    fn warm_file_device_only_hits_file_on_misses() {
        let dir = ScratchDir::new("backend-warm").unwrap();
        let dev = lru_device(8, Some(store(&dir, "d")));
        dev.read_random(1);
        dev.read_random(1);
        dev.read_random(1);
        assert_eq!(dev.snapshot().cache_hits, 2);
        assert_eq!(dev.wall().unwrap().reads, 1, "hits never reach the file");
    }

    #[test]
    fn write_bytes_persists_payload_on_file_backend() {
        let dir = ScratchDir::new("backend-bytes").unwrap();
        let dev = file_dev(DeviceKind::Ssd, &dir, "log");
        assert!(dev.write_bytes(0, b"log page zero"));
        assert_eq!(dev.store().unwrap().read_page(0).unwrap(), b"log page zero");
        // A storeless device books the same write.
        let sim = PageDevice::cold(DeviceKind::Ssd);
        assert!(sim.write_bytes(0, b"log page zero"));
        assert_eq!(sim.snapshot(), dev.snapshot());
    }

    #[test]
    fn backend_selector_materializes_devices() {
        let dir = ScratchDir::new("backend-select").unwrap();
        let sim = Backend::Sim.device(DeviceKind::Ssd, "x").unwrap();
        assert!(sim.store().is_none());
        let backend = Backend::file(dir.path());
        let dev = backend.device(DeviceKind::Ssd, "x").unwrap();
        assert!(dev.store().is_some());
        let mem = backend.device(DeviceKind::Memory, "m").unwrap();
        assert!(mem.store().is_none(), "memory devices stay simulated");
        // Reopening the same name finds the same store file.
        dev.write(5);
        drop(dev);
        let again = backend.device(DeviceKind::Ssd, "x").unwrap();
        assert!(again.store().unwrap().contains(5));
    }
}
