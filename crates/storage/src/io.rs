//! I/O accounting: sharded operation counters plus a simulated clock.
//!
//! Every device access is recorded here. Counters are **sharded**:
//! each recording thread is pinned (round-robin, on first use) to one
//! of [`IoStats::SHARDS`] cache-line-aligned blocks of relaxed
//! `AtomicU64`s, so concurrent probes never contend on a shared
//! counter cache line — the serving path of §8 of the paper
//! (parallelized BF probes) stays bookkeeping-free. [`IoStats::snapshot`]
//! merges the shards into one [`IoSnapshot`].
//!
//! Per-*thread* accounting rides along: every charge also advances the
//! thread-local simulated clock that lives in `bftree-obs`
//! ([`thread_sim_ns`], re-exported here). Deltas of that counter
//! around an operation give the operation's simulated latency without
//! touching shared state — this is what the parallel bench driver
//! builds its latency histograms from.
//!
//! The `record_*` methods are also the observability choke point:
//! each one notes its operation to `bftree-obs` so open spans and
//! `QueryTrace`s can attribute I/O to individual requests. The hooks
//! never feed back into the counters here — I/O totals are
//! bit-identical whether recording is on, off, or compiled out.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Simulated nanoseconds charged *by the calling thread* across every
/// device since the thread started. Monotone — take a delta around an
/// operation to get that operation's simulated latency:
///
/// ```
/// use bftree_storage::{thread_sim_ns, DeviceKind, PageDevice};
///
/// let dev = PageDevice::cold(DeviceKind::Ssd);
/// let before = thread_sim_ns();
/// dev.read_random(7);
/// let latency_ns = thread_sim_ns() - before;
/// assert!(latency_ns > 0);
/// ```
pub use bftree_obs::thread_sim_ns;

/// One cache-line-aligned block of counters. The alignment keeps two
/// shards from sharing a 64-byte line, which is the whole point of
/// sharding (false sharing would re-serialize the probe threads the
/// shards exist to decouple).
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    random_reads: AtomicU64,
    seq_reads: AtomicU64,
    writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_evictions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    sim_ns: AtomicU64,
}

thread_local! {
    /// This thread's shard index, assigned on first record.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Process-wide round-robin source of shard assignments.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|c| {
        let mut i = c.get();
        if i == usize::MAX {
            i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % IoStats::SHARDS;
            c.set(i);
        }
        i
    })
}

/// Shared, thread-safe I/O statistics for one device.
///
/// Writes go to the calling thread's shard; [`IoStats::snapshot`]
/// merges all shards. Totals are exact under any interleaving — each
/// increment lands in exactly one atomic counter — only the
/// *attribution* of counts to shards depends on thread scheduling.
#[derive(Debug)]
pub struct IoStats {
    shards: Vec<Shard>,
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable snapshot of [`IoStats`], also usable as a delta.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Randomly-located page reads that reached the device.
    pub random_reads: u64,
    /// Sequential page reads that reached the device.
    pub seq_reads: u64,
    /// Page writes.
    pub writes: u64,
    /// Reads absorbed by the buffer pool.
    pub cache_hits: u64,
    /// Pages evicted from the buffer pool to admit this device's
    /// misses.
    pub cache_evictions: u64,
    /// Bytes transferred by reads that reached the device.
    pub bytes_read: u64,
    /// Bytes transferred by writes.
    pub bytes_written: u64,
    /// Durability barriers (`fsync`) issued against the device.
    pub fsyncs: u64,
    /// Accumulated simulated time, nanoseconds.
    pub sim_ns: u64,
}

impl IoStats {
    /// Number of counter shards. 16 covers any plausible probe-thread
    /// count on the machines this harness targets; threads beyond that
    /// share shards round-robin, which costs contention but never
    /// correctness.
    pub const SHARDS: usize = 16;

    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// Record a random page read of `bytes` costing `ns`.
    #[inline]
    pub fn record_random_read(&self, ns: u64, bytes: u64) {
        let s = &self.shards[shard_index()];
        s.random_reads.fetch_add(1, Ordering::Relaxed);
        s.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        s.sim_ns.fetch_add(ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(ns);
        bftree_obs::note_device_reads(1);
    }

    /// Record `n` random page reads of `bytes` each, costing `ns`
    /// each, as **one** counter operation — the bulk form batched
    /// replays use so a multi-page charge costs one round of atomics
    /// instead of `n`. Totals are exactly `n` applications of
    /// [`IoStats::record_random_read`].
    #[inline]
    pub fn record_random_reads(&self, n: u64, ns: u64, bytes: u64) {
        if n == 0 {
            return;
        }
        let s = &self.shards[shard_index()];
        s.random_reads.fetch_add(n, Ordering::Relaxed);
        s.bytes_read.fetch_add(n * bytes, Ordering::Relaxed);
        s.sim_ns.fetch_add(n * ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(n * ns);
        bftree_obs::note_device_reads(n);
    }

    /// Record a sequential page read of `bytes` costing `ns`.
    #[inline]
    pub fn record_seq_read(&self, ns: u64, bytes: u64) {
        let s = &self.shards[shard_index()];
        s.seq_reads.fetch_add(1, Ordering::Relaxed);
        s.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        s.sim_ns.fetch_add(ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(ns);
        bftree_obs::note_device_reads(1);
    }

    /// Record a page write of `bytes` costing `ns`.
    #[inline]
    pub fn record_write(&self, ns: u64, bytes: u64) {
        let s = &self.shards[shard_index()];
        s.writes.fetch_add(1, Ordering::Relaxed);
        s.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        s.sim_ns.fetch_add(ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(ns);
    }

    /// Record a buffer-pool hit costing `ns` (memory latency; no bytes
    /// reach the device).
    #[inline]
    pub fn record_cache_hit(&self, ns: u64) {
        let s = &self.shards[shard_index()];
        s.cache_hits.fetch_add(1, Ordering::Relaxed);
        s.sim_ns.fetch_add(ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(ns);
        bftree_obs::note_cache_hits(1);
    }

    /// Record a durability barrier costing `ns` (no bytes move — the
    /// device drains what the preceding writes left in its cache).
    #[inline]
    pub fn record_fsync(&self, ns: u64) {
        let s = &self.shards[shard_index()];
        s.fsyncs.fetch_add(1, Ordering::Relaxed);
        s.sim_ns.fetch_add(ns, Ordering::Relaxed);
        bftree_obs::add_thread_sim_ns(ns);
        bftree_obs::note_fsync();
    }

    /// Record `n` buffer-pool evictions caused by admitting this
    /// device's misses (bookkeeping only; the victim's write-back cost
    /// is not modelled — pages here are clean by construction).
    #[inline]
    pub fn record_cache_evictions(&self, n: u64) {
        if n > 0 {
            self.shards[shard_index()]
                .cache_evictions
                .fetch_add(n, Ordering::Relaxed);
            bftree_obs::event(bftree_obs::SpanKind::Eviction, n);
        }
    }

    /// Merge all shards into a snapshot of the current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        let mut out = IoSnapshot::default();
        for s in &self.shards {
            out.random_reads += s.random_reads.load(Ordering::Relaxed);
            out.seq_reads += s.seq_reads.load(Ordering::Relaxed);
            out.writes += s.writes.load(Ordering::Relaxed);
            out.cache_hits += s.cache_hits.load(Ordering::Relaxed);
            out.cache_evictions += s.cache_evictions.load(Ordering::Relaxed);
            out.bytes_read += s.bytes_read.load(Ordering::Relaxed);
            out.bytes_written += s.bytes_written.load(Ordering::Relaxed);
            out.fsyncs += s.fsyncs.load(Ordering::Relaxed);
            out.sim_ns += s.sim_ns.load(Ordering::Relaxed);
        }
        out
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for s in &self.shards {
            s.random_reads.store(0, Ordering::Relaxed);
            s.seq_reads.store(0, Ordering::Relaxed);
            s.writes.store(0, Ordering::Relaxed);
            s.cache_hits.store(0, Ordering::Relaxed);
            s.cache_evictions.store(0, Ordering::Relaxed);
            s.bytes_read.store(0, Ordering::Relaxed);
            s.bytes_written.store(0, Ordering::Relaxed);
            s.fsyncs.store(0, Ordering::Relaxed);
            s.sim_ns.store(0, Ordering::Relaxed);
        }
    }
}

impl IoSnapshot {
    /// Difference `self - earlier`, counter-wise.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            random_reads: self.random_reads - earlier.random_reads,
            seq_reads: self.seq_reads - earlier.seq_reads,
            writes: self.writes - earlier.writes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fsyncs: self.fsyncs - earlier.fsyncs,
            sim_ns: self.sim_ns - earlier.sim_ns,
        }
    }

    /// Sum of the two snapshots, counter-wise.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            random_reads: self.random_reads + other.random_reads,
            seq_reads: self.seq_reads + other.seq_reads,
            writes: self.writes + other.writes,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            fsyncs: self.fsyncs + other.fsyncs,
            sim_ns: self.sim_ns + other.sim_ns,
        }
    }

    /// Total reads that reached the device (random + sequential).
    pub fn device_reads(&self) -> u64 {
        self.random_reads + self.seq_reads
    }

    /// Fraction of page reads absorbed by the buffer pool:
    /// `cache_hits / (cache_hits + device reads)`; 0 when no read
    /// happened (a cold device reports 0, not NaN).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.device_reads();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total bytes that crossed the device interface.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Simulated time in milliseconds.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }

    /// Simulated time in microseconds.
    pub fn sim_us(&self) -> f64 {
        self.sim_ns as f64 / 1e3
    }

    /// Register this snapshot's counters into a metrics registry,
    /// labelled with the device role (`index`, `data`, `wal`, …).
    pub fn register_metrics(&self, reg: &mut bftree_obs::MetricsRegistry, device: &str) {
        let l = &[("device", device)];
        reg.counter(
            "bftree_io_random_reads_total",
            "Randomly-located page reads that reached the device",
            l,
            self.random_reads,
        );
        reg.counter(
            "bftree_io_seq_reads_total",
            "Sequential page reads that reached the device",
            l,
            self.seq_reads,
        );
        reg.counter("bftree_io_writes_total", "Page writes", l, self.writes);
        reg.counter(
            "bftree_io_cache_hits_total",
            "Reads absorbed by the buffer pool",
            l,
            self.cache_hits,
        );
        reg.counter(
            "bftree_io_cache_evictions_total",
            "Buffer-pool evictions caused by this device's misses",
            l,
            self.cache_evictions,
        );
        reg.counter(
            "bftree_io_bytes_read_total",
            "Bytes transferred by device reads",
            l,
            self.bytes_read,
        );
        reg.counter(
            "bftree_io_bytes_written_total",
            "Bytes transferred by writes",
            l,
            self.bytes_written,
        );
        reg.counter(
            "bftree_io_fsyncs_total",
            "Durability barriers issued against the device",
            l,
            self.fsyncs,
        );
        reg.counter(
            "bftree_io_sim_ns_total",
            "Accumulated simulated nanoseconds",
            l,
            self.sim_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_random_read(100, 4096);
        s.record_random_read(100, 4096);
        s.record_seq_read(10, 4096);
        s.record_write(50, 4096);
        s.record_cache_hit(1);
        s.record_cache_evictions(2);
        s.record_cache_evictions(0); // no-op, no shard write
        let snap = s.snapshot();
        assert_eq!(snap.random_reads, 2);
        assert_eq!(snap.seq_reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_evictions, 2);
        assert_eq!(snap.cache_hit_rate(), 0.25, "1 hit, 3 device reads");
        assert_eq!(snap.bytes_read, 3 * 4096);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.bytes_total(), 4 * 4096);
        assert_eq!(snap.sim_ns, 261);
        assert_eq!(snap.device_reads(), 3);
    }

    #[test]
    fn snapshot_delta() {
        let s = IoStats::new();
        s.record_random_read(5, 64);
        let a = s.snapshot();
        s.record_seq_read(7, 64);
        s.record_random_read(5, 64);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.random_reads, 1);
        assert_eq!(d.seq_reads, 1);
        assert_eq!(d.bytes_read, 128);
        assert_eq!(d.sim_ns, 12);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_write(1, 64);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn stats_are_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<IoStats>();
    }

    #[test]
    fn shards_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert!(std::mem::size_of::<Shard>() >= 64);
    }

    #[test]
    fn concurrent_recording_loses_no_updates() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        s.record_random_read(3, 10);
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.random_reads, 80_000);
        assert_eq!(snap.bytes_read, 800_000);
        assert_eq!(snap.sim_ns, 240_000);
    }

    #[test]
    fn thread_sim_ns_tracks_this_thread_only() {
        let s = IoStats::new();
        let t0 = thread_sim_ns();
        s.record_random_read(100, 1);
        assert_eq!(thread_sim_ns() - t0, 100);
        // Another thread's charges do not move this thread's clock.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mine = thread_sim_ns();
                s.record_write(40, 1);
                assert_eq!(thread_sim_ns() - mine, 40);
            });
        });
        assert_eq!(thread_sim_ns() - t0, 100);
    }

    #[test]
    fn plus_adds_counterwise() {
        let a = IoSnapshot {
            random_reads: 1,
            seq_reads: 2,
            writes: 3,
            cache_hits: 4,
            cache_evictions: 8,
            bytes_read: 6,
            bytes_written: 7,
            fsyncs: 9,
            sim_ns: 5,
        };
        let b = IoSnapshot {
            random_reads: 10,
            seq_reads: 20,
            writes: 30,
            cache_hits: 40,
            cache_evictions: 80,
            bytes_read: 60,
            bytes_written: 70,
            fsyncs: 90,
            sim_ns: 50,
        };
        let c = a.plus(&b);
        assert_eq!(c.random_reads, 11);
        assert_eq!(c.fsyncs, 99);
        assert_eq!(c.cache_evictions, 88);
        assert_eq!(c.bytes_read, 66);
        assert_eq!(c.sim_ns, 55);
        assert_eq!(c.since(&a), b);
    }
}
