//! Views into the BF-Tree from outside the crate: the floor leaf of a
//! key, leaf totals, a replay of one probe's filter sweep and heap scan
//! through the public `BfLeaf`/`HeapFile` functions, and a traced
//! wrapper that measures the trees inside a sharded fleet.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bftree::BfTree;
use bftree_access::{
    AccessMethod, BuildError, Continuation, IndexStats, MatchSink, Probe, ProbeError, ProbeIo,
    RangeCursor,
};
use bftree_storage::tuple::AttrOffset;
use bftree_storage::{HeapFile, IoContext, PageId, Relation};

/// Cost of one `Instant` read pair, subtracted from single-call timings
/// so a 30 ns filter sweep is not reported as 60 ns.
pub fn timer_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Wall nanoseconds of `f`, less the timer's own cost.
#[inline]
pub fn timed<R>(overhead: u64, f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let out = f();
    (
        out,
        (t.elapsed().as_nanos() as u64).saturating_sub(overhead),
    )
}

/// Leaves with at least one key, ordered by their smallest key, so the
/// floor leaf of a key is one binary search away.
#[derive(Debug, Default, Clone)]
pub struct LeafMap {
    min_keys: Vec<u64>,
    leaves: Vec<u32>,
}

impl LeafMap {
    pub fn new(tree: &BfTree) -> Self {
        let mut pairs: Vec<(u64, u32)> = tree
            .leaves()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.n_keys > 0)
            .map(|(i, l)| (l.min_key, i as u32))
            .collect();
        pairs.sort_unstable();
        Self {
            min_keys: pairs.iter().map(|p| p.0).collect(),
            leaves: pairs.iter().map(|p| p.1).collect(),
        }
    }

    /// Arena index of the leaf with the largest smallest-key `<= key`.
    pub fn floor(&self, key: u64) -> Option<u32> {
        let i = self.min_keys.partition_point(|&k| k <= key);
        (i > 0).then(|| self.leaves[i - 1])
    }
}

/// Totals over `BfTree::leaves()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeafTotals {
    pub filters: u64,
    pub leaves: u64,
    pub max_pages: u64,
}

impl LeafTotals {
    pub fn of(tree: &BfTree) -> Self {
        let mut t = Self::default();
        for leaf in tree.leaves() {
            t.filters += leaf.n_filters() as u64;
            t.leaves += 1;
            t.max_pages = t.max_pages.max(leaf.n_pages());
        }
        t
    }

    /// Element-wise sum (fleet totals; `max_pages` takes the maximum).
    pub fn plus(self, o: Self) -> Self {
        Self {
            filters: self.filters + o.filters,
            leaves: self.leaves + o.leaves,
            max_pages: self.max_pages.max(o.max_pages),
        }
    }
}

/// One probe's filter sweep and heap scan, replayed through
/// `BfLeaf::matching_pages` and `HeapFile::scan_page_for`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepScan {
    pub sweep_ns: u64,
    pub filters: u64,
    pub candidates: u64,
    pub scan_ns: u64,
    pub pages_scanned: u64,
}

/// Scratch buffers reused across replays.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    pages: Vec<PageId>,
    slots: Vec<usize>,
}

/// Replay the sweep of `key`'s floor leaf, then scan the `pages_read`
/// candidate pages nearest `home` (the page the probe matched on, when
/// it matched) — the pages a first-match probe reads.
#[allow(clippy::too_many_arguments)]
pub fn replay_sweep_scan(
    tree: &BfTree,
    map: &LeafMap,
    heap: &HeapFile,
    attr: AttrOffset,
    key: u64,
    pages_read: u64,
    home: Option<PageId>,
    overhead: u64,
    scratch: &mut ReplayScratch,
) -> SweepScan {
    let Some(idx) = map.floor(key) else {
        return SweepScan::default();
    };
    let leaf = &tree.leaves()[idx as usize];
    scratch.pages.clear();
    let (filters, sweep_ns) = timed(overhead, || leaf.matching_pages(key, &mut scratch.pages));
    scratch.pages.dedup();
    let candidates = scratch.pages.len() as u64;
    if let Some(h) = home {
        scratch.pages.sort_by_key(|&p| p.abs_diff(h));
    }
    let mut out = SweepScan {
        sweep_ns,
        filters,
        candidates,
        ..SweepScan::default()
    };
    for &pid in scratch.pages.iter().take(pages_read as usize) {
        if pid >= heap.page_count() {
            continue;
        }
        scratch.slots.clear();
        let slots = &mut scratch.slots;
        let (_, ns) = timed(overhead, || heap.scan_page_for(pid, attr, key, slots));
        out.scan_ns += ns;
        out.pages_scanned += 1;
    }
    out
}

/// Counters a traced fleet's [`ObservedTree`]s add to.
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Measure probes only while set.
    pub on: AtomicBool,
    pub probes: AtomicU64,
    pub probe_ns: AtomicU64,
    pub sweep_ns: AtomicU64,
    pub filters: AtomicU64,
    pub candidates: AtomicU64,
    pub scan_ns: AtomicU64,
    pub pages_scanned: AtomicU64,
    pub pages_read: AtomicU64,
    pub false_reads: AtomicU64,
}

impl TreeStats {
    fn add(&self, probe_ns: u64, io: &ProbeIo, s: &SweepScan) {
        let r = Ordering::Relaxed;
        self.probes.fetch_add(1, r);
        self.probe_ns.fetch_add(probe_ns, r);
        self.sweep_ns.fetch_add(s.sweep_ns, r);
        self.filters.fetch_add(s.filters, r);
        self.candidates.fetch_add(s.candidates, r);
        self.scan_ns.fetch_add(s.scan_ns, r);
        self.pages_scanned.fetch_add(s.pages_scanned, r);
        self.pages_read.fetch_add(io.pages_read, r);
        self.false_reads.fetch_add(io.false_reads, r);
    }
}

/// Leaf totals an [`ObservedTree`] republishes after every change.
#[derive(Debug, Default)]
pub struct PublishedTotals {
    pub filters: AtomicU64,
    pub leaves: AtomicU64,
    pub max_pages: AtomicU64,
}

impl PublishedTotals {
    pub fn load(&self) -> LeafTotals {
        LeafTotals {
            filters: self.filters.load(Ordering::Relaxed),
            leaves: self.leaves.load(Ordering::Relaxed),
            max_pages: self.max_pages.load(Ordering::Relaxed),
        }
    }
}

/// A BF-Tree inside a shard of the traced fleet. Every call goes to the
/// tree unchanged; while [`TreeStats::on`] is set, each probe is timed
/// and its floor leaf's sweep and scan are replayed, and after every
/// change the leaf totals are republished.
pub struct ObservedTree {
    tree: BfTree,
    map: LeafMap,
    overhead: u64,
    stats: Arc<TreeStats>,
    totals: Arc<PublishedTotals>,
}

impl ObservedTree {
    pub fn new(
        tree: BfTree,
        overhead: u64,
        stats: Arc<TreeStats>,
        totals: Arc<PublishedTotals>,
    ) -> Self {
        let mut t = Self {
            map: LeafMap::default(),
            tree,
            overhead,
            stats,
            totals,
        };
        t.changed();
        t
    }

    fn changed(&mut self) {
        self.map = LeafMap::new(&self.tree);
        let t = LeafTotals::of(&self.tree);
        self.totals.filters.store(t.filters, Ordering::Relaxed);
        self.totals.leaves.store(t.leaves, Ordering::Relaxed);
        self.totals.max_pages.store(t.max_pages, Ordering::Relaxed);
    }
}

/// Records the first matched page while forwarding to the real sink.
struct HomeSink<'a> {
    inner: &'a mut dyn MatchSink,
    home: Option<PageId>,
}

impl MatchSink for HomeSink<'_> {
    fn push(&mut self, pid: PageId, slot: usize) -> std::ops::ControlFlow<()> {
        self.home.get_or_insert(pid);
        self.inner.push(pid, slot)
    }
}

impl AccessMethod for ObservedTree {
    fn name(&self) -> &'static str {
        self.tree.name()
    }

    fn build(&mut self, rel: &Relation) -> Result<(), BuildError> {
        let r = AccessMethod::build(&mut self.tree, rel);
        self.changed();
        r
    }

    fn probe_into(
        &self,
        key: u64,
        rel: &Relation,
        io: &IoContext,
        sink: &mut dyn MatchSink,
    ) -> Result<ProbeIo, ProbeError> {
        if !self.stats.on.load(Ordering::Relaxed) {
            return self.tree.probe_into(key, rel, io, sink);
        }
        let mut home = HomeSink {
            inner: sink,
            home: None,
        };
        let (r, ns) = timed(self.overhead, || {
            self.tree.probe_into(key, rel, io, &mut home)
        });
        let pio = r?;
        let s = replay_sweep_scan(
            &self.tree,
            &self.map,
            rel.heap(),
            rel.attr(),
            key,
            pio.pages_read,
            home.home,
            self.overhead,
            &mut ReplayScratch::default(),
        );
        self.stats.add(ns, &pio, &s);
        Ok(pio)
    }

    fn probe_first(&self, key: u64, rel: &Relation, io: &IoContext) -> Result<Probe, ProbeError> {
        self.tree.probe_first(key, rel, io)
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        rel: &Relation,
        io: &IoContext,
    ) -> Result<Vec<Probe>, ProbeError> {
        self.tree.probe_batch(keys, rel, io)
    }

    fn range_cursor<'c>(
        &'c self,
        lo: u64,
        hi: u64,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        self.tree.range_cursor(lo, hi, rel, io)
    }

    fn resume_range_cursor<'c>(
        &'c self,
        cont: &Continuation,
        rel: &'c Relation,
        io: &'c IoContext,
    ) -> Result<Box<dyn RangeCursor + 'c>, ProbeError> {
        self.tree.resume_range_cursor(cont, rel, io)
    }

    fn insert(&mut self, key: u64, loc: (PageId, usize), rel: &Relation) -> Result<(), ProbeError> {
        let r = AccessMethod::insert(&mut self.tree, key, loc, rel);
        self.changed();
        r
    }

    fn insert_batch(
        &mut self,
        entries: &[(u64, (PageId, usize))],
        rel: &Relation,
    ) -> Result<(), ProbeError> {
        let r = AccessMethod::insert_batch(&mut self.tree, entries, rel);
        self.changed();
        r
    }

    fn delete(&mut self, key: u64, rel: &Relation) -> Result<u64, ProbeError> {
        let r = AccessMethod::delete(&mut self.tree, key, rel);
        self.changed();
        r
    }

    fn size_bytes(&self) -> u64 {
        AccessMethod::size_bytes(&self.tree)
    }

    fn resident_bytes(&self) -> u64 {
        self.tree.resident_bytes()
    }

    fn stats(&self) -> IndexStats {
        AccessMethod::stats(&self.tree)
    }
}
