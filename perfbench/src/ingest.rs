//! `ingest`: the write-heavy mix (`OpMix::WRITE_HEAVY`: 50 % probes,
//! 40 % inserts, 10 % deletes) on one thread through
//! `DurableIndex<BfTree>`, with group commit at 64 records / 16 KiB and
//! a memtable flush every 256 writes. Insert keys are fresh and above
//! the current maximum (clustered by time, as the paper assumes);
//! deletes hit base keys on a stride. Devices are cold SSD/SSD with an
//! SSD log.
//!
//! The loop runs in passes of [`PASS_OPS`] ops. Each pass starts from
//! the bulk-loaded state, so memory stays bounded and every pass does
//! the same work; between passes, untimed, the memtable is drained and
//! every answer checked: inserted keys are found, deleted keys are
//! missing, untouched base keys still answer.

use std::time::Instant;

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig, DurableIndex, Probe, ProbeError};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{DeviceKind, IoContext, PageDevice, Relation, StorageConfig};
use bftree_wal::{DurabilityMode, WalRecord};
use bftree_workloads::{mixed_stream, KeyPopularity, Op, OpMix};

use crate::metrics::{unattributed_share, Samples, Slices};
use crate::trace::Tracer;
use crate::tree::{
    replay_sweep_scan, timed, timer_overhead_ns, LeafMap, LeafTotals, ReplayScratch,
};
use crate::{relation_r, repeated_setup, wal_replay, Args, Outcome, FPP, SPAN_CAP};

/// Ops per pass.
pub const PASS_OPS: usize = 65_536;
/// Stride of the delete keys over the base domain (coprime with 2^k).
const DELETE_STRIDE: u64 = 499;
/// Ops per stretch; a traced run alternates untraced and traced ones.
const STRETCH: usize = 1024;
/// Width of the slices (of timed time) the wall figures are averaged over.
const SLICE: std::time::Duration = std::time::Duration::from_secs(1);

pub const CONFIG: DurableConfig = DurableConfig {
    flush_batch: 256,
    durability: DurabilityMode::GroupCommit {
        max_records: 64,
        max_bytes: 16 * 1024,
    },
};

type Index = DurableIndex<BfTree>;

/// The bulk-loaded state every pass starts from.
struct Base {
    rel: Relation,
    tree: BfTree,
    ops: Vec<Op>,
}

fn setup(seed: u64) -> Base {
    let rel = relation_r(seed);
    let tree = BfTree::builder()
        .fpp(FPP)
        .build(&rel)
        .expect("valid BF-Tree configuration");
    let n = rel.heap().tuple_count();
    let domain: Vec<u64> = (0..n).collect();
    let inserts: Vec<u64> = (n..n + PASS_OPS as u64).collect();
    let offset = seed % n;
    let deletes: Vec<u64> = (0..PASS_OPS as u64 / 8)
        .map(|i| (offset + i * DELETE_STRIDE) % n)
        .collect();
    let ops = mixed_stream(
        &domain,
        KeyPopularity::Uniform,
        OpMix::WRITE_HEAVY,
        &inserts,
        &deletes,
        PASS_OPS,
        seed ^ 0x1_6E57,
    );
    // Warm-up: one pass's worth of the same mix on a throwaway copy, so
    // the timed loop meets allocator and code paths already in use.
    let mut pass = Pass::new(&rel, &tree);
    for op in ops.iter().take(PASS_OPS / 4) {
        let _ = pass.apply(*op);
    }
    drop(pass);
    Base { rel, tree, ops }
}

/// One pass's live state.
struct Pass {
    rel: Relation,
    index: Index,
    io: IoContext,
    deleted: Vec<bool>,
    base_keys: u64,
}

impl Pass {
    fn new(rel: &Relation, tree: &BfTree) -> Self {
        let rel = rel.clone();
        let index = DurableIndex::new(
            tree.clone(),
            &rel,
            PageDevice::cold(DeviceKind::Ssd),
            CONFIG,
        );
        let base_keys = rel.heap().tuple_count();
        Self {
            rel,
            index,
            io: IoContext::cold(StorageConfig::SsdSsd),
            deleted: vec![false; base_keys as usize],
            base_keys,
        }
    }

    /// Apply one op: whether its answer is correct, and the probe's
    /// outcome for probes; `Err` when the index refused the op.
    fn apply(&mut self, op: Op) -> Result<(bool, Option<Probe>), ProbeError> {
        match op {
            Op::Probe(k) => {
                let p = self.index.probe_first(k, &self.rel, &self.io)?;
                let want = !self.deleted[k as usize];
                let ok = match p.matches.first() {
                    Some(&(pid, slot)) => want && self.rel.heap().attr(pid, slot, PK_OFFSET) == k,
                    None => !want,
                };
                Ok((ok, Some(p)))
            }
            Op::Insert(k) => {
                let loc = self.rel.append_tuple(k, k, &self.io);
                self.index.insert(k, loc, &self.rel)?;
                Ok((true, None))
            }
            Op::Delete(k) => {
                self.index.delete(k, &self.rel)?;
                self.deleted[k as usize] = true;
                Ok((true, None))
            }
        }
    }

    /// Drain the memtable, then count wrong answers over `done`:
    /// inserted keys must be found, deleted keys missing, and base keys
    /// on a stride still answer unless deleted.
    fn drain_and_check(&mut self, done: &[Op]) -> u64 {
        if self.index.flush(&self.rel).is_err() {
            return 1;
        }
        let check = IoContext::unmetered();
        let found = |index: &Index, rel: &Relation, k: u64| {
            index
                .probe_first(k, rel, &check)
                .ok()
                .and_then(|p| p.matches.first().copied())
                .is_some_and(|(pid, slot)| rel.heap().attr(pid, slot, PK_OFFSET) == k)
        };
        let mut wrong = 0;
        for op in done {
            match *op {
                Op::Insert(k) if !found(&self.index, &self.rel, k) => wrong += 1,
                Op::Delete(k) if found(&self.index, &self.rel, k) => wrong += 1,
                _ => {}
            }
        }
        for k in (0..self.base_keys).step_by(97) {
            if !self.deleted[k as usize] && !found(&self.index, &self.rel, k) {
                wrong += 1;
            }
        }
        wrong
    }
}

/// Per-layer sums over the traced stretches.
#[derive(Default)]
struct LayerSums {
    probes: u64,
    live_probe_ns: u64,
    durable_replay_ns: u64,
    inner_probe_ns: u64,
    writes: u64,
    write_ns: u64,
    stall_ns: u64,
    sweep_ns: u64,
    /// Filters, candidates and memtable peak over the traced ops of the
    /// first pass, so these counts repeat exactly for a seed.
    window_probes: u64,
    filters: u64,
    candidates: u64,
    scan_ns: u64,
    pages_scanned: u64,
    memtable_max: u64,
}

/// Figures of the first pass, which repeat exactly for a seed.
struct FirstPass {
    sim_us_per_op: f64,
    index_bytes_per_key: f64,
    idx: bftree_storage::IoSnapshot,
    data: bftree_storage::IoSnapshot,
    log: bftree_storage::IoSnapshot,
    wal_bytes: u64,
    wal_records: u64,
    wal_syncs: u64,
    writes: u64,
    pages_read: u64,
    false_reads: u64,
    probes: u64,
    flushes: u64,
    leaves_bulk: LeafTotals,
    leaves_end: LeafTotals,
}

pub fn run(args: &Args) -> Outcome {
    let (base, setup_s) = repeated_setup(|| setup(args.seed));
    let overhead = timer_overhead_ns();
    let mut sums = LayerSums::default();
    let mut scratch = ReplayScratch::default();
    let replay_io = IoContext::cold(StorageConfig::SsdSsd);

    let mut slices = Slices::new(SLICE);
    let mut writes = Samples::with_capacity(1 << 21);
    let (mut ops, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let (mut flushes, mut stall_ns, mut timed_ns) = (0u64, 0u64, 0u64);
    let mut stretch_ops = [0u64; 2];
    let mut stretch_ns = [0u64; 2];
    let mut first: Option<FirstPass> = None;
    let mut passes = 0u64;

    let window = args.window();
    let start = Instant::now();
    let mut tracer = Tracer::new(SPAN_CAP);
    loop {
        let mut pass = Pass::new(&base.rel, &base.tree);
        let mut map = LeafMap::new(pass.index.inner());
        let mut map_flushes = 0;
        let (mut pages_read, mut false_reads, mut probes) = (0u64, 0u64, 0u64);
        let mut done = 0usize;
        while done < PASS_OPS {
            // The first pass always runs whole: its figures are the
            // ones that repeat exactly.
            if passes > 0 && start.elapsed() >= window {
                break;
            }
            let traced = args.trace && (ops as usize / STRETCH) % 2 == 1;
            let end = (done + STRETCH).min(PASS_OPS);
            let t_stretch = Instant::now();
            for &op in &base.ops[done..end] {
                let flushes_before = pass.index.flush_count();
                let t0 = Instant::now();
                let res = pass.apply(op);
                let ns = t0.elapsed().as_nanos() as u64;
                let at = timed_ns + t0.duration_since(t_stretch).as_nanos() as u64 + ns;
                // Nothing injects faults, so a refused op is a wrong
                // answer too; it stays out of the wall figures.
                let (probe, refused) = match res {
                    Ok((ok, probe)) => {
                        wrong += u64::from(!ok);
                        (probe, false)
                    }
                    Err(_) => {
                        failed += 1;
                        wrong += 1;
                        (None, true)
                    }
                };
                ops += 1;
                if pass.index.flush_count() != flushes_before {
                    flushes += 1;
                    stall_ns += ns;
                }
                match op {
                    _ if refused => {}
                    Op::Probe(k) => {
                        slices.read(at, ns, 1);
                        let p = probe.unwrap_or_default();
                        if passes == 0 {
                            probes += 1;
                            pages_read += p.pages_read;
                            false_reads += p.false_reads;
                        }
                        if traced {
                            let inner = pass.index.inner();
                            if map_flushes != pass.index.flush_count() {
                                map = LeafMap::new(inner);
                                map_flushes = pass.index.flush_count();
                            }
                            // Both replays run after the live probe, so
                            // both meet warm CPU caches.
                            let (_, durable_ns) = timed(overhead, || {
                                pass.index.probe_first(k, &pass.rel, &replay_io)
                            });
                            let (ip, inner_ns) =
                                timed(overhead, || inner.probe_first(k, &pass.rel, &replay_io));
                            let ip = ip.unwrap_or_default();
                            let s = replay_sweep_scan(
                                inner,
                                &map,
                                pass.rel.heap(),
                                PK_OFFSET,
                                k,
                                ip.pages_read,
                                ip.matches.first().map(|m| m.0),
                                overhead,
                                &mut scratch,
                            );
                            let live = ns.saturating_sub(overhead);
                            sums.probes += 1;
                            sums.live_probe_ns += live;
                            sums.durable_replay_ns += durable_ns;
                            sums.inner_probe_ns += inner_ns;
                            sums.sweep_ns += s.sweep_ns;
                            if passes == 0 {
                                sums.window_probes += 1;
                                sums.filters += s.filters;
                                sums.candidates += s.candidates;
                            }
                            sums.scan_ns += s.scan_ns;
                            sums.pages_scanned += s.pages_scanned;
                            let at = t0.duration_since(start).as_nanos() as u64;
                            tracer.record(ops, "op.probe", None, at, live);
                            tracer.record(
                                ops,
                                "core.probe_first",
                                Some("op.probe"),
                                at + ns,
                                inner_ns,
                            );
                            tracer.record(
                                ops,
                                "bloom.matching_pages",
                                Some("core.probe_first"),
                                at + ns,
                                s.sweep_ns,
                            );
                            tracer.record(
                                ops,
                                "storage.scan_page_for",
                                Some("core.probe_first"),
                                at + ns,
                                s.scan_ns,
                            );
                        }
                    }
                    Op::Insert(_) | Op::Delete(_) => {
                        slices.ops(at, 1);
                        writes.push(ns);
                        if traced {
                            if passes == 0 {
                                sums.memtable_max =
                                    sums.memtable_max.max(pass.index.memtable_bytes());
                            }
                            sums.writes += 1;
                            sums.write_ns += ns.saturating_sub(overhead);
                            if pass.index.flush_count() != flushes_before {
                                sums.stall_ns += ns.saturating_sub(overhead);
                            }
                            let at = t0.duration_since(start).as_nanos() as u64;
                            tracer.record(ops, "op.write", None, at, ns);
                        }
                    }
                }
            }
            let took = t_stretch.elapsed().as_nanos() as u64;
            stretch_ops[usize::from(traced)] += (end - done) as u64;
            stretch_ns[usize::from(traced)] += took;
            timed_ns += took;
            slices.seal_before(timed_ns);
            done = end;
        }

        if passes == 0 {
            let leaves_bulk = LeafTotals::of(&base.tree);
            let (idx, data) = (pass.io.index.snapshot(), pass.io.data.snapshot());
            let log = pass.index.wal().device().snapshot();
            let sim_us = idx.sim_us() + data.sim_us() + log.sim_us();
            let n_writes = base.ops[..done]
                .iter()
                .filter(|o| !matches!(o, Op::Probe(_)))
                .count() as u64;
            let wal = pass.index.wal();
            let (wal_bytes, wal_records, wal_syncs) =
                (wal.len() as u64, wal.record_count(), wal.sync_count());
            let pass_flushes = pass.index.flush_count();
            wrong += pass.drain_and_check(&base.ops[..done]);
            let live_keys =
                pass.rel.heap().tuple_count() - pass.deleted.iter().filter(|&&d| d).count() as u64;
            first = Some(FirstPass {
                sim_us_per_op: sim_us / done as f64,
                index_bytes_per_key: AccessMethod::size_bytes(&pass.index) as f64
                    / live_keys as f64,
                idx,
                data,
                log,
                wal_bytes,
                wal_records,
                wal_syncs,
                writes: n_writes,
                pages_read,
                false_reads,
                probes,
                flushes: pass_flushes,
                leaves_bulk,
                leaves_end: LeafTotals::of(pass.index.inner()),
            });
        } else {
            wrong += pass.drain_and_check(&base.ops[..done]);
        }
        passes += 1;
        if start.elapsed() >= window {
            break;
        }
    }
    let first = first.expect("one pass always runs");

    let mut out = Outcome {
        attempted: ops,
        failed,
        wrong,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "ingest: R = {} tuples, {} passes of up to {PASS_OPS} ops, {} ops timed over {:.3} s, \
         simulated figures over the first pass",
        base.rel.heap().tuple_count(),
        passes,
        ops,
        timed_ns as f64 / 1e9
    ));
    out.notes.push(format!(
        "ingest: filters {} after bulk load, {} after the first pass ({} leaves -> {})",
        first.leaves_bulk.filters,
        first.leaves_end.filters,
        first.leaves_bulk.leaves,
        first.leaves_end.leaves
    ));
    let m = &mut out.metrics;
    let per_op = |v: f64| v / PASS_OPS as f64;
    if args.trace {
        let k = sums.probes.max(1) as f64;
        let inner = sums.inner_probe_ns as f64 / k;
        let sweep = sums.sweep_ns as f64 / k;
        let scan = sums.scan_ns as f64 / k;
        m.set("core.probe_ns", inner, "ns");
        m.set("core.descent_ns", inner - sweep - scan, "ns");
        m.set(
            "core.filters_total",
            first.leaves_end.filters as f64,
            "count",
        );
        m.set("core.leaves", first.leaves_end.leaves as f64, "count");
        m.set(
            "core.leaf_pages_max",
            first.leaves_end.max_pages as f64,
            "count",
        );
        m.set("bloom.sweep_ns", sweep, "ns");
        let w = sums.window_probes.max(1) as f64;
        m.set("bloom.filters_per_probe", sums.filters as f64 / w, "count");
        m.set(
            "bloom.candidates_per_probe",
            sums.candidates as f64 / w,
            "count",
        );
        m.set(
            "storage.scan_ns_per_page",
            sums.scan_ns as f64 / sums.pages_scanned.max(1) as f64,
            "ns",
        );
        let probes = first.probes.max(1) as f64;
        m.set(
            "storage.pages_read_per_probe",
            first.pages_read as f64 / probes,
            "count",
        );
        m.set(
            "storage.false_reads_per_probe",
            first.false_reads as f64 / probes,
            "count",
        );
        m.set(
            "storage.useful_read_ratio",
            (first.pages_read - first.false_reads) as f64 / first.pages_read.max(1) as f64,
            "ratio",
        );
        let (idx, data, log) = (&first.idx, &first.data, &first.log);
        m.set(
            "storage.device_reads_per_op",
            per_op((idx.device_reads() + data.device_reads()) as f64),
            "count",
        );
        m.set(
            "storage.device_writes_per_op",
            per_op((idx.writes + data.writes + log.writes) as f64),
            "count",
        );
        m.set(
            "storage.fsyncs_per_op",
            per_op((idx.fsyncs + data.fsyncs + log.fsyncs) as f64),
            "count",
        );
        m.set(
            "storage.index_sim_us_per_op",
            per_op(idx.sim_us()),
            "sim_us",
        );
        m.set(
            "storage.data_sim_us_per_op",
            per_op(data.sim_us()),
            "sim_us",
        );
        m.set(
            "access.probe_overhead_ns",
            (sums.durable_replay_ns as f64 - sums.inner_probe_ns as f64) / k,
            "ns",
        );
        m.set("access.flushes", first.flushes as f64, "count");
        m.set(
            "access.flush_stall_us",
            stall_ns as f64 / flushes.max(1) as f64 / 1e3,
            "us",
        );
        m.set(
            "access.flush_stall_share",
            stall_ns as f64 / timed_ns.max(1) as f64,
            "ratio",
        );
        m.set("access.memtable_bytes_max", sums.memtable_max as f64, "B");
        m.set(
            "wal.bytes_per_write",
            first.wal_bytes as f64 / first.writes.max(1) as f64,
            "B",
        );
        m.set(
            "wal.records_per_sync",
            first.wal_records as f64 / first.wal_syncs.max(1) as f64,
            "count",
        );
        let records: Vec<WalRecord> = wal_records(&base.ops, base.rel.heap().tuple_count());
        let (append_ns, sync_ns) = wal_replay(&records, 64, base.rel.heap().tuple_count());
        m.set("wal.append_ns", append_ns, "ns");
        m.set("wal.sync_ns", sync_ns, "ns");
        let rate = |i: usize| stretch_ops[i] as f64 / stretch_ns[i].max(1) as f64;
        m.set("trace.overhead_ratio", rate(0) / rate(1), "ratio");
        // A traced probe splits whole into the durable wrapper (live
        // minus inner), descent, sweep and scan; a traced write into
        // the flush stall and the log (replayed append and sync cost).
        // What is left is the writes' memtable and heap work.
        let live = sums.live_probe_ns as f64;
        let syncs = sums.writes as f64 / first.wal_records.max(1) as f64 * first.wal_syncs as f64;
        m.set(
            "trace.unattributed_share",
            unattributed_share(
                live + sums.write_ns as f64,
                &[
                    live - sums.inner_probe_ns as f64,
                    sums.inner_probe_ns as f64 - sums.sweep_ns as f64 - sums.scan_ns as f64,
                    sums.sweep_ns as f64,
                    sums.scan_ns as f64,
                    sums.stall_ns as f64,
                    sums.writes as f64 * append_ns + syncs * sync_ns,
                ],
            ),
            "ratio",
        );
        out.tracer = Some(tracer);
    } else {
        m.set("setup_s", setup_s, "s");
        m.set("sim_us_per_op", first.sim_us_per_op, "sim_us");
        m.set("index_bytes_per_key", first.index_bytes_per_key, "B");
        out.sliced(&mut slices, timed_ns);
        out.latency("write_p50_us", &mut writes, 0.50);
        out.latency("write_p99_us", &mut writes, 0.99);
        out.latency("write_p999_us", &mut writes, 0.999);
        out.notes.push(format!(
            "ingest: {flushes} memtable flushes, stall {:.1} us each",
            stall_ns as f64 / flushes.max(1) as f64 / 1e3
        ));
    }
    out
}

/// The WAL records a pass's writes produce (page/slot as the heap
/// would assign them).
fn wal_records(ops: &[Op], base_tuples: u64) -> Vec<WalRecord> {
    let per_page = (bftree_storage::PAGE_SIZE / 256) as u64;
    let mut next = base_tuples;
    ops.iter()
        .filter_map(|op| match *op {
            Op::Insert(key) => {
                let (page, slot) = (next / per_page, next % per_page);
                next += 1;
                Some(WalRecord::Insert { key, page, slot })
            }
            Op::Delete(key) => Some(WalRecord::Delete { key }),
            Op::Probe(_) => None,
        })
        .collect()
}
