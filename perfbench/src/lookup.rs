//! `lookup`: the paper's §6.2 PK probe. One thread calls the scalar
//! `AccessMethod::probe_first` on uniform existing PKs of relation R.
//! Index and data share one LRU `BufferManager` budget of a quarter of
//! R, so the data does not fit.

use std::time::Instant;

use bftree::BfTree;
use bftree_access::AccessMethod;
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    BufferManager, IoContext, IoSnapshot, PageId, PolicyKind, StorageConfig, PAGE_SIZE,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::metrics::{unattributed_share, Slices};
use crate::trace::Tracer;
use crate::tree::{
    replay_sweep_scan, timed, timer_overhead_ns, LeafMap, LeafTotals, ReplayScratch,
};
use crate::{relation_r, repeated_setup, Args, Outcome, FPP, SPAN_CAP};

/// Probes that fill the buffer pool before timing starts.
const WARMUP_PROBES: u64 = 50_000;
/// Probes whose simulated I/O and counters are reported: a fixed
/// prefix of the timed loop, so those figures repeat exactly per seed.
const SIM_OPS: u64 = 200_000;
/// Ops per stretch; a traced run alternates untraced and traced ones.
const STRETCH: u64 = 4096;
/// Width of the slices the wall figures are averaged over.
const SLICE: std::time::Duration = std::time::Duration::from_secs(1);

/// Everything set-up builds.
struct Stack {
    rel: bftree_storage::Relation,
    tree: BfTree,
    io: IoContext,
}

fn setup(seed: u64) -> Stack {
    let rel = relation_r(seed);
    let tree = BfTree::builder()
        .fpp(FPP)
        .build(&rel)
        .expect("valid BF-Tree configuration");
    let budget = rel.heap().page_count() * PAGE_SIZE as u64 / 4;
    let io = IoContext::with_shared_budget(StorageConfig::SsdSsd, budget, PolicyKind::Lru);
    let n = rel.heap().tuple_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A7A_11CE);
    for _ in 0..WARMUP_PROBES {
        let _ = tree.probe_first(rng.random_range(0..n), &rel, &io);
    }
    Stack { rel, tree, io }
}

/// Per-layer sums over the traced stretches.
#[derive(Default)]
struct LayerSums {
    ops: u64,
    op_ns: u64,
    probe_ns: u64,
    warm_probe_ns: u64,
    sweep_ns: u64,
    /// Filters and candidates over the traced probes among the first
    /// `SIM_OPS`, so these counts repeat exactly for a seed.
    window_probes: u64,
    filters: u64,
    candidates: u64,
    scan_ns: u64,
    pages_scanned: u64,
}

pub fn run(args: &Args) -> Outcome {
    let (stack, setup_s) = repeated_setup(|| setup(args.seed));
    let Stack { rel, tree, io } = stack;
    let heap = rel.heap();
    let n = heap.tuple_count();
    let manager = io.buffer_manager().expect("shared budget").clone();

    let overhead = timer_overhead_ns();
    let map = LeafMap::new(&tree);
    let mut scratch = ReplayScratch::default();
    let mut sums = LayerSums::default();
    // Warm replays of the probe run on separate uncached devices, so
    // they leave the measured buffer pool and counters untouched.
    let replay_io = IoContext::cold(StorageConfig::SsdSsd);
    let mut touched: Vec<PageId> = Vec::new();

    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0010_0C0F);
    let mut slices = Slices::new(SLICE);
    let base_io = (io.index.snapshot(), io.data.snapshot(), manager.stats());
    let mut sim: Option<(IoSnapshot, IoSnapshot, bftree_storage::BufferStats)> = None;
    let (mut pages_read, mut false_reads) = (0u64, 0u64);
    let (mut ops, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    // [untraced, traced] ops and wall ns.
    let mut stretch_ops = [0u64; 2];
    let mut stretch_ns = [0u64; 2];

    let window = args.window();
    let start = Instant::now();
    let mut tracer = Tracer::new(SPAN_CAP);
    while start.elapsed() < window || ops < SIM_OPS {
        let traced = args.trace && (ops / STRETCH) % 2 == 1;
        let t_stretch = Instant::now();
        for _ in 0..STRETCH {
            let key = rng.random_range(0..n);
            let t0 = Instant::now();
            let res = tree.probe_first(key, &rel, &io);
            let probe_ns = t0.elapsed().as_nanos() as u64;
            // Every probed key exists and nothing injects faults, so a
            // `ProbeError` is a wrong answer too; it stays out of the
            // wall figures.
            let (ok, home, p_read, f_read) = match &res {
                Ok(p) => {
                    let ok = p.matches.len() == 1 && {
                        let (pid, slot) = p.matches[0];
                        heap.attr(pid, slot, PK_OFFSET) == key
                    };
                    (
                        ok,
                        p.matches.first().map(|m| m.0),
                        p.pages_read,
                        p.false_reads,
                    )
                }
                Err(_) => (false, None, 0, 0),
            };
            let op_ns = t0.elapsed().as_nanos() as u64;
            if res.is_ok() {
                let done = t0.duration_since(start).as_nanos() as u64 + probe_ns;
                slices.read(done, probe_ns, 1);
            } else {
                failed += 1;
            }
            wrong += u64::from(!ok);
            ops += 1;
            if ops <= SIM_OPS {
                pages_read += p_read;
                false_reads += f_read;
                if ops == SIM_OPS {
                    sim = Some((io.index.snapshot(), io.data.snapshot(), manager.stats()));
                }
            }
            if traced {
                let s = replay_sweep_scan(
                    &tree,
                    &map,
                    heap,
                    PK_OFFSET,
                    key,
                    p_read,
                    home,
                    overhead,
                    &mut scratch,
                );
                let (_, warm_ns) = timed(overhead, || tree.probe_first(key, &rel, &replay_io));
                let probe_ns = probe_ns.saturating_sub(overhead);
                sums.warm_probe_ns += warm_ns;
                sums.ops += 1;
                sums.op_ns += op_ns.saturating_sub(overhead);
                sums.probe_ns += probe_ns;
                sums.sweep_ns += s.sweep_ns;
                if ops <= SIM_OPS {
                    sums.window_probes += 1;
                    sums.filters += s.filters;
                    sums.candidates += s.candidates;
                }
                sums.scan_ns += s.scan_ns;
                sums.pages_scanned += s.pages_scanned;
                if let Some(h) = home {
                    if touched.len() < 1 << 20 {
                        touched.push(h);
                    }
                }
                let at = t0.duration_since(start).as_nanos() as u64;
                tracer.record(ops, "op", None, at, op_ns);
                tracer.record(ops, "core.probe_first", Some("op"), at, probe_ns);
                tracer.record(
                    ops,
                    "bloom.matching_pages",
                    Some("op"),
                    at + op_ns,
                    s.sweep_ns,
                );
                tracer.record(
                    ops,
                    "storage.scan_page_for",
                    Some("op"),
                    at + op_ns,
                    s.scan_ns,
                );
            }
        }
        stretch_ops[usize::from(traced)] += STRETCH;
        stretch_ns[usize::from(traced)] += t_stretch.elapsed().as_nanos() as u64;
        slices.seal_before(start.elapsed().as_nanos() as u64);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let wall_s = wall_ns as f64 / 1e9;

    let (idx, data, buf) = sim.expect("the loop runs at least SIM_OPS ops");
    let (idx, data) = (idx.since(&base_io.0), data.since(&base_io.1));
    let (hits, misses, evictions) = (
        buf.hits - base_io.2.hits,
        buf.misses - base_io.2.misses,
        buf.evictions - base_io.2.evictions,
    );
    let per_op = |v: f64| v / SIM_OPS as f64;

    let mut out = Outcome {
        attempted: ops,
        failed,
        wrong,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "lookup: R = {} tuples ({} pages), buffer budget {} pages (a quarter of R), {} ops in {:.3} s, \
         simulated figures over the first {SIM_OPS} ops",
        n,
        heap.page_count(),
        manager.budget_bytes() / PAGE_SIZE as u64,
        ops,
        wall_s
    ));
    let mut warm_note = None;
    let m = &mut out.metrics;
    if args.trace {
        let leaves = LeafTotals::of(&tree);
        let k = sums.ops.max(1) as f64;
        let probe = sums.probe_ns as f64 / k;
        let sweep = sums.sweep_ns as f64 / k;
        let scan = sums.scan_ns as f64 / k;
        m.set("core.probe_ns", probe, "ns");
        warm_note = Some(format!(
            "lookup: live probe_first {probe:.0} ns; replayed right after on warm CPU caches and \
             uncached devices {:.0} ns; sweep {sweep:.0} ns, scan {scan:.0} ns (both warm)",
            sums.warm_probe_ns as f64 / k
        ));
        m.set("core.descent_ns", probe - sweep - scan, "ns");
        m.set("core.filters_total", leaves.filters as f64, "count");
        m.set("core.leaves", leaves.leaves as f64, "count");
        m.set("core.leaf_pages_max", leaves.max_pages as f64, "count");
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
        m.set(
            "storage.pages_read_per_probe",
            per_op(pages_read as f64),
            "count",
        );
        m.set(
            "storage.false_reads_per_probe",
            per_op(false_reads as f64),
            "count",
        );
        m.set(
            "storage.useful_read_ratio",
            (pages_read - false_reads) as f64 / pages_read.max(1) as f64,
            "ratio",
        );
        m.set(
            "storage.device_reads_per_op",
            per_op((idx.device_reads() + data.device_reads()) as f64),
            "count",
        );
        m.set(
            "storage.device_writes_per_op",
            per_op((idx.writes + data.writes) as f64),
            "count",
        );
        m.set(
            "storage.fsyncs_per_op",
            per_op((idx.fsyncs + data.fsyncs) as f64),
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
            "bufferpool.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        m.set(
            "bufferpool.evictions_per_op",
            per_op(evictions as f64),
            "count",
        );
        m.set(
            "bufferpool.touch_ns",
            twin_touch_ns(&manager, &touched),
            "ns",
        );
        let rate = |i: usize| stretch_ops[i] as f64 / stretch_ns[i].max(1) as f64;
        m.set("trace.overhead_ratio", rate(0) / rate(1), "ratio");
        m.set(
            "trace.unattributed_share",
            unattributed_share(
                sums.op_ns as f64,
                &[
                    sums.probe_ns as f64 - sums.sweep_ns as f64 - sums.scan_ns as f64,
                    sums.sweep_ns as f64,
                    sums.scan_ns as f64,
                ],
            ),
            "ratio",
        );
        out.tracer = Some(tracer);
    } else {
        m.set("setup_s", setup_s, "s");
        m.set(
            "sim_us_per_op",
            per_op(idx.sim_us() + data.sim_us()),
            "sim_us",
        );
        m.set(
            "index_bytes_per_key",
            tree.size_bytes() as f64 / n as f64,
            "B",
        );
    }
    out.notes.extend(warm_note);
    if !args.trace {
        out.sliced(&mut slices, wall_ns);
    }
    out
}

/// Mean wall ns of `BufferManager::touch` when the run's data-page
/// accesses replay on a twin manager with the same budget and policy
/// (one untimed pass fills it, the second pass is timed).
pub fn twin_touch_ns(live: &BufferManager, pages: &[PageId]) -> f64 {
    if pages.is_empty() {
        return 0.0;
    }
    let twin = BufferManager::new(live.budget_bytes(), live.policy());
    let _index = twin.register_pool("index");
    let data = twin.register_pool("data");
    for &p in pages {
        twin.touch(data, p, PAGE_SIZE as u64);
    }
    let t = Instant::now();
    for &p in pages {
        std::hint::black_box(twin.touch(data, p, PAGE_SIZE as u64));
    }
    t.elapsed().as_nanos() as f64 / pages.len() as f64
}
