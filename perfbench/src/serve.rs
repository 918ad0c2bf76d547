//! `serve`: closed-loop YCSB-B Zipfian(0.99) traffic over real loopback
//! sockets. One client connection sends probes in 16-key `PROBE_BATCH`
//! frames and inserts as single `INSERT` frames to an in-process
//! `Server` over a 2-shard `ShardedIndex` with a quantile partition
//! (group commit at 32 records, memtable flush every 256 writes, one
//! 64 MB shared buffer budget that holds all of R).
//!
//! One client, because the host has two cores: while a batch is out,
//! the client and the server's connection thread wait on the two shard
//! executors, so at most two threads are runnable at once. A second
//! client would queue its requests behind the first's on the same two
//! cores, and the round trips would time that queue rather than the
//! program.
//!
//! R's PKs are the even integers; inserts are fresh odd keys scattered
//! over the whole key space. Each lands on the heap's tail page and
//! widens its BF-leaf's page range (Algorithm 3), the traffic property
//! the BF-Tree depends on most, so this workload is where it shows.
//!
//! The run is a sequence of passes. Each pass starts from a fresh
//! set-up (built, widened by [`WARMUP_INSERTS`] and warmed up) and each
//! client sends exactly [`PASS_OPS`] ops, so every pass visits the same
//! tree states whatever the speed of the code: a faster build does more
//! passes, not more widening. Passes repeat until the timed time
//! reaches `--seconds`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bftree::BfTree;
use bftree_access::{AccessMethod, DurableConfig};
use bftree_net::{Client, Request, Response, ServeState, Server};
use bftree_shard::{ShardPlan, ShardedIndex, ShardedIo};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    Backend, BufferManager, DeviceKind, Duplicates, HeapFile, IoSnapshot, PageDevice, PageId,
    PolicyKind, Relation, StorageConfig, TupleLayout,
};
use bftree_wal::{DurabilityMode, WalRecord};
use bftree_workloads::{KeyPopularity, KeySampler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::lookup::twin_touch_ns;
use crate::metrics::{unattributed_share, Samples, Slices, Windows};
use crate::trace::Tracer;
use crate::tree::{timed, timer_overhead_ns, LeafTotals, ObservedTree, PublishedTotals, TreeStats};
use crate::{repeated_setup, wal_replay, Args, Outcome, FPP, RELATION_MB, SPAN_CAP};

const SHARDS: usize = 2;
const CLIENTS: usize = 1;
/// Probes per `PROBE_BATCH` frame.
const BATCH: usize = 16;
/// YCSB-B: 5 % of ops are inserts, here exactly every 20th op of each
/// client, so the mix does not vary between runs.
const INSERT_EVERY: u64 = 20;
const THETA: f64 = 0.99;
const BUDGET_BYTES: u64 = 64 << 20;
/// Probe batches each client sends during set-up.
const WARMUP_BATCHES: usize = 64;
/// Scattered inserts applied in-process during set-up, so the timed
/// loop starts with every leaf already widened to the heap's tail and
/// measures that state rather than the climb into it.
pub const WARMUP_INSERTS: u64 = 4096;
/// Ops (probed keys plus inserts) each client sends in one pass: 76,000
/// probed keys in 4,750 full batches and 4,000 inserts.
pub const PASS_OPS: u64 = 80_000;
// A pass's probed keys fill whole batches, so no key is left unsent.
const _: () = assert!((PASS_OPS - PASS_OPS / INSERT_EVERY).is_multiple_of(BATCH as u64));
/// Every n-th probe batch is kept and answered again in-process after
/// the run; in a traced stretch, every n-th batch is replayed through
/// the dispatch, scatter and per-shard paths.
const RECHECK_EVERY: u64 = 64;
const REPLAY_EVERY: u64 = 4;
/// Length of one untraced or traced stretch of a traced run.
const STRETCH: Duration = Duration::from_millis(200);
/// Width of the slices throughput is averaged over.
const SLICE: Duration = Duration::from_secs(2);
/// Consecutive round trips of one client per latency window: the
/// fewest that leave 10 beyond the window's p99.
const WINDOW: usize = 1024;

pub const CONFIG: DurableConfig = DurableConfig {
    flush_batch: 256,
    durability: DurabilityMode::GroupCommit {
        max_records: 32,
        max_bytes: 32 * 1024,
    },
};

/// Relation R with even PKs `0, 2, 4, …`: the odd keys are left free
/// for the workload's fresh inserts.
fn sparse_relation() -> Relation {
    let n = (RELATION_MB << 20) / 256;
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for i in 0..n {
        heap.append_record(2 * i, i);
    }
    Relation::new(heap, PK_OFFSET, Duplicates::Unique).expect("conventional layout")
}

/// Every fresh insert key — the odd keys `1, 3, …, 2n - 1` — in a
/// seeded random order. Set-up takes its inserts from the back, the
/// clients take theirs from the front, interleaved.
fn insert_keys(seed: u64, n: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).map(|i| 2 * i + 1).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD_5EED);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.random_range(0..=i));
    }
    keys
}

/// Leaf totals a traced fleet's trees publish.
struct Observed {
    totals: Vec<Arc<PublishedTotals>>,
    bulk: LeafTotals,
}

impl Observed {
    fn now(&self) -> LeafTotals {
        self.totals
            .iter()
            .fold(LeafTotals::default(), |a, t| a.plus(t.load()))
    }
}

/// Everything set-up builds.
struct Stack {
    server: Server,
    clients: Vec<Client>,
    observed: Option<Observed>,
    n: u64,
    /// Fleet counters right after set-up: every device, the index
    /// devices, the data devices.
    base_io: IoSnapshot,
    base_idx: IoSnapshot,
    base_data: IoSnapshot,
    base_buf: bftree_storage::BufferStats,
    /// Set-up's inserts with their acknowledged locations.
    warm_inserts: Vec<(u64, (u64, u64))>,
    /// The fresh insert keys, in the order they are used.
    fresh: Vec<u64>,
}

/// Build one pass's fleet; with `stats`, the shards' trees are
/// instrumented and add to it.
fn setup(seed: u64, stats: Option<&Arc<TreeStats>>, overhead: u64) -> Stack {
    let rel = sparse_relation();
    let n = rel.heap().tuple_count();
    let sampler = KeySampler::new(n as usize, KeyPopularity::Zipfian { theta: THETA });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A27);
    // Quantile partition over a sample of the workload's own keys.
    let mut sample: Vec<u64> = (0..4096)
        .map(|_| 2 * sampler.sample(&mut rng) as u64)
        .collect();
    sample.extend((0..216).map(|_| 2 * rng.random_range(0..n) + 1));
    sample.sort_unstable();
    let plan = ShardPlan::from_sample(&sample, SHARDS);

    let totals: Vec<Arc<PublishedTotals>> = (0..SHARDS).map(|_| Arc::default()).collect();
    let mut index = ShardedIndex::new(
        plan,
        &rel,
        CONFIG,
        |s| {
            let tree = BfTree::builder()
                .fpp(FPP)
                .empty(&rel)
                .expect("valid BF-Tree configuration");
            match stats {
                Some(stats) => Box::new(ObservedTree::new(
                    tree,
                    overhead,
                    Arc::clone(stats),
                    Arc::clone(&totals[s]),
                )),
                None => Box::new(tree),
            }
        },
        |_| PageDevice::cold(DeviceKind::Ssd),
    );
    index.build(&rel).expect("sharded build");
    let observed = stats.map(|_| {
        let mut o = Observed {
            totals,
            bulk: LeafTotals::default(),
        };
        o.bulk = o.now();
        o
    });
    let fleet = ShardedIo::new(
        &Backend::Sim,
        StorageConfig::SsdSsd,
        BUDGET_BYTES,
        PolicyKind::Lru,
        SHARDS,
    )
    .expect("simulated devices");
    let state = ServeState::new(index, rel, fleet.into_ios());
    let fresh = insert_keys(seed, n);
    let mut warm_inserts = Vec::with_capacity(WARMUP_INSERTS as usize);
    for &key in fresh.iter().rev().take(WARMUP_INSERTS as usize) {
        match state.handle(Request::Insert { key, attr: key / 2 }) {
            Response::Insert { page, slot } => warm_inserts.push((key, (page, slot))),
            other => panic!("set-up insert of key {key} refused: {other:?}"),
        }
    }
    let server = Server::spawn(state).expect("server up");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("client connects"))
        .collect();
    for client in &mut clients {
        for _ in 0..WARMUP_BATCHES {
            let keys: Vec<u64> = (0..BATCH)
                .map(|_| 2 * sampler.sample(&mut rng) as u64)
                .collect();
            client.probe_batch(&keys).expect("warm-up batch");
        }
    }
    let state = server.state();
    let base_io = fleet_io(state);
    let (base_idx, base_data) = fleet_split(state);
    let base_buf = state.ios[0].buffer_stats().unwrap_or_default();
    Stack {
        server,
        clients,
        observed,
        n,
        base_io,
        base_idx,
        base_data,
        base_buf,
        warm_inserts,
        fresh,
    }
}

/// Merged counters of every shard's index and data device.
fn fleet_io(state: &ServeState) -> IoSnapshot {
    state
        .ios
        .iter()
        .fold(IoSnapshot::default(), |a, io| a.plus(&io.snapshot_total()))
}

/// Merged counters of every shard's index devices and of its data
/// devices.
fn fleet_split(state: &ServeState) -> (IoSnapshot, IoSnapshot) {
    state.ios.iter().fold(
        (IoSnapshot::default(), IoSnapshot::default()),
        |(i, d), io| (i.plus(&io.index.snapshot()), d.plus(&io.data.snapshot())),
    )
}

/// Merged counters of every shard's log device.
fn fleet_log(state: &ServeState) -> IoSnapshot {
    (0..SHARDS).fold(IoSnapshot::default(), |a, s| {
        a.plus(&state.index.with_shard(s, |st| st.wal().device().snapshot()))
    })
}

/// What one client thread brings back.
struct ClientRun {
    slices: Slices,
    /// The client's probe-batch round trips, carried across passes.
    reads: Windows,
    writes: Samples,
    /// Ops (probed keys plus inserts) sent untraced / traced.
    ops: [u64; 2],
    failed: u64,
    net_errors: u64,
    wrong: u64,
    inserted: Vec<(u64, (u64, u64))>,
    recheck: Vec<(Vec<u64>, Answers)>,
    layers: Layers,
    tracer: Tracer,
}

/// Per-key `(page, slot)` matches of one `PROBE_BATCH` reply.
type Answers = Vec<Vec<(u64, u64)>>;

/// A traced probe batch kept for the replay after its stretch.
struct Recorded {
    req: u64,
    keys: Vec<u64>,
    probes: Answers,
    rtt_ns: u64,
    /// When its round trip ended, in timed ns since the run began.
    end_ns: u64,
}

/// Sums over the replayed probe batches of traced stretches.
#[derive(Default, Clone, Copy)]
struct Layers {
    batches: u64,
    rtt_ns: u64,
    dispatch_ns: u64,
    scatter_ns: u64,
    slowest_shard_ns: u64,
    codec_ns: u64,
    codec_msgs: u64,
    wire_bytes: u64,
    wire_ops: u64,
    fanout: u64,
    fanout_batches: u64,
    /// Every traced op's client time (probe batches and inserts).
    traced_ns: u64,
    traced_probe_batches: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.batches += o.batches;
        self.rtt_ns += o.rtt_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.scatter_ns += o.scatter_ns;
        self.slowest_shard_ns += o.slowest_shard_ns;
        self.codec_ns += o.codec_ns;
        self.codec_msgs += o.codec_msgs;
        self.wire_bytes += o.wire_bytes;
        self.wire_ops += o.wire_ops;
        self.fanout += o.fanout;
        self.fanout_batches += o.fanout_batches;
        self.traced_ns += o.traced_ns;
        self.traced_probe_batches += o.traced_probe_batches;
    }
}

/// Shared, read-only inputs of one pass's client threads.
struct Shared<'a> {
    state: &'a ServeState,
    sampler: &'a KeySampler,
    fresh: &'a [u64],
    seed: u64,
    /// The pass's number, its start, and the timed ns of earlier passes.
    pass: u64,
    start: Instant,
    offset_ns: u64,
    traced: &'a AtomicBool,
    /// Set while the coordinator replays; clients park between requests.
    pause: &'a AtomicBool,
    /// Clients parked or finished, and clients finished.
    parked: &'a AtomicUsize,
    finished: &'a AtomicUsize,
    /// Traced batches waiting for their replay.
    pending: &'a Mutex<Vec<Recorded>>,
}

impl Shared<'_> {
    /// Timed ns since the run began, at `t`.
    fn at(&self, t: Instant) -> u64 {
        self.offset_ns + t.duration_since(self.start).as_nanos() as u64
    }
}

/// The answer R holds for even key `key`: tuple `key / 2`, in heap
/// order at 16 tuples per page.
fn expected(key: u64) -> (u64, u64) {
    let i = key / 2;
    let per_page = (bftree_storage::PAGE_SIZE / 256) as u64;
    (i / per_page, i % per_page)
}

fn run_client(c: usize, mut client: Client, reads: Windows, sh: &Shared<'_>) -> ClientRun {
    let mut run = ClientRun {
        slices: Slices::new(SLICE),
        reads,
        writes: Samples::with_capacity(PASS_OPS as usize / INSERT_EVERY as usize),
        ops: [0; 2],
        failed: 0,
        net_errors: 0,
        wrong: 0,
        inserted: Vec::new(),
        recheck: Vec::new(),
        layers: Layers::default(),
        tracer: Tracer::new(SPAN_CAP / CLIENTS),
    };
    let mut rng = StdRng::seed_from_u64(sh.seed ^ (0xC11E27 + c as u64));
    let mut next_insert = c;
    // Keys at the back of `fresh` went in during set-up.
    let usable = sh.fresh.len() - WARMUP_INSERTS as usize;
    let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
    let mut batches = 0u64;
    let mut req_id = ((c as u64) << 48) | (sh.pass << 32);
    let mut op_index = 0u64;
    while op_index < PASS_OPS {
        if sh.pause.load(Ordering::Acquire) {
            sh.parked.fetch_add(1, Ordering::AcqRel);
            while sh.pause.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(50));
            }
            sh.parked.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        op_index += 1;
        if !op_index.is_multiple_of(INSERT_EVERY) || next_insert >= usable {
            batch.push(2 * sh.sampler.sample(&mut rng) as u64);
            if batch.len() < BATCH {
                continue;
            }
            let traced = sh.traced.load(Ordering::Relaxed);
            let keys = batch.len() as u64;
            run.ops[usize::from(traced)] += keys;
            req_id += 1;
            batches += 1;
            let t0 = Instant::now();
            let reply = client.probe_batch(&batch);
            let rtt = t0.elapsed().as_nanos() as u64;
            let (at, end) = (sh.at(t0), sh.at(t0) + rtt);
            match reply {
                Ok(probes) => {
                    run.slices.ops(end, keys);
                    run.reads.push(rtt);
                    for (key, got) in batch.iter().zip(&probes) {
                        let want = expected(*key);
                        if got.len() != 1 || got[0] != want {
                            run.wrong += 1;
                        }
                    }
                    if traced {
                        run.layers.traced_ns += rtt;
                        run.layers.traced_probe_batches += 1;
                        run.tracer
                            .record(req_id, "client.probe_batch", None, at, rtt);
                        let mut shards: Vec<usize> = batch
                            .iter()
                            .map(|&k| sh.state.index.plan().shard_of(k))
                            .collect();
                        shards.sort_unstable();
                        shards.dedup();
                        run.layers.fanout += shards.len() as u64;
                        run.layers.fanout_batches += 1;
                        if batches.is_multiple_of(REPLAY_EVERY) {
                            let mut pending = sh.pending.lock().unwrap_or_else(|e| e.into_inner());
                            pending.push(Recorded {
                                req: req_id,
                                keys: batch.clone(),
                                probes: probes.clone(),
                                rtt_ns: rtt,
                                end_ns: end,
                            });
                        }
                    }
                    if batches.is_multiple_of(RECHECK_EVERY) {
                        run.recheck.push((batch.clone(), probes));
                    }
                }
                // Nothing injects faults and every key exists, so a
                // refused batch is wrong as well as failed.
                Err(_) => {
                    run.failed += keys;
                    run.wrong += keys;
                    run.net_errors += 1;
                }
            }
            batch.clear();
        } else {
            let key = sh.fresh[next_insert];
            next_insert += CLIENTS;
            let traced = sh.traced.load(Ordering::Relaxed);
            run.ops[usize::from(traced)] += 1;
            let t0 = Instant::now();
            let reply = client.insert(key, key / 2);
            let rtt = t0.elapsed().as_nanos() as u64;
            match reply {
                Ok(loc) => {
                    run.slices.ops(sh.at(t0) + rtt, 1);
                    run.writes.push(rtt);
                    run.inserted.push((key, loc));
                    if traced {
                        run.layers.traced_ns += rtt;
                        req_id += 1;
                        run.tracer
                            .record(req_id, "client.insert", None, sh.at(t0), rtt);
                    }
                }
                Err(_) => {
                    run.failed += 1;
                    run.wrong += 1;
                    run.net_errors += 1;
                }
            }
        }
    }
    sh.finished.fetch_add(1, Ordering::AcqRel);
    sh.parked.fetch_add(1, Ordering::AcqRel);
    run
}

/// Replay one recorded probe batch below the wire, with the clients
/// parked and one batch at a time: through `ServeState::handle` (dispatch),
/// `probe_batch_sharded` (scatter), and each shard's own probe of its
/// key group via `with_shard`; time the codec on the same messages.
/// Returns whether the in-process answers matched the wire's.
fn replay_batch(
    rec: &Recorded,
    state: &ServeState,
    o: u64,
    l: &mut Layers,
    tracer: &mut Tracer,
) -> bool {
    let request = Request::ProbeBatch {
        keys: rec.keys.clone(),
    };
    let (resp, dispatch_ns) = timed(o, || state.handle(request.clone()));
    let mut ok = matches!(&resp, Response::ProbeBatch { probes } if probes == &rec.probes);
    let rel = state.rel.read().unwrap_or_else(|e| e.into_inner());
    let (r, scatter_ns) = timed(o, || {
        state.index.probe_batch_sharded(&rec.keys, &rel, &state.ios)
    });
    ok &= r.is_ok();
    let mut slowest = 0u64;
    for s in 0..SHARDS {
        let group: Vec<u64> = rec
            .keys
            .iter()
            .copied()
            .filter(|&k| state.index.plan().shard_of(k) == s)
            .collect();
        if group.is_empty() {
            continue;
        }
        let (_, ns) = timed(o, || {
            state.index.with_shard(s, |st| {
                for &k in &group {
                    let _ = st.probe(k, &rel, &state.ios[s]);
                }
            })
        });
        slowest = slowest.max(ns);
    }
    drop(rel);
    let (bytes, codec_ns) = timed(o, || {
        let req_bytes = request.encode();
        let resp_bytes = resp.encode();
        let _ = std::hint::black_box(Request::decode(&req_bytes));
        let _ = std::hint::black_box(Response::decode(&resp_bytes));
        req_bytes.len() + resp_bytes.len() + 8
    });
    l.batches += 1;
    l.rtt_ns += rec.rtt_ns;
    l.dispatch_ns += dispatch_ns;
    l.scatter_ns += scatter_ns;
    l.slowest_shard_ns += slowest;
    l.codec_ns += codec_ns;
    l.codec_msgs += 1;
    l.wire_bytes += bytes as u64;
    l.wire_ops += rec.keys.len() as u64;
    // The replay's spans hang off the live round trip they explain.
    let after = rec.end_ns;
    let parent = Some("client.probe_batch");
    tracer.record(rec.req, "shard.dispatch", parent, after, dispatch_ns);
    tracer.record(
        rec.req,
        "shard.scatter",
        Some("shard.dispatch"),
        after,
        scatter_ns,
    );
    tracer.record(
        rec.req,
        "shard.slowest_shard",
        Some("shard.scatter"),
        after,
        slowest,
    );
    tracer.record(rec.req, "net.codec", parent, after, codec_ns);
    ok
}

/// Replay `recs` for the traced run into `acc`: time each batch's
/// layers with the trees uninstrumented, then probe its keys once more
/// with every tree probe measured into `stats`.
fn replay(recs: Vec<Recorded>, state: &ServeState, stats: &TreeStats, acc: &mut Acc) {
    for rec in &recs {
        if !replay_batch(rec, state, acc.overhead, &mut acc.layers, &mut acc.tracer) {
            acc.wrong += 1;
        }
        if acc.touched.len() < 1 << 20 {
            acc.touched
                .extend(rec.probes.iter().flatten().map(|&(pid, _)| pid));
        }
    }
    stats.on.store(true, Ordering::Relaxed);
    let rel = state.rel.read().unwrap_or_else(|e| e.into_inner());
    for &k in recs.iter().flat_map(|r| &r.keys) {
        let s = state.index.plan().shard_of(k);
        let _ = state
            .index
            .with_shard(s, |st| st.probe(k, &rel, &state.ios[s]));
    }
    stats.on.store(false, Ordering::Relaxed);
}

/// Sums over the passes of a run.
struct Acc {
    overhead: u64,
    passes: u64,
    timed_ns: u64,
    slices: Slices,
    /// Each client's probe-batch round trips.
    reads: Vec<Windows>,
    writes: Samples,
    layers: Layers,
    tracer: Tracer,
    /// Ops sent untraced / traced, and wall ns of untraced / traced
    /// stretches.
    ops: [u64; 2],
    stretch_ns: [u64; 2],
    failed: u64,
    wrong: u64,
    net_errors: u64,
    timed_inserts: u64,
    /// Acknowledged inserts, set-up's included.
    acked_inserts: u64,
    sim_ns: u64,
    shard_sim: [u64; SHARDS],
    /// Device counter deltas over the timed ops: every device, index,
    /// data, log.
    io: IoSnapshot,
    idx: IoSnapshot,
    data: IoSnapshot,
    log: IoSnapshot,
    hits: u64,
    misses: u64,
    evictions: u64,
    flushes: u64,
    wal_bytes: u64,
    wal_records: u64,
    wal_syncs: u64,
    memtable_max: u64,
    touched: Vec<PageId>,
    /// The last pass's buffer manager, log records, tree shape and index size per live
    /// key (every pass ends in the same state).
    manager: Option<Arc<BufferManager>>,
    records: Vec<WalRecord>,
    bulk: LeafTotals,
    end: LeafTotals,
    index_bytes_per_key: f64,
}

/// Run one pass on `stack`, adding what it measures to `acc`.
fn run_pass(args: &Args, stack: Stack, stats: &TreeStats, acc: &mut Acc) {
    let Stack {
        mut server,
        clients,
        observed,
        n,
        base_io,
        base_idx,
        base_data,
        base_buf,
        warm_inserts,
        fresh,
    } = stack;
    let state: Arc<ServeState> = Arc::clone(server.state());
    let base_log = fleet_log(&state);
    let sampler = KeySampler::new(n as usize, KeyPopularity::Zipfian { theta: THETA });
    let traced = AtomicBool::new(false);
    let pause = AtomicBool::new(false);
    let parked = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let pending = Mutex::new(Vec::new());
    state.index.reset_shard_clocks();
    let start = Instant::now();
    let shared = Shared {
        state: &state,
        sampler: &sampler,
        fresh: &fresh,
        seed: args.seed,
        pass: acc.passes,
        start,
        offset_ns: acc.timed_ns,
        traced: &traced,
        pause: &pause,
        parked: &parked,
        finished: &finished,
        pending: &pending,
    };
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                let reads = std::mem::replace(&mut acc.reads[c], Windows::new(WINDOW));
                s.spawn(move || run_client(c, client, reads, shared))
            })
            .collect();
        if args.trace {
            // Alternate untraced and traced stretches until the clients
            // finish, sampling the memtables' size on the way. After
            // each traced stretch the clients park while its batches
            // are replayed, so the replays meet the fleet as the traffic
            // left it and do not compete with it for the two cores.
            let mut on = false;
            while finished.load(Ordering::Acquire) < CLIENTS {
                let t = Instant::now();
                while t.elapsed() < STRETCH && finished.load(Ordering::Acquire) < CLIENTS {
                    std::thread::sleep(Duration::from_millis(10));
                    let bytes: u64 = (0..SHARDS)
                        .map(|s| state.index.with_shard(s, |st| st.memtable_bytes()))
                        .sum();
                    acc.memtable_max = acc.memtable_max.max(bytes);
                }
                acc.stretch_ns[usize::from(on)] += t.elapsed().as_nanos() as u64;
                if on {
                    traced.store(false, Ordering::Relaxed);
                    pause.store(true, Ordering::Release);
                    while parked.load(Ordering::Acquire) < CLIENTS {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    let recs =
                        std::mem::take(&mut *pending.lock().unwrap_or_else(|e| e.into_inner()));
                    replay(recs, &state, stats, acc);
                    pause.store(false, Ordering::Release);
                }
                on = !on;
                traced.store(on, Ordering::Relaxed);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    acc.timed_ns += start.elapsed().as_nanos() as u64;
    acc.sim_ns += state.index.total_sim_ns();
    for (s, t) in acc.shard_sim.iter_mut().enumerate() {
        *t += state.index.shard_sim_ns(s);
    }
    acc.io = acc.io.plus(&fleet_io(&state).since(&base_io));
    let (idx, data) = fleet_split(&state);
    acc.idx = acc.idx.plus(&idx.since(&base_idx));
    acc.data = acc.data.plus(&data.since(&base_data));
    acc.log = acc.log.plus(&fleet_log(&state).since(&base_log));
    let buf = state.ios[0].buffer_stats().unwrap_or_default();
    acc.hits += buf.hits - base_buf.hits;
    acc.misses += buf.misses - base_buf.misses;
    acc.evictions += buf.evictions - base_buf.evictions;

    // Merge the clients.
    let mut inserted = Vec::new();
    let mut recheck = Vec::new();
    for (c, mut r) in runs.into_iter().enumerate() {
        acc.slices.merge(&r.slices);
        acc.reads[c] = r.reads;
        acc.writes.extend(&r.writes);
        acc.layers.add(&r.layers);
        acc.ops[0] += r.ops[0];
        acc.ops[1] += r.ops[1];
        acc.failed += r.failed;
        acc.wrong += r.wrong;
        acc.net_errors += r.net_errors;
        inserted.append(&mut r.inserted);
        recheck.append(&mut r.recheck);
        acc.tracer.absorb(r.tracer);
    }
    acc.timed_inserts += inserted.len() as u64;
    inserted.extend_from_slice(&warm_inserts);
    acc.acked_inserts += inserted.len() as u64;

    // Untimed gate: every acknowledged insert reads back at its
    // acknowledged location, and kept batches answer the same
    // in-process through `ServeState::handle`.
    let mut verify = Client::connect(server.addr()).expect("verify client");
    for chunk in inserted.chunks(BATCH) {
        let keys: Vec<u64> = chunk.iter().map(|&(k, _)| k).collect();
        match verify.probe_batch(&keys) {
            Ok(got) => {
                for (&(_, loc), g) in chunk.iter().zip(&got) {
                    if g != &vec![loc] {
                        acc.wrong += 1;
                    }
                }
            }
            Err(_) => acc.wrong += chunk.len() as u64,
        }
    }
    for (keys, probes) in &recheck {
        match state.handle(Request::ProbeBatch { keys: keys.clone() }) {
            Response::ProbeBatch { probes: p } if &p == probes => {}
            _ => acc.wrong += 1,
        }
    }
    drop(verify);

    acc.index_bytes_per_key =
        AccessMethod::size_bytes(&state.index) as f64 / (n + inserted.len() as u64) as f64;
    for s in 0..SHARDS {
        state.index.with_shard(s, |st| {
            let w = st.wal();
            acc.flushes += st.flush_count();
            acc.wal_bytes += w.len() as u64;
            acc.wal_records += w.record_count();
            acc.wal_syncs += w.sync_count();
        });
    }
    if let Some(o) = &observed {
        // Batches of a traced stretch the pass's end cut short replay now.
        let recs = std::mem::take(&mut *pending.lock().unwrap_or_else(|e| e.into_inner()));
        replay(recs, &state, stats, acc);
        if acc.passes == 0 {
            acc.bulk = o.bulk;
        }
        acc.end = o.now();
        acc.manager = state.ios[0].buffer_manager().cloned();
        acc.records = inserted
            .iter()
            .map(|&(key, (page, slot))| WalRecord::Insert { key, page, slot })
            .collect();
    }
    acc.passes += 1;
    server.shutdown();
}

pub fn run(args: &Args) -> Outcome {
    let overhead = timer_overhead_ns();
    let stats = Arc::new(TreeStats::default());
    let observe = args.trace.then_some(&stats);
    let (first, setup_s) = repeated_setup(|| setup(args.seed, observe, overhead));
    let n = first.n;
    let mut acc = Acc {
        overhead,
        passes: 0,
        timed_ns: 0,
        slices: Slices::new(SLICE),
        reads: (0..CLIENTS).map(|_| Windows::new(WINDOW)).collect(),
        writes: Samples::default(),
        layers: Layers::default(),
        tracer: Tracer::new(SPAN_CAP),
        ops: [0; 2],
        stretch_ns: [0; 2],
        failed: 0,
        wrong: 0,
        net_errors: 0,
        timed_inserts: 0,
        acked_inserts: 0,
        sim_ns: 0,
        shard_sim: [0; SHARDS],
        io: IoSnapshot::default(),
        idx: IoSnapshot::default(),
        data: IoSnapshot::default(),
        log: IoSnapshot::default(),
        hits: 0,
        misses: 0,
        evictions: 0,
        flushes: 0,
        wal_bytes: 0,
        wal_records: 0,
        wal_syncs: 0,
        memtable_max: 0,
        touched: Vec::new(),
        manager: None,
        records: Vec::new(),
        bulk: LeafTotals::default(),
        end: LeafTotals::default(),
        index_bytes_per_key: 0.0,
    };
    // Each pass drops its fleet before the next one is built.
    let window = args.window().as_nanos() as u64;
    let mut next = Some(first);
    while acc.timed_ns < window {
        let stack = next
            .take()
            .unwrap_or_else(|| setup(args.seed, observe, overhead));
        run_pass(args, stack, &stats, &mut acc);
    }
    let total_ops = acc.ops[0] + acc.ops[1];

    let mut out = Outcome {
        attempted: total_ops,
        failed: acc.failed,
        wrong: acc.wrong,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "serve: R = {n} tuples (even PKs), {SHARDS} shards, {CLIENTS} clients, {} passes of \
         {PASS_OPS} ops per client after {WARMUP_INSERTS} inserts in set-up, {total_ops} ops ({} \
         inserts) timed over {:.3} s",
        acc.passes,
        acc.timed_inserts,
        acc.timed_ns as f64 / 1e9,
    ));
    let per_op = |v: f64| v / total_ops.max(1) as f64;
    let m = &mut out.metrics;
    if args.trace {
        let r = Ordering::Relaxed;
        let st = &stats;
        let probes = st.probes.load(r).max(1) as f64;
        let probe = st.probe_ns.load(r) as f64 / probes;
        let sweep = st.sweep_ns.load(r) as f64 / probes;
        let scan = st.scan_ns.load(r) as f64 / probes;
        let (bulk, end) = (acc.bulk, acc.end);
        out.notes.push(format!(
            "serve: filters {} after the sharded build, {} at the end of a pass ({} leaves -> {}, \
             widest leaf {} pages)",
            bulk.filters, end.filters, bulk.leaves, end.leaves, end.max_pages
        ));
        m.set("core.probe_ns", probe, "ns");
        m.set("core.descent_ns", probe - sweep - scan, "ns");
        m.set("core.filters_total", end.filters as f64, "count");
        m.set("core.leaves", end.leaves as f64, "count");
        m.set("core.leaf_pages_max", end.max_pages as f64, "count");
        m.set("bloom.sweep_ns", sweep, "ns");
        m.set(
            "bloom.filters_per_probe",
            st.filters.load(r) as f64 / probes,
            "count",
        );
        m.set(
            "bloom.candidates_per_probe",
            st.candidates.load(r) as f64 / probes,
            "count",
        );
        m.set(
            "storage.scan_ns_per_page",
            st.scan_ns.load(r) as f64 / st.pages_scanned.load(r).max(1) as f64,
            "ns",
        );
        let (pr, fr) = (st.pages_read.load(r), st.false_reads.load(r));
        m.set("storage.pages_read_per_probe", pr as f64 / probes, "count");
        m.set("storage.false_reads_per_probe", fr as f64 / probes, "count");
        m.set(
            "storage.useful_read_ratio",
            (pr - fr.min(pr)) as f64 / pr.max(1) as f64,
            "ratio",
        );
        m.set(
            "storage.device_reads_per_op",
            per_op(acc.io.device_reads() as f64),
            "count",
        );
        m.set(
            "storage.device_writes_per_op",
            per_op((acc.io.writes + acc.log.writes) as f64),
            "count",
        );
        m.set(
            "storage.fsyncs_per_op",
            per_op((acc.io.fsyncs + acc.log.fsyncs) as f64),
            "count",
        );
        m.set(
            "storage.index_sim_us_per_op",
            per_op(acc.idx.sim_us()),
            "sim_us",
        );
        m.set(
            "storage.data_sim_us_per_op",
            per_op(acc.data.sim_us()),
            "sim_us",
        );
        m.set(
            "bufferpool.hit_ratio",
            acc.hits as f64 / (acc.hits + acc.misses).max(1) as f64,
            "ratio",
        );
        m.set(
            "bufferpool.evictions_per_op",
            per_op(acc.evictions as f64),
            "count",
        );
        let manager = acc.manager.as_ref().expect("a traced pass ran");
        m.set(
            "bufferpool.touch_ns",
            twin_touch_ns(manager, &acc.touched),
            "ns",
        );
        m.set("access.flushes", acc.flushes as f64, "count");
        m.set("access.memtable_bytes_max", acc.memtable_max as f64, "B");
        m.set(
            "wal.bytes_per_write",
            acc.wal_bytes as f64 / acc.acked_inserts.max(1) as f64,
            "B",
        );
        m.set(
            "wal.records_per_sync",
            acc.wal_records as f64 / acc.wal_syncs.max(1) as f64,
            "count",
        );
        let (append_ns, sync_ns) = wal_replay(&acc.records, 32, n);
        m.set("wal.append_ns", append_ns, "ns");
        m.set("wal.sync_ns", sync_ns, "ns");
        let l = &acc.layers;
        let b = l.batches.max(1) as f64;
        let (rtt, dispatch, scatter, slowest) = (
            l.rtt_ns as f64 / b,
            l.dispatch_ns as f64 / b,
            l.scatter_ns as f64 / b,
            l.slowest_shard_ns as f64 / b,
        );
        m.set("shard.dispatch_ns", dispatch, "ns");
        m.set("shard.scatter_ns", scatter, "ns");
        m.set("shard.executor_overhead_ns", scatter - slowest, "ns");
        m.set(
            "shard.fanout",
            l.fanout as f64 / l.fanout_batches.max(1) as f64,
            "count",
        );
        let mean = acc.shard_sim.iter().sum::<u64>() as f64 / SHARDS as f64;
        let max = *acc.shard_sim.iter().max().unwrap_or(&0) as f64;
        m.set(
            "shard.imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
            "ratio",
        );
        m.set("net.wire_ns", rtt - dispatch, "ns");
        m.set(
            "net.codec_ns",
            l.codec_ns as f64 / l.codec_msgs.max(1) as f64,
            "ns",
        );
        m.set(
            "net.bytes_per_op",
            l.wire_bytes as f64 / l.wire_ops.max(1) as f64,
            "B",
        );
        m.set("net.errors", acc.net_errors as f64, "count");
        let rate = |i: usize| acc.ops[i] as f64 / acc.stretch_ns[i].max(1) as f64;
        m.set("trace.overhead_ratio", rate(0) / rate(1), "ratio");
        // Probe round trips split into wire, dispatch, scatter and the
        // slowest shard's own probes; INSERT round trips stay
        // unattributed.
        let per_batch = [
            rtt - dispatch,
            dispatch - scatter,
            scatter - slowest,
            slowest,
        ];
        let scale = l.traced_probe_batches as f64;
        let attributed: Vec<f64> = per_batch.iter().map(|v| v * scale).collect();
        m.set(
            "trace.unattributed_share",
            unattributed_share(l.traced_ns as f64, &attributed),
            "ratio",
        );
        out.notes.push(format!(
            "serve: probe round trip {rtt:.0} ns = wire {:.0} + dispatch {:.0} (scatter {scatter:.0}, \
             slowest shard {slowest:.0}); per key: tree probe {probe:.0} ns, sweep {sweep:.0} ns over {:.0} filters",
            rtt - dispatch,
            dispatch,
            st.filters.load(r) as f64 / probes,
        ));
        out.tracer = Some(acc.tracer);
    } else {
        m.set("setup_s", setup_s, "s");
        m.set("sim_us_per_op", per_op(acc.sim_ns as f64 / 1e3), "sim_us");
        m.set("index_bytes_per_key", acc.index_bytes_per_key, "B");
        out.throughput(&mut acc.slices, acc.timed_ns);
        let mut reads = Windows::new(WINDOW);
        for r in &acc.reads {
            reads.absorb(r);
        }
        out.windowed(&reads);
        out.latency("write_p50_us", &mut acc.writes, 0.50);
        out.latency("write_p99_us", &mut acc.writes, 0.99);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keys_are_every_odd_key_once() {
        let n = 1000;
        let keys = insert_keys(7, n);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).map(|i| 2 * i + 1).collect::<Vec<_>>());
        assert_ne!(keys, sorted, "the order is shuffled");
        assert_eq!(keys, insert_keys(7, n), "the order repeats for a seed");
    }
}
