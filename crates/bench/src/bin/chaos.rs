//! Chaos experiment: the write-heavy mix under seeded fault injection,
//! sweeping fault rate × retry policy × index.
//!
//! Not a paper figure — this drives PR 9's self-healing storage plane
//! end to end. Every cell runs the YCSB-style write-heavy mix (50 %
//! probes, 40 % inserts, 10 % deletes) through a `DurableIndex` on
//! *file-backed* SSD/SSD devices plus an SSD log, with a deterministic
//! seeded [`FaultInjector`] attached to all three page stores:
//! transient I/O errors, bit rot, torn writes, short reads, and fsync
//! failures, at the cell's rate. The cell's [`RetryPolicy`] is the
//! only defense the hot path gets; everything the retries cannot
//! absorb must flow through quarantine → repair → scrub and still
//! come out exact:
//!
//! * probes go through `probe_degraded`, so an answer that lost pages
//!   to quarantine is *labelled* partial instead of silently wrong —
//!   availability is the fraction of probes with authoritative
//!   answers;
//! * every `REPAIR_EVERY` ops the harness runs
//!   `DurableIndex::repair_quarantined` (WAL-image repair for log
//!   pages, re-stamping for index/data pages) plus a synchronous
//!   scrub pass over each store;
//! * at the end of the cell, injection is disabled, a final
//!   repair + scrub loop must leave every quarantine empty and every
//!   scrub pass clean, and the index must answer **bit-exactly**
//!   against an in-memory oracle: zero lost acknowledged writes, zero
//!   wrong answers. A cell that cannot is a panic, not a footnote.
//!
//! Writes `BENCH_chaos.json` (uploaded as a CI artifact) with per-cell
//! availability, fault/retry/quarantine/repair/scrub counters, p99
//! latency, and the p99 inflation of each faulty cell over its
//! fault-free baseline.
//!
//! Flags: `--smoke` (BF-Tree only, two faulty cells, capped ops — the
//! CI configuration). Storage flags are shared with every other
//! experiment binary, except that chaos always forces
//! `--storage=file`: faults are injected at the file-store layer, so
//! there is nothing to chaos-test on the simulator.
//!
//! Environment knobs: `BFTREE_SCALE_MB` (relation size, default 64),
//! `BFTREE_PROBES` (ops = ×10, default 1000 → 10 000 ops).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use bftree::BfTree;
use bftree_access::{DurableConfig, DurableIndex};
use bftree_bench::scale::{n_probes, relation_mb};
use bftree_bench::{
    build_index, fmt_f, relation_r_pk, AccessMethod, IndexKind, IoContext, JsonObject, Relation,
    Report, StorageArgs, StorageConfig,
};
use bftree_shard::{ShardPlan, ShardedIndex, ShardedIo};
use bftree_storage::{
    DeviceKind, FaultConfig, FaultInjector, FaultSnapshot, FileStore, PolicyKind, RetryPolicy,
    Scrubber,
};
use bftree_wal::DurabilityMode;
use bftree_workloads::{mixed_stream, KeyPopularity, Op, OpMix};

/// Fault probabilities per charged operation, from "calm" to "angry".
const FAULT_RATES: [f64; 2] = [1e-4, 1e-3];
/// Ops between repair + scrub sweeps.
const REPAIR_EVERY: usize = 512;
/// Op cap in `--smoke` mode (CI wants signal, not soak).
const SMOKE_OPS: usize = 2000;

fn retry_policies() -> [RetryPolicy; 3] {
    [
        RetryPolicy::none(),
        RetryPolicy::fixed(4, 50_000),
        RetryPolicy::exponential(),
    ]
}

struct Cell {
    index: &'static str,
    fault_rate: f64,
    policy: String,
    ops: usize,
    acked_writes: u64,
    lost_acked_writes: u64,
    wrong_answers: u64,
    probes: u64,
    degraded_probes: u64,
    injected_faults: u64,
    repairs: u64,
    wal_records_replayed: u64,
    faults: FaultSnapshot,
    p99_us: f64,
    wall_seconds: f64,
}

impl Cell {
    /// Fraction of probes whose answer was authoritative.
    fn availability(&self) -> f64 {
        if self.probes == 0 {
            return 1.0;
        }
        (self.probes - self.degraded_probes) as f64 / self.probes as f64
    }
}

fn add_snapshots(a: &mut FaultSnapshot, b: &FaultSnapshot) {
    a.transient_errors += b.transient_errors;
    a.permanent_errors += b.permanent_errors;
    a.retries += b.retries;
    a.retry_successes += b.retry_successes;
    a.retries_exhausted += b.retries_exhausted;
    a.backoff_ns += b.backoff_ns;
    a.quarantined += b.quarantined;
    a.repaired += b.repaired;
    a.scrub_passes += b.scrub_passes;
    a.scrub_pages += b.scrub_pages;
    a.scrub_corruptions += b.scrub_corruptions;
}

fn p99_us(latencies_ns: &mut [u64]) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    latencies_ns.sort_unstable();
    let idx = ((latencies_ns.len() as f64 * 0.99) as usize).min(latencies_ns.len() - 1);
    latencies_ns[idx] as f64 / 1e3
}

/// One cell: fresh devices, injectors seeded from the cell id on all
/// three stores, the shared op stream, periodic repair + scrub, then
/// the exactness reckoning against the oracle.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    kind: IndexKind,
    fault_rate: f64,
    policy: RetryPolicy,
    cell_id: u64,
    base: &Relation,
    ops: &[Op],
    storage: &StorageArgs,
    registry: &mut bftree_obs::MetricsRegistry,
) -> Cell {
    let mut rel = base.clone();
    let inner = build_index(kind, &rel, 1e-4);
    let mut index = DurableIndex::new(
        inner,
        &rel,
        storage.log_device(DeviceKind::Ssd),
        DurableConfig {
            flush_batch: 256,
            durability: DurabilityMode::GroupCommit {
                max_records: 64,
                max_bytes: 16 * 1024,
            },
        },
    );
    let io = storage.io_cold(StorageConfig::SsdSsd);

    // Arm every file-backed store in the cell: same rate, distinct
    // deterministic seeds, the cell's retry policy.
    let stores: Vec<Arc<FileStore>> = [&io.index, &io.data, index.wal().device()]
        .iter()
        .filter_map(|d| d.store().map(Arc::clone))
        .collect();
    assert_eq!(stores.len(), 3, "chaos requires the file backend");
    let injectors: Vec<Arc<FaultInjector>> = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(
                fault_rate,
                0xC4A0_5000 + cell_id * 16 + i as u64,
            )));
            store.set_fault_injector(Arc::clone(&injector));
            store.set_retry_policy(policy);
            injector
        })
        .collect();
    let scrubbers: Vec<Scrubber> = stores
        .iter()
        .map(|s| Scrubber::new(Arc::clone(s)))
        .collect();

    // In-memory oracle: the authoritative live-key set.
    let mut oracle: HashSet<u64> = (0..base.heap().tuple_count()).collect();
    let mut acked_writes = 0u64;
    let mut wrong_answers = 0u64;
    let mut probes = 0u64;
    let mut degraded_probes = 0u64;
    let mut repairs = 0u64;
    let mut wal_records_replayed = 0u64;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(ops.len());

    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let op_start = Instant::now();
        match *op {
            Op::Probe(k) => {
                let answer = index.probe_degraded(k, &rel, &io).expect("valid relation");
                probes += 1;
                if answer.complete {
                    if answer.probe.found() != oracle.contains(&k) {
                        wrong_answers += 1;
                    }
                } else {
                    degraded_probes += 1;
                }
            }
            Op::Insert(k) => {
                let loc = rel.append_tuple(k, k, &io);
                index.insert(k, loc, &rel).expect("valid relation");
                oracle.insert(k);
                acked_writes += 1;
            }
            Op::Delete(k) => {
                index.delete(k, &rel).expect("valid relation");
                oracle.remove(&k);
                acked_writes += 1;
            }
        }
        latencies_ns.push(op_start.elapsed().as_nanos() as u64);
        if (i + 1) % REPAIR_EVERY == 0 {
            let report = index.repair_quarantined(&io);
            repairs += report.pages_repaired;
            wal_records_replayed += report.wal_records_replayed;
            for scrubber in &scrubbers {
                scrubber.scrub_pass();
            }
        }
    }
    index.flush(&rel).expect("final drain");
    let wall_seconds = start.elapsed().as_secs_f64();

    // The reckoning runs with injection off: the question is whether
    // the damage already done was contained, not whether new damage
    // can still happen.
    let injected_faults: u64 = injectors.iter().map(|i| i.total_injected()).sum();
    for store in &stores {
        store.set_fault_injector(Arc::new(FaultInjector::inert()));
    }
    for round in 0.. {
        let report = index.repair_quarantined(&io);
        repairs += report.pages_repaired;
        wal_records_replayed += report.wal_records_replayed;
        let quarantined: usize = stores.iter().map(|s| s.quarantine().len()).sum();
        if quarantined == 0 {
            break;
        }
        assert!(round < 4, "quarantine not drained after {round} repairs");
    }
    for (store, scrubber) in stores.iter().zip(&scrubbers) {
        let sweep = scrubber.scrub_pass();
        if !sweep.clean() {
            // The scrubber can catch rot the run itself never touched;
            // one more repair must clear it.
            let report = index.repair_quarantined(&io);
            repairs += report.pages_repaired;
            wal_records_replayed += report.wal_records_replayed;
            assert!(
                scrubber.scrub_pass().clean(),
                "store {} still dirty after final repair",
                store.path().display()
            );
        }
        assert!(store.quarantine().is_empty(), "quarantine drained");
    }

    // Bit-exactness against the oracle: every acked insert answers,
    // every acked delete is gone, untouched base keys still answer.
    let check = IoContext::unmetered();
    let mut lost_acked_writes = 0u64;
    for op in ops {
        let k = match *op {
            Op::Insert(k) | Op::Delete(k) => k,
            Op::Probe(_) => continue,
        };
        let found = index.probe(k, &rel, &check).expect("probe").found();
        if found != oracle.contains(&k) {
            lost_acked_writes += 1;
        }
    }
    for k in (0..base.heap().tuple_count()).step_by(997) {
        let found = index.probe(k, &rel, &check).expect("probe").found();
        if found != oracle.contains(&k) {
            wrong_answers += 1;
        }
    }

    let mut faults = FaultSnapshot::default();
    for store in &stores {
        add_snapshots(&mut faults, &store.fault_stats().snapshot());
    }
    let cell_label = format!("{}/r{:.0e}/{}", kind.label(), fault_rate, policy.label());
    io.snapshot_total().register_metrics(registry, &cell_label);
    for (store, part) in stores.iter().zip(["index", "data", "wal"]) {
        store.register_metrics(registry, &format!("{cell_label}/{part}"));
    }

    let cell = Cell {
        index: kind.label(),
        fault_rate,
        policy: policy.label(),
        ops: ops.len(),
        acked_writes,
        lost_acked_writes,
        wrong_answers,
        probes,
        degraded_probes,
        injected_faults,
        repairs,
        wal_records_replayed,
        faults,
        p99_us: p99_us(&mut latencies_ns),
        wall_seconds,
    };
    assert_eq!(
        cell.lost_acked_writes, 0,
        "{cell_label}: acked writes lost under faults"
    );
    assert_eq!(
        cell.wrong_answers, 0,
        "{cell_label}: authoritative answers disagreed with the oracle"
    );
    cell
}

/// The optional sharded chaos cell (`--shards=N`, N > 1): the whole
/// serving fleet under fault injection. Every shard's index, data, and
/// WAL store gets its own seeded injector; probes route to the owning
/// shard's `probe_degraded`, repair + scrub sweeps walk every shard,
/// and the cell ends with the same reckoning as its unsharded peers —
/// quarantines drained, scrubs clean, and the merged view bit-exact
/// against the oracle with zero lost acked writes.
fn run_sharded_chaos(
    shards: usize,
    fault_rate: f64,
    policy: RetryPolicy,
    base: &Relation,
    ops: &[Op],
    storage: &StorageArgs,
) -> JsonObject {
    let mut rel = base.clone();
    let n_keys = rel.heap().tuple_count();
    // Quantile plan over probes and the fresh insert block, so every
    // shard takes both reads and writes.
    let mut sample: Vec<u64> = (0..n_keys).step_by(97).collect();
    sample.extend(ops.iter().filter_map(|op| match *op {
        Op::Insert(k) => Some(k),
        _ => None,
    }));
    sample.sort_unstable();
    let mut index = ShardedIndex::new(
        ShardPlan::from_sample(&sample, shards),
        &rel,
        DurableConfig {
            flush_batch: 256,
            durability: DurabilityMode::GroupCommit {
                max_records: 64,
                max_bytes: 16 * 1024,
            },
        },
        |_| {
            Box::new(
                BfTree::builder()
                    .fpp(1e-4)
                    .empty(&rel)
                    .expect("valid config"),
            )
        },
        |_| storage.log_device(DeviceKind::Ssd),
    );
    index.build(&rel).expect("sharded build");
    let ios = ShardedIo::new(
        &storage.backend(),
        StorageConfig::SsdSsd,
        64 << 20,
        PolicyKind::Lru,
        shards,
    )
    .expect("backend devices")
    .into_ios();

    // Arm every file-backed store in the fleet — per-shard index,
    // data, and WAL — with distinct deterministic seeds and the cell's
    // retry policy.
    let mut stores: Vec<Arc<FileStore>> = Vec::new();
    for (s, io) in ios.iter().enumerate() {
        for dev in [&io.index, &io.data] {
            let store = dev.store().expect("chaos requires the file backend");
            stores.push(Arc::clone(store));
        }
        stores.push(index.with_shard(s, |st| {
            Arc::clone(st.wal().device().store().expect("file-backed WAL"))
        }));
    }
    let injectors: Vec<Arc<FaultInjector>> = stores
        .iter()
        .enumerate()
        .map(|(i, store)| {
            let injector = Arc::new(FaultInjector::new(FaultConfig::uniform(
                fault_rate,
                0xC4A0_6000 + i as u64,
            )));
            store.set_fault_injector(Arc::clone(&injector));
            store.set_retry_policy(policy);
            injector
        })
        .collect();
    let scrubbers: Vec<Scrubber> = stores
        .iter()
        .map(|s| Scrubber::new(Arc::clone(s)))
        .collect();

    let mut oracle: HashSet<u64> = (0..n_keys).collect();
    let mut acked_writes = 0u64;
    let mut probes = 0u64;
    let mut degraded_probes = 0u64;
    let mut wrong_answers = 0u64;
    let mut repairs = 0u64;
    let repair_all = |index: &ShardedIndex| -> u64 {
        (0..shards)
            .map(|s| {
                index
                    .with_shard(s, |st| st.repair_quarantined(&ios[s]))
                    .pages_repaired
            })
            .sum()
    };
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Probe(k) => {
                let s = index.plan().shard_of(k);
                let answer = index
                    .with_shard(s, |st| st.probe_degraded(k, &rel, &ios[s]))
                    .expect("valid relation");
                probes += 1;
                if answer.complete {
                    if answer.probe.found() != oracle.contains(&k) {
                        wrong_answers += 1;
                    }
                } else {
                    degraded_probes += 1;
                }
            }
            Op::Insert(k) => {
                let loc = rel.append_tuple(k, k, &ios[index.plan().shard_of(k)]);
                index.route_insert(k, loc, &rel).expect("valid relation");
                oracle.insert(k);
                acked_writes += 1;
            }
            Op::Delete(k) => {
                index.route_delete(k, &rel).expect("valid relation");
                oracle.remove(&k);
                acked_writes += 1;
            }
        }
        if (i + 1) % REPAIR_EVERY == 0 {
            repairs += repair_all(&index);
            for scrubber in &scrubbers {
                scrubber.scrub_pass();
            }
        }
    }
    index.flush_all(&rel).expect("final drain");
    let wall_seconds = start.elapsed().as_secs_f64();

    // The reckoning runs with injection off, exactly like the
    // unsharded cells.
    let injected_faults: u64 = injectors.iter().map(|i| i.total_injected()).sum();
    for store in &stores {
        store.set_fault_injector(Arc::new(FaultInjector::inert()));
    }
    for round in 0.. {
        repairs += repair_all(&index);
        let quarantined: usize = stores.iter().map(|s| s.quarantine().len()).sum();
        if quarantined == 0 {
            break;
        }
        assert!(
            round < 4,
            "sharded quarantine not drained after {round} repairs"
        );
    }
    for (store, scrubber) in stores.iter().zip(&scrubbers) {
        if !scrubber.scrub_pass().clean() {
            repairs += repair_all(&index);
            assert!(
                scrubber.scrub_pass().clean(),
                "sharded store {} still dirty after final repair",
                store.path().display()
            );
        }
        assert!(store.quarantine().is_empty(), "quarantine drained");
    }

    // Bit-exactness of the merged view against the oracle.
    let check = IoContext::unmetered();
    let mut lost_acked_writes = 0u64;
    for op in ops {
        let k = match *op {
            Op::Insert(k) | Op::Delete(k) => k,
            Op::Probe(_) => continue,
        };
        let found = index.probe(k, &rel, &check).expect("probe").found();
        if found != oracle.contains(&k) {
            lost_acked_writes += 1;
        }
    }
    for k in (0..n_keys).step_by(997) {
        let found = index.probe(k, &rel, &check).expect("probe").found();
        if found != oracle.contains(&k) {
            wrong_answers += 1;
        }
    }
    assert_eq!(
        lost_acked_writes, 0,
        "sharded: acked writes lost under faults"
    );
    assert_eq!(
        wrong_answers, 0,
        "sharded: authoritative answers disagreed with the oracle"
    );

    let availability = if probes == 0 {
        1.0
    } else {
        (probes - degraded_probes) as f64 / probes as f64
    };
    println!(
        "\nSharded cell ({shards} shards, rate {:.0e}, {}): {} faults injected across\n\
         {} stores, {} pages repaired, availability {}%, zero lost acked writes,\n\
         zero wrong answers through the merged serving view.",
        fault_rate,
        policy.label(),
        injected_faults,
        stores.len(),
        repairs,
        fmt_f(availability * 100.0),
    );
    JsonObject::new()
        .field("shards", shards as u64)
        .field("fault_rate", fault_rate)
        .field("retry_policy", policy.label())
        .field("ops", ops.len() as u64)
        .field("wall_seconds", wall_seconds)
        .field("availability", availability)
        .field("acked_writes", acked_writes)
        .field("injected_faults", injected_faults)
        .field("pages_repaired", repairs)
        .field("lost_acked_writes", lost_acked_writes)
        .field("wrong_answers", wrong_answers)
}

fn main() {
    // Chaos always runs file-backed (appending last wins), but shares
    // every other storage flag and env knob with its siblings.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    if let Ok(v) = std::env::var("BFTREE_DIR") {
        raw.push(format!("--dir={v}"));
    }
    if let Ok(v) = std::env::var("BFTREE_METRICS_OUT") {
        raw.push(format!("--metrics-out={v}"));
    }
    if let Ok(v) = std::env::var("BFTREE_SHARDS") {
        raw.push(format!("--shards={v}"));
    }
    raw.push("--storage=file".to_string());
    let storage = match StorageArgs::try_parse(raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    let mut n_ops = n_probes() * 10;
    if smoke {
        n_ops = n_ops.min(SMOKE_OPS);
    }
    let ds = relation_r_pk();
    let n_keys = ds.relation.heap().tuple_count();
    let domain: Vec<u64> = (0..n_keys).collect();
    let insert_keys: Vec<u64> = (0..(n_ops as u64 * 2 / 5)).map(|i| n_keys + i).collect();
    let delete_keys: Vec<u64> = (0..(n_ops as u64 / 10))
        .map(|i| (i * 499) % n_keys)
        .collect();
    let ops = mixed_stream(
        &domain,
        KeyPopularity::Uniform,
        OpMix::WRITE_HEAVY,
        &insert_keys,
        &delete_keys,
        n_ops,
        0xBF09,
    );

    // Cell plan: per index, a fault-free baseline (retries moot), then
    // every fault rate × retry policy. Smoke trims to the BF-Tree with
    // the hottest rate under no-retry and full-retry.
    let kinds: &[IndexKind] = if smoke {
        &IndexKind::ALL[..1]
    } else {
        &IndexKind::ALL
    };
    let mut specs: Vec<(f64, RetryPolicy)> = vec![(0.0, RetryPolicy::none())];
    if smoke {
        specs.push((1e-3, RetryPolicy::none()));
        specs.push((1e-3, RetryPolicy::exponential()));
    } else {
        for rate in FAULT_RATES {
            for policy in retry_policies() {
                specs.push((rate, policy));
            }
        }
    }

    println!(
        "relation R: {} MB ({} keys), file-backed SSD/SSD cold + SSD log, {} ops of the\n\
         write-heavy mix (50% probes / 40% inserts / 10% deletes) under seeded fault\n\
         injection; every cell repairs + scrubs every {REPAIR_EVERY} ops and must end\n\
         bit-exact vs the oracle with zero lost acked writes{}\n",
        relation_mb(),
        n_keys,
        ops.len(),
        if smoke { " [smoke]" } else { "" },
    );

    let mut report = Report::new(
        "Chaos: fault rate x retry policy x index (file backend)",
        &[
            "index", "rate", "policy", "avail%", "p99_us", "inject", "retries", "exhaust",
            "quarant", "repairs", "lost", "wrong",
        ],
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut registry = bftree_obs::MetricsRegistry::new();
    for kind in kinds {
        for (cell_id, (rate, policy)) in specs.iter().enumerate() {
            let cell = run_cell(
                *kind,
                *rate,
                *policy,
                (cells.len() + cell_id) as u64,
                &ds.relation,
                &ops,
                &storage,
                &mut registry,
            );
            report.row(&[
                cell.index.to_string(),
                format!("{:.0e}", cell.fault_rate),
                cell.policy.clone(),
                fmt_f(cell.availability() * 100.0),
                fmt_f(cell.p99_us),
                cell.injected_faults.to_string(),
                cell.faults.retries.to_string(),
                cell.faults.retries_exhausted.to_string(),
                cell.faults.quarantined.to_string(),
                cell.repairs.to_string(),
                cell.lost_acked_writes.to_string(),
                cell.wrong_answers.to_string(),
            ]);
            cells.push(cell);
        }
    }
    report.print();

    // p99 inflation of each faulty cell over its index's fault-free
    // baseline.
    let baseline_p99 = |index: &str| {
        cells
            .iter()
            .find(|c| c.index == index && c.fault_rate == 0.0)
            .map(|c| c.p99_us)
            .expect("baseline cell measured")
    };
    let inflation = |c: &Cell| c.p99_us / baseline_p99(c.index).max(f64::MIN_POSITIVE);
    let max_inflation = cells
        .iter()
        .filter(|c| c.fault_rate > 0.0)
        .map(&inflation)
        .fold(0.0f64, f64::max);
    let total_repairs: u64 = cells.iter().map(|c| c.repairs).sum();
    let total_injected: u64 = cells.iter().map(|c| c.injected_faults).sum();
    let min_avail = cells
        .iter()
        .map(|c| c.availability())
        .fold(1.0f64, f64::min);
    println!(
        "\nHeadline: {} injected faults across {} cells, {} pages repaired, zero lost acked\n\
         writes and zero wrong answers everywhere; worst availability {}%, worst p99\n\
         inflation {}x over the fault-free baseline.",
        total_injected,
        cells.len(),
        total_repairs,
        fmt_f(min_avail * 100.0),
        fmt_f(max_inflation),
    );

    let sharded = (storage.shards() > 1).then(|| {
        run_sharded_chaos(
            storage.shards(),
            1e-3,
            RetryPolicy::exponential(),
            &ds.relation,
            &ops,
            &storage,
        )
    });

    let mut json = JsonObject::new()
        .field("experiment", "chaos")
        .field(
            "workload",
            JsonObject::new()
                .field("relation_mb", relation_mb())
                .field("relation_keys", n_keys)
                .field("ops", ops.len() as u64)
                .field("mix", "write_heavy_50r_40i_10d")
                .field("storage", "file_ssd_ssd_cold_plus_ssd_log")
                .field("repair_every_ops", REPAIR_EVERY as u64)
                .field("smoke", smoke),
        )
        .field(
            "cells",
            cells
                .iter()
                .map(|c| {
                    JsonObject::new()
                        .field("index", c.index)
                        .field("fault_rate", c.fault_rate)
                        .field("retry_policy", c.policy.as_str())
                        .field("ops", c.ops as u64)
                        .field("wall_seconds", c.wall_seconds)
                        .field("availability", c.availability())
                        .field("p99_us", c.p99_us)
                        .field("p99_inflation", inflation(c))
                        .field("acked_writes", c.acked_writes)
                        .field("lost_acked_writes", c.lost_acked_writes)
                        .field("wrong_answers", c.wrong_answers)
                        .field("probes", c.probes)
                        .field("degraded_probes", c.degraded_probes)
                        .field("injected_faults", c.injected_faults)
                        .field("transient_errors", c.faults.transient_errors)
                        .field("permanent_errors", c.faults.permanent_errors)
                        .field("retries", c.faults.retries)
                        .field("retry_successes", c.faults.retry_successes)
                        .field("retries_exhausted", c.faults.retries_exhausted)
                        .field("backoff_ns", c.faults.backoff_ns)
                        .field("pages_quarantined", c.faults.quarantined)
                        .field("pages_repaired", c.repairs)
                        .field("wal_records_replayed", c.wal_records_replayed)
                        .field("scrub_passes", c.faults.scrub_passes)
                        .field("scrub_pages", c.faults.scrub_pages)
                        .field("scrub_corruptions", c.faults.scrub_corruptions)
                })
                .collect::<Vec<JsonObject>>(),
        )
        .field(
            "summary",
            JsonObject::new()
                .field("total_injected_faults", total_injected)
                .field("total_pages_repaired", total_repairs)
                .field("zero_lost_acked_writes", true)
                .field("zero_wrong_answers", true)
                .field("min_availability", min_avail)
                .field("max_p99_inflation", max_inflation),
        );
    if let Some(sharded) = sharded {
        json = json.field("sharded", sharded);
    }
    std::fs::write("BENCH_chaos.json", json.render()).expect("write perf baseline");
    println!("\nwrote BENCH_chaos.json ({} cells)", cells.len());
    storage.write_metrics(&registry);
}
