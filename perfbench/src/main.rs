//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <lookup|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds relation R (256-byte tuples ordered on the
//! PK, 64 MB) and a BF-Tree at
//! fpp 1e-4 on simulated SSD/SSD devices, runs a closed loop for
//! `--seconds`, and checks every answer. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced stretches, times the calls it makes into each layer, and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. The
//! process exits non-zero on any wrong answer or lost acknowledged
//! write.

mod ingest;
mod lookup;
mod metrics;
mod serve;
mod trace;
mod tree;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{Duplicates, Relation};
use bftree_wal::{DurabilityMode, Wal, WalRecord};
use bftree_workloads::synthetic::{build_relation_r, SyntheticConfig};

use metrics::{MetricSet, Samples};

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("sim_us_per_op", "sim_us"),
    ("index_bytes_per_key", "B"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), with units. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.probe_ns", "ns"),
    ("core.descent_ns", "ns"),
    ("core.filters_total", "count"),
    ("core.leaves", "count"),
    ("core.leaf_pages_max", "count"),
    ("bloom.sweep_ns", "ns"),
    ("bloom.filters_per_probe", "count"),
    ("bloom.candidates_per_probe", "count"),
    ("storage.scan_ns_per_page", "ns"),
    ("storage.pages_read_per_probe", "count"),
    ("storage.false_reads_per_probe", "count"),
    ("storage.useful_read_ratio", "ratio"),
    ("storage.device_reads_per_op", "count"),
    ("storage.device_writes_per_op", "count"),
    ("storage.fsyncs_per_op", "count"),
    ("storage.index_sim_us_per_op", "sim_us"),
    ("storage.data_sim_us_per_op", "sim_us"),
    ("bufferpool.hit_ratio", "ratio"),
    ("bufferpool.evictions_per_op", "count"),
    ("bufferpool.touch_ns", "ns"),
    ("access.probe_overhead_ns", "ns"),
    ("access.flushes", "count"),
    ("access.flush_stall_us", "us"),
    ("access.flush_stall_share", "ratio"),
    ("access.memtable_bytes_max", "B"),
    ("wal.bytes_per_write", "B"),
    ("wal.records_per_sync", "count"),
    ("wal.append_ns", "ns"),
    ("wal.sync_ns", "ns"),
    ("shard.dispatch_ns", "ns"),
    ("shard.scatter_ns", "ns"),
    ("shard.executor_overhead_ns", "ns"),
    ("shard.fanout", "count"),
    ("shard.imbalance", "ratio"),
    ("net.wire_ns", "ns"),
    ("net.codec_ns", "ns"),
    ("net.bytes_per_op", "B"),
    ("net.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Bloom-filter false-positive target of every BF-Tree built here.
pub const FPP: f64 = 1e-4;
/// Times set-up runs per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Most spans a traced run keeps in memory.
pub const SPAN_CAP: usize = 100_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: MetricSet,
    /// Ops attempted and ops failed (`ProbeError`s, `NetError`s).
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and lost acknowledged writes.
    pub wrong: u64,
    /// Extra report lines (sample counts, set-up details).
    pub notes: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

impl Outcome {
    /// Record a latency percentile (µs) when enough samples lie beyond
    /// it, noting the sample counts either way.
    pub fn latency(&mut self, name: &'static str, samples: &mut Samples, q: f64) {
        match samples.quantile(q) {
            Some(p) => {
                self.metrics.set(name, p.value / 1e3, "us");
                self.notes.push(format!(
                    "{name}: {} samples, {} beyond",
                    p.samples, p.beyond
                ));
            }
            None => self.notes.push(format!(
                "{name}: not reported ({} samples, fewer than 10 beyond it)",
                samples.len()
            )),
        }
    }
}

impl Outcome {
    /// Record `ops_per_s` as the interquartile mean over the run's
    /// complete slices.
    pub fn throughput(
        &mut self,
        slices: &mut metrics::Slices,
        elapsed_ns: u64,
    ) -> metrics::SliceSummary {
        let sum = slices.summary(elapsed_ns);
        self.metrics.set("ops_per_s", sum.ops_per_s, "1/s");
        self.notes.push(format!(
            "ops_per_s: interquartile mean over {} slices",
            sum.slices
        ));
        sum
    }

    /// Record `ops_per_s`, `read_p50_us` and `read_p99_us` as
    /// interquartile means over the run's complete slices.
    pub fn sliced(&mut self, slices: &mut metrics::Slices, elapsed_ns: u64) {
        let sum = self.throughput(slices, elapsed_ns);
        self.notes.push(format!(
            "read_p50_us, read_p99_us: interquartile means over {} slices ({} read samples)",
            sum.slices, sum.read_samples
        ));
        for (name, q) in [("read_p50_us", sum.p50), ("read_p99_us", sum.p99)] {
            match q {
                Some((ns, n)) => {
                    self.metrics.set(name, ns / 1e3, "us");
                    self.notes.push(if n == 0 {
                        format!("{name}: over the pooled samples (too few beyond it per slice)")
                    } else {
                        format!("{name}: {n} slices with 10+ samples beyond it")
                    });
                }
                None => self.notes.push(format!(
                    "{name}: not reported (fewer than 10 samples beyond it)"
                )),
            }
        }
    }

    /// Record `read_p50_us` and `read_p99_us` as lower quartiles over
    /// full latency windows.
    pub fn windowed(&mut self, reads: &metrics::Windows) {
        match reads.summary() {
            Some(w) => {
                self.metrics.set("read_p50_us", w.p50 / 1e3, "us");
                self.metrics.set("read_p99_us", w.p99 / 1e3, "us");
                self.notes.push(format!(
                    "read_p50_us, read_p99_us: lower quartiles over {} windows of {} reads \
                     ({} samples, 10+ beyond each window's p99)",
                    w.windows,
                    w.samples / w.windows,
                    w.samples
                ));
            }
            None => self
                .notes
                .push("read_p50_us, read_p99_us: not reported (no full window)".to_string()),
        }
    }
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the
/// next is built; keep the last and return the median wall seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut kept: Option<T> = None;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (kept.expect("at least one set-up"), secs[secs.len() / 2])
}

/// Megabytes of relation R: 262,144 tuples of 256 bytes.
pub const RELATION_MB: u64 = 64;

/// Relation R: dense PKs `0..n` in heap order, 256-byte tuples.
pub fn relation_r(seed: u64) -> Relation {
    let config = SyntheticConfig {
        seed,
        ..SyntheticConfig::scaled_mb(RELATION_MB)
    };
    Relation::new(build_relation_r(&config), PK_OFFSET, Duplicates::Unique)
        .expect("conventional layout")
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Replay `records` into a standalone log on a cold simulated SSD:
/// mean wall ns per append (no syncs inside), and per sync of every
/// `group` records.
pub fn wal_replay(records: &[WalRecord], group: usize, base_tuples: u64) -> (f64, f64) {
    if records.is_empty() {
        return (0.0, 0.0);
    }
    let device = bftree_storage::PageDevice::cold(bftree_storage::DeviceKind::Ssd);
    let mut wal = Wal::open(device, DurabilityMode::Async, base_tuples);
    let (mut append_ns, mut sync_ns, mut syncs) = (0u64, 0u64, 0u64);
    for chunk in records.chunks(group.max(1)) {
        let t = Instant::now();
        for rec in chunk {
            wal.append(rec);
        }
        append_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        wal.sync();
        sync_ns += t.elapsed().as_nanos() as u64;
        syncs += 1;
    }
    (
        append_ns as f64 / records.len() as f64,
        sync_ns as f64 / syncs as f64,
    )
}

/// Where a traced run writes its spans.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from("perfbench")
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lookup|ingest|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let cap = if args.trace {
        metrics::MAX_PER_LAYER
    } else {
        metrics::MAX_END_TO_END
    };
    if let Err(e) = metrics::validate_set(names, cap) {
        eprintln!("perfbench: metric catalogue: {e}");
        std::process::exit(2);
    }

    let mut out = match args.workload.as_str() {
        "lookup" => lookup::run(&args),
        "ingest" => ingest::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (lookup, ingest, serve)");
            std::process::exit(2);
        }
    };
    if args.trace {
        for &(name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.set(name, 0.0, unit);
            }
        }
    } else {
        out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    }

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# failed_op_ratio: {} ({} of {} ops failed or were refused)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (name, v) in out.metrics.iter() {
        println!("{name:<32} {:>16.4} {}", v.value, v.unit);
    }
    if let Some(tracer) = &out.tracer {
        let path = trace_path(&args);
        match tracer.write(&path) {
            Ok(()) => println!(
                "# wrote {} spans to {} ({} dropped past the cap)",
                tracer.len(),
                path.display(),
                tracer.dropped()
            ),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    let missing: Vec<&str> = names
        .iter()
        .filter(|(n, _)| out.metrics.get(n).is_none())
        .map(|(n, _)| *n)
        .collect();
    let correct = out.wrong == 0;
    if !correct {
        println!("# WRONG: {} wrong answers or lost writes", out.wrong);
    }
    if !missing.is_empty() {
        println!("# MISSING metrics: {}", missing.join(", "));
    }
    println!(
        "{}",
        metrics::result_line(
            correct,
            out.attempted.max(1),
            out.failed,
            &out.metrics,
            names
        )
    );
    if !correct || !missing.is_empty() {
        std::process::exit(1);
    }
}
