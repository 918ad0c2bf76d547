//! Metric bookkeeping shared by every workload: exact percentiles
//! from raw samples, metric-name rules, the unattributed-share
//! computation, and the result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Most end-to-end metrics one result line may carry.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one result line may carry.
pub const MAX_PER_LAYER: usize = 128;
/// Longest metric name accepted.
pub const MAX_NAME_LEN: usize = 64;
/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is too thin to say anything.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= MAX_NAME_LEN
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check a whole metric set: every name and unit valid, no name used
/// twice, and at most `max` metrics.
pub fn validate_set(metrics: &[(&str, &str)], max: usize) -> Result<(), String> {
    if metrics.len() > max {
        return Err(format!("{} metrics, at most {max} allowed", metrics.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in metrics {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("invalid unit {unit:?} for {name}"));
        }
        if !seen.insert(name) {
            return Err(format!("metric {name} listed twice"));
        }
    }
    Ok(())
}

/// An exact percentile of raw samples, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank `ceil(q * n)`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Raw per-op samples (nanoseconds), kept whole so every percentile is
/// exact rather than a histogram bucket bound.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u32>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Record one sample, saturating at `u32::MAX` ns (4.3 s).
    pub fn push(&mut self, ns: u64) {
        self.values.push(ns.min(u32::MAX as u64) as u32);
        self.sorted = false;
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `q`-quantile by nearest rank, or `None` when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn quantile(&mut self, q: f64) -> Option<Quantile> {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        quantile_sorted(&self.values, q)
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted`, reported only when
/// at least [`MIN_TAIL_SAMPLES`] samples lie beyond its rank.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_TAIL_SAMPLES).then(|| Quantile {
        value: sorted[rank - 1] as f64,
        samples: n,
        beyond,
    })
}

/// The timed window cut into fixed-width slices. Each slice counts its
/// ops and keeps its raw read latencies; throughput and read
/// percentiles are reported as the interquartile mean over complete
/// slices (the mean of the middle half), so a stretch in which the host
/// stalls the process moves one slice, not the figure.
#[derive(Debug, Clone)]
pub struct Slices {
    width_ns: u64,
    ops: Vec<u64>,
    reads: Vec<Samples>,
    /// Per-slice (p50, p99, samples) of slices already summarised,
    /// whose raw samples were dropped.
    sealed: Vec<Option<SealedSlice>>,
}

type SealedSlice = (Option<f64>, Option<f64>, usize);

/// Interquartile means over the complete slices of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSummary {
    /// Complete slices the means are taken over.
    pub slices: usize,
    pub ops_per_s: f64,
    /// Slice p50 / p99 (ns), over the slices whose percentile has at
    /// least [`MIN_TAIL_SAMPLES`] samples beyond it, with the number of
    /// such slices. When fewer than half qualify: the percentile of the
    /// pooled samples of unsealed slices, with 0 slices, or `None`.
    pub p50: Option<(f64, usize)>,
    pub p99: Option<(f64, usize)>,
    /// Read samples in complete slices.
    pub read_samples: usize,
}

impl Slices {
    pub fn new(width: std::time::Duration) -> Self {
        Self {
            width_ns: width.as_nanos().max(1) as u64,
            ops: Vec::new(),
            reads: Vec::new(),
            sealed: Vec::new(),
        }
    }

    fn slot(&mut self, at_ns: u64) -> usize {
        let i = (at_ns / self.width_ns) as usize;
        if i >= self.ops.len() {
            self.ops.resize(i + 1, 0);
            self.reads.resize_with(i + 1, Samples::default);
            self.sealed.resize(i + 1, None);
        }
        i
    }

    /// Summarise every slice that ends by `at_ns` and drop its raw
    /// samples, so a long single-threaded run keeps one slice of
    /// samples in memory rather than all of them. Sealed slices can no
    /// longer be merged into.
    pub fn seal_before(&mut self, at_ns: u64) {
        let end = ((at_ns / self.width_ns) as usize).min(self.ops.len());
        for i in 0..end {
            if self.sealed[i].is_none() {
                let r = &mut self.reads[i];
                let q = |r: &mut Samples, q: f64| r.quantile(q).map(|x| x.value);
                self.sealed[i] = Some((q(r, 0.50), q(r, 0.99), r.len()));
                *r = Samples::default();
            }
        }
    }

    /// Count `ops` completed at `at_ns` into the window.
    pub fn ops(&mut self, at_ns: u64, ops: u64) {
        let i = self.slot(at_ns);
        self.ops[i] += ops;
    }

    /// Count `ops` completed at `at_ns` by one read of `latency_ns`.
    pub fn read(&mut self, at_ns: u64, latency_ns: u64, ops: u64) {
        let i = self.slot(at_ns);
        self.ops[i] += ops;
        self.reads[i].push(latency_ns);
    }

    /// Add another recorder's counts slice by slice (same width, same
    /// window start).
    pub fn merge(&mut self, other: &Slices) {
        assert!(
            self.sealed.iter().chain(&other.sealed).all(Option::is_none),
            "sealed slices cannot be merged"
        );
        if other.ops.is_empty() {
            return;
        }
        self.slot((other.ops.len() as u64 - 1) * self.width_ns);
        for (i, (&ops, reads)) in other.ops.iter().zip(&other.reads).enumerate() {
            self.ops[i] += ops;
            self.reads[i].extend(reads);
        }
    }

    /// Interquartile means over the slices that end within `elapsed_ns`.
    pub fn summary(&mut self, elapsed_ns: u64) -> SliceSummary {
        let complete = ((elapsed_ns / self.width_ns) as usize).min(self.ops.len());
        let secs = self.width_ns as f64 / 1e9;
        let rates: Vec<f64> = self.ops[..complete]
            .iter()
            .map(|&o| o as f64 / secs)
            .collect();
        // Samples of slices not sealed yet, pooled for the fallback below.
        let mut pooled = Samples::default();
        for r in &self.reads[..complete] {
            pooled.extend(r);
        }
        self.seal_before(complete as u64 * self.width_ns);
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        let mut read_samples = 0;
        for &(p50, p99, n) in self.sealed[..complete].iter().flatten() {
            read_samples += n;
            p50s.extend(p50);
            p99s.extend(p99);
        }
        // When fewer than half the slices have 10 samples beyond the
        // percentile, take it over the pooled samples instead (reported
        // as 0 slices).
        let mut pick = |v: &[f64], q: f64| {
            if complete > 0 && 2 * v.len() >= complete {
                Some((interquartile_mean(v), v.len()))
            } else {
                pooled.quantile(q).map(|x| (x.value, 0))
            }
        };
        SliceSummary {
            slices: complete,
            ops_per_s: interquartile_mean(&rates),
            p50: pick(&p50s, 0.50),
            p99: pick(&p99s, 0.99),
            read_samples,
        }
    }
}

/// Latencies cut into windows of a fixed number of consecutive samples.
/// Each full window keeps only its exact p50 and p99; the run's figure
/// is the lower quartile over the windows. A window ends after a set
/// number of ops, not at a clock time, so every window is large enough
/// for its p99 whatever the speed of the code. A stall of the host
/// drags a window's p99 far up; the lower quartile holds as long as
/// three windows in four are spared.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    current: Samples,
    /// (p50, p99) in ns of every full window.
    done: Vec<(f64, f64)>,
}

/// Lower quartiles over the full windows of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    pub windows: usize,
    /// Samples in full windows.
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Windows {
    /// Windows of `size` samples; `size` must leave at least
    /// [`MIN_TAIL_SAMPLES`] samples beyond each window's p99.
    pub fn new(size: usize) -> Self {
        assert!(
            size >= 100 * MIN_TAIL_SAMPLES,
            "a window of {size} samples is too thin for its p99"
        );
        Self {
            size,
            current: Samples::with_capacity(size),
            done: Vec::new(),
        }
    }

    /// Record one latency (ns); a window that fills up is summarised
    /// and its raw samples dropped.
    pub fn push(&mut self, ns: u64) {
        self.current.push(ns);
        if self.current.len() == self.size {
            let mut at = |q: f64| self.current.quantile(q).expect("a full window").value;
            let p = (at(0.50), at(0.99));
            self.done.push(p);
            self.current = Samples::with_capacity(self.size);
        }
    }

    /// The lower quartiles of the window p50s and p99s, or `None` before
    /// the first window is full. The samples of an unfilled last window
    /// are left out.
    pub fn summary(&self) -> Option<WindowSummary> {
        let lower_quartile = |f: fn(&(f64, f64)) -> f64| {
            let mut v: Vec<f64> = self.done.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v[(v.len() - 1) / 4]
        };
        (!self.done.is_empty()).then(|| WindowSummary {
            windows: self.done.len(),
            samples: self.done.len() * self.size,
            p50: lower_quartile(|w| w.0),
            p99: lower_quartile(|w| w.1),
        })
    }

    /// Add the full windows of `other`; its unfilled window is dropped.
    pub fn absorb(&mut self, other: &Windows) {
        self.done.extend_from_slice(&other.done);
    }
}

/// Mean of the middle half of `v`: the lowest and the highest
/// `len / 4` values are dropped (0 if empty).
pub fn interquartile_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Share of the end-to-end time that no layer accounts for:
/// `1 - sum(layer self times) / end_to_end`. Negative when the layers
/// (measured apart from the op) add up to more than the op took.
pub fn unattributed_share(end_to_end_ns: f64, layer_self_ns: &[f64]) -> f64 {
    if end_to_end_ns <= 0.0 {
        return 0.0;
    }
    1.0 - layer_self_ns.iter().sum::<f64>() / end_to_end_ns
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics one run reports, by name.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: BTreeMap<&'static str, Value>,
}

impl MetricSet {
    /// Set `name` to `value` in `unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, Value { value, unit });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    /// Every metric, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Value)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }
}

/// Render a finite float for JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and the
/// metrics named in `names`, in that order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &MetricSet,
    names: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, unit)) in names.iter().enumerate() {
        let v = set.get(name).unwrap_or(0.0);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentile_is_nearest_rank_over_raw_samples() {
        let mut s = samples((1..=1000).rev());
        let p50 = s.quantile(0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.samples, 1000);
        assert_eq!(p50.beyond, 500);
        let p99 = s.quantile(0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 999 samples: p99 sits at rank 990, leaving 9 beyond.
        let mut s = samples(1..=999);
        assert!(s.quantile(0.99).is_none());
        assert!(s.quantile(0.5).is_some());
        // p999 needs 10_000 samples.
        let mut s = samples(1..=9_999);
        assert!(s.quantile(0.999).is_none());
        let mut s = samples(1..=10_000);
        assert_eq!(s.quantile(0.999).unwrap().value, 9_990.0);
    }

    #[test]
    fn percentile_is_not_a_bucket_bound() {
        // Values a log2 histogram would fold into one bucket stay apart.
        let mut s = samples((0..100).map(|i| 1_000 + i));
        assert_eq!(s.quantile(0.5).unwrap().value, 1_049.0);
        assert_eq!(s.quantile(0.8).unwrap().value, 1_079.0);
    }

    #[test]
    fn empty_or_out_of_range_quantiles_are_none() {
        assert!(Samples::default().quantile(0.5).is_none());
        assert!(samples(1..=100).quantile(1.5).is_none());
    }

    #[test]
    fn metric_names_follow_the_contract() {
        assert!(valid_name("read_p50_us"));
        assert!(valid_name("core.probe_ns"));
        assert!(valid_name("9-lives.x_y"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_under"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract() {
        for u in ["ms", "s", "1/s", "count", "%", "sim_us", "MB"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("micro seconds"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn metric_sets_are_capped_and_unique() {
        let e2e: Vec<(String, &str)> = (0..17).map(|i| (format!("m{i}"), "s")).collect();
        let refs: Vec<(&str, &str)> = e2e.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        assert!(validate_set(&refs[..16], MAX_END_TO_END).is_ok());
        assert!(validate_set(&refs, MAX_END_TO_END).is_err());
        let layer: Vec<(String, &str)> = (0..129).map(|i| (format!("l.{i}"), "ns")).collect();
        let refs: Vec<(&str, &str)> = layer.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        assert!(validate_set(&refs[..128], MAX_PER_LAYER).is_ok());
        assert!(validate_set(&refs, MAX_PER_LAYER).is_err());
        assert!(validate_set(&[("a", "s"), ("a", "s")], 4).is_err());
        assert!(validate_set(&[("a b", "s")], 4).is_err());
    }

    #[test]
    fn unattributed_share_is_what_the_layers_leave() {
        assert!((unattributed_share(1000.0, &[600.0, 300.0]) - 0.1).abs() < 1e-12);
        assert_eq!(unattributed_share(1000.0, &[1000.0]), 0.0);
        assert!(unattributed_share(1000.0, &[700.0, 500.0]) < 0.0);
        assert_eq!(unattributed_share(0.0, &[5.0]), 0.0);
        assert_eq!(unattributed_share(500.0, &[]), 1.0);
    }

    #[test]
    fn slices_report_interquartile_means_over_complete_slices() {
        let mut s = Slices::new(std::time::Duration::from_secs(1));
        // Three complete slices at 100, 300 and 200 ops/s, each with
        // 100 reads; a partial fourth slice is ignored.
        for (slice, ops, lat) in [(0u64, 100u64, 1_000u64), (1, 300, 3_000), (2, 200, 2_000)] {
            for i in 0..100 {
                s.read(slice * 1_000_000_000 + i, lat + i, ops / 100);
            }
        }
        s.ops(3_500_000_000, 1_000_000);
        let sum = s.summary(3_600_000_000);
        assert_eq!(sum.slices, 3);
        assert_eq!(sum.ops_per_s, 200.0);
        assert_eq!(sum.read_samples, 300);
        // p50 of slice k is lat + 49; p99 needs 1000 samples per slice,
        // and the 300 pooled samples leave only 3 beyond it.
        assert_eq!(sum.p50, Some((2_049.0, 3)));
        assert_eq!(sum.p99, None);
        // Thin slices fall back to the pooled samples.
        let mut thin = Slices::new(std::time::Duration::from_secs(1));
        for i in 0..2_000u64 {
            thin.read((i % 4) * 1_000_000_000 + i, i, 1);
        }
        let sum = thin.summary(4_000_000_000);
        assert_eq!(sum.p99, Some((1_979.0, 0)));
    }

    #[test]
    fn merged_slices_add_up() {
        let w = std::time::Duration::from_millis(10);
        let mut a = Slices::new(w);
        let mut b = Slices::new(w);
        a.ops(5_000_000, 7);
        b.ops(5_000_000, 3);
        b.ops(15_000_000, 5);
        a.merge(&b);
        let sum = a.summary(20_000_000);
        let mut c = Slices::new(w);
        c.read(1, 5, 1);
        c.seal_before(10_000_000);
        assert_eq!(c.reads[0].len(), 0, "sealing drops the raw samples");
        assert_eq!(c.summary(10_000_000).read_samples, 1);
        assert_eq!(sum.slices, 2);
        assert_eq!(sum.ops_per_s, (1_000.0 + 500.0) / 2.0 * 1.0);
    }

    #[test]
    fn windows_report_lower_quartiles_over_full_windows() {
        let mut w = Windows::new(1_000);
        assert_eq!(w.summary(), None);
        // Four windows; in window k the samples are 1..=1000 scaled by
        // k + 1, so its p50 is 500 (k + 1) and its p99 990 (k + 1).
        for k in [3u64, 0, 2, 1] {
            for i in 1..=1_000 {
                w.push(i * (k + 1));
            }
        }
        // An unfilled last window is left out.
        w.push(1);
        let s = w.summary().unwrap();
        assert_eq!((s.windows, s.samples), (4, 4_000));
        assert_eq!((s.p50, s.p99), (500.0, 990.0));
        // Stalled windows above the lower quartile do not move it.
        let mut other = Windows::new(1_000);
        for _ in 0..5 {
            for i in 1..=1_000 {
                other.push(i * 100);
            }
        }
        w.absorb(&other);
        let s = w.summary().unwrap();
        assert_eq!(s.windows, 9);
        assert_eq!((s.p50, s.p99), (1_500.0, 2_970.0));
    }

    #[test]
    #[should_panic(expected = "too thin")]
    fn windows_must_hold_a_p99() {
        let _ = Windows::new(999);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(interquartile_mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled slice out of eight does not move the figure.
        let v = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 1.0];
        assert_eq!(interquartile_mean(&v), 10.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn result_line_carries_exactly_the_named_metrics() {
        let mut set = MetricSet::default();
        set.set("a_ms", 1.25, "ms");
        set.set("extra", 9.0, "s");
        let line = result_line(true, 10, 0, &set, &[("a_ms", "ms"), ("b_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
