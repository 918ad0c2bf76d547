//! Backend selection for experiment binaries: `--storage=sim|file
//! [--dir=<path>] [--metrics-out=<path>] [--shards=N]` (or the
//! `BFTREE_STORAGE`/`BFTREE_DIR`/`BFTREE_METRICS_OUT`/`BFTREE_SHARDS`
//! environment variables, so harness scripts can flip a whole sweep
//! at once).
//!
//! Every experiment defaults to the simulator. With `--storage=file`
//! each device the experiment creates is backed by its own page store
//! file: a fresh subdirectory per created context or log device, so a
//! "cold device" is cold on disk too and cross-cell contamination is
//! impossible. Files live under `--dir` when given (left in place for
//! inspection), otherwise under a self-cleaning scratch directory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bftree_storage::{
    Backend, DeviceKind, IoContext, PageDevice, PolicyKind, ScratchDir, StorageConfig,
};

/// Parsed backend selection (see the [module docs](self)).
#[derive(Debug)]
pub struct StorageArgs {
    file: bool,
    root: PathBuf,
    /// Keeps the scratch directory alive (and cleaned up on exit)
    /// when no `--dir` was given.
    _scratch: Option<ScratchDir>,
    /// Distinguishes the per-context subdirectories.
    contexts: AtomicU64,
    /// Where to write the end-of-run Prometheus metrics snapshot
    /// (`--metrics-out=<path>` / `BFTREE_METRICS_OUT`).
    metrics_out: Option<PathBuf>,
    /// How many shards experiments that support the sharded serving
    /// layer should run (`--shards=N` / `BFTREE_SHARDS`, default 1 =
    /// unsharded).
    shards: usize,
}

impl StorageArgs {
    /// Parse the process's arguments and environment. Unrecognized
    /// arguments are ignored (they belong to the binary). A bad
    /// `--storage` value, a `--dir` with no value, or a `--dir` that
    /// cannot be created or written prints one clear line to stderr
    /// and exits with status 2 — an experiment binary must never greet
    /// an operator's typo with a panic backtrace.
    pub fn from_cli() -> Self {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        if let Ok(v) = std::env::var("BFTREE_STORAGE") {
            args.push(format!("--storage={v}"));
        }
        if let Ok(v) = std::env::var("BFTREE_DIR") {
            args.push(format!("--dir={v}"));
        }
        if let Ok(v) = std::env::var("BFTREE_METRICS_OUT") {
            args.push(format!("--metrics-out={v}"));
        }
        if let Ok(v) = std::env::var("BFTREE_SHARDS") {
            args.push(format!("--shards={v}"));
        }
        match Self::try_parse(args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an explicit argument list (`--storage=file`,
    /// `--storage file`, `--dir=...`, `--dir ...`; later wins).
    ///
    /// # Panics
    ///
    /// On any [`StorageArgs::try_parse`] error — the in-process entry
    /// point for tests; binaries go through [`StorageArgs::from_cli`],
    /// which exits cleanly instead.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Fallible parse: every operator mistake comes back as a one-line
    /// message (bad `--storage`, a flag with no value, a `--dir` that
    /// cannot be created or is not writable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut storage = String::from("sim");
        let mut dir: Option<PathBuf> = None;
        let mut metrics_out: Option<PathBuf> = None;
        let mut shards = 1usize;
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let mut matched: Option<(&str, Option<String>)> = None;
            for key in ["--storage", "--dir", "--metrics-out", "--shards"] {
                if let Some(v) = arg.strip_prefix(&format!("{key}=")) {
                    matched = Some((key, Some(v.to_string())));
                    break;
                }
                if arg == key {
                    matched = Some((key, args.next()));
                    break;
                }
            }
            let Some((key, value)) = matched else {
                continue;
            };
            let Some(value) = value else {
                return Err(format!("{key} requires a value (e.g. {key}=PATH)"));
            };
            match key {
                "--storage" => storage = value,
                "--dir" => dir = Some(PathBuf::from(value)),
                "--metrics-out" => metrics_out = Some(PathBuf::from(value)),
                "--shards" => {
                    shards = match value.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => {
                            return Err(format!(
                                "--shards must be a positive integer, got `{value}`"
                            ))
                        }
                    }
                }
                _ => unreachable!("keys above are exhaustive"),
            }
        }
        let file = match storage.as_str() {
            "sim" => false,
            "file" => true,
            other => return Err(format!("--storage must be `sim` or `file`, got `{other}`")),
        };
        let (root, scratch) = match (file, dir) {
            (true, Some(dir)) => {
                ensure_writable_dir(&dir)?;
                (dir, None)
            }
            (true, None) => {
                let scratch = ScratchDir::new("bench")
                    .map_err(|e| format!("cannot create a scratch directory: {e}"))?;
                (scratch.path().to_path_buf(), Some(scratch))
            }
            (false, _) => (PathBuf::new(), None),
        };
        Ok(Self {
            file,
            root,
            _scratch: scratch,
            contexts: AtomicU64::new(0),
            metrics_out,
            shards,
        })
    }

    /// How many shards sharding-aware experiments should run
    /// (`--shards=N` / `BFTREE_SHARDS`; 1 = unsharded, the default).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Where `--metrics-out` points, if given.
    pub fn metrics_out(&self) -> Option<&std::path::Path> {
        self.metrics_out.as_deref()
    }

    /// Write `reg`'s Prometheus rendering to the `--metrics-out` path
    /// (no-op when the flag was not given). Returns whether a file was
    /// written.
    pub fn write_metrics(&self, reg: &bftree_obs::MetricsRegistry) -> bool {
        let Some(path) = self.metrics_out.as_deref() else {
            return false;
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("metrics-out parent directory");
            }
        }
        std::fs::write(path, reg.render_prometheus()).expect("write metrics snapshot");
        eprintln!("metrics snapshot written to {}", path.display());
        true
    }

    /// Whether the file backend was selected.
    pub fn is_file(&self) -> bool {
        self.file
    }

    /// Short backend name (`"sim"` / `"file"`).
    pub fn label(&self) -> &'static str {
        if self.file {
            "file"
        } else {
            "sim"
        }
    }

    /// A [`Backend`] rooted in a fresh subdirectory — each call gets
    /// its own, so every context starts on genuinely cold files.
    pub fn backend(&self) -> Backend {
        if !self.file {
            return Backend::Sim;
        }
        let n = self.contexts.fetch_add(1, Ordering::Relaxed);
        Backend::file(self.root.join(format!("ctx{n}")))
    }

    /// Cold devices for `config` on the selected backend (the drop-in
    /// replacement for `IoContext::cold` in experiment binaries).
    pub fn io_cold(&self, config: StorageConfig) -> IoContext {
        IoContext::cold_on(&self.backend(), config).expect("backend devices")
    }

    /// Shared-budget devices for `config` on the selected backend.
    pub fn io_with_shared_budget(
        &self,
        config: StorageConfig,
        budget_bytes: u64,
        policy: PolicyKind,
    ) -> IoContext {
        IoContext::with_shared_budget_on(&self.backend(), config, budget_bytes, policy)
            .expect("backend devices")
    }

    /// A cold log device of `kind` on the selected backend (what a
    /// `DurableIndex` logs to).
    pub fn log_device(&self, kind: DeviceKind) -> PageDevice {
        self.backend().device(kind, "wal").expect("backend devices")
    }
}

/// Create `dir` if needed and prove it is writable with a probe file
/// (removed afterwards). Errors are one-line, operator-facing.
fn ensure_writable_dir(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("--dir {}: cannot create directory: {e}", dir.display()))?;
    let probe = dir.join(".bftree-write-probe");
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--dir {}: not writable: {e}", dir.display()))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_sim() {
        let s = StorageArgs::parse(Vec::new());
        assert!(!s.is_file());
        assert_eq!(s.label(), "sim");
        assert!(s.io_cold(StorageConfig::SsdSsd).index.store().is_none());
    }

    #[test]
    fn parses_metrics_out_and_writes_a_snapshot() {
        let s = StorageArgs::parse(Vec::new());
        assert!(s.metrics_out().is_none());
        assert!(!s.write_metrics(&bftree_obs::MetricsRegistry::new()));

        let scratch = ScratchDir::new("metrics").unwrap();
        let path = scratch.path().join("snap.prom");
        let s = StorageArgs::parse(vec![format!("--metrics-out={}", path.display())]);
        assert_eq!(s.metrics_out(), Some(path.as_path()));
        let mut reg = bftree_obs::MetricsRegistry::new();
        reg.counter("bftree_test_total", "A test counter.", &[], 7);
        assert!(s.write_metrics(&reg));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("bftree_test_total 7"));
    }

    #[test]
    fn parses_both_argument_shapes() {
        for args in [
            vec!["--storage=file".to_string()],
            vec!["--storage".to_string(), "file".to_string()],
            vec!["--smoke".to_string(), "--storage=file".to_string()],
        ] {
            assert!(StorageArgs::parse(args).is_file());
        }
    }

    #[test]
    fn parses_shards_and_rejects_nonsense() {
        assert_eq!(StorageArgs::parse(Vec::new()).shards(), 1);
        assert_eq!(
            StorageArgs::parse(vec!["--shards=4".to_string()]).shards(),
            4
        );
        assert_eq!(
            StorageArgs::parse(vec!["--shards".to_string(), "8".to_string()]).shards(),
            8
        );
        for bad in ["--shards=0", "--shards=lots", "--shards=-2"] {
            let err = StorageArgs::try_parse(vec![bad.to_string()]).unwrap_err();
            assert!(err.contains("--shards"), "{err}");
        }
    }

    #[test]
    fn operator_mistakes_come_back_as_one_line_errors() {
        let err = StorageArgs::try_parse(vec!["--storage=tape".to_string()]).unwrap_err();
        assert!(err.contains("--storage"), "{err}");

        for flag in ["--storage", "--dir", "--metrics-out", "--shards"] {
            let err = StorageArgs::try_parse(vec![flag.to_string()]).unwrap_err();
            assert!(err.contains("requires a value"), "{err}");
        }

        // A --dir whose parent is a regular file cannot be created.
        let scratch = ScratchDir::new("bad-dir").unwrap();
        let blocker = scratch.path().join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = StorageArgs::try_parse(vec![
            "--storage=file".to_string(),
            format!("--dir={}", blocker.join("sub").display()),
        ])
        .unwrap_err();
        assert!(err.contains("cannot create"), "{err}");
    }

    #[test]
    fn a_valid_dir_is_created_and_probed() {
        let scratch = ScratchDir::new("good-dir").unwrap();
        let dir = scratch.path().join("deep").join("run");
        let s = StorageArgs::parse(vec![
            "--storage=file".to_string(),
            format!("--dir={}", dir.display()),
        ]);
        assert!(s.is_file());
        assert!(dir.is_dir(), "--dir is created on demand");
        assert!(
            !dir.join(".bftree-write-probe").exists(),
            "the write probe cleans up after itself"
        );
    }

    #[test]
    fn file_backend_materializes_distinct_cold_contexts() {
        let s = StorageArgs::parse(vec!["--storage=file".to_string()]);
        let a = s.io_cold(StorageConfig::SsdSsd);
        let b = s.io_cold(StorageConfig::SsdSsd);
        let store_a = a.data.store().expect("file-backed");
        let store_b = b.data.store().expect("file-backed");
        assert_ne!(store_a.path(), store_b.path(), "fresh files per context");
        a.data.read_random(1);
        assert_eq!(store_a.wall().reads, 1);
        assert_eq!(store_b.wall().reads, 0);
        assert!(s.log_device(DeviceKind::Ssd).store().is_some());
        assert!(
            s.log_device(DeviceKind::Memory).store().is_none(),
            "memory devices stay simulated"
        );
    }
}
