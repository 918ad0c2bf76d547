//! In-memory spans recorded by the traced run around the calls the
//! benchmark makes into each layer, written out when the run ends.

use std::io::Write as _;
use std::path::Path;

/// One timed call: which op it served, which layer, and its interval
/// in nanoseconds since the start of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A bounded span buffer. Spans past the cap are counted, not kept, so
/// a long run cannot grow the buffer without bound.
#[derive(Debug)]
pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Self {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    /// Keep one span (or count it as dropped once the buffer is full).
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                req,
                name,
                parent,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Move every span of `other` into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        for s in other.spans {
            self.record(s.req, s.name, s.parent, s.start_ns, s.dur_ns);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write the spans as JSON lines, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"req\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.req,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}
