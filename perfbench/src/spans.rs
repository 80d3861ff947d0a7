//! In-memory span recorder for the traced run. The benchmark wraps each
//! call it makes into a layer of the simulator in [`Tracer::span`]; a
//! span keeps its name, start and end, the enclosing span and the
//! allocations made while it was open (children included). Spans are
//! written out once, when the run ends.

use crate::alloc;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans while on; while off, [`Tracer::span`] only calls through.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording (and allocation counting with it).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
        alloc::set_counting(on);
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let (allocs, bytes) = alloc::totals();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            bytes,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        let (allocs, bytes) = alloc::totals();
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.bytes = bytes - span.bytes;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes every span as one tab-separated line: id, parent id (`-`
    /// for a root), name, start and end in ns since the run began,
    /// allocations and allocated bytes.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tallocs\tbytes")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.bytes
            )?;
        }
        out.flush()
    }
}
