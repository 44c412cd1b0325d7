//! In-memory span tracing for the traced run.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). Spans are recorded on the calling thread into a
//! thread-local [`Tracer`]; with no tracer installed, [`span`] is a no-op,
//! so the untraced run pays one thread-local check per call site and no
//! clock reads. A layer's *self time* is its span's duration minus the
//! durations of its direct children.
//!
//! Each traced scope gets a tracer of its own ([`with_tracer`]), so spans
//! recorded in one scope can never crowd out those of the next.

use sag_wal::{WalError, WalFs};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spans kept in memory per tracer; later spans are dropped, and counted,
/// so a long run cannot grow without bound.
pub const MAX_SPANS: usize = 1_000_000;

/// Spans written to the trace file; the summary covers every kept span.
pub const WRITE_SPANS: usize = 50_000;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// The span's duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread, in start order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Run `f` under a fresh tracer on this thread and hand back what it
/// recorded. The thread's previous tracer, if any, is restored afterwards.
pub fn with_tracer<R>(f: impl FnOnce() -> R) -> (R, Tracer) {
    let fresh = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        dropped: 0,
    };
    let outer = TRACER.with(|t| t.borrow_mut().replace(fresh));
    let result = f();
    let tracer = TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), outer));
    (
        result,
        tracer.expect("the scope's tracer is still installed"),
    )
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard {
    index: Option<u32>,
}

/// Open a span named `name` on this thread; it ends when the returned guard
/// drops. Nested calls become children of the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tracer = t.as_mut()?;
        let parent = tracer.open.last().copied();
        let index = push_span(tracer, name, Instant::now(), parent)?;
        tracer.open.push(index);
        Some(index)
    });
    SpanGuard { index }
}

fn push_span(
    tracer: &mut Tracer,
    name: &'static str,
    start: Instant,
    parent: Option<u32>,
) -> Option<u32> {
    if tracer.spans.len() >= MAX_SPANS {
        tracer.dropped += 1;
        return None;
    }
    let index = tracer.spans.len() as u32;
    tracer.spans.push(Span {
        name,
        start_ns: start.saturating_duration_since(tracer.epoch).as_nanos() as u64,
        end_ns: 0,
        parent,
    });
    Some(index)
}

/// Open a span that does not nest on this thread's stack — for requests
/// whose lifetimes overlap, like pipelined round trips. Close it with
/// [`close`]. `None` when not tracing.
pub fn open(name: &'static str, start: Instant) -> Option<u32> {
    TRACER.with(|t| push_span(t.borrow_mut().as_mut()?, name, start, None))
}

/// End a span opened with [`open`].
pub fn close(index: u32, end: Instant) {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            let end_ns = end.saturating_duration_since(tracer.epoch).as_nanos() as u64;
            tracer.spans[index as usize].end_ns = end_ns;
        }
    });
}

/// Record a finished span under `parent` (a root when `None`).
pub fn record(name: &'static str, start: Instant, end: Instant, parent: Option<u32>) {
    if let Some(index) = TRACER.with(|t| push_span(t.borrow_mut().as_mut()?, name, start, parent)) {
        close(index, end);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        TRACER.with(|t| {
            if let Some(tracer) = t.borrow_mut().as_mut() {
                let end_ns = tracer.epoch.elapsed().as_nanos() as u64;
                tracer.spans[index as usize].end_ns = end_ns;
                if tracer.open.last() == Some(&index) {
                    tracer.open.pop();
                }
            }
        });
    }
}

/// Per-name durations and self times of a set of spans.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Span name → durations, ns, in start order.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// Span name → self times (duration minus direct children), ns.
    pub self_times: BTreeMap<&'static str, Vec<u64>>,
    /// Span name → per-span child time grouped by child name, ns: for each
    /// parent span, the summed duration of its children of each name.
    pub child_times: BTreeMap<&'static str, Vec<BTreeMap<&'static str, u64>>>,
}

impl Tracer {
    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the tracer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations and self times grouped by span name.
    #[must_use]
    pub fn summarize(&self) -> SpanSummary {
        let closed = |s: &Span| s.end_ns >= s.start_ns && s.end_ns != 0;
        let mut children: Vec<BTreeMap<&'static str, u64>> =
            vec![BTreeMap::new(); self.spans.len()];
        for span in self.spans.iter().filter(|s| closed(s)) {
            if let Some(parent) = span.parent {
                *children[parent as usize].entry(span.name).or_default() += span.duration_ns();
            }
        }
        let mut summary = SpanSummary::default();
        for (span, kids) in self.spans.iter().zip(children) {
            if !closed(span) {
                continue;
            }
            let covered: u64 = kids.values().sum();
            summary
                .durations
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
            summary
                .self_times
                .entry(span.name)
                .or_default()
                .push(span.duration_ns().saturating_sub(covered));
            summary.child_times.entry(span.name).or_default().push(kids);
        }
        summary
    }

    /// Write the first [`WRITE_SPANS`] spans as tab-separated
    /// `index parent name start_ns end_ns` lines (parent `-` for roots).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(
            out,
            "# {} spans recorded, {} dropped, {} written",
            self.spans.len(),
            self.dropped,
            self.spans.len().min(WRITE_SPANS)
        )?;
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().take(WRITE_SPANS).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Counters of the WAL storage calls a [`TimingFs`] forwarded.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// `append` calls.
    pub appends: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// `sync` calls (durability barriers).
    pub syncs: AtomicU64,
}

impl WalCounters {
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }

    /// `(appends, bytes, syncs)` so far.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            Self::load(&self.appends),
            Self::load(&self.bytes),
            Self::load(&self.syncs),
        )
    }
}

/// A [`WalFs`] that forwards to another and records a `wal.append` /
/// `wal.sync` span around each call, so WAL time shows up as a child of the
/// service span that caused it.
#[derive(Debug)]
pub struct TimingFs {
    inner: Box<dyn WalFs>,
    counters: Arc<WalCounters>,
}

impl TimingFs {
    /// Wrap `inner`, counting into `counters`.
    #[must_use]
    pub fn new(inner: Box<dyn WalFs>, counters: Arc<WalCounters>) -> Self {
        TimingFs { inner, counters }
    }
}

impl WalFs for TimingFs {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), WalError> {
        let _span = span("wal.append");
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(file, bytes)
    }

    fn sync(&mut self, file: &str) -> Result<(), WalError> {
        let _span = span("wal.sync");
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(file)
    }

    fn replace(&mut self, file: &str, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.replace(file, bytes)
    }

    fn read(&self, file: &str) -> Result<Option<Vec<u8>>, WalError> {
        self.inner.read(file)
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        self.inner.list()
    }

    fn remove(&mut self, file: &str) -> Result<(), WalError> {
        self.inner.remove(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let ((), tracer) = with_tracer(|| {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        });
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        let summary = tracer.summarize();
        let outer = summary.durations["outer"][0];
        let inner = summary.durations["inner"][0];
        assert_eq!(summary.self_times["outer"][0], outer - inner);
        assert_eq!(summary.child_times["outer"][0]["inner"], inner);
        // No tracer: spans are inert.
        let ignored = span("untraced");
        assert!(ignored.index.is_none());
    }

    #[test]
    fn a_full_tracer_counts_what_it_drops_and_the_next_scope_starts_empty() {
        let ((), full) = with_tracer(|| {
            for _ in 0..MAX_SPANS + 3 {
                let _span = span("wire");
            }
        });
        assert_eq!(full.spans().len(), MAX_SPANS);
        assert_eq!(full.dropped(), 3);
        let ((), next) = with_tracer(|| {
            let _span = span("layer");
        });
        assert_eq!(next.spans().len(), 1);
        assert_eq!(next.dropped(), 0);
    }
}
