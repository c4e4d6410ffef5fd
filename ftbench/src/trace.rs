//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and, for
//! serving work, the request it belongs to. Spans are appended to one
//! vector behind a mutex (the black-box spans arrive from the conversion's
//! worker threads) and written out once the run ends. A disabled tracer
//! records nothing and only runs the closure.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a span whose children start before it ends.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.reserve_id();
        self.span_with_id(id, name, parent, request, f)
    }

    /// [`Tracer::span`] under an id taken from [`Tracer::reserve_id`].
    pub fn span_with_id<T>(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Runs `f` inside a span and returns its result with its duration in
    /// seconds, which is measured whether or not the tracer records.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = if self.enabled { self.reserve_id() } else { 0 };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, name, parent, request, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Records an interval measured by the caller.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length covered by a set of intervals, counting overlaps once.
pub fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may run in parallel and overlap.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    span.duration_ns() - union_ns(&children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: None,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(&[(20, 30), (0, 40)]), 40);
    }

    #[test]
    fn self_time_with_overlapping_parallel_children() {
        // Parent 0..100; two workers run children 10..50 and 30..70 in
        // parallel, then one child 80..90. Covered: 10..70 and 80..90.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 80, 90),
            // A grandchild does not count against the parent directly.
            span(5, Some(2), 0, 100),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 30);
        assert_eq!(self_ns(&spans[1], &spans), 0);
        assert_eq!(self_ns(&spans[3], &spans), 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, None, 10, 20), span(2, Some(1), 0, 15)];
        assert_eq!(self_ns(&spans[0], &spans), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, None, || 7), 7);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        tracer.span("x", None, Some(3), || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].request, Some(3));
    }
}
