//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span is `(name, start, end, parent, op)`; spans of one operation
//! share its op id. Nothing inside the program is instrumented: every
//! span wraps a call the benchmark itself makes (client codec, socket
//! round trip, or an in-process replay of the server's layers).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `protocol.encode_request`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Close an open span now.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread traces, re-basing parent indices.
#[must_use]
pub fn merge(traces: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for trace in traces {
        let base = out.len();
        out.extend(trace.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once, and child
/// time outside the parent's interval does not count).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Write spans as tab-separated `index name start_ns end_ns parent op`.
///
/// # Errors
/// Propagates filesystem failures.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("index\tname\tstart_ns\tend_ns\tparent\top\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            // Overlaps `b`: the overlap is covered once.
            span("c", 60, 80, Some(0)),
            // Grandchild: counts against `a`, not `op`.
            span("a.x", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 40, 20 - 8, 30, 20, 8]);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![span("op", 100, 200, None), span("late", 150, 260, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 110]);
    }

    #[test]
    fn merge_rebases_parents() {
        let merged = merge(vec![
            vec![span("r", 0, 5, None), span("k", 1, 2, Some(0))],
            vec![span("r", 0, 5, None), span("k", 1, 2, Some(0))],
        ]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(durations(&merged, "k"), vec![1.0, 1.0]);
    }
}
