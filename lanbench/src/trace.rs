//! The benchmark's own spans: one around every public call it makes into
//! the LAN crates (name, start, end, parent, request id), kept in memory
//! and written out as JSONL when the run ends.
//!
//! Parents are passed explicitly, so a span opened on a worker thread can
//! hang under a span of the thread that fanned the work out. A span's
//! self time is its duration minus the part of its interval covered by
//! the union of its children (children on parallel workers overlap).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 when tracing is off).
pub type SpanId = u64;

/// One finished span, times in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
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

/// In-memory span recorder; a disabled tracer runs the body untimed.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span; `body` receives the span's id so it can
    /// parent spans of its own (on any thread).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        body: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return body(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = body(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every finished span, ordered by id (open order).
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the union of its
/// children's intervals inside it.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per span name: (count, total ns, self ns).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Writes one JSON object per span (with its self time) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.request),
            s.start_ns,
            s.end_ns,
            selfs[&s.id]
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            request: None,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp(1, None, 0, 100),
            // Two parallel children overlapping on [30, 50).
            sp(2, Some(1), 10, 50),
            sp(3, Some(1), 30, 70),
            // A child running past its parent's end is clipped.
            sp(4, Some(1), 90, 120),
            sp(5, Some(2), 20, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 60 - 10);
        assert_eq!(st[&2], 40 - 5);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&5], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", None, None, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.span("outer", None, Some(7), |id| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("inner", Some(id), Some(7), |_| ()));
            });
            id
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.request, Some(7));
    }
}
